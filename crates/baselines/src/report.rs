//! Uniform scoring record for the Table V comparison.

use gmr_bio::RiverProblem;
use gmr_expr::Expr;

/// Train/test accuracy of one method, as one row of Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodScore {
    /// Method name as printed in the table.
    pub name: String,
    /// Method class ("Knowledge-driven", "Data-driven", "Model calibration",
    /// "Model revision").
    pub class: String,
    /// Training RMSE.
    pub train_rmse: f64,
    /// Training MAE.
    pub train_mae: f64,
    /// Test RMSE.
    pub test_rmse: f64,
    /// Test MAE.
    pub test_mae: f64,
}

impl MethodScore {
    /// Score a process-model system on both splits.
    pub fn from_system(
        name: impl Into<String>,
        class: impl Into<String>,
        eqs: &[Expr; 2],
        train: &RiverProblem,
        test: &RiverProblem,
    ) -> Self {
        let (train_rmse, train_mae) = train.rmse_mae(eqs);
        let (test_rmse, test_mae) = test.rmse_mae(eqs);
        MethodScore {
            name: name.into(),
            class: class.into(),
            train_rmse,
            train_mae,
            test_rmse,
            test_mae,
        }
    }

    /// Score pre-computed prediction series on both splits.
    pub fn from_predictions(
        name: impl Into<String>,
        class: impl Into<String>,
        train_pred: &[f64],
        train_obs: &[f64],
        test_pred: &[f64],
        test_obs: &[f64],
    ) -> Self {
        MethodScore {
            name: name.into(),
            class: class.into(),
            train_rmse: gmr_hydro::rmse(train_pred, train_obs),
            train_mae: gmr_hydro::mae(train_pred, train_obs),
            test_rmse: gmr_hydro::rmse(test_pred, test_obs),
            test_mae: gmr_hydro::mae(test_pred, test_obs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_predictions_uses_shared_metrics() {
        let s = MethodScore::from_predictions(
            "X",
            "Data-driven",
            &[1.0, 2.0],
            &[1.0, 4.0],
            &[0.0],
            &[3.0],
        );
        assert!((s.train_rmse - (2.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.train_mae, 1.0);
        assert_eq!(s.test_rmse, 3.0);
        assert_eq!(s.test_mae, 3.0);
    }
}
