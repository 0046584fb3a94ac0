//! Property tests for the production scoring path: every baseline scores
//! candidates through `RiverProblem::rmse`, which runs the split register
//! VM. Its result must equal the tree-walking interpreter's RMSE bit for
//! bit — over calibration vectors anywhere in the Table III box (corners
//! included, where states saturate at the cap or go NaN) and over GGGP
//! phenotypes.

use gmr_baselines::gggp::{Gggp, GggpConfig};
use gmr_baselines::objective::{CalibrationProblem, Objective};
use gmr_bio::params::{NUM_CALIBRATED, PARAMS};
use gmr_bio::RiverProblem;
use gmr_expr::Expr;
use gmr_hydro::{generate, rmse, SyntheticConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Calibration over a one-year training split, built once per test binary.
fn calibration() -> &'static CalibrationProblem {
    static CP: OnceLock<CalibrationProblem> = OnceLock::new();
    CP.get_or_init(|| {
        let ds = generate(&SyntheticConfig {
            start_year: 1996,
            end_year: 1997,
            train_end_year: 1996,
            ..Default::default()
        });
        CalibrationProblem::new(RiverProblem::from_dataset(&ds, ds.train))
    })
}

fn interpreted_rmse(p: &RiverProblem, eqs: &[Expr; 2]) -> f64 {
    rmse(&p.simulate_interpreted(eqs), &p.observed)
}

/// `u ∈ [0, 1]` per coordinate mapped into the Table III box.
fn in_box(u: &[f64]) -> Vec<f64> {
    u.iter()
        .zip(&PARAMS)
        .map(|(&u, s)| (s.min + u * (s.max - s.min)).clamp(s.min, s.max))
        .collect()
}

/// One bound per coordinate: `true` picks the upper one.
fn corner(upper: &[bool]) -> Vec<f64> {
    upper
        .iter()
        .zip(&PARAMS)
        .map(|(&hi, s)| if hi { s.max } else { s.min })
        .collect()
}

fn assert_eval_matches_interpreter(cp: &CalibrationProblem, theta: &[f64]) -> TestCaseResult {
    let got = cp.eval(theta);
    let want = interpreted_rmse(cp.problem(), &cp.instantiate(theta));
    prop_assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "θ = {theta:?}: {got} vs {want}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calibration_eval_matches_interpreter_inside_the_box(
        u in prop::collection::vec(0.0f64..=1.0, NUM_CALIBRATED),
    ) {
        assert_eval_matches_interpreter(calibration(), &in_box(&u))?;
    }

    #[test]
    fn calibration_eval_matches_interpreter_at_box_corners(
        upper in prop::collection::vec(any::<bool>(), NUM_CALIBRATED),
    ) {
        assert_eval_matches_interpreter(calibration(), &corner(&upper))?;
    }

    #[test]
    fn gggp_phenotype_rmse_matches_interpreter(
        seed in any::<u64>(),
        max_depth in 1usize..7,
        p_active in 0.2f64..=1.0,
        u in prop::collection::vec(0.0f64..=1.0, NUM_CALIBRATED),
    ) {
        let p = calibration().problem();
        let cfg = GggpConfig { max_depth, p_active, threads: 1, ..Default::default() };
        let g = Gggp::new(p, cfg);
        let mut ind = g.random_individual(&mut StdRng::seed_from_u64(seed));
        ind.theta = in_box(&u);
        let eqs = g.phenotype(&ind);
        let want = interpreted_rmse(p, &eqs);
        prop_assert_eq!(p.rmse(&eqs).to_bits(), want.to_bits(), "{:?}", eqs);
    }
}

/// The corner strategy above only proves something if corners really
/// reach the saturating regime: some corner must pin B_Phy at the cap.
#[test]
fn some_box_corner_saturates_the_state() {
    let cp = calibration();
    let cap = cp.problem().opts.state_cap;
    let mut rng = StdRng::seed_from_u64(7);
    let saturated = (0..64).any(|_| {
        let upper: Vec<bool> = (0..NUM_CALIBRATED).map(|_| rng.gen()).collect();
        let eqs = cp.instantiate(&corner(&upper));
        cp.problem().simulate_interpreted(&eqs).contains(&cap)
    });
    assert!(saturated, "no sampled corner drives B_Phy to the cap");
}
