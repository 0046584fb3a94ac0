//! Runners producing one Table V row per method.

use crate::Scale;
use gmr_baselines::arimax::{ArimaxConfig, ArimaxModel};
use gmr_baselines::calibrators::all_calibrators;
use gmr_baselines::gggp::{Gggp, GggpConfig};
use gmr_baselines::lstm::{LstmConfig, LstmModel};
use gmr_baselines::objective::CalibrationProblem;
use gmr_baselines::MethodScore;
use gmr_bio::manual::manual_system;
use gmr_bio::RiverProblem;
use gmr_core::{Gmr, GmrConfig, GmrResult};
use gmr_hydro::network::StationKind;
use gmr_hydro::{RiverDataset, Split, NUM_VARS};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Exogenous feature rows over a split: the ten variables at S1 alone, or
/// at all nine measuring stations (the paper's `-S1` / `-All` variants).
pub fn exog_features(ds: &RiverDataset, split: Split, all_stations: bool) -> Vec<Vec<f64>> {
    let station_ids: Vec<usize> = if all_stations {
        ds.network
            .stations()
            .filter(|(_, s)| s.kind == StationKind::Measuring)
            .map(|(id, _)| id.0)
            .collect()
    } else {
        vec![ds.target.0]
    };
    (split.start..split.end)
        .map(|day| {
            let mut row = Vec::with_capacity(station_ids.len() * NUM_VARS);
            for &s in &station_ids {
                row.extend_from_slice(&ds.stations[s].vars[day]);
            }
            row
        })
        .collect()
}

/// The M ANUAL row: the expert equations at their prior means.
pub fn run_manual(train: &RiverProblem, test: &RiverProblem) -> MethodScore {
    MethodScore::from_system("Manual", "Knowledge-driven", &manual_system(), train, test)
}

/// All nine calibration rows. Each method runs `seeds` independent times;
/// the best row by test RMSE is kept, matching the paper's Table V protocol
/// ("best models denote those with the smallest test RMSE"). The 9 × `seeds`
/// runs are independent and seeded, so they run concurrently, one worker
/// per available core; the rows are the serial roster's, bit for bit.
pub fn run_calibrators(
    train: &RiverProblem,
    test: &RiverProblem,
    budget: usize,
    seeds: usize,
    seed: u64,
) -> Vec<MethodScore> {
    run_calibrators_on(train, test, budget, seeds, seed, crate::threads())
}

/// [`run_calibrators`] on `workers` threads: the calling thread and
/// `workers - 1` scoped ones. Workers claim run indices from a shared
/// counter; each run lands back at its index, so
/// row order, seed order (and with it the first-best tie-break) and every
/// bit are independent of `workers` and of scheduling.
fn run_calibrators_on(
    train: &RiverProblem,
    test: &RiverProblem,
    budget: usize,
    seeds: usize,
    seed: u64,
    workers: usize,
) -> Vec<MethodScore> {
    let cp = CalibrationProblem::new(train.clone());
    let seeds = seeds.max(1);
    let jobs = all_calibrators().len() * seeds;
    let next = AtomicUsize::new(0);
    let worker = || {
        let roster = all_calibrators();
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; the rows
            // travel back through `join`.
            let job = next.fetch_add(1, Ordering::Relaxed);
            if job >= jobs {
                return done;
            }
            let (c, i) = (&roster[job / seeds], job % seeds);
            let out = c.calibrate(&cp, budget, seed.wrapping_add(31 * i as u64));
            let eqs = cp.instantiate(&out.theta);
            let row = MethodScore::from_system(c.name(), "Model calibration", &eqs, train, test);
            done.push((job, row));
        }
    };
    let mut runs: Vec<(usize, MethodScore)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers.clamp(1, jobs))
            .map(|_| s.spawn(worker))
            .collect();
        let mut runs = worker();
        for h in handles {
            runs.extend(h.join().expect("calibration worker panicked"));
        }
        runs
    });
    runs.sort_by_key(|(job, _)| *job);
    runs.chunks(seeds)
        .map(|per_method| {
            per_method
                .iter()
                .map(|(_, row)| row)
                .min_by(|a, b| a.test_rmse.total_cmp(&b.test_rmse))
                .expect("at least one seed")
                .clone()
        })
        .collect()
}

/// The GGGP model-revision row.
pub fn run_gggp(
    train: &RiverProblem,
    test: &RiverProblem,
    scale: &Scale,
    seed: u64,
) -> MethodScore {
    let cfg = GggpConfig {
        pop_size: scale.gggp_pop,
        max_gen: scale.gggp_gen,
        seed,
        ..GggpConfig::default()
    };
    let res = Gggp::new(train, cfg).run();
    MethodScore::from_system("GGGP", "Model revision", &res.equations, train, test)
}

/// The GMR row, plus the full per-run results for downstream analysis
/// (Fig. 9 reuses the finalists). Selection among the independent runs
/// follows the paper's Table V protocol: "best models denote those with the
/// smallest test RMSE".
pub fn run_gmr(ds: &RiverDataset, scale: &Scale, seed: u64) -> (MethodScore, Vec<GmrResult>) {
    let gmr = Gmr::new(ds);
    let cfg = GmrConfig {
        gp: scale.gp_config(seed),
        runs: scale.gmr_runs,
        ..GmrConfig::default()
    };
    let mut results = gmr.run_many(&cfg);
    results.sort_by(|a, b| a.test_rmse.total_cmp(&b.test_rmse));
    let best = results.first().expect("at least one run");
    let score = MethodScore {
        name: "GMR".into(),
        class: "Model revision".into(),
        train_rmse: best.train_rmse,
        train_mae: best.train_mae,
        test_rmse: best.test_rmse,
        test_mae: best.test_mae,
    };
    (score, results)
}

/// One ARIMAX row (`-S1` or `-All`).
pub fn run_arimax(ds: &RiverDataset, all_stations: bool) -> MethodScore {
    let name = if all_stations {
        "ARIMAX-All"
    } else {
        "ARIMAX-S1"
    };
    let y_train = ds.observed(ds.train).to_vec();
    let y_test = ds.observed(ds.test).to_vec();
    let x_train = exog_features(ds, ds.train, all_stations);
    let x_test = exog_features(ds, ds.test, all_stations);
    match ArimaxModel::fit(&y_train, &x_train, &ArimaxConfig::default()) {
        Ok(m) => {
            // Both splits are scored in free-run mode — the information
            // regime every process model operates under. (One-step-ahead
            // "fitted values" on weekly-interpolated chlorophyll are nearly
            // exact by construction and would not be comparable.)
            let seed_len = (2 * (m.p + m.d)).max(4).min(y_train.len() / 2);
            let fitted: Vec<f64> = {
                let mut v: Vec<f64> = y_train[..seed_len].to_vec();
                v.extend(
                    m.forecast(&y_train[..seed_len], &x_train[seed_len..])
                        .iter()
                        .map(|p| p.max(0.0)),
                );
                v
            };
            let forecast: Vec<f64> = m
                .forecast(&y_train, &x_test)
                .iter()
                .map(|v| v.max(0.0))
                .collect();
            MethodScore::from_predictions(
                name,
                "Data-driven",
                &fitted,
                &y_train,
                &forecast,
                &y_test,
            )
        }
        Err(_) => MethodScore {
            name: name.into(),
            class: "Data-driven".into(),
            train_rmse: f64::INFINITY,
            train_mae: f64::INFINITY,
            test_rmse: f64::INFINITY,
            test_mae: f64::INFINITY,
        },
    }
}

/// The chlorophyll measurement cadence at S1 — one week. "The next time
/// step" for the biological target is the next *measurement*, so the RNN
/// (like the paper's) forecasts one cadence step ahead.
pub const RNN_HORIZON: usize = 7;

/// One RNN (LSTM) row (`-S1` or `-All`): "predicting the phytoplankton
/// biomass at S1 at the next time step from observed variables at the
/// current time" — features at day t pair with chlorophyll at day t+7
/// (the weekly measurement cadence).
pub fn run_rnn(ds: &RiverDataset, all_stations: bool, epochs: usize, seed: u64) -> MethodScore {
    let name = if all_stations { "RNN-All" } else { "RNN-S1" };
    let h = RNN_HORIZON;
    let y_train = ds.observed(ds.train)[h..].to_vec();
    let y_test = ds.observed(ds.test)[h..].to_vec();
    let mut x_train = exog_features(ds, ds.train, all_stations);
    x_train.truncate(x_train.len() - h);
    let mut x_test = exog_features(ds, ds.test, all_stations);
    x_test.truncate(x_test.len() - h);
    let cfg = LstmConfig {
        epochs,
        seed,
        ..LstmConfig::default()
    };
    let model = LstmModel::train(&x_train, &y_train, &cfg);
    let train_pred = model.predict(&x_train);
    let test_pred = model.predict(&x_test);
    MethodScore::from_predictions(
        name,
        "Data-driven",
        &train_pred,
        &y_train,
        &test_pred,
        &y_test,
    )
}

/// The full Table V roster, in the paper's row order. Returns the rows plus
/// the GMR finalists for reuse.
pub fn run_all(ds: &RiverDataset, scale: &Scale, seed: u64) -> (Vec<MethodScore>, Vec<GmrResult>) {
    let train = RiverProblem::from_dataset(ds, ds.train);
    let test = RiverProblem::from_dataset(ds, ds.test);
    let mut rows = Vec::new();
    gmr_obsv::info!("[{}] Manual…", scale.name);
    rows.push(run_manual(&train, &test));
    gmr_obsv::info!("[{}] RNN-S1…", scale.name);
    rows.push(run_rnn(ds, false, scale.lstm_epochs_s1, seed));
    gmr_obsv::info!("[{}] RNN-All…", scale.name);
    rows.push(run_rnn(ds, true, scale.lstm_epochs_all, seed));
    gmr_obsv::info!("[{}] ARIMAX-S1…", scale.name);
    rows.push(run_arimax(ds, false));
    gmr_obsv::info!("[{}] ARIMAX-All…", scale.name);
    rows.push(run_arimax(ds, true));
    gmr_obsv::info!("[{}] calibration ×9…", scale.name);
    rows.extend(run_calibrators(
        &train,
        &test,
        scale.calib_budget,
        scale.calib_seeds,
        seed,
    ));
    gmr_obsv::info!("[{}] GGGP…", scale.name);
    rows.push(run_gggp(&train, &test, scale, seed));
    gmr_obsv::info!("[{}] GMR ({} runs)…", scale.name, scale.gmr_runs);
    let (gmr_row, finalists) = run_gmr(ds, scale, seed);
    rows.push(gmr_row);
    (rows, finalists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;

    fn tiny() -> (RiverDataset, Scale) {
        let mut s = Scale::quick();
        s.end_year = 1997;
        s.train_end_year = 1996;
        s.calib_budget = 40;
        s.calib_seeds = 1;
        s.gmr_runs = 1;
        s.gmr_pop = 10;
        s.gmr_gen = 2;
        s.gggp_pop = 10;
        s.gggp_gen = 2;
        s.lstm_epochs_s1 = 1;
        s.lstm_epochs_all = 1;
        (dataset(&s), s)
    }

    #[test]
    fn exog_feature_widths() {
        let (ds, _) = tiny();
        let s1 = exog_features(&ds, ds.train, false);
        let all = exog_features(&ds, ds.train, true);
        assert_eq!(s1[0].len(), NUM_VARS);
        assert_eq!(all[0].len(), 9 * NUM_VARS);
        assert_eq!(s1.len(), ds.train.len());
    }

    #[test]
    fn manual_row_scores_finite_or_lethal() {
        let (ds, _) = tiny();
        let train = RiverProblem::from_dataset(&ds, ds.train);
        let test = RiverProblem::from_dataset(&ds, ds.test);
        let row = run_manual(&train, &test);
        assert_eq!(row.class, "Knowledge-driven");
        assert!(row.train_rmse > 0.0);
    }

    #[test]
    fn arimax_rows_produce_finite_scores() {
        let (ds, _) = tiny();
        let row = run_arimax(&ds, false);
        assert!(row.train_rmse.is_finite(), "{row:?}");
        assert!(row.test_rmse.is_finite());
    }

    /// Name and score bits of each row.
    fn row_bits(rows: &[MethodScore]) -> Vec<(String, [u64; 4])> {
        rows.iter()
            .map(|r| {
                let s = [r.train_rmse, r.train_mae, r.test_rmse, r.test_mae];
                (r.name.clone(), s.map(f64::to_bits))
            })
            .collect()
    }

    #[test]
    fn concurrent_calibrators_match_the_serial_roster() {
        let (ds, _) = tiny();
        let train = RiverProblem::from_dataset(&ds, ds.train);
        let test = RiverProblem::from_dataset(&ds, ds.test);
        // Two seeds per method, so the best-of-seeds choice is exercised.
        let (budget, seeds, seed) = (20, 2, 5u64);
        // The serial composition, in Table V order.
        let cp = CalibrationProblem::new(train.clone());
        let serial: Vec<MethodScore> = all_calibrators()
            .iter()
            .map(|c| {
                (0..seeds)
                    .map(|i| {
                        let out = c.calibrate(&cp, budget, seed.wrapping_add(31 * i as u64));
                        let eqs = cp.instantiate(&out.theta);
                        MethodScore::from_system(c.name(), "Model calibration", &eqs, &train, &test)
                    })
                    .min_by(|a, b| a.test_rmse.total_cmp(&b.test_rmse))
                    .expect("two seeds")
            })
            .collect();
        assert_eq!(serial.len(), 9);
        // One worker, fewer workers than methods, more workers than runs.
        for workers in [1, 2, 12] {
            let rows = run_calibrators_on(&train, &test, budget, seeds, seed, workers);
            assert_eq!(row_bits(&rows), row_bits(&serial), "{workers} workers");
        }
        let rows = run_calibrators(&train, &test, budget, seeds, seed);
        assert_eq!(row_bits(&rows), row_bits(&serial), "default workers");
    }

    #[test]
    fn full_roster_has_sixteen_rows() {
        // 1 knowledge-driven + 4 data-driven + 9 calibration + 2 revision.
        let (ds, scale) = tiny();
        let (rows, finalists) = run_all(&ds, &scale, 0);
        assert_eq!(rows.len(), 16);
        assert_eq!(finalists.len(), 1);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names[0], "Manual");
        assert_eq!(*names.last().expect("non-empty"), "GMR");
        assert!(names.contains(&"DREAM") && names.contains(&"SCE-UA"));
    }
}
