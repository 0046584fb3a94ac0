//! The per-layer metrics a traced run reports, and the end-to-end metric
//! each should move, on the workload where its layer dominates and the
//! one that nearly bypasses it (where the prediction is no change).
//!
//! Every traced run prints every entry; a layer the workload never calls
//! reads 0. Times are per operation (one Table V, one multi-run search,
//! one request) unless the name says otherwise.

/// One per-layer metric.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Workload(s) where the layer dominates / nearly bypasses it.
    pub dominant: &'static str,
    pub bypass: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
    dominant: &'static str,
    bypass: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better,
        moves,
        dominant,
        bypass,
    }
}

const T5: &str = "table5_quick";
const GS: &str = "gmr_search";
const SW: &str = "serve_sweep";
const PAPER: &str = "table5_quick,gmr_search";
const MOVES: &str = "wall_p50_ms,rate_per_s";

/// The full per-layer set, in report order. On `serve_sweep`, the hop,
/// service and `scenario.sweep_ms` figures are its `/sweep` requests';
/// the `/simulate`-path layers (queue, sim, batch, parse) are its
/// drill-down requests', which sweep latency excludes but which hold up
/// the caller, so they move only the sweep rate.
#[rustfmt::skip]
pub const LAYERS: [Layer; 40] = [
    l("hydro.generate_ms", "ms", false, "setup_s", PAPER, SW),
    l("baselines.manual_ms", "ms", false, "wall_p50_ms", T5, GS),
    l("baselines.lstm_ms", "ms", false, "wall_p50_ms", T5, GS),
    l("baselines.arimax_ms", "ms", false, "wall_p50_ms", T5, GS),
    l("baselines.calibrators_ms", "ms", false, "wall_p50_ms", T5, GS),
    l("baselines.gggp_ms", "ms", false, "wall_p50_ms", T5, GS),
    l("core.gmr_ms", "ms", false, MOVES, GS, T5),
    l("gp.init_ms", "ms", false, MOVES, GS, T5),
    l("gp.breed_ms", "ms", false, MOVES, GS, T5),
    l("gp.evaluate_ms", "ms", false, MOVES, GS, T5),
    l("gp.local_search_ms", "ms", false, MOVES, GS, T5),
    l("gp.select_ms", "ms", false, MOVES, GS, T5),
    l("gp.champion_ms", "ms", false, MOVES, GS, T5),
    l("gp.steps_per_s", "1/s", true, MOVES, GS, T5),
    l("gp.evaluations", "count", false, MOVES, GS, T5),
    l("gp.evaluated_steps", "count", false, MOVES, GS, T5),
    l("gp.short_circuit_frac", "frac", true, MOVES, GS, T5),
    l("gp.cache_hit_rate", "frac", true, MOVES, GS, T5),
    l("gp.pheno_builds", "count", false, MOVES, GS, T5),
    l("gp.compiles", "count", false, MOVES, GS, T5),
    l("gp.pool_busy_ms", "ms", false, MOVES, GS, T5),
    l("gp.pool_idle_ms", "ms", false, MOVES, GS, T5),
    l("expr.compile_us", "us", false, MOVES, "gmr_search,serve_sweep", "-"),
    l("bio.champion_eval_us", "us", false, MOVES, "gmr_search,serve_sweep", "-"),
    l("gateway.hop_ms", "ms", false, MOVES, SW, PAPER),
    l("serve.service_ms", "ms", false, MOVES, SW, PAPER),
    l("serve.queue_ms", "ms", false, "rate_per_s", SW, PAPER),
    l("serve.sim_ms", "ms", false, "rate_per_s", SW, PAPER),
    l("serve.batch_size_mean", "count", true, "rate_per_s", SW, PAPER),
    l("serve.shed", "count", false, "success_rate", SW, PAPER),
    l("registry.hot_hits", "count", true, "wall_tail_ms", SW, PAPER),
    l("registry.hot_misses", "count", false, "wall_tail_ms", SW, PAPER),
    l("batch.sim_us", "us", false, "rate_per_s", SW, PAPER),
    l("json.parse_us", "us", false, "rate_per_s", SW, PAPER),
    l("scenario.compile_ms", "ms", false, "rate_per_s", SW, PAPER),
    l("scenario.sweep_ms", "ms", false, MOVES, SW, PAPER),
    l("scenario.render_ms", "ms", false, MOVES, SW, PAPER),
    l("unattributed_ms", "ms", false, "-", "all", "-"),
    l("attributed_pct", "%", true, "-", "all", "-"),
    l("tracing_overhead_pct", "%", false, "-", "all", "-"),
];

/// The map as a JSON array, for the result record.
pub fn map_json() -> String {
    let rows: Vec<String> = LAYERS
        .iter()
        .map(|x| {
            format!(
                "{{\"layer\": \"{}\", \"better\": \"{}\", \"moves\": \"{}\", \"dominant\": \"{}\", \"bypass\": \"{}\"}}",
                x.name,
                if x.higher_is_better { "higher" } else { "lower" },
                x.moves,
                x.dominant,
                x.bypass
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}
