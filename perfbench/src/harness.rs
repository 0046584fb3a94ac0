//! Pieces every workload shares: the measured-run result, the repeat
//! loop, seeded input generation, micro-probes and journal draining.

use crate::stats::{median, SpanRec};
use gmr_bio::RiverProblem;
use gmr_expr::{CompiledSystem, Expr, FidelityPolicy, Tier};
use gmr_obsv::Event;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one measured run of a workload produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Operations whose output disagreed with the in-process reference
    /// (a subset of `failed`).
    pub mismatches: u64,
    /// End-to-end metrics (the set `BENCHMARK.json` gates, minus `setup_s` and
    /// `peak_rss_mb`, which `main` adds).
    pub e2e: Vec<Metric>,
    /// The workload's own named metrics, for the result record.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Median operation latency, ms: the traced-versus-untraced base for
    /// the tracing overhead.
    pub op_ms: f64,
    /// Extra record fields, pre-rendered as `"key": value` JSON pairs.
    pub record: Vec<String>,
    /// Digest of a deterministic result (the Table V rows, the search
    /// champion's score), so the traced and untraced processes can be
    /// checked against each other; 0 where results are not comparable.
    pub digest: u64,
}

impl Run {
    /// Percentage of attempted operations that succeeded.
    pub fn success_pct(&self) -> f64 {
        100.0 * (self.attempted - self.failed.min(self.attempted)) as f64
            / self.attempted.max(1) as f64
    }
}

/// Run `op` (which returns its own latency in ms) repeatedly: at least
/// once, and again while one more median-length operation still fits in
/// `budget`.
pub fn repeat_within(budget: Duration, mut op: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(op());
        let next = Duration::from_secs_f64(median(&walls) / 1000.0);
        if t0.elapsed() + next > budget {
            return walls;
        }
    }
}

/// Set up `repeats` times and return the last result with every set-up's
/// seconds; `retire` disposes of each earlier result before the next
/// set-up starts, outside the timed part.
pub fn time_setups<T>(
    repeats: usize,
    mut setup: impl FnMut() -> T,
    mut retire: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        if let Some(prev) = last.take() {
            retire(prev);
        }
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1000.0
}

/// Median per-call cost of `f` in µs: at least 20 calls and 50 ms.
pub fn probe_us(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut per = Vec::new();
    while per.len() < 20 || t0.elapsed() < Duration::from_millis(50) {
        let t = Instant::now();
        f();
        per.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&per)
}

/// Per-call cost of compiling a model's equations the way the GP engine
/// builds phenotypes, and of one full (never short-circuited) evaluation
/// of it on `train`.
pub fn model_probes(eqs: &[Expr], train: &RiverProblem) -> Vec<Metric> {
    let opts = Tier::fastest(FidelityPolicy::BitExact).options();
    let compile_us = probe_us(|| {
        std::hint::black_box(CompiledSystem::compile(std::hint::black_box(eqs), opts));
    });
    let sys = CompiledSystem::compile(eqs, opts);
    let eval_us = probe_us(|| {
        std::hint::black_box(train.simulate_compiled(&sys));
    });
    vec![
        m("expr.compile_us", compile_us, "us"),
        m("bio.champion_eval_us", eval_us, "us"),
    ]
}

/// SplitMix64: the benchmark's only random source, so one `--seed`
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Everything the global journal holds, split into spans and the other
/// events (the journal is drained, so the next call sees only new ones).
pub fn drain_journal() -> (Vec<SpanRec>, Vec<Event>) {
    let mut spans = Vec::new();
    let mut other = Vec::new();
    for r in gmr_obsv::drain() {
        match r.event {
            Event::Span {
                name,
                tid,
                depth,
                start_us,
                dur_us,
                ..
            } => spans.push(SpanRec {
                name,
                tid,
                depth,
                start_us,
                dur_us,
            }),
            e => other.push(e),
        }
    }
    (spans, other)
}

/// Attribute traced operations to layers: per-operation self time of
/// every span named in `layers` (span name → metric name), plus the
/// remainder of the operations' wall time as `unattributed_ms` and the
/// attributed share as `attributed_pct`.
pub fn attribute(
    spans: &[SpanRec],
    op_walls_ms: &[f64],
    layers: &[(&'static str, &'static str)],
) -> Vec<Metric> {
    let selfs: BTreeMap<&'static str, u64> = crate::stats::self_times(spans);
    let ops = op_walls_ms.len().max(1) as f64;
    let wall: f64 = op_walls_ms.iter().sum();
    let mut out = Vec::new();
    let mut attributed = 0.0;
    for &(span, metric) in layers {
        let ms = selfs.get(span).copied().unwrap_or(0) as f64 / 1000.0;
        attributed += ms;
        out.push(m(metric, ms / ops, "ms"));
    }
    out.push(m(
        "unattributed_ms",
        (wall - attributed).max(0.0) / ops,
        "ms",
    ));
    out.push(m(
        "attributed_pct",
        100.0 * attributed / wall.max(1e-9),
        "%",
    ));
    out
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
