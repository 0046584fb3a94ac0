//! `gmr-perfbench` — the repository's end-to-end benchmark with per-layer
//! attribution.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `table5_quick` — the quick Table V roster (`methods::run_all`);
//! * `gmr_search` — GMR alone (`Gmr::run_many`) on the full dataset;
//! * `serve_sweep` — one closed-loop `/sweep` caller through an
//!   in-process gateway over two in-process backends, every eighth
//!   operation admitting a new scenario and every sweep followed by two
//!   `/simulate` drill-downs.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! measured with the journal off. With `--trace 1` the same process first
//! repeats the untraced measurement for half the time, then re-executes
//! itself with the journal on (the `gmr_obsv` journal is process-global
//! and cannot be switched off once installed) for the other half; the
//! last line carries the per-layer metrics of [`layers::LAYERS`] and the
//! tracing overhead. The line before it is the full result record: host
//! fingerprint, provenance, the workload's own named metrics, sample
//! counts and the layer map.

mod harness;
mod host;
mod layers;
mod paper;
mod serve;
mod stats;

use gmr_json::{push_escaped, push_f64, Value};
use harness::{m, peak_rss_mb, Metric, Run};
use stats::median;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["table5_quick", "gmr_search", "serve_sweep"];
const USAGE: &str = "usage: gmr-perfbench --workload <table5_quick|gmr_search|serve_sweep> \
--seed <n> --seconds <s> --trace <0|1>";
/// Internal flag: this process is the traced half of a `--trace 1` run.
const CHILD_FLAG: &str = "--traced-child";
/// Journal capacity for traced runs: room for every event of the busiest
/// traced phase between drains.
const JOURNAL_CAPACITY: usize = 1 << 18;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        child: false,
    };
    let mut it = args.iter();
    let mut seen = Vec::new();
    while let Some(flag) = it.next() {
        if flag == CHILD_FLAG {
            a.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        seen.push(flag.as_str());
    }
    for required in ["--workload", "--seed", "--seconds"] {
        if !seen.contains(&required) {
            return Err(format!("missing {required}"));
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// A set-up workload. One lives per process, so variant sizes do not
/// matter.
#[allow(clippy::large_enum_variant)]
enum Bench {
    Table5(paper::Table5),
    Gmr(paper::GmrSearch),
    Sweep(serve::Sweep),
}

impl Bench {
    /// Set up `workload` from `seed` several times; returns the last
    /// set-up and every set-up's seconds.
    fn setup(workload: &str, seed: u64) -> (Bench, Vec<f64>) {
        match workload {
            "table5_quick" => {
                let (b, s) = paper::Table5::setup(seed);
                (Bench::Table5(b), s)
            }
            "gmr_search" => {
                let (b, s) = paper::GmrSearch::setup(seed);
                (Bench::Gmr(b), s)
            }
            "serve_sweep" => {
                let (b, s) = serve::Sweep::setup(seed);
                (Bench::Sweep(b), s)
            }
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn run(&mut self, budget: Duration, trace: bool) -> Run {
        match self {
            Bench::Table5(b) => b.run(budget, trace),
            Bench::Gmr(b) => b.run(budget, trace),
            Bench::Sweep(b) => b.run(budget, trace),
        }
    }

    /// Stop any servers the workload started.
    fn shutdown(self) {
        match self {
            Bench::Sweep(b) => b.shutdown(),
            Bench::Table5(_) | Bench::Gmr(_) => {}
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut o = String::from("{");
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        push_escaped(&mut o, x.name);
        o.push_str(": {\"value\": ");
        push_f64(&mut o, x.value);
        o.push_str(", \"unit\": ");
        push_escaped(&mut o, x.unit);
        o.push('}');
    }
    o.push('}');
    o
}

/// Every per-layer metric in [`layers::LAYERS`] order; layers the
/// workload never called read 0.
fn full_layer_set(measured: &[Metric]) -> Vec<Metric> {
    let by_name: BTreeMap<&str, f64> = measured.iter().map(|x| (x.name, x.value)).collect();
    for x in measured {
        assert!(
            layers::LAYERS.iter().any(|l| l.name == x.name),
            "layer metric {} is missing from the layer map",
            x.name
        );
    }
    layers::LAYERS
        .iter()
        .map(|l| m(l.name, by_name.get(l.name).copied().unwrap_or(0.0), l.unit))
        .collect()
}

/// The traced half: journal on, then the workload for `--seconds`; one
/// JSON line back to the parent.
fn traced_child(args: &Args) -> ExitCode {
    let (mut bench, _) = Bench::setup(&args.workload, args.seed);
    gmr_obsv::init(JOURNAL_CAPACITY);
    let run = bench.run(Duration::from_secs_f64(args.seconds), true);
    bench.shutdown();
    let mut o = String::from("{\"op_ms\": ");
    push_f64(&mut o, run.op_ms);
    o.push_str(&format!(
        ", \"digest\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"mismatches\": {}, \"layers\": {}}}",
        run.digest,
        run.attempted,
        run.failed,
        run.mismatches,
        metrics_json(&run.layers)
    ));
    println!("{o}");
    ExitCode::SUCCESS
}

/// Run the traced half in a fresh process and read its line back.
fn spawn_traced(args: &Args, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            CHILD_FLAG,
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run traced child: {e}"))?;
    if !out.status.success() {
        return Err(format!("traced child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("traced child printed nothing")?;
    gmr_json::parse(line).map_err(|e| format!("traced child output: {e}"))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn main() -> ExitCode {
    gmr_obsv::log::set_level(gmr_obsv::log::Level::Quiet);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return traced_child(&args);
    }
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut bench, mut setup_secs) = Bench::setup(&args.workload, args.seed);
    let mut run = bench.run(Duration::from_secs_f64(seconds), false);
    bench.shutdown();
    // Set up as often again after the run, so `setup_s` samples the host
    // across the same window the operations ran in, not only its start.
    let (again, more) = Bench::setup(&args.workload, args.seed);
    again.shutdown();
    setup_secs.extend(more);
    let setup_s = median(&setup_secs);

    let mut metrics = Vec::new();
    if args.trace {
        let child = match spawn_traced(&args, seconds) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        run.attempted += num(&child, "attempted") as u64;
        run.failed += num(&child, "failed") as u64;
        run.mismatches += num(&child, "mismatches") as u64;
        // The traced process re-runs the same seeded work through the
        // per-call spans; its deterministic result must not change.
        let digest = child.get("digest").and_then(Value::as_str);
        if digest != Some(format!("{:016x}", run.digest).as_str()) {
            run.mismatches += 1;
            run.failed += 1;
        }
        let mut measured: Vec<Metric> = layers::LAYERS
            .iter()
            .filter_map(|l| {
                let v = child.get("layers")?.get(l.name)?.get("value")?.as_f64()?;
                Some(m(l.name, v, l.unit))
            })
            .collect();
        measured.push(m(
            "tracing_overhead_pct",
            100.0 * (num(&child, "op_ms") / run.op_ms - 1.0),
            "%",
        ));
        metrics = full_layer_set(&measured);
    } else {
        metrics.push(m("setup_s", setup_s, "s"));
        metrics.push(m("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics.push(m("success_rate", run.success_pct(), "%"));
        metrics.extend(run.e2e.iter().cloned());
    }

    let correct = run.mismatches == 0 && run.attempted > 0;
    let mut record = format!(
        "{{\"schema\": \"gmr-perfbench/v1\", {}, \"setup_s\": ",
        host::record_fields(
            &args.workload,
            args.seed,
            args.seconds as u64,
            run.attempted as usize
        )
    );
    push_f64(&mut record, setup_s);
    run.named.push(m(
        "error_rate",
        run.failed as f64 / run.attempted.max(1) as f64,
        "frac",
    ));
    record.push_str(&format!(", \"named\": {}", metrics_json(&run.named)));
    for r in &run.record {
        record.push_str(", ");
        record.push_str(r);
    }
    if args.trace {
        record.push_str(&format!(", \"layer_map\": {}", layers::map_json()));
    }
    record.push('}');
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn seed_and_flags_plumb_through() {
        let a = parse_args(&argv(
            "--workload gmr_search --seed 17 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "gmr_search".into(),
                seed: 17,
                seconds: 10.0,
                trace: true,
                child: false,
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload gmr_search --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload gmr_search --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload gmr_search --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut r = harness::Rng::new(seed, 4);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        // Streams of one seed are independent of each other.
        assert_ne!(
            harness::Rng::new(5, 1).next_u64(),
            harness::Rng::new(5, 2).next_u64()
        );
    }

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let src =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = gmr_json::parse(&src).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            v.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|x| {
                    let s = |k: &str| x.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String, String)> = layers::LAYERS
            .iter()
            .map(|l| {
                let better = if l.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (l.name.into(), l.unit.into(), better.into())
            })
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|x| x.0).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "peak_rss_mb",
                "success_rate",
                "wall_p50_ms",
                "wall_tail_ms",
                "rate_per_s"
            ]
        );
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, ["table5_quick", "gmr_search", "serve_sweep"]);
    }
}
