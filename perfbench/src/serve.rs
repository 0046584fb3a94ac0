//! The serving workload: a closed-loop `/sweep` caller through an
//! in-process gateway over two in-process backends — the
//! `gmr-serve cluster` topology without the process boundary.

use crate::harness::{
    drain_journal, m, model_probes, ms_since, probe_us, time_setups, Metric, Rng, Run,
};
use crate::stats::{median, Summary};
use gmr_bio::{manual, RiverProblem};
use gmr_expr::CompiledSystem;
use gmr_hydro::{generate, RiverDataset, SyntheticConfig, NUM_VARS};
use gmr_json::{push_escaped, push_f64, Value};
use gmr_obsv::Event;
use gmr_scenario::{reduce_series, CompiledScenario, ReduceSpec, SweepSummary};
use gmr_serve::batch::{parse_sim_request, simulate_single, HostedTable, Tables};
use gmr_serve::scenario::{parse_sweep_request, render_sweep, run_sweep};
use gmr_serve::server::{Client, Response};
use gmr_serve::SCN_REF_PREFIX;
use gmr_serve::{
    BackendSlot, Gateway, GatewayConfig, GatewayHandle, ModelArtifact, ModelRegistry, Provenance,
    Server, ServerConfig, ServerHandle,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BACKENDS: usize = 2;
const MODELS: usize = 4;
const TABLE: &str = "target";
/// Set-up repetitions on each side of the measured run; `setup_s` is
/// the median of all of them.
const SETUP_REPEATS: usize = 5;
/// Variants per `/sweep`, and years each scenario spans. 512 variants
/// take ~70 ms on a quiet host, so a 30 s run holds well over the 100
/// sweeps a p90 needs even when the host runs at half speed.
const SWEEP_VARIANTS: u32 = 512;
const SWEEP_YEARS: usize = 2;
const SCENARIO_STATIONS: usize = 16;
const THRESHOLD: f64 = 22.5;
/// Every `ADMIT_EVERY`-th closed-loop operation admits a new scenario.
const ADMIT_EVERY: usize = 8;
/// After each sweep the caller drills into this many of its variants
/// with solo full-series `/simulate` calls on their `scn:` refs, as a
/// user inspecting a what-if study would; they keep the `/simulate`
/// path (parse, queue, batcher, render) exercised beside the sweeps.
const DRILL_DOWNS: usize = 2;
/// Closed-loop callers. One: each sweep runs on one backend worker, so a
/// second caller would keep both vCPUs of a 2-vCPU host busy and every
/// stall from the rest of the machine would queue a sweep — beside a
/// one-core busy loop, two callers' median sweep ran 1.7× as long as
/// alone and one caller's did not move.
const CALLERS: usize = 1;
/// Every `SWEEP_SAMPLE_EVERY`-th closed-loop operation's sweep is checked
/// against solo runs (re-parsing a 512-summary body costs ~0.1 s).
const SWEEP_SAMPLE_EVERY: usize = 32;

// ----------------------------------------------------------- deployment --

/// The served models: the built-in expert model plus three revisions of
/// it (added flux, temperature modulation, coupled zooplankton), so each
/// routes to its own backend shard and keeps its own hot record.
fn model_artifacts() -> Vec<ModelArtifact> {
    let names = gmr_bio::name_table();
    let parse = |src: &str| {
        gmr_expr::parse(src, &names, |kind| gmr_bio::params::spec(kind).mean)
            .expect("benchmark model parses")
    };
    let (dbphy, dbzoo) = (manual::dbphy_src(), manual::dbzoo_src());
    let mut out = vec![ModelArtifact::builtin_manual()];
    for i in 1..MODELS {
        let eq0 = match i {
            1 => format!(
                "({dbphy}) + R * (Vcd / (Vcd + 300)) * ({})",
                manual::F_LIGHT
            ),
            2 => format!("({dbphy}) * ({})", manual::H_TEMP),
            _ => format!("({dbphy}) * 1.0003"),
        };
        let eq1 = if i == 3 {
            format!("({dbzoo}) + CUZ * ({}) * BZoo", manual::G_NUTRIENT)
        } else {
            dbzoo.clone()
        };
        out.push(ModelArtifact::from_equations(
            &format!("model-{i}"),
            &[parse(&eq0), parse(&eq1)],
            Provenance {
                source: "bench".into(),
                ..Provenance::default()
            },
        ));
    }
    out
}

/// Backend `/metrics` summed over backends: name → (histogram count,
/// counter value or histogram sum).
type Snapshot = BTreeMap<String, (f64, f64)>;

/// Two backends behind one gateway.
struct Deployment {
    backends: Vec<ServerHandle>,
    gateway: GatewayHandle,
}

impl Deployment {
    fn start(artifacts: &[ModelArtifact], rows: &[[f64; NUM_VARS]]) -> Deployment {
        let slots: Arc<Vec<BackendSlot>> =
            Arc::new((0..BACKENDS).map(|_| BackendSlot::default()).collect());
        let mut backends = Vec::new();
        for slot in slots.iter() {
            let mut registry = ModelRegistry::new();
            for a in artifacts {
                registry.insert(a.clone()).expect("benchmark model admits");
            }
            let mut tables = Tables::new();
            tables.insert(TABLE, HostedTable::Single(rows.to_vec()));
            // Zero coalescing window, as the repository's serving benches
            // run: a lingering window would make every lone request wait
            // out a timer and the latency figures measure that timer.
            let config = ServerConfig {
                workers: GatewayConfig::default().workers + 2,
                batch_window: Duration::ZERO,
                ..ServerConfig::default()
            };
            let handle = Server::new(config, registry, tables)
                .start()
                .expect("backend binds");
            slot.set_addr(handle.addr());
            backends.push(handle);
        }
        let gateway = Gateway::new(GatewayConfig::default(), slots)
            .start()
            .expect("gateway binds");
        Deployment { backends, gateway }
    }

    fn addr(&self) -> SocketAddr {
        self.gateway.addr()
    }

    /// Counters and histogram (count, sum) pairs summed over backends.
    fn metrics(&self) -> Snapshot {
        let mut out = Snapshot::new();
        for b in &self.backends {
            let Ok(Value::Obj(map)) = gmr_json::parse(&b.metrics_json()) else {
                continue;
            };
            for (k, v) in map {
                let e = out.entry(k).or_default();
                if let Some(x) = v.as_f64() {
                    e.1 += x;
                } else if let (Some(c), Some(s)) = (
                    v.get("count").and_then(Value::as_f64),
                    v.get("sum").and_then(Value::as_f64),
                ) {
                    e.0 += c;
                    e.1 += s;
                }
            }
        }
        out
    }

    fn shutdown(self) {
        self.gateway.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// Change of a counter (`.1`) or of a histogram's (count, sum) between
/// two metric snapshots.
fn delta(a: &Snapshot, b: &Snapshot, key: &str) -> (f64, f64) {
    let x = a.get(key).copied().unwrap_or_default();
    let y = b.get(key).copied().unwrap_or_default();
    (y.0 - x.0, y.1 - x.1)
}

/// Mean of a histogram's new samples, µs → ms.
fn mean_ms(d: (f64, f64)) -> f64 {
    d.1 / d.0.max(1.0) / 1000.0
}

/// Mean queue wait and simulation time, ms, of the backends' answered
/// requests on route `route` among `events` (the gateway's own records
/// carry a `gw:` prefix, so they never match).
fn access_ms(events: &[Event], route: &str) -> (f64, f64) {
    let (mut queue, mut sim, mut n) = (0.0f64, 0.0f64, 0.0f64);
    for e in events {
        if let Event::Access {
            path,
            queue_us,
            sim_us,
            status: 200,
            ..
        } = e
        {
            if *path != route {
                continue;
            }
            queue += *queue_us as f64;
            sim += *sim_us as f64;
            n += 1.0;
        }
    }
    (queue / n.max(1.0) / 1000.0, sim / n.max(1.0) / 1000.0)
}

/// Per-request cost of parsing and validating `/simulate` bodies, µs.
fn parse_probe_us(bodies: &[&[u8]]) -> f64 {
    probe_us(|| {
        for b in bodies {
            let v = gmr_json::parse(std::str::from_utf8(b).expect("utf8")).expect("json");
            std::hint::black_box(parse_sim_request(&v).expect("valid request"));
        }
    }) / bodies.len() as f64
}

/// The serving workload's fixture: the forcing data, the models with
/// their in-process reference compilations, and a warm deployment.
struct Fixture {
    ds: RiverDataset,
    artifacts: Vec<ModelArtifact>,
    systems: Vec<Arc<CompiledSystem>>,
    deployment: Deployment,
    generate_ms: f64,
}

impl Fixture {
    /// Generate the seeded river, lint and compile the models into two
    /// backends, start the gateway and warm every route with `warm`;
    /// `SETUP_REPEATS` times, keeping the last deployment. Returns the
    /// fixture and each set-up's seconds.
    fn setup(seed: u64, warm: impl Fn(&Fixture)) -> (Fixture, Vec<f64>) {
        let mut gen_ms = Vec::new();
        let (mut f, setup_secs) = time_setups(
            SETUP_REPEATS,
            || {
                let t0 = Instant::now();
                let ds = generate(&SyntheticConfig {
                    seed: Rng::new(seed, 3).next_u64(),
                    ..SyntheticConfig::default()
                });
                gen_ms.push(ms_since(t0));
                let artifacts = model_artifacts();
                let deployment = Deployment::start(&artifacts, &ds.target_series().vars);
                let mut reference = ModelRegistry::new();
                let systems = artifacts
                    .iter()
                    .map(|a| {
                        reference.insert(a.clone()).expect("benchmark model admits");
                        reference
                            .touch(&a.name)
                            .expect("just admitted")
                            .system
                            .clone()
                    })
                    .collect();
                let f = Fixture {
                    ds,
                    artifacts,
                    systems,
                    deployment,
                    generate_ms: 0.0,
                };
                warm(&f);
                f
            },
            |f: Fixture| f.deployment.shutdown(),
        );
        f.generate_ms = median(&gen_ms);
        (f, setup_secs)
    }

    fn model(&self, i: usize) -> &str {
        &self.artifacts[i].name
    }

    /// Compile and fully evaluate served model 0 on the river's training
    /// split: the per-call costs the sweep's ensemble lanes build on.
    fn model_probes(&self) -> Vec<Metric> {
        let eqs = self.artifacts[0]
            .parse_equations()
            .expect("served model parses");
        model_probes(&eqs, &RiverProblem::from_dataset(&self.ds, self.ds.train))
    }
}

/// Registry hot-tier activity and shed requests over a phase.
fn registry_layers(before: &Snapshot, after: &Snapshot, refused: u64) -> Vec<Metric> {
    vec![
        m(
            "registry.hot_hits",
            delta(before, after, "registry.hot_hits").1,
            "count",
        ),
        m(
            "registry.hot_misses",
            delta(before, after, "registry.hot_misses").1,
            "count",
        ),
        m("serve.shed", refused as f64, "count"),
    ]
}

// --------------------------------------------------------------- sweep --

/// A seeded `gmr-scenario/v1` spec: braided topology, climate transforms
/// and one dam on the last physical non-outlet station — the shape
/// `gmr-serve scenario-spec` emits.
fn scenario_spec(name: &str, rng: &mut Rng) -> String {
    let skeleton = format!(
        r#"{{"schema": "{}", "name": "{name}", "seed": {},
  "topology": {{"kind": "braided", "stations": {SCENARIO_STATIONS}}},
  "years": {SWEEP_YEARS},
  "climate": [{{"kind": "monsoon_shift", "days": {}}},
              {{"kind": "heatwave", "start_day": {}, "length": 15, "amp": 3}},
              {{"kind": "drought", "scale": {:.3}}}],
  "spread": {:.3}}}"#,
        gmr_scenario::SCHEMA,
        rng.below(1 << 31),
        5 + rng.below(11),
        150 + rng.below(70),
        rng.range(0.8, 0.95),
        rng.range(0.15, 0.35),
    );
    let mut spec = gmr_scenario::parse_spec(&skeleton).expect("benchmark scenario parses");
    let (net, _) = gmr_scenario::topology::build_topology(&spec);
    let outlet = net.outlet();
    let dam = net
        .stations()
        .filter(|(sid, st)| *sid != outlet && st.kind != gmr_hydro::StationKind::Virtual)
        .map(|(_, st)| st.name.clone())
        .last()
        .expect("a physical station exists");
    spec.transforms
        .push(gmr_scenario::Transform::Dam(gmr_scenario::DamSpec {
            station: dam,
            capacity: 200_000.0,
            release: vec![0.6; 12],
            overflow: 0.75,
        }));
    gmr_scenario::render_spec(&spec)
}

fn sweep_body(scenario: &str, model: &str, init: (f64, f64)) -> String {
    let mut b = String::from("{\"scenario\": ");
    push_escaped(&mut b, scenario);
    b.push_str(", \"model\": ");
    push_escaped(&mut b, model);
    b.push_str(&format!(
        ", \"variants\": {SWEEP_VARIANTS}, \"reduce\": {{\"threshold\": {THRESHOLD}}}, \"init\": ["
    ));
    push_f64(&mut b, init.0);
    b.push_str(", ");
    push_f64(&mut b, init.1);
    b.push_str("]}");
    b
}

fn drill_body(scenario: &str, model: &str, variant: u32, init: (f64, f64)) -> String {
    let mut b = String::from("{\"model\": ");
    push_escaped(&mut b, model);
    b.push_str(", \"forcings_ref\": ");
    push_escaped(&mut b, &format!("{SCN_REF_PREFIX}{scenario}/{variant}"));
    b.push_str(", \"init\": [");
    push_f64(&mut b, init.0);
    b.push_str(", ");
    push_f64(&mut b, init.1);
    b.push_str("]}");
    b
}

/// A sampled sweep kept for checking, with its drill-down responses
/// (variant, full-series body).
struct SweepCheck {
    scenario: String,
    model: usize,
    init: (f64, f64),
    body: Vec<u8>,
    drills: Vec<(u32, Vec<u8>)>,
}

/// Count one closed-loop request: true when answered 200; a refusal or
/// failure is tallied and returns false.
fn answered(out: &mut CallerOut, r: &std::io::Result<Response>) -> bool {
    out.attempted += 1;
    match r {
        Ok(Response { status: 200, .. }) => true,
        Ok(Response { status: 429, .. }) => {
            out.refused += 1;
            false
        }
        _ => {
            out.failed += 1;
            false
        }
    }
}

/// What one closed-loop caller saw.
#[derive(Default)]
struct CallerOut {
    sweeps: Vec<f64>,
    admits: Vec<f64>,
    drills: Vec<f64>,
    checks: Vec<SweepCheck>,
    attempted: u64,
    failed: u64,
    refused: u64,
}

/// `serve_sweep`: `CALLERS` closed-loop callers issuing 512-variant, two-year
/// `/sweep` requests, each followed by `DRILL_DOWNS` solo `/simulate`
/// calls; every eighth operation admits a new scenario instead.
pub struct Sweep {
    f: Fixture,
    /// Admitted scenarios: name → spec text.
    specs: Vec<(String, String)>,
    seed: u64,
    compiled: BTreeMap<String, CompiledScenario>,
}

impl Sweep {
    /// Start and warm the deployment and admit the first scenario.
    pub fn setup(seed: u64) -> (Sweep, Vec<f64>) {
        let name = format!("what-if-{seed}-0");
        let spec = scenario_spec(&name, &mut Rng::new(seed, 6));
        let (f, setup_secs) = Fixture::setup(seed, |f| {
            let mut c = Client::new(f.deployment.addr());
            let r = c.request("POST", "/scenarios", spec.as_bytes());
            assert!(
                matches!(r, Ok(ref r) if r.status == 200),
                "warm-up admission failed"
            );
            for i in 0..MODELS {
                let body = sweep_body(&name, f.model(i), (8.0, 1.2)).replace(
                    &format!("\"variants\": {SWEEP_VARIANTS}"),
                    "\"variants\": 16",
                );
                let r = c.request("POST", "/sweep", body.as_bytes());
                assert!(
                    matches!(r, Ok(ref r) if r.status == 200),
                    "warm-up /sweep failed"
                );
            }
        });
        let s = Sweep {
            f,
            specs: vec![(name, spec)],
            seed,
            compiled: BTreeMap::new(),
        };
        (s, setup_secs)
    }

    fn compiled(&mut self, name: &str) -> &CompiledScenario {
        if !self.compiled.contains_key(name) {
            let src = &self
                .specs
                .iter()
                .find(|(n, _)| n == name)
                .expect("admitted scenario")
                .1;
            let spec = gmr_scenario::parse_spec(src).expect("admitted spec parses");
            let scn = gmr_scenario::compile(&spec).expect("admitted spec compiles");
            self.compiled.insert(name.to_string(), scn);
        }
        &self.compiled[name]
    }

    /// Whether a sweep response holds every variant, and each drilled
    /// variant's summary equals `reduce_series` over its in-process solo
    /// trajectory, which the drill-down's served series equals bit for
    /// bit.
    fn sweep_agrees(&mut self, c: &SweepCheck) -> bool {
        let Some(summaries) = std::str::from_utf8(&c.body)
            .ok()
            .and_then(|s| gmr_json::parse(s).ok())
            .and_then(|v| {
                v.get("summaries")?
                    .as_arr()?
                    .iter()
                    .map(SweepSummary::from_value)
                    .collect::<Option<Vec<_>>>()
            })
        else {
            return false;
        };
        if summaries.len() != SWEEP_VARIANTS as usize || c.drills.len() != DRILL_DOWNS {
            return false;
        }
        let sys = Arc::clone(&self.f.systems[c.model]);
        let scn = self.compiled(&c.scenario);
        c.drills.iter().all(|(v, body)| {
            let (bphy, bzoo) = simulate_single(&sys, &scn.variant_rows(*v), c.init, 1.0, 1e9);
            let reduce = ReduceSpec {
                threshold: THRESHOLD,
            };
            let served = std::str::from_utf8(body)
                .ok()
                .and_then(|s| gmr_json::parse(s).ok())
                .and_then(|v| {
                    let series = |key: &str| -> Option<Vec<u64>> {
                        v.get(key)?
                            .as_arr()?
                            .iter()
                            .map(|x| x.as_f64().map(f64::to_bits))
                            .collect()
                    };
                    Some((series("bphy")?, series("bzoo")?))
                });
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            summaries[*v as usize] == reduce_series(*v, &reduce, &bphy, &bzoo)
                && served == Some((bits(&bphy), bits(&bzoo)))
        })
    }

    /// Closed loop for `budget`: each caller sends its next operation as
    /// soon as the previous one returns.
    pub fn run(&mut self, budget: Duration, trace: bool) -> Run {
        let addr = self.f.deployment.addr();
        let before = self.f.deployment.metrics();
        if trace {
            drain_journal();
        }
        let ops = AtomicUsize::new(0);
        let pool = Mutex::new(self.specs.clone());
        let seed = self.seed;
        let models: Vec<String> = (0..MODELS).map(|i| self.f.model(i).to_string()).collect();
        let t0 = Instant::now();
        let outs: Vec<CallerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut client = Client::new(addr);
                        let mut out = CallerOut::default();
                        while t0.elapsed() < budget {
                            let op = ops.fetch_add(1, Ordering::SeqCst);
                            let mut rng = Rng::new(seed, 10_000 + op as u64);
                            let start = Instant::now();
                            if op % ADMIT_EVERY == ADMIT_EVERY - 1 {
                                let name = format!("what-if-{seed}-{}", op / ADMIT_EVERY + 1);
                                let spec = scenario_spec(&name, &mut rng);
                                let r = client.request("POST", "/scenarios", spec.as_bytes());
                                if answered(&mut out, &r) {
                                    out.admits.push(ms_since(start));
                                    pool.lock().expect("scenario pool").push((name, spec));
                                }
                                continue;
                            }
                            let scenario = {
                                let p = pool.lock().expect("scenario pool");
                                p[rng.below(p.len() as u64) as usize].0.clone()
                            };
                            // Models in rotation, so every run sweeps
                            // the same mix of model costs.
                            let model = op % MODELS;
                            let init = (rng.range(2.0, 12.0), rng.range(0.5, 2.0));
                            let body = sweep_body(&scenario, &models[model], init);
                            let r = client.request("POST", "/sweep", body.as_bytes());
                            if !answered(&mut out, &r) {
                                continue;
                            }
                            out.sweeps.push(ms_since(start));
                            let mut drills = Vec::new();
                            for _ in 0..DRILL_DOWNS {
                                let v = rng.below(SWEEP_VARIANTS as u64) as u32;
                                let body = drill_body(&scenario, &models[model], v, init);
                                let t = Instant::now();
                                let d = client.request("POST", "/simulate", body.as_bytes());
                                if answered(&mut out, &d) {
                                    out.drills.push(ms_since(t));
                                    drills.push((v, d.expect("answered").body));
                                }
                            }
                            if op.is_multiple_of(SWEEP_SAMPLE_EVERY) {
                                out.checks.push(SweepCheck {
                                    scenario,
                                    model,
                                    init,
                                    body: r.expect("answered").body,
                                    drills,
                                });
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep caller"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let after = self.f.deployment.metrics();
        self.specs = pool.into_inner().expect("scenario pool");
        let mut run = Run::default();
        let mut all = CallerOut::default();
        for o in outs {
            all.sweeps.extend(o.sweeps);
            all.admits.extend(o.admits);
            all.drills.extend(o.drills);
            all.checks.extend(o.checks);
            run.attempted += o.attempted;
            run.failed += o.failed + o.refused;
            all.refused += o.refused;
        }
        for c in &all.checks {
            if !self.sweep_agrees(c) {
                run.mismatches += 1;
            }
        }
        run.failed += run.mismatches;
        let s = Summary::of(&all.sweeps);
        let admit = Summary::of(&all.admits);
        let drill = Summary::of(&all.drills);
        let variants_per_s = all.sweeps.len() as f64 * SWEEP_VARIANTS as f64 / wall_s;
        run.op_ms = s.p50;
        run.record.push(format!(
            "\"callers\": {CALLERS}, \"sweeps\": {}, \"admissions\": {}, \"drilldowns\": {}, \"tail\": \"{}\", \"checked\": {}",
            s.n,
            admit.n,
            drill.n,
            s.tail_label(),
            all.checks.len()
        ));
        run.e2e = vec![
            m("wall_p50_ms", s.p50, "ms"),
            m("wall_tail_ms", s.tail, "ms"),
            m("rate_per_s", variants_per_s, "1/s"),
        ];
        run.named = vec![
            m("sweep_p50_ms", s.p50, "ms"),
            m("sweep_tail_ms", s.tail, "ms"),
            m("sweep_variants_per_s", variants_per_s, "1/s"),
            m("admit_p50_ms", admit.p50, "ms"),
            m("drilldown_p50_ms", drill.p50, "ms"),
        ];
        if trace {
            let events = drain_journal().1;
            let Some(sample) = all.checks.first() else {
                return run;
            };
            // One partition of the mean client `/sweep` latency, every
            // part measured on the served requests themselves: the hop
            // (client latency minus backend service time), the backend's
            // queue wait and `run_sweep` time (`Event::Access`), and the
            // rest of its service time (parse, render, write) left
            // unattributed. Direct probes are reported beside it.
            let service_ms = mean_ms(delta(&before, &after, "serve.route./sweep.latency_us"));
            let client_ms = all.sweeps.iter().sum::<f64>() / all.sweeps.len().max(1) as f64;
            let hop_ms = client_ms - service_ms;
            let (sweep_queue_ms, sweep_ms) = access_ms(&events, "/sweep");
            let (queue_ms, sim_ms) = access_ms(&events, "/simulate");
            // `serve.batch_size` also records every sweep as one batch of
            // its variants; take those out, leaving the `/simulate` batcher's.
            let batch = delta(&before, &after, "serve.batch_size");
            let sweeps = delta(&before, &after, "scn.sweeps_total").1;
            let variants = delta(&before, &after, "scn.sweep_variants_total").1;
            let batch_mean = (batch.1 - variants) / (batch.0 - sweeps).max(1.0);
            let drill_bodies: Vec<String> = sample
                .drills
                .iter()
                .map(|(v, _)| drill_body(&sample.scenario, &models[sample.model], *v, sample.init))
                .collect();
            let bodies: Vec<&[u8]> = drill_bodies.iter().map(|b| b.as_bytes()).collect();
            let rows = self.compiled(&sample.scenario).variant_rows(0);
            let sys = Arc::clone(&self.f.systems[sample.model]);
            let sim_us = probe_us(|| {
                std::hint::black_box(simulate_single(&sys, &rows, sample.init, 1.0, 1e9));
            });
            run.layers = vec![
                m("hydro.generate_ms", self.f.generate_ms, "ms"),
                m("gateway.hop_ms", hop_ms, "ms"),
                m("serve.service_ms", service_ms, "ms"),
                m("serve.queue_ms", queue_ms, "ms"),
                m("serve.sim_ms", sim_ms, "ms"),
                m("serve.batch_size_mean", batch_mean, "count"),
                m("batch.sim_us", sim_us, "us"),
                m("json.parse_us", parse_probe_us(&bodies), "us"),
                m("scenario.sweep_ms", sweep_ms, "ms"),
                m(
                    "unattributed_ms",
                    service_ms - sweep_queue_ms - sweep_ms,
                    "ms",
                ),
                m(
                    "attributed_pct",
                    100.0 * (hop_ms + sweep_queue_ms + sweep_ms) / client_ms.max(1e-9),
                    "%",
                ),
            ];
            run.layers.extend(self.sweep_probes(sample));
            run.layers.extend(self.f.model_probes());
            run.layers
                .extend(registry_layers(&before, &after, all.refused));
        }
        run
    }

    /// Direct, in-process costs of one sampled sweep's admission
    /// (`parse_spec` + `compile`) and of rendering its response.
    fn sweep_probes(&mut self, c: &SweepCheck) -> Vec<Metric> {
        let src = self
            .specs
            .iter()
            .find(|(n, _)| *n == c.scenario)
            .expect("admitted")
            .1
            .clone();
        let compile_ms = probe_us(|| {
            let spec = gmr_scenario::parse_spec(&src).expect("admitted spec parses");
            std::hint::black_box(gmr_scenario::compile(&spec).expect("admitted spec compiles"));
        }) / 1000.0;
        let body = sweep_body(&c.scenario, &self.f.artifacts[c.model].name, c.init);
        let req = parse_sweep_request(&gmr_json::parse(&body).expect("json")).expect("valid sweep");
        let sys = Arc::clone(&self.f.systems[c.model]);
        let scn = self.compiled(&c.scenario);
        let summaries = run_sweep(scn, &sys, &req);
        let days = scn.days;
        let render_ms = probe_us(|| {
            std::hint::black_box(render_sweep(&req, days, &summaries));
        }) / 1000.0;
        vec![
            m("scenario.compile_ms", compile_ms, "ms"),
            m("scenario.render_ms", render_ms, "ms"),
        ]
    }

    /// Stop the deployment.
    pub fn shutdown(self) {
        self.f.deployment.shutdown();
    }
}
