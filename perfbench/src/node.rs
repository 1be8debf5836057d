//! `node-overload`: one `threadripper_3990x` node runs Veltair-FULL on the
//! Fig. 12 four-model inverse-QoS mix with Poisson arrivals at 200 QPS,
//! past the node's capacity. A pass serves independent arrival streams
//! (`quality::stream_shape`), each generated from the run's seed and
//! submitted up front (open loop in virtual time); one op is one simulated
//! query.
//! Compilation happens only in set-up, and routing and telemetry are off,
//! so nearly all host time is in `Driver::step`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use veltair::prelude::*;

use crate::harness::{self, Histogram, Laps, PassTimes};
use crate::output::{self, Outcome};
use crate::quality;
use crate::spans::Tracer;
use crate::{report_passes, Layers, RunConfig};

/// Aggregate arrival rate, queries per second: the overload point of
/// `tests/policy_ordering.rs`.
const QPS: f64 = 200.0;

/// `Driver::step` calls per timed segment of an untraced stream.
const LAP_STEPS: usize = 1024;

struct Inputs {
    engine: ServingEngine,
    workload: WorkloadSpec,
    seeds: Vec<u64>,
    streams: Vec<Vec<QuerySpec>>,
}

/// The default version selector, timed. Each `select` call's start and end
/// are queued for the benchmark to record as a child of the running step.
#[derive(Debug)]
struct TimedSelector {
    inner: Box<dyn VersionSelector>,
    calls: Arc<Mutex<Vec<(Instant, Instant)>>>,
}

impl VersionSelector for TimedSelector {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(
        &mut self,
        model: &CompiledModel,
        ctx: &SelectionContext,
        machine: &MachineConfig,
    ) -> Vec<usize> {
        let start = Instant::now();
        let picked = self.inner.select(model, ctx, machine);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("the selector log is only locked briefly and never while panicking")
            .push((start, end));
        picked
    }
}

/// What the traced passes measure on top of the report.
#[derive(Debug)]
struct StepStats {
    steps: Histogram,
    in_flight_sum: u64,
    select_calls: u64,
    select_ns: u64,
}

impl StepStats {
    fn new() -> Self {
        Self {
            steps: Histogram::new(),
            in_flight_sum: 0,
            select_calls: 0,
            select_ns: 0,
        }
    }
}

/// One stream: a fresh driver with the engine's configuration, every query
/// injected up front, then stepped to exhaustion, with a lap every
/// [`LAP_STEPS`] steps (or, when the tracer is on, with the timed selector
/// and per-step spans).
fn serve(
    inp: &Inputs,
    queries: &[QuerySpec],
    t: &mut Tracer,
    stats: &mut StepStats,
    out: &mut Outcome,
    laps: &mut Laps,
) -> ServingReport {
    let engine = &inp.engine;
    let cfg = SimConfig::new(engine.machine().clone(), engine.policy())
        .with_selector(engine.selector())
        .with_projection(engine.projection());
    let mut driver = Driver::open(engine.models(), cfg);
    let calls = Arc::new(Mutex::new(Vec::new()));
    if t.enabled() {
        driver.set_selector(Box::new(TimedSelector {
            inner: engine.selector().build(),
            calls: Arc::clone(&calls),
        }));
    }
    for q in queries {
        driver.inject(q).expect("the mix serves registered models");
    }
    if t.enabled() {
        step_traced(&mut driver, &calls, t, stats);
    } else {
        let mut steps = 0;
        while driver.step().is_some() {
            steps += 1;
            if steps % LAP_STEPS == 0 {
                laps.lap();
            }
        }
    }
    let n = queries.len();
    let late = queries
        .iter()
        .zip(&driver.state().queries)
        .filter(|(q, s)| q.arrival != s.arrival)
        .count();
    out.check(late == 0, late as u64, || {
        format!("{late} queries were recorded at another arrival than scheduled")
    });
    let resolved = driver.completions().len();
    out.check(resolved == n, (n - resolved.min(n)) as u64, || {
        format!("{resolved} of {n} queries completed")
    });
    driver.finish().0
}

/// Steps `driver` to exhaustion, each step in a span with the selector
/// calls it made as children, sampling the units in flight before each.
fn step_traced(
    driver: &mut Driver<'_>,
    calls: &Mutex<Vec<(Instant, Instant)>>,
    t: &mut Tracer,
    stats: &mut StepStats,
) {
    loop {
        stats.in_flight_sum += driver.in_flight() as u64;
        t.enter("sched", "Driver::step", 0);
        let stepped = driver.step().is_some();
        for (start, end) in calls.lock().expect("selector log").drain(..) {
            stats.select_calls += 1;
            stats.select_ns += (end - start).as_nanos() as u64;
            t.record_child("compiler", "VersionSelector::select", 0, start, end);
        }
        stats.steps.record_ns(t.exit());
        if !stepped {
            return;
        }
    }
}

/// One pass: every stream served in turn.
fn pass(
    inp: &Inputs,
    t: &mut Tracer,
    stats: &mut StepStats,
    out: &mut Outcome,
    laps: &mut Laps,
) -> Vec<ServingReport> {
    inp.streams
        .iter()
        .map(|queries| serve(inp, queries, t, stats, out, laps))
        .collect()
}

/// Set-up: model specs, the registry compiled through a fresh
/// `CompilerService`, the engine, and the arrival streams.
fn build(cfg: &RunConfig, t: &mut Tracer) -> Inputs {
    let (n, k) = quality::stream_shape(cfg);
    let specs = t.span("models", "all_models", 0, || quality::specs(&quality::MIX));
    let tr = MachineConfig::threadripper_3990x();
    let registry = t.span("compiler", "CompilerService::registry", 0, || {
        CompilerService::new(CompilerOptions::default()).registry(&specs, &tr)
    });
    let engine = t.span("core", "EngineBuilder::build", 0, || {
        let mut b = ServingEngine::builder()
            .machine(tr.clone())
            .policy(Policy::VeltairFull);
        for m in registry.models() {
            b = b.model(m.clone());
        }
        b.build().expect("the mix forms a valid engine")
    });
    let workload = quality::fig12_mix(&specs, QPS, n);
    let seeds = quality::stream_seeds(cfg.seed, k);
    let streams = seeds.iter().map(|&s| workload.generate(s)).collect();
    Inputs {
        engine,
        workload,
        seeds,
        streams,
    }
}

pub fn run(cfg: &RunConfig, out: &mut Outcome, layers: &mut Layers) {
    let (n, k) = quality::stream_shape(cfg);
    let mut t = Tracer::new(cfg.trace);
    let (setup_s, inp) = harness::time_setup(|| build(cfg, &mut t));
    layers.set(
        "models.spec_ms",
        t.layer_self_ns("models") as f64 / 1e6 / all_models().len() as f64,
    );
    let ops = (n * k) as u64;

    // The reference is the engine's one-shot batch path; every stepped
    // pass must reproduce it bit for bit.
    let reference: Vec<ServingReport> = inp
        .seeds
        .iter()
        .map(|&s| inp.engine.run(&inp.workload, s))
        .collect();
    out.attempted += ops;
    let served: usize = reference.iter().map(ServingReport::total_queries).sum();
    out.check(served == n * k, ops, || {
        format!("the reference served {served} of {} queries", n * k)
    });

    let calibration_before = harness::Calibration::measure();
    let setup = || drop(build(cfg, &mut Tracer::new(false)));
    let untraced = harness::timed_passes(cfg.budget(2), k, setup, |i, laps| {
        let report = serve(
            &inp,
            &inp.streams[i],
            &mut t,
            &mut StepStats::new(),
            out,
            laps,
        );
        out.attempted += n as u64;
        out.check(report == reference[i], n as u64, || {
            format!("stream {i}'s report differs from the batch reference")
        });
    });
    let calibration = (calibration_before, harness::Calibration::measure());
    report_passes(out, cfg, setup_s, &untraced, ops, calibration);

    if cfg.trace {
        traced_run(cfg, out, layers, &inp, &reference, &untraced, t);
        return;
    }
    let runs: Vec<(&ServingReport, usize)> = reference.iter().map(|r| (r, n)).collect();
    quality::report_serving_and_capacity(out, cfg, &runs, &inp.engine, &inp.workload);
    quality::report_code_quality(
        out,
        &[(inp.engine.machine(), inp.engine.models())],
        CompilerOptions::default().reference_cores,
    );
}

fn traced_run(
    cfg: &RunConfig,
    out: &mut Outcome,
    layers: &mut Layers,
    inp: &Inputs,
    reference: &[ServingReport],
    untraced: &PassTimes,
    mut t: Tracer,
) {
    let ops = inp.streams.iter().map(Vec::len).sum::<usize>() as u64;
    t.reset_totals();
    let mut stats = StepStats::new();
    let mut first = true;
    let traced = harness::timed_passes(
        cfg.budget(2),
        1,
        || {},
        |_, laps| {
            t.keep = std::mem::take(&mut first);
            let reports = pass(inp, &mut t, &mut stats, out, laps);
            t.keep = false;
            out.attempted += ops;
            out.check(reports == reference, ops, || {
                "a traced pass's report differs from the untraced reference".into()
            });
        },
    );
    crate::report_trace_overhead(layers, untraced, &traced);
    let passes = traced.passes() as f64;
    let steps = stats.steps.count() as f64;
    layers.set("sched.step_us.p50", stats.steps.percentile_us(50.0));
    layers.set("sched.step_us.p99", stats.steps.percentile_us(99.0));
    layers.set("sched.steps_per_query", steps / (ops as f64 * passes));
    layers.set("sched.in_flight_mean", stats.in_flight_sum as f64 / steps);
    layers.set(
        "compiler.select_us",
        stats.select_ns as f64 / 1e3 / stats.select_calls.max(1) as f64,
    );
    layers.set("compiler.select_calls", stats.select_calls as f64 / passes);
    layers.self_times(&t, ops * traced.passes() as u64);
    let k = reference.len() as f64;
    let conflicts: u64 = reference.iter().map(|r| r.conflicts).sum();
    let dispatches: u64 = reference.iter().map(|r| r.dispatches).sum();
    layers.set("sched.conflict_rate", conflicts as f64 / dispatches as f64);
    layers.set(
        "sched.preemptions",
        reference.iter().map(|r| r.preemptions).sum::<u64>() as f64 / k,
    );
    layers.set(
        "sched.avg_cores",
        reference.iter().map(|r| r.avg_cores).sum::<f64>() / k,
    );

    // Queue wait, in virtual time, from a flight recorder attached to a
    // session serving the first stream; the recorder must not change
    // results.
    let queries = &inp.streams[0];
    let mut session = inp.engine.session().expect("the engine has models");
    session.enable_telemetry(TraceConfig::unbounded());
    for q in queries {
        session
            .submit(&q.model, q.arrival.0)
            .expect("the mix serves registered models");
    }
    session.drain();
    let log = session.trace_log().expect("telemetry is enabled");
    let waits: Vec<f64> = log
        .query_ids()
        .into_iter()
        .filter_map(|q| log.explain(q))
        .map(|a| a.queue_wait_s * 1e3)
        .collect();
    out.check(waits.len() == queries.len(), 1, || {
        format!(
            "{} of {} queries could be explained",
            waits.len(),
            queries.len()
        )
    });
    layers.set(
        "sched.queue_wait_ms",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
    );
    let recorded = session.finish();
    out.check(recorded == reference[0], queries.len() as u64, || {
        "the recorded session's report differs from the untraced reference".into()
    });
    output::diag("sched.steps_recorded", steps, "steps");
    crate::write_spans(cfg, &t);
}
