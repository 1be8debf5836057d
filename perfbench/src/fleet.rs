//! `fleet-churn`: 32 nodes at 3:1 `threadripper_3990x`:`desktop_8core`
//! with per-node compiled registries, the interference-aware router on the
//! indexed load index, SLO-aware admission, the default hysteresis
//! autoscaler, and scripted crashes and drains mid-run. The bursty
//! four-model mix surges past the fleet's capacity while its average stays
//! below it. The bounded flight recorder is on. A pass serves independent
//! arrival streams (`quality::stream_shape`), each on a fresh fleet
//! session; one op is one simulated query, and the host drives each
//! session with one `run_until` per arrival instant.

use veltair::compiler::machine_key;
use veltair::prelude::*;

use crate::harness::{self, Laps, PassTimes};
use crate::output::Outcome;
use crate::quality;
use crate::spans::Tracer;
use crate::{report_passes, Layers, RunConfig};

/// Mean ON and OFF phase of every tenant's bursty stream, seconds: 3x
/// surges, short enough that a stream holds dozens of them, so the
/// stream's virtual span (and with it goodput) does not hinge on a few.
const BURST_ON_S: f64 = 0.02;
const BURST_OFF_S: f64 = 0.04;

/// Timed phases of a traced run: recorder on (untraced), recorder off,
/// and traced.
const TRACED_PHASES: u32 = 3;

/// Per-node event bound of the flight recorder.
const RECORDER_EVENTS: usize = 512;

/// `run_until` calls per timed segment of a stream.
const LAP_INSTANTS: usize = 32;

struct Size {
    nodes: usize,
    queries: usize,
    qps: f64,
}

impl Size {
    fn of(cfg: &RunConfig) -> Self {
        if cfg.quick {
            Size {
                nodes: 8,
                queries: 1200,
                qps: 600.0,
            }
        } else {
            Size {
                nodes: 32,
                queries: 3000,
                qps: 2400.0,
            }
        }
    }

    /// Virtual seconds the arrivals span, on average.
    fn span_s(&self) -> f64 {
        self.queries as f64 / self.qps
    }
}

struct Stream {
    seed: u64,
    queries: Vec<QuerySpec>,
    /// Distinct arrival instants, in order: one `run_until` each.
    instants: Vec<f64>,
}

struct Inputs {
    engine: ClusterEngine,
    workload: WorkloadSpec,
    streams: Vec<Stream>,
}

fn build(size: &Size, seeds: &[u64], t: &mut Tracer) -> Inputs {
    let specs = t.span("models", "all_models", 0, || quality::specs(&quality::MIX));
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let n = size.nodes;
    let d = size.span_s();
    let plan = FailurePlan::new()
        .try_crash(0.2 * d, 5 % n)
        .and_then(|p| p.try_drain(0.4 * d, 11 % n))
        .and_then(|p| p.try_crash(0.6 * d, 18 % n))
        .and_then(|p| p.try_drain(0.8 * d, 26 % n))
        .expect("scripted instants are finite and non-negative");
    let scale = ScalePolicy::try_new(
        AutoscalerKind::Hysteresis(AutoscalerConfig::default()),
        NodeSpec::new("auto", big.clone(), Policy::VeltairFull),
        n - n / 8,
        n + n / 4,
        0.1,
        0.2,
    )
    .expect("the scale policy is valid");
    let engine = t.span("core", "ClusterBuilder::build", 0, || {
        let mut b = ClusterEngine::builder()
            .router(RouterKind::InterferenceAware)
            .routing_mode(RoutingMode::Indexed)
            .step_mode(StepMode::Sequential)
            .admission(AdmissionKind::SloAware(SloAdmissionConfig::default()))
            .autoscale(scale)
            .failure_plan(plan);
        for s in &specs {
            b = b.compile(s.clone());
        }
        for i in 0..n {
            b = b.node(if i % 4 == 3 {
                NodeSpec::new(&format!("edge-{i}"), edge.clone(), Policy::VeltairFull)
            } else {
                NodeSpec::new(&format!("big-{i}"), big.clone(), Policy::VeltairFull)
            });
        }
        b.build().expect("the fleet is valid")
    });
    let rates: Vec<(&str, f64)> = specs
        .iter()
        .map(|s| (s.graph.name.as_str(), 1.0 / s.qos_ms))
        .collect();
    let workload = WorkloadSpec::try_bursty_mix(&rates, size.queries, BURST_ON_S, BURST_OFF_S)
        .expect("the bursty mix is valid")
        .scaled_to(size.qps);
    let streams = seeds
        .iter()
        .map(|&seed| {
            let queries = workload.generate(seed);
            let mut instants: Vec<f64> = queries.iter().map(|q| q.arrival.0).collect();
            instants.dedup();
            Stream {
                seed,
                queries,
                instants,
            }
        })
        .collect();
    Inputs {
        engine,
        workload,
        streams,
    }
}

/// One stream: a fresh session, every query submitted up front, then one
/// `run_until` per arrival instant, with a lap every [`LAP_INSTANTS`], and
/// `finish`. With `export`, the recorder's log is exported as Chrome JSON
/// before `finish`.
#[allow(clippy::too_many_arguments)]
fn serve(
    inp: &Inputs,
    stream: &Stream,
    recorder: bool,
    export: bool,
    t: &mut Tracer,
    advance_us: &mut Vec<f64>,
    out: &mut Outcome,
    laps: &mut Laps,
) -> FleetReport {
    let mut session = t.span("core", "ClusterEngine::session", 0, || {
        inp.engine.session().expect("the fleet is valid")
    });
    if recorder {
        session.enable_telemetry(TraceConfig::flight_recorder(RECORDER_EVENTS));
    }
    t.enter("core", "ClusterSession::submit", 0);
    let mut late = 0u64;
    for q in &stream.queries {
        late += u64::from(session.now_s() > q.arrival.0);
        session
            .submit(&q.model, q.arrival.0)
            .expect("the mix serves registered models");
    }
    t.exit();
    out.check(late == 0, late, || {
        format!("{late} queries were submitted after their arrival")
    });
    for (i, &at) in stream.instants.iter().enumerate() {
        if i > 0 && i % LAP_INSTANTS == 0 {
            laps.lap();
        }
        t.enter("cluster", "run_until", 0);
        session.run_until(at);
        let ns = t.exit();
        if t.enabled() {
            advance_us.push(ns as f64 / 1e3);
        }
    }
    if export {
        t.enter("telemetry", "trace_log+to_chrome_json", 0);
        let json = session.trace_log().map(|log| log.to_chrome_json());
        t.exit();
        out.check(json.is_some_and(|j| j.starts_with('{')), 1, || {
            "the flight recorder exported no trace".into()
        });
    }
    t.span("cluster", "finish", 0, || session.finish())
}

/// One pass: every stream served in turn; only the first is exported.
fn pass(
    inp: &Inputs,
    recorder: bool,
    export: bool,
    t: &mut Tracer,
    advance_us: &mut Vec<f64>,
    out: &mut Outcome,
    laps: &mut Laps,
) -> Vec<FleetReport> {
    inp.streams
        .iter()
        .enumerate()
        .map(|(i, s)| serve(inp, s, recorder, export && i == 0, t, advance_us, out, laps))
        .collect()
}

/// Whether each report matches the recorder-less reference in everything
/// the recorder must not change.
fn same_results(reports: &[FleetReport], reference: &[FleetReport]) -> bool {
    reports.len() == reference.len()
        && reports
            .iter()
            .zip(reference)
            .all(|(r, want)| without_telemetry(r) == *want)
}

/// The simulated part of a report, which the recorder must not change.
fn without_telemetry(r: &FleetReport) -> FleetReport {
    FleetReport {
        telemetry: None,
        ..r.clone()
    }
}

pub fn run(cfg: &RunConfig, out: &mut Outcome, layers: &mut Layers) {
    let size = Size::of(cfg);
    let k = quality::stream_shape(cfg).1;
    let seeds = quality::stream_seeds(cfg.seed, k);
    let mut t = Tracer::new(cfg.trace);
    let (setup_s, inp) = harness::time_setup(|| build(&size, &seeds, &mut t));
    layers.set(
        "models.spec_ms",
        t.layer_self_ns("models") as f64 / 1e6 / all_models().len() as f64,
    );
    let ops = (size.queries * k) as u64;

    // The reference is the engine's one-shot batch path with the recorder
    // off; every pass must reproduce its simulated results.
    let reference: Vec<FleetReport> = inp
        .streams
        .iter()
        .map(|s| inp.engine.run(&inp.workload, s.seed))
        .collect();
    out.attempted += ops;
    for r in &reference {
        let resolved = r.merged.total_queries() as u64 + r.shed;
        out.check(
            r.submitted == size.queries as u64 && resolved == r.submitted,
            size.queries as u64,
            || {
                format!(
                    "{} completed + {} shed != {} submitted ({} generated)",
                    r.merged.total_queries(),
                    r.shed,
                    r.submitted,
                    size.queries
                )
            },
        );
    }
    let check_pass = |reports: &[FleetReport], recorder: bool, out: &mut Outcome| {
        out.attempted += ops;
        let recorded = reports
            .iter()
            .all(|r| r.telemetry.as_ref().map_or(0, |s| s.events_recorded) > 0);
        out.check(
            same_results(reports, &reference) && recorded == recorder,
            ops,
            || "a pass's fleet reports differ from the batch reference".into(),
        );
    };

    let calibration_before = harness::Calibration::measure();
    let mut recorded = reference.clone();
    let setup = || drop(build(&size, &seeds, &mut Tracer::new(false)));
    let untraced = harness::timed_passes(cfg.budget(TRACED_PHASES), k, setup, |i, laps| {
        recorded[i] = serve(
            &inp,
            &inp.streams[i],
            true,
            false,
            &mut t,
            &mut Vec::new(),
            out,
            laps,
        );
        let r = &recorded[i];
        out.attempted += size.queries as u64;
        out.check(
            without_telemetry(r) == reference[i]
                && r.telemetry.as_ref().map_or(0, |s| s.events_recorded) > 0,
            size.queries as u64,
            || format!("stream {i}'s fleet report differs from the batch reference"),
        );
    });
    let calibration = (calibration_before, harness::Calibration::measure());
    report_passes(out, cfg, setup_s, &untraced, ops, calibration);

    if cfg.trace {
        traced_run(cfg, out, layers, &inp, &recorded, &untraced, t, check_pass);
        return;
    }
    let runs: Vec<(&ServingReport, usize)> = reference
        .iter()
        .map(|r| (&r.merged, r.submitted as usize))
        .collect();
    let node = node_engine(&inp.engine);
    quality::report_serving_and_capacity(out, cfg, &runs, &node, &inp.workload);
    let mut registries: Vec<(&MachineConfig, &[CompiledModel])> = Vec::new();
    for (i, node) in inp.engine.nodes().iter().enumerate() {
        if !registries
            .iter()
            .any(|(m, _)| machine_key(m) == machine_key(&node.machine))
        {
            registries.push((&node.machine, inp.engine.registry_for_node(i)));
        }
    }
    quality::report_code_quality(out, &registries, CompilerOptions::default().reference_cores);
}

/// One node of the fleet's first machine class, alone, for `max_qps`.
fn node_engine(fleet: &ClusterEngine) -> ServingEngine {
    let mut b = ServingEngine::builder()
        .machine(fleet.nodes()[0].machine.clone())
        .policy(Policy::VeltairFull);
    for m in fleet.registry_for_node(0) {
        b = b.model(m.clone());
    }
    b.build()
        .expect("the fleet's registry forms a valid engine")
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    cfg: &RunConfig,
    out: &mut Outcome,
    layers: &mut Layers,
    inp: &Inputs,
    recorded: &[FleetReport],
    untraced: &PassTimes,
    mut t: Tracer,
    check_pass: impl Fn(&[FleetReport], bool, &mut Outcome),
) {
    let ops = inp.streams.iter().map(|s| s.queries.len()).sum::<usize>() as u64;
    let third = cfg.budget(TRACED_PHASES);
    // Recorder off against recorder on, both untraced.
    let unrecorded = harness::timed_passes(
        third,
        1,
        || {},
        |_, laps| {
            let reports = pass(inp, false, false, &mut t, &mut Vec::new(), out, laps);
            check_pass(&reports, false, out);
        },
    );
    layers.set(
        "telemetry.recorder_overhead",
        harness::mean(&untraced.wall_ms) / harness::mean(&unrecorded.wall_ms),
    );

    t.reset_totals();
    let mut advance_us = Vec::new();
    let mut first = true;
    let traced = harness::timed_passes(
        third,
        1,
        || {},
        |_, laps| {
            let export = std::mem::take(&mut first);
            t.keep = export;
            let reports = pass(inp, true, export, &mut t, &mut advance_us, out, laps);
            t.keep = false;
            check_pass(&reports, true, out);
        },
    );
    crate::report_trace_overhead(layers, untraced, &traced);
    let export_ns = t.self_ns("telemetry", "trace_log+to_chrome_json");
    layers.set("telemetry.export_ms", export_ns as f64 / 1e6);
    layers.set(
        "cluster.advance_us",
        advance_us.iter().sum::<f64>() / advance_us.len().max(1) as f64,
    );
    layers.self_times(&t, ops * traced.passes() as u64);

    let k = recorded.len() as f64;
    let sum = |f: &dyn Fn(&FleetReport) -> u64| recorded.iter().map(f).sum::<u64>() as f64;
    let submitted = sum(&|r| r.submitted);
    layers.set(
        "cluster.examined_per_decision",
        sum(&|r| r.coordinator.nodes_examined) / sum(&|r| r.coordinator.routing_decisions),
    );
    layers.set(
        "cluster.index_updates_per_query",
        sum(&|r| r.coordinator.index_updates) / submitted,
    );
    layers.set(
        "cluster.pool_round_trips",
        sum(&|r| r.coordinator.pool_round_trips) / k,
    );
    layers.set("cluster.rerouted", sum(&|r| r.rerouted) / k);
    layers.set("cluster.deferrals", sum(&|r| r.deferrals) / k);
    layers.set("cluster.shed", sum(&|r| r.shed) / k);
    layers.set("cluster.shed_frac", sum(&|r| r.shed) / submitted);
    layers.set(
        "cluster.nodes_added",
        sum(&|r| r.coordinator.nodes_added) / k,
    );
    layers.set(
        "cluster.nodes_drained",
        sum(&|r| r.coordinator.nodes_drained) / k,
    );
    layers.set(
        "cluster.nodes_killed",
        sum(&|r| r.coordinator.nodes_killed) / k,
    );
    let telemetry =
        |f: &dyn Fn(&TelemetrySnapshot) -> u64| sum(&|r| r.telemetry.as_ref().map_or(0, f));
    layers.set("telemetry.events", telemetry(&|s| s.events_recorded) / k);
    layers.set("telemetry.dropped", telemetry(&|s| s.events_dropped) / k);
    crate::write_spans(cfg, &t);
}
