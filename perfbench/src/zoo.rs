//! `zoo-compile`: a fresh `CompilerService` with default options compiles
//! every zoo model for both reference machines; a second `registry`
//! request must then be served entirely from the cache. One op is one
//! model compile. The run's seed drives the arrivals of the serving check
//! on the compiled code. The schedule sampler keeps the default options'
//! seed, the one every serving registry is compiled with: the sampler seed
//! moves the compiled versions, and with them the serving check's `p99_ms`
//! and `max_qps`, by up to a fifth across seeds.
//!
//! The traced run calls the compiler's layers piecewise (`fused_units` →
//! `search_with_stats` → `select_versions` → `CompiledLayer::build`) and
//! checks that the result equals `compile_model`'s.

use std::time::Instant;

use veltair::compiler::{interference_bins, NUM_INTERFERENCE_BINS, QOS_PLAN_MARGIN};
use veltair::compiler::{
    lower_gemm, lower_streaming, search_with_stats, select_versions, CompiledLayer,
    CompiledVersion, SearchStats,
};
use veltair::prelude::*;
use veltair::tensor::GemmView;

use crate::harness::{self, Laps};
use crate::output::Outcome;
use crate::quality;
use crate::spans::Tracer;
use crate::{report_passes, Layers, RunConfig};

/// Aggregate rate of the serving check on the compiled code, queries per
/// second: about three quarters of a node's capacity on the mix.
const SERVE_QPS: f64 = 120.0;

struct Inputs {
    specs: Vec<ModelSpec>,
    machines: Vec<MachineConfig>,
    options: CompilerOptions,
}

/// One service pass: every (machine, model) compiled, with a lap after
/// each compile, then requested again through `registry`.
struct ServicePass {
    first: Vec<Vec<CompiledModel>>,
    second: Vec<Vec<CompiledModel>>,
    hits: u64,
    misses: u64,
    stats: SearchStats,
}

fn service_pass(inp: &Inputs, laps: &mut Laps) -> ServicePass {
    let mut svc = CompilerService::new(inp.options.clone());
    let first = inp
        .machines
        .iter()
        .map(|m| {
            inp.specs
                .iter()
                .map(|s| {
                    let model = svc.compile(s, m);
                    laps.lap();
                    model
                })
                .collect()
        })
        .collect();
    let second = inp
        .machines
        .iter()
        .map(|m| svc.registry(&inp.specs, m).into_models())
        .collect();
    let (hits, misses) = svc.cache_stats();
    ServicePass {
        first,
        second,
        hits,
        misses,
        stats: svc.search_stats(),
    }
}

/// `compile_model`, one public layer call at a time, each in a span.
fn compile_piecewise(
    spec: &ModelSpec,
    machine: &MachineConfig,
    opts: &CompilerOptions,
    id: u64,
    t: &mut Tracer,
) -> CompiledModel {
    t.enter("compiler", "compile", id);
    let units = t.span("tensor", "fused_units", id, || spec.graph.fused_units());
    let total_flops: f64 = units.iter().map(|u| u.flops()).sum();
    let floor_s = |u: &veltair::tensor::FusedUnit| {
        1.25 * u.total_bytes() / machine.dram_bw + machine.dispatch_overhead_s
    };
    let raw_shares: Vec<f64> = units
        .iter()
        .map(|u| {
            let flop_share = if total_flops > 0.0 {
                spec.qos_s() * u.flops() / total_flops
            } else {
                0.0
            };
            flop_share.max(floor_s(u))
        })
        .collect();
    let raw_total: f64 = raw_shares.iter().sum();

    let mut layers = Vec::with_capacity(units.len());
    let mut search_stats = SearchStats::default();
    for (i, unit) in units.iter().enumerate() {
        let qos_share = raw_shares[i] * spec.qos_s() / raw_total;
        let versions = match GemmView::of(&unit.base) {
            Some(g) => {
                let (samples, stats) = t.span("compiler", "search_with_stats", id, || {
                    search_with_stats(unit, &g, machine, opts, i as u64)
                });
                search_stats.accumulate(&stats);
                t.span("compiler", "select_versions", id, || {
                    select_versions(&samples, qos_share, machine, opts)
                })
            }
            None => {
                let profile = lower_streaming(unit);
                vec![CompiledVersion {
                    schedule: None,
                    profile,
                    parallelism: f64::from(profile.parallel_chunks),
                    locality_bytes: profile.footprint_per_core_bytes,
                    unfused_epilogue: 0,
                }]
            }
        };
        let layer = t.span("compiler", "CompiledLayer::build", id, || {
            CompiledLayer::build(
                unit.name(),
                unit.flops(),
                unit.total_bytes(),
                qos_share,
                versions,
                machine,
                opts.reference_cores,
            )
        });
        layers.push(layer);
    }

    let mut model = CompiledModel {
        name: spec.graph.name.clone(),
        qos_s: spec.qos_s(),
        class: spec.class,
        total_flops,
        layers,
        model_cores: [machine.cores; NUM_INTERFERENCE_BINS],
        search_stats,
    };
    for (bi, &level) in interference_bins().iter().enumerate() {
        model.model_cores[bi] = (1..=machine.cores)
            .find(|&p| model.flat_latency_s(p, level, machine) <= model.qos_s * QOS_PLAN_MARGIN)
            .unwrap_or(machine.cores);
    }
    t.exit();
    model
}

/// Traced-run probes outside the timed passes: `lower_gemm` re-timed on
/// every returned sample, the same units searched in learned mode, and the
/// cost model fitted on the measured samples.
struct Probe {
    lower_calls: u64,
    lower_ns: u64,
    learned_ns: u64,
    learned: SearchStats,
    costmodel_ns: u64,
}

fn probe(inp: &Inputs, t: &mut Tracer) -> Probe {
    let learned_opts = inp.options.clone().with_search_mode(SearchMode::learned());
    let mut p = Probe {
        lower_calls: 0,
        lower_ns: 0,
        learned_ns: 0,
        learned: SearchStats::default(),
        costmodel_ns: 0,
    };
    for (mi, machine) in inp.machines.iter().enumerate() {
        for (si, spec) in inp.specs.iter().enumerate() {
            let id = (mi * inp.specs.len() + si) as u64;
            for (i, unit) in spec.graph.fused_units().iter().enumerate() {
                let Some(g) = GemmView::of(&unit.base) else {
                    continue;
                };
                let (samples, _) = search_with_stats(unit, &g, machine, &inp.options, i as u64);
                for s in &samples {
                    let t0 = Instant::now();
                    std::hint::black_box(lower_gemm(unit, &g, &s.schedule));
                    p.lower_ns += t0.elapsed().as_nanos() as u64;
                    p.lower_calls += 1;
                }
                t.enter("compiler", "search_with_stats(learned)", id);
                let (_, stats) = search_with_stats(unit, &g, machine, &learned_opts, i as u64);
                p.learned_ns += t.exit();
                p.learned.accumulate(&stats);

                t.enter("costmodel", "fit+predict", id);
                let features: Vec<ScheduleFeatures> = samples
                    .iter()
                    .map(|s| ScheduleFeatures::of(&s.schedule, &g, machine))
                    .collect();
                let latencies: Vec<f64> = samples.iter().map(|s| s.solo_latency_s).collect();
                let model = CostModel::fit(&features, &latencies);
                let predicted: f64 = features.iter().map(|f| model.predict_latency_s(f)).sum();
                std::hint::black_box(predicted);
                p.costmodel_ns += t.exit();
            }
        }
    }
    p
}

/// Set-up: the zoo's model specs and the two target machines.
fn build(cfg: &RunConfig, t: &mut Tracer) -> Inputs {
    let mut specs = t.span("models", "all_models", 0, all_models);
    if cfg.quick {
        specs.retain(|s| quality::MIX.contains(&s.graph.name.as_str()));
    }
    Inputs {
        specs,
        machines: vec![
            MachineConfig::threadripper_3990x(),
            MachineConfig::desktop_8core(),
        ],
        options: CompilerOptions::default(),
    }
}

pub fn run(cfg: &RunConfig, out: &mut Outcome, layers: &mut Layers) {
    let mut t = Tracer::new(cfg.trace);
    let (setup_s, inp) = harness::time_setup(|| build(cfg, &mut t));
    layers.set(
        "models.spec_ms",
        t.layer_self_ns("models") as f64 / 1e6 / all_models().len() as f64,
    );
    let ops = (inp.specs.len() * inp.machines.len()) as u64;

    // The warm-up pass is the reference every later pass must reproduce.
    let reference = service_pass(&inp, &mut Laps::start());
    out.attempted += ops;
    out.check(reference.second == reference.first, ops, || {
        "the second registry request returned different artifacts".into()
    });
    out.check(
        (reference.hits, reference.misses) == (ops, ops),
        ops,
        || {
            format!(
                "cache hits/misses {}/{}, expected {ops}/{ops}",
                reference.hits, reference.misses
            )
        },
    );

    let calibration_before = harness::Calibration::measure();
    let setup = || drop(build(cfg, &mut Tracer::new(false)));
    let untraced = harness::timed_passes(cfg.budget(2), 1, setup, |_, laps| {
        let p = service_pass(&inp, laps);
        out.attempted += ops;
        out.check(
            p.first == reference.first
                && p.second == reference.first
                && (p.hits, p.misses) == (ops, ops),
            ops,
            || "a pass compiled different artifacts or missed the cache".into(),
        );
    });
    let calibration = (calibration_before, harness::Calibration::measure());
    report_passes(out, cfg, setup_s, &untraced, ops, calibration);

    if cfg.trace {
        traced_run(cfg, out, layers, &inp, &reference, &untraced, t);
        return;
    }

    // Quality of the compiled code: its modeled latency, and the
    // threadripper registry serving the Fig. 12 mix at a moderate rate.
    let registries: Vec<(&MachineConfig, &[CompiledModel])> = inp
        .machines
        .iter()
        .zip(&reference.first)
        .map(|(m, r)| (m, r.as_slice()))
        .collect();
    quality::report_code_quality(out, &registries, inp.options.reference_cores);
    let mut builder = ServingEngine::builder()
        .machine(inp.machines[0].clone())
        .policy(Policy::VeltairFull);
    for m in reference.first[0]
        .iter()
        .filter(|m| quality::MIX.contains(&m.name.as_str()))
    {
        builder = builder.model(m.clone());
    }
    let engine = builder
        .build()
        .expect("the compiled mix forms a valid engine");
    let (n, k) = quality::stream_shape(cfg);
    let workload = quality::fig12_mix(&quality::specs(&quality::MIX), SERVE_QPS, n);
    let reports: Vec<ServingReport> = quality::stream_seeds(cfg.seed, k)
        .into_iter()
        .map(|s| engine.run(&workload, s))
        .collect();
    let runs: Vec<(&ServingReport, usize)> = reports.iter().map(|r| (r, n)).collect();
    quality::report_serving_and_capacity(out, cfg, &runs, &engine, &workload);
}

fn traced_run(
    cfg: &RunConfig,
    out: &mut Outcome,
    layers: &mut Layers,
    inp: &Inputs,
    reference: &ServicePass,
    untraced: &harness::PassTimes,
    mut t: Tracer,
) {
    let ops = (inp.specs.len() * inp.machines.len()) as u64;
    t.reset_totals();
    let mut first = true;
    let traced = harness::timed_passes(
        cfg.budget(2),
        1,
        || {},
        |_, _| {
            t.keep = std::mem::take(&mut first);
            let mut compiled = Vec::with_capacity(inp.machines.len());
            for (mi, m) in inp.machines.iter().enumerate() {
                let registry: Vec<CompiledModel> = inp
                    .specs
                    .iter()
                    .enumerate()
                    .map(|(si, s)| {
                        let id = (mi * inp.specs.len() + si) as u64;
                        compile_piecewise(s, m, &inp.options, id, &mut t)
                    })
                    .collect();
                compiled.push(registry);
            }
            t.keep = false;
            out.attempted += ops;
            out.check(compiled == reference.first, ops, || {
                "the piecewise compile differs from compile_model".into()
            });
        },
    );
    crate::report_trace_overhead(layers, untraced, &traced);
    let traced_ops = ops * traced.passes() as u64;
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / traced_ops as f64;
    layers.set(
        "tensor.fuse_ms",
        per_op_ms(t.self_ns("tensor", "fused_units")),
    );
    let search_ms = per_op_ms(t.self_ns("compiler", "search_with_stats"));
    layers.set("compiler.search_ms", search_ms);
    layers.set(
        "compiler.multiversion_ms",
        per_op_ms(t.self_ns("compiler", "select_versions")),
    );
    layers.self_times(&t, traced_ops);

    let stats = reference.stats;
    layers.set("compiler.search.generated", stats.generated as f64);
    layers.set("compiler.search.lowered", stats.lowered as f64);
    layers.set("compiler.search.pruned", stats.pruned as f64);
    let versions: usize = reference
        .first
        .iter()
        .flatten()
        .map(CompiledModel::total_versions)
        .sum();
    layers.set("compiler.versions", versions as f64);
    layers.set("compiler.cache_hits", reference.hits as f64);
    layers.set("compiler.cache_misses", reference.misses as f64);

    let p = probe(inp, &mut t);
    let lower_us = p.lower_ns as f64 / 1e3 / p.lower_calls.max(1) as f64;
    layers.set("compiler.lower_us", lower_us);
    layers.set(
        "compiler.learned.search_ms",
        p.learned_ns as f64 / 1e6 / ops as f64,
    );
    layers.set(
        "compiler.learned.lowered_frac",
        p.learned.lowered_fraction(),
    );
    layers.set(
        "costmodel.self_ms",
        p.costmodel_ns as f64 / 1e6 / ops as f64,
    );
    // Lowering's share of search time: one pass lowers `stats.lowered`
    // candidates over `ops` compiles.
    crate::output::diag(
        "compiler.lowering_share",
        lower_us / 1e3 * stats.lowered as f64 / (search_ms * ops as f64),
        "ratio",
    );
    crate::write_spans(cfg, &t);
}
