//! The simulated end-to-end metrics: what a tenant of the serving system
//! sees (QoS satisfaction, latency, goodput, capacity) and the modeled
//! quality of the compiled code. All of them are in virtual time and
//! repeat exactly for a fixed seed.

use veltair::prelude::*;

use crate::harness;
use crate::output::{self, Outcome};
use crate::RunConfig;

/// The Fig. 12 four-model mix (light, medium and heavy tenants).
pub const MIX: [&str; 4] = ["mobilenet_v2", "tiny_yolo_v2", "resnet50", "googlenet"];

/// The Fig. 12 satisfaction target of `max_qps`.
const QOS_TARGET: f64 = 0.95;

/// `max_qps` searches averaged per run, each on its own arrival seed, and
/// the queries of each search's probes.
const QPS_SEARCHES: usize = 3;
const QPS_PROBE_QUERIES: usize = 1000;

/// Queries per arrival stream and independent streams per pass. Serving
/// tails near saturation are correlated over long stretches, so pooling
/// independent streams steadies every simulated metric far more than one
/// stream as long as all of them.
pub fn stream_shape(cfg: &RunConfig) -> (usize, usize) {
    if cfg.quick {
        (1000, 1)
    } else {
        (2000, 8)
    }
}

/// The arrival seeds of a run's `k` streams.
pub fn stream_seeds(seed: u64, k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| seed.wrapping_mul(64).wrapping_add(i))
        .collect()
}

/// The Fig. 12 inverse-QoS mix at `qps` aggregate: tighter-QoS tenants
/// arrive more often.
pub fn fig12_mix(specs: &[ModelSpec], qps: f64, queries: usize) -> WorkloadSpec {
    let streams: Vec<(&str, f64)> = specs
        .iter()
        .map(|s| (s.graph.name.as_str(), s.qos_ms))
        .collect();
    WorkloadSpec::inverse_qos_mix(&streams, qps, queries)
}

/// Reports the serving metrics pooled over `runs` and `max_qps` of
/// `engine` on `workload` (see [`report_serving`] and [`report_max_qps`]).
pub fn report_serving_and_capacity(
    out: &mut Outcome,
    cfg: &RunConfig,
    runs: &[(&ServingReport, usize)],
    engine: &ServingEngine,
    workload: &WorkloadSpec,
) {
    report_serving(out, runs);
    let (searches, queries) = if cfg.quick {
        (1, 200)
    } else {
        (QPS_SEARCHES, QPS_PROBE_QUERIES)
    };
    report_max_qps(
        out,
        engine,
        workload,
        queries,
        &stream_seeds(cfg.seed, searches),
    );
}

/// Reports `satisfaction`, `mean_ms`, `p50_ms`, `p99_ms` and
/// `goodput_qps`, pooled over independent runs. Each run is a report of
/// its completed queries and the number of queries offered to it; shed
/// queries count as QoS misses, and goodput divides the QoS-meeting
/// completions by the runs' summed virtual makespans.
fn report_serving(out: &mut Outcome, runs: &[(&ServingReport, usize)]) {
    let mut satisfied = 0usize;
    let mut offered = 0usize;
    let mut latency_sum_s = 0.0;
    let mut makespan_s = 0.0;
    let mut latencies_s = Vec::new();
    for (r, submitted) in runs {
        offered += submitted;
        makespan_s += r.makespan_s;
        for m in r.per_model.values() {
            satisfied += m.satisfied;
            latency_sum_s += m.latency_sum_s;
            latencies_s.extend_from_slice(&m.latencies_s);
        }
    }
    let completed = latencies_s.len();
    out.metric("satisfaction", satisfied as f64 / offered as f64);
    out.metric("mean_ms", latency_sum_s / completed as f64 * 1e3);
    out.metric("p50_ms", harness::percentile(&latencies_s, 50.0) * 1e3);
    out.metric("p99_ms", harness::percentile(&latencies_s, 99.0) * 1e3);
    out.metric("goodput_qps", satisfied as f64 / makespan_s);
    output::diag("latency_samples", completed as f64, "queries");
    out.check(completed >= 1000, 1, || {
        format!("p99 needs at least 1000 completions, got {completed}")
    });
}

/// Fig. 12's metric: the highest aggregate rate at which one engine keeps
/// `QOS_TARGET` of the workload's queries within QoS, averaged over
/// searches on independent arrival seeds.
fn report_max_qps(
    out: &mut Outcome,
    engine: &ServingEngine,
    workload: &WorkloadSpec,
    queries: usize,
    seeds: &[u64],
) {
    let mut found = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let cfg = QpsSearchConfig {
            satisfaction_target: QOS_TARGET,
            queries,
            seed,
            iterations: 7,
        };
        let r = max_qps_at_qos(engine, workload, &cfg);
        out.check(r.satisfaction >= QOS_TARGET, 1, || {
            format!(
                "max_qps search (seed {seed}) found no rate meeting {QOS_TARGET} (best {:.3})",
                r.satisfaction
            )
        });
        found.push(r.qps);
    }
    output::diag_sample("max_qps.searches", "qps", &found);
    out.metric("max_qps", harness::mean(&found));
}

/// Modeled latency of the compiled code, milliseconds: the sum over the
/// given models of each layer's best version for `level`, run at the
/// compiler's reference core count (capped at the machine's cores).
fn code_latency_ms(
    models: &[CompiledModel],
    machine: &MachineConfig,
    reference_cores: u32,
    level: f64,
) -> f64 {
    let cores = reference_cores.min(machine.cores);
    models
        .iter()
        .flat_map(|m| &m.layers)
        .map(|l| {
            let v = l.version_for_level(level);
            l.latency_s(v, cores, Interference::level(level), machine)
        })
        .sum::<f64>()
        * 1e3
}

/// Reports `solo_ms` and `stressed_ms` (interference 0.0 and 1.0) over
/// registries of compiled models, one per machine.
pub fn report_code_quality(
    out: &mut Outcome,
    registries: &[(&MachineConfig, &[CompiledModel])],
    reference_cores: u32,
) {
    for (name, level) in [("solo_ms", 0.0), ("stressed_ms", 1.0)] {
        let total = registries
            .iter()
            .map(|(machine, models)| code_latency_ms(models, machine, reference_cores, level))
            .sum();
        out.metric(name, total);
    }
}

/// The named zoo models' specs, in the order given.
pub fn specs(names: &[&str]) -> Vec<ModelSpec> {
    let zoo = all_models();
    names
        .iter()
        .map(|n| {
            zoo.iter()
                .find(|s| s.graph.name == *n)
                .unwrap_or_else(|| panic!("{n} is not a zoo model"))
                .clone()
        })
        .collect()
}
