//! The VELTAIR reproduction's benchmark: one command that runs a named
//! workload through the public API, checks its outputs, and prints every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) by
//! name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload node-overload --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Everything runs on one thread. Host times come from repeated passes over
//! a fixed input, split into fixed segments (see [`harness`]); simulated
//! metrics are in virtual time and repeat exactly for a fixed seed. Lines
//! starting with `#` are the metric table and noise diagnostics; they are
//! never gated.

mod fleet;
mod harness;
mod node;
mod output;
mod quality;
mod spans;
mod zoo;

use std::collections::BTreeMap;

use harness::{Budget, Calibration, PassTimes};
use output::Outcome;
use spans::Tracer;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("host_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("satisfaction", "ratio"),
    ("mean_ms", "virtual_ms"),
    ("p50_ms", "virtual_ms"),
    ("p99_ms", "virtual_ms"),
    ("goodput_qps", "qps"),
    ("max_qps", "qps"),
    ("solo_ms", "modeled_ms"),
    ("stressed_ms", "modeled_ms"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// workload that does not exercise a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    // zoo-compile
    ("tensor.fuse_ms", "ms"),
    ("compiler.search_ms", "ms"),
    ("compiler.search.generated", "count"),
    ("compiler.search.lowered", "count"),
    ("compiler.search.pruned", "count"),
    ("compiler.lower_us", "us"),
    ("compiler.multiversion_ms", "ms"),
    ("compiler.versions", "count"),
    ("compiler.cache_hits", "count"),
    ("compiler.cache_misses", "count"),
    ("compiler.learned.search_ms", "ms"),
    ("compiler.learned.lowered_frac", "ratio"),
    // node-overload
    ("sched.step_us.p50", "us"),
    ("sched.step_us.p99", "us"),
    ("sched.steps_per_query", "steps/query"),
    ("sched.in_flight_mean", "units"),
    ("compiler.select_us", "us"),
    ("compiler.select_calls", "count"),
    ("sched.conflict_rate", "ratio"),
    ("sched.preemptions", "count"),
    ("sched.avg_cores", "cores"),
    ("sched.queue_wait_ms", "virtual_ms"),
    // fleet-churn
    ("cluster.advance_us", "us"),
    ("cluster.examined_per_decision", "count"),
    ("cluster.index_updates_per_query", "count"),
    ("cluster.pool_round_trips", "count"),
    ("cluster.rerouted", "count"),
    ("cluster.deferrals", "count"),
    ("cluster.shed", "count"),
    ("cluster.shed_frac", "ratio"),
    ("cluster.nodes_added", "count"),
    ("cluster.nodes_drained", "count"),
    ("cluster.nodes_killed", "count"),
    ("telemetry.events", "count"),
    ("telemetry.dropped", "count"),
    ("telemetry.recorder_overhead", "ratio"),
    ("telemetry.export_ms", "ms"),
    // every workload
    ("bench.trace_overhead", "ratio"),
    ("models.spec_ms", "ms"),
    ("tensor.self_ms", "ms"),
    ("compiler.self_ms", "ms"),
    ("costmodel.self_ms", "ms"),
    ("sched.self_ms", "ms"),
    ("cluster.self_ms", "ms"),
    ("telemetry.self_ms", "ms"),
    ("core.self_ms", "ms"),
];

/// The unit of a metric in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("{name} is not a listed metric"))
}

pub const WORKLOADS: [&str; 3] = ["zoo-compile", "node-overload", "fleet-churn"];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and a single set-up, for the benchmark's smoke test.
    pub quick: bool,
}

impl RunConfig {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = RunConfig {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            quick: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                cfg.quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => cfg.workload = value.clone(),
                "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    cfg.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&cfg.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got {:?}",
                WORKLOADS.join(", "),
                cfg.workload
            ));
        }
        if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {}", cfg.seconds));
        }
        Ok(cfg)
    }

    /// Timed passes of one phase: the run's seconds, shared equally by
    /// the `traced_phases` phases of a traced run, and at least three
    /// passes.
    pub fn budget(&self, traced_phases: u32) -> Budget {
        Budget {
            seconds: if self.trace {
                self.seconds / f64::from(traced_phases)
            } else {
                self.seconds
            },
            min: if self.quick { 1 } else { 3 },
        }
    }
}

/// The per-layer metrics of a traced run; unset ones report 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Sets `<layer>.self_ms`: each layer's self time per op over the
    /// traced passes, which together held `ops` ops. (Set-up is traced
    /// too, but reset away before the passes; `models.spec_ms` covers the
    /// one layer that works only in set-up.)
    pub fn self_times(&mut self, t: &Tracer, ops: u64) {
        const SELF_MS: [(&str, &str); 7] = [
            ("tensor", "tensor.self_ms"),
            ("compiler", "compiler.self_ms"),
            ("costmodel", "costmodel.self_ms"),
            ("sched", "sched.self_ms"),
            ("cluster", "cluster.self_ms"),
            ("telemetry", "telemetry.self_ms"),
            ("core", "core.self_ms"),
        ];
        for (layer, metric) in SELF_MS {
            let ns = t.layer_self_ns(layer);
            if ns > 0 {
                self.set(metric, ns as f64 / 1e6 / ops.max(1) as f64);
            }
        }
    }

    fn emit(&self, out: &mut Outcome) {
        for (name, _) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0));
        }
    }
}

/// Reports `setup_s` (the median of the first set-up and those between
/// passes) and `host_ms_per_op` (the sum of every segment's fastest run
/// over the ops in a pass; untraced runs only), and prints the pass
/// diagnostics: per-pass values with quartiles, the mean pass, on-CPU and
/// run-queue time from `schedstat`, and the calibration loops before and
/// after the timed phase.
pub fn report_passes(
    out: &mut Outcome,
    cfg: &RunConfig,
    first_setup_s: f64,
    times: &PassTimes,
    ops_per_pass: u64,
    calibration: (Calibration, Calibration),
) {
    let ops = ops_per_pass as f64;
    let per_op: Vec<f64> = times.wall_ms.iter().map(|ms| ms / ops).collect();
    output::diag_sample("host_ms_per_op.passes", "ms", &per_op);
    output::diag("host_ms_per_op.mean_pass", harness::mean(&per_op), "ms");
    output::diag(
        "bench.cpu_ms_per_op",
        harness::mean(&times.cpu_ms) / ops,
        "ms",
    );
    output::diag(
        "bench.runqueue_ms",
        harness::mean(&times.runqueue_ms),
        "ms/pass",
    );
    output::diag(
        "bench.minor_faults_per_pass",
        harness::mean(&times.minor_faults),
        "faults",
    );
    let (before, after) = calibration;
    output::diag("bench.calibration_ms.before", before.memory_ms, "ms");
    output::diag("bench.calibration_ms.after", after.memory_ms, "ms");
    output::diag("bench.calibration_cpu_ms.before", before.cpu_ms, "ms");
    output::diag("bench.calibration_cpu_ms.after", after.cpu_ms, "ms");
    let mut setups = vec![first_setup_s];
    setups.extend(&times.setup_s);
    output::diag_sample("setup_s.runs", "s", &setups);
    let setup_s = harness::median(&setups);
    if !cfg.trace {
        out.metric("setup_s", setup_s);
        out.metric("host_ms_per_op", times.fastest_ms() / ops);
    }
}

/// Sets `bench.trace_overhead`: the traced passes' mean over the untraced
/// passes' mean (both hold the same ops).
pub fn report_trace_overhead(layers: &mut Layers, untraced: &PassTimes, traced: &PassTimes) {
    output::diag_sample("traced_pass_ms", "ms", &traced.wall_ms);
    layers.set(
        "bench.trace_overhead",
        harness::mean(&traced.wall_ms) / harness::mean(&untraced.wall_ms),
    );
}

/// Writes the traced run's span log under `perfbench/out/`.
pub fn write_spans(cfg: &RunConfig, t: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-{}.tsv", cfg.workload, cfg.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.log_tsv())) {
        Ok(()) => println!("# spans: {} written to {}", t.log().len(), path.display()),
        Err(e) => println!("# spans: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match RunConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} quick={} threads=1 host_cpus={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.quick,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    let mut out = Outcome::default();
    let mut layers = Layers::default();
    match cfg.workload.as_str() {
        "zoo-compile" => zoo::run(&cfg, &mut out, &mut layers),
        "node-overload" => node::run(&cfg, &mut out, &mut layers),
        "fleet-churn" => fleet::run(&cfg, &mut out, &mut layers),
        _ => unreachable!("workload names are validated by RunConfig::parse"),
    }
    let expected: Vec<&str> = if cfg.trace {
        layers.emit(&mut out);
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        out.metric("peak_rss_mb", harness::peak_rss_mb());
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let mut got = out.names();
    got.sort_unstable();
    let mut want: Vec<String> = expected.into_iter().map(String::from).collect();
    want.sort_unstable();
    out.check(got == want, 1, || {
        format!("reported metrics {got:?} differ from the benchmark's list {want:?}")
    });
    if !out.finish() {
        std::process::exit(1);
    }
}
