//! An independent oracle for Algorithm 2's block sizing.
//!
//! `block_core_requirement`, `block_flat_latency_s` and
//! `boosted_block_cores` rate every unit through its layer's compiled
//! core-count curve. The oracle below re-derives all three from the
//! definitions with nothing but `veltair_sim::execute` on each version's
//! profile — no curve, no rater, no shared helper — and the results must
//! agree exactly for every model of the zoo, a grid of cache/bandwidth
//! pressure pairs, and every `(begin, end)` block of at most `MAX_BLOCK`
//! units. That is every block of the five models with at most 64 units;
//! efficientnet_b0 (99 units) and bert_large (217) are checked on every
//! block of up to 64 units, since all of their blocks would take minutes
//! in a debug build.
//!
//! The oracle rates each unit once per core count and extends each
//! block's sum one unit at a time from its `begin`, which adds the same
//! terms in the same order as a direct sum over `[begin, end)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair::compiler::{compile_model, selector, CompiledModel, CompilerOptions, QOS_PLAN_MARGIN};
use veltair::models::by_name;
use veltair::sched::layer_block::{
    block_core_requirement, block_flat_latency_s, boosted_block_cores,
};
use veltair::sim::{execute, Interference, MachineConfig};

/// The longest block checked.
const MAX_BLOCK: usize = 64;

/// The boost rule's documented slack: the smallest allocation within 5 %
/// of the best latency in the boost range.
const BOOST_SLACK: f64 = 0.05;

fn pressures() -> [Interference; 4] {
    [
        Interference::NONE,
        Interference::level(0.6),
        Interference {
            cache_frac: 0.9,
            bw_frac: 0.3,
        },
        Interference {
            cache_frac: 0.2,
            bw_frac: 0.95,
        },
    ]
}

/// `latency[i][p - 1]`: unit `i` at its version on `p` cores, plus the
/// per-unit dispatch overhead.
fn unit_latencies(
    model: &CompiledModel,
    versions: &[usize],
    pressure: Interference,
    machine: &MachineConfig,
) -> Vec<Vec<f64>> {
    model
        .layers
        .iter()
        .zip(versions)
        .map(|(layer, &v)| {
            (1..=machine.cores)
                .map(|p| {
                    execute(&layer.versions[v].profile, p, pressure, machine).latency_s
                        + machine.dispatch_overhead_s
                })
                .collect()
        })
        .collect()
}

/// The versions exercised at the `k`-th pressure: the selector's choice at
/// the pressure's scalar level for even `k`, a seeded random version per
/// unit for odd `k`.
fn versions_for(model: &CompiledModel, k: usize, level: f64, rng: &mut StdRng) -> Vec<usize> {
    if k.is_multiple_of(2) {
        selector::select_at_level(model, level, true)
    } else {
        model
            .layers
            .iter()
            .map(|l| rng.gen_range(0..l.versions.len()))
            .collect()
    }
}

fn check_model(name: &str) {
    let machine = MachineConfig::threadripper_3990x();
    let spec = by_name(name).expect("zoo model");
    let model = compile_model(&spec, &machine, &CompilerOptions::fast());
    let n = model.layers.len();
    let cores = machine.cores as usize;
    let mut rng = StdRng::seed_from_u64(0xb10c);
    for (k, pressure) in pressures().into_iter().enumerate() {
        let versions = versions_for(&model, k, pressure.scalar(), &mut rng);
        let latency = unit_latencies(&model, &versions, pressure, &machine);
        for begin in 0..n {
            // Running per-core-count sums over [begin, end).
            let mut flat = vec![0.0_f64; cores];
            let mut budget = 0.0_f64;
            for end in begin + 1..=n.min(begin + MAX_BLOCK) {
                for (sum, l) in flat.iter_mut().zip(&latency[end - 1]) {
                    *sum += l;
                }
                budget += model.layers[end - 1].qos_share_s;
                let planned = budget * QOS_PLAN_MARGIN;

                let want_req = flat
                    .iter()
                    .position(|&l| l <= planned)
                    .map_or(machine.cores, |i| i as u32 + 1);
                let got_req =
                    block_core_requirement(&model, begin, end, &versions, pressure, &machine);
                assert_eq!(
                    got_req, want_req,
                    "{name} [{begin}, {end}) under {pressure:?}: core requirement"
                );

                let probe = rng.gen_range(1..=machine.cores);
                let got_flat =
                    block_flat_latency_s(&model, begin, end, &versions, pressure, probe, &machine);
                assert_eq!(
                    got_flat.to_bits(),
                    flat[probe as usize - 1].to_bits(),
                    "{name} [{begin}, {end}) on {probe} cores under {pressure:?}"
                );

                let cap = rng.gen_range(want_req..=machine.cores);
                let want_boost = if cap <= want_req {
                    want_req
                } else {
                    let range = &flat[want_req as usize - 1..cap as usize];
                    let best = range.iter().copied().fold(f64::INFINITY, f64::min);
                    let first = range
                        .iter()
                        .position(|&l| l <= best * (1.0 + BOOST_SLACK))
                        .expect("the best allocation qualifies");
                    want_req + first as u32
                };
                let got_boost = boosted_block_cores(
                    &model, begin, end, &versions, pressure, want_req, cap, &machine,
                );
                assert_eq!(
                    got_boost, want_boost,
                    "{name} [{begin}, {end}) boosted to at most {cap} under {pressure:?}"
                );
            }
        }
    }
}

#[test]
fn resnet50_block_sizing_matches_the_oracle() {
    check_model("resnet50");
}

#[test]
fn mobilenet_v2_block_sizing_matches_the_oracle() {
    check_model("mobilenet_v2");
}

#[test]
fn googlenet_block_sizing_matches_the_oracle() {
    check_model("googlenet");
}

#[test]
fn efficientnet_b0_block_sizing_matches_the_oracle() {
    check_model("efficientnet_b0");
}

#[test]
fn tiny_yolo_v2_block_sizing_matches_the_oracle() {
    check_model("tiny_yolo_v2");
}

#[test]
fn ssd_resnet34_block_sizing_matches_the_oracle() {
    check_model("ssd_resnet34");
}

#[test]
fn bert_large_block_sizing_matches_the_oracle() {
    check_model("bert_large");
}
