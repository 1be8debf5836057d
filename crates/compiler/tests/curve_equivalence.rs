//! Bit-equality of curve-backed ratings with `execute`.
//!
//! `CompiledLayer::build` tabulates each version's pressure-independent
//! rating terms for every core count of the build machine, and every
//! runtime rating reads them through `CompiledLayer::rater`. These seeded
//! properties pin that the shortcut never changes a bit: random valid
//! profiles × every core count (and a few past the machine) × random
//! cache/bandwidth pressure pairs × the reference machines and their DVFS
//! and SMT variants, plus the fallback legs — a machine other than the
//! build machine, and a profile mutated after the build.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair_compiler::{CompiledLayer, CompiledVersion};
use veltair_sim::{execute, Execution, Headroom, Interference, KernelProfile, MachineConfig};

const LAYERS: usize = 12;
const PRESSURES: usize = 6;

fn arb_profile(rng: &mut StdRng) -> KernelProfile {
    let min_t = rng.gen_range(1.0e4f64..1.0e8);
    // Half the profiles expose fewer chunks than a big machine has cores,
    // so the curve's saturated tail is exercised.
    let chunks = if rng.gen_bool(0.5) {
        rng.gen_range(1u32..=96)
    } else {
        rng.gen_range(1u32..4096)
    };
    KernelProfile {
        flops: rng.gen_range(1.0e6f64..1.0e10),
        compute_efficiency: rng.gen_range(0.05f64..0.95),
        parallel_chunks: chunks,
        footprint_base_bytes: rng.gen_range(0.0f64..4.0e6),
        footprint_per_core_bytes: rng.gen_range(1.0e3f64..8.0e6),
        min_traffic_bytes: min_t,
        spill_traffic_bytes: min_t + rng.gen_range(0.0f64..1.0e9),
    }
}

fn arb_layer(rng: &mut StdRng, machine: &MachineConfig) -> CompiledLayer {
    let versions = (0..rng.gen_range(1usize..=4))
        .map(|_| {
            let profile = arb_profile(rng);
            CompiledVersion {
                schedule: None,
                profile,
                parallelism: f64::from(profile.parallel_chunks),
                locality_bytes: profile.footprint_per_core_bytes,
                unfused_epilogue: 0,
            }
        })
        .collect();
    CompiledLayer::build(
        "unit".into(),
        1.0e9,
        1.0e7,
        rng.gen_range(1.0e-5f64..1.0e-2),
        versions,
        machine,
        16,
    )
}

/// Random pressure pairs, always including the solo and saturated corners.
fn arb_pressures(rng: &mut StdRng) -> Vec<Interference> {
    let mut pairs = vec![Interference::NONE, Interference::level(1.0)];
    pairs.extend((0..PRESSURES).map(|_| Interference {
        cache_frac: rng.gen_range(0.0f64..1.0),
        bw_frac: rng.gen_range(0.0f64..1.0),
    }));
    pairs
}

fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::threadripper_3990x(),
        MachineConfig::desktop_8core(),
        MachineConfig::threadripper_3990x().with_dvfs(0.25),
        MachineConfig::threadripper_3990x().with_smt(),
        MachineConfig::desktop_8core().with_dvfs(0.1).with_smt(),
    ]
}

fn bits(e: &Execution) -> [u64; 8] {
    [
        e.latency_s,
        e.counters.l3_accesses,
        e.counters.l3_misses,
        e.counters.instructions,
        e.counters.cycles,
        e.counters.flops,
        e.demand.cache_bytes,
        e.demand.bw_bytes_per_s,
    ]
    .map(f64::to_bits)
}

/// Every version of `layer`, rated on `machine` through the layer, equals
/// `execute` on the version's current profile bit for bit — the full
/// execution and the latency-only path alike — at every core count up to
/// a few past the machine's.
fn assert_layer_matches_execute(
    layer: &CompiledLayer,
    machine: &MachineConfig,
    pressures: &[Interference],
) {
    for (v, version) in layer.versions.iter().enumerate() {
        for &pressure in pressures {
            let rater = layer.rater(v, Headroom::under(pressure, machine), machine);
            for cores in 1..=machine.cores + 4 {
                let direct = execute(&version.profile, cores, pressure, machine);
                let via_layer = layer.execute(v, cores, pressure, machine);
                assert_eq!(
                    bits(&via_layer),
                    bits(&direct),
                    "version {v} on {cores} cores under {pressure:?}"
                );
                assert_eq!(
                    rater.latency_s(cores).to_bits(),
                    direct.latency_s.to_bits(),
                    "latency of version {v} on {cores} cores under {pressure:?}"
                );
                assert_eq!(
                    layer.latency_s(v, cores, pressure, machine).to_bits(),
                    (direct.latency_s + machine.dispatch_overhead_s).to_bits()
                );
            }
        }
    }
}

#[test]
fn curve_ratings_equal_execute_on_the_build_machine() {
    let mut rng = StdRng::seed_from_u64(0xc0_7e01);
    for machine in machines() {
        for _ in 0..LAYERS {
            let layer = arb_layer(&mut rng, &machine);
            let pressures = arb_pressures(&mut rng);
            assert_layer_matches_execute(&layer, &machine, &pressures);
        }
    }
}

#[test]
fn curve_ratings_equal_execute_on_another_machine() {
    // Each layer is built for one machine and rated on every other: the
    // curve must not serve a machine whose rating parameters differ.
    // The last variant differs only in memory-side parameters the curve
    // does not depend on, so it keeps reading the curve.
    let mut rng = StdRng::seed_from_u64(0xc0_7e02);
    let mut memory_variant = MachineConfig::threadripper_3990x();
    memory_variant.dram_bw *= 0.5;
    memory_variant.l3_bytes *= 2.0;
    memory_variant.per_core_bw *= 1.5;
    let mut others = machines();
    others.push(memory_variant);
    let mut one_field_off = Vec::new();
    for tweak in 0..5 {
        let mut m = MachineConfig::threadripper_3990x();
        match tweak {
            0 => m.cores = 63,
            1 => m.freq_ghz *= 1.01,
            2 => m.flops_per_cycle = 16.0,
            3 => m.dvfs_droop = 0.05,
            _ => m.l3_bw_per_core *= 0.9,
        }
        one_field_off.push(m);
    }
    others.extend(one_field_off);
    for build_machine in machines() {
        for _ in 0..LAYERS / 4 {
            let layer = arb_layer(&mut rng, &build_machine);
            let pressures = arb_pressures(&mut rng);
            for rate_machine in others.iter().filter(|m| **m != build_machine) {
                assert_layer_matches_execute(&layer, rate_machine, &pressures);
            }
        }
    }
}

#[test]
fn curve_ratings_follow_profiles_mutated_after_build() {
    let mut rng = StdRng::seed_from_u64(0xc0_7e03);
    for machine in machines() {
        for _ in 0..LAYERS / 2 {
            let mut layer = arb_layer(&mut rng, &machine);
            let pressures = arb_pressures(&mut rng);
            // Perturb one field of one version by the smallest step that
            // keeps the profile valid, then replace another wholesale and
            // append a version the build never saw.
            let v = rng.gen_range(0..layer.versions.len());
            let p = &mut layer.versions[v].profile;
            match rng.gen_range(0u32..5) {
                0 => p.flops = f64::from_bits(p.flops.to_bits() + 1),
                1 => p.compute_efficiency = f64::from_bits(p.compute_efficiency.to_bits() - 1),
                2 => p.parallel_chunks += 1,
                3 => p.spill_traffic_bytes *= 2.0,
                _ => p.footprint_per_core_bytes *= 0.5,
            }
            let w = rng.gen_range(0..layer.versions.len());
            layer.versions[w].profile = arb_profile(&mut rng);
            let mut extra = layer.versions[0];
            extra.profile = arb_profile(&mut rng);
            layer.versions.push(extra);
            assert_layer_matches_execute(&layer, &machine, &pressures);
        }
    }
}

#[test]
fn a_profile_mutated_invalid_after_build_panics_like_execute() {
    let machine = MachineConfig::threadripper_3990x();
    let mut layer = arb_layer(&mut StdRng::seed_from_u64(0xc0_7e04), &machine);
    layer.versions[0].profile.compute_efficiency = 0.0;
    let rated = std::panic::catch_unwind(|| {
        let _ = layer.execute(0, 8, Interference::NONE, &machine);
    });
    let message = rated.expect_err("an invalid profile must not be rated");
    let text = message
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(text.contains("invalid kernel profile"), "{text}");
}
