//! Algorithm 2: dynamic-threshold layer-block formation.
//!
//! Conflict-prone layers — those whose core requirement exceeds the model's
//! flat (model-granularity) requirement by more than the runtime threshold
//! — become *splitting pivots* that begin a new block. Each block is then
//! sized to meet the summed QoS share of its layers, which lets cheap
//! layers donate slack to the expensive pivot and flattens the allocation
//! profile (paper Fig. 10a).

use veltair_compiler::CompiledModel;
use veltair_sim::{Headroom, Interference, MachineConfig};

/// A formed layer block: the unit range, the per-unit code versions, and
/// the core allocation that meets the block's summed QoS share.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Unit index range `[start, end)` into the compiled model.
    pub start: usize,
    /// Exclusive end unit index.
    pub end: usize,
    /// Chosen version per unit in the range.
    pub versions: Vec<usize>,
    /// Core allocation for the block.
    pub cores: u32,
}

impl BlockPlan {
    /// Number of units in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block is empty (never true for formed blocks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// `Finding1stPivot` of Algorithm 2: the first unit index after `begin`
/// whose core requirement (at its chosen version and the current
/// interference level) is at least `avg_c + thres`. Returns `None` when no
/// later unit is conflict-prone.
#[must_use]
pub fn find_first_pivot(
    model: &CompiledModel,
    begin: usize,
    versions: &[usize],
    level: f64,
    avg_c: u32,
    thres: u32,
) -> Option<usize> {
    let limit = u64::from(avg_c) + u64::from(thres);
    ((begin + 1)..model.layers.len())
        .find(|&i| u64::from(model.layers[i].core_requirement(versions[i], level)) >= limit)
}

/// Minimum cores under which the units `[start, end)` finish within their
/// summed QoS share under the given ambient pressure (saturating at the
/// machine size).
///
/// Planning takes the full cache/bandwidth pressure pair rather than a
/// collapsed scalar: a system can hold the whole L3 hostage while using
/// half the DRAM bandwidth, and sizing blocks as if both were equally
/// loaded would overestimate the requirement roughly twofold.
#[must_use]
pub fn block_core_requirement(
    model: &CompiledModel,
    start: usize,
    end: usize,
    versions: &[usize],
    pressure: Interference,
    machine: &MachineConfig,
) -> u32 {
    assert!(
        start < end && end <= model.layers.len(),
        "invalid block range"
    );
    let budget: f64 = model.layers[start..end]
        .iter()
        .map(|l| l.qos_share_s)
        .sum::<f64>()
        * veltair_compiler::QOS_PLAN_MARGIN;
    (1..=machine.cores)
        .find(|&p| {
            block_flat_latency_s(model, start, end, versions, pressure, p, machine) <= budget
        })
        .unwrap_or(machine.cores)
}

/// Flat latency of the units `[start, end)` on `cores` cores under the
/// given ambient pressure, including per-unit dispatch overhead.
///
/// Each unit is rated through its layer's core-count curve
/// ([`CompiledLayer::rater`](veltair_compiler::CompiledLayer::rater)), so
/// only the pressure-dependent DRAM term is computed here; the result is
/// bit-identical to summing [`veltair_sim::execute`] latencies.
#[must_use]
pub fn block_flat_latency_s(
    model: &CompiledModel,
    start: usize,
    end: usize,
    versions: &[usize],
    pressure: Interference,
    cores: u32,
    machine: &MachineConfig,
) -> f64 {
    let mut total = [0.0];
    add_flat_latencies(
        model, start, end, versions, pressure, cores, &mut total, machine,
    );
    total[0]
}

/// Adds the flat latency of the units `[start, end)` on `min_cores + k`
/// cores to `totals[k]`, unit by unit in block order — the same additions
/// in the same order as one [`block_flat_latency_s`] per core count, with
/// each unit's rater built once.
#[allow(clippy::too_many_arguments)]
fn add_flat_latencies(
    model: &CompiledModel,
    start: usize,
    end: usize,
    versions: &[usize],
    pressure: Interference,
    min_cores: u32,
    totals: &mut [f64],
    machine: &MachineConfig,
) {
    assert!(
        start < end && end <= model.layers.len(),
        "invalid block range"
    );
    let headroom = Headroom::under(pressure, machine);
    for (layer, &version) in model.layers[start..end].iter().zip(&versions[start..end]) {
        let rater = layer.rater(version, headroom, machine);
        for (total, p) in totals.iter_mut().zip(min_cores..) {
            *total += rater.latency_s(p) + machine.dispatch_overhead_s;
        }
    }
}

/// Relative latency slack accepted when boosting: the smallest allocation
/// within 5 % of the best achievable latency in the boost range wins.
const BOOST_SLACK: f64 = 0.05;

thread_local! {
    /// [`boosted_block_cores`]' per-allocation latencies, reused across
    /// calls so block planning allocates nothing.
    static BOOST_SCAN: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Raises a block's allocation above its QoS minimum toward `cap`,
/// implementing §4.2's rule that a lightly loaded system should let each
/// block "use as many cores as possible" — but only while the cores still
/// buy latency. Among allocations in `[min_cores, cap]` the smallest one
/// within `BOOST_SLACK` of the best achievable latency is chosen, which
/// looks *through* wave-quantization plateaus instead of stopping at the
/// first flat step.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's full parameter list
pub fn boosted_block_cores(
    model: &CompiledModel,
    start: usize,
    end: usize,
    versions: &[usize],
    pressure: Interference,
    min_cores: u32,
    cap: u32,
    machine: &MachineConfig,
) -> u32 {
    let cap = cap.min(machine.cores);
    if cap <= min_cores {
        return min_cores;
    }
    BOOST_SCAN.with_borrow_mut(|latencies| {
        latencies.clear();
        latencies.resize((cap - min_cores + 1) as usize, 0.0);
        add_flat_latencies(
            model, start, end, versions, pressure, min_cores, latencies, machine,
        );
        let best = latencies.iter().copied().fold(f64::INFINITY, f64::min);
        latencies
            .iter()
            .position(|&l| l <= best * (1.0 + BOOST_SLACK))
            .map_or(min_cores, |i| min_cores + i as u32)
    })
}

/// Chooses the code version for every unit of the model at an interference
/// level (`adaptive = false` pins the solo-optimal version, i.e. static
/// compilation).
#[deprecated(
    since = "0.1.0",
    note = "version choice is owned by the compilation layer now: use \
            veltair_compiler::selector::select_at_level (or a VersionSelector)"
)]
#[must_use]
pub fn versions_at_level(model: &CompiledModel, level: f64, adaptive: bool) -> Vec<usize> {
    veltair_compiler::selector::select_at_level(model, level, adaptive)
}

/// Chooses the code version for every unit of the model against the *live*
/// ambient pressure pair at the expected allocation.
#[deprecated(
    since = "0.1.0",
    note = "version choice is owned by the compilation layer now: use \
            veltair_compiler::selector::select_for_pressure (or a VersionSelector)"
)]
#[must_use]
pub fn versions_for_pressure(
    model: &CompiledModel,
    pressure: Interference,
    expected_cores: u32,
    machine: &MachineConfig,
) -> Vec<usize> {
    veltair_compiler::selector::select_for_pressure(model, pressure, expected_cores, machine)
}

/// Forms the complete block partition of a model for analysis and for the
/// Fig. 10a walk-through: every conflict-prone unit starts a new block.
#[must_use]
pub fn form_blocks(
    model: &CompiledModel,
    level: f64,
    adaptive: bool,
    thres: u32,
    machine: &MachineConfig,
) -> Vec<BlockPlan> {
    let versions = veltair_compiler::selector::select_at_level(model, level, adaptive);
    let avg_c = model.model_core_requirement(if adaptive { level } else { 0.0 });
    let pressure = Interference::level(level);
    let mut blocks = Vec::new();
    let mut begin = 0;
    while begin < model.layers.len() {
        let end = find_first_pivot(model, begin, &versions, level, avg_c, thres)
            .unwrap_or(model.layers.len());
        let cores = block_core_requirement(model, begin, end, &versions, pressure, machine);
        blocks.push(BlockPlan {
            start: begin,
            end,
            versions: versions[begin..end].to_vec(),
            cores,
        });
        begin = end;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompilerOptions};

    fn compiled() -> (CompiledModel, MachineConfig) {
        let machine = MachineConfig::threadripper_3990x();
        let spec = veltair_models::resnet50();
        (
            compile_model(&spec, &machine, &CompilerOptions::fast()),
            machine,
        )
    }

    #[test]
    fn blocks_partition_all_layers_exactly_once() {
        let (m, machine) = compiled();
        for thres in [0u32, 2, 8, 32] {
            let blocks = form_blocks(&m, 0.0, true, thres, &machine);
            assert_eq!(blocks[0].start, 0);
            assert_eq!(blocks.last().unwrap().end, m.layers.len());
            for pair in blocks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "blocks must be contiguous");
            }
            assert!(blocks.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn lower_threshold_forms_more_blocks() {
        let (m, machine) = compiled();
        let few = form_blocks(&m, 0.0, true, 48, &machine).len();
        let many = form_blocks(&m, 0.0, true, 0, &machine).len();
        assert!(many >= few, "thres 0 gave {many}, thres 48 gave {few}");
        assert!(many > 1, "zero threshold must split ResNet-50");
    }

    #[test]
    fn block_core_requirement_is_within_machine() {
        let (m, machine) = compiled();
        let blocks = form_blocks(&m, 0.3, true, 4, &machine);
        for b in &blocks {
            assert!((1..=machine.cores).contains(&b.cores));
        }
    }

    #[test]
    fn block_allocation_is_smoother_than_layerwise_peak() {
        // Fig. 10a/10b: block formation cuts the maximum core demand.
        let (m, machine) = compiled();
        let versions = veltair_compiler::selector::select_at_level(&m, 0.0, true);
        let layer_peak = (0..m.layers.len())
            .map(|i| m.layers[i].core_requirement(versions[i], 0.0))
            .max()
            .unwrap();
        let blocks = form_blocks(&m, 0.0, true, 4, &machine);
        let block_peak = blocks.iter().map(|b| b.cores).max().unwrap();
        assert!(
            block_peak <= layer_peak,
            "block peak {block_peak} vs layer peak {layer_peak}"
        );
    }

    #[test]
    fn pivot_is_first_conflict_prone_layer() {
        let (m, machine) = compiled();
        let _ = &machine;
        let versions = veltair_compiler::selector::select_at_level(&m, 0.0, true);
        let avg_c = m.model_core_requirement(0.0);
        if let Some(p) = find_first_pivot(&m, 0, &versions, 0.0, avg_c, 0) {
            assert!(m.layers[p].core_requirement(versions[p], 0.0) >= avg_c);
            for (layer, &version) in m.layers[1..p].iter().zip(&versions[1..p]) {
                assert!(layer.core_requirement(version, 0.0) < avg_c);
            }
        }
    }

    #[test]
    fn infinite_threshold_yields_single_block() {
        let (m, machine) = compiled();
        let blocks = form_blocks(&m, 0.0, true, machine.cores, &machine);
        // avg_c + cores exceeds any per-layer requirement.
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len(), m.layers.len());
    }
}
