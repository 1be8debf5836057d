//! Host-side measurement: timed passes split into fixed segments, repeated
//! set-up, per-thread CPU and run-queue time, calibration loops, and peak
//! RSS.
//!
//! Every host-time figure comes from passes over a fixed input, run back to
//! back after an untimed warm-up pass. A pass is a few units (one arrival
//! stream, or the whole compile pass), and every unit laps at fixed points
//! of its deterministic work (every so many `Driver::step` or `run_until`
//! calls, or after every compile), so a segment holds the same work in
//! every pass. The reported time is the sum over segments of each
//! segment's fastest run, divided by the ops in a pass. Per-op statistics
//! are never reported.
//!
//! Why the fastest run of each segment: on a shared host, speed moves
//! between states up to about 1.9x apart, for fractions of a second to
//! minutes at a time. Any central statistic of whole passes moves with the
//! share of the run spent slow; a segment of a few milliseconds, run a
//! dozen times or more over the run, almost always meets a fast moment,
//! and host slowness only ever adds time to it. A slower program moves
//! every segment's fastest run with it. The mean and median pass and their
//! quartiles are printed as diagnostics.

use std::hint::black_box;
use std::time::Instant;

/// Wall-clock, on-CPU and run-queue time of each timed pass, milliseconds,
/// the duration of each set-up run between passes, seconds, and the
/// wall-clock time of every segment of every pass.
#[derive(Debug, Default)]
pub struct PassTimes {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    pub runqueue_ms: Vec<f64>,
    pub minor_faults: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// `segment_ms[u][s]` holds segment `s` of unit `u`, one value per
    /// pass, milliseconds.
    pub segment_ms: Vec<Vec<Vec<f64>>>,
}

impl PassTimes {
    pub fn passes(&self) -> usize {
        self.wall_ms.len()
    }

    /// The pass the segments' fastest runs add up to, milliseconds: the
    /// sum over segments of each segment's fastest time over the passes.
    pub fn fastest_ms(&self) -> f64 {
        self.segment_ms
            .iter()
            .flatten()
            .map(|xs| xs.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }

    /// Number of segments in a pass.
    pub fn segments(&self) -> usize {
        self.segment_ms.iter().map(Vec::len).sum()
    }
}

/// The lap timer a unit is run with. The unit calls [`Laps::lap`] at fixed
/// points of its work, so that segment `s` (the work between lap `s - 1`
/// and lap `s`) is the same in every pass; the last segment ends when the
/// unit returns.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    ms: Vec<f64>,
}

impl Laps {
    /// A timer whose first segment starts now.
    pub fn start() -> Self {
        Self {
            last: Instant::now(),
            ms: Vec::new(),
        }
    }

    /// Ends the current segment and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.ms.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
    }
}

/// How many timed passes to run: until `seconds` have elapsed, but never
/// fewer than `min`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min: usize,
}

/// Runs passes back to back under `budget`. A pass is `units` calls of
/// `unit`, each with the unit's index and a lap timer, each timed on its
/// own. Before each pass it also times one `setup` run, whose product is
/// dropped, so set-up samples spread over the run like the passes do: host
/// speed on a shared machine drifts over seconds, and back-to-back set-ups
/// would all sample one moment of it. The caller runs its warm-up pass
/// before this, untimed.
pub fn timed_passes(
    budget: Budget,
    units: usize,
    mut setup: impl FnMut(),
    mut unit: impl FnMut(usize, &mut Laps),
) -> PassTimes {
    let mut times = PassTimes {
        segment_ms: vec![Vec::new(); units],
        ..PassTimes::default()
    };
    let start = Instant::now();
    while times.passes() < budget.min || start.elapsed().as_secs_f64() < budget.seconds {
        let t0 = Instant::now();
        setup();
        times.setup_s.push(t0.elapsed().as_secs_f64());
        let faults = minor_faults();
        let (mut wall_ms, mut cpu_ms, mut runqueue_ms) = (0.0, 0.0, 0.0);
        for (u, segments) in times.segment_ms.iter_mut().enumerate() {
            let mut laps = Laps::start();
            let (wall, cpu, runqueue) = time_one(&mut || {
                laps = Laps::start();
                unit(u, &mut laps);
                laps.lap();
            });
            if segments.is_empty() {
                segments.resize(laps.ms.len(), Vec::new());
            }
            assert_eq!(
                segments.len(),
                laps.ms.len(),
                "unit {u} must lap at the same points in every pass"
            );
            for (samples, ms) in segments.iter_mut().zip(laps.ms) {
                samples.push(ms);
            }
            wall_ms += wall;
            cpu_ms += cpu;
            runqueue_ms += runqueue;
        }
        times.minor_faults.push((minor_faults() - faults) as f64);
        times.wall_ms.push(wall_ms);
        times.cpu_ms.push(cpu_ms);
        times.runqueue_ms.push(runqueue_ms);
    }
    times
}

/// Times one call: wall clock, and this thread's on-CPU and run-queue
/// time from `/proc/thread-self/schedstat` (zero where it is missing).
fn time_one(f: &mut impl FnMut()) -> (f64, f64, f64) {
    let before = schedstat();
    let t0 = Instant::now();
    f();
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let after = schedstat();
    (
        wall,
        (after.0 - before.0) as f64 / 1e6,
        (after.1 - before.1) as f64 / 1e6,
    )
}

/// `(on-CPU ns, run-queue wait ns)` of the calling thread.
fn schedstat() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/thread-self/schedstat") else {
        return (0, 0);
    };
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Minor page faults of the process so far (`/proc/self/stat`, field 10;
/// zero where it is missing).
fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; count from its end.
            let rest = &s[s.rfind(')')? + 2..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Runs `setup` once and returns its duration in seconds with its product.
pub fn time_setup<T>(setup: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let product = black_box(setup());
    (t0.elapsed().as_secs_f64(), product)
}

/// Two fixed loops, timed before and after the timed phase: a move in
/// them is host drift, not program drift. They never rescale a metric.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Median of a memory-bound loop, milliseconds.
    pub memory_ms: f64,
    /// Median of a throughput-bound compute loop, milliseconds.
    pub cpu_ms: f64,
}

impl Calibration {
    pub fn measure() -> Self {
        Self {
            memory_ms: memory_loop_ms(),
            cpu_ms: cpu_loop_ms(),
        }
    }
}

/// Median of a fixed memory-bound loop, milliseconds.
fn memory_loop_ms() -> f64 {
    // 32 MiB, well past any last-level cache of the hosts this runs on.
    let mut buf = vec![1u64; 4 << 20];
    let mut runs = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..4 {
            for i in (0..buf.len()).step_by(8) {
                buf[i] = buf[i].wrapping_mul(3).wrapping_add(1);
            }
            black_box(&mut buf);
        }
        runs.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&runs)
}

/// Median of a fixed compute-bound loop, milliseconds: eight independent
/// xorshift lanes, so the loop is bound by instruction throughput, which
/// another tenant on the same physical core takes a share of.
fn cpu_loop_ms() -> f64 {
    let mut runs = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..1_000_000 {
            for x in &mut lanes {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
            }
            lanes = black_box(lanes);
        }
        runs.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&runs)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Mean of a sample (NaN when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a non-empty sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Value at percentile `p` (nearest rank) of a sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A log-bucketed histogram of durations: buckets 1 % apart from 10 ns,
/// so percentiles of millions of samples cost a few kilobytes.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    const FLOOR_NS: f64 = 10.0;
    const GROWTH: f64 = 1.01;
    const BUCKETS: usize = 1600;

    pub fn new() -> Self {
        Self {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }

    pub fn record_ns(&mut self, ns: u64) {
        let x = (ns as f64).max(Self::FLOOR_NS) / Self::FLOOR_NS;
        let i = (x.ln() / Self::GROWTH.ln()) as usize;
        self.counts[i.min(Self::BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Upper edge of the bucket holding percentile `p`, microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::FLOOR_NS * Self::GROWTH.powi(i as i32 + 1) / 1e3;
            }
        }
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn histogram_percentiles_within_a_bucket() {
        let mut h = Histogram::new();
        for ns in 1..=1000u64 {
            h.record_ns(ns * 100);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile_us(50.0);
        assert!((50.0..=50.0 * 1.011).contains(&p50), "{p50}");
        let p99 = h.percentile_us(99.0);
        assert!((99.0..=99.0 * 1.011).contains(&p99), "{p99}");
    }

    #[test]
    fn fastest_pass_sums_each_segments_fastest_run() {
        let times = PassTimes {
            segment_ms: vec![
                vec![vec![3.0, 1.0, 2.0], vec![5.0, 6.0, 4.0]],
                vec![vec![7.0, 8.0, 9.0]],
            ],
            ..PassTimes::default()
        };
        assert_eq!(times.fastest_ms(), 1.0 + 4.0 + 7.0);
        assert_eq!(times.segments(), 3);
    }

    #[test]
    fn timed_passes_split_units_at_their_laps() {
        let budget = Budget {
            seconds: 0.0,
            min: 3,
        };
        let times = timed_passes(
            budget,
            2,
            || {},
            |u, laps| {
                for _ in 0..u {
                    laps.lap();
                }
            },
        );
        assert_eq!(times.passes(), 3);
        let shape: Vec<Vec<usize>> = times
            .segment_ms
            .iter()
            .map(|unit| unit.iter().map(Vec::len).collect())
            .collect();
        assert_eq!(shape, vec![vec![3], vec![3, 3]]);
    }

    #[test]
    fn mean_median_and_percentile() {
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(mean(&[]).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
    }
}
