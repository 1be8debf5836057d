//! What one run reports: named metrics with units, output checks, the
//! attempted/failed op counts, and the final JSON line.

use std::fmt::Write as _;

#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    /// Ops the run timed or checked (compiles or simulated queries).
    pub attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    /// Records a metric under its listed unit ([`crate::unit_of`]).
    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.metrics
            .push((name.to_string(), value, crate::unit_of(name)));
    }

    /// Records an output check. A failed check fails the run and counts
    /// `ops` of its ops as failed.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops.max(1);
            self.failures.push(what());
        }
    }

    pub fn names(&self) -> Vec<String> {
        self.metrics.iter().map(|(n, _, _)| n.clone()).collect()
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks that every metric is finite, then prints the failures, the
    /// metric table and, as the last line, the JSON result. Returns whether
    /// the run was correct.
    pub fn finish(mut self) -> bool {
        let non_finite: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, v, _)| format!("metric {n} is not finite ({v})"))
            .collect();
        for f in non_finite {
            self.check(false, 1, || f);
        }
        for f in &self.failures {
            println!("# CHECK FAILED: {f}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name:<34} {value:>16.6} {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1)),
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values cannot be written as JSON numbers; the
            // run is already marked incorrect above.
            let v = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        self.correct()
    }
}

/// Prints one diagnostic line: a label and a sample with its quartiles
/// and mean. Diagnostics are never gated and never rescale a metric.
pub fn diag_sample(label: &str, unit: &str, xs: &[f64]) {
    let (q1, q3) = crate::harness::quartiles(xs);
    let med = crate::harness::median(xs);
    let mean = crate::harness::mean(xs);
    let values: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    println!(
        "# diag {label} [{unit}] n={} median={med:.4} q1={q1:.4} q3={q3:.4} mean={mean:.4} values=[{}]",
        xs.len(),
        values.join(" ")
    );
}

pub fn diag(label: &str, value: f64, unit: &str) {
    println!("# diag {label} = {value:.6} {unit}");
}
