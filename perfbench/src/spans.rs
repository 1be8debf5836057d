//! The traced run's span recorder.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span records its layer, name, start, end and parent,
//! and spans of one query or one compile share an id. Self time (a span's
//! duration minus the part its child spans cover) is summed per layer as
//! spans close, so the totals cover every traced pass. The span log itself
//! is kept in memory only while `keep` is set (up to `MAX_LOG` spans), and
//! written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers a span can be charged to: the workspace crates the
/// benchmark calls into.
pub const LAYERS: [&str; 8] = [
    "models",
    "tensor",
    "compiler",
    "costmodel",
    "sched",
    "cluster",
    "telemetry",
    "core",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    layer: &'static str,
    name: &'static str,
    start: Instant,
    children_ns: u64,
    logged: Option<usize>,
}

/// Spans the in-memory log holds at most; later spans still count toward
/// the self-time totals.
const MAX_LOG: usize = 100_000;

/// A span recorder. A disabled tracer does nothing, so the untraced run
/// executes the same code with no timing calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Whether closed spans are appended to the in-memory log.
    pub keep: bool,
    origin: Instant,
    stack: Vec<Open>,
    log: Vec<Span>,
    self_ns: BTreeMap<(&'static str, &'static str), u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            keep: false,
            origin: Instant::now(),
            stack: Vec::new(),
            log: Vec::new(),
            self_ns: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span. Every `enter` is matched by one `exit`.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let start = Instant::now();
        let logged = (self.keep && self.log.len() < MAX_LOG).then(|| {
            let parent = self.stack.iter().rev().find_map(|o| o.logged);
            self.log.push(Span {
                layer,
                name,
                id,
                parent,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.log.len() - 1
        });
        self.stack.push(Open {
            layer,
            name,
            start,
            children_ns: 0,
            logged,
        });
    }

    /// Closes the innermost span and returns its duration in nanoseconds
    /// (zero when disabled).
    pub fn exit(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = (end - open.start).as_nanos() as u64;
        *self.self_ns.entry((open.layer, open.name)).or_default() +=
            dur.saturating_sub(open.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if let Some(i) = open.logged {
            self.log[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
        dur
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(layer, name, id);
        let r = f();
        self.exit();
        r
    }

    /// Records a finished child of the innermost open span, timed by code
    /// the tracer cannot wrap directly (a callback the program invokes).
    pub fn record_child(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let dur = (end - start).as_nanos() as u64;
        *self.self_ns.entry((layer, name)).or_default() += dur;
        let parent = self.stack.last_mut().map(|o| {
            o.children_ns += dur;
            o.logged
        });
        if self.keep && self.log.len() < MAX_LOG {
            self.log.push(Span {
                layer,
                name,
                id,
                parent: parent.flatten(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
    }

    /// Self time of the spans named `name` in `layer` so far, nanoseconds.
    pub fn self_ns(&self, layer: &'static str, name: &'static str) -> u64 {
        self.self_ns.get(&(layer, name)).copied().unwrap_or(0)
    }

    /// Self time charged to `layer` so far, nanoseconds.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.self_ns
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Clears the per-layer self-time totals (the log is kept).
    pub fn reset_totals(&mut self) {
        self.self_ns.clear();
    }

    pub fn log(&self) -> &[Span] {
        &self.log
    }

    /// The span log as tab-separated lines:
    /// `index parent layer name id start_ns end_ns`.
    pub fn log_tsv(&self) -> String {
        let mut out = String::from("index\tparent\tlayer\tname\tid\tstart_ns\tend_ns\n");
        for (i, s) in self.log.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.layer, s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true);
        t.keep = true;
        t.enter("compiler", "outer", 7);
        t.span("tensor", "inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let outer = t.exit();
        let tensor = t.self_ns("tensor", "inner");
        let compiler = t.layer_self_ns("compiler");
        assert!(tensor >= 2_000_000);
        assert_eq!(compiler + tensor, outer);
        assert_eq!(t.log()[1].parent, Some(0));
        assert_eq!(t.log()[0].parent, None);
        assert!(t.log_tsv().lines().count() == 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.keep = true;
        assert_eq!(t.span("sched", "step", 0, || 5), 5);
        assert!(t.log().is_empty());
        assert_eq!(t.layer_self_ns("sched"), 0);
    }
}
