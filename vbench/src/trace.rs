//! In-memory span recording for traced runs.
//!
//! The benchmark opens a span around each operation and around each call
//! it makes into a crate, and grafts below them the span trees the
//! engine itself returns (`QueryOutcome::trace`, `Engine::apply_traced`).
//! Spans stay in memory while the workload runs and are written out, one
//! per line, when it ends. [`Recorder::reconcile`] checks that each
//! operation's direct children account for the operation's time.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use vh_obs::{QueryTrace, Span, STABLE_SPAN_NAMES};

/// Parent id of a root span.
pub const NO_PARENT: u32 = 0;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// The operation this span belongs to.
    pub op: u64,
    /// This span's id (unique within its recorder, never 0).
    pub id: u32,
    /// The enclosing span's id, or [`NO_PARENT`].
    pub parent: u32,
    /// Stage name.
    pub name: &'static str,
    /// Start, in nanoseconds from the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the run's origin.
    pub end_ns: u64,
}

impl SpanRec {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects the spans of one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    thread: u64,
    spans: Vec<SpanRec>,
    next_id: u32,
}

/// The outcome of [`Recorder::reconcile`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Reconciliation {
    /// Operations checked.
    pub ops: u64,
    /// Operations whose children miss the tolerance.
    pub outside: u64,
    /// Summed operation time.
    pub op_ns: u64,
    /// Summed time of the operations' direct children.
    pub child_ns: u64,
}

/// Per-op tolerance: children must cover the op to within this share…
pub const TOL_FRAC: f64 = 0.10;
/// …or within this many nanoseconds, whichever is larger.
pub const TOL_ABS_NS: u64 = 20_000;
/// Share of ops allowed outside the tolerance (preemption, page faults).
pub const TOL_OUTSIDE_FRAC: f64 = 0.01;

impl Reconciliation {
    /// Adds another recorder's tally.
    pub fn merge(&mut self, o: Reconciliation) {
        self.ops += o.ops;
        self.outside += o.outside;
        self.op_ns += o.op_ns;
        self.child_ns += o.child_ns;
    }

    /// Share of operation time no child span accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        crate::stats::ratio(
            self.op_ns.saturating_sub(self.child_ns) as f64,
            self.op_ns as f64,
        )
    }

    /// Whether the check passes: at most [`TOL_OUTSIDE_FRAC`] of the ops
    /// miss the per-op tolerance.
    pub fn passes(&self) -> bool {
        self.ops > 0 && (self.outside as f64) <= TOL_OUTSIDE_FRAC * self.ops as f64
    }
}

impl Recorder {
    /// A recorder for thread `thread` whose clock starts at `origin`.
    pub fn new(origin: Instant, thread: u64) -> Recorder {
        Recorder {
            origin,
            thread,
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span id, for a parent whose end is not known yet.
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under an id from [`Recorder::reserve`].
    pub fn record(
        &mut self,
        op: u64,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            op: self.thread << 48 | op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Records a finished span and returns its id.
    pub fn span(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record(op, id, parent, name, start, end);
        id
    }

    /// Grafts the engine's span tree below `parent`. The engine's root
    /// began at `began` (its offsets are relative to that instant), and
    /// the root itself is recorded as `root_name`.
    pub fn graft(
        &mut self,
        op: u64,
        parent: u32,
        root_name: &'static str,
        began: Instant,
        trace: &QueryTrace,
    ) -> u32 {
        let base = self.ns(began);
        self.graft_span(op, parent, Some(root_name), base, &trace.root)
    }

    /// Grafts the engine root's children (its stages) directly below
    /// `parent`, so they reconcile against the caller's own span.
    pub fn graft_children(&mut self, op: u64, parent: u32, began: Instant, trace: &QueryTrace) {
        let base = self.ns(began);
        for child in &trace.root.children {
            self.graft_span(op, parent, None, base, child);
        }
    }

    fn graft_span(
        &mut self,
        op: u64,
        parent: u32,
        name: Option<&'static str>,
        base: u64,
        span: &Span,
    ) -> u32 {
        let id = self.reserve();
        let start_ns = base + span.start_ns;
        self.spans.push(SpanRec {
            op: self.thread << 48 | op,
            id,
            parent,
            name: name.unwrap_or_else(|| stable_name(&span.name)),
            start_ns,
            end_ns: start_ns + span.duration_ns,
        });
        for child in &span.children {
            self.graft_span(op, id, None, base, child);
        }
        id
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Checks every root span named `op_name`: its direct children must
    /// sum to its duration within `max(TOL_FRAC · op, TOL_ABS_NS)`.
    pub fn reconcile(&self, op_name: &str) -> Reconciliation {
        let mut children = vec![0u64; self.next_id as usize];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize] += s.duration_ns();
            }
        }
        let mut r = Reconciliation::default();
        for s in self
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.name == op_name)
        {
            let (op, kids) = (s.duration_ns(), children[s.id as usize]);
            r.ops += 1;
            r.op_ns += op;
            r.child_ns += kids;
            let tol = ((TOL_FRAC * op as f64) as u64).max(TOL_ABS_NS);
            if op.abs_diff(kids) > tol {
                r.outside += 1;
            }
        }
        r
    }
}

/// The engine's span names come from a fixed vocabulary; anything else is
/// recorded as `other`.
fn stable_name(name: &str) -> &'static str {
    STABLE_SPAN_NAMES
        .iter()
        .copied()
        .find(|&n| n == name)
        .unwrap_or("other")
}

/// Writes the spans of every recorder to `path`, one tab-separated line
/// per span: op, id, parent, name, start_ns, end_ns.
pub fn write_spans(path: &Path, recorders: &[&Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
    for r in recorders {
        for s in r.spans() {
            writeln!(
                out,
                "{}\t{}:{}\t{}:{}\t{}\t{}\t{}",
                s.op, r.thread, s.id, r.thread, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_that_cover_the_op_reconcile() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut r = Recorder::new(t0, 0);
        // op 1: 1000 µs, children 400 + 590 µs — inside 10 %.
        let op = r.reserve();
        r.span(1, op, "parse", at(0), at(400));
        r.span(1, op, "exec", at(400), at(990));
        r.record(1, op, NO_PARENT, "op", at(0), at(1000));
        // op 2: 1000 µs, one child of 500 µs — outside.
        let op = r.reserve();
        r.span(2, op, "exec", at(1000), at(1500));
        r.record(2, op, NO_PARENT, "op", at(1000), at(2000));
        let rec = r.reconcile("op");
        assert_eq!(rec.ops, 2);
        assert_eq!(rec.outside, 1);
        assert_eq!(rec.op_ns, 2_000_000);
        assert_eq!(rec.child_ns, 1_490_000);
        assert!(!rec.passes());
        assert!((rec.unattributed_frac() - 0.255).abs() < 1e-9);
    }

    #[test]
    fn short_ops_get_the_absolute_tolerance() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut r = Recorder::new(t0, 0);
        let op = r.reserve();
        r.span(1, op, "exec", at(0), at(30));
        r.record(1, op, NO_PARENT, "op", at(0), at(45));
        assert!(r.reconcile("op").passes());
    }

    #[test]
    fn grafted_engine_spans_nest_below_their_parent() {
        use vh_query::api::{Engine, QueryRequest};
        let mut e = Engine::new();
        e.register_xml("a.xml", "<a><b/><b/></a>")
            .expect("registers");
        let t0 = Instant::now();
        let mut r = Recorder::new(t0, 3);
        let began = Instant::now();
        let out = e
            .run(&QueryRequest::path("a.xml", "//b").with_trace(true))
            .expect("runs");
        let trace = out.trace.expect("traced");
        let root = r.graft(7, NO_PARENT, "engine.run", began, &trace);
        let spans = r.spans();
        assert_eq!(spans[0].id, root);
        assert_eq!(spans[0].name, "engine.run");
        assert!(spans.iter().any(|s| s.name == "exec" && s.parent == root));
        assert!(spans.iter().all(|s| s.op == 3 << 48 | 7));
    }
}
