//! Per-layer metrics: the names every traced run reports, and the
//! accumulators that turn timed calls, `QueryStats`, `EditReceipt`s,
//! engine spans and `EngineSnapshot` deltas into them.
//!
//! Times are means per call, so the stages of one operation add up to
//! its total. A layer a workload never calls reports 0.

use std::time::Instant;

use vh_dataguide::TypedDocument;
use vh_obs::Span;
use vh_query::api::{
    eval_xpath, parse_xpath, Engine, EngineSnapshot, QueryStats, QueryTrace, VirtualDoc,
};
use vh_query::EditReceipt;

use crate::gen::{Class, EditKind, Query};
use crate::stats::{mean, median, ratio};
use crate::Outcome;

/// Every per-layer metric: name, unit. See `vbench/METRICS.md` for the
/// end-to-end metric each one is expected to move.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("xml.parse_ms", "ms"),
    ("dataguide.analyze_ms", "ms"),
    ("pbn.arena_bytes_per_node", "B/node"),
    ("edit.compacted_per_edit", "1/edit"),
    ("edit.compact_us", "us"),
    ("wal.encode_us", "us"),
    ("wal.bytes_per_edit", "B/edit"),
    ("query.parse_us.point", "us"),
    ("query.plan_us.point", "us"),
    ("query.exec_us.point", "us"),
    ("query.parse_us.twig", "us"),
    ("query.plan_us.twig", "us"),
    ("query.exec_us.twig", "us"),
    ("query.parse_us.flwr", "us"),
    ("query.plan_us.flwr", "us"),
    ("query.exec_us.flwr", "us"),
    ("query.xpath_eval_us", "us"),
    ("query.result_copy_us", "us"),
    ("query.result_nodes", "1/query"),
    ("edit.apply_us.insert", "us"),
    ("edit.apply_us.delete", "us"),
    ("edit.apply_us.set", "us"),
    ("edit.apply_us.move", "us"),
    ("edit.nodes_touched", "1/edit"),
    ("view.open_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.maintained", "1/edit"),
    ("cache.recomputed", "1/edit"),
    ("cache.fallback_evictions", "1/edit"),
    ("axis.scanned_per_result", "ratio"),
    ("twig.seeks", "1/query"),
    ("twig.gallop_steps", "1/query"),
    ("sjoin.comparisons", "1/query"),
    ("sjoin.containment_tests", "1/query"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.route_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.lock_wait_us", "us"),
    ("serve.engine_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.transport_us", "us"),
    ("obs.trace_overhead_x", "x"),
    ("trace.unattributed_frac", "ratio"),
];

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Set-up repetitions the traced run spends on the parse and analyze
/// layers alone.
const LAYER_SETUP_REPS: usize = 3;

/// Times `vh_xml::parse` and `TypedDocument::analyze` of each corpus
/// (the two halves of `Engine::register_xml`), median of a few runs,
/// and the PBN arena's bytes per node.
pub fn setup_layers(corpora: &[(&str, &str)], out: &mut Outcome) {
    let (mut parse, mut analyze) = (Vec::new(), Vec::new());
    let (mut bytes, mut nodes) = (0usize, 0usize);
    for rep in 0..LAYER_SETUP_REPS {
        let (mut p, mut a) = (0.0, 0.0);
        for (uri, xml) in corpora {
            let t = Instant::now();
            let Ok(doc) = vh_xml::parse(*uri, xml) else {
                out.mismatch(format!("{uri}: corpus does not parse"));
                return;
            };
            p += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let td = TypedDocument::analyze(doc);
            a += t.elapsed().as_secs_f64() * 1e3;
            if rep == 0 {
                bytes += td.pbn().arena().heap_bytes();
                nodes += td.pbn().len();
            }
        }
        parse.push(p);
        analyze.push(a);
    }
    out.set("xml.parse_ms", median(&parse));
    out.set("dataguide.analyze_ms", median(&analyze));
    out.set(
        "pbn.arena_bytes_per_node",
        ratio(bytes as f64, nodes as f64),
    );
}

#[derive(Clone, Copy, Debug, Default)]
struct StageSums {
    n: u64,
    parse_ns: u64,
    plan_ns: u64,
    exec_ns: u64,
}

/// Query-layer accumulator over traced `Engine::run` calls.
#[derive(Debug, Default)]
pub struct QueryLayers {
    stages: [StageSums; 3],
    queries: u64,
    result_nodes: u64,
    twig_results: u64,
    slots_scanned: u64,
    twig_seeks: u64,
    gallop_steps: u64,
    sjoin_comparisons: u64,
    containment_tests: u64,
    view_open_ns: Vec<f64>,
    xpath_eval_ns: Vec<f64>,
}

impl QueryLayers {
    /// Adds one query's `QueryStats`.
    pub fn record(&mut self, class: Class, s: &QueryStats) {
        let st = &mut self.stages[class as usize];
        st.n += 1;
        st.parse_ns += s.parse_ns;
        st.plan_ns += s.plan_ns;
        st.exec_ns += s.exec_ns;
        self.queries += 1;
        self.result_nodes += s.result_nodes;
        if class == Class::Twig {
            self.twig_results += s.result_nodes;
            self.slots_scanned += s.axis.slots_scanned;
        }
        self.twig_seeks += s.twig.seeks;
        self.gallop_steps += s.twig.gallop_steps;
        self.sjoin_comparisons += s.sjoin.comparisons;
        self.containment_tests += s.sjoin.containment_tests;
    }

    /// Times `Engine::virtual_doc` and `eval_xpath` alone over the view a
    /// twig query reads, and returns the count `eval_xpath` found (`None`
    /// for other classes or on error).
    pub fn probe(&mut self, engine: &Engine, q: &Query) -> Option<u64> {
        let (Class::Twig, Some(spec)) = (q.class, q.spec) else {
            return None;
        };
        let xp = parse_xpath(&q.text).ok()?;
        let t = Instant::now();
        let vd = engine.virtual_doc(q.uri, spec).ok()?;
        self.view_open_ns.push(t.elapsed().as_nanos() as f64);
        let doc = VirtualDoc::new(&vd);
        let t = Instant::now();
        let n = eval_xpath(&doc, &xp).ok()?.len();
        self.xpath_eval_ns.push(t.elapsed().as_nanos() as f64);
        Some(n as u64)
    }

    /// Writes the query-layer metrics.
    pub fn export(&self, out: &mut Outcome) {
        for class in Class::ALL {
            let st = self.stages[class as usize];
            let per = |ns: u64| ratio(us(ns), st.n as f64);
            out.set(
                format!("query.parse_us.{}", class.label()),
                per(st.parse_ns),
            );
            out.set(format!("query.plan_us.{}", class.label()), per(st.plan_ns));
            out.set(format!("query.exec_us.{}", class.label()), per(st.exec_ns));
        }
        let q = self.queries as f64;
        out.set("query.result_nodes", ratio(self.result_nodes as f64, q));
        out.set(
            "axis.scanned_per_result",
            ratio(self.slots_scanned as f64, self.twig_results as f64),
        );
        out.set("twig.seeks", ratio(self.twig_seeks as f64, q));
        out.set("twig.gallop_steps", ratio(self.gallop_steps as f64, q));
        out.set("sjoin.comparisons", ratio(self.sjoin_comparisons as f64, q));
        out.set(
            "sjoin.containment_tests",
            ratio(self.containment_tests as f64, q),
        );
        if !self.xpath_eval_ns.is_empty() {
            let eval_us = mean(&self.xpath_eval_ns) / 1e3;
            let twig = self.stages[Class::Twig as usize];
            let exec_us = ratio(us(twig.exec_ns), twig.n as f64);
            out.set("query.xpath_eval_us", eval_us);
            out.set("query.result_copy_us", (exec_us - eval_us).max(0.0));
            out.set("view.open_us", mean(&self.view_open_ns) / 1e3);
        }
    }
}

/// Edit-layer accumulator over `Engine::apply_traced` calls.
#[derive(Debug, Default)]
pub struct EditLayers {
    apply_ns: [(u64, u64); 4],
    edits: u64,
    compact_ns: u64,
    compacted: u64,
    nodes_touched: u64,
    encode_ns: Vec<f64>,
    wal_bytes: u64,
}

impl EditLayers {
    /// Adds one applied edit: its kind, the caller-observed apply time,
    /// its receipt and its span tree.
    pub fn record(
        &mut self,
        kind: EditKind,
        apply_ns: u64,
        receipt: &EditReceipt,
        trace: Option<&QueryTrace>,
    ) {
        let slot = &mut self.apply_ns[kind as usize];
        slot.0 += 1;
        slot.1 += apply_ns;
        self.edits += 1;
        self.compacted += receipt.compacted as u64;
        self.nodes_touched += receipt.nodes_touched;
        if let Some(t) = trace {
            self.compact_ns += self_time(&t.root, "compact");
        }
    }

    /// Adds one timed `Edit::encode`.
    pub fn encoded(&mut self, ns: u64) {
        self.encode_ns.push(ns as f64);
    }

    /// Adds the growth of `Engine::wal_bytes()` over the recorded edits.
    pub fn wal_grew(&mut self, bytes: u64) {
        self.wal_bytes += bytes;
    }

    /// Writes the edit-layer metrics.
    pub fn export(&self, out: &mut Outcome) {
        let e = self.edits as f64;
        for kind in EditKind::ALL {
            let (n, ns) = self.apply_ns[kind as usize];
            out.set(
                format!("edit.apply_us.{}", kind.label()),
                ratio(us(ns), n as f64),
            );
        }
        out.set("edit.compact_us", ratio(us(self.compact_ns), e));
        out.set("edit.compacted_per_edit", ratio(self.compacted as f64, e));
        out.set("edit.nodes_touched", ratio(self.nodes_touched as f64, e));
        out.set("wal.encode_us", mean(&self.encode_ns) / 1e3);
        out.set("wal.bytes_per_edit", ratio(self.wal_bytes as f64, e));
    }
}

/// Compiled-view cache counters summed over pairs of `EngineSnapshot`s
/// (one pair per engine a phase used).
#[derive(Debug, Default)]
pub struct CacheTally {
    edits: u64,
    hits: u64,
    lookups: u64,
    maintained: u64,
    recomputed: u64,
    fallback: u64,
}

impl CacheTally {
    /// Adds what one engine's cache counted between two snapshots.
    pub fn add(&mut self, before: &EngineSnapshot, after: &EngineSnapshot) {
        self.edits += after.queries.edits.saturating_sub(before.queries.edits);
        let (b, a) = (&before.cache, &after.cache);
        let hits = a.total_hits().saturating_sub(b.total_hits());
        self.hits += hits;
        self.lookups += hits + a.total_misses().saturating_sub(b.total_misses());
        self.maintained += a.maintained.saturating_sub(b.maintained);
        self.recomputed += a.recomputed.saturating_sub(b.recomputed);
        self.fallback += a.fallback_evictions.saturating_sub(b.fallback_evictions);
    }

    /// Writes `cache.hit_ratio` and the maintenance counters per edit.
    pub fn export(&self, out: &mut Outcome) {
        out.set(
            "cache.hit_ratio",
            ratio(self.hits as f64, self.lookups as f64),
        );
        let e = self.edits as f64;
        out.set("cache.maintained", ratio(self.maintained as f64, e));
        out.set("cache.recomputed", ratio(self.recomputed as f64, e));
        out.set("cache.fallback_evictions", ratio(self.fallback as f64, e));
        out.note(format!(
            "cache: {} hits of {} lookups",
            self.hits, self.lookups
        ));
    }
}

/// Summed self time of every span named `name` in the tree.
fn self_time(span: &Span, name: &str) -> u64 {
    let own = if span.name == name {
        span.duration_ns.saturating_sub(span.child_duration_ns())
    } else {
        0
    };
    own + span
        .children
        .iter()
        .map(|c| self_time(c, name))
        .sum::<u64>()
}

impl QueryLayers {
    /// Adds another thread's tally.
    pub fn merge(&mut self, o: QueryLayers) {
        for (a, b) in self.stages.iter_mut().zip(o.stages) {
            a.n += b.n;
            a.parse_ns += b.parse_ns;
            a.plan_ns += b.plan_ns;
            a.exec_ns += b.exec_ns;
        }
        self.queries += o.queries;
        self.result_nodes += o.result_nodes;
        self.twig_results += o.twig_results;
        self.slots_scanned += o.slots_scanned;
        self.twig_seeks += o.twig_seeks;
        self.gallop_steps += o.gallop_steps;
        self.sjoin_comparisons += o.sjoin_comparisons;
        self.containment_tests += o.containment_tests;
        self.view_open_ns.extend(o.view_open_ns);
        self.xpath_eval_ns.extend(o.xpath_eval_ns);
    }
}

impl EditLayers {
    /// Adds another thread's tally.
    pub fn merge(&mut self, o: EditLayers) {
        for (a, b) in self.apply_ns.iter_mut().zip(o.apply_ns) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.edits += o.edits;
        self.compact_ns += o.compact_ns;
        self.compacted += o.compacted;
        self.nodes_touched += o.nodes_touched;
        self.encode_ns.extend(o.encode_ns);
        self.wal_bytes += o.wal_bytes;
    }
}
