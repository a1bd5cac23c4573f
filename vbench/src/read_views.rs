//! `read-views`: one thread, `Engine::run` only, views warm.
//!
//! About 2,000 books plus an XMark-style auction corpus (a second tree
//! shape). The mix is point paths over both physical documents, virtual
//! paths through six views and Rhonda's FLWR. Every answer is checked
//! against a set-up oracle that ran the same query with the view cache
//! off. This is the paper's read path: arena range selection, virtual
//! axes and result copy do nearly all the work.

use std::path::Path;
use std::time::Instant;

use vh_query::api::{Engine, ExecOptions, QueryRequest};

use crate::gen::{self, Query, QueryStream, AUCTION_URI, BOOKS_URI};
use crate::layers::{self, CacheTally, QueryLayers};
use crate::stats::mean;
use crate::trace::{self, Recorder, NO_PARENT};
use crate::{repeat_setup, Args, Clock, Outcome, Timed};

/// Books in the corpus.
pub const BOOKS: usize = 2_000;
/// XMark scale of the auction corpus.
pub const AUCTION_SCALE: f64 = 0.2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// A query pool bound to one engine: prebuilt requests and the counts
/// the cache-off oracle gave for them.
pub struct QuerySet<'p> {
    pool: &'p [Query],
    requests: Vec<QueryRequest>,
    traced: Vec<QueryRequest>,
    expected: Vec<u64>,
}

impl<'p> QuerySet<'p> {
    /// Runs every pool query once with the view cache off; those counts
    /// are the oracle for the whole run.
    pub fn new(pool: &'p [Query], engine: &Engine, out: &mut Outcome) -> QuerySet<'p> {
        let oracle = ExecOptions {
            cache: false,
            ..ExecOptions::default()
        };
        let mut expected = Vec::with_capacity(pool.len());
        for q in pool {
            match engine.run(&q.request().with_exec(oracle)) {
                Ok(o) if o.stats.result_nodes > 0 => expected.push(o.stats.result_nodes),
                Ok(_) => {
                    out.mismatch(format!("oracle: `{}` selects nothing", q.text));
                    expected.push(0);
                }
                Err(e) => {
                    out.mismatch(format!("oracle: `{}`: {e}", q.text));
                    expected.push(0);
                }
            }
        }
        QuerySet {
            pool,
            requests: pool.iter().map(Query::request).collect(),
            traced: pool.iter().map(|q| q.request().with_trace(true)).collect(),
            expected,
        }
    }

    /// The oracle count of query `i`.
    pub fn expected(&self, i: usize) -> u64 {
        self.expected[i]
    }

    /// Runs query `i`, checks its count and returns its latency in ns.
    /// When traced, the engine's stages become children of an `op` span
    /// and a probe times the view open and `eval_xpath` on their own.
    pub fn run(
        &self,
        engine: &Engine,
        i: usize,
        out: &mut Outcome,
        traced: Option<(&mut Recorder, &mut QueryLayers, u64)>,
    ) -> u64 {
        let q = &self.pool[i];
        out.attempted += 1;
        let Some((rec, layers, op)) = traced else {
            let t0 = Instant::now();
            let res = engine.run(&self.requests[i]);
            let ns = t0.elapsed().as_nanos() as u64;
            self.check(i, res.map(|o| o.stats.result_nodes), out);
            return ns;
        };
        let id = rec.reserve();
        let t0 = Instant::now();
        let res = engine.run(&self.traced[i]);
        let t1 = Instant::now();
        if let Ok(o) = &res {
            if let Some(t) = &o.trace {
                rec.graft_children(op, id, t0, t);
            }
            layers.record(q.class, &o.stats);
        }
        rec.record(op, id, NO_PARENT, "op", t0, t1);
        self.check(i, res.map(|o| o.stats.result_nodes), out);
        let p0 = Instant::now();
        if let Some(n) = layers.probe(engine, q) {
            rec.span(op, NO_PARENT, "probe", p0, Instant::now());
            if n != self.expected[i] {
                out.mismatch(format!(
                    "probe `{}`: {n}, oracle {}",
                    q.text, self.expected[i]
                ));
            }
        }
        (t1 - t0).as_nanos() as u64
    }

    fn check<E: std::fmt::Display>(&self, i: usize, res: Result<u64, E>, out: &mut Outcome) {
        let q = &self.pool[i];
        match res {
            Ok(n) if n == self.expected[i] => {}
            Ok(n) => {
                out.failed += 1;
                out.mismatch(format!(
                    "`{}`: {n} results, oracle {}",
                    q.text, self.expected[i]
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.mismatch(format!("`{}`: {e}", q.text));
            }
        }
    }
}

/// Registers the corpora and opens every view the pool reads.
fn set_up(corpora: &[(&str, &str)], pool: &[Query], out: &mut Outcome) -> Engine {
    let mut engine = Engine::new();
    for (uri, xml) in corpora {
        if let Err(e) = engine.register_xml(uri, xml) {
            out.mismatch(format!("{uri}: {e}"));
        }
    }
    for (uri, spec) in gen::views(pool) {
        if let Err(e) = engine.virtual_doc(uri, spec) {
            out.mismatch(format!("view {spec} of {uri}: {e}"));
        }
    }
    engine
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let books = gen::books_xml(BOOKS, args.seed);
    let auction = gen::auction_xml(AUCTION_SCALE, args.seed ^ 0xA0C7);
    let corpora = [(BOOKS_URI, books.as_str()), (AUCTION_URI, auction.as_str())];
    let pool = gen::read_views_pool();
    let (engine, times) = repeat_setup(SETUP_REPS, || set_up(&corpora, &pool, &mut out));
    out.setup(&times);
    let set = QuerySet::new(&pool, &engine, &mut out);
    let mut stream = QueryStream::new(&pool, args.seed);

    if !args.trace {
        let mut samples = Vec::new();
        let clock = Clock::start(args.seconds);
        while !clock.done() {
            let us = set.run(&engine, stream.next_index(), &mut out, None) as f64 / 1e3;
            samples.push(Timed {
                at_s: clock.elapsed_s(),
                us,
                query: true,
                op: true,
            });
        }
        out.windowed(&samples, args.seconds, ["Engine::run", "op (= query)"]);
        return out;
    }

    // Traced run: every other op is traced, so the untraced ops beside
    // them give the tracing overhead free of host drift.
    layers::setup_layers(&corpora, &mut out);
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut ql = QueryLayers::default();
    let before = engine.snapshot();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let clock = Clock::start(args.seconds);
    for op in 0.. {
        if clock.done() {
            break;
        }
        let i = stream.next_index();
        if op % 2 == 0 {
            plain.push(set.run(&engine, i, &mut out, None) as f64);
        } else {
            traced.push(set.run(&engine, i, &mut out, Some((&mut rec, &mut ql, op))) as f64);
        }
    }
    let mut cache = CacheTally::default();
    cache.add(&before, &engine.snapshot());
    cache.export(&mut out);
    ql.export(&mut out);
    finish_trace(
        &mut out,
        &[&rec],
        mean(&traced) / mean(&plain),
        "read-views",
    );
    out
}

/// Reconciles the recorded spans, writes them out and reports the
/// tracing metrics shared by every workload.
pub fn finish_trace(out: &mut Outcome, recs: &[&Recorder], overhead_x: f64, workload: &str) {
    let mut r = trace::Reconciliation::default();
    for rec in recs {
        r.merge(rec.reconcile("op"));
    }
    out.note(format!(
        "reconciliation: {} of {} ops outside max({:.0}%, {}us); unattributed {:.2}%",
        r.outside,
        r.ops,
        trace::TOL_FRAC * 100.0,
        trace::TOL_ABS_NS / 1000,
        r.unattributed_frac() * 100.0
    ));
    if !r.passes() {
        out.mismatch(format!(
            "reconciliation: {} of {} ops outside the tolerance",
            r.outside, r.ops
        ));
    }
    let spans: usize = recs.iter().map(|r| r.spans().len()).sum();
    out.set("trace.unattributed_frac", r.unattributed_frac());
    out.set("obs.trace_overhead_x", overhead_x);
    let path = Path::new(".bench_traces").join(format!("{workload}.tsv"));
    match trace::write_spans(&path, recs) {
        Ok(()) => out.note(format!("{spans} spans written to {}", path.display())),
        Err(e) => out.mismatch(format!("writing {}: {e}", path.display())),
    }
}
