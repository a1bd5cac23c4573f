//! `edit-churn`: one thread; eight edits to every two queries through
//! the warm virtual views, on about 2,000 books.
//!
//! The edit stream ([`gen::ChurnStream`]) mixes insert, delete, set-value
//! and move, skews inserts and moves to the front gap, and keeps the book,
//! author and node counts fixed, so every query's count stays equal to
//! the set-up oracle's. Before each engine is replaced ([`EPOCH_CYCLES`])
//! and at the end, its document, re-registered in a fresh engine, must
//! answer every query the same, and replaying its write-ahead log into a
//! fresh engine must rebuild it byte for byte.

use std::time::Instant;

use vh_query::api::{Engine, EngineSnapshot};
use vh_query::Edit;
use vh_xml::{serialize, SerializeOptions};

use crate::gen::{self, ChurnStream, EditKind, Op, Query, BOOKS_URI};
use crate::layers::{self, CacheTally, EditLayers, QueryLayers};
use crate::read_views::{finish_trace, QuerySet};
use crate::stats::ratio;
use crate::trace::{Recorder, NO_PARENT};
use crate::{repeat_setup, Args, Clock, Outcome, Timed};

/// Books in the corpus.
pub const BOOKS: usize = 2_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Cycles between reloads of the base document.
///
/// Front-skewed inserts mint ever longer keys at the front of the root's
/// children and deleted nodes are not reclaimed, so one engine's edits and
/// queries slow down as edits accumulate (by about half over 700 cycles
/// on the reference host). Reloading every 50 cycles (400 edits) keeps
/// the measured state the same however many cycles a run manages. Each
/// engine passes the end-of-engine oracle checks before it is replaced;
/// checks and reload are left out of the measured time.
const EPOCH_CYCLES: u64 = 50;

/// Per-run state of the measured loop.
struct Churn<'p> {
    engine: Engine,
    set: QuerySet<'p>,
    stream: ChurnStream,
    seq: u64,
    samples: Vec<Timed>,
    /// What a reload starts from.
    xml: &'p str,
    pool: &'p [Query],
    authors: Vec<usize>,
    nodes: usize,
    seed: u64,
    /// Edits the end-of-engine checks have covered.
    checked: u64,
    epoch: u64,
    cycles: u64,
    /// Cache counters of the engines a run used, and the snapshot the
    /// current engine's share is counted from.
    cache: CacheTally,
    since: EngineSnapshot,
    /// Summed µs and count of ops in untraced and in traced cycles.
    split: [(f64, u64); 2],
}

impl Churn<'_> {
    /// Applies one edit, checks its receipt, and returns its latency.
    fn edit(
        &mut self,
        edit: Edit,
        out: &mut Outcome,
        traced: Option<(&mut Recorder, &mut EditLayers, u64)>,
    ) -> u64 {
        out.attempted += 1;
        let kind = EditKind::of(&edit);
        let label = edit.kind();
        let (res, ns) = match traced {
            None => {
                let t0 = Instant::now();
                let res = self.engine.apply(edit);
                (res, t0.elapsed().as_nanos() as u64)
            }
            Some((rec, el, op)) => {
                let t = Instant::now();
                std::hint::black_box(edit.encode());
                el.encoded(t.elapsed().as_nanos() as u64);
                let wal = self.engine.wal_bytes().len();
                let id = rec.reserve();
                let t0 = Instant::now();
                let res = self.engine.apply_traced(edit, true);
                let t1 = Instant::now();
                let res = res.map(|(receipt, trace)| {
                    if let Some(t) = &trace {
                        rec.graft(op, id, "apply", t0, t);
                    }
                    el.record(kind, (t1 - t0).as_nanos() as u64, &receipt, trace.as_ref());
                    receipt
                });
                rec.record(op, id, NO_PARENT, "op", t0, t1);
                el.wal_grew((self.engine.wal_bytes().len() - wal) as u64);
                (res, (t1 - t0).as_nanos() as u64)
            }
        };
        match res {
            Ok(r) if r.seq == self.seq + 1 => self.seq = r.seq,
            Ok(r) => {
                out.failed += 1;
                out.mismatch(format!("{label}: seq {} after {}", r.seq, self.seq));
                self.seq = r.seq;
            }
            Err(e) => {
                out.failed += 1;
                out.mismatch(format!("{label}: {e}"));
            }
        }
        ns
    }

    /// Replaces the engine with a fresh one over the base document, and
    /// the stream with one that models it.
    fn reload(&mut self, out: &mut Outcome) {
        self.check(out);
        self.cache.add(&self.since, &self.engine.snapshot());
        self.engine = set_up(self.xml, &gen::views(self.pool), out);
        self.epoch += 1;
        let seed = self.seed ^ (self.epoch << 32);
        self.stream = ChurnStream::new(self.authors.clone(), self.pool, seed);
        self.seq = 0;
        self.cycles = 0;
        self.since = self.engine.snapshot();
    }

    /// Runs whole cycles until the clock says stop, reloading every
    /// [`EPOCH_CYCLES`] cycles.
    fn measure(
        &mut self,
        mut clock: Clock,
        out: &mut Outcome,
        mut traced: Option<(&mut Recorder, &mut EditLayers, &mut QueryLayers)>,
    ) {
        let mut op = 0u64;
        loop {
            if self.cycles == EPOCH_CYCLES {
                let t = Instant::now();
                self.reload(out);
                clock.exclude(t.elapsed());
            }
            self.cycles += 1;
            // Traced runs trace every other cycle.
            let on = self.cycles % 2 == 1;
            for o in self.stream.next_cycle() {
                op += 1;
                let query = matches!(o, Op::Query(_));
                let ns = match o {
                    Op::Edit(e) => {
                        let t = traced.as_mut().filter(|_| on);
                        self.edit(e, out, t.map(|(r, el, _)| (&mut **r, &mut **el, op)))
                    }
                    Op::Query(i) => {
                        let t = traced.as_mut().filter(|_| on);
                        let t = t.map(|(r, _, ql)| (&mut **r, &mut **ql, op));
                        self.set.run(&self.engine, i, out, t)
                    }
                };
                let half = &mut self.split[usize::from(on)];
                half.0 += ns as f64 / 1e3;
                half.1 += 1;
                self.samples.push(Timed {
                    at_s: clock.elapsed_s(),
                    us: ns as f64 / 1e3,
                    query,
                    op: !query,
                });
            }
            if clock.done() {
                return;
            }
        }
    }

    /// The end-of-engine oracles: the node count is the start's, the
    /// edited document re-registered answers every query alike, and the
    /// write-ahead log replayed onto the base rebuilds it.
    fn check(&mut self, out: &mut Outcome) {
        let (text, nodes) = doc_text(&self.engine);
        if nodes != self.nodes {
            out.mismatch(format!(
                "document has {nodes} nodes, started with {}",
                self.nodes
            ));
        }
        let mut fresh = Engine::new();
        if let Err(e) = fresh.register_xml(BOOKS_URI, &text) {
            out.mismatch(format!("edited document does not re-register: {e}"));
        }
        for (i, q) in self.pool.iter().enumerate() {
            let warm = self.engine.run(&q.request()).map(|o| o.stats.result_nodes);
            let cold = fresh.run(&q.request()).map(|o| o.stats.result_nodes);
            match (warm, cold) {
                (Ok(w), Ok(c)) if w == c && c == self.set.expected(i) => {}
                (w, c) => out.mismatch(format!(
                    "`{}` after the edits: edited {w:?}, re-registered {c:?}, oracle {}",
                    q.text,
                    self.set.expected(i)
                )),
            }
        }
        let mut replayed = Engine::new();
        if let Err(e) = replayed.register_xml(BOOKS_URI, self.xml) {
            out.mismatch(format!("base does not re-register: {e}"));
        }
        match replayed.recover(self.engine.wal_bytes()) {
            Ok(r) if r.is_clean() && r.replayed == self.seq => {
                if doc_text(&replayed).0 != text {
                    out.mismatch("write-ahead-log replay differs from the edited document");
                }
            }
            Ok(r) => out.mismatch(format!(
                "write-ahead-log replay: {} of {} edits, clean={}",
                r.replayed,
                self.seq,
                r.is_clean()
            )),
            Err(e) => out.mismatch(format!("write-ahead-log replay: {e}")),
        }
        self.checked += self.seq;
    }

    /// Checks the last engine and reports what the checks covered.
    fn finish(&mut self, out: &mut Outcome) {
        self.check(out);
        out.note(format!(
            "oracle checks over {} engines and {} acknowledged edits",
            self.epoch + 1,
            self.checked
        ));
    }
}

/// Registers the corpus and opens the views the pool reads.
fn set_up(xml: &str, views: &[(&'static str, &'static str)], out: &mut Outcome) -> Engine {
    let mut engine = Engine::new();
    if let Err(e) = engine.register_xml(BOOKS_URI, xml) {
        out.mismatch(format!("{BOOKS_URI}: {e}"));
    }
    for (uri, spec) in views {
        if let Err(e) = engine.virtual_doc(uri, spec) {
            out.mismatch(format!("view {spec} of {uri}: {e}"));
        }
    }
    engine
}

fn doc_text(engine: &Engine) -> (String, usize) {
    engine.document(BOOKS_URI).map_or((String::new(), 0), |td| {
        (
            serialize(td.doc(), SerializeOptions::compact()),
            td.doc().preorder().count(),
        )
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let xml = gen::books_xml(BOOKS, args.seed);
    let pool = gen::churn_pool();
    let views = gen::views(&pool);
    let (engine, times) = repeat_setup(SETUP_REPS, || set_up(&xml, &views, &mut out));
    out.setup(&times);
    let set = QuerySet::new(&pool, &engine, &mut out);
    let authors = engine
        .document(BOOKS_URI)
        .map(|td| gen::author_counts(td.doc()))
        .unwrap_or_default();
    let mut churn = Churn {
        since: engine.snapshot(),
        nodes: doc_text(&engine).1,
        engine,
        set,
        stream: ChurnStream::new(authors.clone(), &pool, args.seed),
        seq: 0,
        samples: Vec::new(),
        xml: &xml,
        pool: &pool,
        authors,
        seed: args.seed,
        checked: 0,
        epoch: 0,
        cycles: 0,
        cache: CacheTally::default(),
        split: [(0.0, 0); 2],
    };
    if !args.trace {
        churn.measure(Clock::start(args.seconds), &mut out, None);
        out.windowed(
            &churn.samples,
            args.seconds,
            ["Engine::run", "Engine::apply"],
        );
        churn.finish(&mut out);
        return out;
    }

    // Traced run: every other cycle is traced, so the untraced cycles
    // beside them give the tracing overhead free of host drift.
    layers::setup_layers(&[(BOOKS_URI, xml.as_str())], &mut out);
    let mut rec = Recorder::new(Instant::now(), 0);
    let (mut el, mut ql) = (EditLayers::default(), QueryLayers::default());
    churn.measure(
        Clock::start(args.seconds),
        &mut out,
        Some((&mut rec, &mut el, &mut ql)),
    );
    churn.cache.add(&churn.since, &churn.engine.snapshot());
    churn.cache.export(&mut out);
    el.export(&mut out);
    ql.export(&mut out);
    let [(plain_us, plain_n), (traced_us, traced_n)] = churn.split;
    let overhead = ratio(traced_us, traced_n as f64) / ratio(plain_us, plain_n as f64);
    finish_trace(&mut out, &[&rec], overhead, "edit-churn");
    churn.finish(&mut out);
    out
}
