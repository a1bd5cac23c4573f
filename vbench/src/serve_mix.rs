//! `serve-mix`: two client threads, each on one persistent loopback VHRPC
//! connection, against a two-worker `vh-serve` server with one tenant on
//! about 60 books. Each client deals 60% point, 30% twig and 10% edit
//! requests, the edits a balanced insert/delete pair per cycle
//! ([`gen::ServeStream`]).
//!
//! Engine work per request is small here, so framing, decode, routing,
//! admission, socket time and the per-tenant `Mutex<Engine>` dominate;
//! this is the only workload where two callers contend for that lock.
//!
//! Every count must lie between the base document's and the base plus
//! one inserted book per client; at the end, replaying the acknowledged
//! edits in `seq` order on a fresh engine must rebuild the tenant's
//! document, which must equal the base again.
//!
//! The server's stages cannot be timed from outside, so the traced run
//! replays the same streams in process, from the same two threads over
//! one shared [`Registry`], through the public pieces the server uses.

use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use vh_query::api::{Engine, ExecOptions, QueryRequest};
use vh_query::Edit;
use vh_serve::wire::{frame, parse_header, verify_payload, HEADER_LEN};
use vh_serve::{
    Address, Client, ClientError, Registry, Request, RequestBody, Response, Server, ServerConfig,
    ServerHandle, TenantQuota,
};
use vh_xml::{serialize, SerializeOptions};

use crate::gen::{self, Class, EditKind, Op, Query, ServeStream, BOOKS_URI};
use crate::layers::{self, us, CacheTally, EditLayers, QueryLayers};
use crate::read_views::finish_trace;
use crate::stats::{mean, ratio, Sample};
use crate::trace::{Recorder, NO_PARENT};
use crate::{repeat_setup, Args, Clock, Outcome, Timed};

/// Books in the tenant's corpus.
pub const BOOKS: usize = 60;
/// The one tenant.
pub const TENANT: &str = "acme";
/// Client threads, one connection each.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// The in-process pipeline's stages, in order.
const STAGES: [&str; 7] = [
    "serve.encode",
    "serve.decode",
    "serve.route",
    "serve.admit",
    "serve.lock_wait",
    "serve.engine",
    "serve.reply",
];

/// Shuts the server down when dropped, joining its workers.
struct Running(Option<ServerHandle>);

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
        }
    }
}

impl Running {
    fn handle(&self) -> Option<&ServerHandle> {
        self.0.as_ref()
    }
}

/// The tenant engine: corpus registered, the pool's views open.
fn tenant_engine(xml: &str, pool: &[Query], out: &mut Outcome) -> Engine {
    let mut engine = Engine::new();
    if let Err(e) = engine.register_xml(BOOKS_URI, xml) {
        out.mismatch(format!("{BOOKS_URI}: {e}"));
    }
    for (uri, spec) in gen::views(pool) {
        if let Err(e) = engine.virtual_doc(uri, spec) {
            out.mismatch(format!("view {spec} of {uri}: {e}"));
        }
    }
    engine
}

fn registry_with(engine: Engine, out: &mut Outcome) -> Registry {
    let mut registry = Registry::new();
    if let Err(e) = registry.add_tenant(TENANT, engine, TenantQuota::default()) {
        out.mismatch(format!("tenant: {}", e.message));
    }
    registry
}

/// Set-up: engine, registry, server bind and start.
fn start_server(xml: &str, pool: &[Query], out: &mut Outcome) -> Running {
    let registry = registry_with(tenant_engine(xml, pool, out), out);
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    match Server::bind("127.0.0.1:0", registry, config).and_then(Server::start) {
        Ok(h) => Running(Some(h)),
        Err(e) => {
            out.mismatch(format!("server: {e}"));
            Running(None)
        }
    }
}

/// Per-query count bounds: the base document's count, up to the count
/// with one inserted book per client.
fn bounds(xml: &str, pool: &[Query], out: &mut Outcome) -> Vec<(u64, u64)> {
    let oracle = ExecOptions {
        cache: false,
        ..ExecOptions::default()
    };
    let counts = |e: &Engine| -> Vec<u64> {
        pool.iter()
            .map(|q| {
                e.run(&q.request().with_exec(oracle))
                    .map_or(0, |o| o.stats.result_nodes)
            })
            .collect()
    };
    let mut e = Engine::new();
    if let Err(err) = e.register_xml(BOOKS_URI, xml) {
        out.mismatch(format!("oracle: {err}"));
    }
    let base = counts(&e);
    let one = e.apply(Edit::InsertSubtree {
        uri: BOOKS_URI.to_owned(),
        parent: "1".to_owned(),
        pos: 0,
        xml: ServeStream::inserted_book(0),
    });
    if let Err(err) = one {
        out.mismatch(format!("oracle insert: {err}"));
    }
    let plus = counts(&e);
    base.iter()
        .zip(&plus)
        .map(|(&b, &p)| (b, b + CLIENTS as u64 * p.saturating_sub(b)))
        .collect()
}

/// What one client (or one in-process thread) saw.
#[derive(Default)]
struct Tally {
    /// Socket round trips.
    samples: Vec<Timed>,
    /// In-process pipeline latencies, untraced and traced, in µs.
    plain_us: Vec<f64>,
    traced_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    acked: Vec<(u64, Edit)>,
    mismatches: Vec<String>,
    queries: QueryLayers,
    edits: EditLayers,
    stage_ns: [u64; 7],
}

impl Tally {
    fn panicked() -> Tally {
        let mut t = Tally {
            attempted: 1,
            ..Tally::default()
        };
        t.fail("a client thread panicked".to_owned());
        t
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 10 {
            self.mismatches.push(what);
        }
    }

    /// Checks one answer against its bounds (queries) or records its
    /// acknowledgement (edits).
    fn check(&mut self, op: Op, answer: Result<u64, String>, pool: &[Query], b: &[(u64, u64)]) {
        match (op, answer) {
            (Op::Query(i), Ok(n)) if (b[i].0..=b[i].1).contains(&n) => {}
            (Op::Query(i), Ok(n)) => self.fail(format!(
                "`{}`: {n} results outside [{}, {}]",
                pool[i].text, b[i].0, b[i].1
            )),
            (Op::Edit(e), Ok(seq)) => self.acked.push((seq, e)),
            (_, Err(e)) => self.fail(e),
        }
    }

    fn merge_into(self, out: &mut Outcome, all: &mut Tally) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        for m in self.mismatches {
            out.mismatch(m);
        }
        all.samples.extend(self.samples);
        all.plain_us.extend(self.plain_us);
        all.traced_us.extend(self.traced_us);
        all.acked.extend(self.acked);
        all.queries.merge(self.queries);
        all.edits.merge(self.edits);
        for (a, b) in all.stage_ns.iter_mut().zip(self.stage_ns) {
            *a += b;
        }
    }
}

/// One client over its own connection until its clock stops.
fn client_loop(
    addr: std::net::SocketAddr,
    c: usize,
    seed: u64,
    seconds: f64,
    pool: &[Query],
    b: &[(u64, u64)],
    start: &Barrier,
) -> Tally {
    let mut tally = Tally::default();
    let client = Client::connect(addr, TENANT);
    start.wait();
    let mut client = match client {
        Ok(cl) => cl,
        Err(e) => {
            tally.attempted += 1;
            tally.fail(format!("client {c}: connect: {e}"));
            return tally;
        }
    };
    let mut stream = ServeStream::new(pool, seed, c);
    let clock = Clock::start(seconds);
    loop {
        for op in stream.next_cycle() {
            tally.attempted += 1;
            let t0 = Instant::now();
            let answer = match &op {
                Op::Query(i) => {
                    let q = &pool[*i];
                    match (q.class, q.spec) {
                        (Class::Twig, Some(spec)) => client.twig(q.uri, spec, &q.text),
                        _ => client.point(q.uri, &q.text),
                    }
                }
                Op::Edit(e) => client.edit(e),
            };
            tally.samples.push(Timed {
                at_s: clock.elapsed_s(),
                us: t0.elapsed().as_nanos() as f64 / 1e3,
                query: matches!(op, Op::Query(_)),
                op: true,
            });
            let dead = matches!(answer, Err(ClientError::Io(_)));
            tally.check(op, answer.map_err(|e| format!("client {c}: {e}")), pool, b);
            if dead {
                return tally;
            }
        }
        if clock.done() {
            return tally;
        }
    }
}

/// Where a traced in-process step grafts the engine's spans.
struct Sink<'a> {
    rec: &'a mut Recorder,
    op: u64,
    /// The reserved id of the step's `serve.engine` span.
    engine: u32,
}

/// One request through the server's public pieces, in process. Returns
/// the answer and the eight stage boundaries.
fn step(
    registry: &Registry,
    op: &Op,
    pool: &[Query],
    tally: &mut Tally,
    sink: Option<&mut Sink<'_>>,
) -> (Result<u64, String>, [Instant; 8]) {
    let traced = sink.is_some();
    let mut t = [Instant::now(); 8];
    let body = match op {
        Op::Query(i) => {
            let q = &pool[*i];
            match (q.class, q.spec) {
                (Class::Twig, Some(spec)) => RequestBody::Twig {
                    spec: spec.to_owned(),
                    path: q.text.clone(),
                },
                _ => RequestBody::Point {
                    path: q.text.clone(),
                },
            }
        }
        Op::Edit(e) => {
            let te = Instant::now();
            let payload = e.encode();
            if traced {
                tally.edits.encoded(te.elapsed().as_nanos() as u64);
            }
            RequestBody::Edit { payload }
        }
    };
    let class = if matches!(op, Op::Edit(_)) {
        "edit"
    } else {
        "query"
    };
    let request = Request {
        address: Address::new(TENANT, BOOKS_URI, class),
        body,
    };
    let framed = match request.encode() {
        Ok(p) => frame(&p),
        Err(r) => return (Err(r.message), t),
    };
    t[1] = Instant::now();
    let decoded = (|| {
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(framed.get(..HEADER_LEN).ok_or("short frame")?);
        let (len, crc) = parse_header(&header).map_err(|d| d.to_string())?;
        let payload = framed
            .get(HEADER_LEN..HEADER_LEN + len)
            .ok_or("short payload")?;
        verify_payload(crc, payload).map_err(|d| d.to_string())?;
        let req = Request::decode(payload).map_err(|r| r.message)?;
        let edit = match &req.body {
            RequestBody::Edit { payload } => {
                Some(Edit::decode(payload).map_err(|e| e.to_string())?)
            }
            _ => None,
        };
        Ok::<_, String>((payload, req, edit))
    })();
    let (payload, req, edit) = match decoded {
        Ok(d) => d,
        Err(e) => return (Err(e), t),
    };
    t[2] = Instant::now();
    let Some(tenant) = registry.route(payload) else {
        return (Err("no tenant routes the request".to_owned()), t);
    };
    t[3] = Instant::now();
    let guard = match tenant.admission().try_admit(&req.address.class) {
        Ok(g) => g,
        Err(reason) => return (Err(format!("shed: {}", reason.label())), t),
    };
    t[4] = Instant::now();
    let mut engine = tenant.engine();
    t[5] = Instant::now();
    let doc = req.address.document.as_str();
    let response = match (req.body, edit) {
        (RequestBody::Edit { .. }, Some(edit)) => {
            let kind = EditKind::of(&edit);
            let wal = engine.wal_bytes().len();
            // vet: allow(hold-across-blocking) — replays the server's execution model: edits serialise against queries under the tenant lock, whose wait is what `serve.lock_wait` measures
            match engine.apply_traced(edit, traced) {
                Ok((receipt, trace)) => {
                    let ns = t[5].elapsed().as_nanos() as u64;
                    if let (Some(s), Some(tr)) = (sink, &trace) {
                        s.rec.graft(s.op, s.engine, "apply", t[5], tr);
                        let grew = (engine.wal_bytes().len() - wal) as u64;
                        tally.edits.wal_grew(grew);
                        tally.edits.record(kind, ns, &receipt, Some(tr));
                    }
                    Response::Seq(receipt.seq)
                }
                Err(e) => Response::Error {
                    status: vh_serve::WireStatus::QueryError,
                    message: e.to_string(),
                },
            }
        }
        (body, _) => {
            let (request, class) = match body {
                RequestBody::Twig { spec, path } => {
                    (QueryRequest::virtual_path(doc, spec, path), Class::Twig)
                }
                RequestBody::Point { path } => (QueryRequest::path(doc, path), Class::Point),
                _ => return (Err("unexpected request body".to_owned()), t),
            };
            // vet: allow(hold-across-blocking) — same tenant-lock contract as the edit arm
            match engine.run(&request.with_trace(traced)) {
                Ok(o) => {
                    if let (Some(s), Some(tr)) = (sink, &o.trace) {
                        s.rec.graft(s.op, s.engine, "query", t[5], tr);
                    }
                    if traced {
                        tally.queries.record(class, &o.stats);
                    }
                    Response::Count(o.nodes.map_or(0, |n| n.len() as u64))
                }
                Err(e) => Response::Error {
                    status: vh_serve::WireStatus::QueryError,
                    message: e.to_string(),
                },
            }
        }
    };
    drop(engine);
    t[6] = Instant::now();
    let bytes = frame(&response.encode());
    let answer = (|| {
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(bytes.get(..HEADER_LEN).ok_or("short frame")?);
        let (len, crc) = parse_header(&header).map_err(|d| d.to_string())?;
        let payload = bytes
            .get(HEADER_LEN..HEADER_LEN + len)
            .ok_or("short payload")?;
        verify_payload(crc, payload).map_err(|d| d.to_string())?;
        match Response::decode(payload).map_err(|r| r.message)? {
            Response::Count(n) | Response::Seq(n) => Ok(n),
            other => Err(format!("answered {other:?}")),
        }
    })();
    drop(guard);
    t[7] = Instant::now();
    (answer, t)
}

/// One in-process thread over the shared registry until its clock stops.
/// Every other cycle is traced, so the untraced cycles beside them give
/// the pipeline's untraced latency and the tracing overhead free of host
/// drift.
fn in_process_loop(
    registry: &Registry,
    c: usize,
    seed: u64,
    seconds: f64,
    pool: &[Query],
    b: &[(u64, u64)],
    rec: &mut Recorder,
) -> Tally {
    let mut tally = Tally::default();
    let mut stream = ServeStream::new(pool, seed, c);
    let clock = Clock::start(seconds);
    let mut n = 0u64;
    for cycle in 0u64.. {
        for op in stream.next_cycle() {
            n += 1;
            tally.attempted += 1;
            if cycle % 2 == 0 {
                let (answer, t) = step(registry, &op, pool, &mut tally, None);
                tally.plain_us.push((t[7] - t[0]).as_nanos() as f64 / 1e3);
                tally.check(op, answer, pool, b);
                continue;
            }
            let id = rec.reserve();
            let stage_ids: Vec<u32> = STAGES.iter().map(|_| rec.reserve()).collect();
            let mut sink = Sink {
                rec: &mut *rec,
                op: n,
                engine: stage_ids[5],
            };
            let (answer, t) = step(registry, &op, pool, &mut tally, Some(&mut sink));
            for (k, name) in STAGES.iter().enumerate() {
                rec.record(n, stage_ids[k], id, name, t[k], t[k + 1]);
                tally.stage_ns[k] += (t[k + 1] - t[k]).as_nanos() as u64;
            }
            rec.record(n, id, NO_PARENT, "op", t[0], t[7]);
            tally.traced_us.push((t[7] - t[0]).as_nanos() as f64 / 1e3);
            tally.check(op, answer, pool, b);
        }
        if clock.done() {
            break;
        }
    }
    tally
}

/// Replays the acknowledged edits in `seq` order on a fresh engine and
/// compares with the tenant's document, which must also equal the base.
fn replay_check(xml: &str, final_doc: &str, mut acked: Vec<(u64, Edit)>, out: &mut Outcome) {
    acked.sort_by_key(|(seq, _)| *seq);
    if acked
        .iter()
        .enumerate()
        .any(|(i, (seq, _))| *seq != i as u64 + 1)
    {
        out.mismatch("acknowledged seqs are not 1..=n");
    }
    let mut oracle = Engine::new();
    if let Err(e) = oracle.register_xml(BOOKS_URI, xml) {
        out.mismatch(format!("oracle: {e}"));
    }
    let n = acked.len();
    for (seq, edit) in acked {
        if let Err(e) = oracle.apply(edit) {
            out.mismatch(format!("replaying seq {seq}: {e}"));
            return;
        }
    }
    let replayed = oracle.document(BOOKS_URI).map_or(String::new(), |td| {
        serialize(td.doc(), SerializeOptions::compact())
    });
    if replayed != final_doc {
        out.mismatch("replayed edits differ from the tenant's document");
    }
    if final_doc != xml {
        out.mismatch("the balanced stream did not return the document to its start");
    }
    out.note(format!("replayed {n} acknowledged edits"));
}

fn tenant_doc(registry: &Registry) -> String {
    registry.tenant(TENANT).map_or(String::new(), |t| {
        t.engine().document(BOOKS_URI).map_or(String::new(), |td| {
            serialize(td.doc(), SerializeOptions::compact())
        })
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let xml = gen::books_xml(BOOKS, args.seed);
    let pool = gen::serve_pool();
    let (server, times) = repeat_setup(SETUP_REPS, || start_server(&xml, &pool, &mut out));
    out.setup(&times);
    let b = bounds(&xml, &pool, &mut out);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    // Socket phase: two clients, one connection each.
    let mut socket = Tally::default();
    if let Some(handle) = server.handle() {
        let addr = handle.local_addr();
        let start = Barrier::new(CLIENTS + 1);
        let (tallies, elapsed) = thread::scope(|s| {
            let threads: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (pool, b, start) = (&pool, &b, &start);
                    s.spawn(move || client_loop(addr, c, args.seed, seconds, pool, b, start))
                })
                .collect();
            start.wait();
            let t0 = Instant::now();
            let tallies: Vec<Tally> = threads
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Tally::panicked()))
                .collect();
            (tallies, t0.elapsed().as_secs_f64())
        });
        for t in tallies {
            t.merge_into(&mut out, &mut socket);
        }
        out.note(format!("measured {elapsed:.2}s over {CLIENTS} connections"));
        replay_check(
            &xml,
            &tenant_doc(handle.registry()),
            std::mem::take(&mut socket.acked),
            &mut out,
        );
    }
    drop(server);
    out.windowed(
        &socket.samples,
        seconds,
        [
            "VHRPC round trip, query verbs",
            "VHRPC round trip, all verbs",
        ],
    );
    if !args.trace {
        return out;
    }

    // In-process phase over one shared registry, every other cycle traced.
    let rtt = Sample::new(socket.samples.iter().map(|t| t.us).collect());
    layers::setup_layers(&[(BOOKS_URI, xml.as_str())], &mut out);
    let registry = registry_with(tenant_engine(&xml, &pool, &mut out), &mut out);
    let origin = Instant::now();
    let mut recs: Vec<Recorder> = (0..CLIENTS)
        .map(|c| Recorder::new(origin, c as u64))
        .collect();
    let before = registry.tenant(TENANT).map(|t| t.engine().snapshot());
    let tallies: Vec<Tally> = thread::scope(|s| {
        let threads: Vec<_> = recs
            .iter_mut()
            .enumerate()
            .map(|(c, rec)| {
                let (registry, pool, b) = (&registry, &pool, &b);
                s.spawn(move || in_process_loop(registry, c, args.seed, seconds, pool, b, rec))
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Tally::panicked()))
            .collect()
    });
    let after = registry.tenant(TENANT).map(|t| t.engine().snapshot());
    let mut phase = Tally::default();
    for t in tallies {
        t.merge_into(&mut out, &mut phase);
    }
    replay_check(&xml, &tenant_doc(&registry), phase.acked, &mut out);

    let pipeline = Sample::new(phase.plain_us.clone());
    if let (Ok(r), Ok(p)) = (rtt.percentile(50.0), pipeline.percentile(50.0)) {
        out.set("serve.transport_us", r - p);
        out.note(format!(
            "transport: rtt p50 {r:.1}us - in-process p50 {p:.1}us"
        ));
    }
    let ops = phase.traced_us.len() as f64;
    for (k, name) in STAGES.iter().enumerate() {
        out.set(format!("{name}_us"), ratio(us(phase.stage_ns[k]), ops));
    }
    let mut cache = CacheTally::default();
    if let (Some(a), Some(z)) = (&before, &after) {
        cache.add(a, z);
    }
    cache.export(&mut out);
    phase.edits.export(&mut out);
    phase.queries.export(&mut out);
    let overhead = mean(&phase.traced_us) / mean(&phase.plain_us);
    let refs: Vec<&Recorder> = recs.iter().collect();
    finish_trace(&mut out, &refs, overhead, "serve-mix");
    out
}
