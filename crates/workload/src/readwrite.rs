//! Concurrent reader/writer scenario: readers query warm virtual views
//! while a writer streams edit batches through [`Engine::apply_all`].
//!
//! Every insert the writer commits evicts the view's cached artifacts,
//! and the next reader query recomputes them. The inserted fragments
//! reuse the corpus vocabulary, so the guide fingerprint — and with it
//! the cache key — never changes: only the eviction keeps readers from
//! being served a pre-edit node index. The report surfaces the engine's
//! `recomputed` counter so callers can see the evictions happen.
//!
//! Everything is deterministic given the config except the interleaving
//! itself (and thus the per-reader query counts); the *final document*
//! and the post-quiesce query answers are interleaving-independent,
//! which is exactly the correctness claim the cache must uphold.

// Every match over `Edit` names each variant (DESIGN §11).
#![deny(clippy::wildcard_enum_match_arm)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use vh_query::{Edit, Engine, QueryRequest};

use crate::books::{generate_books, BooksConfig};

/// The URI the scenario registers its corpus under.
pub const READWRITE_URI: &str = "books.xml";

/// Sam's transformation (Figure 1/6) — the virtual view the readers
/// query through.
pub const READWRITE_SPEC: &str = "title { author { name } }";

/// The reader query suite, cycled per reader thread.
pub const READWRITE_PATHS: &[&str] = &["//title", "//name", "//title/author"];

/// Knobs for [`run_readwrite`].
#[derive(Clone, Debug)]
pub struct ReadWriteConfig {
    /// Books in the initial corpus.
    pub books: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Edit batches the writer commits.
    pub batches: usize,
    /// Insertions per batch (one `apply_all` call each).
    pub batch_size: usize,
    /// RNG seed for the corpus generator.
    pub seed: u64,
}

impl Default for ReadWriteConfig {
    fn default() -> Self {
        ReadWriteConfig {
            books: 64,
            readers: 4,
            batches: 8,
            batch_size: 8,
            seed: 42,
        }
    }
}

/// What [`run_readwrite`] observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadWriteReport {
    /// Queries the readers completed while the writer was active.
    pub queries: u64,
    /// Result nodes those queries returned in total.
    pub result_nodes: u64,
    /// Edits committed (batches × batch size).
    pub edits: u64,
    /// Cache entries the edits evicted for recomputation.
    pub recomputed: u64,
}

/// The book fragment the writer inserts: every tag already exists in the
/// generated corpus, so edits never mint new types and never change the
/// guide fingerprint.
fn fresh_book(batch: usize, i: usize) -> String {
    format!(
        "<book><title>Edit {batch}.{i}</title>\
         <author><name>Writer {i}</name></author></book>"
    )
}

/// Runs the scenario: registers a books corpus, warms the virtual view,
/// then lets `cfg.readers` threads query it while the writer commits
/// `cfg.batches` batches of front-position inserts.
pub fn run_readwrite(cfg: &ReadWriteConfig) -> ReadWriteReport {
    let mut engine = Engine::new();
    engine.register(generate_books(
        READWRITE_URI,
        &BooksConfig {
            books: cfg.books.max(1),
            seed: cfg.seed,
            ..BooksConfig::default()
        },
    ));
    // Warm every artifact the readers will touch before contention starts.
    for p in READWRITE_PATHS {
        let _ = engine.run(&QueryRequest::virtual_path(
            READWRITE_URI,
            READWRITE_SPEC,
            *p,
        ));
    }

    // `Engine` is `Send + Sync`, but the writer needs `&mut Engine`, so
    // cross-thread sharing goes through a mutex: readers and the writer
    // interleave rather than overlap. Readers drop the lock
    // between queries, so every batch commit slots into the stream.
    let shared = Mutex::new(engine);
    let done = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let result_nodes = AtomicU64::new(0);

    std::thread::scope(|s| {
        for r in 0..cfg.readers.max(1) {
            let (shared, done) = (&shared, &done);
            let (queries, result_nodes) = (&queries, &result_nodes);
            s.spawn(move || {
                let mut i = r; // offset so readers interleave the suite
                while !done.load(Ordering::Acquire) {
                    let path = READWRITE_PATHS[i % READWRITE_PATHS.len()];
                    i += 1;
                    let engine = shared.lock().unwrap_or_else(PoisonError::into_inner);
                    // vet: allow(hold-across-blocking) — the scenario measures reader/writer interleaving on one shared engine; the lock spanning run() is the workload
                    if let Ok(out) = engine.run(&QueryRequest::virtual_path(
                        READWRITE_URI,
                        READWRITE_SPEC,
                        path,
                    )) {
                        queries.fetch_add(1, Ordering::Relaxed);
                        let n = out.nodes.map_or(0, |ns| ns.len() as u64);
                        result_nodes.fetch_add(n, Ordering::Relaxed);
                    }
                }
            });
        }
        for b in 0..cfg.batches {
            let edits: Vec<Edit> = (0..cfg.batch_size.max(1))
                .map(|i| Edit::InsertSubtree {
                    uri: READWRITE_URI.to_owned(),
                    parent: "1".to_owned(),
                    pos: 0,
                    xml: fresh_book(b, i),
                })
                .collect();
            let mut engine = shared.lock().unwrap_or_else(PoisonError::into_inner);
            // vet: allow(hold-across-blocking) — the writer batch holds the engine for the whole burst by design: the scenario exists to stress exactly this contention
            let _ = engine.apply_all(edits);
        }
        done.store(true, Ordering::Release);
    });

    let engine = Mutex::into_inner(shared).unwrap_or_else(PoisonError::into_inner);
    ReadWriteReport {
        queries: queries.load(Ordering::Relaxed),
        result_nodes: result_nodes.load(Ordering::Relaxed),
        edits: (cfg.batches * cfg.batch_size.max(1)) as u64,
        recomputed: engine.snapshot().cache.recomputed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_xml::{serialize, SerializeOptions};

    /// Replays the writer's batches single-threaded and returns the
    /// final serialized document plus the engine that produced it.
    fn writer_only(cfg: &ReadWriteConfig) -> (Engine, String) {
        let mut engine = Engine::new();
        engine.register(generate_books(
            READWRITE_URI,
            &BooksConfig {
                books: cfg.books,
                seed: cfg.seed,
                ..BooksConfig::default()
            },
        ));
        for p in READWRITE_PATHS {
            engine
                .run(&QueryRequest::virtual_path(
                    READWRITE_URI,
                    READWRITE_SPEC,
                    *p,
                ))
                .expect("warm query runs");
        }
        for b in 0..cfg.batches {
            let edits: Vec<Edit> = (0..cfg.batch_size)
                .map(|i| Edit::InsertSubtree {
                    uri: READWRITE_URI.to_owned(),
                    parent: "1".to_owned(),
                    pos: 0,
                    xml: fresh_book(b, i),
                })
                .collect();
            engine.apply_all(edits).expect("batch applies");
        }
        let xml = serialize(
            engine.document(READWRITE_URI).expect("registered").doc(),
            SerializeOptions::compact(),
        );
        (engine, xml)
    }

    #[test]
    fn concurrent_run_matches_the_single_threaded_writer() {
        let cfg = ReadWriteConfig {
            books: 16,
            readers: 3,
            batches: 4,
            batch_size: 5,
            seed: 7,
        };
        let report = run_readwrite(&cfg);
        assert_eq!(report.edits, 20);

        // The interleaving cannot change the final document: a fresh
        // engine replaying the same batches alone must agree with a
        // cold engine registered with the concurrent run's output.
        let (warm, xml) = writer_only(&cfg);
        let mut cold = Engine::new();
        cold.register_xml(READWRITE_URI, &xml)
            .expect("final document re-registers");
        for p in READWRITE_PATHS {
            let req = QueryRequest::virtual_path(READWRITE_URI, READWRITE_SPEC, *p);
            let w = warm.run(&req).expect("warm query runs");
            let c = cold.run(&req).expect("cold query runs");
            assert_eq!(
                w.to_string_compact(),
                c.to_string_compact(),
                "warm views diverged from the rebuild on {p}"
            );
        }
    }

    #[test]
    fn report_counts_reader_progress() {
        let report = run_readwrite(&ReadWriteConfig {
            books: 8,
            readers: 2,
            batches: 2,
            batch_size: 3,
            seed: 1,
        });
        assert_eq!(report.edits, 6);
        assert!(
            report.recomputed > 0,
            "the first insert evicts the warmed view: {report:?}"
        );
    }
}
