//! End-to-end fault-injection tests: a seeded faulty page device under the
//! full stack. The invariant throughout is *fail loudly, never lie* — a
//! read either returns the exact bytes the writer stored or a structured
//! [`StorageError`]; no fault may surface as a silently wrong answer.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Duration;
use vpbn_suite::core::value::virtual_value;
use vpbn_suite::core::VirtualDocument;
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::storage::{FaultConfig, RetryPolicy, StorageError, StoredDocument};
use vpbn_suite::workload::{generate_books, BooksConfig};
use vpbn_suite::VhError;

const PAGE: usize = 128;

fn corpus() -> TypedDocument {
    TypedDocument::analyze(generate_books("b.xml", &BooksConfig::sized(40)))
}

/// An instant-retry policy so fault-heavy tests don't sleep.
fn fast_retries(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

#[test]
fn transient_faults_heal_through_retry_and_are_counted() {
    let td = corpus();
    let oracle = StoredDocument::build_with_page_size(td.clone(), PAGE);
    let faulty = StoredDocument::build_with_faults(
        td,
        PAGE,
        FaultConfig::with_seed(42).transient_read_rate(0.3),
    )
    .with_retry_policy(fast_retries(16));

    // Every value matches the fault-free oracle byte for byte.
    for id in 0..oracle.typed().doc().len() {
        let id = vpbn_suite::xml::NodeId::from_index(id);
        assert_eq!(
            faulty.value_of(id).expect("retries heal transient faults"),
            oracle.value_of(id).expect("oracle store is fault-free"),
        );
    }

    // The healing was real work, and the stats surface it.
    let s = faulty.stats();
    assert!(s.transient_faults > 0, "faults were injected: {s:?}");
    assert!(s.read_retries > 0, "retries are visible in stats: {s:?}");
    assert!(
        s.read_retries >= s.transient_faults,
        "every transient fault costs at least one retry: {s:?}"
    );
    assert_eq!(s.checksum_failures, 0, "no corruption was injected");
}

#[test]
fn bit_flips_are_detected_and_healed_by_refetch() {
    let td = corpus();
    let oracle = StoredDocument::build_with_page_size(td.clone(), PAGE);
    // Flip a bit on ~40% of delivered pages; a refetch returns clean data,
    // so bounded retries always converge.
    let faulty =
        StoredDocument::build_with_faults(td, PAGE, FaultConfig::with_seed(7).bit_flip_rate(0.4))
            .with_retry_policy(fast_retries(32));

    for id in 0..oracle.typed().doc().len() {
        let id = vpbn_suite::xml::NodeId::from_index(id);
        assert_eq!(
            faulty.value_of(id).expect("refetch heals bit flips"),
            oracle.value_of(id).expect("oracle store is fault-free"),
            "a bit flip must never reach the caller"
        );
    }
    let s = faulty.stats();
    assert!(s.checksum_failures > 0, "flips were caught by CRC: {s:?}");
}

#[test]
fn torn_pages_surface_as_corrupt_never_as_wrong_bytes() {
    let td = corpus();
    let oracle = StoredDocument::build_with_page_size(td.clone(), PAGE);
    // Page 1 is torn: its tail half reads as zeroes on every attempt, so
    // no amount of retrying can produce a checksum-clean read.
    let faulty =
        StoredDocument::build_with_faults(td, PAGE, FaultConfig::with_seed(3).torn_page(1))
            .with_retry_policy(fast_retries(4));

    let mut corrupt_seen = 0usize;
    for id in 0..oracle.typed().doc().len() {
        let id = vpbn_suite::xml::NodeId::from_index(id);
        match faulty.value_of(id) {
            Ok(v) => assert_eq!(
                v,
                oracle.value_of(id).expect("oracle store is fault-free"),
                "values off the torn page must still be exact"
            ),
            Err(StorageError::Corrupt { page }) => {
                assert_eq!(page, 1, "only the torn page is corrupt");
                corrupt_seen += 1;
            }
            Err(other) => panic!("torn page must report Corrupt, got {other}"),
        }
    }
    assert!(corrupt_seen > 0, "some value spans the torn page");
}

#[test]
fn corruption_aborts_virtual_value_stitching_with_the_page() {
    let td = corpus();
    let faulty =
        StoredDocument::build_with_faults(td, PAGE, FaultConfig::with_seed(3).torn_page(0))
            .with_retry_policy(fast_retries(4));
    let vd =
        VirtualDocument::open(faulty.typed(), "title { author { name } }").expect("spec compiles");

    // The view's roots stitch values out of page 0; the fault must abort
    // the stitch with a chained StorageError, not return partial text.
    let title = vd.roots()[0];
    let err = virtual_value(&vd, &faulty, title).expect_err("page 0 is torn");
    let inner = err
        .inner()
        .downcast_ref::<StorageError>()
        .expect("stitch failures chain the storage cause");
    assert!(
        matches!(inner, StorageError::Corrupt { page: 0 }),
        "{inner}"
    );

    // And through the facade it keeps the precise storage code.
    let vh: VhError = err.into();
    assert_eq!(vh.code(), "STORAGE_CORRUPT");
    assert_eq!(vh.exit_code(), 7);
}

#[test]
fn quarantined_frames_are_refetched_not_served() {
    let td = corpus();
    let oracle = StoredDocument::build_with_page_size(td.clone(), PAGE);
    // Capacity covers the whole document so page 0 stays resident after
    // stitching the root's value (an 8-frame pool would evict it mid-read).
    let stored = StoredDocument::build_with_page_size(td, PAGE).with_buffer_pool(4096);

    let root = vpbn_suite::xml::NodeId::from_index(0);
    let clean = stored.value_of(root).expect("fault-free read");
    assert_eq!(
        clean,
        oracle.value_of(root).expect("oracle store is fault-free")
    );

    // Simulate in-memory corruption of a cached frame, then quarantine it:
    // the frame is dropped and the next read refetches from the device.
    let pool = stored.buffer_pool().expect("pool attached");
    assert!(pool.poison_frame(0, 3, 0xFF), "frame 0 is resident");
    assert!(pool.quarantine(0), "poisoned frame is quarantined");
    let after = stored.value_of(root).expect("refetch after quarantine");
    assert_eq!(after, clean, "quarantine must never serve poisoned bytes");
    assert!(stored.stats().quarantines > 0, "quarantine is in the stats");
}

#[test]
fn same_seed_reproduces_the_same_fault_history() {
    let run = || {
        let faulty = StoredDocument::build_with_faults(
            corpus(),
            PAGE,
            FaultConfig::with_seed(1234)
                .transient_read_rate(0.25)
                .bit_flip_rate(0.1),
        )
        .with_retry_policy(fast_retries(16));
        for id in 0..faulty.typed().doc().len() {
            let _ = faulty.value_of(vpbn_suite::xml::NodeId::from_index(id));
        }
        let s = faulty.stats();
        (s.transient_faults, s.checksum_failures, s.read_retries)
    };
    assert_eq!(run(), run(), "fault injection is deterministic per seed");
}
