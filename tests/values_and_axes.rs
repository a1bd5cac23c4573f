//! Deeper §6 value checks (escaping, page-size independence, buffer-pool
//! behaviour) and axis-heavy query equivalence between virtual views and
//! their materialized counterparts.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use vpbn_suite::core::transform::materialize;
use vpbn_suite::core::value::virtual_value;
use vpbn_suite::core::{VDataGuide, VirtualDocument};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::query::doc::{PhysicalDoc, VirtualDoc};
use vpbn_suite::query::xpath::{eval_xpath, parse_xpath};
use vpbn_suite::storage::StoredDocument;
use vpbn_suite::workload::{generate_books, BooksConfig};

/// Escaped characters survive the stored-range stitching byte-for-byte —
/// the ranges slice the *escaped* string, so no re-escaping may happen.
#[test]
fn stitched_values_preserve_escaping() {
    let td = TypedDocument::parse(
        "esc.xml",
        "<data><book><title>A &amp; B &lt;odd&gt;</title>\
         <author><name>O&apos;Hara &quot;Quote&quot;</name></author>\
         <publisher><location>X</location></publisher></book></data>",
    )
    .unwrap();
    let stored = StoredDocument::build(td.clone());
    let vd = VirtualDocument::open(stored.typed(), "title { author { name } }").unwrap();
    let title = vd.roots()[0];
    let (v, _) = virtual_value(&vd, &stored, title).expect("fault-free store");
    assert!(v.contains("A &amp; B &lt;odd&gt;"), "{v}");
    // The paper's value model serializes from the stored string: apostrophe
    // and quote are stored unescaped in text content.
    assert!(v.contains("O'Hara \"Quote\""), "{v}");
    // And the result re-parses.
    assert!(vpbn_suite::xml::parse("check", &v).is_ok());
}

/// Values are identical across page sizes (paging is an I/O accounting
/// concern, never a correctness one).
#[test]
fn values_are_page_size_independent() {
    let doc = generate_books("b.xml", &BooksConfig::sized(10));
    let mut outputs = Vec::new();
    for page_size in [16usize, 256, 4096] {
        let stored =
            StoredDocument::build_with_page_size(TypedDocument::analyze(doc.clone()), page_size);
        let vd = VirtualDocument::open(stored.typed(), "title { author { name } }").unwrap();
        let all: String = vd
            .roots()
            .iter()
            .map(|&r| virtual_value(&vd, &stored, r).expect("fault-free store").0)
            .collect();
        outputs.push(all);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

/// Repeatedly stitching the same virtual value becomes buffer-pool hits.
#[test]
fn repeated_stitching_warms_the_pool() {
    let stored = StoredDocument::build_with_page_size(
        TypedDocument::analyze(generate_books("b.xml", &BooksConfig::sized(50))),
        256,
    )
    .with_buffer_pool(64);
    let vd = VirtualDocument::open(stored.typed(), "title { author { name } }").unwrap();
    let title = vd.roots()[0];
    let _ = virtual_value(&vd, &stored, title);
    let cold = stored.buffer_stats().unwrap();
    assert!(cold.misses > 0);
    let _ = virtual_value(&vd, &stored, title);
    let warm = stored.buffer_stats().unwrap();
    assert_eq!(
        warm.misses, cold.misses,
        "second stitch of the same value reads only cached pages"
    );
    assert!(warm.hits > cold.hits);
}

/// Axis-heavy queries agree between the virtual view and its materialized
/// instance: ancestors, siblings, preceding/following, positions.
#[test]
fn axis_queries_agree_with_materialization() {
    let td = TypedDocument::analyze(generate_books(
        "b.xml",
        &BooksConfig {
            books: 10,
            max_authors: 3,
            rare_fraction: 0.2,
            seed: 41,
        },
    ));
    let spec = "title { author { name } }";
    let vd = VirtualDocument::open(&td, spec).unwrap();
    let vdg = VDataGuide::compile(spec, td.guide()).unwrap();
    let mat_td = TypedDocument::analyze(materialize(&td, &vdg).doc);

    let virt = VirtualDoc::new(&vd);
    let phys = PhysicalDoc::new(&mat_td);
    let mat_root = mat_td.doc().root().unwrap();
    for q in [
        "//name/ancestor::title",
        "//author/preceding-sibling::node()",
        "//author[1]/name",
        "//title/following-sibling::title",
        "//name/ancestor-or-self::*",
        "//title[last()]",
        "//author/parent::title",
        "//name/preceding::author",
    ] {
        let path = parse_xpath(q).unwrap();
        let virt_n = eval_xpath(&virt, &path).unwrap().len();
        // The materialized instance wraps the forest in a synthetic
        // `vroot` element; exclude it from wildcard results.
        let mat_n = eval_xpath(&phys, &path)
            .unwrap()
            .into_iter()
            .filter(|&n| n != mat_root)
            .count();
        assert_eq!(virt_n, mat_n, "query {q}");
    }
}

/// Virtual string values include exactly the virtual subtree's text — and
/// differ from the physical string value where the hierarchy moved.
#[test]
fn virtual_string_values_follow_the_virtual_subtree() {
    let td = TypedDocument::analyze(generate_books(
        "b.xml",
        &BooksConfig {
            books: 3,
            max_authors: 1,
            rare_fraction: 0.0,
            seed: 1,
        },
    ));
    let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
    let virt = VirtualDoc::new(&vd);
    use vpbn_suite::query::doc::QueryDoc;
    for &t in &vd.roots() {
        let virtual_sv = virt.string_value(t);
        let physical_sv = td.doc().string_value(t);
        // Virtually, the title contains its author's name text too.
        assert!(virtual_sv.starts_with(&physical_sv));
        assert!(virtual_sv.len() > physical_sv.len());
    }
}
