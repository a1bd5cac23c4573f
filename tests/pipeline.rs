//! End-to-end pipeline tests through the [`Engine`]: the paper's Sam →
//! Rhonda workflow in both formulations (nested/materialized vs
//! `virtualDoc`), at generated-corpus scale, plus storage-backed value
//! stitching.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use vpbn_suite::core::value::virtual_value;
use vpbn_suite::core::VirtualDocument;
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::query::{Engine, QueryRequest};
use vpbn_suite::storage::StoredDocument;
use vpbn_suite::workload::queries::{rhonda_flwr, rhonda_over_materialized, sam_flwr};
use vpbn_suite::workload::{generate_books, generate_xmark, BooksConfig, XmarkConfig};
use vpbn_suite::xml::{serialize, SerializeOptions};

/// The headline equivalence at corpus scale: Rhonda-over-virtualDoc equals
/// Rhonda-over-materialized-Sam, byte for byte.
#[test]
fn nested_and_virtualdoc_formulations_agree_on_books() {
    let mut e = Engine::new();
    e.register(generate_books(
        "books.xml",
        &BooksConfig {
            books: 40,
            max_authors: 4,
            rare_fraction: 0.2,
            seed: 17,
        },
    ));

    // Road 1: materialize Sam's output, query it physically.
    let sam_out = e
        .run(&QueryRequest::flwr(sam_flwr("books.xml")))
        .expect("Sam's query runs")
        .document;
    e.register(sam_out);
    let nested = e
        .run(&QueryRequest::flwr(rhonda_over_materialized("results")))
        .expect("Rhonda over materialized runs")
        .document;

    // Road 2: virtualDoc.
    let virtual_ = e
        .run(&QueryRequest::flwr(rhonda_flwr(
            "books.xml",
            "title { author { name } }",
        )))
        .expect("Rhonda over virtualDoc runs")
        .document;

    assert_eq!(
        serialize(&nested, SerializeOptions::compact()),
        serialize(&virtual_, SerializeOptions::compact())
    );
}

/// Counts in Rhonda's output equal the actual author multiplicities.
#[test]
fn rhonda_counts_match_author_fanout() {
    let cfg = BooksConfig {
        books: 25,
        max_authors: 5,
        rare_fraction: 0.0,
        seed: 23,
    };
    let doc = generate_books("books.xml", &cfg);
    // Ground truth from the physical tree.
    let truth: Vec<usize> = {
        let root = doc.root().unwrap();
        doc.children(root)
            .iter()
            .map(|&b| {
                doc.children(b)
                    .iter()
                    .filter(|&&c| doc.name(c) == Some("author"))
                    .count()
            })
            .collect()
    };
    let mut e = Engine::new();
    e.register(doc);
    let out = e
        .run(&QueryRequest::flwr(rhonda_flwr(
            "books.xml",
            "title { author { name } }",
        )))
        .unwrap()
        .document;
    let results = out.children(out.root().unwrap()).to_vec();
    assert_eq!(results.len(), truth.len());
    for (&r, &expected) in results.iter().zip(&truth) {
        let count_el = out.children(r)[1];
        assert_eq!(out.string_value(count_el), expected.to_string());
    }
}

/// XPath over a virtual view equals XPath over the materialized instance,
/// for a mixed query set on the auction corpus.
#[test]
fn virtual_xpath_equals_materialized_xpath_on_xmark() {
    let td = TypedDocument::analyze(generate_xmark(
        "xmark.xml",
        &XmarkConfig {
            scale: 0.02,
            seed: 9,
        },
    ));
    let spec = "open_auction { initial bidder { increase } }";
    let mut e = Engine::new();
    e.register(td.doc().clone());

    // Materialize through vh-core and register the result.
    let vdg = vpbn_suite::core::VDataGuide::compile(spec, td.guide()).unwrap();
    let mat = vpbn_suite::core::transform::materialize(&td, &vdg);
    e.register(mat.doc);

    for q in [
        "//open_auction",
        "//open_auction/bidder/increase",
        "//open_auction[count(bidder) >= 2]",
        "//open_auction[initial > 100]/bidder",
    ] {
        let virt = e
            .run(&QueryRequest::virtual_path("xmark.xml", spec, q))
            .unwrap()
            .nodes
            .unwrap_or_default()
            .len();
        let mat = e
            .run(&QueryRequest::path(
                format!("materialized:{}", "xmark.xml"),
                q,
            ))
            .unwrap()
            .nodes
            .unwrap_or_default()
            .len();
        assert_eq!(virt, mat, "query {q}");
    }
}

/// Store-backed stitching equals the reference (tree-serializing) source.
#[test]
fn stored_values_equal_reference_values() {
    let stored = StoredDocument::build(TypedDocument::analyze(generate_books(
        "books.xml",
        &BooksConfig {
            books: 15,
            max_authors: 3,
            rare_fraction: 0.1,
            seed: 31,
        },
    )));
    let td = stored.typed();
    for spec in [
        "title { author { name } }",
        "title { name { author } }",
        "location { title author { name } }",
        "data { ** }",
    ] {
        let vd = VirtualDocument::open(td, spec).unwrap();
        for root in vd.roots() {
            let (from_store, _) = virtual_value(&vd, &stored, root).expect("fault-free store");
            let (from_tree, _) = virtual_value(&vd, td, root).expect("in-memory stitch");
            assert_eq!(from_store, from_tree, "spec {spec}");
        }
    }
}

/// The engine's `virtualDoc` FLWR queries work on the auction corpus too
/// (different schema, case-2 view).
#[test]
fn flwr_over_xmark_person_city_view() {
    let mut e = Engine::new();
    e.register(generate_xmark(
        "xmark.xml",
        &XmarkConfig {
            scale: 0.02,
            seed: 9,
        },
    ));
    let out = e
        .run(&QueryRequest::flwr(
            r#"for $c in virtualDoc("xmark.xml",
                   "city { person { person.name emailaddress } }")//city
               return <row><city>{$c/text()}</city>
                           <n>{count($c/person)}</n></row>"#,
        ))
        .unwrap()
        .document;
    let rows = out.children(out.root().unwrap()).to_vec();
    assert!(!rows.is_empty());
    // Physically, each city sits inside exactly one person: every row
    // counts 1.
    for &r in &rows {
        assert_eq!(out.string_value(out.children(r)[1]), "1");
    }
}

/// Cross-document pipeline: join the books corpus against a separately
/// registered ratings document THROUGH a virtual view of the former.
#[test]
fn cross_document_join_through_a_virtual_view() {
    let mut e = Engine::new();
    e.register(generate_books(
        "books.xml",
        &BooksConfig {
            books: 5,
            max_authors: 2,
            rare_fraction: 0.0,
            seed: 77,
        },
    ));
    e.register_xml(
        "ratings.xml",
        "<ratings>\
           <r title='Title 0'>5</r>\
           <r title='Title 2'>3</r>\
           <r title='Title 4'>4</r>\
         </ratings>",
    )
    .unwrap();
    let out = e
        .run(&QueryRequest::flwr(
            r#"for $t in virtualDoc("books.xml", "title { author { name } }")//title
               for $r in doc("ratings.xml")//r
               where $t/text() = $r/@title
               order by $r descending
               return <hit><t>{$t/text()}</t>
                           <stars>{$r/text()}</stars>
                           <authors>{count($t/author)}</authors></hit>"#,
        ))
        .unwrap()
        .document;
    let rows = out.children(out.root().unwrap()).to_vec();
    assert_eq!(rows.len(), 3);
    // Ordered by rating, descending: 5, 4, 3.
    let stars: Vec<String> = rows
        .iter()
        .map(|&r| out.string_value(out.children(r)[1]))
        .collect();
    assert_eq!(stars, vec!["5", "4", "3"]);
    // Author counts come from the VIRTUAL hierarchy.
    for &r in &rows {
        let n: usize = out.string_value(out.children(r)[2]).parse().unwrap();
        assert!((1..=2).contains(&n));
    }
}

/// Identity view sanity at scale: every query answers identically over
/// `doc(...)` and `virtualDoc(..., "site { ** }")`.
#[test]
fn identity_view_is_transparent_on_xmark() {
    let mut e = Engine::new();
    e.register(generate_xmark(
        "xmark.xml",
        &XmarkConfig {
            scale: 0.01,
            seed: 2,
        },
    ));
    for q in [
        "//person/name",
        "//regions/europe/item",
        "//closed_auction[price >= 100]",
        "//open_auction/bidder[1]/increase",
    ] {
        let phys = e.run(&QueryRequest::path("xmark.xml", q)).unwrap().nodes;
        let virt = e
            .run(&QueryRequest::virtual_path("xmark.xml", "site { ** }", q))
            .unwrap()
            .nodes;
        assert_eq!(phys, virt, "query {q}");
    }
}
