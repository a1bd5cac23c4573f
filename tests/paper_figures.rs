//! Paper-fidelity suite: every figure and worked example in the available
//! text, pinned verbatim. If an implementation change breaks any number
//! the paper prints, it breaks here.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use vpbn_suite::core::{axes, VirtualDocument};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::query::{Engine, QueryRequest};
use vpbn_suite::xml::builder::paper_figure2;
use vpbn_suite::xml::NodeId;

fn setup() -> TypedDocument {
    TypedDocument::analyze(paper_figure2())
}

/// Figure 8: the PBN numbers of the Figure 2 instance, all nineteen.
#[test]
fn figure8_every_pbn_number() {
    let td = setup();
    let expected = [
        ("data", "1"),
        ("book", "1.1"),
        ("title", "1.1.1"),
        ("X", "1.1.1.1"),
        ("author", "1.1.2"),
        ("name", "1.1.2.1"),
        ("C", "1.1.2.1.1"),
        ("publisher", "1.1.3"),
        ("location", "1.1.3.1"),
        ("W", "1.1.3.1.1"),
        ("book", "1.2"),
        ("title", "1.2.1"),
        ("Y", "1.2.1.1"),
        ("author", "1.2.2"),
        ("name", "1.2.2.1"),
        ("D", "1.2.2.1.1"),
        ("publisher", "1.2.3"),
        ("location", "1.2.3.1"),
        ("M", "1.2.3.1.1"),
    ];
    let actual: Vec<(String, String)> = td
        .doc()
        .preorder()
        .map(|id| {
            let label = match td.doc().kind(id) {
                vpbn_suite::xml::NodeKind::Element { name, .. } => name.clone(),
                vpbn_suite::xml::NodeKind::Text(t) => t.clone(),
                other => format!("{other:?}"),
            };
            (label, td.pbn().pbn_of(id).to_string())
        })
        .collect();
    assert_eq!(actual.len(), expected.len());
    for ((al, an), (el, en)) in actual.iter().zip(expected.iter()) {
        assert_eq!((al.as_str(), an.as_str()), (*el, *en));
    }
}

/// Figure 7(a): the DataGuide of the original data — ten types.
#[test]
fn figure7a_dataguide() {
    let td = setup();
    let g = td.guide();
    assert_eq!(g.len(), 10);
    for path in [
        "data",
        "data.book",
        "data.book.title",
        "data.book.title.#text",
        "data.book.author",
        "data.book.author.name",
        "data.book.author.name.#text",
        "data.book.publisher",
        "data.book.publisher.location",
        "data.book.publisher.location.#text",
    ] {
        let parts: Vec<&str> = path.split('.').collect();
        assert!(g.lookup_path(&parts).is_some(), "missing type {path}");
    }
}

/// §4.1's worked example: "the typeOf author in Figure 7(b) is
/// title.author, and it has a length of 2. Its originalTypeOf is
/// data.book.author. The lcaTypeOf of title.author and title is title."
#[test]
fn section_4_1_type_examples() {
    let td = setup();
    let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
    let vg = vd.vdg().guide();
    let author = vg.lookup_path(&["title", "author"]).unwrap();
    assert_eq!(vg.path_string(author), "title.author");
    assert_eq!(vg.length(author), 2);
    assert_eq!(
        td.guide().path_string(vd.vdg().original_type(author)),
        "data.book.author"
    );
    let title = vg.lookup_path(&["title"]).unwrap();
    assert_eq!(vg.lca(author, title), Some(title));
}

/// Figure 10: the complete vPBN table — every visible node's number and
/// level array under Sam's transformation.
#[test]
fn figure10_complete_vpbn_table() {
    let td = setup();
    let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
    let expected: &[(&str, &[u32])] = &[
        ("1.1.1", &[1, 1, 1]),           // title
        ("1.1.1.1", &[1, 1, 1, 2]),      // X
        ("1.1.2", &[1, 1, 2]),           // author
        ("1.1.2.1", &[1, 1, 2, 3]),      // name
        ("1.1.2.1.1", &[1, 1, 2, 3, 4]), // C
        ("1.2.1", &[1, 1, 1]),           // title
        ("1.2.1.1", &[1, 1, 1, 2]),      // Y
        ("1.2.2", &[1, 1, 2]),           // author
        ("1.2.2.1", &[1, 1, 2, 3]),      // name
        ("1.2.2.1.1", &[1, 1, 2, 3, 4]), // D
    ];
    let actual: Vec<(String, Vec<u32>)> = vd
        .preorder()
        .iter()
        .map(|&n| {
            let v = vd.vpbn_of(n).unwrap();
            (td.pbn().pbn_of(n).to_string(), v.a.to_vec())
        })
        .collect();
    assert_eq!(actual.len(), expected.len());
    for ((an, aa), (en, ea)) in actual.iter().zip(expected.iter()) {
        assert_eq!(an, en, "number order");
        assert_eq!(aa.as_slice(), *ea, "level array of {an}");
    }
}

/// §5's worked predicate examples over Figure 10, all four, verbatim.
#[test]
fn section_5_predicate_walkthrough() {
    let td = setup();
    let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
    let by_pbn = |s: &str| -> NodeId {
        let p: vpbn_suite::pbn::Pbn = s.parse().unwrap();
        td.pbn().node_of(&p).unwrap()
    };
    // "The leftmost <name> is a virtual descendant of the leftmost <title>"
    assert!(vd.check(axes::v_descendant, by_pbn("1.1.2.1"), by_pbn("1.1.1")));
    // "But <name> is not a virtual descendant of the rightmost <title>"
    assert!(!vd.check(axes::v_descendant, by_pbn("1.1.2.1"), by_pbn("1.2.1")));
    // "Text node C 1.1.2.1.1 virtually precedes <author> 1.2.2"
    assert!(vd.check(axes::v_preceding, by_pbn("1.1.2.1.1"), by_pbn("1.2.2")));
    // "Finally C is not a virtual following-sibling of D"
    assert!(!vd.check(
        axes::v_following_sibling,
        by_pbn("1.1.2.1.1"),
        by_pbn("1.2.2.1.1")
    ));
}

/// §4.2's physical walkthrough: 1.1.2 vs 1.2.
#[test]
fn section_4_2_pbn_walkthrough() {
    use vpbn_suite::pbn::{axes as pax, Pbn};
    let a: Pbn = "1.1.2".parse().unwrap();
    let b: Pbn = "1.2".parse().unwrap();
    assert!(!pax::is_child(&a, &b));
    assert!(!pax::is_parent(&a, &b));
    assert!(!pax::is_ancestor(&a, &b));
    assert!(!pax::is_descendant(&a, &b));
    assert!(pax::is_preceding(&a, &b));
    assert!(!pax::is_preceding_sibling(&a, &b));
}

/// Figures 1/3: Sam's query produces the Figure 3 instance.
#[test]
fn figure1_and_3_sams_query() {
    let mut e = Engine::new();
    e.register(paper_figure2());
    let got = e
        .run(&QueryRequest::flwr(
            r#"for $t in doc("book.xml")//book/title
               let $a := $t/../author
               return <title>{$t/text()}{$a}</title>"#,
        ))
        .unwrap()
        .to_string_compact();
    assert_eq!(
        got,
        "<results>\
         <title>X<author><name>C</name></author></title>\
         <title>Y<author><name>D</name></author></title>\
         </results>"
    );
}

/// Figures 4/6: Rhonda's nested query and the virtualDoc formulation agree
/// and yield the counts the paper describes.
#[test]
fn figure4_and_6_rhondas_query() {
    let mut e = Engine::new();
    e.register(paper_figure2());
    // Figure 6 directly.
    let direct = e
        .run(&QueryRequest::flwr(
            r#"for $t in virtualDoc("book.xml", "title { author { name } }")//title
               return <result><title>{$t/text()}</title>
                              <count>{count($t/author)}</count></result>"#,
        ))
        .unwrap()
        .to_string_compact();
    assert_eq!(
        direct,
        "<results>\
         <result><title>X</title><count>1</count></result>\
         <result><title>Y</title><count>1</count></result>\
         </results>"
    );
    // Figure 4: nested (Sam materialized, then counted).
    let sam = e
        .run(&QueryRequest::flwr(
            r#"for $t in doc("book.xml")//book/title
               let $a := $t/../author
               return <title>{$t/text()}{$a}</title>"#,
        ))
        .unwrap()
        .document;
    e.register(sam);
    let nested = e
        .run(&QueryRequest::flwr(
            r#"for $t in doc("results")//title
               return <result><title>{$t/text()}</title>
                              <count>{count($t/author)}</count></result>"#,
        ))
        .unwrap()
        .to_string_compact();
    assert_eq!(nested, direct);
}

/// §4.1: the identity transformation in both spellings.
#[test]
fn section_4_1_identity_spellings() {
    let td = setup();
    let long = VirtualDocument::open(
        &td,
        "data { book { title author { name } publisher { location } } }",
    )
    .unwrap();
    let short = VirtualDocument::open(&td, "data { ** }").unwrap();
    assert_eq!(long.preorder(), short.preorder());
    assert_eq!(long.preorder(), td.doc().preorder().collect::<Vec<_>>());
}
