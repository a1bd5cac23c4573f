//! Robustness suite: every parser in the system must reject garbage with
//! an error — never panic — and the engines must fail cleanly on bad
//! input. Uses proptest to fuzz the grammars with adversarial-ish strings.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use vpbn_suite::core::{VDataGuide, VdgSpec};
use vpbn_suite::dataguide::TypedDocument;
use vpbn_suite::query::flwr::parse_flwr;
use vpbn_suite::query::twig::TwigPattern;
use vpbn_suite::query::xpath::parse_xpath;
use vpbn_suite::query::{Engine, QueryRequest};
use vpbn_suite::xml::builder::paper_figure2;
use vpbn_suite::xml::parse;

/// Characters likely to hit every branch of the tokenizers.
fn grammar_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("book".to_owned()),
            Just("title".to_owned()),
            Just("/".to_owned()),
            Just("//".to_owned()),
            Just("[".to_owned()),
            Just("]".to_owned()),
            Just("(".to_owned()),
            Just(")".to_owned()),
            Just("{".to_owned()),
            Just("}".to_owned()),
            Just("*".to_owned()),
            Just("**".to_owned()),
            Just("$v".to_owned()),
            Just("@id".to_owned()),
            Just("'lit".to_owned()),
            Just("\"q\"".to_owned()),
            Just("=".to_owned()),
            Just("<".to_owned()),
            Just(">".to_owned()),
            Just("::".to_owned()),
            Just("..".to_owned()),
            Just(".".to_owned()),
            Just(",".to_owned()),
            Just("|".to_owned()),
            Just("+".to_owned()),
            Just("-".to_owned()),
            Just("1.5".to_owned()),
            Just("for".to_owned()),
            Just("return".to_owned()),
            Just("doc(".to_owned()),
            Just(" ".to_owned()),
            "[a-z<>&;#]{1,4}".prop_map(|s| s),
        ],
        0..24,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The XPath parser never panics.
    #[test]
    fn xpath_parser_never_panics(input in grammar_soup()) {
        let _ = parse_xpath(&input);
    }

    /// The FLWR parser never panics.
    #[test]
    fn flwr_parser_never_panics(input in grammar_soup()) {
        let _ = parse_flwr(&input);
    }

    /// The vDataGuide parser never panics, and whatever parses either
    /// compiles against the Figure 2 guide or errors cleanly.
    #[test]
    fn vdg_parser_and_compiler_never_panic(input in grammar_soup()) {
        if let Ok(spec) = VdgSpec::parse(&input) {
            let td = TypedDocument::analyze(paper_figure2());
            let _ = spec.expand(td.guide());
        }
    }

    /// The twig pattern parser never panics.
    #[test]
    fn twig_parser_never_panics(input in grammar_soup()) {
        let _ = TwigPattern::parse(&input);
    }

    /// The XML parser never panics on arbitrary input (including markup
    /// fragments and control characters).
    #[test]
    fn xml_parser_never_panics(input in "[\\x20-\\x7e\\n<>&;'\"]{0,64}") {
        let _ = parse("fuzz", &input);
    }

    /// Whatever the XPath parser accepts, the evaluator processes without
    /// panicking on the Figure 2 document.
    #[test]
    fn accepted_xpaths_evaluate_cleanly(input in grammar_soup()) {
        if let Ok(p) = parse_xpath(&input) {
            let td = TypedDocument::analyze(paper_figure2());
            let doc = vpbn_suite::query::doc::PhysicalDoc::new(&td);
            let _ = vpbn_suite::query::xpath::eval_xpath(&doc, &p);
        }
    }
}

#[test]
fn engine_reports_clean_errors() {
    let mut e = Engine::new();
    e.register(paper_figure2());
    // Bad vDataGuide inside virtualDoc: error, not panic.
    let r = e.run(&QueryRequest::flwr(
        r#"for $t in virtualDoc("book.xml", "nosuch {")//t return <x/>"#,
    ));
    assert!(r.is_err());
    // Ambiguous label: error mentions candidates.
    let r = e.run(&QueryRequest::flwr(
        r##"for $t in virtualDoc("book.xml", "#text")//t return <x/>"##,
    ));
    let msg = format!("{}", r.unwrap_err());
    assert!(msg.contains("ambiguous"), "{msg}");
    // Unknown function.
    let r = e.run(&QueryRequest::flwr(
        r#"for $t in doc("book.xml")//book[frob()] return <x/>"#,
    ));
    assert!(r.is_err());
    // Bad XML registration.
    assert!(e.register_xml("bad.xml", "<a><b></a>").is_err());
}

#[test]
fn compile_errors_are_descriptive() {
    let td = TypedDocument::analyze(paper_figure2());
    let err = VDataGuide::compile("title { title }", td.guide()).unwrap_err();
    assert!(format!("{err}").contains("two virtual locations"), "{err}");
    let err = VDataGuide::compile("ghost", td.guide()).unwrap_err();
    assert!(format!("{err}").contains("matches no type"), "{err}");
}
