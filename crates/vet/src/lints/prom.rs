//! `prom-name`: Prometheus metric discipline.
//!
//! The exposition writer (`vh-obs`'s `PromWriter`) requires every metric
//! family to be opened (`# HELP`/`# TYPE`) before its samples, and the
//! workspace namespaces every metric `vpbn_` (the suite's historical
//! prefix; `vh_` is accepted for new subsystems). This lint checks both
//! facts at the call-site level, in every non-vendored file:
//!
//! * `.counter("name", "help")` / `.gauge("name", "help")` — the name
//!   must be namespaced snake_case; the call registers the family.
//! * `.sample("name", …)` — the name must be namespaced snake_case *and*
//!   belong to a family opened earlier in the same file.
//!
//! The two-string-argument shape is what distinguishes `PromWriter`
//! family openers from unrelated `counter(…)` lookups (e.g.
//! `Span::counter("axis.range_scans")`), so the lint needs no type
//! information.

use crate::findings::{Finding, Lint};
use crate::lints::Code;
use crate::workspace::{FileClass, SourceFile};

/// Accepted metric-name prefixes.
const PREFIXES: &[&str] = &["vpbn_", "vh_"];

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.class == FileClass::Vendor {
        return;
    }
    let code = Code::of(file);
    let mut families: Vec<String> = Vec::new();
    for i in 0..code.len() {
        if !code.is_punct(i, '.') {
            continue;
        }
        // `.counter("name", "help")` / `.gauge("name", "help")`
        let is_family = (code.is_ident(i + 1, "counter") || code.is_ident(i + 1, "gauge"))
            && code.is_punct(i + 2, '(')
            && code.str_at(i + 3).is_some()
            && code.is_punct(i + 4, ',')
            && code.str_at(i + 5).is_some();
        if is_family {
            let name = code.str_at(i + 3).unwrap_or_default().to_string();
            check_name(file, &code, out, i + 3, &name);
            families.push(name);
            continue;
        }
        // `.sample("name", …)`
        let is_sample = code.is_ident(i + 1, "sample")
            && code.is_punct(i + 2, '(')
            && code.str_at(i + 3).is_some()
            && code.is_punct(i + 4, ',');
        if is_sample {
            let name = code.str_at(i + 3).unwrap_or_default().to_string();
            check_name(file, &code, out, i + 3, &name);
            if !families.contains(&name) {
                file.report(
                    out,
                    Lint::PromName,
                    code.line(i + 3),
                    format!(
                        "sample of `{name}` before its family is opened with \
                         `.counter()`/`.gauge()` in this file (HELP/TYPE grouping)"
                    ),
                );
            }
        }
    }
}

fn check_name(file: &SourceFile, code: &Code<'_>, out: &mut Vec<Finding>, pos: usize, name: &str) {
    if is_metric_name(name) {
        return;
    }
    file.report(
        out,
        Lint::PromName,
        code.line(pos),
        format!(
            "metric name `{name}` is not namespaced snake_case \
             (expected `vpbn_`/`vh_` prefix and [a-z0-9_])"
        ),
    );
}

/// `vpbn_`/`vh_`-prefixed lowercase snake_case.
fn is_metric_name(name: &str) -> bool {
    let Some(rest) = PREFIXES.iter().find_map(|p| name.strip_prefix(p)) else {
        return false;
    };
    !rest.is_empty()
        && rest
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let f = SourceFile::from_source("crates/query/src/engine.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn disciplined_exposition_is_clean() {
        let src = r#"
fn metrics(w: &mut PromWriter) {
    w.counter("vpbn_queries_total", "Queries attempted.");
    w.sample("vpbn_queries_total", &[], 7);
    w.gauge("vh_cache_entries", "Live entries.");
    w.sample("vh_cache_entries", &[("artifact", "expansions")], 3);
}
"#;
        assert!(findings(src).is_empty());
    }

    #[test]
    fn bad_names_and_orphan_samples_fire() {
        let src = r#"
fn metrics(w: &mut PromWriter) {
    w.counter("queries_total", "No namespace.");
    w.counter("vpbn_BadName", "Uppercase.");
    w.sample("vpbn_orphan_total", &[], 1);
}
"#;
        let got = findings(src);
        assert_eq!(got.len(), 3);
        assert!(got[0].message.contains("queries_total"));
        assert!(got[1].message.contains("vpbn_BadName"));
        assert!(got[2].message.contains("before its family is opened"));
    }

    #[test]
    fn span_counter_lookups_are_not_families() {
        let src = r#"fn f(s: &Span) { let n = s.counter("axis.range_scans"); }"#;
        assert!(findings(src).is_empty());
    }

    #[test]
    fn vendor_files_are_exempt() {
        let f = SourceFile::from_source(
            "vendor/rand/src/lib.rs",
            r#"fn f(w: &mut W) { w.sample("anything", &[], 1); }"#,
        );
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty());
    }
}
