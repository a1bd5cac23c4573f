//! The live gate: vets the real workspace on every `cargo test`.
//!
//! An off-vocabulary span name, a desynchronised `VhError` table or a
//! lock-order cycle fails this test immediately — CI wiring is a second
//! line of defence, not the first. The panic, `SAFETY:` and `Edit`
//! contracts live in `[workspace.lints.clippy]` instead, which binds only
//! the packages that opt in; the second test keeps every one of them in.

#![allow(clippy::expect_used)]

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/vet sits two levels below the workspace root")
}

#[test]
fn the_workspace_is_vet_clean() {
    let findings = vh_vet::vet_workspace(workspace_root()).expect("workspace walks cleanly");
    assert!(
        findings.is_empty(),
        "vh-vet findings in the live workspace:\n{}",
        findings
            .iter()
            .map(vh_vet::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// True when the manifest has a `[lints]` table holding `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_lib_package_opts_into_the_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let dir = entry.expect("crates/ entry reads").path();
        // vh-bench is a measurement harness, outside the panic contract.
        if dir.file_name().is_some_and(|n| n != "bench") {
            manifests.push(dir.join("Cargo.toml"));
        }
    }
    let missing: Vec<String> = manifests
        .iter()
        .filter(|m| {
            let text = std::fs::read_to_string(m).expect("manifest reads");
            !inherits_workspace_lints(&text)
        })
        .map(|m| m.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "packages without `[lints] workspace = true`:\n{}",
        missing.join("\n")
    );
}
