//! Fixture library seeding the allow-comment edge cases (`vet-allow`,
//! `stale-allow`) over `hot-path` findings.
//!
//! Seeded findings: one suppressed index in `documented`, a reason-less
//! allow and an unknown-lint allow (each a `vet-allow` finding whose
//! `hot-path` index still fires), one stale allow, and a `#[cfg(test)]`
//! hot kernel that must stay silent.

/// A documented bounded index: suppressed, zero findings.
// vet: hot
pub fn documented(xs: &[u32]) -> u32 {
    // vet: allow(hot-path) — fixture: callers pass a non-empty slice
    xs[0]
}

/// A reason-less allow suppresses nothing: one `vet-allow` finding plus
/// the `hot-path` finding it failed to gate.
// vet: hot
pub fn reasonless(xs: &[u32]) -> u32 {
    // vet: allow(hot-path)
    xs[0]
}

/// An unknown lint id: one `vet-allow` finding plus the ungated
/// `hot-path` finding.
// vet: hot
pub fn unknown_lint(xs: &[u32]) -> u32 {
    // vet: allow(no-such-lint) — reason given but the lint is made up
    xs[0]
}

#[cfg(test)]
mod tests {
    // vet: hot
    fn test_code_is_exempt(xs: &[u32]) -> u32 {
        xs[0]
    }
}

/// Seeded `stale-allow`: the index this once gated is long gone.
pub fn healed(xs: &[u32]) -> u32 {
    // vet: allow(hot-path) — fixture: stale, the index was removed
    xs.first().copied().unwrap_or(0)
}
