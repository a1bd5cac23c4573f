//! Persisted columnar PBN key arena.
//!
//! The [`vh_pbn::PbnArena`] is the hot-path representation of a document's
//! numbering: one contiguous document-order buffer of encoded keys plus a
//! `u32` offset table. This module gives it an on-disk image so a store can
//! be reopened without renumbering the document — the columns are written
//! verbatim, the offsets never recomputed, and a reopened assignment is
//! byte-identical to the one built at analyze time.
//!
//! Image layout (version 2, all integers little-endian `u32`):
//!
//! | bytes                | content                                   |
//! |----------------------|-------------------------------------------|
//! | `0..4`               | magic `b"VPBC"`                           |
//! | `4..8`               | format version (`2`)                      |
//! | `8..12`              | slot count `n`                            |
//! | `12..16`             | node-id space size                        |
//! | `16..20`             | key-buffer length `k`                     |
//! | `20..20+4(n+1)`      | offset table (`n + 1` entries)            |
//! | `…+4n`               | document-order node-id column             |
//! | `…+k`                | concatenated encoded keys                 |
//! | last 4               | CRC32 of everything before                |
//!
//! Loading is fully untrusting: magic, version, section lengths and the
//! CRC are checked first, then [`vh_pbn::PbnArena::from_parts`] validates
//! the structural invariants (monotone offsets, unique in-range node ids,
//! keys in strictly increasing document order), then
//! [`vh_pbn::PbnAssignment::from_arena`] decodes every key, rejecting any
//! that is not a well-formed component sequence with the codec's code.
//! Any failure surfaces as [`StorageError::BadColumn`] — the suite facade
//! maps it to the storage exit class, never a panic or silent garbage.

use crate::crc::crc32;
use crate::error::StorageError;
use vh_pbn::{PbnArena, PbnAssignment};
use vh_xml::NodeId;

/// Magic bytes identifying a PBN column image.
const MAGIC: [u8; 4] = *b"VPBC";
/// Current image format version. Version 2 introduced minted (gap)
/// components in the key encoding — `0x00`/`0xF8` marker bytes inside a
/// key, see `vh_pbn::encode` — so version-1 images, whose byte ranges
/// were computed without gap exclusion, are rejected rather than
/// reinterpreted.
const VERSION: u32 = 2;

/// Serializes an assignment's key arena into the current column image.
pub fn encode_arena_column(assignment: &PbnAssignment) -> Vec<u8> {
    let arena = assignment.arena();
    let n = arena.len();
    let mut out = Vec::with_capacity(20 + 4 * (2 * n + 1) + arena.total_key_bytes() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(arena.id_space() as u32).to_le_bytes());
    out.extend_from_slice(&(arena.total_key_bytes() as u32).to_le_bytes());
    for &o in arena.offsets() {
        out.extend_from_slice(&o.to_le_bytes());
    }
    for &id in arena.nodes_in_order() {
        out.extend_from_slice(&(id.index() as u32).to_le_bytes());
    }
    out.extend_from_slice(arena.key_bytes());
    let sum = crc32(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Reconstructs an assignment from a column image, validating everything.
pub fn decode_arena_column(image: &[u8]) -> Result<PbnAssignment, StorageError> {
    let bad = |reason: String| StorageError::BadColumn {
        column: "pbn",
        reason,
    };
    if image.len() < 24 {
        return Err(bad(format!("image of {} bytes is too short", image.len())));
    }
    let (payload, trailer) = image.split_at(image.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(payload) != stored {
        return Err(bad("CRC32 mismatch".into()));
    }
    if payload[..4] != MAGIC {
        return Err(bad("bad magic".into()));
    }
    let version = read_u32(payload, 4);
    if version != VERSION {
        return Err(bad(format!("unsupported format version {version}")));
    }
    let n = read_u32(payload, 8) as usize;
    let id_space = read_u32(payload, 12) as usize;
    let key_len = read_u32(payload, 16) as usize;
    let expected = 20usize
        .checked_add(4 * (n + 1))
        .and_then(|x| x.checked_add(4 * n))
        .and_then(|x| x.checked_add(key_len));
    if expected != Some(payload.len()) {
        return Err(bad(format!(
            "section lengths do not add up: {} slots and {} key bytes in a {}-byte payload",
            n,
            key_len,
            payload.len()
        )));
    }
    let mut at = 20;
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(read_u32(payload, at));
        at += 4;
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(NodeId::from_index(read_u32(payload, at) as usize));
        at += 4;
    }
    let bytes = payload[at..].to_vec();
    let arena =
        PbnArena::from_parts(bytes, offsets, nodes, id_space).map_err(|e| bad(e.to_string()))?;
    PbnAssignment::from_arena(arena, id_space).map_err(|e| bad(e.to_string()))
}

/// Reads a little-endian `u32`; callers have already bounds-checked.
#[inline]
fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Must;
    use vh_dataguide::TypedDocument;
    use vh_xml::builder::paper_figure2;

    fn image() -> (TypedDocument, Vec<u8>) {
        let td = TypedDocument::analyze(paper_figure2());
        let img = encode_arena_column(td.pbn());
        (td, img)
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let (td, img) = image();
        let loaded = decode_arena_column(&img).must();
        assert_eq!(loaded.arena(), td.pbn().arena());
        for id in td.doc().preorder() {
            assert_eq!(loaded.pbn_of(id), td.pbn().pbn_of(id));
            assert_eq!(loaded.key_of(id), td.pbn().key_of(id));
        }
    }

    #[test]
    fn empty_document_round_trips() {
        let td = TypedDocument::analyze(vh_xml::Document::new("e.xml"));
        let img = encode_arena_column(td.pbn());
        assert!(decode_arena_column(&img).must().is_empty());
    }

    #[test]
    fn bit_flips_anywhere_are_rejected_by_the_crc() {
        let (_, img) = image();
        for at in [0, 5, 9, 21, img.len() / 2, img.len() - 5] {
            let mut bad = img.clone();
            bad[at] ^= 0x40;
            let err = decode_arena_column(&bad).unwrap_err();
            assert_eq!(err.code(), "STORAGE_BAD_COLUMN", "flip at {at}: {err}");
        }
    }

    #[test]
    fn truncated_images_are_rejected() {
        let (_, img) = image();
        assert!(decode_arena_column(&img[..10]).is_err());
        assert!(decode_arena_column(&[]).is_err());
        assert!(decode_arena_column(&img[..img.len() - 1]).is_err());
    }

    #[test]
    fn malformed_keys_surface_the_codec_code() {
        // Hand-build a CRC-valid image whose single key is a truncated
        // two-byte component: structural validation passes (one key is
        // trivially ordered), so the per-key codec check must catch it.
        let mut payload = Vec::new();
        payload.extend_from_slice(&MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes()); // one slot
        payload.extend_from_slice(&1u32.to_le_bytes()); // id space
        payload.extend_from_slice(&1u32.to_le_bytes()); // one key byte
        payload.extend_from_slice(&0u32.to_le_bytes()); // offsets[0]
        payload.extend_from_slice(&1u32.to_le_bytes()); // offsets[1]
        payload.extend_from_slice(&0u32.to_le_bytes()); // node 0
        payload.push(0b1000_0001); // first byte of a 2-byte component
        let sum = crc32(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        let err = decode_arena_column(&payload).unwrap_err();
        assert_eq!(err.code(), "STORAGE_BAD_COLUMN");
        assert!(err.to_string().contains("PBN_TRUNCATED"), "{err}");
    }

    #[test]
    fn version_1_images_are_rejected_not_reinterpreted() {
        // Version 1 keys predate minted (gap) components; their byte
        // ranges would be misread by the gap-aware walkers, so the loader
        // must refuse them outright.
        let (_, img) = image();
        let mut old = img[..img.len() - 4].to_vec();
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        let sum = crc32(&old);
        old.extend_from_slice(&sum.to_le_bytes());
        let err = decode_arena_column(&old).unwrap_err();
        assert_eq!(err.code(), "STORAGE_BAD_COLUMN");
        assert!(
            err.to_string().contains("unsupported format version 1"),
            "{err}"
        );
    }

    #[test]
    fn structurally_invalid_columns_are_rejected() {
        // Duplicate node ids pass the CRC (we recompute it) but fail the
        // arena's from_parts validation.
        let (td, _) = image();
        let arena = td.pbn().arena();
        let mut payload = Vec::new();
        payload.extend_from_slice(&MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&(arena.len() as u32).to_le_bytes());
        payload.extend_from_slice(&(arena.id_space() as u32).to_le_bytes());
        payload.extend_from_slice(&(arena.total_key_bytes() as u32).to_le_bytes());
        for &o in arena.offsets() {
            payload.extend_from_slice(&o.to_le_bytes());
        }
        for (i, &id) in arena.nodes_in_order().iter().enumerate() {
            let dup = if i == 1 {
                arena.nodes_in_order()[0]
            } else {
                id
            };
            payload.extend_from_slice(&(dup.index() as u32).to_le_bytes());
        }
        payload.extend_from_slice(arena.key_bytes());
        let sum = crc32(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        let err = decode_arena_column(&payload).unwrap_err();
        assert!(err.to_string().contains("two slots"), "{err}");
    }
}
