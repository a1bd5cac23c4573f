//! Aggregated storage statistics for the experiments.

/// A snapshot of storage sizes and access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Bytes of the serialized document string.
    pub document_bytes: usize,
    /// Pages the document string occupies.
    pub document_pages: usize,
    /// Bytes of the value index.
    pub value_index_bytes: usize,
    /// Bytes of the type index.
    pub type_index_bytes: usize,
    /// Bytes of the name index.
    pub name_index_bytes: usize,
    /// Bytes of the node header table (kind + type id + encoded PBN).
    pub header_bytes: usize,
    /// Bytes of the persisted PBN key-arena column image.
    pub pbn_column_bytes: usize,
    /// Pages read since the last counter reset.
    pub pages_read: u64,
    /// Bytes read since the last counter reset.
    pub bytes_read: u64,
    /// Retry attempts performed after failed page reads.
    pub read_retries: u64,
    /// Transient device faults observed (healed or not).
    pub transient_faults: u64,
    /// Pages delivered with a CRC32 mismatch.
    pub checksum_failures: u64,
    /// Buffer-pool frames quarantined after failing verification.
    pub quarantines: u64,
}

impl StorageStats {
    /// Total resident bytes (string + indexes + headers).
    pub fn total_bytes(&self) -> usize {
        self.document_bytes
            + self.value_index_bytes
            + self.type_index_bytes
            + self.name_index_bytes
            + self.header_bytes
            + self.pbn_column_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = StorageStats {
            document_bytes: 100,
            value_index_bytes: 10,
            type_index_bytes: 20,
            name_index_bytes: 5,
            header_bytes: 15,
            pbn_column_bytes: 50,
            ..StorageStats::default()
        };
        assert_eq!(s.total_bytes(), 200);
    }
}
