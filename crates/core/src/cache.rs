//! Sharded LRU cache for per-view compiled artifacts.
//!
//! Four artifacts are recomputed from scratch on every query in a naive
//! engine: the expanded [`VDataGuide`], the Algorithm-1 [`LevelMap`], the
//! [`PrefixTables`] of precomputed scan-range prefixes (all three pure
//! functions of `(document guide, transform spec)`), and the per-type
//! [`TypeIndex`] of the view, which additionally depends on the document's
//! nodes and is the only per-node-cost artifact — caching it makes warm
//! view opens O(1) in document size. [`ExecCache`] memoizes each behind a
//! [`ShardedLru`] keyed by [`ViewKey`] — the document URI, a fingerprint
//! of its DataGuide, and the transform spec — so re-registering a document
//! (which may change the guide) naturally misses, and
//! [`ExecCache::invalidate_uri`] evicts everything for a URI explicitly
//! (which is what keeps a re-registered same-shaped document from serving
//! a stale node index).
//!
//! The cache is `Sync`: shards are independent mutexes, counters are
//! atomics, and values are handed out as cheap clones (`Arc`s at the call
//! sites), so parallel query stages can share one cache without a global
//! lock. Hit/miss/eviction/invalidation counters are surfaced through
//! [`CacheStats`] alongside the storage layer's `StorageStats`.
//!
//! ## Edits evict, views recompute
//!
//! Documents are mutable, and an edit that adds or removes numbered nodes
//! can change every artifact of the URI — the per-node index always, the
//! guide-shaped three whenever it interns a new type.
//! [`ExecCache::evict_edited`] drops every entry of the edited URI through
//! the same [`ExecCache::invalidate_uri`] that re-registration uses, and
//! the next query rebuilds each artifact with its one constructor.
//! Deriving a view is cheap by design (level arrays are per type, the
//! index is one pass in document order), so an edit costs nothing per
//! warm view and the first query after it pays one rebuild per view it
//! opens.

use crate::levels::LevelMap;
use crate::range::PrefixTables;
use crate::vdg::VDataGuide;
use crate::vdoc::TypeIndex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use vh_dataguide::DataGuide;

/// Number of independent mutex-protected shards per map.
const SHARDS: usize = 8;

/// Default total entry capacity of each artifact map.
pub const DEFAULT_CAPACITY: usize = 1024;

/// One shard: a key → (last-use tick, value) map.
struct Shard<K, V> {
    entries: HashMap<K, (u64, V)>,
}

/// A thread-safe, sharded, least-recently-used map.
///
/// Keys hash to one of `SHARDS` (8) independent mutexes; recency is a global
/// atomic tick stamped on every hit and insert, and eviction removes the
/// smallest-stamp entry of the full shard. Values must be cheap to clone —
/// callers store `Arc`s.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a map holding at most `capacity` entries (split evenly
    /// across shards, minimum one per shard).
    pub fn new(capacity: usize) -> Self {
        let capacity_per_shard = capacity.div_ceil(SHARDS).max(1);
        ShardedLru {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                    })
                })
                .collect(),
            capacity_per_shard,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Locks the shard for `key`, recovering from poisoning (the cache
    /// holds only plain data, so a panicking holder leaves it consistent).
    fn shard_for(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        let idx = (h.finish() as usize) % self.shards.len();
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let tick = self.next_tick();
        let mut shard = self.shard_for(key);
        match shard.entries.get_mut(key) {
            Some((stamp, v)) => {
                *stamp = tick;
                let v = v.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `key → value`, evicting the shard's least-recently-used
    /// entry if it is full and `key` is not already present.
    pub fn insert(&self, key: K, value: V) {
        let tick = self.next_tick();
        let mut shard = self.shard_for(&key);
        if shard.entries.len() >= self.capacity_per_shard && !shard.entries.contains_key(&key) {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(key, (tick, value));
    }

    /// Returns the cached value for `key`, or computes, stores and returns
    /// it. The computation runs outside the shard lock; two racing threads
    /// may both compute, but both arrive at the same pure-function value.
    pub fn get_or_try_insert<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let v = compute()?;
        self.insert(key.clone(), v.clone());
        Ok(v)
    }

    /// Removes every entry whose key fails `keep`, counting the removals
    /// as invalidations. Returns how many entries were dropped.
    pub fn retain(&self, keep: impl Fn(&K) -> bool) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let before = shard.entries.len();
            shard.entries.retain(|k, _| keep(k));
            dropped += before - shard.entries.len();
        }
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                match s.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                }
                .entries
                .len()
            })
            .sum()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry without counting invalidations.
    pub fn clear(&self) {
        for shard in &self.shards {
            match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
            .entries
            .clear();
        }
    }

    /// Counter snapshot plus current entry count.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Counter snapshot of one artifact map.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by LRU capacity pressure.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidations: u64,
    /// Live entries right now.
    pub entries: usize,
}

impl CacheCounters {
    /// Hit ratio in `[0, 1]`; `None` before any lookup.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Per-artifact counters for the whole [`ExecCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// vDataGuide expansion cache.
    pub expansions: CacheCounters,
    /// Algorithm-1 level-map cache.
    pub levels: CacheCounters,
    /// Scan-range prefix-table cache.
    pub tables: CacheCounters,
    /// Per-type node-index cache.
    pub indexes: CacheCounters,
    /// Always 0: edits evict instead of patching entries. Kept so the
    /// snapshot's JSON shape stays stable for wire clients.
    pub maintained: u64,
    /// Entries an edit evicted (each is recomputed on its view's next open).
    pub recomputed: u64,
    /// Always 0, for the same reason as `maintained`.
    pub fallback_evictions: u64,
}

impl CacheStats {
    /// Total hits across all four artifact maps.
    pub fn total_hits(&self) -> u64 {
        self.expansions.hits + self.levels.hits + self.tables.hits + self.indexes.hits
    }

    /// Total misses across all four artifact maps.
    pub fn total_misses(&self) -> u64 {
        self.expansions.misses + self.levels.misses + self.tables.misses + self.indexes.misses
    }

    /// Total explicit invalidations across all four artifact maps.
    pub fn total_invalidations(&self) -> u64 {
        self.expansions.invalidations
            + self.levels.invalidations
            + self.tables.invalidations
            + self.indexes.invalidations
    }
}

/// Cache key of one compiled view: which document (URI), which shape of
/// that document (guide fingerprint — re-registering changed content
/// changes the fingerprint), and which transform spec.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ViewKey {
    /// Document URI.
    pub uri: String,
    /// Fingerprint of the document's DataGuide (see [`guide_fingerprint`]).
    pub guide: u64,
    /// The vDataGuide transform spec, verbatim.
    pub spec: String,
}

impl ViewKey {
    /// Builds a key from its parts.
    pub fn new(uri: impl Into<String>, guide: u64, spec: impl Into<String>) -> Self {
        ViewKey {
            uri: uri.into(),
            guide,
            spec: spec.into(),
        }
    }
}

/// Order-sensitive fingerprint of a DataGuide: hashes every type's path
/// and PBN length, so structural changes to the document schema produce a
/// different [`ViewKey`] even under the same URI.
pub fn guide_fingerprint(guide: &DataGuide) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    guide.len().hash(&mut h);
    for ty in guide.type_ids() {
        guide.path_string(ty).hash(&mut h);
        guide.length(ty).hash(&mut h);
    }
    h.finish()
}

/// The engine-wide artifact cache: one [`ShardedLru`] per compiled-view
/// artifact, shared across queries (and across threads — the whole struct
/// is `Sync`).
pub struct ExecCache {
    /// Expanded virtual guides keyed by view.
    pub expansions: ShardedLru<ViewKey, Arc<VDataGuide>>,
    /// Algorithm-1 level maps keyed by view.
    pub levels: ShardedLru<ViewKey, Arc<LevelMap>>,
    /// Precomputed scan-range prefix tables keyed by view.
    pub tables: ShardedLru<ViewKey, Arc<PrefixTables>>,
    /// Per-type node indexes keyed by view. Unlike the other artifacts this
    /// depends on the document's *nodes*, not just its guide, so an edit
    /// that inserts already-interned types leaves the key unchanged while
    /// moving nodes — [`ExecCache::evict_edited`] is what keeps it fresh.
    pub indexes: ShardedLru<ViewKey, Arc<TypeIndex>>,
    /// Entries evicted by [`ExecCache::evict_edited`].
    recomputed: AtomicU64,
}

impl ExecCache {
    /// Creates a cache where each artifact map holds up to `capacity`
    /// entries.
    pub fn new(capacity: usize) -> Self {
        ExecCache {
            expansions: ShardedLru::new(capacity),
            levels: ShardedLru::new(capacity),
            tables: ShardedLru::new(capacity),
            indexes: ShardedLru::new(capacity),
            recomputed: AtomicU64::new(0),
        }
    }

    /// Evicts every artifact compiled for `uri` (all specs, all guide
    /// fingerprints). Returns the number of entries dropped.
    pub fn invalidate_uri(&self, uri: &str) -> usize {
        self.expansions.retain(|k| k.uri != uri)
            + self.levels.retain(|k| k.uri != uri)
            + self.tables.retain(|k| k.uri != uri)
            + self.indexes.retain(|k| k.uri != uri)
    }

    /// [`ExecCache::invalidate_uri`] for an edit that spliced numbered
    /// nodes into or out of `uri`: the drops also count as `recomputed`,
    /// since each evicted artifact is rebuilt by its view's next open.
    pub fn evict_edited(&self, uri: &str) -> usize {
        let dropped = self.invalidate_uri(uri);
        self.recomputed.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Drops everything, without counting invalidations.
    pub fn clear(&self) {
        self.expansions.clear();
        self.levels.clear();
        self.tables.clear();
        self.indexes.clear();
    }

    /// Counter snapshot across the four artifact maps.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            expansions: self.expansions.counters(),
            levels: self.levels.counters(),
            tables: self.tables.counters(),
            indexes: self.indexes.counters(),
            recomputed: self.recomputed.load(Ordering::Relaxed),
            ..CacheStats::default()
        }
    }
}

impl Default for ExecCache {
    fn default() -> Self {
        ExecCache::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_miss_then_hit() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(16);
        assert_eq!(lru.get(&1), None);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), Some(10));
        let c = lru.counters();
        assert_eq!((c.hits, c.misses, c.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_drops_least_recently_used() {
        // Capacity 8 over 8 shards → one entry per shard. Two keys in the
        // same shard force an eviction of the older one.
        let lru: ShardedLru<u32, u32> = ShardedLru::new(8);
        let mut in_shard: Vec<u32> = Vec::new();
        let mut k = 0;
        while in_shard.len() < 2 {
            let mut h = std::hash::DefaultHasher::new();
            k.hash(&mut h);
            if (h.finish() as usize) % SHARDS == 0 {
                in_shard.push(k);
            }
            k += 1;
        }
        lru.insert(in_shard[0], 100);
        lru.insert(in_shard[1], 200);
        assert_eq!(lru.counters().evictions, 1);
        assert_eq!(lru.get(&in_shard[0]), None, "older entry evicted");
        assert_eq!(lru.get(&in_shard[1]), Some(200));
    }

    #[test]
    fn get_or_try_insert_computes_once_per_key() {
        let lru: ShardedLru<String, u32> = ShardedLru::new(16);
        let key = "k".to_string();
        let v: Result<u32, ()> = lru.get_or_try_insert(&key, || Ok(7));
        assert_eq!(v, Ok(7));
        let v2: Result<u32, ()> = lru.get_or_try_insert(&key, || panic!("cached"));
        assert_eq!(v2, Ok(7));
        let err: Result<u32, &str> = lru.get_or_try_insert(&"e".to_string(), || Err("boom"));
        assert_eq!(err, Err("boom"));
        assert_eq!(lru.len(), 1, "failed computations are not cached");
    }

    #[test]
    fn retain_counts_invalidations() {
        let cache = ExecCache::new(16);
        let a = ViewKey::new("a.xml", 1, "title { author }");
        let b = ViewKey::new("b.xml", 2, "title { author }");
        let g = Arc::new(LevelMap::build(
            &VDataGuide::compile("data { ** }", &test_guide()).unwrap(),
            &test_guide(),
        ));
        cache.levels.insert(a.clone(), g.clone());
        cache.levels.insert(b.clone(), g);
        assert_eq!(cache.invalidate_uri("a.xml"), 1);
        assert_eq!(cache.levels.len(), 1);
        assert!(cache.levels.get(&a).is_none());
        assert!(cache.levels.get(&b).is_some());
        assert_eq!(cache.stats().levels.invalidations, 1);
        assert_eq!(cache.stats().total_invalidations(), 1);
        assert_eq!(
            cache.stats().recomputed,
            0,
            "re-registration is not an edit"
        );
        // An edit evicts through the same rule and counts the drops.
        assert_eq!(cache.evict_edited("b.xml"), 1);
        assert!(cache.levels.is_empty());
        assert_eq!(cache.stats().recomputed, 1);
    }

    #[test]
    fn fingerprint_tracks_guide_shape() {
        let g1 = test_guide();
        let g2 = test_guide();
        assert_eq!(guide_fingerprint(&g1), guide_fingerprint(&g2));
        let (other, _) =
            DataGuide::from_document(&vh_xml::parse("mem://t", "<data><extra/></data>").unwrap());
        assert_ne!(guide_fingerprint(&g1), guide_fingerprint(&other));
    }

    #[test]
    fn hit_ratio_reporting() {
        let c = CacheCounters::default();
        assert_eq!(c.hit_ratio(), None);
        let c = CacheCounters {
            hits: 3,
            misses: 1,
            ..CacheCounters::default()
        };
        assert_eq!(c.hit_ratio(), Some(0.75));
    }

    fn test_guide() -> DataGuide {
        let (g, _) = DataGuide::from_document(&vh_xml::builder::paper_figure2());
        g
    }
}
