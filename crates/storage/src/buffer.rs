//! An LRU buffer pool over the page store.
//!
//! The experiments charge raw page touches by default; the buffer pool
//! refines the model: repeated touches of a hot page are hits, capacity
//! misses evict the least-recently-used frame. This is the standard DBMS
//! layer between §6's value reads and the "disk", and it lets experiments
//! separate cold from warm behaviour.
//!
//! Frames carry page *data*, so the store can serve verified reads from
//! the pool — and when a resident frame no longer passes CRC verification
//! (simulated memory corruption, see [`BufferPool::poison_frame`]), the
//! store **quarantines** it: the frame is dropped, counted, and the page
//! refetched from the device.

use std::cell::RefCell;
use std::collections::HashMap;

/// Aggregate buffer-pool counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to "go to disk".
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Frames dropped because their content failed verification.
    pub quarantines: u64,
}

impl BufferStats {
    /// Hit ratio in `[0, 1]`; 0 when nothing was requested.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident page.
#[derive(Debug, Default)]
struct Frame {
    tick: u64,
    data: Vec<u8>,
}

/// A fixed-capacity LRU pool of page frames.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    inner: RefCell<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    frames: HashMap<usize, Frame>,
    tick: u64,
    stats: BufferStats,
}

impl Inner {
    fn evict_if_full(&mut self, capacity: usize, incoming: usize) {
        if !self.frames.contains_key(&incoming) && self.frames.len() >= capacity {
            // Evict the least recently used frame.
            if let Some((&victim, _)) = self.frames.iter().min_by_key(|(_, f)| f.tick) {
                self.frames.remove(&victim);
                self.stats.evictions += 1;
            }
        }
    }
}

impl BufferPool {
    /// Creates a pool holding up to `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            inner: RefCell::new(Inner::default()),
        }
    }

    /// The frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `page`. A resident frame counts a hit (and is touched for
    /// LRU); absence counts a miss. Returns a copy of the frame's data.
    pub fn lookup(&self, page: usize) -> Option<Vec<u8>> {
        let mut inner = self.inner.borrow_mut();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.frames.get_mut(&page) {
            Some(frame) => {
                frame.tick = tick;
                let data = frame.data.clone();
                inner.stats.hits += 1;
                Some(data)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Installs `data` as the frame for `page`, evicting the LRU frame if
    /// the pool is full. Does not count a hit or a miss (the preceding
    /// [`BufferPool::lookup`] did).
    pub fn insert(&self, page: usize, data: Vec<u8>) {
        let mut inner = self.inner.borrow_mut();
        inner.evict_if_full(self.capacity, page);
        inner.tick += 1;
        let tick = inner.tick;
        inner.frames.insert(page, Frame { tick, data });
    }

    /// Drops the frame for `page` because its content failed verification.
    /// Counts a quarantine when a frame was actually resident.
    pub fn quarantine(&self, page: usize) -> bool {
        let mut inner = self.inner.borrow_mut();
        let dropped = inner.frames.remove(&page).is_some();
        if dropped {
            inner.stats.quarantines += 1;
        }
        dropped
    }

    /// Fault-injection hook: XORs `mask` into byte `byte` of the resident
    /// frame for `page`, simulating in-memory corruption of a cached page.
    /// Returns false when the page is not resident (nothing corrupted).
    pub fn poison_frame(&self, page: usize, byte: usize, mask: u8) -> bool {
        let mut inner = self.inner.borrow_mut();
        match inner.frames.get_mut(&page) {
            Some(frame) if byte < frame.data.len() => {
                frame.data[byte] ^= mask;
                true
            }
            _ => false,
        }
    }

    /// Requests the inclusive page range `[first, last]`, updating LRU
    /// state and counters without caching data (the id-only accounting
    /// mode used by the I/O-model experiments). Returns (hits, misses)
    /// for this request.
    pub fn access_range(&self, first: usize, last: usize) -> (u64, u64) {
        let (mut hits, mut misses) = (0, 0);
        for page in first..=last {
            if self.lookup(page).is_some() {
                hits += 1;
            } else {
                misses += 1;
                self.insert(page, Vec::new());
            }
        }
        (hits, misses)
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.inner.borrow().frames.len()
    }

    /// Counters since the last [`BufferPool::reset`].
    pub fn stats(&self) -> BufferStats {
        self.inner.borrow().stats
    }

    /// Clears counters (resident frames stay — a warm reset).
    pub fn reset(&self) {
        self.inner.borrow_mut().stats = BufferStats::default();
    }

    /// Drops every frame and clears counters (a cold reset).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.frames.clear();
        inner.stats = BufferStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let p = BufferPool::new(4);
        assert_eq!(p.access_range(0, 2), (0, 3));
        assert_eq!(p.access_range(0, 2), (3, 0));
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 3, 0));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(p.resident(), 3);
    }

    #[test]
    fn lru_evicts_the_coldest_frame() {
        let p = BufferPool::new(2);
        p.access_range(1, 1); // miss, resident {1}
        p.access_range(2, 2); // miss, resident {1,2}
        p.access_range(1, 1); // hit — 1 is now hotter than 2
        p.access_range(3, 3); // miss, evicts 2
        assert_eq!(p.access_range(1, 1), (1, 0), "1 survived");
        assert_eq!(p.access_range(2, 2), (0, 1), "2 was evicted");
        assert_eq!(p.stats().evictions, 2);
    }

    #[test]
    fn clear_vs_reset() {
        let p = BufferPool::new(4);
        p.access_range(0, 3);
        p.reset();
        assert_eq!(p.stats(), BufferStats::default());
        assert_eq!(p.resident(), 4, "warm reset keeps frames");
        assert_eq!(p.access_range(0, 3).0, 4, "all hits after warm reset");
        p.clear();
        assert_eq!(p.resident(), 0);
        assert_eq!(p.access_range(0, 0), (0, 1));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(0);
    }

    #[test]
    fn hit_ratio_of_empty_pool_is_zero() {
        assert_eq!(BufferPool::new(1).stats().hit_ratio(), 0.0);
    }

    #[test]
    fn frames_cache_data() {
        let p = BufferPool::new(2);
        assert_eq!(p.lookup(7), None);
        p.insert(7, vec![1, 2, 3]);
        assert_eq!(p.lookup(7), Some(vec![1, 2, 3]));
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn quarantine_drops_the_frame_and_counts() {
        let p = BufferPool::new(2);
        p.insert(3, vec![9]);
        assert!(p.quarantine(3));
        assert!(!p.quarantine(3), "already gone");
        assert_eq!(p.stats().quarantines, 1);
        assert_eq!(p.lookup(3), None);
    }

    #[test]
    fn poison_flips_resident_bytes_only() {
        let p = BufferPool::new(2);
        p.insert(0, vec![0b1010, 0b0101]);
        assert!(p.poison_frame(0, 1, 0b0001));
        assert_eq!(p.lookup(0), Some(vec![0b1010, 0b0100]));
        assert!(!p.poison_frame(0, 9, 1), "byte out of range");
        assert!(!p.poison_frame(5, 0, 1), "page not resident");
    }
}
