//! The LRU plan cache.
//!
//! Planning is pure: the chosen partition is a deterministic function of
//! `(cluster signature, model, planner config)`. The cache keys on an
//! FNV-1a digest of that triple's **canonical** serialization (defaults
//! filled in, fields in fixed order — two spellings of the same request
//! share an entry) and stores the finished response body. Capacity is
//! bounded with least-recently-*used* eviction.
//!
//! The value type is generic. The daemon stores each entry as its
//! rendered hit body (`Arc<str>`, with `"cached": true` already in it),
//! so a hit clones a reference count under the lock and writes the
//! stored bytes; nothing is deep-cloned or rendered again. The default
//! `Json` value keeps a cache of response trees for callers that want
//! one.
//!
//! Invalidation is explicit and global: when resource dynamics change in
//! ways the cluster signature does not capture (a calibration update, a
//! topology edit out-of-band), `POST /invalidate` bumps the generation
//! and drops every entry. The generation is echoed in `/plan` and
//! `/stats` responses so clients can tell which epoch served them.

use std::collections::{BTreeMap, HashMap};

use ap_json::Json;

/// 64-bit FNV-1a: canonical digest of a cache key string.
pub fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A cached response together with its recency tick.
struct Entry<V> {
    response: V,
    tick: u64,
}

/// A bounded LRU map from request digest to finished plan response.
///
/// Recency is a monotone tick per touch, indexed by a `BTreeMap` from
/// tick to digest: the map's first key is always the least recently used
/// entry, so every operation — lookup, touch, insert, evict — is
/// O(log n), never the O(n) scan-and-shift of a recency `Vec`.
pub struct PlanCache<V = Json> {
    capacity: usize,
    map: HashMap<u64, Entry<V>>,
    /// Recency index: touch tick → digest, oldest tick first.
    recency: BTreeMap<u64, u64>,
    /// Monotone touch counter; ticks are never reused.
    tick: u64,
    hits: u64,
    misses: u64,
    generation: u64,
}

impl<V: Clone> PlanCache<V> {
    /// An empty cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            generation: 0,
        }
    }

    /// Look up a digest, refreshing its recency. Counts a hit or miss.
    /// A hit returns a clone of the stored value.
    pub fn get(&mut self, digest: u64) -> Option<V> {
        match self.map.contains_key(&digest) {
            true => {
                self.hits += 1;
                self.touch(digest);
                Some(self.map[&digest].response.clone())
            }
            false => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly computed plan, evicting the least recently used
    /// entry if full.
    pub fn insert(&mut self, digest: u64, response: V) {
        if let Some(e) = self.map.get_mut(&digest) {
            e.response = response;
            self.touch(digest);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some((_, lru)) = self.recency.pop_first() {
                self.map.remove(&lru);
            }
        }
        self.tick += 1;
        self.recency.insert(self.tick, digest);
        self.map.insert(
            digest,
            Entry {
                response,
                tick: self.tick,
            },
        );
    }

    /// Drop everything and bump the generation.
    pub fn invalidate_all(&mut self) -> u64 {
        self.map.clear();
        self.recency.clear();
        self.generation += 1;
        self.generation
    }

    /// `(hits, misses, entries, capacity, generation)`.
    pub fn stats(&self) -> (u64, u64, usize, usize, u64) {
        (
            self.hits,
            self.misses,
            self.map.len(),
            self.capacity,
            self.generation,
        )
    }

    /// Hit rate over all lookups so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn touch(&mut self, digest: u64) {
        if let Some(e) = self.map.get_mut(&digest) {
            self.recency.remove(&e.tick);
            self.tick += 1;
            e.tick = self.tick;
            self.recency.insert(self.tick, digest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn v(n: f64) -> Json {
        Json::Num(n)
    }

    #[test]
    fn digest_is_stable_and_spreads() {
        assert_eq!(fnv1a64("abc"), fnv1a64("abc"));
        assert_ne!(fnv1a64("abc"), fnv1a64("abd"));
        assert_ne!(fnv1a64(""), fnv1a64(" "));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert(1, v(1.0));
        c.insert(2, v(2.0));
        assert!(c.get(1).is_some()); // 1 is now most recent
        c.insert(3, v(3.0)); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        let (hits, misses, entries, capacity, generation) = c.stats();
        assert_eq!(
            (hits, misses, entries, capacity, generation),
            (3, 1, 2, 2, 0)
        );
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn invalidate_clears_and_bumps_generation() {
        let mut c = PlanCache::new(4);
        c.insert(1, v(1.0));
        assert_eq!(c.invalidate_all(), 1);
        assert!(c.get(1).is_none());
        assert_eq!(c.invalidate_all(), 2);
    }

    #[test]
    fn hits_share_the_stored_body() {
        let mut c: PlanCache<Arc<str>> = PlanCache::new(2);
        let body: Arc<str> = Arc::from("{\"cached\": true}");
        c.insert(1, Arc::clone(&body));
        let hit = c.get(1).unwrap();
        assert!(
            Arc::ptr_eq(&hit, &body),
            "a hit clones the pointer, not the bytes"
        );
    }

    #[test]
    fn reinsert_updates_value_in_place() {
        let mut c = PlanCache::new(2);
        c.insert(1, v(1.0));
        c.insert(1, v(9.0));
        assert_eq!(c.get(1), Some(v(9.0)));
        let (_, _, entries, _, _) = c.stats();
        assert_eq!(entries, 1);
    }
}
