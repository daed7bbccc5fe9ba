//! A bounded LRU cache for the server's hot state.
//!
//! Long-lived servers must cap memory: interned module corpora are cached
//! per module seed in a strict least-recently-used structure with a fixed
//! capacity.  Eviction affects only *latency*, never *answers* — every
//! cached value is a pure function of its key — so worker scheduling (and
//! therefore hit/miss patterns) cannot leak into response bytes.

use std::collections::HashMap;
use std::hash::Hash;

/// A small bounded LRU map.
///
/// Operations are O(capacity) in the worst case (the recency list is a
/// plain vector); capacities here are single digits, where that beats
/// pointer-chasing.
#[derive(Debug)]
pub struct Lru<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: HashMap<K, V>,
    /// Keys from least- to most-recently used.
    recency: Vec<K>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Lru {
            capacity,
            map: HashMap::with_capacity(capacity),
            recency: Vec::with_capacity(capacity),
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if !self.map.contains_key(key) {
            return None;
        }
        self.touch(key);
        self.map.get(key)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_some() {
            self.touch(&key);
            return;
        }
        if self.recency.len() == self.capacity {
            let evicted = self.recency.remove(0);
            self.map.remove(&evicted);
        }
        self.recency.push(key);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn touch(&mut self, key: &K) {
        if let Some(pos) = self.recency.iter().position(|k| k == key) {
            let k = self.recency.remove(pos);
            self.recency.push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(&1), Some(&"a")); // 1 becomes most recent
        lru.insert(3, "c"); // evicts 2
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"a"));
        assert_eq!(lru.get(&3), Some(&"c"));
    }

    #[test]
    fn reinsert_refreshes_instead_of_growing() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(1, "b");
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), Some(&"b"));
        assert!(!lru.is_empty());
    }
}
