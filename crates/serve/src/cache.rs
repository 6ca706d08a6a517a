//! The LRU factor cache: the daemon's factor-once/solve-many memory.
//!
//! Keys are `(graph name, epoch, grounding set, resolved backend)` — the
//! full identity of a factorization. Values are [`OwnedFactor`]s (factors
//! holding a reference count on their graph, so entries survive graph
//! replacement until evicted) behind a per-entry mutex: `SddFactor`
//! methods take `&mut self` (stats accumulation, internal workspaces), so
//! concurrent solves against one factor serialize at the entry — which is
//! exactly what the batcher exploits by fusing them into one blocked
//! `solve_mat` instead.
//!
//! A thundering herd on a cold key counts **one** miss: the first arrival
//! inserts an empty entry (publishing it under the map lock) and builds
//! the factor under the entry lock; concurrent arrivals find the entry
//! (a hit), then block on the entry lock until the factor exists. The
//! expensive factorization itself never runs under the map lock.
//!
//! Entries also memoize two derived results that are deterministic given
//! the factor — the exact trace (direct backends read it off the
//! triangular factor, but at `O(n²)` a repeat would still hurt) and the
//! all-nodes centrality vector — so repeated queries collapse to pure
//! cache reads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cfcc_graph::Node;
use cfcc_linalg::sdd::{OwnedFactor, SddBackend};

use crate::poison::lock_recover;

/// Full identity of a cached factorization.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FactorKey {
    pub graph: String,
    pub epoch: u64,
    /// Grounding set in sorted order (canonical set form).
    pub grounding: Vec<Node>,
    /// Resolved backend (post-`auto`, never `Auto`), so `backend=auto`
    /// and an explicit `backend=sparse-cg` that resolves identically
    /// share an entry.
    pub backend: SddBackend,
}

/// One cache slot. The factor starts `None` and is built by the first
/// requester under the entry lock.
#[derive(Default)]
pub struct CacheEntry {
    factor: Mutex<Option<OwnedFactor>>,
    /// Memoized exact `Tr(L_{-S}^{-1})` (direct backends only).
    trace: Mutex<Option<f64>>,
    /// Memoized all-nodes centrality vector (single-node groundings).
    centrality: Mutex<Option<Arc<Vec<f64>>>>,
}

impl CacheEntry {
    /// Lock the factor slot (build-or-use seam).
    ///
    /// A panic during a build or solve (an injected fault, or a real bug)
    /// poisons this lock with a factor in an unknown state. Recover by
    /// clearing the slot: the next requester sees an empty entry and
    /// rebuilds, instead of every future request on this key panicking on
    /// the poisoned mutex.
    pub fn factor(&self) -> MutexGuard<'_, Option<OwnedFactor>> {
        match self.factor.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = None;
                guard
            }
        }
    }

    /// Memoized exact trace: compute once, then serve from memory.
    pub fn trace_or_compute<E>(&self, compute: impl FnOnce() -> Result<f64, E>) -> Result<f64, E> {
        // Memoized values are only written complete, so a poisoned lock
        // (panicking compute closure) can keep its contents.
        let mut slot = lock_recover(&self.trace);
        if let Some(t) = *slot {
            return Ok(t);
        }
        let t = compute()?;
        *slot = Some(t);
        Ok(t)
    }

    /// Memoized all-nodes centrality vector.
    pub fn centrality_or_compute<E>(
        &self,
        compute: impl FnOnce() -> Result<Vec<f64>, E>,
    ) -> Result<Arc<Vec<f64>>, E> {
        let mut slot = lock_recover(&self.centrality);
        if let Some(c) = &*slot {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(compute()?);
        *slot = Some(Arc::clone(&c));
        Ok(c)
    }
}

struct Slot {
    entry: Arc<CacheEntry>,
    last_used: u64,
}

/// Counters the `stats` response reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
}

impl CacheCounters {
    /// `hits / (hits + misses)`, 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LRU map from [`FactorKey`] to [`CacheEntry`]. In-flight `Arc`s keep
/// evicted entries alive until their last user drops them, so eviction
/// never races an ongoing solve.
pub struct FactorCache {
    capacity: usize,
    inner: Mutex<HashMap<FactorKey, Slot>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl FactorCache {
    /// An empty cache holding at most `capacity` factors (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetch the entry for `key`, inserting an empty one (and evicting the
    /// least-recently-used slot if at capacity) on miss. Returns
    /// `(entry, hit)`.
    pub fn get_or_insert(&self, key: &FactorKey) -> (Arc<CacheEntry>, bool) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut map = lock_recover(&self.inner);
        if let Some(slot) = map.get_mut(key) {
            slot.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(&slot.entry), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if map.len() >= self.capacity {
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let entry = Arc::new(CacheEntry::default());
        map.insert(
            key.clone(),
            Slot {
                entry: Arc::clone(&entry),
                last_used: tick,
            },
        );
        (entry, false)
    }

    /// Drop `key` (a failed factor build must not poison future requests
    /// with an empty entry that counts as a hit).
    pub fn remove(&self, key: &FactorKey) {
        lock_recover(&self.inner).remove(key);
    }

    /// Proactively drop every entry of `graph` older than `epoch` (called
    /// on graph replacement; LRU aging would get there eventually, but the
    /// factors can be large).
    pub fn purge_stale(&self, graph: &str, epoch: u64) {
        lock_recover(&self.inner).retain(|k, _| k.graph != graph || k.epoch >= epoch);
    }

    /// Current counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: lock_recover(&self.inner).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(graph: &str, epoch: u64, grounding: &[Node]) -> FactorKey {
        FactorKey {
            graph: graph.into(),
            epoch,
            grounding: grounding.to_vec(),
            backend: SddBackend::DenseCholesky,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = FactorCache::new(2);
        let (a, hit) = cache.get_or_insert(&key("g", 1, &[0]));
        assert!(!hit);
        let (_b, hit) = cache.get_or_insert(&key("g", 1, &[1]));
        assert!(!hit);
        // Touch a so b is the LRU victim.
        let (a2, hit) = cache.get_or_insert(&key("g", 1, &[0]));
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &a2));
        let (_c, hit) = cache.get_or_insert(&key("g", 1, &[2]));
        assert!(!hit);
        // b was evicted; a survived.
        let (_a3, hit) = cache.get_or_insert(&key("g", 1, &[0]));
        assert!(hit);
        let (_b2, hit) = cache.get_or_insert(&key("g", 1, &[1]));
        assert!(!hit);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (2, 4));
        assert!(c.evictions >= 2);
        assert!((c.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_purge_and_memoization() {
        let cache = FactorCache::new(8);
        let (e, _) = cache.get_or_insert(&key("g", 1, &[0]));
        let t: Result<f64, ()> = e.trace_or_compute(|| Ok(2.5));
        assert_eq!(t, Ok(2.5));
        // Second compute closure must not run.
        let t: Result<f64, ()> = e.trace_or_compute(|| panic!("memoized"));
        assert_eq!(t, Ok(2.5));
        let c: Result<_, ()> = e.centrality_or_compute(|| Ok(vec![1.0, 2.0]));
        assert_eq!(*c.unwrap(), vec![1.0, 2.0]);

        cache.get_or_insert(&key("g", 2, &[0]));
        cache.purge_stale("g", 2);
        let (_, hit) = cache.get_or_insert(&key("g", 1, &[0]));
        assert!(!hit, "stale epoch must be purged");
        let (_, hit) = cache.get_or_insert(&key("g", 2, &[0]));
        assert!(hit, "current epoch must survive the purge");
    }

    #[test]
    fn poisoned_factor_lock_recovers_empty() {
        let entry = Arc::new(CacheEntry::default());
        let poisoner = Arc::clone(&entry);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.factor();
            panic!("poison the factor lock");
        })
        .join();
        // The poisoned slot recovers as empty instead of propagating the
        // panic to every later requester.
        assert!(entry.factor().is_none());
        let t: Result<f64, ()> = entry.trace_or_compute(|| Ok(1.0));
        assert_eq!(t, Ok(1.0));
    }
}
