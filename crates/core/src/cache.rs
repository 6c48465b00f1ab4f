//! The one bounded cache primitive behind every process-wide cache.
//!
//! [`SingleFlightCache`] is a per-key single-flight memoization map with
//! an LRU capacity bound. The first caller for a key runs the computation
//! while holding that key's slot lock; concurrent callers for the same
//! key block on the slot (not the whole map) and read the finished value.
//! Errors are never cached, and a panic poisons only its own slot. The
//! capacity bound keeps a long-running process (the `escalate serve`
//! daemon, a long sweep) at a fixed footprint.
//!
//! It backs the simulator's derived-state caches (masks, walks), the
//! compression pipeline's synth caches (weights, pointwise) and the
//! harness's artifact and workload caches. The primitive records
//! no metrics: each call site counts its own hits, misses and evictions
//! from the returned [`Lookup`].
//!
//! A slot lock is held while its value is computed, so a computation may
//! look up *other* caches (walk → masks, artifacts → weights) but must never re-enter the cache it is computing for.
//!
//! Eviction never touches an *in-flight* entry: a caller computing or
//! waiting on a slot holds a clone of its `Arc`, so any entry with an
//! outstanding reference (strong count > 1) is skipped. That preserves
//! single-flight under pressure — a key being computed cannot be evicted
//! and silently recomputed by a concurrent caller — at the cost of
//! allowing the map to overflow its capacity temporarily while every
//! resident entry is in flight. The bound is re-enforced on the next
//! insertion once slots settle.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the data from a poisoned lock instead of
/// cascading the panic: every value behind these locks is valid at every
/// instant (a poisoned slot is simply still empty), so one panicking
/// computation must not take the whole cache down.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The result of one [`SingleFlightCache::get_or_compute`] lookup.
#[derive(Debug)]
pub struct Lookup<V> {
    /// The cached or freshly computed value.
    pub value: V,
    /// Whether the value was already cached (no compute ran).
    pub hit: bool,
    /// Entries evicted by this lookup to stay within capacity.
    pub evicted: u64,
}

struct Entry<V> {
    slot: Arc<Mutex<Option<V>>>,
    last_used: u64,
}

impl<V> Default for Entry<V> {
    fn default() -> Self {
        Entry {
            slot: Arc::default(),
            last_used: 0,
        }
    }
}

struct Inner<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Monotone lookup counter stamping `last_used` (LRU order).
    tick: u64,
    /// Maximum resident entries; `0` means unbounded.
    capacity: usize,
    /// Entries evicted since construction.
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> Inner<K, V> {
    /// Evicts least-recently-used settled entries until the map fits the
    /// capacity (or only in-flight entries remain). Returns the count.
    fn evict_over_capacity(&mut self) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.slot) == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                    evicted += 1;
                }
                // Every resident entry is in flight: overflow temporarily
                // rather than break single-flight.
                None => break,
            }
        }
        self.evictions += evicted;
        evicted
    }
}

/// A per-key single-flight memoization map with an LRU capacity bound.
pub struct SingleFlightCache<K, V> {
    inner: Mutex<Inner<K, V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlightCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (`0` =
    /// unbounded).
    pub fn new(capacity: usize) -> SingleFlightCache<K, V> {
        SingleFlightCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                capacity,
                evictions: 0,
            }),
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted since construction, by lookups and by
    /// [`SingleFlightCache::set_capacity`] alike.
    pub fn evictions(&self) -> u64 {
        lock_recover(&self.inner).evictions
    }

    /// Whether `key` is resident (never touches LRU order).
    pub fn contains(&self, key: &K) -> bool {
        lock_recover(&self.inner).entries.contains_key(key)
    }

    /// Changes the capacity bound, evicting down to it immediately.
    /// Returns the number of entries evicted.
    pub fn set_capacity(&self, capacity: usize) -> u64 {
        let mut inner = lock_recover(&self.inner);
        inner.capacity = capacity;
        inner.evict_over_capacity()
    }

    /// Returns the cached value for `key`, or runs `compute` exactly once
    /// across concurrent callers and caches the result. Errors are not
    /// cached (the slot stays empty; the next caller retries), and a
    /// panic inside `compute` poisons only that key's slot, which later
    /// callers recover from.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error.
    pub fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Lookup<V>, E> {
        let (slot, evicted) = {
            let mut inner = lock_recover(&self.inner);
            inner.tick += 1;
            let tick = inner.tick;
            let entry = inner.entries.entry(key).or_default();
            entry.last_used = tick;
            let slot = Arc::clone(&entry.slot);
            (slot, inner.evict_over_capacity())
        };
        let mut guard = lock_recover(&slot);
        if let Some(hit) = guard.as_ref() {
            return Ok(Lookup {
                value: hit.clone(),
                hit: true,
                evicted,
            });
        }
        let v = compute()?;
        *guard = Some(v.clone());
        Ok(Lookup {
            value: v,
            hit: false,
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn computes_once_across_threads() {
        let cache: SingleFlightCache<u32, u64> = SingleFlightCache::new(0);
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let look = cache
                        .get_or_compute(1u32, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<u64, ()>(42)
                        })
                        .unwrap();
                    assert_eq!(look.value, 42);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "compute must run once");
        let look = cache.get_or_compute(1u32, || Ok::<u64, ()>(0)).unwrap();
        assert!(look.hit, "later calls must be hits");
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: SingleFlightCache<u32, u64> = SingleFlightCache::new(0);
        let err = cache.get_or_compute(1u32, || Err::<u64, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        let look = cache.get_or_compute(1u32, || Ok::<u64, &str>(7)).unwrap();
        assert_eq!(look.value, 7);
        assert!(
            !look.hit,
            "the retry must recompute, not read a cached error"
        );
    }

    #[test]
    fn recovers_from_poisoned_slots() {
        let cache: SingleFlightCache<u32, u64> = SingleFlightCache::new(0);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_compute(1u32, || -> Result<u64, ()> {
                panic!("compression panicked mid-flight")
            });
        }));
        assert!(poison.is_err());
        // The panic poisoned key 1's slot; the next caller must recover
        // and compute rather than propagate the old panic.
        let look = cache.get_or_compute(1u32, || Ok::<u64, ()>(9)).unwrap();
        assert_eq!(look.value, 9);
        assert!(!look.hit);
        // Unrelated keys were never affected.
        let look = cache.get_or_compute(2u32, || Ok::<u64, ()>(11)).unwrap();
        assert_eq!(look.value, 11);
    }

    #[test]
    fn capped_cache_stays_capped_under_churn() {
        let cache: SingleFlightCache<u32, u32> = SingleFlightCache::new(4);
        let mut evicted = 0u64;
        for k in 0..100u32 {
            let look = cache.get_or_compute(k, || Ok::<u32, ()>(k * 2)).unwrap();
            assert!(!look.hit);
            evicted += look.evicted;
            assert!(cache.len() <= 4, "len {} exceeded the cap", cache.len());
        }
        assert_eq!(evicted, 96, "every insertion past the cap evicts one");
        // The residents are exactly the four most recent keys.
        for k in 96..100u32 {
            assert!(cache.contains(&k), "key {k} should still be resident");
        }
        assert!(!cache.contains(&95));
    }

    #[test]
    fn eviction_order_is_least_recently_used() {
        let cache: SingleFlightCache<&str, u32> = SingleFlightCache::new(2);
        cache.get_or_compute("a", || Ok::<u32, ()>(1)).unwrap();
        cache.get_or_compute("b", || Ok::<u32, ()>(2)).unwrap();
        // Touch "a" so "b" becomes the LRU entry.
        let look = cache.get_or_compute("a", || Ok::<u32, ()>(0)).unwrap();
        assert!(look.hit);
        let look = cache.get_or_compute("c", || Ok::<u32, ()>(3)).unwrap();
        assert_eq!(look.evicted, 1);
        assert!(cache.contains(&"a") && cache.contains(&"c"));
        assert!(!cache.contains(&"b"), "the least recently used key goes");
    }

    #[test]
    fn set_capacity_evicts_down_immediately() {
        let cache: SingleFlightCache<u32, u32> = SingleFlightCache::new(0);
        for k in 0..10u32 {
            cache.get_or_compute(k, || Ok::<u32, ()>(k)).unwrap();
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.set_capacity(3), 7);
        assert_eq!(cache.len(), 3);
        for k in 7..10u32 {
            assert!(cache.contains(&k));
        }
    }

    #[test]
    fn in_flight_entries_are_never_evicted() {
        let cache: SingleFlightCache<u32, u32> = SingleFlightCache::new(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                let look = cache
                    .get_or_compute(1u32, || {
                        std::thread::sleep(std::time::Duration::from_millis(60));
                        Ok::<u32, ()>(10)
                    })
                    .unwrap();
                assert_eq!(look.value, 10);
            });
            std::thread::sleep(std::time::Duration::from_millis(15));
            // Key 1 is mid-compute (its slot Arc is held); inserting key 2
            // overflows the cap of 1 rather than evicting the in-flight
            // entry out from under its caller.
            let look = cache.get_or_compute(2u32, || Ok::<u32, ()>(20)).unwrap();
            assert_eq!(look.evicted, 0, "in-flight entries are protected");
        });
        // Key 1 settled and cached: a second caller hits without recompute.
        let look = cache
            .get_or_compute(1u32, || Err::<u32, &str>("must not recompute"))
            .unwrap();
        assert!(look.hit);
    }

    #[test]
    fn evictions_accumulate_across_lookups_and_resizes() {
        let cache: SingleFlightCache<u32, u32> = SingleFlightCache::new(2);
        for k in 0..5u32 {
            cache.get_or_compute(k, || Ok::<u32, ()>(k)).unwrap();
        }
        assert_eq!(cache.evictions(), 3);
        assert_eq!(cache.set_capacity(1), 1);
        assert_eq!(cache.evictions(), 4);
    }
}
