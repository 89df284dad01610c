//! Sweep-driver-owned caches shared across scenario workers.
//!
//! The Fig 5 sweeps (fault rate, bit position, faulty-PE count, array size)
//! evaluate *many fault scenarios against the same trained network and the
//! same input batches*. Two intermediates on that axis are recomputed
//! identically by every worker:
//!
//! * the **stateless-prefix output** of a forward pass (the encoder
//!   convolution ahead of the first spiking layer) — identical across any two
//!   forward calls that agree on the input, the prefix parameters *and* the
//!   backend (a faulty systolic backend corrupts the prefix, so the fault map
//!   is part of the key via [`crate::MatmulBackend::fingerprint`]);
//! * the **im2col lowering** of a convolution input — a pure function of the
//!   input and the convolution geometry, shared by every fault scenario
//!   regardless of its fault map.
//!
//! A [`SweepCache`] is created by the sweep driver, installed on every
//! scenario view ([`crate::SpikingNetwork::set_sweep_cache`]) and dropped
//! when the sweep ends. Retraining installs none: every epoch edits the
//! weights, so none of its keys would recur. Keys are 128-bit content
//! fingerprints ([`falvolt_tensor::Fingerprint`]); entries are `Arc`-shared
//! tensors, so a hit costs one clone of an `Arc`.
//!
//! Both stores are [`SharedStore`]s, with two promotion policies:
//!
//! * The **lowering store promotes on first sighting**
//!   ([`SweepCache::lookup_lowered_eager`]). Its callers ask only for keys
//!   that are shared by construction: a lowering of the scenario-invariant
//!   prefix input, or a transposed weight of the frozen baseline.
//! * The **prefix store promotes on second request**: the first sighting of
//!   a key only records interest ([`StoreDecision::Skip`] — compute inline,
//!   store nothing), and a second sighting proves the key is shared, so that
//!   caller computes and fulfils the entry ([`StoreDecision::Compute`]). A
//!   prefix key holds the fault map, so only scenarios on identical maps
//!   share one: in a Fig-5b sweep those are the fault-free maps of the
//!   0-faulty-PE cell (98 hits against 679 misses on the `vuln_mnist`
//!   benchmark workload). Every other scenario's key is seen once and never
//!   takes one of the bounded value slots.
//!
//! Only one caller per key is told to compute; racers fall back to inline
//! computation. Tracked keys are bounded; once full, new keys are never
//! promoted (retention cannot change results, only hit rates).
//!
//! The stores survive panicking workers (see [`SharedStore`]'s resilience
//! notes): [`SweepCache::quarantine_in_flight`] lets a scheduler that caught
//! a worker panic revert every in-flight promotion so a stale fulfilment is
//! discarded, not served. Cached values are pure functions of their keys,
//! so discarding is always safe.

use falvolt_tensor::{SharedStore, StoreDecision, Tensor};
use std::fmt;
use std::sync::Arc;

/// Default bound on promoted keys per store.
const DEFAULT_CAPACITY: usize = 256;

/// Counters of one cache store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a fulfilled entry.
    pub hits: usize,
    /// Lookups that found no usable entry (first sightings, in-flight keys,
    /// capacity overflow).
    pub misses: usize,
    /// Lookups that asked the caller to compute-and-fulfill.
    pub promotions: usize,
}

impl CacheStats {
    fn of(store: &SharedStore<Tensor>) -> Self {
        Self {
            hits: store.hits(),
            misses: store.skips(),
            promotions: store.promotions(),
        }
    }
}

/// Keyed cross-call caches owned by a sweep driver (see the module docs).
pub struct SweepCache {
    prefix: SharedStore<Tensor>,
    lowered: SharedStore<Tensor>,
}

impl SweepCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty cache promoting at most `capacity` keys per store.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            prefix: SharedStore::new(capacity),
            lowered: SharedStore::new(capacity),
        }
    }

    /// Looks up a stateless-prefix output.
    pub fn lookup_prefix(&self, key: u128) -> StoreDecision<Tensor> {
        self.prefix.lookup(key, false)
    }

    /// Stores a prefix output previously answered with
    /// [`StoreDecision::Compute`].
    pub fn fulfill_prefix(&self, key: u128, value: Arc<Tensor>) {
        // Under audit, a key fulfilled twice (first write quarantined, a
        // later worker recomputed) must carry byte-identical content.
        #[cfg(feature = "audit")]
        falvolt_tensor::audit::check_fulfill(
            "sweep-cache/prefix",
            key,
            falvolt_tensor::audit::fingerprint(value.data()),
        );
        self.prefix.fulfill(key, value);
    }

    /// Releases a prefix promotion whose computation failed (see
    /// [`StoreDecision::Compute`]); a later caller may promote the key
    /// again.
    pub fn abandon_prefix(&self, key: u128) {
        self.prefix.abandon(key);
    }

    /// Looks up an im2col lowering (or any other shared derivation in the
    /// lowering store, e.g. transposed weights) with
    /// **promote-on-first-sighting**: callers ask only for keys that are
    /// shared by construction (a lowering of the scenario-invariant prefix
    /// input, a transposed weight of the frozen baseline), so waiting for a
    /// second sighting would only delay sharing by one worker — the value is
    /// computed either way, fulfilment just keeps it.
    pub fn lookup_lowered_eager(&self, key: u128) -> StoreDecision<Tensor> {
        self.lowered.lookup(key, true)
    }

    /// Stores an im2col lowering previously answered with
    /// [`StoreDecision::Compute`].
    pub fn fulfill_lowered(&self, key: u128, value: Arc<Tensor>) {
        #[cfg(feature = "audit")]
        falvolt_tensor::audit::check_fulfill(
            "sweep-cache/lowered",
            key,
            falvolt_tensor::audit::fingerprint(value.data()),
        );
        self.lowered.fulfill(key, value);
    }

    /// Releases a lowering promotion whose computation failed.
    pub fn abandon_lowered(&self, key: u128) {
        self.lowered.abandon(key);
    }

    /// Counters of the prefix store.
    pub fn prefix_stats(&self) -> CacheStats {
        CacheStats::of(&self.prefix)
    }

    /// Counters of the im2col store.
    pub fn lowered_stats(&self) -> CacheStats {
        CacheStats::of(&self.lowered)
    }

    /// Quarantines every in-flight promotion in both stores: reverts
    /// `Computing` slots to `Pending` (releasing their capacity) and bumps
    /// the store generations, so any stale fulfilment from the quarantined
    /// workers is discarded, not served. Schedulers call this after
    /// catching a scenario-worker panic — the dead worker may have been
    /// promoting any shared key. Returns the promotions reverted.
    pub fn quarantine_in_flight(&self) -> usize {
        self.prefix.quarantine_in_flight() + self.lowered.quarantine_in_flight()
    }

    /// In-flight promotions reverted by quarantines (explicit or on poison
    /// recovery), both stores.
    pub fn quarantined(&self) -> usize {
        self.prefix.quarantined() + self.lowered.quarantined()
    }

    /// Stale fulfilments discarded instead of served, both stores.
    pub fn discarded_fulfills(&self) -> usize {
        self.prefix.discarded_fulfills() + self.lowered.discarded_fulfills()
    }

    /// The oldest generation tag among in-flight promotions across both
    /// stores, if any (audit hook — see
    /// [`SharedStore::oldest_in_flight_generation`]).
    pub fn oldest_in_flight_generation(&self) -> Option<u64> {
        [
            self.prefix.oldest_in_flight_generation(),
            self.lowered.oldest_in_flight_generation(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Total keys currently tracked (both stores, pending and fulfilled).
    pub fn len(&self) -> usize {
        self.prefix.len() + self.lowered.len()
    }

    /// Returns `true` when no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SweepCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SweepCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepCache")
            .field("prefix_keys", &self.prefix.len())
            .field("prefix_stats", &self.prefix_stats())
            .field("lowered_keys", &self.lowered.len())
            .field("lowered_stats", &self.lowered_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotes_on_second_request_then_hits() {
        let cache = SweepCache::new();
        assert!(cache.is_empty());
        assert!(matches!(cache.lookup_prefix(1), StoreDecision::Skip));
        assert!(matches!(cache.lookup_prefix(1), StoreDecision::Compute));
        // While the promoted caller computes, racers skip.
        assert!(matches!(cache.lookup_prefix(1), StoreDecision::Skip));
        cache.fulfill_prefix(1, Arc::new(Tensor::ones(&[2])));
        assert!(matches!(cache.lookup_prefix(1), StoreDecision::Hit(_)));
        // The lowered store does not see prefix keys: its first sighting of
        // key 1 promotes at once.
        assert!(matches!(
            cache.lookup_lowered_eager(1),
            StoreDecision::Compute
        ));
        let stats = cache.prefix_stats();
        assert_eq!((stats.hits, stats.misses, stats.promotions), (1, 2, 1));
    }

    #[test]
    fn value_capacity_bounds_promotions_not_pending_markers() {
        let cache = SweepCache::with_capacity(1);
        // Key 11 takes the single value slot.
        assert!(matches!(cache.lookup_prefix(11), StoreDecision::Skip));
        assert!(matches!(cache.lookup_prefix(11), StoreDecision::Compute));
        cache.fulfill_prefix(11, Arc::new(Tensor::zeros(&[1])));
        // Key 12 is tracked (cheap Pending marker) but can never promote
        // while the value capacity is used up — and key 11 still hits.
        assert!(matches!(cache.lookup_prefix(12), StoreDecision::Skip));
        assert!(matches!(cache.lookup_prefix(12), StoreDecision::Skip));
        assert!(matches!(cache.lookup_prefix(11), StoreDecision::Hit(_)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn abandon_releases_an_in_flight_promotion() {
        let cache = SweepCache::with_capacity(1);
        let _ = cache.lookup_prefix(5);
        assert!(matches!(cache.lookup_prefix(5), StoreDecision::Compute));
        // The promoted computation failed: the key returns to Pending and a
        // later caller promotes it again.
        cache.abandon_prefix(5);
        assert!(matches!(cache.lookup_prefix(5), StoreDecision::Compute));
        cache.fulfill_prefix(5, Arc::new(Tensor::zeros(&[1])));
        assert!(matches!(cache.lookup_prefix(5), StoreDecision::Hit(_)));
    }

    #[test]
    fn quarantine_discards_stale_fulfills_but_keeps_ready_values() {
        let cache = SweepCache::new();
        // One fulfilled entry, one in-flight promotion.
        let _ = cache.lookup_prefix(1);
        assert!(matches!(cache.lookup_prefix(1), StoreDecision::Compute));
        cache.fulfill_prefix(1, Arc::new(Tensor::ones(&[2])));
        assert!(matches!(
            cache.lookup_lowered_eager(2),
            StoreDecision::Compute
        ));
        // A scenario worker panicked: the in-flight promotion is reverted,
        // the complete value survives.
        assert_eq!(cache.quarantine_in_flight(), 1);
        assert_eq!(cache.quarantined(), 1);
        assert_eq!(cache.oldest_in_flight_generation(), None);
        assert!(matches!(cache.lookup_prefix(1), StoreDecision::Hit(_)));
        // The dead worker's write arrives late: discarded, not served.
        cache.fulfill_lowered(2, Arc::new(Tensor::zeros(&[9])));
        assert_eq!(cache.discarded_fulfills(), 1);
        assert!(matches!(
            cache.lookup_lowered_eager(2),
            StoreDecision::Compute
        ));
    }

    #[test]
    fn entries_are_arc_shared() {
        let cache = SweepCache::new();
        let tensor = Arc::new(Tensor::full(&[3], 2.5));
        let _ = cache.lookup_prefix(9);
        let _ = cache.lookup_prefix(9);
        cache.fulfill_prefix(9, Arc::clone(&tensor));
        match cache.lookup_prefix(9) {
            StoreDecision::Hit(hit) => assert!(Arc::ptr_eq(&tensor, &hit)),
            other => panic!("expected hit, got {other:?}"),
        }
    }
}
