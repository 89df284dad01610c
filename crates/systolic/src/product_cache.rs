//! Sweep-shared quantized-weight tables for scenario sweeps.
//!
//! A figure sweep pushes spike (binary) activations through the executor
//! against the same frozen weights once per fault map, time step and test
//! batch. With every nonzero exactly `1.0`, each accumulation step
//! contributes `quantize(1.0 * w[p, j]) == quantize(w[p, j])` — a pure
//! function of the weights and the accumulator format. The [`ProductCache`]
//! holds one such table per weight matrix, so every scenario, every time
//! step and every batch of a sweep reads it instead of running a
//! multiply+round+clamp per event ([`ProductCache::lookup_qweights`]).
//!
//! The store follows the **promote-on-second-request** protocol of
//! [`SharedStore`]: building a `k x n` table for a single product would cost
//! more than it saves, so the first product against a weight matrix only
//! records interest and the second one promotes the table.
//!
//! A table is a pure function of its key's content (weights, shape,
//! accumulator format), so sharing cannot change results — sweeps remain
//! bit-identical to the per-clone baseline.

use falvolt_tensor::{SharedStore, StoreDecision};
use std::fmt;
use std::sync::Arc;

/// Default bound on value-bearing (promoted) keys.
const DEFAULT_CAPACITY: usize = 512;

/// Shared quantized-weight store (see the module docs).
pub struct ProductCache {
    qweights: SharedStore<Vec<i32>>,
}

impl Default for ProductCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ProductCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates an empty cache promoting at most `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            qweights: SharedStore::new(capacity),
        }
    }

    /// Looks up a quantized-weight table (`quantize(w[p, j])` for every
    /// weight element, the per-event contribution of binary activations)
    /// and reports what the caller should do. Exactly one caller per key is
    /// ever told to compute: the promotion transitions the slot to an
    /// in-flight state, so concurrent workers racing on the same key
    /// quantize inline instead of all building the table.
    pub fn lookup_qweights(&self, key: u128) -> StoreDecision<Vec<i32>> {
        self.qweights.lookup(key, false)
    }

    /// Stores a quantized-weight table previously answered with
    /// [`StoreDecision::Compute`]. Discarded (never served) if the
    /// promotion was quarantined in the meantime.
    pub fn fulfill_qweights(&self, key: u128, value: Arc<Vec<i32>>) {
        // Under audit, a key fulfilled twice (first write quarantined, a
        // later worker recomputed) must carry byte-identical content.
        #[cfg(feature = "audit")]
        falvolt_tensor::audit::check_fulfill(
            "product-cache/qweights",
            key,
            falvolt_tensor::audit::fingerprint_bytes(value.iter().flat_map(|v| v.to_le_bytes())),
        );
        self.qweights.fulfill(key, value);
    }

    /// Number of tracked keys (pending and fulfilled).
    pub fn len(&self) -> usize {
        self.qweights.len()
    }

    /// `true` when nothing has been tracked yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from a fulfilled entry.
    pub fn hits(&self) -> usize {
        self.qweights.hits()
    }

    /// Lookups that asked the caller to compute-and-fulfill.
    pub fn promotions(&self) -> usize {
        self.qweights.promotions()
    }

    /// Lookups that found no usable entry (first sightings, in-flight keys,
    /// capacity overflow).
    pub fn skips(&self) -> usize {
        self.qweights.skips()
    }

    /// Quarantines every in-flight promotion (see
    /// [`SharedStore::quarantine_in_flight`]): a panicking scenario worker
    /// may have been promoting any shared key, so its writes must be
    /// discarded rather than served. Returns the promotions reverted.
    pub fn quarantine_in_flight(&self) -> usize {
        self.qweights.quarantine_in_flight()
    }

    /// In-flight promotions reverted by quarantines.
    pub fn quarantined(&self) -> usize {
        self.qweights.quarantined()
    }

    /// Stale fulfilments discarded instead of served.
    pub fn discarded_fulfills(&self) -> usize {
        self.qweights.discarded_fulfills()
    }

    /// Poisoned-lock recoveries.
    pub fn poison_recoveries(&self) -> usize {
        self.qweights.poison_recoveries()
    }
}

impl fmt::Debug for ProductCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProductCache")
            .field("keys", &self.len())
            .field("hits", &self.hits())
            .field("promotions", &self.promotions())
            .field("skips", &self.skips())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotes_on_second_request_then_hits() {
        let cache = ProductCache::new();
        assert!(matches!(cache.lookup_qweights(7), StoreDecision::Skip));
        assert!(matches!(cache.lookup_qweights(7), StoreDecision::Compute));
        cache.fulfill_qweights(7, Arc::new(vec![1, 2]));
        match cache.lookup_qweights(7) {
            StoreDecision::Hit(v) => assert_eq!(v.as_slice(), &[1, 2]),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!((cache.skips(), cache.promotions(), cache.hits()), (1, 1, 1));
    }

    // Every test fulfils its own key range: the audit registry (under
    // `--features audit`) is process-global, so two tests fulfilling the
    // same key with different bytes would trip the purity assertion.
    #[test]
    fn only_one_caller_is_told_to_compute() {
        let cache = ProductCache::new();
        assert!(matches!(cache.lookup_qweights(21), StoreDecision::Skip));
        assert!(matches!(cache.lookup_qweights(21), StoreDecision::Compute));
        // While the promoted worker builds the table, racing workers skip
        // (quantize inline) instead of duplicating it.
        assert!(matches!(cache.lookup_qweights(21), StoreDecision::Skip));
        cache.fulfill_qweights(21, Arc::new(vec![4]));
        assert!(matches!(cache.lookup_qweights(21), StoreDecision::Hit(_)));
    }

    #[test]
    fn value_capacity_bounds_promotions_not_pending_markers() {
        let cache = ProductCache::with_capacity(1);
        // Key 31 takes the single value slot.
        assert!(matches!(cache.lookup_qweights(31), StoreDecision::Skip));
        assert!(matches!(cache.lookup_qweights(31), StoreDecision::Compute));
        cache.fulfill_qweights(31, Arc::new(vec![2]));
        // Key 32 is tracked (cheap Pending marker) but can never promote
        // while the value capacity is used up — and key 31 still hits.
        assert!(matches!(cache.lookup_qweights(32), StoreDecision::Skip));
        assert!(matches!(cache.lookup_qweights(32), StoreDecision::Skip));
        assert!(matches!(cache.lookup_qweights(31), StoreDecision::Hit(_)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn quarantine_discards_stale_fulfills() {
        let cache = ProductCache::new();
        let _ = cache.lookup_qweights(42);
        assert!(matches!(cache.lookup_qweights(42), StoreDecision::Compute));
        assert_eq!(cache.quarantine_in_flight(), 1);
        assert_eq!(cache.quarantined(), 1);
        // The stale write from the quarantined worker is discarded.
        cache.fulfill_qweights(42, Arc::new(vec![5]));
        assert_eq!(cache.discarded_fulfills(), 1);
        assert!(matches!(cache.lookup_qweights(42), StoreDecision::Compute));
    }
}
