//! Shared clean-product / quantized-weight cache for scenario sweeps.
//!
//! A figure sweep pushes the *same* activation matrices (the im2col lowering
//! of one input batch) through the executor once per fault map. Faults only
//! corrupt output columns whose PE column holds a faulty PE; every other
//! column replays the identical maskless quantized accumulator chain in every
//! scenario. The [`ProductCache`] lets scenario workers share exactly that
//! work: the first worker to need a product's clean columns computes the full
//! clean (quantized, fault-free) product once, and every other worker copies
//! its clean columns instead of recomputing them.
//!
//! The cache also shares **quantized-weight tables** for binary (spike)
//! activations: with every nonzero exactly `1.0`, each accumulation step
//! contributes `quantize(1.0 * w[p, j]) == quantize(w[p, j])` — a pure
//! function of the weights and the accumulator format. One table serves
//! every scenario, every time step and every batch of a sweep, replacing a
//! multiply+round+clamp per event with a table read
//! ([`ProductCache::lookup_qweights`]).
//!
//! Both stores follow the **promote-on-second-request** protocol of
//! [`SharedStore`]: mid-network activations diverge across scenarios
//! (different corruption → different spikes), so the first sighting of a key
//! only records interest and a second sighting proves the key is shared.
//! Encoder products promote on the second scenario; per-scenario suffix
//! products never promote and cost one hash lookup each. Quantized-weight
//! keys depend only on the (frozen) weights, so they promote on the second
//! product against the same weight matrix.
//!
//! Cached values are pure functions of the key's content (operands, shape,
//! accumulator format), so sharing cannot change results — sweeps remain
//! bit-identical to the per-clone baseline.

use falvolt_tensor::{SharedStore, StoreDecision};
use std::fmt;
use std::sync::Arc;

/// Default bound on value-bearing (promoted) keys per store.
const DEFAULT_CAPACITY: usize = 512;

/// Shared clean-product and quantized-weight store (see the module docs).
pub struct ProductCache {
    products: SharedStore<Vec<f32>>,
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

    /// Creates an empty cache promoting at most `capacity` keys per store.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            products: SharedStore::new(capacity),
            qweights: SharedStore::new(capacity),
        }
    }

    /// Looks a clean-product key up and reports what the caller should do.
    /// Exactly one caller per key is ever told to compute: the promotion
    /// transitions the slot to an in-flight state, so concurrent workers
    /// racing on the same key fall back to inline computation of their own
    /// subset instead of all duplicating the full shared product.
    pub fn lookup(&self, key: u128) -> StoreDecision<Vec<f32>> {
        self.products.lookup(key, false)
    }

    /// Stores a computed clean product for a key previously answered with
    /// [`StoreDecision::Compute`]. Discarded (never served) if the
    /// promotion was quarantined in the meantime.
    pub fn fulfill(&self, key: u128, value: Arc<Vec<f32>>) {
        // Under audit, a key fulfilled twice (first write quarantined, a
        // later worker recomputed) must carry byte-identical content.
        #[cfg(feature = "audit")]
        falvolt_tensor::audit::check_fulfill(
            "product-cache/products",
            key,
            falvolt_tensor::audit::fingerprint(&value),
        );
        self.products.fulfill(key, value);
    }

    /// Releases an in-flight clean-product promotion whose computation
    /// failed (or was cancelled): the key may promote again later.
    pub fn abandon(&self, key: u128) {
        self.products.abandon(key);
    }

    /// Looks up a quantized-weight table (`quantize(w[p, j])` for every
    /// weight element, the per-event contribution of binary activations).
    /// Same promote-on-second-request protocol as [`ProductCache::lookup`].
    pub fn lookup_qweights(&self, key: u128) -> StoreDecision<Vec<i32>> {
        self.qweights.lookup(key, false)
    }

    /// Stores a quantized-weight table previously answered with
    /// [`StoreDecision::Compute`].
    pub fn fulfill_qweights(&self, key: u128, value: Arc<Vec<i32>>) {
        #[cfg(feature = "audit")]
        falvolt_tensor::audit::check_fulfill(
            "product-cache/qweights",
            key,
            falvolt_tensor::audit::fingerprint_bytes(value.iter().flat_map(|v| v.to_le_bytes())),
        );
        self.qweights.fulfill(key, value);
    }

    /// Number of tracked keys (pending and fulfilled, both stores).
    pub fn len(&self) -> usize {
        self.products.len() + self.qweights.len()
    }

    /// `true` when nothing has been tracked yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from a fulfilled entry.
    pub fn hits(&self) -> usize {
        self.products.hits() + self.qweights.hits()
    }

    /// Lookups that asked the caller to compute-and-fulfill.
    pub fn promotions(&self) -> usize {
        self.products.promotions() + self.qweights.promotions()
    }

    /// Lookups that found no usable entry (first sightings, in-flight keys,
    /// capacity overflow).
    pub fn skips(&self) -> usize {
        self.products.skips() + self.qweights.skips()
    }

    /// Quarantines every in-flight promotion in both stores (see
    /// [`SharedStore::quarantine_in_flight`]): a panicking scenario worker
    /// may have been promoting any shared key, so its writes must be
    /// discarded rather than served. Returns the promotions reverted.
    pub fn quarantine_in_flight(&self) -> usize {
        self.products.quarantine_in_flight() + self.qweights.quarantine_in_flight()
    }

    /// In-flight promotions reverted by quarantines, both stores.
    pub fn quarantined(&self) -> usize {
        self.products.quarantined() + self.qweights.quarantined()
    }

    /// Stale fulfilments discarded instead of served, both stores.
    pub fn discarded_fulfills(&self) -> usize {
        self.products.discarded_fulfills() + self.qweights.discarded_fulfills()
    }

    /// Poisoned-lock recoveries, both stores.
    pub fn poison_recoveries(&self) -> usize {
        self.products.poison_recoveries() + self.qweights.poison_recoveries()
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
        assert!(matches!(cache.lookup(7), StoreDecision::Skip));
        assert!(matches!(cache.lookup(7), StoreDecision::Compute));
        cache.fulfill(7, Arc::new(vec![1.0, 2.0]));
        match cache.lookup(7) {
            StoreDecision::Hit(v) => assert_eq!(v.as_slice(), &[1.0, 2.0]),
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
        assert!(matches!(cache.lookup(21), StoreDecision::Skip));
        assert!(matches!(cache.lookup(21), StoreDecision::Compute));
        // While the promoted worker computes, racing workers skip (inline
        // subset computation) instead of duplicating the full product.
        assert!(matches!(cache.lookup(21), StoreDecision::Skip));
        cache.fulfill(21, Arc::new(vec![4.0]));
        assert!(matches!(cache.lookup(21), StoreDecision::Hit(_)));
    }

    #[test]
    fn value_capacity_bounds_promotions_not_pending_markers() {
        let cache = ProductCache::with_capacity(1);
        // Key 31 takes the single value slot.
        assert!(matches!(cache.lookup(31), StoreDecision::Skip));
        assert!(matches!(cache.lookup(31), StoreDecision::Compute));
        cache.fulfill(31, Arc::new(vec![2.0]));
        // Key 32 is tracked (cheap Pending marker) but can never promote
        // while the value capacity is used up — and key 31 still hits.
        assert!(matches!(cache.lookup(32), StoreDecision::Skip));
        assert!(matches!(cache.lookup(32), StoreDecision::Skip));
        assert!(matches!(cache.lookup(31), StoreDecision::Hit(_)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn quarantine_spans_both_stores_and_discards_stale_fulfills() {
        let cache = ProductCache::new();
        let _ = cache.lookup(41);
        assert!(matches!(cache.lookup(41), StoreDecision::Compute));
        let _ = cache.lookup_qweights(42);
        assert!(matches!(cache.lookup_qweights(42), StoreDecision::Compute));
        assert_eq!(cache.quarantine_in_flight(), 2);
        assert_eq!(cache.quarantined(), 2);
        // Stale writes from the quarantined workers are discarded.
        cache.fulfill(41, Arc::new(vec![1.0]));
        cache.fulfill_qweights(42, Arc::new(vec![5]));
        assert_eq!(cache.discarded_fulfills(), 2);
        assert!(matches!(cache.lookup(41), StoreDecision::Compute));
    }

    #[test]
    fn abandon_releases_a_clean_product_promotion() {
        let cache = ProductCache::with_capacity(1);
        let _ = cache.lookup(4);
        assert!(matches!(cache.lookup(4), StoreDecision::Compute));
        cache.abandon(4);
        assert!(matches!(cache.lookup(4), StoreDecision::Compute));
    }

    #[test]
    fn qweight_store_is_independent_of_the_product_store() {
        let cache = ProductCache::new();
        // Same key, different stores: promotions do not interfere.
        assert!(matches!(cache.lookup(9), StoreDecision::Skip));
        assert!(matches!(cache.lookup_qweights(9), StoreDecision::Skip));
        assert!(matches!(cache.lookup_qweights(9), StoreDecision::Compute));
        cache.fulfill_qweights(9, Arc::new(vec![3, -4]));
        match cache.lookup_qweights(9) {
            StoreDecision::Hit(v) => assert_eq!(v.as_slice(), &[3, -4]),
            other => panic!("expected hit, got {other:?}"),
        }
        // The product store still sees its own promotion protocol.
        assert!(matches!(cache.lookup(9), StoreDecision::Compute));
    }
}
