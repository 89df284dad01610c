//! Generic promote-on-second-request value store.
//!
//! The sweep-sharing caches follow one protocol: the first sighting of a
//! key only records interest (compute inline, store nothing), a second
//! sighting proves the key is shared across workers (that caller computes
//! and fulfils the shared value), and everyone after hits. Exactly one
//! caller per key is ever told to compute — racers fall back to inline
//! computation while the value is in flight. [`SharedStore`] backs five
//! stores:
//!
//! * the stateless-prefix outputs and the im2col lowerings of
//!   `falvolt_snn::SweepCache`;
//! * the clean products and the quantized-weight tables of
//!   `falvolt_systolic::ProductCache`;
//! * the multi-map batched products of `falvolt::ScenarioProducts`.
//!
//! # Resilience
//!
//! The store is built to survive panicking workers:
//!
//! * **Poison-recovering locks.** A worker that panics while holding the
//!   mutex must not wedge every other worker. The internal lock accessor
//!   recovers from poison, and — because the panicking holder may have left
//!   bookkeeping half-done — conservatively quarantines all in-flight
//!   promotions on recovery.
//! * **Generation-tagged promotions.** Every [`StoreDecision::Compute`]
//!   promotion records the store's current *generation*.
//!   [`SharedStore::quarantine_in_flight`] (called by schedulers after
//!   catching a worker panic) bumps the generation and reverts every
//!   in-flight `Computing` slot to `Pending`, releasing its capacity.
//! * **Conditional fulfilment.** [`SharedStore::fulfill`] only lands on a
//!   slot that is still in the `Computing` state. A fulfilment arriving
//!   after its promotion was quarantined (a stale write from a worker whose
//!   cell was already declared failed) finds `Pending` and is **discarded,
//!   not served** ([`SharedStore::discarded_fulfills`] counts them). Cached
//!   values are pure functions of their key, so discarding is always safe —
//!   a later caller simply re-promotes and recomputes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Tracked-key bound as a multiple of the value capacity. Pending markers
/// are 16-byte bookkeeping; one-shot keys arrive in volume (per-scenario
/// operands mint fresh content ids) and must not lock genuinely shared keys
/// out of promotion — only the map itself needs a growth bound.
const TRACKED_PER_CAPACITY: usize = 16;

/// What the caller should do after a store lookup.
#[derive(Debug, Clone)]
pub enum StoreDecision<T> {
    /// The value is cached — use it.
    Hit(Arc<T>),
    /// This key is shared across workers: compute the value and hand it
    /// back via [`SharedStore::fulfill`] (or release the slot with
    /// [`SharedStore::abandon`] on failure).
    Compute,
    /// No usable entry (first sighting, in-flight key, or capacity
    /// overflow) — compute whatever subset is needed inline, store nothing.
    Skip,
}

enum Slot<T> {
    /// Seen once; not yet worth materialising.
    Pending,
    /// A worker is computing the shared value; tagged with the store
    /// generation at promotion time so quarantines can be audited.
    Computing(u64),
    /// Computed and shared.
    Ready(Arc<T>),
}

struct Inner<T> {
    slots: HashMap<u128, Slot<T>>,
    /// Keys promoted to `Computing`/`Ready` — what the capacity bounds.
    promoted: usize,
    /// Bumped on every quarantine; promotions are tagged with it.
    generation: u64,
}

impl<T> Inner<T> {
    /// Reverts every in-flight `Computing` slot to `Pending` (releasing its
    /// capacity) and bumps the generation. Returns how many were reverted.
    fn quarantine(&mut self) -> usize {
        let mut reverted = 0usize;
        for slot in self.slots.values_mut() {
            if matches!(slot, Slot::Computing(_)) {
                *slot = Slot::Pending;
                reverted += 1;
            }
        }
        self.promoted -= reverted;
        self.generation += 1;
        reverted
    }
}

/// One promote-on-second-request store (see the module docs).
pub struct SharedStore<T> {
    inner: Mutex<Inner<T>>,
    /// Bound on promoted (value-bearing) keys.
    capacity: usize,
    hits: AtomicUsize,
    promotions: AtomicUsize,
    skips: AtomicUsize,
    quarantined: AtomicUsize,
    discarded_fulfills: AtomicUsize,
    poison_recoveries: AtomicUsize,
}

impl<T> SharedStore<T> {
    /// Creates an empty store promoting at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                promoted: 0,
                generation: 0,
            }),
            capacity,
            hits: AtomicUsize::new(0),
            promotions: AtomicUsize::new(0),
            skips: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            discarded_fulfills: AtomicUsize::new(0),
            poison_recoveries: AtomicUsize::new(0),
        }
    }

    /// The poison-recovering lock accessor. A panicked holder may have left
    /// bookkeeping half-done, so recovery conservatively quarantines every
    /// in-flight promotion — the affected keys fall back to `Pending` and
    /// simply re-promote later. Fulfilled (`Ready`) values are kept: they
    /// were complete before the crash (fulfilment is a single insert).
    fn guard(&self) -> MutexGuard<'_, Inner<T>> {
        let guard = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.clear_poison();
                let mut guard = poisoned.into_inner();
                let reverted = guard.quarantine();
                self.quarantined.fetch_add(reverted, Ordering::Relaxed);
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                guard
            }
        };
        // Under audit, verify the quarantine invariant on every access: a
        // `Computing` slot tagged with an older generation would mean an
        // in-flight promotion survived a quarantine — exactly the stale
        // write the generation machinery exists to discard.
        #[cfg(feature = "audit")]
        for slot in guard.slots.values() {
            if let Slot::Computing(generation) = slot {
                assert_eq!(
                    *generation, guard.generation,
                    "store audit: a pre-quarantine promotion survived"
                );
            }
        }
        guard
    }

    /// Looks `key` up. `eager` callers know their key is shared by
    /// construction (the value is being computed either way, fulfilment just
    /// keeps it), so a first sighting promotes immediately instead of
    /// waiting for a second worker.
    pub fn lookup(&self, key: u128, eager: bool) -> StoreDecision<T> {
        let capacity = self.capacity;
        let mut inner = self.guard();
        let generation = inner.generation;
        match inner.slots.get(&key) {
            Some(Slot::Ready(value)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                StoreDecision::Hit(Arc::clone(value))
            }
            Some(Slot::Pending) => {
                if inner.promoted < capacity {
                    self.promotions.fetch_add(1, Ordering::Relaxed);
                    inner.promoted += 1;
                    inner.slots.insert(key, Slot::Computing(generation));
                    StoreDecision::Compute
                } else {
                    self.skips.fetch_add(1, Ordering::Relaxed);
                    StoreDecision::Skip
                }
            }
            Some(Slot::Computing(_)) => {
                self.skips.fetch_add(1, Ordering::Relaxed);
                StoreDecision::Skip
            }
            None => {
                if eager && inner.promoted < capacity {
                    self.promotions.fetch_add(1, Ordering::Relaxed);
                    inner.promoted += 1;
                    inner.slots.insert(key, Slot::Computing(generation));
                    return StoreDecision::Compute;
                }
                self.skips.fetch_add(1, Ordering::Relaxed);
                if inner.slots.len() < capacity * TRACKED_PER_CAPACITY {
                    inner.slots.insert(key, Slot::Pending);
                }
                StoreDecision::Skip
            }
        }
    }

    /// Stores a computed value for a key previously answered with
    /// [`StoreDecision::Compute`]. The write only lands while the slot is
    /// still in flight: a fulfilment whose promotion was quarantined (or
    /// already superseded) is discarded, not served — see the module docs.
    pub fn fulfill(&self, key: u128, value: Arc<T>) {
        let mut inner = self.guard();
        if matches!(inner.slots.get(&key), Some(Slot::Computing(_))) {
            inner.slots.insert(key, Slot::Ready(value));
        } else {
            self.discarded_fulfills.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Releases an in-flight promotion whose computation failed: the key
    /// returns to `Pending`, so a later caller may promote it again instead
    /// of skipping forever.
    pub fn abandon(&self, key: u128) {
        let mut inner = self.guard();
        if matches!(inner.slots.get(&key), Some(Slot::Computing(_))) {
            inner.promoted -= 1;
            inner.slots.insert(key, Slot::Pending);
        }
    }

    /// Quarantines every in-flight promotion: reverts `Computing` slots to
    /// `Pending` (releasing their capacity) and bumps the store generation,
    /// so any stale fulfilment from the quarantined workers is discarded.
    /// Schedulers call this after catching a worker panic — the panicking
    /// worker may have been promoting any of the shared keys. Returns the
    /// number of promotions reverted.
    pub fn quarantine_in_flight(&self) -> usize {
        let mut inner = self.guard();
        let reverted = inner.quarantine();
        self.quarantined.fetch_add(reverted, Ordering::Relaxed);
        reverted
    }

    /// Number of tracked keys (pending and fulfilled).
    pub fn len(&self) -> usize {
        self.guard().slots.len()
    }

    /// `true` when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from a fulfilled entry.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that asked the caller to compute-and-fulfill.
    pub fn promotions(&self) -> usize {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Lookups that found no usable entry.
    pub fn skips(&self) -> usize {
        self.skips.load(Ordering::Relaxed)
    }

    /// In-flight promotions reverted by quarantines (explicit or on poison
    /// recovery).
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Fulfilments discarded because their promotion was no longer in
    /// flight (quarantined or superseded).
    pub fn discarded_fulfills(&self) -> usize {
        self.discarded_fulfills.load(Ordering::Relaxed)
    }

    /// Times the lock accessor recovered from a poisoned mutex.
    pub fn poison_recoveries(&self) -> usize {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// The current store generation (bumped by every quarantine).
    pub fn generation(&self) -> u64 {
        self.guard().generation
    }

    /// The oldest generation tag among in-flight promotions, if any — an
    /// audit hook: a tag older than [`SharedStore::generation`] would mean
    /// a pre-quarantine promotion survived, which quarantine forbids.
    pub fn oldest_in_flight_generation(&self) -> Option<u64> {
        self.guard()
            .slots
            .values()
            .filter_map(|slot| match slot {
                Slot::Computing(generation) => Some(*generation),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_on_second_then_hit_and_abandon_releases() {
        let store: SharedStore<Vec<u8>> = SharedStore::new(4);
        assert!(matches!(store.lookup(1, false), StoreDecision::Skip));
        assert!(matches!(store.lookup(1, false), StoreDecision::Compute));
        // In flight: racers skip; abandon returns the key to Pending.
        assert!(matches!(store.lookup(1, false), StoreDecision::Skip));
        store.abandon(1);
        assert!(matches!(store.lookup(1, false), StoreDecision::Compute));
        store.fulfill(1, Arc::new(vec![7]));
        assert!(matches!(store.lookup(1, false), StoreDecision::Hit(_)));
        assert_eq!((store.hits(), store.promotions()), (1, 2));
    }

    #[test]
    fn eager_promotes_on_first_sighting_within_capacity() {
        let store: SharedStore<u32> = SharedStore::new(1);
        assert!(matches!(store.lookup(5, true), StoreDecision::Compute));
        store.fulfill(5, Arc::new(9));
        // Capacity exhausted: further eager first-sightings degrade to the
        // pending protocol.
        assert!(matches!(store.lookup(6, true), StoreDecision::Skip));
        assert!(matches!(store.lookup(5, true), StoreDecision::Hit(_)));
    }

    #[test]
    fn quarantine_reverts_in_flight_promotions_and_discards_stale_fulfills() {
        let store: SharedStore<u32> = SharedStore::new(4);
        assert!(matches!(store.lookup(1, true), StoreDecision::Compute));
        assert!(matches!(store.lookup(2, true), StoreDecision::Compute));
        assert_eq!(store.generation(), 0);
        // A worker panicked mid-promotion: both in-flight slots revert.
        assert_eq!(store.quarantine_in_flight(), 2);
        assert_eq!((store.quarantined(), store.generation()), (2, 1));
        assert_eq!(store.oldest_in_flight_generation(), None);
        // The dead worker's write arrives late: discarded, not served.
        store.fulfill(1, Arc::new(13));
        assert_eq!(store.discarded_fulfills(), 1);
        assert!(
            matches!(store.lookup(1, false), StoreDecision::Compute),
            "a quarantined key must re-promote, not serve the stale value"
        );
        // The re-promoted computation fulfils normally.
        store.fulfill(1, Arc::new(42));
        match store.lookup(1, false) {
            StoreDecision::Hit(v) => assert_eq!(*v, 42),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_keeps_fulfilled_values_and_releases_capacity() {
        let store: SharedStore<u32> = SharedStore::new(1);
        assert!(matches!(store.lookup(1, true), StoreDecision::Compute));
        store.fulfill(1, Arc::new(5));
        // Capacity 1 is used by the Ready value; nothing is in flight.
        assert_eq!(store.quarantine_in_flight(), 0);
        assert!(matches!(store.lookup(1, false), StoreDecision::Hit(_)));
        // An in-flight promotion at full capacity: quarantining it releases
        // the capacity it held.
        let store: SharedStore<u32> = SharedStore::new(1);
        assert!(matches!(store.lookup(1, true), StoreDecision::Compute));
        assert!(matches!(store.lookup(2, true), StoreDecision::Skip));
        assert_eq!(store.quarantine_in_flight(), 1);
        assert!(matches!(store.lookup(2, false), StoreDecision::Compute));
    }

    #[test]
    fn poisoned_lock_recovers_and_quarantines_in_flight() {
        let store: Arc<SharedStore<u32>> = Arc::new(SharedStore::new(4));
        assert!(matches!(store.lookup(1, true), StoreDecision::Compute));
        // Poison the mutex: a worker dies while holding the lock.
        let poisoner = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock();
            panic!("worker dies holding the store lock");
        })
        .join();
        assert!(store.inner.is_poisoned());
        // Every accessor keeps working; the in-flight promotion from before
        // the crash was conservatively quarantined on recovery.
        assert_eq!(store.len(), 1);
        assert_eq!(store.poison_recoveries(), 1);
        assert_eq!(store.quarantined(), 1);
        assert!(!store.inner.is_poisoned(), "poison is cleared on recovery");
        assert!(matches!(store.lookup(1, false), StoreDecision::Compute));
        store.fulfill(1, Arc::new(7));
        assert!(matches!(store.lookup(1, false), StoreDecision::Hit(_)));
    }

    #[test]
    fn fulfill_without_promotion_is_discarded() {
        let store: SharedStore<u32> = SharedStore::new(4);
        // Never promoted: the write has no in-flight slot to land on.
        store.fulfill(9, Arc::new(1));
        assert_eq!(store.discarded_fulfills(), 1);
        assert!(matches!(store.lookup(9, false), StoreDecision::Skip));
    }
}
