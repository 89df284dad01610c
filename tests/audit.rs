//! Exercises the runtime mint/cache-audit layer (`--features audit`).
//!
//! The static pass (`falvolt-tidy`) checks the *preconditions* of the
//! "id equality certifies byte equality" contract; these tests drive the
//! `audit` feature's dynamic checks: the global id → fingerprint registry,
//! the fulfil-twice collision detection in the shared caches, and the
//! `import_parameters` id-stability assertions — plus real inference
//! traffic with every assertion armed.

#![cfg(feature = "audit")]

use falvolt_snn::config::ArchitectureConfig;
use falvolt_snn::sweep_cache::SweepCache;
use falvolt_systolic::ProductCache;
use falvolt_tensor::{audit, StoreDecision, Tensor};
use std::sync::Arc;

fn tensor(data: &[f32]) -> Tensor {
    Tensor::from_vec(vec![data.len()], data.to_vec()).expect("shape matches data")
}

#[test]
fn content_id_is_stable_until_mutation_and_reminted_after() {
    let mut t = tensor(&[1.0, 2.0, 3.0]);
    let before = t.content_id();
    // Re-observing an unchanged tensor is fine and keeps the id.
    assert_eq!(t.content_id(), before);
    let clone = t.clone();
    assert_eq!(clone.content_id(), before, "clones share bytes, so the id");
    // A mutable access re-mints: the old id stays bound to the old bytes in
    // the registry, the new bytes get a new id — no collision, no panic.
    t.data_mut()[0] = -1.0;
    let after = t.content_id();
    assert_ne!(after, before, "mutation must re-mint the content id");
    // The clone still observes the old id over the old bytes.
    assert_eq!(clone.content_id(), before);
    assert!(audit::observed() >= 2, "both generations are registered");
}

#[test]
fn a_forged_id_over_different_bytes_panics() {
    // Simulate the bug the audit exists for: the same id certifying two
    // different buffers (a deserializer or unsafe path bypassing the mint).
    let id = u64::MAX - 101;
    audit::observe(id, &[1.0, 2.0]);
    let outcome = std::panic::catch_unwind(|| audit::observe(id, &[2.0, 1.0]));
    assert!(outcome.is_err(), "mint bypass must be caught");
}

#[test]
fn product_cache_rejects_fulfil_twice_with_different_bytes() {
    let cache = ProductCache::new();
    let _ = cache.lookup(42);
    assert!(matches!(cache.lookup(42), StoreDecision::Compute));
    cache.fulfill(42, Arc::new(vec![1.0, 2.0]));
    // Byte-identical refulfilment (a quarantined worker's recompute) is
    // legal — the store discards it, the audit accepts it.
    cache.fulfill(42, Arc::new(vec![1.0, 2.0]));
    // Different bytes under the same key: fingerprint collision or an
    // impure compute function. The audit panics before the store decides.
    let outcome = std::panic::catch_unwind(|| cache.fulfill(42, Arc::new(vec![9.0])));
    assert!(outcome.is_err(), "divergent refulfilment must be caught");
}

#[test]
fn qweight_store_is_audited_separately_from_products() {
    let cache = ProductCache::new();
    let _ = cache.lookup_qweights(7);
    assert!(matches!(cache.lookup_qweights(7), StoreDecision::Compute));
    cache.fulfill_qweights(7, Arc::new(vec![3, -4]));
    // The product store may hold different bytes under the same key value —
    // the stores are distinct namespaces.
    let _ = cache.lookup(7);
    assert!(matches!(cache.lookup(7), StoreDecision::Compute));
    cache.fulfill(7, Arc::new(vec![0.5]));
    let outcome = std::panic::catch_unwind(|| cache.fulfill_qweights(7, Arc::new(vec![3, 4])));
    assert!(outcome.is_err());
}

#[test]
fn sweep_cache_audits_prefix_and_lowered_fulfilments() {
    let cache = SweepCache::new();
    let _ = cache.lookup_prefix(11);
    assert!(matches!(cache.lookup_prefix(11), StoreDecision::Compute));
    cache.fulfill_prefix(11, Arc::new(tensor(&[1.0, 0.0, 1.0])));
    cache.fulfill_prefix(11, Arc::new(tensor(&[1.0, 0.0, 1.0])));
    let bad = tensor(&[0.0, 0.0, 0.0]);
    let outcome = std::panic::catch_unwind(|| cache.fulfill_prefix(11, Arc::new(bad)));
    assert!(
        outcome.is_err(),
        "divergent prefix refulfilment must be caught"
    );
    // The lowered store is its own namespace: the same key with other bytes
    // is fine there.
    assert!(matches!(
        cache.lookup_lowered_eager(11),
        StoreDecision::Compute
    ));
    cache.fulfill_lowered(11, Arc::new(tensor(&[5.0])));
}

#[test]
fn import_parameters_keeps_ids_for_unchanged_values() {
    let mut network = ArchitectureConfig::tiny_test().build(3).expect("builds");
    let exported = network.export_parameters();
    let ids_before: Vec<u64> = network
        .params_mut()
        .iter()
        .map(|p| p.value().content_id())
        .collect();
    // A round-trip import of the identical values is a no-op: every
    // parameter keeps its id (the internal audit asserts this too).
    network.import_parameters(&exported).expect("imports");
    let ids_after: Vec<u64> = network
        .params_mut()
        .iter()
        .map(|p| p.value().content_id())
        .collect();
    assert_eq!(ids_before, ids_after, "no-op import must keep every id");
    // A changed value re-mints exactly that parameter's id.
    let mut changed = exported.clone();
    let bumped = changed[0].map(|v| v + 0.25);
    changed[0] = bumped;
    network.import_parameters(&changed).expect("imports");
    let ids_changed: Vec<u64> = network
        .params_mut()
        .iter()
        .map(|p| p.value().content_id())
        .collect();
    assert_ne!(ids_changed[0], ids_after[0], "changed bytes re-mint");
    assert_eq!(
        ids_changed[1..],
        ids_after[1..],
        "unchanged params keep ids"
    );
}

#[test]
fn inference_traffic_passes_with_every_assertion_armed() {
    // Real cached inference with the audit observing every id that
    // escapes to the caches: a false positive here would mean the hooks
    // fire on legal traffic. The id-keyed cache paths only activate with
    // a sweep cache installed (as campaign sweeps do), so install one and
    // evaluate twice — the repeat visit exercises the promote/fulfil
    // protocol too.
    use falvolt::SystolicBackend;
    use falvolt_snn::trainer::{evaluate, Batch};
    use falvolt_systolic::{FaultMap, SystolicConfig};
    use falvolt_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut network = ArchitectureConfig::tiny_test().build(17).expect("builds");
    let systolic = SystolicConfig::new(8, 8).expect("config");
    network.set_backend(SystolicBackend::shared(systolic, FaultMap::new(systolic)));
    network.set_sweep_cache(Some(Arc::new(SweepCache::new())));
    let mut rng = StdRng::seed_from_u64(6);
    let input = init::uniform(&[4, 1, 8, 8], 0.0, 0.5, &mut rng);
    let batch = Batch::new(input, vec![0, 1, 2, 3]).expect("batch");
    let observed_before = audit::observed();
    let first = evaluate(&mut network, std::slice::from_ref(&batch)).expect("evaluates");
    let second = evaluate(&mut network, std::slice::from_ref(&batch)).expect("evaluates");
    assert_eq!(first, second, "cached re-evaluation must be deterministic");
    assert!(
        audit::observed() > observed_before,
        "cached inference must route ids through the audit registry"
    );
}
