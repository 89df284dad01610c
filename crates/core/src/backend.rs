//! Adapter running SNN matrix products on the systolic-array simulator.

use falvolt_snn::{MatmulBackend, MatmulOutput, MatmulRequest};
use falvolt_systolic::{
    FaultMap, ProductCache, ScenarioMatrices, SystolicConfig, SystolicExecutor,
};
use falvolt_tensor::{Fingerprint, MatmulHint, SharedStore, StoreDecision, Tensor, TensorError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A [`MatmulBackend`] that executes every convolutional / fully connected
/// matrix product on the (possibly faulty) systolic-array model.
///
/// Install it on a trained [`falvolt_snn::SpikingNetwork`] with
/// [`falvolt_snn::SpikingNetwork::set_backend`] to measure how stuck-at
/// faults in the accelerator corrupt inference — the methodology of the
/// paper's fault-vulnerability analysis (Figure 5).
///
/// Faulty PEs always stay in the datapath. A chip whose faulty PEs are
/// bypassed (the paper's Figure 3b) is the fault-aware-pruned network
/// ([`crate::prune::PruneMasks::apply`]) on a backend with a fault-free map:
/// the structural oracle ([`falvolt_systolic::SystolicArray`]) proves the
/// two equal bit for bit, so the backend has no bypass mode.
///
/// # Example
///
/// ```
/// use falvolt::SystolicBackend;
/// use falvolt_snn::MatmulBackend;
/// use falvolt_systolic::{FaultMap, SystolicConfig};
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SystolicConfig::new(8, 8)?;
/// let backend = SystolicBackend::new(config, FaultMap::new(config));
/// let a = Tensor::ones(&[2, 8]);
/// let b = Tensor::full(&[8, 4], 0.125);
/// let out = backend.matmul(&a, &b)?;
/// assert!((out.get(&[0, 0]) - 1.0).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SystolicBackend {
    executor: SystolicExecutor,
}

impl SystolicBackend {
    /// Creates a backend with faults active in the datapath (the
    /// vulnerability-analysis setting).
    pub fn new(config: SystolicConfig, fault_map: FaultMap) -> Self {
        Self {
            executor: SystolicExecutor::new(config, fault_map),
        }
    }

    /// Convenience constructor returning the backend behind an [`Arc`], the
    /// form [`falvolt_snn::SpikingNetwork::set_backend`] expects.
    pub fn shared(config: SystolicConfig, fault_map: FaultMap) -> Arc<dyn MatmulBackend> {
        Arc::new(Self::new(config, fault_map))
    }

    /// The underlying executor.
    pub fn executor(&self) -> &SystolicExecutor {
        &self.executor
    }
}

impl MatmulBackend for SystolicBackend {
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput> {
        // The hint only steers the executor's fault-free fast path onto the
        // event-driven kernel; faulty products replay the quantized
        // accumulator chain bit-identically regardless. The scenario-sharing
        // claim is meaningless for a single-map backend and is ignored.
        self.executor
            .matmul_hinted(req.a(), req.b(), req.hint())
            .map(MatmulOutput::new)
            .map_err(as_tensor_error)
    }

    fn name(&self) -> &str {
        "systolic"
    }

    fn fingerprint(&self) -> u64 {
        systolic_fingerprint(&self.executor)
    }
}

/// The fingerprint of every single-map systolic backend: everything that
/// changes its products, which is the array geometry, the accumulator format
/// and the fault map's composed masks (all three in the map's fingerprint).
/// (The product cache and the scenario batch store are execution strategies,
/// not result state: the executor guarantees bit-identity with and without
/// them, so a [`ScenarioProducts`] member fingerprints equal to the
/// [`SystolicBackend`] with the same map and sweep-cache sharing carries over
/// unchanged.)
fn systolic_fingerprint(executor: &SystolicExecutor) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str("systolic");
    fp.write_u64(executor.fault_map().fingerprint());
    fp.finish() as u64
}

/// Default bound on value-bearing batched entries (each holds one output per
/// scenario, so the bound is deliberately modest).
const SCENARIO_BATCH_CAPACITY: usize = 64;

/// Sweep-shared multi-map product batcher: the scenario set of one sweep
/// wave (one systolic grid, many fault maps) plus a promote-on-second-request
/// store of batched products.
///
/// The store keeps every batched product until the set is dropped, and one
/// entry holds an output matrix per scenario. The sweep
/// ([`crate::vulnerability::scenario_accuracies`]) therefore builds one set
/// per test batch and drops it when that batch's wave ends, so it holds one
/// batch's multi-map products at a time.
///
/// Scenario workers execute whole network forwards independently, but the
/// products they issue against the *scenario-invariant* operands (the shared
/// im2col lowering of a test batch, the shared transposed weights) are
/// identical across workers — only the fault map differs. Each member
/// backend ([`ScenarioProducts::member`]) keys every product on its operands'
/// content ids: the first sighting computes inline through its own single-map
/// executor, the second proves the operands are shared across scenarios and
/// evaluates [`SystolicExecutor::matmul_scenarios`] — **one event-stream walk
/// for every map** — and later members copy their slice. Products whose
/// activations diverge per scenario (everything downstream of the first
/// corrupted spiking layer) never promote and fall back to the single-map
/// path, so batching is self-selecting and bit-identical either way.
pub struct ScenarioProducts {
    config: SystolicConfig,
    maps: Vec<FaultMap>,
    product_cache: Arc<ProductCache>,
    batch_executor: SystolicExecutor,
    store: SharedStore<ScenarioMatrices>,
    batches: AtomicUsize,
}

impl std::fmt::Debug for ScenarioProducts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioProducts")
            .field("scenarios", &self.maps.len())
            .field("hits", &self.hits())
            .field("batches", &self.batches())
            .finish()
    }
}

impl ScenarioProducts {
    /// Creates the batcher for one sweep's scenario set (all maps must
    /// target `config`'s grid; faults stay active in the datapath, matching
    /// [`SystolicBackend::new`]).
    pub fn new(
        config: SystolicConfig,
        maps: Vec<FaultMap>,
        product_cache: Arc<ProductCache>,
    ) -> Self {
        let mut batch_executor = SystolicExecutor::new(config, FaultMap::new(config));
        batch_executor.set_product_cache(Some(Arc::clone(&product_cache)));
        Self {
            config,
            maps,
            product_cache,
            batch_executor,
            store: SharedStore::new(SCENARIO_BATCH_CAPACITY),
            batches: AtomicUsize::new(0),
        }
    }

    /// Number of scenarios in the set.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// `true` for an empty scenario set.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// Batched products served from a fulfilled entry.
    pub fn hits(&self) -> usize {
        self.store.hits()
    }

    /// Multi-map batched evaluations performed.
    pub fn batches(&self) -> usize {
        self.batches.load(Ordering::Relaxed)
    }

    /// The backend of scenario `index`: behaves exactly like a
    /// [`SystolicBackend`] built with the set's product cache and
    /// `maps[index]` installed (same name, same fingerprint, bit-identical
    /// products), but consults the shared batch store first.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CampaignError::InvalidPlan`] when `index` is out of
    /// range — a bad scenario index is a plan defect the scheduler records,
    /// not grounds for a process abort.
    pub fn member(set: &Arc<Self>, index: usize) -> crate::Result<Arc<dyn MatmulBackend>> {
        if index >= set.maps.len() {
            return Err(crate::error::CampaignError::invalid_plan(format!(
                "scenario index {index} out of range for a set of {}",
                set.maps.len()
            ))
            .into());
        }
        let mut executor = SystolicExecutor::new(set.config, set.maps[index].clone());
        executor.set_product_cache(Some(Arc::clone(&set.product_cache)));
        executor.set_cancel_token(set.batch_executor.cancel_token().cloned());
        Ok(Arc::new(ScenarioMemberBackend {
            set: Arc::clone(set),
            index,
            executor,
        }))
    }

    /// Installs a cooperative cancellation token on the batch executor;
    /// member backends created afterwards inherit it, so a tripped token
    /// stops batched *and* single-map products at fold-chain granularity.
    pub fn set_cancel_token(&mut self, token: Option<falvolt_tensor::CancelToken>) {
        self.batch_executor.set_cancel_token(token);
    }

    /// Quarantines every in-flight promotion of the shared batch store (a
    /// panicking member may have been computing a batched product). Returns
    /// the promotions reverted. The underlying product cache has its own
    /// [`ProductCache::quarantine_in_flight`].
    pub fn quarantine_in_flight(&self) -> usize {
        self.store.quarantine_in_flight()
    }

    /// One store lookup; `eager` callers declared the operands
    /// scenario-invariant (every member will request this product) and batch
    /// on first sighting instead of letting one worker pay the single-map
    /// path first.
    fn lookup(&self, key: u128, eager: bool) -> StoreDecision<ScenarioMatrices> {
        self.store.lookup(key, eager)
    }

    fn fulfill(&self, key: u128, outputs: Arc<ScenarioMatrices>) {
        #[cfg(feature = "audit")]
        self.audit_fulfill(key, &outputs);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.store.fulfill(key, outputs);
    }

    /// Under audit, a key fulfilled twice (first write quarantined, a later
    /// member recomputed) must carry byte-identical rows for every scenario.
    /// The store key names only the operands (the maps are the set's), so
    /// the audit keys on the maps too: two sets over different maps fulfil
    /// one operand key with different rows, legitimately.
    #[cfg(feature = "audit")]
    fn audit_fulfill(&self, key: u128, outputs: &ScenarioMatrices) {
        let mut set_key = Fingerprint::new();
        set_key.write_u64(key as u64);
        set_key.write_u64((key >> 64) as u64);
        for map in &self.maps {
            set_key.write_u64(map.fingerprint());
        }
        let (m, _) = outputs.dims();
        let rows = (0..outputs.scenarios()).flat_map(|s| (0..m).map(move |i| outputs.row(s, i)));
        falvolt_tensor::audit::check_fulfill(
            "scenario-products",
            set_key.finish(),
            falvolt_tensor::audit::fingerprint_bytes(
                rows.flatten().flat_map(|v| v.to_bits().to_le_bytes()),
            ),
        );
    }

    fn abandon(&self, key: u128) {
        self.store.abandon(key);
    }
}

/// One scenario's view of a [`ScenarioProducts`] set.
#[derive(Debug)]
struct ScenarioMemberBackend {
    set: Arc<ScenarioProducts>,
    index: usize,
    executor: SystolicExecutor,
}

impl ScenarioMemberBackend {
    /// Consults the batch store for this product; `None` means the caller
    /// should fall back to the single-map path.
    fn batched(
        &self,
        a: &Tensor,
        b: &Tensor,
        hint: MatmulHint,
        eager: bool,
    ) -> Option<falvolt_tensor::Result<Tensor>> {
        if a.ndim() != 2 || b.ndim() != 2 || a.shape()[1] != b.shape()[0] {
            return None;
        }
        let mut fp = Fingerprint::new();
        fp.write_str("scenario-batch");
        fp.write_dims(a.shape());
        fp.write_dims(b.shape());
        fp.write_u64(match hint {
            MatmulHint::Auto => 0,
            MatmulHint::Dense => 1,
            MatmulHint::Spikes => 2,
        });
        fp.write_u64(a.content_id());
        fp.write_u64(b.content_id());
        let key = fp.finish();
        match self.set.lookup(key, eager) {
            StoreDecision::Skip => None,
            // Members gather their scenario straight out of the interleaved
            // batch view — only the requested matrix is ever materialised.
            StoreDecision::Hit(outputs) => {
                Some(outputs.tensor(self.index).map_err(as_tensor_error))
            }
            StoreDecision::Compute => {
                match self
                    .set
                    .batch_executor
                    .matmul_scenarios_view(a, b, &self.set.maps, hint)
                {
                    Ok(outputs) => {
                        let outputs = Arc::new(outputs);
                        self.set.fulfill(key, Arc::clone(&outputs));
                        Some(outputs.tensor(self.index).map_err(as_tensor_error))
                    }
                    Err(e) => {
                        // Release the in-flight slot so the key is not dead for
                        // the rest of the sweep.
                        self.set.abandon(key);
                        Some(Err(as_tensor_error(e)))
                    }
                }
            }
        }
    }
}

impl MatmulBackend for ScenarioMemberBackend {
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput> {
        // A scenario-shared claim certifies the operands scenario-invariant:
        // batch for every map on first sighting instead of waiting for a
        // second worker to prove sharing.
        if let Some(result) = self.batched(req.a(), req.b(), req.hint(), req.is_scenario_shared()) {
            return result.map(MatmulOutput::new);
        }
        self.executor
            .matmul_hinted(req.a(), req.b(), req.hint())
            .map(MatmulOutput::new)
            .map_err(as_tensor_error)
    }

    fn name(&self) -> &str {
        "systolic"
    }

    fn fingerprint(&self) -> u64 {
        // A member is semantically a single-map systolic backend.
        systolic_fingerprint(&self.executor)
    }
}

fn as_tensor_error(e: falvolt_systolic::SystolicError) -> TensorError {
    match e {
        falvolt_systolic::SystolicError::Tensor(t) => t,
        other => TensorError::InvalidArgument {
            reason: format!("systolic executor failed: {other}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falvolt_systolic::{Fault, PeCoord, StuckAt, WeightMapping};

    #[test]
    fn clean_backend_is_close_to_float() {
        let config = SystolicConfig::new(4, 4).unwrap();
        let backend = SystolicBackend::new(config, FaultMap::new(config));
        let a = Tensor::ones(&[3, 4]);
        let b = Tensor::full(&[4, 5], 0.25);
        let sys = backend.matmul(&a, &b).unwrap();
        let float = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        for (x, y) in sys.data().iter().zip(float.data()) {
            assert!((x - y).abs() < 0.05);
        }
        assert_eq!(backend.name(), "systolic");
        assert!(backend.executor().fault_map().is_empty());
    }

    #[test]
    fn faulty_backend_corrupts_results_and_bypass_heals_them() {
        let config = SystolicConfig::new(4, 4).unwrap();
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(0, 0), 15, StuckAt::One)],
        )
        .unwrap();
        let a = Tensor::ones(&[1, 4]);
        let b = Tensor::full(&[4, 4], 0.5);
        let clean = falvolt_tensor::ops::matmul(&a, &b).unwrap();

        let faulty = SystolicBackend::new(config, fault_map.clone());
        let corrupted = faulty.matmul(&a, &b).unwrap();
        assert!((corrupted.get(&[0, 0]) - clean.get(&[0, 0])).abs() > 1.0);

        // Bypassing the faulty PE is pruning the weights mapped onto it: the
        // pruned weights on a fault-free chip.
        let mask = WeightMapping::new(&config).prune_mask(4, 4, &fault_map);
        let pruned = b.mul(&mask.transposed().unwrap()).unwrap();
        let bypassed = SystolicBackend::new(config, FaultMap::new(config));
        let healed = bypassed.matmul(&a, &pruned).unwrap();
        assert!((healed.get(&[0, 0]) - clean.get(&[0, 0])).abs() <= 0.5 + 1e-3);
    }

    #[test]
    fn shape_errors_surface_as_tensor_errors() {
        let config = SystolicConfig::new(4, 4).unwrap();
        let backend = SystolicBackend::new(config, FaultMap::new(config));
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 2]);
        assert!(backend.matmul(&a, &b).is_err());
    }

    #[test]
    fn scenario_members_fingerprint_like_single_map_backends() {
        let config = SystolicConfig::new(4, 4).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let maps = vec![
            FaultMap::new(config),
            FaultMap::random_msb_faults(&config, 2, &mut rng).unwrap(),
            FaultMap::random_msb_faults(&config, 5, &mut rng).unwrap(),
        ];
        let set = Arc::new(ScenarioProducts::new(
            config,
            maps.clone(),
            Arc::new(ProductCache::new()),
        ));
        for (i, map) in maps.iter().enumerate() {
            let member = ScenarioProducts::member(&set, i).unwrap();
            let single = SystolicBackend::new(config, map.clone());
            assert_eq!(member.fingerprint(), single.fingerprint(), "member {i}");
        }
    }

    #[cfg(feature = "audit")]
    #[test]
    fn batch_store_rejects_fulfil_twice_with_different_rows() {
        let config = SystolicConfig::new(4, 4).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let maps = vec![
            FaultMap::new(config),
            FaultMap::random_msb_faults(&config, 3, &mut rng).unwrap(),
        ];
        let set = ScenarioProducts::new(config, maps, Arc::new(ProductCache::new()));
        let weights = Tensor::full(&[4, 4], 0.5);
        let batch = |a: Tensor| {
            let outputs = set
                .batch_executor
                .matmul_scenarios_view(&a, &weights, &set.maps, MatmulHint::Dense)
                .unwrap();
            Arc::new(outputs)
        };
        let key = 0x5ce7_a810_ba7c_u128;
        assert!(matches!(set.lookup(key, true), StoreDecision::Compute));
        set.fulfill(key, batch(Tensor::ones(&[2, 4])));
        // Byte-identical refulfilment (a quarantined member's recompute) is
        // legal: the store discards it, the audit accepts it.
        set.fulfill(key, batch(Tensor::ones(&[2, 4])));
        // Different rows under the same key: fingerprint collision or an
        // impure batch. The audit panics before the store decides.
        let divergent = batch(Tensor::full(&[2, 4], 0.25));
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.fulfill(key, divergent)));
        assert!(outcome.is_err(), "divergent refulfilment must be caught");
        // A set over other maps is its own namespace: the same operand key
        // with other rows is fine there.
        let other_maps = vec![FaultMap::random_msb_faults(&config, 6, &mut rng).unwrap()];
        let other = ScenarioProducts::new(config, other_maps, Arc::new(ProductCache::new()));
        assert!(matches!(other.lookup(key, true), StoreDecision::Compute));
        let outputs = other
            .batch_executor
            .matmul_scenarios_view(
                &Tensor::ones(&[2, 4]),
                &weights,
                &other.maps,
                MatmulHint::Dense,
            )
            .unwrap();
        other.fulfill(key, Arc::new(outputs));
    }

    #[test]
    fn network_accepts_shared_backend() {
        use falvolt_snn::config::ArchitectureConfig;
        let config = SystolicConfig::new(8, 8).unwrap();
        let mut network = ArchitectureConfig::tiny_test().build(1).unwrap();
        network.set_backend(SystolicBackend::shared(config, FaultMap::new(config)));
        assert_eq!(network.backend().name(), "systolic");
        let input = Tensor::zeros(&[1, 1, 8, 8]);
        assert!(network.predict(&input).is_ok());
    }
}
