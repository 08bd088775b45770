//! A concurrent model registry for the estimation hot path.
//!
//! The [`GlobalCatalog`] is the paper's
//! single-threaded picture of "cost model parameters kept in the MDBS
//! catalog". A front-end that re-derives models in the background while
//! answering estimates needs more: estimation must never block behind a
//! derivation, and a reader must never observe a half-written model. The
//! [`ModelRegistry`] provides that with a sharded `RwLock` map from
//! `(site, class)` to an [`Arc`]'d immutable snapshot, swapped whole on
//! publish — readers either see the old complete model or the new complete
//! model, nothing in between — plus a monotone global version so callers
//! can tell *which*.
//!
//! Shard selection uses an in-tree FNV-1a hash of the key, not the std
//! `RandomState`, so shard layout (and thus any iteration-derived output)
//! is stable across processes — the same determinism policy as the rest of
//! the workspace.

use crate::catalog::{GlobalCatalog, SiteId};
use crate::classes::{classify, QueryClass};
use crate::correction::EstimateQuery;
use crate::model::CostModel;
use mdbs_obs::Telemetry;
// Hash sharding is deliberate here: lookups are point reads keyed by
// (site, class); the maps are never iterated.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independent lock shards. A small power of two: contention on
/// a registry of dozens of models is negligible beyond this.
const SHARDS: usize = 16;

/// One published model snapshot: immutable once registered.
#[derive(Debug, Clone)]
pub struct RegisteredModel {
    /// The site the model covers.
    pub site: SiteId,
    /// The query class the model covers.
    pub class: QueryClass,
    /// The registry-global version at which this snapshot was published.
    pub version: u64,
    /// The fitted multi-states cost model.
    pub model: CostModel,
}

/// A served estimate with its full provenance: the snapshot version it
/// was computed against, the contention state the probing cost mapped
/// to, and what the online correction layer did to the raw model output —
/// everything a flight record or accuracy ledger needs to explain the
/// number. Computed against one `Arc` snapshot, so the fields are always
/// mutually coherent even while maintenance republishes.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateDetail {
    /// The estimated query cost to serve (corrected when a warm
    /// correction cell applied; otherwise the raw model output).
    pub estimate: f64,
    /// The raw model output before any correction — what the correction
    /// ledger learns from.
    pub raw_estimate: f64,
    /// Multiplicative correction factor applied (1.0 when none).
    pub correction: f64,
    /// Whether a correction cell actually adjusted this estimate.
    pub corrected: bool,
    /// The correction cell's residual scale — the `±` confidence the
    /// serving loop annotates answers with (0.0 when uncorrected).
    pub confidence: f64,
    /// Version of the snapshot the estimate came from.
    pub version: u64,
    /// Index of the contention state `probe_cost` mapped to.
    pub state: usize,
    /// The paper's label for that state (`S1` = highest contention).
    pub state_label: String,
}

/// One lock shard: a plain map from key to published snapshot.
#[allow(clippy::disallowed_types)]
type Shard = RwLock<HashMap<(SiteId, QueryClass), Arc<RegisteredModel>>>;

/// Sharded, versioned `(site, class) → CostModel` map. See the module docs.
#[derive(Debug)]
pub struct ModelRegistry {
    shards: Vec<Shard>,
    version: AtomicU64,
    publishes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::new()
    }
}

impl ModelRegistry {
    /// An empty registry.
    #[allow(clippy::disallowed_types)]
    pub fn new() -> Self {
        ModelRegistry {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            version: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, site: &SiteId, class: QueryClass) -> &Shard {
        &self.shards[(key_hash(site, class) as usize) % SHARDS]
    }

    /// Publishes (or replaces) the model for a site/class pair, returning
    /// the new snapshot's version. The swap is atomic from a reader's point
    /// of view: concurrent [`ModelRegistry::get`] calls observe either the
    /// previous snapshot or this one, whole.
    // ctx: serial-only
    pub fn publish(&self, site: SiteId, class: QueryClass, model: CostModel) -> u64 {
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(RegisteredModel {
            site: site.clone(),
            class,
            version,
            model,
        });
        self.shard(&site, class)
            .write()
            .expect("registry shard")
            .insert((site, class), entry);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        version
    }

    /// The current snapshot for a site/class pair, if any. Cheap: one
    /// shard read lock and an `Arc` clone.
    pub fn get(&self, site: &SiteId, class: QueryClass) -> Option<Arc<RegisteredModel>> {
        let found = self
            .shard(site, class)
            .read()
            .expect("registry shard")
            .get(&(site.clone(), class))
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// The registry-global version: increments on every publish, so a
    /// changed version means *some* model changed.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Number of registered site/class pairs.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("registry shard").len())
            .sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unified estimation entry point: classify the query, look up
    /// the snapshot, extract the Table-3 variables, evaluate the model in
    /// the contention state implied by the probing cost, and apply the
    /// attached correction ledger (if any, and warm). The whole estimate
    /// is computed against one `Arc` snapshot, so every
    /// [`EstimateDetail`] field is mutually coherent even while
    /// maintenance republishes underneath — a reader can assert the
    /// versions it observes never regress.
    ///
    /// `None` when the query cannot be classified or no model is
    /// registered for its class.
    pub fn estimate(&self, q: &EstimateQuery<'_>) -> Option<EstimateDetail> {
        let class = classify(q.schema, q.query)?;
        let snapshot = self.get(q.site, class)?;
        crate::correction::price_with_model(&snapshot.model, snapshot.version, class, q)
    }

    /// Loads every model of a [`GlobalCatalog`] into the registry,
    /// publishing in `(site, class)` order so versions are deterministic.
    pub fn from_catalog(catalog: &GlobalCatalog) -> Self {
        let registry = ModelRegistry::new();
        for site in catalog.sites() {
            for class in catalog.classes_for(&site) {
                if let Some(model) = catalog.model(&site, class) {
                    registry.publish(site.clone(), class, model.clone());
                }
            }
        }
        registry
    }

    /// Loads a versioned [`crate::store::CatalogSnapshot`], publishing in
    /// `(site, class)` order, then advances the registry version to at
    /// least the snapshot's — so models published *after* a warm start
    /// get versions strictly greater than anything already persisted,
    /// keeping registry versions and snapshot versions on one monotone
    /// axis.
    pub fn from_snapshot(snap: &crate::store::CatalogSnapshot) -> Self {
        let registry = ModelRegistry::from_catalog(&snap.catalog);
        registry.version.fetch_max(snap.version, Ordering::Relaxed);
        registry
    }

    /// Folds the registry's access counters into a telemetry collection:
    /// `registry.publishes`, `registry.hits`, `registry.misses` (all
    /// deterministic for a deterministic access sequence) and the current
    /// `registry.version` gauge.
    pub fn fold_metrics(&self, tel: &mut Telemetry) {
        tel.inc("registry.publishes", self.publishes.load(Ordering::Relaxed));
        tel.inc("registry.hits", self.hits.load(Ordering::Relaxed));
        tel.inc("registry.misses", self.misses.load(Ordering::Relaxed));
        tel.gauge("registry.version", self.version() as f64);
    }
}

/// FNV-1a over the site name and the class discriminant: a stable,
/// process-independent shard/job key.
pub(crate) fn key_hash(site: &SiteId, class: QueryClass) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in site.0.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(PRIME);
    }
    let tag = QueryClass::all()
        .iter()
        .position(|&c| c == class)
        .expect("class is in the canonical list") as u64;
    h = (h ^ (0x80 | tag)).wrapping_mul(PRIME);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{fit_cost_model, ModelForm};
    use crate::observation::Observation;
    use crate::qualvar::StateSet;

    /// A toy one-state model `cost = intercept + slope·x`.
    fn toy_model(slope: f64) -> CostModel {
        let obs: Vec<Observation> = (0..30)
            .map(|i| {
                let x = (i % 10) as f64 * 100.0;
                Observation {
                    x: vec![x],
                    cost: 1.0 + slope * x + (i % 3) as f64 * 1e-3,
                    probe_cost: 1.0,
                }
            })
            .collect();
        fit_cost_model(
            ModelForm::Coincident,
            StateSet::single(),
            vec![0],
            vec!["N_O".into()],
            &obs,
        )
        .unwrap()
    }

    #[test]
    fn publish_then_get_roundtrips() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let v = reg.publish("oracle".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        assert_eq!(v, 1);
        assert_eq!(reg.len(), 1);
        let snap = reg.get(&"oracle".into(), QueryClass::UnaryNoIndex).unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.class, QueryClass::UnaryNoIndex);
        assert!(reg.get(&"oracle".into(), QueryClass::JoinNoIndex).is_none());
    }

    #[test]
    fn republish_bumps_version_and_swaps_whole_model() {
        let reg = ModelRegistry::new();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        let old = reg.get(&"s".into(), QueryClass::UnaryNoIndex).unwrap();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.02));
        let new = reg.get(&"s".into(), QueryClass::UnaryNoIndex).unwrap();
        assert!(new.version > old.version);
        assert_ne!(
            old.model.coefficients, new.model.coefficients,
            "snapshots are distinct objects"
        );
        // The old Arc stays valid for readers that still hold it.
        assert_eq!(old.version, 1);
    }

    #[test]
    fn catalog_roundtrip_preserves_models() {
        let mut catalog = GlobalCatalog::new();
        catalog.insert_model("a".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        catalog.insert_model("b".into(), QueryClass::JoinNoIndex, toy_model(0.03));
        let reg = ModelRegistry::from_catalog(&catalog);
        assert_eq!(reg.len(), 2);
        // Published in (site, class) order, one version each.
        for (version, site, class) in [
            (1, "a", QueryClass::UnaryNoIndex),
            (2, "b", QueryClass::JoinNoIndex),
        ] {
            let entry = reg.get(&site.into(), class).unwrap();
            assert_eq!(entry.version, version);
            assert_eq!(
                entry.model.coefficients,
                catalog.model(&site.into(), class).unwrap().coefficients
            );
        }
        assert!(reg.get(&"a".into(), QueryClass::JoinNoIndex).is_none());
    }

    #[test]
    fn key_hash_is_stable_and_separates_classes() {
        let a = key_hash(&"oracle".into(), QueryClass::UnaryNoIndex);
        let b = key_hash(&"oracle".into(), QueryClass::JoinNoIndex);
        let c = key_hash(&"db2".into(), QueryClass::UnaryNoIndex);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, key_hash(&"oracle".into(), QueryClass::UnaryNoIndex));
    }

    #[test]
    fn fold_metrics_reports_access_counters() {
        let reg = ModelRegistry::new();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        reg.get(&"s".into(), QueryClass::UnaryNoIndex);
        reg.get(&"s".into(), QueryClass::JoinNoIndex);
        let mut tel = Telemetry::enabled();
        reg.fold_metrics(&mut tel);
        assert_eq!(tel.metrics.counter("registry.publishes"), 1);
        assert_eq!(tel.metrics.counter("registry.hits"), 1);
        assert_eq!(tel.metrics.counter("registry.misses"), 1);
    }

    #[test]
    fn concurrent_readers_see_whole_snapshots_during_swaps() {
        let reg = ModelRegistry::new();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        #[allow(clippy::disallowed_methods)]
        // lint:allow(no-raw-threads): torn-read stress test needs raw racing threads; nothing output-relevant is computed
        std::thread::scope(|scope| {
            let reg = &reg;
            scope.spawn(move || {
                for i in 0..200 {
                    let slope = 0.01 + (i % 7) as f64 * 0.001;
                    reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(slope));
                }
            });
            for _ in 0..2 {
                scope.spawn(move || {
                    for _ in 0..500 {
                        let snap = reg
                            .get(&"s".into(), QueryClass::UnaryNoIndex)
                            .expect("model never absent once published");
                        // A torn model would break internal invariants;
                        // estimating exercises the coefficient table.
                        let est = snap.model.estimate(&[100.0], 1.0);
                        assert!(est.is_finite());
                    }
                });
            }
        });
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.version(), 201);
    }
}
