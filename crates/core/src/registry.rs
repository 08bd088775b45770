//! The model registry: the serving loop's versioned view of the catalog's
//! cost models.
//!
//! The [`crate::catalog::GlobalCatalog`] is the paper's picture of "cost
//! model parameters kept in the MDBS catalog". A server that republishes
//! models while it answers estimates also needs to say *which* model
//! priced an answer.
//! The [`ModelRegistry`] adds that: an ordered `(site, class)` map of
//! published models, each stamped with a monotone global version, plus the
//! publish/hit/miss counters its telemetry reports.
//!
//! The registry has one owner, the serving loop: publishes take
//! `&mut self` and lookups `&self`, so a publish can never interleave with
//! a lookup and nothing here locks.

use crate::catalog::SiteId;
use crate::classes::{classify, QueryClass};
use crate::correction::EstimateQuery;
use crate::model::CostModel;
use crate::store::CatalogSnapshot;
use mdbs_obs::Telemetry;
use std::cell::Cell;
use std::collections::BTreeMap;

/// One published model: immutable once registered.
#[derive(Debug, Clone)]
pub struct RegisteredModel {
    /// The site the model covers.
    pub site: SiteId,
    /// The query class the model covers.
    pub class: QueryClass,
    /// The registry-global version at which this model was published.
    pub version: u64,
    /// The fitted multi-states cost model.
    pub model: CostModel,
}

/// A served estimate with its full provenance: the model version it was
/// computed against, the contention state the probing cost mapped to, and
/// what the online correction layer did to the raw model output —
/// everything a flight record or accuracy ledger needs to explain the
/// number.
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
    /// Version of the model the estimate came from.
    pub version: u64,
    /// Index of the contention state `probe_cost` mapped to.
    pub state: usize,
    /// The paper's label for that state (`S1` = highest contention).
    pub state_label: String,
}

/// Versioned `(site, class) → CostModel` map. See the module docs.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    /// Site → class → published model; keyed by site first so a lookup
    /// borrows the caller's [`SiteId`].
    models: BTreeMap<SiteId, BTreeMap<QueryClass, RegisteredModel>>,
    version: u64,
    publishes: u64,
    /// Lookup counters; `Cell`s because lookups take `&self`.
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Publishes (or replaces) the model for a site/class pair, returning
    /// the new model's version.
    pub fn publish(&mut self, site: SiteId, class: QueryClass, model: CostModel) -> u64 {
        self.version += 1;
        self.publishes += 1;
        let entry = RegisteredModel {
            site: site.clone(),
            class,
            version: self.version,
            model,
        };
        self.models.entry(site).or_default().insert(class, entry);
        self.version
    }

    /// The current model for a site/class pair, if any.
    pub fn get(&self, site: &SiteId, class: QueryClass) -> Option<&RegisteredModel> {
        let found = self
            .models
            .get(site)
            .and_then(|by_class| by_class.get(&class));
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.set(counter.get() + 1);
        found
    }

    /// The registry-global version: increments on every publish, so a
    /// changed version means *some* model changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of registered site/class pairs.
    pub fn len(&self) -> usize {
        self.models.values().map(BTreeMap::len).sum()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The unified estimation entry point: classify the query, look up
    /// the model, extract the Table-3 variables, evaluate the model in
    /// the contention state implied by the probing cost, and apply the
    /// attached correction ledger (if any, and warm).
    ///
    /// `None` when the query cannot be classified or no model is
    /// registered for its class.
    pub fn estimate(&self, q: &EstimateQuery<'_>) -> Option<EstimateDetail> {
        let class = classify(q.schema, q.query)?;
        let entry = self.get(q.site, class)?;
        crate::correction::price_with_model(&entry.model, entry.version, class, q)
    }

    /// Loads a versioned [`CatalogSnapshot`]: every model is published in
    /// `(site, class)` order (v1..vn), then the registry version advances
    /// to at least the snapshot's — so models published *after* a warm
    /// start get versions strictly greater than anything already
    /// persisted, keeping registry and snapshot versions on one monotone
    /// axis.
    pub fn from_snapshot(snap: &CatalogSnapshot) -> Self {
        let mut registry = ModelRegistry::new();
        for (site, class, model) in snap.catalog.models() {
            registry.publish(site.clone(), class, model.clone());
        }
        registry.version = registry.version.max(snap.version);
        registry
    }

    /// Folds the registry's access counters into a telemetry collection:
    /// `registry.publishes`, `registry.hits`, `registry.misses` (all
    /// deterministic for a deterministic access sequence) and the current
    /// `registry.version` gauge.
    pub fn fold_metrics(&self, tel: &mut Telemetry) {
        tel.inc("registry.publishes", self.publishes);
        tel.inc("registry.hits", self.hits.get());
        tel.inc("registry.misses", self.misses.get());
        tel.gauge("registry.version", self.version as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::GlobalCatalog;
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
        let mut reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let v = reg.publish("oracle".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        assert_eq!(v, 1);
        assert_eq!(reg.len(), 1);
        let entry = reg.get(&"oracle".into(), QueryClass::UnaryNoIndex).unwrap();
        assert_eq!(entry.version, 1);
        assert_eq!(entry.class, QueryClass::UnaryNoIndex);
        assert!(reg.get(&"oracle".into(), QueryClass::JoinNoIndex).is_none());
    }

    #[test]
    fn republish_bumps_version_and_swaps_whole_model() {
        let mut reg = ModelRegistry::new();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        let old = reg
            .get(&"s".into(), QueryClass::UnaryNoIndex)
            .unwrap()
            .clone();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.02));
        let new = reg.get(&"s".into(), QueryClass::UnaryNoIndex).unwrap();
        assert_eq!((old.version, new.version), (1, 2));
        assert_ne!(old.model.coefficients, new.model.coefficients);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn catalog_roundtrip_preserves_models() {
        let mut catalog = GlobalCatalog::new();
        catalog.insert_model("a".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        catalog.insert_model("b".into(), QueryClass::JoinNoIndex, toy_model(0.03));
        let reg = ModelRegistry::from_snapshot(&CatalogSnapshot::at_version(catalog.clone(), 0));
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

    /// Loading numbers models v1..vn in (site, class) order; the registry
    /// then stands at max(n, snapshot version).
    #[test]
    fn load_numbers_models_in_site_class_order() {
        let mut catalog = GlobalCatalog::new();
        catalog.insert_model("b".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        catalog.insert_model("a".into(), QueryClass::JoinNoIndex, toy_model(0.02));
        catalog.insert_model("a".into(), QueryClass::UnaryNoIndex, toy_model(0.03));
        let (text_catalog, text_version) =
            GlobalCatalog::import_versioned(&catalog.export()).unwrap();
        assert_eq!(text_version, 0, "the plain text export is unversioned");
        let order = [
            ("a", QueryClass::UnaryNoIndex),
            ("a", QueryClass::JoinNoIndex),
            ("b", QueryClass::UnaryNoIndex),
        ];
        for (snapshot_version, registry_version) in [(0, 3), (2, 3), (7, 7)] {
            let snap = CatalogSnapshot::at_version(text_catalog.clone(), snapshot_version);
            let reg = ModelRegistry::from_snapshot(&snap);
            assert_eq!(
                reg.version(),
                registry_version,
                "snapshot v{snapshot_version}"
            );
            for (i, (site, class)) in order.iter().enumerate() {
                let entry = reg.get(&(*site).into(), *class).unwrap();
                assert_eq!(entry.version, i as u64 + 1, "{site}/{class:?}");
            }
        }
    }

    #[test]
    fn fold_metrics_reports_access_counters() {
        let mut reg = ModelRegistry::new();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        reg.get(&"s".into(), QueryClass::UnaryNoIndex);
        reg.get(&"s".into(), QueryClass::JoinNoIndex);
        let mut tel = Telemetry::enabled();
        reg.fold_metrics(&mut tel);
        assert_eq!(tel.metrics.counter("registry.publishes"), 1);
        assert_eq!(tel.metrics.counter("registry.hits"), 1);
        assert_eq!(tel.metrics.counter("registry.misses"), 1);
    }
}
