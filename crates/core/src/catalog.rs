//! The MDBS global catalog.
//!
//! "The cost model parameters are kept in the MDBS catalog and utilized
//! during query optimization" (paper §1). The catalog maps
//! `(site, query class)` to a derived [`CostModel`] and keeps the per-site
//! probing-cost estimators of eq. (2); the global optimizer asks it for
//! local cost estimates.

use crate::classes::QueryClass;
use crate::model::{CostModel, ModelAccumulator};
use crate::probing::ProbeCostEstimator;
use std::collections::BTreeMap;

/// Identifies a local site within the MDBS.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub String);

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<T: Into<String>> From<T> for SiteId {
    fn from(s: T) -> Self {
        SiteId(s.into())
    }
}

/// One site's entries, keyed by site so a lookup borrows the [`SiteId`].
#[derive(Debug, Clone, Default)]
struct SiteEntry {
    models: BTreeMap<QueryClass, CostModel>,
    accumulators: BTreeMap<QueryClass, ModelAccumulator>,
    probe: Option<ProbeCostEstimator>,
}

/// The global catalog: cost models and probe estimators per site.
#[derive(Debug, Clone, Default)]
pub struct GlobalCatalog {
    sites: BTreeMap<SiteId, SiteEntry>,
}

impl GlobalCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        GlobalCatalog::default()
    }

    /// Stores (or replaces) the cost model for a site/class pair.
    pub fn insert_model(&mut self, site: SiteId, class: QueryClass, model: CostModel) {
        let entry = self.sites.entry(site).or_default();
        entry.models.insert(class, model);
    }

    /// Stores (or replaces) a site's probing-cost estimator.
    pub fn insert_probe_estimator(&mut self, site: SiteId, est: ProbeCostEstimator) {
        self.sites.entry(site).or_default().probe = Some(est);
    }

    /// Stores (or replaces) the sufficient statistics backing a site/class
    /// model, so a later process resumes incremental refits without a rescan.
    pub fn insert_accumulator(&mut self, site: SiteId, class: QueryClass, acc: ModelAccumulator) {
        let entry = self.sites.entry(site).or_default();
        entry.accumulators.insert(class, acc);
    }

    /// Fetches the model for a site/class pair.
    pub fn model(&self, site: &SiteId, class: QueryClass) -> Option<&CostModel> {
        self.sites.get(site)?.models.get(&class)
    }

    /// Every model in `(site, class)` order.
    pub fn models(&self) -> impl Iterator<Item = (&SiteId, QueryClass, &CostModel)> {
        self.sites
            .iter()
            .flat_map(|(site, entry)| entry.models.iter().map(move |(&class, m)| (site, class, m)))
    }

    /// Fetches the stored fit accumulator for a site/class pair, if any.
    pub fn accumulator(&self, site: &SiteId, class: QueryClass) -> Option<&ModelAccumulator> {
        self.sites.get(site)?.accumulators.get(&class)
    }

    /// Fetches a site's probing-cost estimator.
    pub fn probe_estimator(&self, site: &SiteId) -> Option<&ProbeCostEstimator> {
        self.sites.get(site)?.probe.as_ref()
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.sites.values().map(|e| e.models.len()).sum()
    }

    /// True when no models are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries a persisted snapshot carries: every model, every
    /// probe estimator, and every accumulator whose (site, class) has a model.
    pub(crate) fn entry_count(&self) -> usize {
        let persisted = |e: &SiteEntry| {
            let accumulators = e.accumulators.keys().filter(|c| e.models.contains_key(c));
            e.models.len() + accumulators.count() + usize::from(e.probe.is_some())
        };
        self.sites.values().map(persisted).sum()
    }

    /// All sites that have at least one model or probe estimator, in order.
    pub fn sites(&self) -> Vec<SiteId> {
        self.sites
            .iter()
            .filter(|(_, e)| !e.models.is_empty() || e.probe.is_some())
            .map(|(site, _)| site.clone())
            .collect()
    }

    /// The classes a site has models for, in report order.
    pub fn classes_for(&self, site: &SiteId) -> Vec<QueryClass> {
        let classes = self
            .sites
            .get(site)
            .map(|e| e.models.keys().copied().collect());
        classes.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correction::EstimateQuery;
    use crate::model::{fit_cost_model, ModelForm};
    use crate::observation::Observation;
    use crate::qualvar::StateSet;
    use crate::registry::ModelRegistry;
    use crate::store::CatalogSnapshot;
    use mdbs_sim::datagen::standard_database;
    use mdbs_sim::query::{Predicate, Query, UnaryQuery};

    /// A tiny hand-made unary model: cost = 1 + 0.001·N_O (one state).
    fn toy_model() -> CostModel {
        let obs: Vec<Observation> = (0..30)
            .map(|i| {
                let n_o = 1000.0 * (1 + i % 10) as f64;
                Observation {
                    x: vec![n_o, n_o, n_o / 2.0, 44.0, 20.0, n_o * 44.0, n_o * 10.0, 0.0],
                    cost: 1.0 + 0.001 * n_o + (i % 3) as f64 * 0.001,
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
    fn insert_and_lookup() {
        let mut cat = GlobalCatalog::new();
        assert!(cat.is_empty());
        let site: SiteId = "oracle-site".into();
        cat.insert_model(site.clone(), QueryClass::UnaryNoIndex, toy_model());
        assert_eq!(cat.len(), 1);
        assert!(cat.model(&site, QueryClass::UnaryNoIndex).is_some());
        assert!(cat.model(&site, QueryClass::JoinNoIndex).is_none());
        assert!(cat
            .model(&"other".into(), QueryClass::UnaryNoIndex)
            .is_none());
        assert_eq!(cat.classes_for(&site), vec![QueryClass::UnaryNoIndex]);
    }

    #[test]
    fn estimate_end_to_end() {
        let db = standard_database(42);
        let mut cat = GlobalCatalog::new();
        let site: SiteId = "s1".into();
        cat.insert_model(site.clone(), QueryClass::UnaryNoIndex, toy_model());
        let t = &db.tables()[3];
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(4, t.columns[4].domain_max / 2)],
            order_by: None,
        });
        let detail = ModelRegistry::from_snapshot(&CatalogSnapshot::at_version(cat, 0))
            .estimate(&EstimateQuery::raw(&site, &db, &q, 1.0))
            .unwrap();
        assert_eq!(detail.version, 1, "the catalog's one model, published once");
        assert!(!detail.corrected, "no ledger attached");
        assert_eq!(detail.estimate, detail.raw_estimate);
        let est = detail.estimate;
        let expected = 1.0 + 0.001 * t.cardinality as f64;
        assert!(
            (est - expected).abs() / expected < 0.05,
            "{est} vs {expected}"
        );
    }

    /// Any probe value reaches the estimate entry point without a panic;
    /// only NaN, which selects no contention state, prices nothing.
    #[test]
    fn estimate_is_total_over_probe_values() {
        let db = standard_database(42);
        let site: SiteId = "s1".into();
        let mut cat = GlobalCatalog::new();
        cat.insert_model(site.clone(), QueryClass::UnaryNoIndex, toy_model());
        let registry = ModelRegistry::from_snapshot(&CatalogSnapshot::at_version(cat, 0));
        let t = &db.tables()[3];
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(4, t.columns[4].domain_max / 2)],
            order_by: None,
        });
        for probe in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 1e300] {
            let answer = registry.estimate(&EstimateQuery::raw(&site, &db, &q, probe));
            assert_eq!(answer.is_none(), probe.is_nan(), "probe {probe}");
        }
    }

    #[test]
    fn estimate_without_model_is_none() {
        let db = standard_database(42);
        let registry = ModelRegistry::from_snapshot(&CatalogSnapshot::new());
        let t = &db.tables()[0];
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![],
            predicates: vec![],
            order_by: None,
        });
        assert!(registry
            .estimate(&EstimateQuery::raw(&"s".into(), &db, &q, 1.0))
            .is_none());
    }
}
