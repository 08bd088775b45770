//! A demonstration global query optimizer.
//!
//! This is the *consumer* of everything else in the crate: "based on the
//! estimated local costs, the global query optimizer chooses a good
//! execution plan for a global query" (paper §1). The optimizer here covers
//! the canonical MDBS decision for a two-site join — *where should the join
//! run?* — by pricing, for each direction:
//!
//! 1. the component unary query that filters the shipped operand at its
//!    home site (estimated with that site's derived cost model),
//! 2. the network transfer of the intermediate result,
//! 3. the join executed at the destination site against the shipped
//!    temporary table (estimated with that site's join cost model).
//!
//! Contention enters through the per-site probing costs supplied by the
//! caller — measured with a real probe or estimated via eq. (2).

use crate::catalog::{GlobalCatalog, SiteId};
use crate::classes::{classify, QueryClass};
use crate::variables::VariableFamily;
use crate::CoreError;
use mdbs_sim::catalog::{ColumnDef, IndexKind, LocalCatalog, TableDef, TableId};
use mdbs_sim::query::{JoinQuery, Predicate, Query, UnaryQuery};
use mdbs_sim::selectivity::unary_sizes;

/// One side of a global join.
#[derive(Debug, Clone)]
pub struct JoinOperand {
    /// The site holding the operand.
    pub site: SiteId,
    /// The operand table at that site.
    pub table: TableId,
    /// Join column index.
    pub join_col: usize,
    /// Local predicates applied before joining.
    pub predicates: Vec<Predicate>,
}

/// A global two-site join query.
#[derive(Debug, Clone)]
pub struct GlobalJoin {
    /// Left operand.
    pub left: JoinOperand,
    /// Right operand.
    pub right: JoinOperand,
}

/// A priced execution plan for a global join.
#[derive(Debug, Clone)]
pub struct PlanEstimate {
    /// Where the join runs.
    pub join_site: SiteId,
    /// Estimated cost of the filtering component query at the shipping
    /// site (seconds).
    pub ship_prepare_cost: f64,
    /// Estimated megabytes shipped.
    pub transfer_mb: f64,
    /// Estimated transfer cost (seconds).
    pub transfer_cost: f64,
    /// Estimated cost of the join at the destination (seconds).
    pub join_cost: f64,
}

impl PlanEstimate {
    /// Total estimated elapsed cost of the plan.
    pub fn total(&self) -> f64 {
        self.ship_prepare_cost + self.transfer_cost + self.join_cost
    }
}

/// The global optimizer: a catalog of cost models plus network parameters.
#[derive(Debug, Clone)]
pub struct GlobalOptimizer {
    /// Derived local cost models.
    pub catalog: GlobalCatalog,
    /// Network transfer cost in seconds per megabyte.
    pub network_s_per_mb: f64,
}

impl GlobalOptimizer {
    /// Creates an optimizer around a populated catalog.
    pub fn new(catalog: GlobalCatalog, network_s_per_mb: f64) -> Self {
        GlobalOptimizer {
            catalog,
            network_s_per_mb,
        }
    }

    /// Enumerates and prices both ship-directions for a global join.
    /// `schemas` and `probes` map each involved site to its schema and its
    /// currently gauged probing cost. Plans that cannot be priced (missing
    /// models) are skipped; the result is sorted cheapest-first.
    pub fn plan_join(
        &self,
        join: &GlobalJoin,
        schemas: &[(SiteId, &LocalCatalog)],
        probes: &[(SiteId, f64)],
    ) -> Result<Vec<PlanEstimate>, CoreError> {
        let schema_of = |site: &SiteId| {
            schemas
                .iter()
                .find(|(s, _)| s == site)
                .map(|(_, c)| *c)
                .ok_or_else(|| CoreError::Agent(format!("no schema for site {site}")))
        };
        let probe_of = |site: &SiteId| {
            probes
                .iter()
                .find(|(s, _)| s == site)
                .map(|(_, p)| *p)
                .ok_or_else(|| CoreError::Agent(format!("no probe cost for site {site}")))
        };
        let mut plans = Vec::new();
        for (shipped, dest) in [(&join.right, &join.left), (&join.left, &join.right)] {
            match self.price_direction(
                shipped,
                dest,
                schema_of(&shipped.site)?,
                schema_of(&dest.site)?,
                probe_of(&shipped.site)?,
                probe_of(&dest.site)?,
            ) {
                Some(p) => plans.push(p),
                None => continue,
            }
        }
        plans.sort_by(|a, b| a.total().partial_cmp(&b.total()).expect("finite totals"));
        Ok(plans)
    }

    /// Prices "filter `shipped` at home, move it, join at `dest`".
    fn price_direction(
        &self,
        shipped: &JoinOperand,
        dest: &JoinOperand,
        shipped_schema: &LocalCatalog,
        dest_schema: &LocalCatalog,
        shipped_probe: f64,
        dest_probe: f64,
    ) -> Option<PlanEstimate> {
        let shipped_table = shipped_schema.table(shipped.table)?;
        // Component 1: the filtering unary query at the shipping site.
        let filter_query = Query::Unary(UnaryQuery {
            table: shipped.table,
            projection: vec![],
            predicates: shipped.predicates.clone(),
            order_by: None,
        });
        let filter_class = classify(shipped_schema, &filter_query)?;
        let ship_prepare_cost = crate::correction::price_with_model(
            self.catalog.model(&shipped.site, filter_class)?,
            0,
            filter_class,
            &crate::correction::EstimateQuery::raw(
                &shipped.site,
                shipped_schema,
                &filter_query,
                shipped_probe,
            ),
        )?
        .estimate;
        // Component 2: the network transfer of the intermediate.
        let Query::Unary(ref u) = filter_query else {
            unreachable!("constructed as unary above");
        };
        let shipped_card = unary_sizes(shipped_table, u).result;
        let transfer_mb =
            shipped_card as f64 * shipped_table.tuple_len() as f64 / (1024.0 * 1024.0);
        let transfer_cost = transfer_mb * self.network_s_per_mb;
        // Component 3: the join at the destination against a temporary
        // table (same columns, no indexes, the shipped cardinality).
        let temp = temp_table(shipped_table, shipped_card);
        let mut augmented = dest_schema.clone();
        augmented.add_table(temp.clone());
        let join_query = Query::Join(JoinQuery {
            left: dest.table,
            right: temp.id,
            left_col: dest.join_col,
            right_col: shipped.join_col,
            left_predicates: dest.predicates.clone(),
            right_predicates: Vec::new(),
            projection: vec![(true, 0), (false, 0)],
        });
        // The temporary table has no indexes, so the class depends only on
        // the destination's join column.
        let class = classify(&augmented, &join_query)?;
        let model = self.catalog.model(&dest.site, class).or_else(|| {
            // Fall back to the unindexed join model: a shipped temp is never
            // indexed, and an indexed destination column may lack a model.
            self.catalog.model(&dest.site, QueryClass::JoinNoIndex)
        })?;
        let x = VariableFamily::Join.extract(&augmented, &join_query)?;
        let x_sel: Vec<f64> = model.var_indexes.iter().map(|&i| x[i]).collect();
        // Regression models can extrapolate below zero for queries far from
        // the sampled region; a negative cost is meaningless for planning,
        // so component estimates are floored at zero.
        let join_cost = model.estimate(&x_sel, dest_probe).max(0.0);
        Some(PlanEstimate {
            join_site: dest.site.clone(),
            ship_prepare_cost: ship_prepare_cost.max(0.0),
            transfer_mb,
            transfer_cost,
            join_cost,
        })
    }
}

/// A schema entry for a shipped intermediate: same columns as the source
/// table, no indexes, the shipped cardinality. Used both when *pricing* a
/// plan and when *executing* one (the destination registers this table for
/// the shipped tuples).
pub fn temp_table(source: &TableDef, cardinality: u64) -> TableDef {
    TableDef {
        id: TableId(10_000 + source.id.0),
        cardinality,
        columns: source
            .columns
            .iter()
            .map(|c| ColumnDef {
                name: c.name.clone(),
                width: c.width,
                domain_max: c.domain_max,
                index: IndexKind::None,
            })
            .collect(),
        tuple_overhead: source.tuple_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{fit_cost_model, CostModel, ModelForm};
    use crate::observation::Observation;
    use crate::qualvar::StateSet;
    use mdbs_sim::datagen::standard_database;

    /// A one-state unary model: cost ≈ 0.5 + 1e-4·N_O.
    fn unary_model() -> CostModel {
        let obs: Vec<Observation> = (0..30)
            .map(|i| {
                let n_o = 1000.0 * (1 + i % 10) as f64;
                Observation {
                    x: vec![n_o, n_o, n_o / 2.0, 44.0, 44.0, n_o * 44.0, n_o * 22.0, 0.0],
                    cost: 0.5 + 1e-4 * n_o + (i % 3) as f64 * 1e-3,
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

    /// A one-state join model: cost ≈ 1 + 1e-7·(N_I1·N_I2).
    fn join_model() -> CostModel {
        let obs: Vec<Observation> = (0..40)
            .map(|i| {
                let n1 = 1000.0 * (1 + i % 7) as f64;
                let n2 = 2000.0 * (1 + i % 5) as f64;
                Observation {
                    x: vec![
                        n1,
                        n2,
                        n1,
                        n2,
                        n1 / 10.0,
                        n1 * n2,
                        44.0,
                        44.0,
                        88.0,
                        n1 * 44.0,
                        n2 * 44.0,
                        n1 * 8.8,
                    ],
                    cost: 1.0 + 1e-7 * n1 * n2 + (i % 3) as f64 * 1e-3,
                    probe_cost: 1.0,
                }
            })
            .collect();
        fit_cost_model(
            ModelForm::Coincident,
            StateSet::single(),
            vec![5],
            vec!["N_I1*N_I2".into()],
            &obs,
        )
        .unwrap()
    }

    fn optimizer_with_models(sites: &[SiteId]) -> GlobalOptimizer {
        let mut cat = GlobalCatalog::new();
        for s in sites {
            cat.insert_model(s.clone(), QueryClass::UnaryNoIndex, unary_model());
            cat.insert_model(s.clone(), QueryClass::JoinNoIndex, join_model());
        }
        GlobalOptimizer::new(cat, 0.08)
    }

    fn operand(site: &SiteId, schema: &LocalCatalog, idx: usize) -> JoinOperand {
        let t = &schema.tables()[idx];
        JoinOperand {
            site: site.clone(),
            table: t.id,
            join_col: 4,
            predicates: vec![],
        }
    }

    #[test]
    fn both_directions_priced_and_sorted() {
        let s1: SiteId = "oracle".into();
        let s2: SiteId = "db2".into();
        let db1 = standard_database(42);
        let db2 = standard_database(43);
        let opt = optimizer_with_models(&[s1.clone(), s2.clone()]);
        let join = GlobalJoin {
            // Big table at site 1, small at site 2.
            left: operand(&s1, &db1, 9),
            right: operand(&s2, &db2, 1),
        };
        let plans = opt
            .plan_join(
                &join,
                &[(s1.clone(), &db1), (s2.clone(), &db2)],
                &[(s1.clone(), 1.0), (s2.clone(), 1.0)],
            )
            .unwrap();
        assert_eq!(plans.len(), 2);
        assert!(plans[0].total() <= plans[1].total());
        // Shipping the small table to the big one's site must be cheaper:
        // the winning plan joins at the site of the big table.
        assert_eq!(plans[0].join_site, s1);
        // Transfer cost scales with the shipped volume.
        assert!(plans[0].transfer_mb < plans[1].transfer_mb);
    }

    #[test]
    fn contention_shifts_the_decision() {
        let s1: SiteId = "oracle".into();
        let s2: SiteId = "db2".into();
        let db1 = standard_database(42);
        let db2 = standard_database(42);
        let opt = optimizer_with_models(&[s1.clone(), s2.clone()]);
        // Symmetric tables, but site 1 heavily contended. The model here is
        // one-state so the probe cost itself does not change estimates —
        // this test documents the *interface*: probes are per-site inputs.
        let join = GlobalJoin {
            left: operand(&s1, &db1, 4),
            right: operand(&s2, &db2, 4),
        };
        let plans = opt
            .plan_join(
                &join,
                &[(s1.clone(), &db1), (s2.clone(), &db2)],
                &[(s1.clone(), 50.0), (s2.clone(), 0.5)],
            )
            .unwrap();
        assert_eq!(plans.len(), 2);
    }

    #[test]
    fn missing_models_skip_plans() {
        let s1: SiteId = "with-models".into();
        let s2: SiteId = "without".into();
        let db1 = standard_database(42);
        let db2 = standard_database(43);
        let mut cat = GlobalCatalog::new();
        cat.insert_model(s1.clone(), QueryClass::UnaryNoIndex, unary_model());
        cat.insert_model(s1.clone(), QueryClass::JoinNoIndex, join_model());
        // Site 2 has a unary model only -> only the "join at site 1" plan
        // can be priced.
        cat.insert_model(s2.clone(), QueryClass::UnaryNoIndex, unary_model());
        let opt = GlobalOptimizer::new(cat, 0.08);
        let join = GlobalJoin {
            left: operand(&s1, &db1, 5),
            right: operand(&s2, &db2, 3),
        };
        let plans = opt
            .plan_join(
                &join,
                &[(s1.clone(), &db1), (s2.clone(), &db2)],
                &[(s1.clone(), 1.0), (s2.clone(), 1.0)],
            )
            .unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].join_site, s1);
    }

    #[test]
    fn missing_schema_is_an_error() {
        let s1: SiteId = "a".into();
        let s2: SiteId = "b".into();
        let db1 = standard_database(42);
        let opt = optimizer_with_models(&[s1.clone(), s2.clone()]);
        let join = GlobalJoin {
            left: operand(&s1, &db1, 5),
            right: operand(&s2, &db1, 3),
        };
        assert!(opt
            .plan_join(&join, &[(s1.clone(), &db1)], &[(s1, 1.0), (s2, 1.0)])
            .is_err());
    }
}
