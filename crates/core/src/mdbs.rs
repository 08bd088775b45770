//! The MDBS façade: multiple autonomous local sites behind one handle.
//!
//! [`Mdbs`] owns the per-site agents, the global catalog and the network
//! parameters, and closes the loop the paper motivates: derive cost models
//! per site, *plan* a global join with them, and then actually *execute*
//! the chosen plan — filter at the shipping site, move the intermediate,
//! register a temporary table at the destination and run the join there —
//! so the estimated and the realized plan costs can be compared. "Based on
//! the estimated local costs, the global query optimizer chooses a good
//! execution plan" (paper §1); with execution in hand, "good" becomes
//! measurable.

use crate::catalog::{GlobalCatalog, SiteId};
use crate::classes::QueryClass;
use crate::derive::{derive_cost_model, DerivationConfig};
use crate::optimizer::{temp_table, GlobalJoin, GlobalOptimizer, PlanEstimate};
use crate::states::StateAlgorithm;
use crate::CoreError;
use mdbs_sim::query::{JoinQuery, Query, UnaryQuery};
use mdbs_sim::selectivity::unary_sizes;
use mdbs_sim::MdbsAgent;

/// The realized (observed) costs of executing a global join plan.
#[derive(Debug, Clone)]
pub struct GlobalExecution {
    /// Where the join ran.
    pub join_site: SiteId,
    /// Observed cost of the filtering query at the shipping site.
    pub ship_prepare_cost: f64,
    /// Megabytes actually shipped.
    pub transfer_mb: f64,
    /// Network transfer cost (deterministic: volume × rate).
    pub transfer_cost: f64,
    /// Observed cost of the join at the destination.
    pub join_cost: f64,
    /// Result cardinality of the join.
    pub result_card: u64,
}

impl GlobalExecution {
    /// Total realized elapsed cost.
    pub fn total(&self) -> f64 {
        self.ship_prepare_cost + self.transfer_cost + self.join_cost
    }
}

/// A multidatabase system: named local sites, a global catalog, a network.
#[derive(Debug)]
pub struct Mdbs {
    sites: Vec<(SiteId, MdbsAgent)>,
    /// Derived cost models (fed by [`Mdbs::derive`]).
    pub catalog: GlobalCatalog,
    /// Network transfer cost in seconds per megabyte.
    pub network_s_per_mb: f64,
}

impl Mdbs {
    /// An MDBS with no sites yet.
    pub fn new(network_s_per_mb: f64) -> Self {
        Mdbs {
            sites: Vec::new(),
            catalog: GlobalCatalog::new(),
            network_s_per_mb,
        }
    }

    /// Registers a local site. Panics on duplicate ids (a wiring bug).
    pub fn add_site(&mut self, id: impl Into<SiteId>, agent: MdbsAgent) {
        let id = id.into();
        assert!(self.agent(&id).is_none(), "duplicate site id {id}");
        self.sites.push((id, agent));
    }

    /// All site ids, in registration order.
    pub fn site_ids(&self) -> Vec<SiteId> {
        self.sites.iter().map(|(s, _)| s.clone()).collect()
    }

    /// The agent of a site.
    pub fn agent(&self, id: &SiteId) -> Option<&MdbsAgent> {
        self.sites.iter().find(|(s, _)| s == id).map(|(_, a)| a)
    }

    /// Mutable access to a site's agent.
    pub fn agent_mut(&mut self, id: &SiteId) -> Option<&mut MdbsAgent> {
        self.sites.iter_mut().find(|(s, _)| s == id).map(|(_, a)| a)
    }

    fn agent_mut_or_err(&mut self, id: &SiteId) -> Result<&mut MdbsAgent, CoreError> {
        self.agent_mut(id)
            .ok_or_else(|| CoreError::Agent(format!("unknown site {id}")))
    }

    /// Derives (and stores) a cost model for one class at one site.
    pub fn derive(
        &mut self,
        site: &SiteId,
        class: QueryClass,
        algorithm: StateAlgorithm,
        cfg: &DerivationConfig,
        seed: u64,
    ) -> Result<(), CoreError> {
        let agent = self.agent_mut_or_err(site)?;
        let derived = derive_cost_model(
            agent,
            class,
            algorithm,
            cfg,
            &mut crate::pipeline::PipelineCtx::seeded(seed),
        )?;
        let estimator = derived.probe_estimator().transpose()?;
        self.catalog
            .insert_model(site.clone(), class, derived.model);
        if let Some(est) = estimator {
            self.catalog.insert_probe_estimator(site.clone(), est);
        }
        Ok(())
    }

    /// Probes every site's current contention level.
    pub fn probe_all(&mut self) -> Vec<(SiteId, f64)> {
        self.sites
            .iter_mut()
            .map(|(s, a)| (s.clone(), a.probe()))
            .collect()
    }

    /// Plans a global join against the *current* contention (one probe per
    /// site). Plans are sorted cheapest-first.
    pub fn plan_global_join(&mut self, join: &GlobalJoin) -> Result<Vec<PlanEstimate>, CoreError> {
        let probes = self.probe_all();
        let schemas: Vec<(SiteId, mdbs_sim::LocalCatalog)> = self
            .sites
            .iter()
            .map(|(s, a)| (s.clone(), a.catalog().clone()))
            .collect();
        let schema_refs: Vec<(SiteId, &mdbs_sim::LocalCatalog)> =
            schemas.iter().map(|(s, c)| (s.clone(), c)).collect();
        let optimizer = GlobalOptimizer::new(self.catalog.clone(), self.network_s_per_mb);
        optimizer.plan_join(join, &schema_refs, &probes)
    }

    /// Executes a global join with the join at `plan.join_site`:
    /// runs the filter at the shipping site, accounts the transfer,
    /// registers a temporary table at the destination, runs the join there
    /// and drops the temporary table again.
    pub fn execute_plan(
        &mut self,
        join: &GlobalJoin,
        plan: &PlanEstimate,
    ) -> Result<GlobalExecution, CoreError> {
        let (dest, shipped) = if plan.join_site == join.left.site {
            (&join.left, &join.right)
        } else if plan.join_site == join.right.site {
            (&join.right, &join.left)
        } else {
            return Err(CoreError::Agent(format!(
                "plan's join site {} is not part of the join",
                plan.join_site
            )));
        };
        let (dest, shipped) = (dest.clone(), shipped.clone());

        // Step 1: filter at the shipping site (observed cost).
        let shipped_agent = self.agent_mut_or_err(&shipped.site)?;
        let shipped_table = shipped_agent
            .catalog()
            .table(shipped.table)
            .ok_or_else(|| CoreError::Agent(format!("unknown table {}", shipped.table)))?
            .clone();
        let filter = UnaryQuery {
            table: shipped.table,
            projection: vec![],
            predicates: shipped.predicates.clone(),
            order_by: None,
        };
        let exec_filter = shipped_agent
            .run(&Query::Unary(filter.clone()))
            .map_err(|e| CoreError::Agent(e.to_string()))?;
        let shipped_card = unary_sizes(&shipped_table, &filter).result;

        // Step 2: transfer (deterministic volume × rate).
        let transfer_mb =
            shipped_card as f64 * shipped_table.tuple_len() as f64 / (1024.0 * 1024.0);
        let transfer_cost = transfer_mb * self.network_s_per_mb;

        // Step 3: join at the destination against the temp table.
        let temp = temp_table(&shipped_table, shipped_card);
        let temp_id = temp.id;
        let dest_agent = self.agent_mut_or_err(&dest.site)?;
        dest_agent.register_table(temp);
        let join_query = Query::Join(JoinQuery {
            left: dest.table,
            right: temp_id,
            left_col: dest.join_col,
            right_col: shipped.join_col,
            left_predicates: dest.predicates.clone(),
            right_predicates: Vec::new(),
            projection: vec![(true, 0), (false, 0)],
        });
        let exec_join = dest_agent.run(&join_query);
        dest_agent.drop_table(temp_id);
        let exec_join = exec_join.map_err(|e| CoreError::Agent(e.to_string()))?;
        let result_card = match exec_join.sizes {
            mdbs_sim::agent::ExecutionSizes::Join(s) => s.result,
            mdbs_sim::agent::ExecutionSizes::Unary(s) => s.result,
        };

        Ok(GlobalExecution {
            join_site: dest.site.clone(),
            ship_prepare_cost: exec_filter.cost_s,
            transfer_mb,
            transfer_cost,
            join_cost: exec_join.cost_s,
            result_card,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::JoinOperand;
    use mdbs_sim::contention::Load;
    use mdbs_sim::datagen::standard_database;
    use mdbs_sim::VendorProfile;

    fn two_site_mdbs() -> Mdbs {
        let mut mdbs = Mdbs::new(0.08);
        mdbs.add_site(
            "oracle",
            MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 3),
        );
        mdbs.add_site(
            "db2",
            MdbsAgent::new(VendorProfile::db2v5(), standard_database(43), 4),
        );
        mdbs
    }

    fn sample_join(mdbs: &Mdbs) -> GlobalJoin {
        let left_table = mdbs.agent(&"oracle".into()).unwrap().catalog().tables()[6].id;
        let right_table = mdbs.agent(&"db2".into()).unwrap().catalog().tables()[4].id;
        GlobalJoin {
            left: JoinOperand {
                site: "oracle".into(),
                table: left_table,
                join_col: 4,
                predicates: vec![],
            },
            right: JoinOperand {
                site: "db2".into(),
                table: right_table,
                join_col: 4,
                predicates: vec![],
            },
        }
    }

    #[test]
    fn sites_register_and_resolve() {
        let mdbs = two_site_mdbs();
        assert_eq!(mdbs.site_ids().len(), 2);
        assert!(mdbs.agent(&"oracle".into()).is_some());
        assert!(mdbs.agent(&"nope".into()).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate site id")]
    fn duplicate_site_panics() {
        let mut mdbs = two_site_mdbs();
        mdbs.add_site(
            "oracle",
            MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 9),
        );
    }

    #[test]
    fn execute_plan_runs_both_directions_and_cleans_up() {
        let mut mdbs = two_site_mdbs();
        for id in ["oracle", "db2"] {
            mdbs.agent_mut(&id.into())
                .unwrap()
                .set_load(Load::background(30.0));
        }
        let join = sample_join(&mdbs);
        let tables_before: usize = mdbs.agent(&"db2".into()).unwrap().catalog().tables().len();
        for site in ["oracle", "db2"] {
            let plan = PlanEstimate {
                join_site: site.into(),
                ship_prepare_cost: 0.0,
                transfer_mb: 0.0,
                transfer_cost: 0.0,
                join_cost: 0.0,
            };
            let exec = mdbs.execute_plan(&join, &plan).expect("plan executes");
            assert_eq!(exec.join_site, site.into());
            assert!(exec.total() > 0.0);
            assert!(exec.transfer_mb > 0.0);
        }
        // Temporary tables were dropped.
        assert_eq!(
            mdbs.agent(&"db2".into()).unwrap().catalog().tables().len(),
            tables_before
        );
    }

    #[test]
    fn derive_and_plan_through_the_facade() {
        use crate::derive::DerivationConfig;
        use crate::states::{StateAlgorithm, StatesConfig};
        use mdbs_sim::{ContentionProfile, LoadBuilder};

        let mut mdbs = two_site_mdbs();
        for id in ["oracle", "db2"] {
            let agent = mdbs.agent_mut(&id.into()).expect("site registered");
            agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
                lo: 20.0,
                hi: 125.0,
            }));
        }
        let cfg = DerivationConfig {
            states: StatesConfig {
                max_states: 3,
                ..StatesConfig::default()
            },
            sample_size: Some(150),
            fit_probe_estimator: false,
            ..DerivationConfig::default()
        };
        for id in ["oracle", "db2"] {
            for class in [QueryClass::UnaryNoIndex, QueryClass::JoinNoIndex] {
                mdbs.derive(&id.into(), class, StateAlgorithm::Iupma, &cfg, 7)
                    .expect("derivation through the facade succeeds");
            }
        }
        assert_eq!(mdbs.catalog.len(), 4);

        let join = sample_join(&mdbs);
        let plans = mdbs.plan_global_join(&join).expect("planning succeeds");
        assert_eq!(plans.len(), 2);
        assert!(plans[0].total() <= plans[1].total());
        // The facade can then execute what it planned.
        let exec = mdbs
            .execute_plan(&join, &plans[0])
            .expect("chosen plan executes");
        assert!(exec.total() > 0.0);
    }

    #[test]
    fn executing_an_unrelated_site_fails() {
        let mut mdbs = two_site_mdbs();
        let join = sample_join(&mdbs);
        let plan = PlanEstimate {
            join_site: "elsewhere".into(),
            ship_prepare_cost: 0.0,
            transfer_mb: 0.0,
            transfer_cost: 0.0,
            join_cost: 0.0,
        };
        assert!(mdbs.execute_plan(&join, &plan).is_err());
    }
}
