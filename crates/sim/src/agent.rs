//! The MDBS agent façade.
//!
//! In CORDS-MDBS each local DBS is fronted by an *MDBS agent* that offers a
//! uniform relational interface, hosts the load builder and (optionally) an
//! environment monitor (paper §5, Figure 3). [`MdbsAgent`] is that agent:
//! the only handle the `mdbs-core` method gets on a local site. It can
//!
//! * submit a local query and observe its elapsed cost ([`MdbsAgent::run`]),
//! * execute the probing query ([`MdbsAgent::probe`]),
//! * read system statistics ([`MdbsAgent::stats`]),
//! * let the load builder move the environment ([`MdbsAgent::tick`]) or pin
//!   a specific load ([`MdbsAgent::set_load`]).
//!
//! Time is virtual; every observation carries multiplicative and additive
//! noise so repeated executions of the same query in the same state differ
//! slightly — exactly the measurement reality regression has to cope with.

use crate::access::{JoinAccess, UnaryAccess};
use crate::catalog::{LocalCatalog, TableDef, TableId};
use crate::contention::{Load, LoadBuilder};
use crate::engine::{cost_join, cost_unary, ResourceDemand};
use crate::machine::{Machine, MachineSpec};
use crate::query::{Predicate, Query, UnaryQuery};
use crate::selectivity::{JoinSizes, UnarySizes};
use crate::sysstats::SystemStats;
use crate::trace::{ExecutionTrace, TraceEntry};
use crate::util::noise_factor;
use crate::vendor::VendorProfile;
use mdbs_obs::MetricsRegistry;
use mdbs_stats::rng::Rng;
use std::sync::Arc;

/// The physical operator the local DBS chose for an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChosenAccess {
    /// A unary operator.
    Unary(UnaryAccess),
    /// A join operator.
    Join(JoinAccess),
}

impl std::fmt::Display for ChosenAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChosenAccess::Unary(a) => a.fmt(f),
            ChosenAccess::Join(a) => a.fmt(f),
        }
    }
}

/// Result-size information attached to an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionSizes {
    /// Cardinalities of a unary query.
    Unary(UnarySizes),
    /// Cardinalities of a join query.
    Join(JoinSizes),
}

/// One observed local query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Observed elapsed cost in (virtual) seconds.
    pub cost_s: f64,
    /// Physical operator chosen by the local DBS.
    pub access: ChosenAccess,
    /// Operand/intermediate/result cardinalities.
    pub sizes: ExecutionSizes,
    /// Number of background processes at execution time (for diagnostics
    /// and plots only — the method itself must not use this).
    pub procs_at_execution: f64,
}

/// Errors the agent can report.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentError {
    /// The query references a table the local database does not have.
    UnknownTable(TableId),
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::UnknownTable(t) => write!(f, "unknown table {t}"),
        }
    }
}

impl std::error::Error for AgentError {}

/// An MDBS agent wrapping one simulated local DBS.
#[derive(Debug, Clone)]
pub struct MdbsAgent {
    vendor: VendorProfile,
    /// Shared with every agent built from the same schema; the schema
    /// mutators copy it on write, so each agent's changes stay its own.
    catalog: Arc<LocalCatalog>,
    machine: Machine,
    load_builder: Option<LoadBuilder>,
    rng: Rng,
    executions: u64,
    clock_s: f64,
    trace: Option<ExecutionTrace>,
    metrics: Option<MetricsRegistry>,
    /// [`Self::probing_query`] and its idle-machine plan, built on the
    /// first probe and dropped by every schema change (`catalog_mut`) and
    /// vendor change (`vendor_mut`).
    probe_plan: Option<Plan>,
}

/// A query with what the local DBS planned for it: the idle-machine
/// demand, the operator and the cardinalities. A pure function of the
/// schema and the vendor profile.
#[derive(Debug, Clone)]
struct Plan {
    query: Query,
    demand: ResourceDemand,
    access: ChosenAccess,
    sizes: ExecutionSizes,
}

impl MdbsAgent {
    /// Creates an agent for a local DBS with the given vendor profile,
    /// database and RNG seed. The environment starts idle and static; call
    /// [`Self::set_load_builder`] to make it dynamic.
    ///
    /// The database may be an owned [`LocalCatalog`] or an
    /// `Arc<LocalCatalog>` shared with other agents.
    pub fn new(vendor: VendorProfile, catalog: impl Into<Arc<LocalCatalog>>, seed: u64) -> Self {
        MdbsAgent {
            vendor,
            catalog: catalog.into(),
            machine: Machine::new(MachineSpec::default()),
            load_builder: None,
            rng: Rng::seed_from_u64(seed),
            executions: 0,
            clock_s: 0.0,
            trace: None,
            metrics: None,
            probe_plan: None,
        }
    }

    /// Enables execution tracing with a bounded window (replacing any
    /// existing trace).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(ExecutionTrace::new(capacity));
    }

    /// The execution trace, when enabled.
    pub fn trace(&self) -> Option<&ExecutionTrace> {
        self.trace.as_ref()
    }

    /// Enables metrics collection (replacing any existing registry). While
    /// enabled, every execution updates `engine.*` counters, per-component
    /// cost gauges and the contention-inflation histogram.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(MetricsRegistry::new());
    }

    /// The metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Takes the metrics registry out of the agent (leaving collection
    /// enabled with a fresh one) — for folding into a pipeline
    /// [`Telemetry`](mdbs_obs::Telemetry) at stage boundaries.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.replace(MetricsRegistry::new())
    }

    /// Disables metrics collection, returning whatever was recorded.
    pub fn disable_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.take()
    }

    /// The vendor profile (display purposes).
    pub fn vendor(&self) -> &VendorProfile {
        &self.vendor
    }

    /// The local schema (what the MDBS global catalog legitimately knows).
    pub fn catalog(&self) -> &LocalCatalog {
        &self.catalog
    }

    /// The local schema as a shared handle: a pointer copy, not a deep
    /// clone, that stays valid while the agent itself is mutated.
    pub fn shared_catalog(&self) -> Arc<LocalCatalog> {
        Arc::clone(&self.catalog)
    }

    /// Installs a load builder driving the dynamic environment. Each query
    /// execution then runs under a freshly drawn load.
    pub fn set_load_builder(&mut self, builder: LoadBuilder) {
        self.load_builder = Some(builder);
    }

    /// Removes the load builder and pins the given static load.
    pub fn set_load(&mut self, load: Load) {
        self.load_builder = None;
        self.machine.set_load(load);
    }

    /// Advances the environment: draws the next load from the builder.
    /// No-op in a static environment.
    pub fn tick(&mut self) {
        if let Some(builder) = &self.load_builder {
            let load = builder.next_load(&mut self.rng);
            self.machine.set_load(load);
        }
    }

    /// The machine (read-only; used by tests and plots).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Number of queries executed so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Virtual seconds of query time accumulated so far.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Reads the system statistics the environment monitor would report.
    pub fn stats(&mut self) -> SystemStats {
        SystemStats::observe(&self.machine, &mut self.rng)
    }

    /// Executes a local query under the *current* load and returns the
    /// observed cost. Call [`Self::tick`] first to move the environment.
    pub fn run(&mut self, query: &Query) -> Result<Execution, AgentError> {
        let (demand, access, sizes) = self.plan(query)?;
        Ok(self.execute(query, demand, access, sizes))
    }

    /// What the local DBS plans for `query`: its idle-machine demand, the
    /// chosen operator and the cardinalities.
    fn plan(
        &self,
        query: &Query,
    ) -> Result<(ResourceDemand, ChosenAccess, ExecutionSizes), AgentError> {
        Ok(match query {
            Query::Unary(u) => {
                let t = self.table(u.table)?;
                let (d, a, s) = cost_unary(t, u, &self.vendor);
                (d, ChosenAccess::Unary(a), ExecutionSizes::Unary(s))
            }
            Query::Join(j) => {
                let l = self.table(j.left)?;
                let r = self.table(j.right)?;
                let (d, a, s) = cost_join(l, r, j, &self.vendor);
                (d, ChosenAccess::Join(a), ExecutionSizes::Join(s))
            }
        })
    }

    /// Executes a planned query under the current load: stretches its
    /// demand, draws the noise, and advances the clock, metrics and trace.
    fn execute(
        &mut self,
        query: &Query,
        demand: ResourceDemand,
        access: ChosenAccess,
        sizes: ExecutionSizes,
    ) -> Execution {
        let (init, io, cpu) = self
            .machine
            .elapsed_parts(demand.init_s, demand.io_s, demand.cpu_s);
        let stretched = init + io + cpu;
        // Momentary environmental fluctuation: multiplicative noise plus a
        // small absolute floor that dominates only for tiny queries — the
        // reason the paper finds small-cost queries harder to estimate.
        let cost = stretched * noise_factor(&mut self.rng, self.vendor.noise_rel)
            + self.rng.normal(0.0, 0.04).abs();
        self.executions += 1;
        self.clock_s += cost;
        if let Some(metrics) = &mut self.metrics {
            metrics.inc("engine.executions", 1);
            metrics.add_gauge("engine.cost.init_s", init);
            metrics.add_gauge("engine.cost.io_s", io);
            metrics.add_gauge("engine.cost.cpu_s", cpu);
            let demand_total = demand.init_s + demand.io_s + demand.cpu_s;
            if demand_total > 0.0 {
                metrics.observe("engine.contention_inflation", stretched / demand_total);
            }
        }
        if let Some(trace) = &mut self.trace {
            let result_card = match sizes {
                ExecutionSizes::Unary(s) => s.result,
                ExecutionSizes::Join(s) => s.result,
            };
            trace.record(TraceEntry {
                seq: self.executions,
                at_s: self.clock_s,
                query: query.describe(),
                cost_s: cost,
                access,
                result_card,
                procs: self.machine.load().procs,
            });
        }
        Execution {
            cost_s: cost,
            access,
            sizes,
            procs_at_execution: self.machine.load().procs,
        }
    }

    /// The canonical probing query: a cheap unary query on the smallest
    /// table. Its cost gauges the contention level (paper §3.3).
    pub fn probing_query(&self) -> Query {
        let smallest = self
            .catalog
            .tables()
            .iter()
            .min_by_key(|t| t.cardinality)
            .expect("local database has at least one table");
        Query::Unary(UnaryQuery {
            table: smallest.id,
            projection: vec![0, 1],
            // Moderately selective predicate on an unindexed column so the
            // probe exercises CPU and I/O without being free.
            predicates: vec![Predicate::lt(4, smallest.columns[4].domain_max / 2)],
            order_by: None,
        })
    }

    /// Executes the probing query under the current load and returns its
    /// observed cost. The query is planned once and reused until the
    /// schema or the vendor profile changes.
    pub fn probe(&mut self) -> f64 {
        let plan = match self.probe_plan.take() {
            Some(plan) => plan,
            None => {
                let query = self.probing_query();
                let (demand, access, sizes) = self
                    .plan(&query)
                    .expect("probing query references a catalog table");
                Plan {
                    query,
                    demand,
                    access,
                    sizes,
                }
            }
        };
        if let Some(metrics) = &mut self.metrics {
            metrics.inc("engine.probes", 1);
        }
        let cost = self
            .execute(&plan.query, plan.demand, plan.access, plan.sizes)
            .cost_s;
        self.probe_plan = Some(plan);
        cost
    }

    /// The local schema for a change: copied first if shared, and the
    /// cached probe plan dropped, since the smallest table may change.
    fn catalog_mut(&mut self) -> &mut LocalCatalog {
        self.probe_plan = None;
        Arc::make_mut(&mut self.catalog)
    }

    /// The vendor profile for a change, with the cached probe plan
    /// dropped, since its demand depends on the profile.
    fn vendor_mut(&mut self) -> &mut VendorProfile {
        self.probe_plan = None;
        &mut self.vendor
    }

    fn table(&self, id: TableId) -> Result<&TableDef, AgentError> {
        self.catalog.table(id).ok_or(AgentError::UnknownTable(id))
    }

    /// Registers a table in the local schema — the local DBS creating a
    /// temporary table for shipped tuples during global query execution.
    /// Panics on a duplicate id (caller controls temp-table ids).
    pub fn register_table(&mut self, table: TableDef) {
        self.catalog_mut().add_table(table);
    }

    /// Drops a (temporary) table; returns whether it existed.
    pub fn drop_table(&mut self, id: TableId) -> bool {
        self.catalog.table(id).is_some() && self.catalog_mut().remove_table(id)
    }

    /// Applies an occasionally-changing environmental factor (paper §2):
    /// a durable hardware, configuration, schema or data change. Cost
    /// models derived before the event may no longer describe this site —
    /// detecting that and re-deriving is `mdbs-core`'s maintenance job.
    pub fn apply_event(
        &mut self,
        event: &crate::events::EnvironmentEvent,
    ) -> Result<(), crate::events::EventError> {
        use crate::events::{EnvironmentEvent as E, EventError};
        match event {
            E::MemoryUpgrade { new_phys_mem_mb } => {
                if !new_phys_mem_mb.is_finite() || *new_phys_mem_mb <= 0.0 {
                    return Err(EventError::InvalidParameter(format!(
                        "physical memory must be positive, got {new_phys_mem_mb}"
                    )));
                }
                self.machine.set_spec(MachineSpec {
                    phys_mem_mb: *new_phys_mem_mb,
                    ..self.machine.spec().clone()
                });
            }
            E::BufferPoolResize { pages } => {
                if *pages < 3 {
                    return Err(EventError::InvalidParameter(format!(
                        "buffer pool needs at least 3 pages, got {pages}"
                    )));
                }
                self.vendor_mut().buffer_pages = *pages;
            }
            E::CreateIndex {
                table,
                column,
                kind,
            } => {
                let t = self
                    .catalog_mut()
                    .table_mut(*table)
                    .ok_or(EventError::UnknownTable(*table))?;
                let col = t
                    .columns
                    .get_mut(*column)
                    .ok_or(EventError::UnknownColumn {
                        table: *table,
                        column: *column,
                    })?;
                col.index = *kind;
            }
            E::DropIndex { table, column } => {
                let t = self
                    .catalog_mut()
                    .table_mut(*table)
                    .ok_or(EventError::UnknownTable(*table))?;
                let col = t
                    .columns
                    .get_mut(*column)
                    .ok_or(EventError::UnknownColumn {
                        table: *table,
                        column: *column,
                    })?;
                col.index = crate::catalog::IndexKind::None;
            }
            E::TableGrowth { table, factor } => {
                if !factor.is_finite() || *factor <= 0.0 {
                    return Err(EventError::InvalidParameter(format!(
                        "growth factor must be positive, got {factor}"
                    )));
                }
                let t = self
                    .catalog_mut()
                    .table_mut(*table)
                    .ok_or(EventError::UnknownTable(*table))?;
                t.cardinality = ((t.cardinality as f64 * factor).round() as u64).max(1);
            }
            E::DiskReplacement { io_cost_factor } => {
                if !io_cost_factor.is_finite() || *io_cost_factor <= 0.0 {
                    return Err(EventError::InvalidParameter(format!(
                        "I/O cost factor must be positive, got {io_cost_factor}"
                    )));
                }
                let vendor = self.vendor_mut();
                vendor.seq_page_io_s *= io_cost_factor;
                vendor.rand_page_io_s *= io_cost_factor;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::{ContentionProfile, LoadBuilder};
    use crate::datagen::standard_database;

    fn agent() -> MdbsAgent {
        MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 7)
    }

    fn any_query(a: &MdbsAgent) -> Query {
        let t = &a.catalog().tables()[5];
        Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0, 4, 6],
            predicates: vec![Predicate::gt(4, t.columns[4].domain_max / 3)],
            order_by: None,
        })
    }

    #[test]
    fn run_returns_positive_cost() {
        let mut a = agent();
        let q = any_query(&a);
        let e = a.run(&q).unwrap();
        assert!(e.cost_s > 0.0);
        assert_eq!(a.executions(), 1);
        assert!(a.clock_s() > 0.0);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let mut a = agent();
        let q = Query::Unary(UnaryQuery {
            table: TableId(99),
            projection: vec![],
            predicates: vec![],
            order_by: None,
        });
        assert_eq!(a.run(&q), Err(AgentError::UnknownTable(TableId(99))));
    }

    #[test]
    fn repeated_runs_differ_by_noise_only() {
        let mut a = agent();
        let q = any_query(&a);
        let c1 = a.run(&q).unwrap().cost_s;
        let c2 = a.run(&q).unwrap().cost_s;
        assert_ne!(c1, c2);
        assert!((c1 - c2).abs() / c1 < 0.5, "noise too large: {c1} vs {c2}");
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let mut a1 = agent();
        let mut a2 = agent();
        let q = any_query(&a1);
        assert_eq!(a1.run(&q).unwrap().cost_s, a2.run(&q).unwrap().cost_s);
    }

    #[test]
    fn load_increases_cost() {
        let mut calm = agent();
        let mut busy = agent();
        busy.set_load(Load::background(120.0));
        let q = any_query(&calm);
        let avg =
            |a: &mut MdbsAgent| (0..10).map(|_| a.run(&q).unwrap().cost_s).sum::<f64>() / 10.0;
        assert!(avg(&mut busy) > 3.0 * avg(&mut calm));
    }

    #[test]
    fn probe_tracks_contention() {
        let mut a = agent();
        a.set_load(Load::background(10.0));
        let low = (0..8).map(|_| a.probe()).sum::<f64>() / 8.0;
        a.set_load(Load::background(120.0));
        let high = (0..8).map(|_| a.probe()).sum::<f64>() / 8.0;
        assert!(high > 2.0 * low, "probe {low} -> {high}");
    }

    #[test]
    fn tick_moves_the_environment() {
        let mut a = agent();
        a.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
            lo: 5.0,
            hi: 125.0,
        }));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..20 {
            a.tick();
            seen.insert((a.machine().load().procs * 100.0) as i64);
        }
        assert!(seen.len() > 10, "load builder did not vary the load");
    }

    #[test]
    fn memory_upgrade_removes_thrashing() {
        let mut a = agent();
        a.set_load(Load::background(125.0));
        let q = any_query(&a);
        let before: f64 = (0..6).map(|_| a.run(&q).unwrap().cost_s).sum::<f64>() / 6.0;
        a.apply_event(&crate::events::EnvironmentEvent::MemoryUpgrade {
            new_phys_mem_mb: 4096.0,
        })
        .unwrap();
        let after: f64 = (0..6).map(|_| a.run(&q).unwrap().cost_s).sum::<f64>() / 6.0;
        assert!(
            after < before / 3.0,
            "upgrade did not help: {before:.1} -> {after:.1}"
        );
    }

    #[test]
    fn create_index_changes_the_access_path() {
        let mut a = agent();
        let t = a.catalog().tables()[8].clone();
        // Selective predicate on an unindexed column: sequential scan.
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(5, t.columns[5].domain_max / 50)],
            order_by: None,
        });
        let before = a.run(&q).unwrap();
        assert_eq!(
            before.access,
            ChosenAccess::Unary(crate::access::UnaryAccess::SeqScan)
        );
        a.apply_event(&crate::events::EnvironmentEvent::CreateIndex {
            table: t.id,
            column: 5,
            kind: crate::catalog::IndexKind::NonClustered,
        })
        .unwrap();
        let after = a.run(&q).unwrap();
        assert_eq!(
            after.access,
            ChosenAccess::Unary(crate::access::UnaryAccess::NonClusteredIndexScan)
        );
    }

    #[test]
    fn table_growth_increases_cost() {
        let mut a = agent();
        let q = any_query(&a);
        let before: f64 = (0..5).map(|_| a.run(&q).unwrap().cost_s).sum::<f64>() / 5.0;
        a.apply_event(&crate::events::EnvironmentEvent::TableGrowth {
            table: q.tables()[0],
            factor: 4.0,
        })
        .unwrap();
        let after: f64 = (0..5).map(|_| a.run(&q).unwrap().cost_s).sum::<f64>() / 5.0;
        assert!(after > 2.0 * before, "{before:.2} -> {after:.2}");
    }

    #[test]
    fn disk_replacement_speeds_up_io() {
        let mut a = agent();
        let q = any_query(&a);
        let before: f64 = (0..5).map(|_| a.run(&q).unwrap().cost_s).sum::<f64>() / 5.0;
        a.apply_event(&crate::events::EnvironmentEvent::DiskReplacement {
            io_cost_factor: 0.2,
        })
        .unwrap();
        let after: f64 = (0..5).map(|_| a.run(&q).unwrap().cost_s).sum::<f64>() / 5.0;
        assert!(after < before, "{before:.2} -> {after:.2}");
    }

    #[test]
    fn invalid_events_are_rejected() {
        let mut a = agent();
        use crate::events::{EnvironmentEvent as E, EventError};
        assert!(matches!(
            a.apply_event(&E::MemoryUpgrade {
                new_phys_mem_mb: -1.0
            }),
            Err(EventError::InvalidParameter(_))
        ));
        assert!(matches!(
            a.apply_event(&E::TableGrowth {
                table: TableId(99),
                factor: 2.0
            }),
            Err(EventError::UnknownTable(_))
        ));
        assert!(matches!(
            a.apply_event(&E::CreateIndex {
                table: TableId(1),
                column: 99,
                kind: crate::catalog::IndexKind::NonClustered
            }),
            Err(EventError::UnknownColumn { .. })
        ));
        assert!(matches!(
            a.apply_event(&E::BufferPoolResize { pages: 1 }),
            Err(EventError::InvalidParameter(_))
        ));
    }

    #[test]
    fn trace_records_executions_when_enabled() {
        let mut a = agent();
        assert!(a.trace().is_none());
        a.enable_trace(3);
        let q = any_query(&a);
        for _ in 0..5 {
            a.run(&q).unwrap();
        }
        let t = a.trace().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_recorded(), 5);
        assert!(t.mean_cost() > 0.0);
        assert!(t.report().contains("SeqScan") || t.report().contains("Index"));
    }

    #[test]
    fn metrics_count_executions_and_break_down_cost() {
        let mut a = agent();
        assert!(a.metrics().is_none());
        a.enable_metrics();
        let q = any_query(&a);
        for _ in 0..4 {
            a.run(&q).unwrap();
        }
        a.probe();
        let m = a.metrics().unwrap();
        assert_eq!(m.counter("engine.executions"), 5);
        assert_eq!(m.counter("engine.probes"), 1);
        let init = m.gauge("engine.cost.init_s").unwrap();
        let io = m.gauge("engine.cost.io_s").unwrap();
        let cpu = m.gauge("engine.cost.cpu_s").unwrap();
        assert!(init > 0.0 && io > 0.0 && cpu > 0.0);
        let inflation = m.histogram("engine.contention_inflation").unwrap();
        assert_eq!(inflation.count(), 5);
        // Idle machine: stretched/demand == 1 exactly.
        assert!((inflation.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_do_not_disturb_costs() {
        let mut plain = agent();
        let mut metered = agent();
        metered.enable_metrics();
        let q = any_query(&plain);
        assert_eq!(
            plain.run(&q).unwrap().cost_s,
            metered.run(&q).unwrap().cost_s
        );
    }

    #[test]
    fn take_metrics_leaves_collection_enabled() {
        let mut a = agent();
        a.enable_metrics();
        let q = any_query(&a);
        a.run(&q).unwrap();
        let taken = a.take_metrics().unwrap();
        assert_eq!(taken.counter("engine.executions"), 1);
        a.run(&q).unwrap();
        assert_eq!(a.metrics().unwrap().counter("engine.executions"), 1);
    }

    #[test]
    fn chosen_access_displays_like_debug() {
        let unary = ChosenAccess::Unary(crate::access::UnaryAccess::SeqScan);
        let join = ChosenAccess::Join(crate::access::JoinAccess::SortMerge);
        assert_eq!(unary.to_string(), "SeqScan");
        assert_eq!(join.to_string(), "SortMerge");
        assert_eq!(
            format!("{:?}", crate::access::UnaryAccess::NonClusteredIndexScan),
            crate::access::UnaryAccess::NonClusteredIndexScan.to_string()
        );
    }

    #[test]
    fn schema_changes_copy_on_write() {
        use crate::catalog::IndexKind;
        use crate::events::EnvironmentEvent as E;
        let prototype = Arc::new(standard_database(42));
        let pristine = (*prototype).clone();
        let new_shared = || MdbsAgent::new(VendorProfile::oracle8(), Arc::clone(&prototype), 7);
        let (r1, r9) = (TableId(1), TableId(9));
        let mut temp = pristine.tables()[0].clone();
        temp.id = TableId(100);
        let changes: [&dyn Fn(&mut MdbsAgent); 6] = [
            &|a| a.register_table(temp.clone()),
            &|a| assert!(a.drop_table(r1)),
            &|a| {
                a.apply_event(&E::CreateIndex {
                    table: r9,
                    column: 5,
                    kind: IndexKind::NonClustered,
                })
                .unwrap()
            },
            &|a| {
                a.apply_event(&E::DropIndex {
                    table: r9,
                    column: 2,
                })
                .unwrap()
            },
            &|a| {
                a.apply_event(&E::TableGrowth {
                    table: r9,
                    factor: 4.0,
                })
                .unwrap()
            },
            // Dropping a table that is not there changes nothing.
            &|a| assert!(!a.drop_table(TableId(99))),
        ];
        for (i, change) in changes.iter().enumerate() {
            let mut changed = new_shared();
            let untouched = new_shared();
            change(&mut changed);
            let mutated = i < 5;
            assert_eq!(changed.catalog().tables() != pristine.tables(), mutated);
            assert_eq!(Arc::ptr_eq(&changed.shared_catalog(), &prototype), !mutated);
            assert_eq!(untouched.catalog().tables(), pristine.tables());
            assert_eq!(prototype.tables(), pristine.tables());
            assert!(Arc::ptr_eq(&untouched.shared_catalog(), &prototype));
        }
    }

    #[test]
    fn probing_query_cache_follows_schema_changes() {
        use crate::catalog::IndexKind;
        use crate::events::EnvironmentEvent as E;
        let base = agent();
        let tables = base.catalog().tables();
        let smallest = tables.iter().min_by_key(|t| t.cardinality).unwrap().clone();
        let largest = tables.iter().map(|t| t.cardinality).max().unwrap();
        let mut smaller = smallest.clone();
        smaller.id = TableId(100);
        smaller.cardinality = smallest.cardinality / 2;
        let id = smallest.id;
        // Each change to the smallest table, and whether it moves the
        // probing query to another table.
        type Change<'a> = (&'a dyn Fn(&mut MdbsAgent), bool);
        let changes: [Change; 5] = [
            (&|a| a.register_table(smaller.clone()), true),
            (&|a| assert!(a.drop_table(id)), true),
            (
                &|a| {
                    let factor = 2.0 * largest as f64 / smallest.cardinality as f64;
                    a.apply_event(&E::TableGrowth { table: id, factor })
                        .unwrap()
                },
                true,
            ),
            (
                &|a| {
                    a.apply_event(&E::CreateIndex {
                        table: id,
                        column: 4,
                        kind: IndexKind::NonClustered,
                    })
                    .unwrap()
                },
                false,
            ),
            (
                &|a| {
                    a.apply_event(&E::DropIndex {
                        table: id,
                        column: 2,
                    })
                    .unwrap()
                },
                false,
            ),
        ];
        for (i, (change, moves)) in changes.into_iter().enumerate() {
            let mut a = agent();
            a.enable_trace(4);
            a.probe(); // Fills the cache.
            let before = a.probing_query().describe();
            change(&mut a);
            a.probe();
            let probed = &a.trace().unwrap().entries().last().unwrap().query;
            assert_eq!(*probed, a.probing_query().describe(), "change {i}");
            assert_eq!(*probed != before, moves, "change {i}: {before} -> {probed}");
        }
        // Vendor and hardware changes: the next probe costs exactly what a
        // fresh agent's does when the change came before its load, under
        // the same RNG state (its first execution of the probing query
        // stands in for the probe that filled the cache).
        let load = Load::background(120.0);
        let events = [
            E::BufferPoolResize { pages: 16 },
            E::DiskReplacement {
                io_cost_factor: 0.25,
            },
            E::MemoryUpgrade {
                new_phys_mem_mb: 4096.0,
            },
        ];
        for event in &events {
            let mut cached = agent();
            cached.set_load(load.clone());
            cached.probe(); // Fills the cache.
            cached.apply_event(event).unwrap();
            let mut fresh = agent();
            fresh.apply_event(event).unwrap();
            fresh.set_load(load.clone());
            let q = fresh.probing_query();
            fresh.run(&q).unwrap();
            assert_eq!(
                cached.probe().to_bits(),
                fresh.probe().to_bits(),
                "{event:?}"
            );
        }
        // A clone carries the cache and probes exactly like the original.
        let mut a = agent();
        a.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
            lo: 5.0,
            hi: 125.0,
        }));
        a.enable_trace(16);
        a.probe();
        let mut b = a.clone();
        for _ in 0..5 {
            a.tick();
            b.tick();
            assert_eq!(a.probe().to_bits(), b.probe().to_bits());
        }
        let (ta, tb) = (a.trace().unwrap(), b.trace().unwrap());
        assert!(ta.entries().eq(tb.entries()));
    }

    #[test]
    fn join_queries_execute() {
        let mut a = agent();
        let tables = a.catalog().tables();
        let (l, r) = (tables[2].id, tables[3].id);
        let q = Query::Join(crate::query::JoinQuery {
            left: l,
            right: r,
            left_col: 4,
            right_col: 4,
            left_predicates: vec![],
            right_predicates: vec![],
            projection: vec![(true, 0), (false, 1)],
        });
        let e = a.run(&q).unwrap();
        assert!(e.cost_s > 0.0);
        assert!(matches!(e.sizes, ExecutionSizes::Join(_)));
    }
}
