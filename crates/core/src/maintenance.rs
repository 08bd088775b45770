//! Cost-model maintenance for occasionally-changing factors (paper §2).
//!
//! The multi-states model absorbs the *frequently*-changing factors through
//! its qualitative variable — but the paper's §2 lists factors that change
//! *occasionally* and durably: DBMS configuration, schema, hardware. For
//! those, "a simple and effective approach … is to invoke the static query
//! sampling method periodically or whenever a significant change for the
//! factors occurs". This module supplies the "whenever": a [`DriftMonitor`]
//! watches the stream of (estimated, observed) cost pairs the MDBS sees
//! during normal operation and flags the model once its good-estimate rate
//! over a sliding window falls below a threshold, and a [`ModelMaintainer`]
//! bundles the monitor with the re-derivation call.
//!
//! Two properties make this cheap and safe:
//!
//! * drift detection is free — the MDBS observes actual local costs for
//!   every query it routed anyway;
//! * *data growth does not trigger false alarms*: the explanatory variables
//!   (operand/intermediate/result sizes) are re-extracted per query from
//!   the catalog, so a grown table changes the inputs, not the model. Only
//!   changes that reshape the cost *function itself* (memory, indexes,
//!   disks, buffer pools) degrade the good-estimate rate.

use crate::catalog::SiteId;
use crate::classes::QueryClass;
use crate::derive::{derive_inner, DerivationConfig, DeriveJob, DerivedModel};
use crate::model::ModelAccumulator;
use crate::observation::Observation;
use crate::pipeline::PipelineCtx;
use crate::pool;
use crate::registry::ModelRegistry;
use crate::states::StateAlgorithm;
use crate::validate::TestPoint;
use crate::CoreError;
use mdbs_obs::Telemetry;
use mdbs_sim::MdbsAgent;
use mdbs_stats::rng::split_stream;
use std::collections::VecDeque;

/// Configuration of the drift monitor.
///
/// Marked `#[non_exhaustive]`: external crates construct it through
/// [`MaintenanceConfig::builder`], so new knobs can be added without
/// breaking callers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct MaintenanceConfig {
    /// Size of the sliding window of recent estimates.
    pub window: usize,
    /// Minimum observations before drift can be declared.
    pub min_observations: usize,
    /// Declare drift when the fraction of *good* estimates (within 2×)
    /// in the window falls below this.
    pub min_good_fraction: f64,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            window: 50,
            min_observations: 20,
            min_good_fraction: 0.5,
        }
    }
}

impl MaintenanceConfig {
    /// A builder seeded with [`MaintenanceConfig::default`] — the one way
    /// for external crates to construct a config, since the struct is
    /// `#[non_exhaustive]`.
    pub fn builder() -> MaintenanceConfigBuilder {
        MaintenanceConfigBuilder {
            cfg: MaintenanceConfig::default(),
        }
    }

    /// Returns a config whose fields are mutually consistent.
    ///
    /// [`DriftMonitor::record`] caps the evidence deque at `window`, so a
    /// `min_observations` above `window` is a gate that can never be
    /// satisfied: the monitor would silently never declare drift, no matter
    /// how bad the estimates. This clamps `min_observations` into
    /// `1..=window` (and `window` itself to at least 1,
    /// `min_good_fraction` into `[0, 1]`) so every configuration the
    /// monitor actually runs with can reach its gate. The lenient
    /// counterpart of [`MaintenanceConfigBuilder::build`], applied on
    /// monitor construction.
    fn clamped(self) -> Self {
        let window = self.window.max(1);
        MaintenanceConfig {
            window,
            min_observations: self.min_observations.clamp(1, window),
            min_good_fraction: self.min_good_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Builder for [`MaintenanceConfig`]: every setter overrides one default,
/// and [`MaintenanceConfigBuilder::build`] rejects inconsistent
/// combinations instead of silently clamping them.
#[derive(Debug, Clone)]
pub struct MaintenanceConfigBuilder {
    cfg: MaintenanceConfig,
}

impl MaintenanceConfigBuilder {
    /// Sliding-window size (must be ≥ 1).
    pub fn window(mut self, v: usize) -> Self {
        self.cfg.window = v;
        self
    }

    /// Minimum observations before drift can be declared (must be in
    /// `1..=window`).
    pub fn min_observations(mut self, v: usize) -> Self {
        self.cfg.min_observations = v;
        self
    }

    /// Good-estimate fraction below which drift is declared (must be in
    /// `[0, 1]`).
    pub fn min_good_fraction(mut self, v: f64) -> Self {
        self.cfg.min_good_fraction = v;
        self
    }

    /// Validates and returns the config. Inconsistent knobs — a drift gate
    /// the sliding window could never satisfy — are an error here, unlike
    /// monitor construction, which clamps defensively.
    pub fn build(self) -> Result<MaintenanceConfig, CoreError> {
        let c = &self.cfg;
        if c.window == 0 {
            return Err(CoreError::Degenerate("window must be >= 1".to_string()));
        }
        if c.min_observations == 0 || c.min_observations > c.window {
            return Err(CoreError::Degenerate(format!(
                "min_observations must be in 1..=window ({}), got {}",
                c.window, c.min_observations
            )));
        }
        if !c.min_good_fraction.is_finite() || !(0.0..=1.0).contains(&c.min_good_fraction) {
            return Err(CoreError::Degenerate(
                "min_good_fraction must be in [0, 1]".to_string(),
            ));
        }
        Ok(self.cfg)
    }
}

/// Sliding-window drift detection over estimate quality.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: MaintenanceConfig,
    recent: VecDeque<bool>,
}

impl DriftMonitor {
    /// A monitor with the given configuration. The config is clamped to
    /// mutual consistency first, so a `min_observations` above `window` —
    /// a gate the sliding window could never satisfy — is clamped instead
    /// of making drift silently undetectable forever.
    pub fn new(config: MaintenanceConfig) -> Self {
        let config = config.clamped();
        DriftMonitor {
            recent: VecDeque::with_capacity(config.window),
            config,
        }
    }

    /// Records one (observed, estimated) pair from production traffic.
    pub fn record(&mut self, observed: f64, estimated: f64) {
        let p = TestPoint {
            observed,
            estimated,
            result_card: 0,
            probe_cost: 0.0,
        };
        if self.recent.len() == self.config.window {
            self.recent.pop_front();
        }
        self.recent.push_back(p.is_good());
    }

    /// Fraction of good estimates currently in the window.
    pub fn good_fraction(&self) -> f64 {
        if self.recent.is_empty() {
            return 1.0;
        }
        self.recent.iter().filter(|&&g| g).count() as f64 / self.recent.len() as f64
    }

    /// Number of recorded pairs currently in the window.
    pub fn observations(&self) -> usize {
        self.recent.len()
    }

    /// Whether the model has drifted (enough evidence + low quality).
    pub fn drifted(&self) -> bool {
        self.recent.len() >= self.config.min_observations
            && self.good_fraction() < self.config.min_good_fraction
    }

    /// Clears the window (after a re-derivation).
    pub fn reset(&mut self) {
        self.recent.clear();
    }
}

/// A derived model plus the machinery to keep it fresh.
///
/// Two refresh paths of very different cost:
///
/// * [`ModelMaintainer::refit_incremental`] folds new observations into
///   the model's stored sufficient statistics ([`ModelAccumulator`]) and
///   re-solves in O(k³) — coefficients track the environment while the
///   contention-state partition and variable set stay fixed;
/// * [`ModelMaintainer::rederive`] re-runs the whole sampling pipeline
///   (probing, state determination, variable selection) and is reserved
///   for when the states themselves have shifted — i.e. when the drift
///   monitor says the model *shape* no longer matches the environment.
#[derive(Debug, Clone)]
pub struct ModelMaintainer {
    /// The model currently in production.
    pub derived: DerivedModel,
    /// The drift monitor fed by production traffic.
    pub monitor: DriftMonitor,
    /// How re-derivations are configured.
    pub derivation: DerivationConfig,
    /// Which state-determination algorithm re-derivations use.
    pub algorithm: StateAlgorithm,
    /// How many times the model has been rebuilt.
    pub rederivations: usize,
    /// A derivation is itself a sampling experiment and can land on a weak
    /// model; a rebuild runs up to this many attempts (distinct sample
    /// seeds) and keeps the best fit by R².
    pub rederive_attempts: usize,
    /// How many times [`ModelMaintainer::refit_incremental`] has run.
    pub incremental_refits: usize,
}

impl ModelMaintainer {
    /// Wraps an existing derivation; its accumulator backs incremental
    /// refits.
    pub fn new(
        derived: DerivedModel,
        maintenance: MaintenanceConfig,
        derivation: DerivationConfig,
        algorithm: StateAlgorithm,
    ) -> Self {
        ModelMaintainer {
            derived,
            monitor: DriftMonitor::new(maintenance),
            derivation,
            algorithm,
            rederivations: 0,
            rederive_attempts: 3,
            incremental_refits: 0,
        }
    }

    /// Wraps a model restored from a catalog — the long-lived serving loop
    /// starts from persisted models, not a fresh [`DerivedModel`].
    ///
    /// When the catalog also persisted the model's fit accumulator
    /// (`gram-entry` blocks), pass it so incremental refits resume from the
    /// full fitting sample; otherwise the accumulator starts empty and
    /// warms up from production observations (early
    /// [`ModelMaintainer::refit_incremental`] calls may fail with
    /// insufficient per-state evidence until it has absorbed enough — the
    /// serving loop treats that as "defer", not as fatal). Errors when a
    /// provided accumulator does not describe the model's state partition
    /// and variable set.
    pub fn from_model(
        class: QueryClass,
        model: crate::model::CostModel,
        accumulator: Option<ModelAccumulator>,
        maintenance: MaintenanceConfig,
        derivation: DerivationConfig,
        algorithm: StateAlgorithm,
    ) -> Result<Self, CoreError> {
        let derived = DerivedModel {
            class,
            accumulator: ModelAccumulator::from_observations(&model, &[]),
            model,
            history: Vec::new(),
            merges: 0,
            observations: Vec::new(),
            probe_estimator: None,
            avg_sample_cost: 0.0,
        };
        let mut maintainer = ModelMaintainer::new(derived, maintenance, derivation, algorithm);
        if let Some(acc) = accumulator {
            maintainer.restore_accumulator(acc)?;
        }
        Ok(maintainer)
    }

    /// The sufficient statistics backing incremental refits (persisted in
    /// the catalog as `gram-entry` blocks).
    pub fn accumulator(&self) -> &ModelAccumulator {
        &self.derived.accumulator
    }

    /// Replaces the stored sufficient statistics (e.g. when restoring a
    /// maintainer from a catalog that persisted them). The accumulator must
    /// describe the same state partition and variable set as the production
    /// model.
    pub fn restore_accumulator(&mut self, accumulator: ModelAccumulator) -> Result<(), CoreError> {
        let model = &self.derived.model;
        if accumulator.states() != &model.states
            || accumulator.var_indexes() != model.var_indexes.as_slice()
        {
            return Err(CoreError::Degenerate(
                "accumulator does not match the production model".into(),
            ));
        }
        self.derived.accumulator = accumulator;
        Ok(())
    }

    /// The class this maintainer covers.
    pub fn class(&self) -> QueryClass {
        self.derived.class
    }

    /// Feeds one production observation; returns `true` when the model has
    /// now drifted and should be rebuilt.
    ///
    /// When `ctx.telemetry` is enabled, records the drift-window quality
    /// series (`maintenance.good_fraction` histogram, one sample per call)
    /// and the `maintenance.drift_flags` counter for calls that report the
    /// model as drifted.
    pub fn observe(&mut self, observed: f64, estimated: f64, ctx: &mut PipelineCtx) -> bool {
        self.observe_inner(observed, estimated, &mut ctx.telemetry)
    }

    fn observe_inner(&mut self, observed: f64, estimated: f64, tel: &mut Telemetry) -> bool {
        self.monitor.record(observed, estimated);
        tel.inc("maintenance.observations", 1);
        tel.observe("maintenance.good_fraction", self.monitor.good_fraction());
        let drifted = self.monitor.drifted();
        if drifted {
            tel.inc("maintenance.drift_flags", 1);
        }
        drifted
    }

    /// Rebuilds the model by re-running the full derivation pipeline
    /// against the (changed) local site — up to [`Self::rederive_attempts`]
    /// times (sample seeds `ctx.seed + attempt`), keeping the best attempt
    /// by R² — then resets the monitor.
    ///
    /// When `ctx.telemetry` is enabled, wraps the attempts in a
    /// `maintenance.rederive` span (attempt count, winning R², window
    /// quality at trigger time) and counts `maintenance.rederivations`.
    pub fn rederive(
        &mut self,
        agent: &mut MdbsAgent,
        ctx: &mut PipelineCtx,
    ) -> Result<(), CoreError> {
        self.rederive_inner(agent, ctx.seed, &mut ctx.telemetry)
    }

    fn rederive_inner(
        &mut self,
        agent: &mut MdbsAgent,
        seed: u64,
        tel: &mut Telemetry,
    ) -> Result<(), CoreError> {
        let span = tel.begin_span("maintenance.rederive");
        tel.field(span, "class", format!("{:?}", self.derived.class));
        tel.field(
            span,
            "good_fraction_at_trigger",
            self.monitor.good_fraction(),
        );
        let best = rederive_best(
            agent,
            self.derived.class,
            self.algorithm,
            &self.derivation,
            self.rederive_attempts,
            seed,
            tel,
        )?;
        self.derived = best;
        self.monitor.reset();
        self.rederivations += 1;
        tel.inc("maintenance.rederivations", 1);
        tel.field(span, "attempts", self.rederive_attempts.max(1) as u64);
        tel.field(span, "r_squared", self.derived.model.fit.r_squared);
        tel.end_span(span);
        Ok(())
    }

    /// Folds fresh production observations into the stored sufficient
    /// statistics and re-solves the model in O(k³) — no design-matrix
    /// rebuild, no rescan of the historical sample (which is *not* needed
    /// at all for this path; only the accumulator is). The state partition
    /// and variable set are kept; full [`ModelMaintainer::rederive`] stays
    /// reserved for when the states themselves shift.
    ///
    /// The refreshed model replaces `derived.model`, the drift window is
    /// cleared, and — when `registry` is given — the model is published
    /// under a new registry version, which is returned (`None` without a
    /// registry) so callers can stamp maintenance records with the exact
    /// version the refit produced. Counted as
    /// `maintenance.incremental_refits`.
    pub fn refit_incremental(
        &mut self,
        site: &SiteId,
        new_observations: &[Observation],
        registry: Option<&mut ModelRegistry>,
        ctx: &mut PipelineCtx,
    ) -> Result<Option<u64>, CoreError> {
        self.derived.accumulator.absorb(new_observations);
        let tel = &mut ctx.telemetry;
        let span = tel.begin_span("maintenance.refit_incremental");
        tel.field(span, "class", format!("{:?}", self.derived.class));
        tel.field(span, "absorbed", new_observations.len() as u64);
        let model = self.derived.accumulator.refit()?;
        self.derived
            .observations
            .extend_from_slice(new_observations);
        self.derived.model = model;
        self.monitor.reset();
        self.incremental_refits += 1;
        tel.inc("maintenance.incremental_refits", 1);
        tel.inc(
            "fit.gram.rescans_avoided",
            self.derived.accumulator.n() as u64,
        );
        tel.field(span, "n", self.derived.accumulator.n() as u64);
        tel.field(span, "r_squared", self.derived.model.fit.r_squared);
        let published = registry.map(|registry| {
            registry.publish(site.clone(), self.derived.class, self.derived.model.clone())
        });
        if let Some(version) = published {
            tel.field(span, "published_version", version);
        }
        tel.end_span(span);
        Ok(published)
    }
}

/// Best-of-`attempts` derivation (sample seeds `seed + attempt`, winner by
/// R²), shared by the serial rebuild and the pooled batch path.
fn rederive_best(
    agent: &mut MdbsAgent,
    class: QueryClass,
    algorithm: StateAlgorithm,
    cfg: &DerivationConfig,
    attempts: usize,
    seed: u64,
    tel: &mut Telemetry,
) -> Result<DerivedModel, CoreError> {
    let mut best: Option<DerivedModel> = None;
    for attempt in 0..attempts.max(1) as u64 {
        let candidate = derive_inner(
            agent,
            class,
            algorithm,
            cfg,
            seed.wrapping_add(attempt),
            tel,
        )?;
        let better = best.as_ref().map_or(true, |b| {
            candidate.model.fit.r_squared > b.model.fit.r_squared
        });
        if better {
            best = Some(candidate);
        }
    }
    Ok(best.expect("at least one attempt ran"))
}

/// Rebuilds every drifted maintainer of a fleet on a worker pool, exactly
/// as the per-maintainer [`ModelMaintainer::rederive`] would (best of
/// [`ModelMaintainer::rederive_attempts`] by R²), then — after the pool
/// has joined, in job order — publishes the fresh models into `registry`
/// (when given).
///
/// Seeds follow the [`crate::derive::derive_all`] scheme: each drifted
/// `(site, class, algorithm)` triple is a [`DeriveJob`] whose stable key
/// splits an environment seed (passed to `make_agent`) and a base sample
/// seed from `ctx.seed`, so the rebuilt fleet is reproducible from the root
/// seed regardless of worker count or which subset happened to drift.
///
/// Returns the number of models rebuilt. Jobs fail independently; the
/// first error is returned after every successful rebuild has been
/// applied, so a degenerate site cannot wedge the rest of the fleet.
pub fn rederive_drifted<F>(
    fleet: &mut [(SiteId, ModelMaintainer)],
    workers: Option<usize>,
    make_agent: F,
    mut registry: Option<&mut ModelRegistry>,
    ctx: &mut PipelineCtx,
) -> Result<usize, CoreError>
where
    F: Fn(&SiteId, QueryClass, u64) -> MdbsAgent + Sync,
{
    let drifted: Vec<usize> = fleet
        .iter()
        .enumerate()
        .filter(|(_, (_, m))| m.monitor.drifted())
        .map(|(i, _)| i)
        .collect();
    let span = ctx.telemetry.begin_span("maintenance.rederive_batch");
    ctx.telemetry.field(span, "fleet", fleet.len() as u64);
    ctx.telemetry.field(span, "drifted", drifted.len() as u64);

    let jobs: Vec<(usize, DeriveJob, DerivationConfig, usize)> = drifted
        .iter()
        .map(|&i| {
            let (site, m) = &fleet[i];
            (
                i,
                DeriveJob::new(site.clone(), m.class(), m.algorithm),
                m.derivation.clone(),
                m.rederive_attempts,
            )
        })
        .collect();
    let workers = pool::effective_workers(workers, jobs.len());
    let root_seed = ctx.seed;
    let traced = ctx.telemetry.is_enabled();
    let make_agent = &make_agent;

    let (results, report) = pool::run_jobs(jobs, workers, move |_, (i, job, cfg, attempts)| {
        let key = job.job_key();
        let env_seed = split_stream(root_seed, key ^ crate::derive::ENV_STREAM);
        let gen_seed = split_stream(root_seed, key ^ crate::derive::GEN_STREAM);
        let mut agent = make_agent(&job.site, job.class, env_seed);
        let mut tel = if traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let result = rederive_best(
            &mut agent,
            job.class,
            job.algorithm,
            &cfg,
            attempts,
            gen_seed,
            &mut tel,
        );
        (i, job, result, tel)
    });

    let mut rebuilt = 0usize;
    let mut first_error: Option<CoreError> = None;
    for (i, job, result, tel) in results {
        ctx.telemetry.merge_child(tel, Some(span));
        match result {
            Ok(derived) => {
                let (_, maintainer) = &mut fleet[i];
                maintainer.derived = derived;
                maintainer.monitor.reset();
                maintainer.rederivations += 1;
                ctx.telemetry.inc("maintenance.rederivations", 1);
                if let Some(registry) = registry.as_deref_mut() {
                    registry.publish(
                        job.site.clone(),
                        job.class,
                        maintainer.derived.model.clone(),
                    );
                }
                rebuilt += 1;
            }
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    ctx.telemetry
        .inc("pool.jobs_completed", report.jobs_completed as u64);
    ctx.telemetry.inc("pool.sched.steals", report.steals);
    ctx.telemetry
        .gauge("pool.sched.workers", report.workers as f64);
    ctx.telemetry.field(span, "rebuilt", rebuilt as u64);
    ctx.telemetry.end_span(span);
    match first_error {
        Some(e) => Err(e),
        None => Ok(rebuilt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_monitor_reports_no_drift() {
        let m = DriftMonitor::new(MaintenanceConfig::default());
        assert!(!m.drifted());
        assert_eq!(m.good_fraction(), 1.0);
    }

    #[test]
    fn good_traffic_keeps_the_model() {
        let mut m = DriftMonitor::new(MaintenanceConfig::default());
        for i in 0..100 {
            let obs = 10.0 + (i % 5) as f64;
            m.record(obs, obs * 1.1);
        }
        assert!(!m.drifted());
        assert!(m.good_fraction() > 0.99);
    }

    #[test]
    fn sustained_bad_estimates_trigger_drift() {
        let mut m = DriftMonitor::new(MaintenanceConfig::default());
        for _ in 0..30 {
            m.record(10.0, 100.0); // 10x off.
        }
        assert!(m.drifted());
        assert!(m.good_fraction() < 0.1);
    }

    #[test]
    fn drift_needs_minimum_evidence() {
        let mut m = DriftMonitor::new(MaintenanceConfig {
            min_observations: 20,
            ..MaintenanceConfig::default()
        });
        for _ in 0..10 {
            m.record(10.0, 100.0);
        }
        assert!(!m.drifted(), "drift declared on too little evidence");
    }

    #[test]
    fn window_slides() {
        let mut m = DriftMonitor::new(MaintenanceConfig {
            window: 30,
            min_observations: 20,
            min_good_fraction: 0.5,
        });
        // Bad history...
        for _ in 0..30 {
            m.record(10.0, 1000.0);
        }
        assert!(m.drifted());
        // ...fully displaced by good recent traffic.
        for _ in 0..30 {
            m.record(10.0, 10.5);
        }
        assert!(!m.drifted());
        assert_eq!(m.observations(), 30);
    }

    #[test]
    fn reset_clears_evidence() {
        let mut m = DriftMonitor::new(MaintenanceConfig::default());
        for _ in 0..40 {
            m.record(10.0, 500.0);
        }
        assert!(m.drifted());
        m.reset();
        assert!(!m.drifted());
        assert_eq!(m.observations(), 0);
    }

    #[test]
    fn min_observations_above_window_is_clamped_so_drift_stays_detectable() {
        // Regression: the window caps the evidence deque, so a
        // min_observations above it used to make the gate unsatisfiable —
        // drift was silently undetectable forever. The monitor now clamps
        // the gate to the window.
        let mut m = DriftMonitor::new(MaintenanceConfig {
            window: 10,
            min_observations: 20,
            min_good_fraction: 0.5,
        });
        for _ in 0..100 {
            m.record(10.0, 1000.0);
        }
        assert_eq!(m.observations(), 10);
        assert_eq!(m.good_fraction(), 0.0);
        assert!(
            m.drifted(),
            "a full window of bad estimates must declare drift even when \
             min_observations was configured above the window"
        );
    }

    #[test]
    fn validated_clamps_degenerate_configs() {
        let v = MaintenanceConfig {
            window: 10,
            min_observations: 20,
            min_good_fraction: 1.5,
        }
        .clamped();
        assert_eq!(v.window, 10);
        assert_eq!(v.min_observations, 10);
        assert_eq!(v.min_good_fraction, 1.0);

        let v = MaintenanceConfig {
            window: 0,
            min_observations: 0,
            min_good_fraction: -0.5,
        }
        .clamped();
        assert_eq!(v.window, 1);
        assert_eq!(v.min_observations, 1);
        assert_eq!(v.min_good_fraction, 0.0);

        // A sane config passes through untouched.
        let sane = MaintenanceConfig::default();
        assert_eq!(sane.clone().clamped(), sane);
    }

    #[test]
    fn maintenance_builder_accepts_sane_and_rejects_inconsistent() {
        let built = MaintenanceConfig::builder()
            .window(20)
            .min_observations(8)
            .min_good_fraction(0.65)
            .build()
            .expect("sane knobs build");
        assert_eq!(built.window, 20);
        assert_eq!(built.min_observations, 8);
        assert_eq!(built.min_good_fraction, 0.65);
        assert_eq!(
            MaintenanceConfig::builder()
                .build()
                .expect("defaults build"),
            MaintenanceConfig::default()
        );
        for (name, b) in [
            ("window", MaintenanceConfig::builder().window(0)),
            (
                "min_obs_zero",
                MaintenanceConfig::builder().min_observations(0),
            ),
            (
                "min_obs_above_window",
                MaintenanceConfig::builder().window(10).min_observations(20),
            ),
            (
                "fraction",
                MaintenanceConfig::builder().min_good_fraction(1.5),
            ),
        ] {
            assert!(
                matches!(b.build(), Err(CoreError::Degenerate(_))),
                "{name} must be rejected"
            );
        }
    }

    #[test]
    fn good_fraction_on_empty_window_is_one() {
        let mut m = DriftMonitor::new(MaintenanceConfig::default());
        assert_eq!(m.good_fraction(), 1.0);
        m.record(10.0, 1000.0);
        assert_eq!(m.good_fraction(), 0.0);
        m.reset();
        // Back to the optimistic prior after reset, too.
        assert_eq!(m.good_fraction(), 1.0);
    }

    #[test]
    fn reset_after_drift_requires_fresh_evidence_to_redrift() {
        let mut m = DriftMonitor::new(MaintenanceConfig {
            window: 30,
            min_observations: 20,
            min_good_fraction: 0.5,
        });
        for _ in 0..25 {
            m.record(10.0, 1000.0);
        }
        assert!(m.drifted());
        m.reset();
        // 19 bad estimates: still one short of the evidence gate.
        for _ in 0..19 {
            m.record(10.0, 1000.0);
        }
        assert!(!m.drifted());
        m.record(10.0, 1000.0);
        assert!(m.drifted(), "the 20th bad estimate crosses the gate");
    }
}
