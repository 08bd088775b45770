//! The end-to-end derivation pipeline (paper §4).
//!
//! For one query class at one local site:
//!
//! 1. draw the planned number of sample queries ([`crate::sampling`]),
//! 2. execute each in the dynamic environment, recording its cost, the
//!    probing cost measured in the same environment and a system-statistics
//!    snapshot,
//! 3. determine the contention states with IUPMA or ICMA
//!    ([`crate::states`]) — drawing targeted extra samples when a state is
//!    thin,
//! 4. run mixed backward/forward variable selection with the states fixed
//!    ([`crate::selection`]),
//! 5. fit the probing-cost estimator of eq. (2) ([`crate::probing`]),
//! 6. return the final model plus everything a report needs (iteration
//!    history, sample statistics, the model's sufficient statistics); the
//!    one-state comparison model is fitted on demand
//!    ([`DerivedModel::one_state`]).

use crate::catalog::SiteId;
use crate::classes::QueryClass;
use crate::model::{fit_cost_model, CostModel, ModelAccumulator, ModelForm};
use crate::observation::Observation;
use crate::pipeline::PipelineCtx;
use crate::pool;
use crate::probing::ProbeCostEstimator;
use crate::sampling::{planned_sample_size, SampleGenerator};
use crate::selection::{select_variables_inner, Selection, SelectionConfig};
use crate::states::{
    determine_states_inner, IterationStats, ObservationSource, StateAlgorithm, StatesConfig,
};
use crate::CoreError;
use mdbs_obs::Telemetry;
use mdbs_sim::{MdbsAgent, SystemStats};
use mdbs_stats::rng::split_stream;

/// Configuration of the whole derivation pipeline.
#[derive(Debug, Clone)]
pub struct DerivationConfig {
    /// State-determination knobs.
    pub states: StatesConfig,
    /// Variable-selection knobs.
    pub selection: SelectionConfig,
    /// Override the planned sample size (None → eq. (4)).
    pub sample_size: Option<usize>,
    /// Environment draws allowed per targeted resample before giving up.
    pub max_resample_attempts: usize,
    /// Whether to fit the eq.-(2) probing-cost estimator.
    pub fit_probe_estimator: bool,
}

impl Default for DerivationConfig {
    fn default() -> Self {
        DerivationConfig {
            states: StatesConfig::default(),
            selection: SelectionConfig::default(),
            sample_size: None,
            max_resample_attempts: 40,
            fit_probe_estimator: true,
        }
    }
}

impl DerivationConfig {
    /// A cheap configuration for doc-tests and smoke tests: fewer samples,
    /// fewer states.
    pub fn quick() -> Self {
        DerivationConfig {
            states: StatesConfig {
                max_states: 3,
                ..StatesConfig::default()
            },
            sample_size: Some(150),
            fit_probe_estimator: false,
            ..DerivationConfig::default()
        }
    }
}

/// Everything the derivation produces.
#[derive(Debug, Clone)]
pub struct DerivedModel {
    /// The query class the model covers.
    pub class: QueryClass,
    /// The multi-states cost model.
    pub model: CostModel,
    /// The model's sufficient statistics (one Gram block per contention
    /// state over the selected variables), what a published catalog
    /// persists so incremental refits resume from the whole sample. A
    /// derivation reads them off selection's state blocks, bit for bit
    /// [`ModelAccumulator::from_observations`] of `model` over
    /// `observations`; a maintainer restored from a catalog carries the
    /// persisted blocks instead. Only derivation and maintenance set it,
    /// so it always matches `model`; read it through
    /// [`DerivedModel::accumulator`].
    pub(crate) accumulator: ModelAccumulator,
    /// Phase-1 iteration history of the state determination.
    pub history: Vec<IterationStats>,
    /// Number of phase-2 merging adjustments.
    pub merges: usize,
    /// The observations the models were fitted on.
    pub observations: Vec<Observation>,
    /// The probing-cost estimator (when requested).
    pub probe_estimator: Option<ProbeCostEstimator>,
    /// Mean observed cost of the sample queries (reported in Table 5).
    pub avg_sample_cost: f64,
}

impl DerivedModel {
    /// The model's sufficient statistics: one Gram block per contention
    /// state over the selected variables (see the field's documentation).
    pub fn accumulator(&self) -> &ModelAccumulator {
        &self.accumulator
    }

    /// The one-state comparison model (Static Approach 2): the same sample
    /// and selected variables, one contention state. Fitted on each call:
    /// batch derivation, publishing and serving never read it.
    pub fn one_state(&self) -> Result<CostModel, CoreError> {
        fit_one_state(&self.model, &self.observations)
    }
}

/// The one-state comparison model of `model` over its fitting sample.
fn fit_one_state(model: &CostModel, observations: &[Observation]) -> Result<CostModel, CoreError> {
    fit_cost_model(
        ModelForm::Coincident,
        crate::qualvar::StateSet::single(),
        model.var_indexes.clone(),
        model.var_names.clone(),
        observations,
    )
}

/// Collects `n` observations for a class: tick the environment, measure the
/// probing cost, run the sample query, extract the Table-3 variables.
/// Optionally records `(stats, probe)` pairs for eq. (2).
pub fn collect_observations(
    agent: &mut MdbsAgent,
    class: QueryClass,
    n: usize,
    generator: &mut SampleGenerator,
    mut probe_log: Option<&mut Vec<(SystemStats, f64)>>,
) -> Result<Vec<Observation>, CoreError> {
    let family = class.family();
    let mut observations = Vec::with_capacity(n);
    while observations.len() < n {
        let query = generator.generate(class, agent.catalog());
        let Some(x) = family.extract(agent.catalog(), &query) else {
            continue; // Shape mismatch cannot happen for generated queries.
        };
        agent.tick();
        if let Some(log) = probe_log.as_deref_mut() {
            log.push((agent.stats(), 0.0));
        }
        let probe_cost = agent.probe();
        if let Some(log) = probe_log.as_deref_mut() {
            log.last_mut().expect("just pushed").1 = probe_cost;
        }
        let exec = agent
            .run(&query)
            .map_err(|e| CoreError::Agent(e.to_string()))?;
        observations.push(Observation {
            x,
            cost: exec.cost_s,
            probe_cost,
        });
    }
    Ok(observations)
}

/// An [`ObservationSource`] that draws targeted extra samples by re-rolling
/// the environment until the probing cost lands in the requested subrange.
pub struct AgentSource<'a> {
    agent: &'a mut MdbsAgent,
    generator: &'a mut SampleGenerator,
    class: QueryClass,
    max_attempts: usize,
}

impl ObservationSource for AgentSource<'_> {
    fn draw_in_range(&mut self, lo: f64, hi: f64) -> Option<Observation> {
        let family = self.class.family();
        for _ in 0..self.max_attempts {
            self.agent.tick();
            let probe_cost = self.agent.probe();
            if !(probe_cost >= lo && probe_cost < hi) {
                continue;
            }
            let query = self.generator.generate(self.class, self.agent.catalog());
            let x = family.extract(self.agent.catalog(), &query)?;
            let exec = self.agent.run(&query).ok()?;
            return Some(Observation {
                x,
                cost: exec.cost_s,
                probe_cost,
            });
        }
        None
    }
}

/// Runs the full pipeline for one class on one agent.
///
/// `ctx.seed` drives the sample-query generator (the agent carries its own
/// environment seed). When `ctx.telemetry` is enabled, the run records one
/// span per pipeline stage (`derive.sampling` → `.states` → `.selection` →
/// `.fit` → `.validation`) carrying observation counts, sample-size rule
/// inputs and virtual-time attribution, plus the `states.*`/`selection.*`
/// counters of the stage functions; the agent's `engine.*` metrics are
/// collected for the duration and folded in at the end. On an error return,
/// spans opened so far are left open (`wall_ms` 0).
pub fn derive_cost_model(
    agent: &mut MdbsAgent,
    class: QueryClass,
    algorithm: StateAlgorithm,
    cfg: &DerivationConfig,
    ctx: &mut PipelineCtx,
) -> Result<DerivedModel, CoreError> {
    derive_inner(agent, class, algorithm, cfg, ctx.seed, &mut ctx.telemetry)
}

/// The pipeline body shared by [`derive_cost_model`] and the batch/
/// maintenance callers that carry their own seed and telemetry handle;
/// see [`derive_cost_model`] for the contract.
pub(crate) fn derive_inner(
    agent: &mut MdbsAgent,
    class: QueryClass,
    algorithm: StateAlgorithm,
    cfg: &DerivationConfig,
    seed: u64,
    tel: &mut Telemetry,
) -> Result<DerivedModel, CoreError> {
    let family = class.family();
    let n = cfg
        .sample_size
        .unwrap_or_else(|| planned_sample_size(family, cfg.states.max_states));
    let root = tel.begin_span("derive");
    tel.field(root, "class", format!("{class:?}"));
    tel.field(root, "algorithm", format!("{algorithm:?}"));
    tel.field(root, "planned_n", n as u64);
    tel.field(root, "candidate_vars", family.all().len() as u64);
    tel.field(root, "max_states", cfg.states.max_states as u64);
    // While telemetry is on, also collect the agent's engine.* metrics so
    // the report attributes simulator work to this derivation.
    let fold_engine = tel.is_enabled() && agent.metrics().is_none();
    if fold_engine {
        agent.enable_metrics();
    }

    let mut generator = SampleGenerator::new(seed);
    let mut probe_log = Vec::new();
    let span = tel.begin_span("derive.sampling");
    let clock0 = agent.clock_s();
    let mut observations = collect_observations(
        agent,
        class,
        n,
        &mut generator,
        cfg.fit_probe_estimator.then_some(&mut probe_log),
    )?;
    tel.field(span, "observations", observations.len() as u64);
    tel.field(span, "virtual_s", agent.clock_s() - clock0);
    tel.end_span(span);

    // States are determined against the basic variables (the variables the
    // class is guaranteed to need); selection then refines the term set and
    // fits the published model on the partition.
    let basic = family.basic_indexes();
    let span = tel.begin_span("derive.states");
    let clock0 = agent.clock_s();
    let search = {
        let mut source = AgentSource {
            agent,
            generator: &mut generator,
            class,
            max_attempts: cfg.max_resample_attempts,
        };
        determine_states_inner(
            algorithm,
            &mut observations,
            &basic,
            &cfg.states,
            &mut source,
            tel,
        )?
    };
    tel.field(span, "states", search.states.len() as u64);
    tel.field(span, "iterations", search.history.len() as u64);
    tel.field(span, "merges", search.merges as u64);
    tel.field(span, "observations", observations.len() as u64);
    tel.field(span, "virtual_s", agent.clock_s() - clock0);
    tel.end_span(span);

    let span = tel.begin_span("derive.selection");
    let selection = select_variables_inner(
        family,
        &observations,
        &search.states,
        cfg.states.form,
        &cfg.selection,
        tel,
    )?;
    let Selection {
        model, accumulator, ..
    } = selection;
    tel.field(span, "variables", model.var_indexes.len() as u64);
    tel.field(span, "names", model.var_names.join(","));
    tel.end_span(span);

    // The traced span reports the one-state comparison model; nothing else
    // in a derivation reads it, so it is fitted only while telemetry is on,
    // and a failed fit is reported in the span rather than failing a
    // derivation that never needed it.
    let span = tel.begin_span("derive.fit");
    let one_state = if tel.is_enabled() {
        Some(fit_one_state(&model, &observations))
    } else {
        None
    };
    let probe_estimator = if cfg.fit_probe_estimator {
        Some(ProbeCostEstimator::fit(&probe_log, 0.05)?)
    } else {
        None
    };
    tel.field(span, "r_squared", model.fit.r_squared);
    tel.field(span, "see", model.fit.see);
    match &one_state {
        Some(Ok(one_state)) => tel.field(span, "one_state_r_squared", one_state.fit.r_squared),
        Some(Err(e)) => tel.field(span, "one_state_error", e.to_string()),
        None => {}
    }
    tel.field(span, "probe_estimator", probe_estimator.is_some());
    tel.end_span(span);

    let span = tel.begin_span("derive.validation");
    let avg_sample_cost =
        observations.iter().map(|o| o.cost).sum::<f64>() / observations.len().max(1) as f64;
    tel.field(span, "observations", observations.len() as u64);
    tel.field(span, "avg_sample_cost", avg_sample_cost);
    tel.end_span(span);

    if fold_engine {
        if let Some(metrics) = agent.disable_metrics() {
            tel.merge_metrics(&metrics);
        }
    }
    tel.end_span(root);

    Ok(DerivedModel {
        class,
        model,
        accumulator,
        history: search.history,
        merges: search.merges,
        observations,
        probe_estimator,
        avg_sample_cost,
    })
}

/// Stream tags separating a job's two child RNG streams (environment vs.
/// sample generation) when splitting from the root seed.
pub(crate) const ENV_STREAM: u64 = 0x454E_5600; // "ENV"
pub(crate) const GEN_STREAM: u64 = 0x4745_4E00; // "GEN"

/// One unit of batch-derivation work: a `(site, class, algorithm)` triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeriveJob {
    /// The local site whose model is derived.
    pub site: SiteId,
    /// The query class the model covers.
    pub class: QueryClass,
    /// The state-determination algorithm to run.
    pub algorithm: StateAlgorithm,
}

impl DeriveJob {
    /// A job for one site/class pair.
    pub fn new(site: impl Into<SiteId>, class: QueryClass, algorithm: StateAlgorithm) -> Self {
        DeriveJob {
            site: site.into(),
            class,
            algorithm,
        }
    }

    /// A stable 64-bit key identifying this job: an FNV-1a hash of the
    /// site name, class and algorithm. The key — not the job's position or
    /// the thread that runs it — selects the job's child RNG streams, so
    /// reordering or re-partitioning a batch never changes any job's seeds.
    pub fn job_key(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let alg = match self.algorithm {
            StateAlgorithm::Iupma => 1u64,
            StateAlgorithm::Icma => 2u64,
        };
        (key_hash(&self.site, self.class) ^ alg).wrapping_mul(PRIME)
    }

    /// A human-readable `site/class/algorithm` label.
    pub fn label(&self) -> String {
        format!("{}/{:?}/{:?}", self.site, self.class, self.algorithm)
    }
}

/// FNV-1a over the site name and the class discriminant: the stable,
/// process-independent base of [`DeriveJob::job_key`].
fn key_hash(site: &SiteId, class: QueryClass) -> u64 {
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

/// Configuration of a [`derive_all`] batch.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {
    /// The per-job derivation configuration.
    pub derivation: DerivationConfig,
    /// Worker threads (`None` → the machine's available parallelism). Any
    /// value yields identical results; see [`derive_all`].
    pub workers: Option<usize>,
}

/// What one [`derive_all`] job produced.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The job.
    pub job: DeriveJob,
    /// The environment seed the job's agent was built with (split from the
    /// root seed by the job key).
    pub env_seed: u64,
    /// The derivation result. Jobs fail independently: one degenerate
    /// site/class does not abort the batch.
    pub result: Result<DerivedModel, CoreError>,
}

/// Derives every job's model on a worker pool and returns the outcomes in
/// job order.
///
/// Each job gets two child RNG streams split from `ctx.seed` and keyed by
/// [`DeriveJob::job_key`]: an *environment* seed passed to `make_agent`
/// (build the job's agent from it so the simulated load is reproducible)
/// and a *generation* seed for the job's sample queries. Because the
/// streams depend only on `(root seed, job key)` and outcomes are merged in
/// job order, the models **and** the per-job telemetry are byte-identical
/// across worker counts; only wall-clock fields and `pool.sched.*` metrics
/// (worker count, steals, queue depth) differ, and
/// [`mdbs_obs::telemetry::strip_wall_clock`] removes exactly those.
///
/// Telemetry: one `derive_all` span with per-job `derive` spans merged
/// beneath it, the deterministic `pool.jobs_completed` counter, and the
/// scheduling-dependent `pool.sched.{steals,workers,max_queue_depth}`.
pub fn derive_all<F>(
    jobs: Vec<DeriveJob>,
    cfg: &BatchConfig,
    make_agent: F,
    ctx: &mut PipelineCtx,
) -> Vec<BatchOutcome>
where
    F: Fn(&DeriveJob, u64) -> MdbsAgent + Sync,
{
    let workers = pool::effective_workers(cfg.workers, jobs.len());
    let span = ctx.telemetry.begin_span("derive_all");
    ctx.telemetry.field(span, "jobs", jobs.len() as u64);
    let root_seed = ctx.seed;
    let traced = ctx.telemetry.is_enabled();
    let derivation = &cfg.derivation;
    let make_agent = &make_agent;

    let (results, report) = pool::run_jobs(jobs, workers, move |_, job: DeriveJob| {
        let key = job.job_key();
        let env_seed = split_stream(root_seed, key ^ ENV_STREAM);
        let gen_seed = split_stream(root_seed, key ^ GEN_STREAM);
        let mut agent = make_agent(&job, env_seed);
        let mut tel = if traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let result = derive_inner(
            &mut agent,
            job.class,
            job.algorithm,
            derivation,
            gen_seed,
            &mut tel,
        );
        (job, env_seed, result, tel)
    });

    let mut outcomes = Vec::with_capacity(results.len());
    for (job, env_seed, result, tel) in results {
        ctx.telemetry.merge_child(tel, Some(span));
        outcomes.push(BatchOutcome {
            job,
            env_seed,
            result,
        });
    }
    ctx.telemetry
        .inc("pool.jobs_completed", report.jobs_completed as u64);
    ctx.telemetry.inc("pool.sched.steals", report.steals);
    ctx.telemetry
        .gauge("pool.sched.workers", report.workers as f64);
    ctx.telemetry
        .gauge("pool.sched.max_queue_depth", report.max_queue_depth as f64);
    ctx.telemetry.field(
        span,
        "succeeded",
        outcomes.iter().filter(|o| o.result.is_ok()).count() as u64,
    );
    ctx.telemetry.end_span(span);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variables::VariableFamily;
    use mdbs_sim::datagen::standard_database;
    use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};

    fn dynamic_agent(seed: u64) -> MdbsAgent {
        let mut agent = MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), seed);
        agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
            lo: 5.0,
            hi: 125.0,
        }));
        agent
    }

    #[test]
    fn collect_observations_produces_complete_rows() {
        let mut agent = dynamic_agent(1);
        let mut generator = SampleGenerator::new(2);
        let obs = collect_observations(
            &mut agent,
            QueryClass::UnaryNoIndex,
            30,
            &mut generator,
            None,
        )
        .unwrap();
        assert_eq!(obs.len(), 30);
        for o in &obs {
            assert_eq!(o.x.len(), VariableFamily::Unary.all().len());
            assert!(o.cost > 0.0);
            assert!(o.probe_cost > 0.0);
        }
    }

    #[test]
    fn probe_log_pairs_align() {
        let mut agent = dynamic_agent(3);
        let mut generator = SampleGenerator::new(4);
        let mut log = Vec::new();
        let obs = collect_observations(
            &mut agent,
            QueryClass::UnaryNoIndex,
            20,
            &mut generator,
            Some(&mut log),
        )
        .unwrap();
        assert_eq!(log.len(), obs.len());
        for ((_, probe), o) in log.iter().zip(&obs) {
            assert_eq!(*probe, o.probe_cost);
        }
    }

    #[test]
    fn derivation_beats_one_state_on_dynamic_data() {
        let mut agent = dynamic_agent(5);
        let cfg = DerivationConfig {
            sample_size: Some(260),
            fit_probe_estimator: false,
            ..DerivationConfig::default()
        };
        let derived = derive_cost_model(
            &mut agent,
            QueryClass::UnaryNoIndex,
            StateAlgorithm::Iupma,
            &cfg,
            &mut PipelineCtx::seeded(7),
        )
        .unwrap();
        assert!(derived.model.num_states() >= 2, "stayed single-state");
        let one_state = derived.one_state().unwrap();
        assert!(
            derived.model.fit.r_squared > one_state.fit.r_squared,
            "multi {} vs one-state {}",
            derived.model.fit.r_squared,
            one_state.fit.r_squared
        );
        assert!(derived.model.fit.r_squared > 0.9);
        assert!(derived.avg_sample_cost > 0.0);
        assert!(!derived.history.is_empty());
    }

    #[test]
    fn job_keys_are_stable_and_distinct() {
        let a = DeriveJob::new("oracle", QueryClass::UnaryNoIndex, StateAlgorithm::Iupma);
        let b = DeriveJob::new("oracle", QueryClass::UnaryNoIndex, StateAlgorithm::Icma);
        let c = DeriveJob::new("db2", QueryClass::UnaryNoIndex, StateAlgorithm::Iupma);
        let d = DeriveJob::new("oracle", QueryClass::JoinNoIndex, StateAlgorithm::Iupma);
        let keys = [a.job_key(), b.job_key(), c.job_key(), d.job_key()];
        for (i, k) in keys.iter().enumerate() {
            for other in &keys[i + 1..] {
                assert_ne!(k, other);
            }
        }
        assert_eq!(a.job_key(), a.clone().job_key());
        assert_eq!(a.label(), "oracle/UnaryNoIndex/Iupma");
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

    /// The job key seeds every derivation, so its value is part of every
    /// derived catalog's bytes: pin it literally.
    #[test]
    fn job_keys_are_pinned() {
        for (site, class, algorithm, key) in [
            (
                "oracle",
                QueryClass::UnaryNoIndex,
                StateAlgorithm::Iupma,
                0x8f83_1989_5d87_d4bc,
            ),
            (
                "oracle",
                QueryClass::UnaryNoIndex,
                StateAlgorithm::Icma,
                0x8f83_1c89_5d87_d9d5,
            ),
            (
                "db2",
                QueryClass::UnaryClusteredIndex,
                StateAlgorithm::Iupma,
                0x6fa8_da4d_8265_4116,
            ),
            (
                "db2",
                QueryClass::JoinIndexed,
                StateAlgorithm::Icma,
                0x6fbd_414d_8276_9925,
            ),
        ] {
            let job = DeriveJob::new(site, class, algorithm);
            assert_eq!(job.job_key(), key, "{}", job.label());
        }
    }

    #[test]
    fn agent_source_targets_the_requested_band() {
        let mut agent = dynamic_agent(9);
        // Find a plausible probe band first.
        agent.tick();
        let p = agent.probe();
        let mut generator = SampleGenerator::new(10);
        let mut source = AgentSource {
            agent: &mut agent,
            generator: &mut generator,
            class: QueryClass::UnaryNoIndex,
            max_attempts: 200,
        };
        let got = source.draw_in_range(p * 0.2, p * 5.0);
        let obs = got.expect("broad band should be reachable");
        assert!(obs.probe_cost >= p * 0.2 && obs.probe_cost < p * 5.0);
        // An impossible band fails gracefully.
        let mut source = AgentSource {
            agent: &mut agent,
            generator: &mut generator,
            class: QueryClass::UnaryNoIndex,
            max_attempts: 5,
        };
        assert!(source.draw_in_range(1e9, 2e9).is_none());
    }
}
