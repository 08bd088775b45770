//! Contention-state determination: **IUPMA** and **ICMA** (paper §3.3).
//!
//! Both algorithms share the same two-phase skeleton (paper Algorithm 3.1):
//!
//! * **Phase 1 — iterative refinement.** Starting from one state, the
//!   number of states `m` grows while each added state still improves the
//!   model "sufficiently" in terms of the coefficient of total
//!   determination R² and the standard error of estimation SEE, up to a cap
//!   that keeps the model maintainable.
//! * **Phase 2 — merging adjustment.** Adjacent states whose *adjusted
//!   coefficients* differ by only a small relative error do not have
//!   significantly different effects on the cost model; they are merged and
//!   the model refitted until no merge candidates remain.
//!
//! They differ only in how a candidate partition of the probing-cost range
//! is proposed: **IUPMA** slices it uniformly; **ICMA** runs agglomerative
//! (centroid-linkage) clustering on the sampled probing costs and cuts at
//! the gaps between clusters — better when the contention level follows a
//! non-uniform, clustered distribution (paper Table 6 / Figure 10).
//!
//! When a proposed state contains too few observations for regression, the
//! paper prescribes drawing *additional* sample queries rather than
//! discarding the state; the [`ObservationSource`] trait is that hook.
//! States that stay thin are merged into a neighbor.

use crate::model::{
    adjusted_coefficients, counts_per_state, fit_cost_model, fit_gram_from_blocks,
    min_obs_per_state, CostModel, ModelForm,
};
use crate::observation::{check_moments, check_values, Observation};
use crate::qualvar::StateSet;
use crate::CoreError;
use mdbs_obs::Telemetry;
use mdbs_stats::{cluster_path_1d, Cluster1D, GramAccumulator, GramPrefix, GramWorkspace};

/// Which state-determination algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateAlgorithm {
    /// Iterative Uniform Partition with Merging Adjustment.
    Iupma,
    /// Iterative Clustering with Merging Adjustment.
    Icma,
}

/// Tuning knobs of the determination procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct StatesConfig {
    /// Upper bound on the number of states (paper: 3–6 usually suffice).
    pub max_states: usize,
    /// Minimum R² gain for an extra state to be "sufficient".
    pub min_r2_gain: f64,
    /// Minimum *relative* SEE reduction for an extra state.
    pub min_see_gain: f64,
}

impl Default for StatesConfig {
    fn default() -> Self {
        StatesConfig {
            max_states: 6,
            min_r2_gain: 0.01,
            min_see_gain: 0.02,
        }
    }
}

/// Consecutive insufficient-improvement steps tolerated before phase 1
/// stops. Gains are not monotone in `m` (uniform boundaries shift as the
/// partition refines), so stopping at the first flat step can strand the
/// model at a too-coarse partition.
const PATIENCE: usize = 2;

/// Maximum relative difference between adjacent states' adjusted
/// coefficients below which phase 2 merges the states.
const MERGE_THRESHOLD: f64 = 0.15;

/// A supplier of extra observations targeted at a probing-cost subrange.
///
/// `draw_in_range(lo, hi)` should execute one more sample query in an
/// environment whose probing cost lies in `[lo, hi)` and return its
/// observation, or `None` when that environment cannot be produced. A
/// draw outside `[lo, hi)` is discarded and ends the targeted resampling
/// of that state, as `None` does.
pub trait ObservationSource {
    /// Attempts to produce one observation with `probe_cost ∈ [lo, hi)`.
    fn draw_in_range(&mut self, lo: f64, hi: f64) -> Option<Observation>;
}

/// A source that never supplies anything — thin states then merge instead.
pub struct NoResampling;

impl ObservationSource for NoResampling {
    fn draw_in_range(&mut self, _lo: f64, _hi: f64) -> Option<Observation> {
        None
    }
}

/// One phase-1 iteration record (for reports and the E-STATES experiment).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Number of states of this candidate model.
    pub states: usize,
    /// Pooled R².
    pub r_squared: f64,
    /// Pooled SEE.
    pub see: f64,
}

/// The outcome of state determination: the model (Algorithm 3.1 produces a
/// cost model as a by-product), the phase-1 history, and how many merges
/// phase 2 performed.
#[derive(Debug, Clone)]
pub struct StatesResult {
    /// The final fitted model (with its state set inside).
    pub model: CostModel,
    /// Phase-1 iteration history, one entry per attempted `m`.
    pub history: Vec<IterationStats>,
    /// Number of merging adjustments applied in phase 2.
    pub merges: usize,
}

/// What the search itself settles: the partition, the phase-1 history and
/// the number of phase-2 merges. Derivation needs only these — variable
/// selection fits the published model on the partition — so the search
/// fits no model of its own.
#[derive(Debug)]
pub(crate) struct StatesSearch {
    /// The final contention-state partition.
    pub(crate) states: StateSet,
    /// Phase-1 iteration history, one entry per attempted `m`.
    pub(crate) history: Vec<IterationStats>,
    /// Number of merging adjustments applied in phase 2.
    pub(crate) merges: usize,
}

/// Runs IUPMA or ICMA over `observations`, mutating the vector when the
/// source supplies extra samples for thin states, and fits the model of
/// the partition it settles on ([`fit_cost_model`], once).
///
/// When `ctx.telemetry` is enabled, records `states.*` counters (partition
/// iterations, rank-deficient and collapsed proposals skipped, targeted
/// resample draws, thin-state merges, phase-2 merges). The `ctx.seed` is
/// unused here — state determination draws no randomness of its own.
#[allow(clippy::too_many_arguments)]
pub fn determine_states(
    algorithm: StateAlgorithm,
    observations: &mut Vec<Observation>,
    var_indexes: &[usize],
    var_names: &[String],
    cfg: &StatesConfig,
    source: &mut dyn ObservationSource,
    ctx: &mut crate::pipeline::PipelineCtx,
) -> Result<StatesResult, CoreError> {
    let search = determine_states_inner(
        algorithm,
        observations,
        var_indexes,
        cfg,
        source,
        &mut ctx.telemetry,
    )?;
    let model = fit_cost_model(
        ModelForm::for_states(&search.states),
        search.states,
        var_indexes.to_vec(),
        var_names.to_vec(),
        observations,
    )?;
    Ok(StatesResult {
        model,
        history: search.history,
        merges: search.merges,
    })
}

/// The determination body behind [`determine_states`], for callers that
/// carry their own telemetry handle and need only the partition.
pub(crate) fn determine_states_inner(
    algorithm: StateAlgorithm,
    observations: &mut Vec<Observation>,
    var_indexes: &[usize],
    cfg: &StatesConfig,
    source: &mut dyn ObservationSource,
    tel: &mut Telemetry,
) -> Result<StatesSearch, CoreError> {
    if cfg.max_states == 0 {
        return Err(CoreError::Degenerate("max_states must be >= 1".into()));
    }
    // Probe costs are sorted and clustered, and the fits sum squares: a
    // non-finite or overflowing sample is a typed error, not a panic in a
    // comparator or a model with non-finite coefficients.
    check_values(observations, var_indexes.iter().max().map_or(0, |&j| j + 1))?;

    // Every observation is accumulated once, in probing-cost order, so each
    // candidate partition is fitted from prefix differences without
    // rescanning the sample. Brought up to date only when
    // `populate_or_merge` draws extra observations
    // (`fit.gram.prefix_builds` counts the build and those updates). Its
    // prefix total is the sample's second moments, so the overflow check
    // reads them there instead of accumulating them again.
    let mut cache = GramCache::build(observations, var_indexes, tel)?;
    check_moments(&cache.total()?)?;

    // One solver workspace serves every candidate fit of the search.
    let mut ws = GramWorkspace::default();
    let p = var_indexes.len();

    // Phase 1, m = 1: the static special case (fit errors propagate — an
    // unusable sample aborts the derivation).
    let single = StateSet::single();
    let mut best = Candidate::fit(cache.blocks(&single)?, single, p, &mut ws, tel)?;
    let mut history = vec![IterationStats {
        states: 1,
        r_squared: best.r_squared,
        see: best.see,
    }];

    let (c_min, c_max) = probe_range(observations)?;
    let degenerate_range = c_max <= c_min;
    let mut flat_steps = 0usize;
    // ICMA's agglomeration of the current sample: one pass over the
    // cache's sorted probes records every level up to `max_states`,
    // rebuilt only when `populate_or_merge` draws extra observations.
    let mut cluster_path: Option<Vec<Vec<Cluster1D>>> = None;

    for m in 2..=cfg.max_states {
        if degenerate_range {
            break; // A constant probing cost admits only one state.
        }
        tel.inc("states.partition_iterations", 1);
        let proposed = match algorithm {
            StateAlgorithm::Iupma => StateSet::uniform(c_min, c_max, m)?,
            StateAlgorithm::Icma => {
                let path = cluster_path
                    .get_or_insert_with(|| cluster_path_1d(&cache.probes, cfg.max_states));
                StateSet::from_clusters(&path[m - 1])?
            }
        };
        if proposed.len() < m && proposed.len() <= best.num_states() {
            tel.inc("states.collapsed_proposals", 1);
            continue; // Clustering could not produce more states.
        }
        let before = observations.len();
        let states = populate_or_merge(proposed, observations, var_indexes.len(), source, tel);
        if observations.len() != before {
            // Targeted resampling appended observations — the prefix sums
            // and the cluster path are stale; bring them up to date once
            // for this (and later) proposals.
            cluster_path = None;
            cache.extend(observations, var_indexes, before, tel)?;
        }
        if states.len() <= history.last().map_or(1, |h| h.states)
            && states.len() <= best.num_states()
        {
            tel.inc("states.collapsed_proposals", 1);
            continue; // Thin-state merging collapsed the proposal.
        }
        // A rank-deficient fit means some state's observations are
        // collinear in the variables even though populate_or_merge gave it
        // enough of them *by count* — this particular partition is simply
        // not viable, the same situation as a collapsed proposal above, so
        // it is skipped rather than aborting the whole derivation. Other
        // numeric failures still propagate.
        let candidate = match Candidate::fit(cache.blocks(&states)?, states, p, &mut ws, tel) {
            Ok(candidate) => candidate,
            Err(CoreError::Numeric(mdbs_stats::StatsError::Singular)) => {
                tel.inc("states.rank_deficient_skipped", 1);
                continue;
            }
            Err(e) => return Err(e),
        };
        history.push(IterationStats {
            states: candidate.num_states(),
            r_squared: candidate.r_squared,
            see: candidate.see,
        });
        let r2_gain = candidate.r_squared - best.r_squared;
        let see_gain = (best.see - candidate.see) / best.see.max(f64::MIN_POSITIVE);
        if r2_gain < cfg.min_r2_gain && see_gain < cfg.min_see_gain {
            // Not improving sufficiently (Algorithm 3.1 l. 13) — but give
            // the refinement a little patience before giving up.
            flat_steps += 1;
            if flat_steps >= PATIENCE {
                break;
            }
        } else {
            flat_steps = 0;
            best = candidate;
        }
    }

    // Phase 2: merging adjustment. The two adjacent states' accumulator
    // blocks are combined (`+=`) and re-solved in O(k³); fit errors
    // propagate.
    let mut merges = 0;
    while let Some(i) = first_merge_candidate(&best.coefficients) {
        let merged_states = best.states.merge_with_next(i)?;
        let mut blocks = best.blocks;
        let right = blocks.remove(i + 1);
        blocks[i] += &right;
        best = Candidate::fit(blocks, merged_states, p, &mut ws, tel)?;
        merges += 1;
        tel.inc("states.merges", 1);
    }

    // The search ends with the partition: whoever publishes a model fits
    // it once, from the observations (`fit_cost_model`).
    Ok(StatesSearch {
        states: best.states,
        history,
        merges,
    })
}

/// One scored candidate partition during the search, with its per-state
/// accumulator blocks, so phase 2 can merge them.
struct Candidate {
    states: StateSet,
    r_squared: f64,
    see: f64,
    /// Adjusted per-state coefficients (phase 2 compares these).
    coefficients: Vec<Vec<f64>>,
    blocks: Vec<GramAccumulator>,
}

impl Candidate {
    /// Scores the partition `states` of the `p` search variables from its
    /// per-state blocks.
    fn fit(
        blocks: Vec<GramAccumulator>,
        states: StateSet,
        p: usize,
        ws: &mut GramWorkspace,
        tel: &mut Telemetry,
    ) -> Result<Candidate, CoreError> {
        let form = ModelForm::for_states(&states);
        let pooled_n: usize = blocks.iter().map(|b| b.n()).sum();
        let gram = fit_gram_from_blocks(form, p, &blocks, ws)?;
        tel.inc("fit.gram.solves", 1);
        if gram.solved_by_cholesky {
            tel.inc("fit.gram.cholesky", 1);
        } else {
            tel.inc("fit.gram.qr_fallback", 1);
        }
        tel.inc("fit.gram.rescans_avoided", pooled_n as u64);
        Ok(Candidate {
            coefficients: adjusted_coefficients(form, states.len(), p, &gram.coefficients),
            states,
            r_squared: gram.r_squared,
            see: gram.see,
            blocks,
        })
    }

    fn num_states(&self) -> usize {
        self.states.len()
    }
}

/// The search's per-derivation cache: every observation accumulated
/// once in probing-cost order, as prefix sums, so any contiguous partition
/// (uniform IUPMA slice, ICMA cluster cut, or phase-2 merge) is fitted by
/// prefix difference.
struct GramCache {
    /// Probing costs ascending (ties broken by original index, so the
    /// accumulation order — and hence every rounding — is deterministic).
    probes: Vec<f64>,
    /// The observation index at each position of `probes`.
    indexes: Vec<usize>,
    prefix: GramPrefix,
}

/// The cache's order: probing cost, then observation index, which makes
/// it total.
fn probe_order(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

impl GramCache {
    fn build(
        observations: &[Observation],
        var_indexes: &[usize],
        tel: &mut Telemetry,
    ) -> Result<GramCache, CoreError> {
        let n = observations.len();
        let mut cache = GramCache {
            probes: Vec::with_capacity(n),
            indexes: Vec::with_capacity(n),
            prefix: GramPrefix::with_capacity(var_indexes.len() + 1, n),
        };
        cache.extend(observations, var_indexes, 0, tel)?;
        Ok(cache)
    }

    /// Brings the cache up to date after `observations[first_new..]` were
    /// appended: merges them into the order and recomputes the prefix sums
    /// from the first position one of them takes. The slots before it sum
    /// the same rows in the same order, so they are kept as they are.
    fn extend(
        &mut self,
        observations: &[Observation],
        var_indexes: &[usize],
        first_new: usize,
        tel: &mut Telemetry,
    ) -> Result<(), CoreError> {
        // (probing cost, index) pairs sort without an indirection per
        // comparison.
        let mut fresh: Vec<(f64, usize)> = observations
            .iter()
            .enumerate()
            .skip(first_new)
            .map(|(i, o)| (o.probe_cost, i))
            .collect();
        fresh.sort_unstable_by(probe_order);
        // Every kept index is below every fresh one, so on a tie in
        // probing cost the kept observation comes first.
        let start = fresh.first().map_or(self.probes.len(), |&(first, _)| {
            self.probes
                .partition_point(|&p| p.partial_cmp(&first) != Some(std::cmp::Ordering::Greater))
        });
        let kept: Vec<(f64, usize)> = self.probes[start..]
            .iter()
            .copied()
            .zip(self.indexes[start..].iter().copied())
            .collect();
        self.probes.truncate(start);
        self.indexes.truncate(start);
        self.prefix.truncate(start);
        let (mut kept, mut fresh) = (kept.into_iter().peekable(), fresh.into_iter().peekable());
        let mut z = Vec::with_capacity(var_indexes.len() + 1);
        loop {
            let next = match (kept.peek(), fresh.peek()) {
                (Some(k), Some(f)) if probe_order(k, f).is_lt() => kept.next(),
                (_, Some(_)) => fresh.next(),
                (Some(_), None) => kept.next(),
                (None, None) => break,
            };
            let (probe, i) = next.expect("peeked");
            let o = &observations[i];
            z.clear();
            z.push(1.0);
            z.extend(var_indexes.iter().map(|&j| o.x[j]));
            self.prefix.push(&z, o.cost).map_err(CoreError::Numeric)?;
            self.probes.push(probe);
            self.indexes.push(i);
        }
        tel.inc("fit.gram.prefix_builds", 1);
        Ok(())
    }

    /// The sufficient statistics of the whole sample.
    fn total(&self) -> Result<GramAccumulator, CoreError> {
        self.prefix
            .range(0, self.prefix.len())
            .map_err(CoreError::Numeric)
    }

    /// Per-state sufficient-statistics blocks of a partition: because the
    /// probes are sorted and `StateSet::state_of` is monotone, each state
    /// covers a contiguous index range found by binary search.
    fn blocks(&self, states: &StateSet) -> Result<Vec<GramAccumulator>, CoreError> {
        let m = states.len();
        let mut bounds = Vec::with_capacity(m + 1);
        bounds.push(0);
        for s in 0..m.saturating_sub(1) {
            bounds.push(self.probes.partition_point(|&pc| states.state_of(pc) <= s));
        }
        bounds.push(self.probes.len());
        (0..m)
            .map(|s| {
                self.prefix
                    .range(bounds[s], bounds[s + 1])
                    .map_err(CoreError::Numeric)
            })
            .collect()
    }
}

/// The observed probing-cost range `[Cmin, Cmax]`.
fn probe_range(observations: &[Observation]) -> Result<(f64, f64), CoreError> {
    if observations.is_empty() {
        return Err(CoreError::InsufficientSamples { needed: 1, got: 0 });
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for o in observations {
        lo = lo.min(o.probe_cost);
        hi = hi.max(o.probe_cost);
    }
    Ok((lo, hi))
}

/// Ensures every state holds enough observations: first asks the source for
/// targeted extra samples (paper: "we draw additional sample data points …
/// rather than simply treat the data points in the cluster as outliers"),
/// then merges states that remain thin into a neighbor.
fn populate_or_merge(
    mut states: StateSet,
    observations: &mut Vec<Observation>,
    p: usize,
    source: &mut dyn ObservationSource,
    tel: &mut Telemetry,
) -> StateSet {
    let need = min_obs_per_state(p);
    loop {
        let counts = counts_per_state(&states, observations);
        let Some(thin) = counts.iter().position(|&c| c < need) else {
            return states;
        };
        // Try to fill the thin state with targeted samples.
        let (lo, hi) = states.bounds(thin);
        let missing = need - counts[thin];
        let mut drawn = 0;
        for _ in 0..missing {
            // A draw outside `[lo, hi)` ends the state's draws as `None`
            // does: it would fill another state, and a source that kept
            // answering out of range would never stop.
            match source.draw_in_range(lo, hi) {
                Some(obs) if (lo..hi).contains(&obs.probe_cost) => {
                    observations.push(obs);
                    drawn += 1;
                    tel.inc("states.resample_draws", 1);
                }
                _ => break,
            }
        }
        if drawn == missing {
            continue; // Filled; re-check all states.
        }
        // Could not fill: merge the thin state with a neighbor.
        if states.len() == 1 {
            return states;
        }
        let merge_at = if thin == states.len() - 1 {
            thin - 1
        } else {
            thin
        };
        tel.inc("states.thin_state_merges", 1);
        states = states
            .merge_with_next(merge_at)
            .expect("merge index verified in range");
    }
}

/// Finds the first adjacent pair of states whose adjusted coefficients are
/// so close that separating them is unnecessary (Algorithm 3.1 l. 17–21).
fn first_merge_candidate(coefficients: &[Vec<f64>]) -> Option<usize> {
    let m = coefficients.len();
    (0..m.saturating_sub(1)).find(|&i| {
        max_relative_coef_error(&coefficients[i], &coefficients[i + 1]) < MERGE_THRESHOLD
    })
}

/// `max_j |a_j − b_j| / max(|a_j|, |b_j|)` over the coefficient vectors.
fn max_relative_coef_error(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let scale = x.abs().max(y.abs());
            if scale <= f64::MIN_POSITIVE {
                0.0
            } else {
                (x - y).abs() / scale
            }
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineCtx;

    /// Ground truth with `k` genuinely different contention regimes spread
    /// uniformly over probe costs 0..10.
    fn regime_observations(regimes: usize, per_regime: usize) -> Vec<Observation> {
        let mut obs = Vec::new();
        for r in 0..regimes {
            for i in 0..per_regime {
                let x = (i % 25) as f64 * 4.0;
                let factor = (r + 1) as f64;
                // Probe cost spread *within* the regime's band.
                let probe =
                    10.0 * (r as f64 + (i as f64 + 0.5) / per_regime as f64) / regimes as f64;
                obs.push(Observation {
                    x: vec![x],
                    cost: factor * (2.0 + 3.0 * x) + (i % 5) as f64 * 0.1,
                    probe_cost: probe,
                });
            }
        }
        obs
    }

    #[test]
    fn iupma_finds_multiple_states_for_multi_regime_data() {
        let mut obs = regime_observations(4, 60);
        let result = determine_states(
            StateAlgorithm::Iupma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert!(
            result.model.num_states() >= 3,
            "{}",
            result.model.num_states()
        );
        assert!(result.model.fit.r_squared > 0.98);
        // Phase-1 history starts at the static case.
        assert_eq!(result.history[0].states, 1);
        assert!(result.history[0].r_squared < result.model.fit.r_squared);
    }

    /// Extending the cache with appended observations — ties in probing
    /// cost with kept ones, new minima and maxima, one at a time or
    /// several — leaves it as a fresh build over the grown sample: the
    /// same order and prefix sums bit for bit.
    #[test]
    fn extended_cache_equals_a_fresh_build() {
        let bits = |cache: &GramCache| -> Vec<u64> {
            let mut v: Vec<u64> = cache.probes.iter().map(|p| p.to_bits()).collect();
            v.extend(cache.indexes.iter().map(|&i| i as u64));
            for b in 0..=cache.prefix.len() {
                let acc = cache.prefix.range(0, b).unwrap();
                v.extend(acc.xtx().iter().chain(acc.xty()).map(|x| x.to_bits()));
                v.extend([acc.yty().to_bits(), acc.sum_y().to_bits()]);
            }
            v
        };
        let mut obs = regime_observations(3, 40);
        let extra = |probe: f64, i: usize| Observation {
            x: vec![(i % 7) as f64 * 3.0],
            cost: 2.0 + probe * (i % 7) as f64,
            probe_cost: probe,
        };
        let mut tel = Telemetry::disabled();
        let mut cache = GramCache::build(&obs, &[0], &mut tel).unwrap();
        for (i, batch) in [
            vec![obs[17].probe_cost],
            vec![-1.0, 4.2, obs[60].probe_cost, 11.0],
            vec![obs[0].probe_cost, obs[0].probe_cost],
            vec![],
            vec![12.5],
        ]
        .into_iter()
        .enumerate()
        {
            let before = obs.len();
            obs.extend(batch.iter().map(|&p| extra(p, i)));
            cache.extend(&obs, &[0], before, &mut tel).unwrap();
            let fresh = GramCache::build(&obs, &[0], &mut tel).unwrap();
            assert_eq!(bits(&cache), bits(&fresh), "batch {i}");
        }
    }

    /// A NaN, ±∞ or ±1e200 at observation 17 of 200 — in the cost, the
    /// variable or the probe cost, for either algorithm — is a typed error
    /// or a finite model, never a panic (a NaN probe cost broke the Gram
    /// cache's sort) and never an `Ok` model with non-finite coefficients
    /// (a non-finite or overflowing cost or variable did). Only a huge but
    /// finite probe cost may still fit.
    #[test]
    fn non_finite_or_overflowing_samples_are_typed_errors() {
        type Field = fn(&mut Observation) -> &mut f64;
        let fields: [(&str, Field); 3] = [
            ("cost", |o| &mut o.cost),
            ("x[0]", |o| &mut o.x[0]),
            ("probe_cost", |o| &mut o.probe_cost),
        ];
        let mut cases = 0;
        for algorithm in [StateAlgorithm::Iupma, StateAlgorithm::Icma] {
            for (name, field) in fields {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200, -1e200] {
                    let at = format!("{algorithm:?} {name}={bad}");
                    let mut obs = regime_observations(4, 50);
                    *field(&mut obs[17]) = bad;
                    let result = std::panic::catch_unwind(move || {
                        determine_states(
                            algorithm,
                            &mut obs,
                            &[0],
                            &["x".to_string()],
                            &StatesConfig::default(),
                            &mut NoResampling,
                            &mut PipelineCtx::default(),
                        )
                    })
                    .unwrap_or_else(|_| panic!("{at}: determine_states panicked"));
                    match result {
                        Err(CoreError::Degenerate(msg)) if !bad.is_finite() => {
                            assert!(msg.contains("observation 17"), "{at}: {msg}")
                        }
                        Err(CoreError::Degenerate(msg)) => {
                            assert!(msg.contains("overflow"), "{at}: {msg}")
                        }
                        Ok(r) if bad.is_finite() && name == "probe_cost" => {
                            let fit = &r.model.fit;
                            assert!(
                                r.model.coefficients.iter().flatten().all(|c| c.is_finite())
                                    && fit.r_squared.is_finite()
                                    && fit.see.is_finite(),
                                "{at}: non-finite model {:?}",
                                r.model
                            );
                        }
                        other => panic!("{at}: expected a typed error, got {other:?}"),
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 30);
    }

    #[test]
    fn single_regime_data_stays_single_state() {
        // Cost independent of probe cost -> extra states buy ~nothing.
        let mut obs: Vec<Observation> = (0..200)
            .map(|i| Observation {
                x: vec![(i % 25) as f64],
                cost: 5.0 + 2.0 * (i % 25) as f64 + (i % 7) as f64 * 0.05,
                probe_cost: (i % 100) as f64 / 10.0,
            })
            .collect();
        let result = determine_states(
            StateAlgorithm::Iupma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )
        .unwrap();
        // Either phase 1 stops immediately or phase 2 merges everything back.
        assert!(result.model.num_states() <= 2);
    }

    #[test]
    fn merging_adjustment_collapses_identical_neighbors() {
        // Two true regimes; ask phase 1 not to stop early by giving a tiny
        // threshold, then verify phase 2 merged superfluous states.
        let mut obs = regime_observations(2, 120);
        let cfg = StatesConfig {
            max_states: 6,
            min_r2_gain: -1.0, // Force phase 1 to keep splitting.
            min_see_gain: -1.0,
        };
        let result = determine_states(
            StateAlgorithm::Iupma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &cfg,
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert!(result.merges > 0, "expected phase 2 to merge some states");
        assert!(result.model.num_states() <= 4);
        assert!(result.model.fit.r_squared > 0.95);
    }

    #[test]
    fn icma_matches_clustered_probe_distribution() {
        // Probe costs cluster at 1, 5 and 9 with distinct cost regimes.
        let mut obs = Vec::new();
        for (ci, center) in [1.0, 5.0, 9.0].iter().enumerate() {
            for i in 0..80 {
                let x = (i % 20) as f64 * 5.0;
                let factor = (ci + 1) as f64 * 1.8;
                obs.push(Observation {
                    x: vec![x],
                    cost: factor * (1.0 + 2.0 * x),
                    probe_cost: center + ((i % 9) as f64 - 4.0) * 0.05,
                });
            }
        }
        let result = determine_states(
            StateAlgorithm::Icma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert_eq!(result.model.num_states(), 3);
        // The cluster-induced boundaries should split at the gaps.
        let edges = result.model.states.edges();
        assert!(edges[1] > 1.5 && edges[1] < 4.5, "{edges:?}");
        assert!(edges[2] > 5.5 && edges[2] < 8.5, "{edges:?}");
        assert!(result.model.fit.r_squared > 0.999);
    }

    #[test]
    fn thin_states_trigger_the_source() {
        // Uniform data but with a hole in (5, 7.5]; the source fills it.
        let mut obs: Vec<Observation> = Vec::new();
        for i in 0..160 {
            let probe = (i % 100) as f64 / 10.0;
            if (5.0..7.5).contains(&probe) {
                continue;
            }
            let factor = 1.0 + probe / 2.0;
            obs.push(Observation {
                x: vec![(i % 25) as f64],
                cost: factor * (1.0 + (i % 25) as f64),
                probe_cost: probe,
            });
        }
        struct Filler {
            draws: usize,
        }
        impl ObservationSource for Filler {
            fn draw_in_range(&mut self, lo: f64, hi: f64) -> Option<Observation> {
                self.draws += 1;
                let probe = 0.5 * (lo + hi);
                let x = (self.draws % 25) as f64;
                Some(Observation {
                    x: vec![x],
                    cost: (1.0 + probe / 2.0) * (1.0 + x),
                    probe_cost: probe,
                })
            }
        }
        let mut source = Filler { draws: 0 };
        let before = obs.len();
        let result = determine_states(
            StateAlgorithm::Iupma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut source,
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert!(source.draws > 0, "hole never triggered resampling");
        assert!(obs.len() > before);
        assert!(result.model.fit.r_squared > 0.9);
    }

    /// A source that answers every targeted draw with a probe cost outside
    /// the requested band is treated as one that answers nothing: no draw
    /// is appended (an appended draw filled another state, and a source
    /// that never says `None` kept the loop drawing forever), and the
    /// search ends as it does under `NoResampling`.
    #[test]
    fn out_of_band_draws_end_the_resampling() {
        // Uniform data with a hole in [5, 7.5): a middle state runs thin.
        let sample = || -> Vec<Observation> {
            (0..160)
                .filter_map(|i| {
                    let probe = (i % 100) as f64 / 10.0;
                    let x = (i % 25) as f64;
                    (!(5.0..7.5).contains(&probe)).then(|| Observation {
                        x: vec![x],
                        cost: (1.0 + probe / 2.0) * (1.0 + x),
                        probe_cost: probe,
                    })
                })
                .collect()
        };
        struct Stray {
            draws: usize,
        }
        impl ObservationSource for Stray {
            fn draw_in_range(&mut self, _lo: f64, hi: f64) -> Option<Observation> {
                self.draws += 1;
                Some(Observation {
                    x: vec![1.0],
                    cost: 1.0,
                    probe_cost: hi + 100.0,
                })
            }
        }
        let run = |source: &mut dyn ObservationSource| {
            let mut obs = sample();
            let result = determine_states(
                StateAlgorithm::Iupma,
                &mut obs,
                &[0],
                &["x".to_string()],
                &StatesConfig::default(),
                source,
                &mut PipelineCtx::default(),
            )
            .unwrap();
            (result, obs)
        };
        let mut stray = Stray { draws: 0 };
        let (got, got_obs) = run(&mut stray);
        let (want, want_obs) = run(&mut NoResampling);
        assert!(stray.draws > 0, "the hole never asked the source");
        assert_eq!(got_obs, want_obs);
        assert_eq!(got.model, want.model);
        assert_eq!(got.history, want.history);
        assert_eq!(got.merges, want.merges);
    }

    #[test]
    fn degenerate_probe_range_yields_single_state() {
        let mut obs: Vec<Observation> = (0..50)
            .map(|i| Observation {
                x: vec![i as f64],
                cost: 1.0 + 2.0 * i as f64,
                probe_cost: 3.0,
            })
            .collect();
        let result = determine_states(
            StateAlgorithm::Iupma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert_eq!(result.model.num_states(), 1);
    }

    #[test]
    fn rank_deficient_partition_proposals_are_skipped_not_fatal() {
        // In the upper half of the probe range the regressor is constant,
        // so any partition that isolates that band produces a state whose
        // design (intercept + x) is collinear. The proposal must be
        // skipped; the derivation itself must still succeed.
        let mut obs: Vec<Observation> = (0..120)
            .map(|i| {
                let probe = i as f64 / 12.0;
                let x = if probe >= 5.0 { 7.0 } else { (i % 25) as f64 };
                Observation {
                    x: vec![x],
                    cost: 1.0 + 2.0 * x + probe * 0.01,
                    probe_cost: probe,
                }
            })
            .collect();
        let result = determine_states(
            StateAlgorithm::Iupma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )
        .expect("singular proposals must not abort determination");
        assert_eq!(result.model.num_states(), 1);
    }

    #[test]
    fn rank_deficient_skips_are_counted_without_changing_the_result() {
        let make_obs = || -> Vec<Observation> {
            (0..120)
                .map(|i| {
                    let probe = i as f64 / 12.0;
                    let x = if probe >= 5.0 { 7.0 } else { (i % 25) as f64 };
                    Observation {
                        x: vec![x],
                        cost: 1.0 + 2.0 * x + probe * 0.01,
                        probe_cost: probe,
                    }
                })
                .collect()
        };
        let mut plain_obs = make_obs();
        let plain = determine_states(
            StateAlgorithm::Iupma,
            &mut plain_obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )
        .unwrap();
        let mut traced_obs = make_obs();
        let mut ctx = PipelineCtx::traced(0);
        let traced = determine_states(
            StateAlgorithm::Iupma,
            &mut traced_obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut NoResampling,
            &mut ctx,
        )
        .unwrap();
        let tel = &ctx.telemetry;
        assert!(
            tel.metrics.counter("states.rank_deficient_skipped") >= 1,
            "the collinear upper band must trigger at least one skip"
        );
        assert!(tel.metrics.counter("states.partition_iterations") >= 1);
        // Telemetry is observation-only: identical outcome either way.
        assert_eq!(traced.model.num_states(), plain.model.num_states());
        assert_eq!(traced.model.fit.r_squared, plain.model.fit.r_squared);
        assert_eq!(traced.model.coefficients, plain.model.coefficients);
        assert_eq!(traced.merges, plain.merges);
        assert_eq!(traced_obs, plain_obs);
    }

    #[test]
    fn empty_observations_error() {
        let mut obs = Vec::new();
        assert!(determine_states(
            StateAlgorithm::Iupma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &StatesConfig::default(),
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )
        .is_err());
    }

    #[test]
    fn relative_error_helper() {
        assert_eq!(max_relative_coef_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((max_relative_coef_error(&[1.0, 2.0], &[1.0, 3.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(max_relative_coef_error(&[0.0], &[0.0]), 0.0);
    }
}
