//! Mixed backward/forward variable selection (paper §4.2) with
//! multicollinearity screening (§4.3).
//!
//! The candidate explanatory variables of a class family split into a
//! **basic** set `B` and a **secondary** set `S` (Table 3). Selection
//! proceeds as in the paper:
//!
//! 1. Any variable whose *maximum* simple correlation with the response
//!    over all contention states is too small "has little linear
//!    relationship with the response in any state" and is removed outright.
//! 2. **Backward elimination** starts from the full basic model and
//!    repeatedly removes the variable with the smallest *average* per-state
//!    correlation with the response, as long as doing so improves the
//!    standard error of estimation or barely changes it.
//! 3. **Forward selection** then offers secondary variables: the candidate
//!    with the largest average per-state correlation with the *residuals*
//!    of the current model is added when it significantly improves the SEE.
//! 4. Variables with a large **variance inflation factor** in some state
//!    are excluded to avoid multicollinearity.
//!
//! The VIF is a second-moment statistic, so the observations are
//! accumulated once into a Gram block per state over the full candidate
//! width, and every VIF — the starting screen's, and each forward
//! candidate's own — is read off a column subset of those blocks
//! ([`gram_variance_inflation_factors`]) in O(p³), flat in n. The
//! add/eliminate candidate fits slice the same blocks, and the published
//! model's sufficient statistics
//! ([`Selection::accumulator`]) are its columns of them. The observations
//! are still scanned for the per-state correlations (each state's columns
//! centred once, see [`Centered`]) and the forward step's residuals (group
//! by group), and for the published model's fit (one Householder QR per
//! contention state under the general form, see [`fit_cost_model`]).

use crate::model::{
    adjusted_coefficients, fit_cost_model, fit_gram_from_blocks, min_obs_per_state, CostModel,
    ModelAccumulator, ModelForm,
};
use crate::observation::{check_moments, check_values, Observation};
use crate::qualvar::StateSet;
use crate::variables::VariableFamily;
use crate::CoreError;
use mdbs_obs::Telemetry;
use mdbs_stats::vif::gram_variance_inflation_factors;
use mdbs_stats::Centered;
use mdbs_stats::{GramAccumulator, GramWorkspace};

/// Tuning knobs of the selection procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionConfig {
    /// Relative SEE decrease required before a secondary variable is added
    /// (the paper's δ for the forward condition `(SE − SE_a)/SE > δ`).
    pub forward_min_gain: f64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            forward_min_gain: 0.02,
        }
    }
}

/// Variables whose max-over-states |correlation| with the response is
/// below this are dropped outright, and a forward candidate scoring below
/// it against the residuals ends the forward step.
const MIN_CORR: f64 = 0.05;

/// Relative SEE increase tolerated when removing a basic variable (the
/// paper's ε for the backward condition `(SE_r − SE)/SE < ε`).
const BACKWARD_TOLERANCE: f64 = 0.01;

/// Variance-inflation-factor threshold. Neter et al. suggest 10 for general
/// data, but size-derived cost-model variables (`N_O`, `N_I`, `N_R`, …) are
/// *inherently* correlated — the intermediate and result cardinalities are
/// fractions of the operand cardinality — so this screens only pathological
/// collinearity (exact or near-exact linear dependence) and leaves the
/// moderate kind to the SEE-driven backward/forward steps.
const VIF_THRESHOLD: f64 = 100.0;

/// The outcome of variable selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Indexes of the chosen variables (canonical family order, ascending).
    pub var_indexes: Vec<usize>,
    /// Names aligned with `var_indexes`.
    pub var_names: Vec<String>,
    /// The model fitted on the chosen variables.
    pub model: CostModel,
    /// The model's sufficient statistics: the chosen variables' columns of
    /// the per-state Gram blocks selection accumulated, bit for bit
    /// [`ModelAccumulator::from_observations`] of `model` over the same
    /// observations.
    pub accumulator: ModelAccumulator,
}

/// Runs the full mixed procedure for `family` over `observations`
/// partitioned by `states`, fitting models in the general form (the static
/// method's one equation over a single state).
///
/// When `ctx.telemetry` is enabled, records `selection.*` counters
/// (low-correlation drops, VIF-screened starters, backward eliminations,
/// forward additions, VIF-rejected forward candidates). The `ctx.seed` is
/// unused here — selection is deterministic in its inputs.
pub fn select_variables(
    family: VariableFamily,
    observations: &[Observation],
    states: &StateSet,
    cfg: &SelectionConfig,
    ctx: &mut crate::pipeline::PipelineCtx,
) -> Result<Selection, CoreError> {
    select_variables_inner(family, observations, states, cfg, &mut ctx.telemetry)
}

/// The selection body behind [`select_variables`], for callers that carry
/// their own telemetry handle.
pub(crate) fn select_variables_inner(
    family: VariableFamily,
    observations: &[Observation],
    states: &StateSet,
    cfg: &SelectionConfig,
    tel: &mut Telemetry,
) -> Result<Selection, CoreError> {
    // Correlations, VIFs and fits are only ordered over finite data.
    let all = family.all();
    let width = all.len();
    check_values(observations, width)?;
    let names =
        |idx: &[usize]| -> Vec<String> { idx.iter().map(|&i| all[i].name.to_string()).collect() };
    let moments = StateMoments::new(observations, states, all.len())?;
    // The pooled block is the sample's second moments: the overflow check
    // reads them there.
    check_moments(&moments.pooled)?;
    tel.inc("fit.gram.prefix_builds", 1);
    let groups = group_by_state(states, observations);
    let y_by_state: Vec<Centered> = groups
        .iter()
        .map(|g| Centered::from_vec(g.iter().map(|o| o.cost).collect()))
        .collect();
    let columns = state_columns(&groups, width);
    // Each variable's relevance to the response, scored once: the
    // screens and the backward step rank by it repeatedly.
    let relevance: Vec<f64> = (0..width)
        .map(|j| avg_abs_corr(&columns, &y_by_state, j))
        .collect();

    // Step 1: basic set, pre-filtered by max-over-states correlation.
    let mut current: Vec<usize> = family
        .basic_indexes()
        .into_iter()
        .filter(|&j| max_abs_corr(&columns, &y_by_state, j) >= MIN_CORR)
        .collect();
    if current.is_empty() {
        // Degenerate workload; fall back to the full basic set and let the
        // fit itself report what is wrong.
        current = family.basic_indexes();
    }
    let low_corr_dropped = family.basic_indexes().len() - current.len();
    tel.inc("selection.low_corr_dropped", low_corr_dropped as u64);

    // Step 1b: multicollinearity screen on the starting set. Among a
    // collinear group, the variable least correlated with the response is
    // the one sacrificed.
    let screened = drop_high_vif(&mut current, &moments, |j| relevance[j])?;
    tel.inc("selection.vif_screened", screened as u64);

    let form = ModelForm::for_states(states);
    // One set of column-subset blocks and one solver workspace serve
    // every candidate fit of the search: each slices the per-state blocks
    // (column subset) and solves in O(k³), never rescanning observations.
    let mut sub = vec![GramAccumulator::new(0); moments.blocks.len()];
    let mut ws = GramWorkspace::default();
    let mut fit = |idx: &[usize], tel: &mut Telemetry| -> Result<Scored, CoreError> {
        let cols = StateMoments::columns(idx);
        for (block, out) in moments.blocks.iter().zip(&mut sub) {
            block.subset_into(&cols, out).map_err(CoreError::Numeric)?;
        }
        let pooled_n: usize = sub.iter().map(|b| b.n()).sum();
        let gram = fit_gram_from_blocks(form, idx.len(), &sub, &mut ws)?;
        tel.inc("fit.gram.solves", 1);
        if gram.solved_by_cholesky {
            tel.inc("fit.gram.cholesky", 1);
        } else {
            tel.inc("fit.gram.qr_fallback", 1);
        }
        tel.inc("fit.gram.rescans_avoided", pooled_n as u64);
        Ok(Scored {
            see: gram.see,
            coefficients: adjusted_coefficients(form, states.len(), idx.len(), &gram.coefficients),
        })
    };

    let mut model = fit(&current, tel)?;

    // Step 2: backward elimination over the basic variables.
    while current.len() > 1 {
        // Candidate: smallest average per-state |corr| with the response.
        let &cand = current
            .iter()
            .min_by(|&&a, &&b| {
                relevance[a]
                    .partial_cmp(&relevance[b])
                    .expect("correlations are finite")
            })
            .expect("non-empty set");
        let reduced: Vec<usize> = current.iter().copied().filter(|&i| i != cand).collect();
        match fit(&reduced, tel) {
            Ok(reduced_model) => {
                let see = model.see.max(f64::MIN_POSITIVE);
                let delta = (reduced_model.see - model.see) / see;
                if delta < BACKWARD_TOLERANCE {
                    current = reduced;
                    model = reduced_model;
                    tel.inc("selection.vars_eliminated", 1);
                } else {
                    break;
                }
            }
            // A singular reduced fit means the candidate was load-bearing
            // only through collinearity; keep the current model.
            Err(_) => break,
        }
    }

    // Step 3: forward selection over the secondary variables.
    let mut pool: Vec<usize> = family.secondary_indexes();
    while !pool.is_empty() {
        // Residuals group by group: each group's state is known, so no
        // observation is looked up again.
        let residuals_by_state: Vec<Centered> = groups
            .iter()
            .enumerate()
            .map(|(s, g)| {
                Centered::from_vec(
                    g.iter()
                        .map(|o| o.cost - model.estimate_in_state(s, &current, o))
                        .collect(),
                )
            })
            .collect();
        // Candidate: largest average per-state |corr| with the residuals.
        let scores: Vec<f64> = pool
            .iter()
            .map(|&j| avg_abs_corr(&columns, &residuals_by_state, j))
            .collect();
        let (pos, &cand) = pool
            .iter()
            .enumerate()
            .max_by(|(a, _), (b, _)| {
                scores[*a]
                    .partial_cmp(&scores[*b])
                    .expect("correlations are finite")
            })
            .expect("non-empty pool");
        let score = scores[pos];
        pool.swap_remove(pos);
        if score < MIN_CORR {
            break; // Nothing left that explains the residuals.
        }
        let mut augmented = current.clone();
        augmented.push(cand);
        augmented.sort_unstable();
        // Reject candidates that would introduce multicollinearity.
        if exceeds_vif(&augmented, cand, &moments)? {
            tel.inc("selection.vif_rejections", 1);
            continue;
        }
        let Ok(aug_model) = fit(&augmented, tel) else {
            continue; // Singular with this candidate; try the next one.
        };
        let see = model.see.max(f64::MIN_POSITIVE);
        let gain = (model.see - aug_model.see) / see;
        if aug_model.see < model.see && gain > cfg.forward_min_gain {
            current = augmented;
            model = aug_model;
            tel.inc("selection.vars_added", 1);
        }
    }

    // The published model is fitted from the observations by
    // `fit_cost_model` (one QR per contention state under the general
    // form); the Gram blocks only scored the candidates.
    let model = fit_cost_model(
        form,
        states.clone(),
        current.clone(),
        names(&current),
        observations,
    )?;
    let accumulator = moments.accumulator(&model)?;

    Ok(Selection {
        var_names: names(&current),
        var_indexes: current,
        model,
        accumulator,
    })
}

/// A scored candidate variable set: the SEE that drives the search and the
/// adjusted per-state coefficients (for residual computation in the
/// forward step).
struct Scored {
    see: f64,
    coefficients: Vec<Vec<f64>>,
}

impl Scored {
    /// Predicts the cost of an observation of contention state `s` — the
    /// same arithmetic as [`CostModel::estimate_in_state`], evaluated from
    /// the adjusted coefficients without materializing a model.
    fn estimate_in_state(&self, s: usize, var_indexes: &[usize], o: &Observation) -> f64 {
        let b = &self.coefficients[s.min(self.coefficients.len() - 1)];
        let mut y = b[0];
        for (j, &vi) in var_indexes.iter().enumerate() {
            y += b[j + 1] * o.x[vi];
        }
        y
    }
}

/// The second moments of one selection's observations: a Gram block per
/// contention state over the row `[1, x_0..x_{width-1}]` (the full
/// candidate width), and their pooled sum. Every VIF and every candidate
/// fit of the search is a column subset of these, so the observations are
/// accumulated exactly once.
struct StateMoments {
    blocks: Vec<GramAccumulator>,
    pooled: GramAccumulator,
}

impl StateMoments {
    /// Accumulates `observations` by state. Callers pass a sample that
    /// [`check_values`] accepted (every value finite, every row wide
    /// enough) and then run [`check_moments`] on `pooled`, so no `inf` or
    /// `NaN` moment reaches a comparison.
    fn new(
        observations: &[Observation],
        states: &StateSet,
        width: usize,
    ) -> Result<StateMoments, CoreError> {
        let mut blocks = vec![GramAccumulator::new(width + 1); states.len()];
        let mut z = Vec::with_capacity(width + 1);
        for o in observations {
            z.clear();
            z.push(1.0);
            z.extend_from_slice(&o.x[..width]);
            blocks[states.state_of(o.probe_cost)]
                .add_row_upper(&z, o.cost)
                .map_err(CoreError::Numeric)?;
        }
        let mut pooled = GramAccumulator::new(width + 1);
        for b in &mut blocks {
            b.mirror_upper();
            pooled.merge(b).map_err(CoreError::Numeric)?;
        }
        Ok(StateMoments { blocks, pooled })
    }

    /// Block columns of the variables `vars`: the intercept, then each
    /// variable shifted past it.
    fn columns(vars: &[usize]) -> Vec<usize> {
        std::iter::once(0)
            .chain(vars.iter().map(|&j| j + 1))
            .collect()
    }

    /// The published model's sufficient statistics: its variables'
    /// columns of every state block. Each block entry accumulated its own
    /// products in observation order, so this is bit for bit
    /// [`ModelAccumulator::from_observations`] over the same sample.
    fn accumulator(&self, model: &CostModel) -> Result<ModelAccumulator, CoreError> {
        let cols = StateMoments::columns(&model.var_indexes);
        let blocks = self
            .blocks
            .iter()
            .map(|b| b.subset(&cols))
            .collect::<Result<_, _>>()
            .map_err(CoreError::Numeric)?;
        ModelAccumulator::from_parts(
            model.form,
            model.states.clone(),
            model.var_indexes.clone(),
            model.var_names.clone(),
            blocks,
        )
    }

    /// VIFs of the variables `vars[positions]`, computed within every
    /// sufficiently populated state (paper §4.3: `VIF_j^{(i)}`) and
    /// aggregated as the maximum over states; the pooled block is the
    /// fallback when no state is big enough.
    fn max_vif(&self, vars: &[usize], positions: &[usize]) -> Result<Vec<f64>, CoreError> {
        let p = vars.len();
        let need = (min_obs_per_state(p)).max(p + 2);
        let cols = StateMoments::columns(vars);
        let mut agg = vec![0.0f64; positions.len()];
        let mut measured = false;
        for block in self.blocks.iter().filter(|b| b.n() >= need) {
            let vifs = gram_variance_inflation_factors(&block.subset(&cols)?, positions)?;
            for (a, v) in agg.iter_mut().zip(vifs) {
                *a = a.max(v);
            }
            measured = true;
        }
        if !measured {
            agg = gram_variance_inflation_factors(&self.pooled.subset(&cols)?, positions)?;
        }
        Ok(agg)
    }
}

/// Splits observations into per-state groups.
fn group_by_state<'a>(
    states: &StateSet,
    observations: &'a [Observation],
) -> Vec<Vec<&'a Observation>> {
    let mut groups: Vec<Vec<&Observation>> = vec![Vec::new(); states.len()];
    for o in observations {
        groups[states.state_of(o.probe_cost)].push(o);
    }
    groups
}

/// Every candidate variable's values within each state, gathered and
/// centred once: `columns[s][j]` is variable `j` over state `s`'s
/// observations, in observation order.
fn state_columns(groups: &[Vec<&Observation>], width: usize) -> Vec<Vec<Centered>> {
    groups
        .iter()
        .map(|g| {
            (0..width)
                .map(|j| Centered::from_vec(g.iter().map(|o| o.x[j]).collect()))
                .collect()
        })
        .collect()
}

/// |Pearson correlation| between variable `j` and a per-state target,
/// aggregated as the maximum over states (ignoring states that are too
/// small to measure).
fn max_abs_corr(columns: &[Vec<Centered>], target: &[Centered], j: usize) -> f64 {
    per_state_corrs(columns, target, j).fold(0.0, f64::max)
}

/// Same, aggregated as the average over measurable states.
fn avg_abs_corr(columns: &[Vec<Centered>], target: &[Centered], j: usize) -> f64 {
    let mut measured = 0;
    let sum: f64 = per_state_corrs(columns, target, j)
        .inspect(|_| measured += 1)
        .sum();
    if measured == 0 {
        0.0
    } else {
        sum / measured as f64
    }
}

fn per_state_corrs<'a>(
    columns: &'a [Vec<Centered>],
    target: &'a [Centered],
    j: usize,
) -> impl Iterator<Item = f64> + 'a {
    columns
        .iter()
        .zip(target)
        .filter(|(_, t)| t.len() >= 3)
        .map(move |(cols, t)| cols[j].correlation(t).abs())
}

/// While any variable's VIF exceeds [`VIF_THRESHOLD`], removes — among
/// those over it — the one contributing least to explaining the
/// response (`relevance`), preserving the strongest predictors. Returns the
/// number of variables removed.
fn drop_high_vif(
    current: &mut Vec<usize>,
    moments: &StateMoments,
    relevance: impl Fn(usize) -> f64,
) -> Result<usize, CoreError> {
    let mut dropped = 0;
    while current.len() > 1 {
        let all: Vec<usize> = (0..current.len()).collect();
        let vifs = moments.max_vif(current, &all)?;
        let Some(drop_pos) = vifs
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > VIF_THRESHOLD)
            .map(|(pos, _)| pos)
            .min_by(|&a, &b| {
                relevance(current[a])
                    .partial_cmp(&relevance(current[b]))
                    .expect("finite correlations")
            })
        else {
            return Ok(dropped);
        };
        current.remove(drop_pos);
        dropped += 1;
    }
    Ok(dropped)
}

/// Whether adding `cand` to the set pushes *its own* VIF over
/// [`VIF_THRESHOLD`] (only that one VIF is computed).
fn exceeds_vif(
    augmented: &[usize],
    cand: usize,
    moments: &StateMoments,
) -> Result<bool, CoreError> {
    let pos = augmented
        .iter()
        .position(|&i| i == cand)
        .expect("candidate is in the augmented set");
    Ok(moments.max_vif(augmented, &[pos])?[0] > VIF_THRESHOLD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineCtx;
    use mdbs_stats::vif::variance_inflation_factors;

    /// Unary-family observations where cost depends on N_O and N_R but not
    /// on N_I beyond its correlation with the others, and where the
    /// secondary variable N_R*L_R carries genuine extra signal.
    fn synth_unary(n: usize) -> Vec<Observation> {
        let mut obs = Vec::with_capacity(n);
        for i in 0..n {
            let n_o = 1_000.0 + (i % 37) as f64 * 600.0;
            let n_i = n_o * (0.2 + (i % 11) as f64 * 0.06);
            let n_r = n_i * (0.3 + (i % 7) as f64 * 0.09);
            let l_o = 44.0 + (i % 5) as f64 * 12.0;
            let l_r = 12.0 + (i % 3) as f64 * 8.0;
            let probe = (i % 100) as f64 / 10.0;
            let factor = 1.0 + probe / 5.0;
            let cost = factor * (0.5 + 0.002 * n_o + 0.004 * n_r + 0.0002 * n_r * l_r)
                + (i % 13) as f64 * 0.01;
            obs.push(Observation {
                x: vec![n_o, n_i, n_r, l_o, l_r, n_o * l_o, n_r * l_r, 0.0],
                cost,
                probe_cost: probe,
            });
        }
        obs
    }

    fn states() -> StateSet {
        StateSet::from_edges(vec![0.0, 2.5, 5.0, 7.5, 10.0]).unwrap()
    }

    #[test]
    fn keeps_load_bearing_basics_drops_inert_one() {
        let obs = synth_unary(600);
        let sel = select_variables(
            VariableFamily::Unary,
            &obs,
            &states(),
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )
        .unwrap();
        // N_O (0) and N_R (2) must survive.
        assert!(sel.var_indexes.contains(&0), "{:?}", sel.var_names);
        assert!(sel.var_indexes.contains(&2), "{:?}", sel.var_names);
        assert!(sel.model.fit.r_squared > 0.95);
    }

    #[test]
    fn forward_step_adds_informative_secondary() {
        let obs = synth_unary(600);
        let sel = select_variables(
            VariableFamily::Unary,
            &obs,
            &states(),
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )
        .unwrap();
        // The true cost depends on N_R*L_R beyond the basics; the forward
        // step must pick up a secondary variable carrying that signal —
        // either N_R*L_R itself (index 6) or its close proxy L_R (index 4).
        let secondaries: Vec<usize> = sel
            .var_indexes
            .iter()
            .copied()
            .filter(|i| VariableFamily::Unary.secondary_indexes().contains(i))
            .collect();
        assert!(
            secondaries.iter().any(|i| *i == 4 || *i == 6),
            "no informative secondary variable selected: {:?}",
            sel.var_names
        );
    }

    #[test]
    fn collinear_variable_is_screened_out() {
        // Make N_I exactly proportional to N_O -> infinite VIF.
        let mut obs = synth_unary(400);
        for o in &mut obs {
            o.x[1] = 2.0 * o.x[0];
        }
        let sel = select_variables(
            VariableFamily::Unary,
            &obs,
            &states(),
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert!(
            !(sel.var_indexes.contains(&0) && sel.var_indexes.contains(&1)),
            "perfectly collinear pair survived: {:?}",
            sel.var_names
        );
    }

    #[test]
    fn constant_variable_never_selected() {
        let mut obs = synth_unary(400);
        for o in &mut obs {
            o.x[3] = 44.0; // L_O constant (all tables same tuple length).
        }
        let sel = select_variables(
            VariableFamily::Unary,
            &obs,
            &states(),
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert!(!sel.var_indexes.contains(&3), "{:?}", sel.var_names);
    }

    #[test]
    fn single_state_selection_works() {
        let obs = synth_unary(300);
        let sel = select_variables(
            VariableFamily::Unary,
            &obs,
            &StateSet::single(),
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert!(!sel.var_indexes.is_empty());
        assert_eq!(sel.model.num_states(), 1);
    }

    /// Join-family observations: cost driven by the Cartesian product and
    /// the result size.
    #[test]
    fn join_family_selection_keeps_cartesian() {
        let mut obs = Vec::new();
        for i in 0..500 {
            let n1 = 1_000.0 + (i % 23) as f64 * 700.0;
            let n2 = 2_000.0 + (i % 17) as f64 * 900.0;
            let i1 = n1 * (0.3 + (i % 7) as f64 * 0.08);
            let i2 = n2 * (0.2 + (i % 5) as f64 * 0.12);
            let n_r = i1 * i2 / 50_000.0;
            let probe = (i % 90) as f64 / 10.0;
            let factor = 1.0 + probe / 4.0;
            let cost = factor * (1.0 + 1e-6 * i1 * i2 + 2e-4 * n_r) + (i % 11) as f64 * 0.01;
            obs.push(Observation {
                x: vec![
                    n1,
                    n2,
                    i1,
                    i2,
                    n_r,
                    i1 * i2,
                    44.0 + (i % 3) as f64 * 12.0,
                    56.0,
                    30.0,
                    n1 * 44.0,
                    n2 * 56.0,
                    n_r * 30.0,
                ],
                cost,
                probe_cost: probe,
            });
        }
        let states = StateSet::from_edges(vec![0.0, 3.0, 6.0, 9.0]).unwrap();
        let sel = select_variables(
            VariableFamily::Join,
            &obs,
            &states,
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )
        .unwrap();
        // The Cartesian-product term (index 5) is the dominant driver.
        assert!(
            sel.var_indexes.contains(&5),
            "N_I1*N_I2 not selected: {:?}",
            sel.var_names
        );
        assert!(sel.model.fit.r_squared > 0.95);
    }

    #[test]
    fn selection_telemetry_accounts_for_every_set_change() {
        let obs = synth_unary(600);
        let mut ctx = PipelineCtx::traced(0);
        let sel = select_variables(
            VariableFamily::Unary,
            &obs,
            &states(),
            &SelectionConfig::default(),
            &mut ctx,
        )
        .unwrap();
        let tel = &ctx.telemetry;
        let basics = VariableFamily::Unary.basic_indexes().len() as u64;
        let low_corr = tel.metrics.counter("selection.low_corr_dropped");
        let screened = tel.metrics.counter("selection.vif_screened");
        let eliminated = tel.metrics.counter("selection.vars_eliminated");
        let added = tel.metrics.counter("selection.vars_added");
        assert_eq!(
            basics - low_corr - screened - eliminated + added,
            sel.var_indexes.len() as u64,
            "counters must reconcile with the final variable set"
        );
        // Same inputs, untraced: identical outcome.
        let plain = select_variables(
            VariableFamily::Unary,
            &obs,
            &states(),
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )
        .unwrap();
        assert_eq!(plain.var_indexes, sel.var_indexes);
        assert_eq!(plain.model.fit.r_squared, sel.model.fit.r_squared);
    }

    /// One NaN or +inf among 600 observations — in the cost, a basic or a
    /// secondary variable, or the probe cost — is a typed error, not a
    /// panic in the correlation comparators.
    #[test]
    fn non_finite_observations_are_rejected() {
        type Field = fn(&mut Observation) -> &mut f64;
        let fields: [(&str, Field); 4] = [
            ("cost", |o| &mut o.cost),
            ("x[0]", |o| &mut o.x[0]),
            ("x[6]", |o| &mut o.x[6]),
            ("probe_cost", |o| &mut o.probe_cost),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut obs = synth_unary(600);
                *field(&mut obs[300]) = bad;
                let result = select_variables(
                    VariableFamily::Unary,
                    &obs,
                    &states(),
                    &SelectionConfig::default(),
                    &mut PipelineCtx::default(),
                );
                match result {
                    Err(CoreError::Degenerate(msg)) => {
                        assert!(msg.contains("observation 300"), "{name}={bad}: {msg}")
                    }
                    other => panic!("{name}={bad}: expected a typed error, got {other:?}"),
                }
            }
        }
    }

    /// A huge but finite value — 1e200 in the cost, a basic or a
    /// secondary variable, or the probe cost — either yields a selection
    /// or a typed error: its squares overflow the second moments, and no
    /// `inf`/`NaN` may reach the correlation comparators.
    #[test]
    fn huge_finite_observations_never_panic() {
        type Field = fn(&mut Observation) -> &mut f64;
        let fields: [(&str, Field); 4] = [
            ("cost", |o| &mut o.cost),
            ("x[0]", |o| &mut o.x[0]),
            ("x[6]", |o| &mut o.x[6]),
            ("probe_cost", |o| &mut o.probe_cost),
        ];
        for (name, field) in fields {
            for huge in [1e200, -1e200] {
                let mut obs = synth_unary(600);
                *field(&mut obs[300]) = huge;
                let result = std::panic::catch_unwind(|| {
                    select_variables(
                        VariableFamily::Unary,
                        &obs,
                        &states(),
                        &SelectionConfig::default(),
                        &mut PipelineCtx::default(),
                    )
                });
                match result {
                    Ok(Ok(sel)) => assert_eq!(sel.var_names.len(), sel.var_indexes.len()),
                    Ok(Err(_)) => {}
                    Err(_) => panic!("{name}={huge}: select_variables panicked"),
                }
            }
        }
    }

    /// The observation-space VIF aggregation that selection ran before
    /// it read VIFs off the state blocks: regroup, one QR auxiliary
    /// regression per variable per measurable state, max over states,
    /// all observations pooled when no state is big enough.
    fn reference_max_vif(
        vars: &[usize],
        observations: &[Observation],
        states: &StateSet,
    ) -> Result<Vec<f64>, CoreError> {
        let p = vars.len();
        let groups = group_by_state(states, observations);
        let need = (min_obs_per_state(p)).max(p + 2);
        let column = |g: &[&Observation], j: usize| g.iter().map(|o| o.x[j]).collect();
        let mut agg = vec![0.0f64; p];
        let mut measured = false;
        for g in groups.iter().filter(|g| g.len() >= need) {
            let columns: Vec<Vec<f64>> = vars.iter().map(|&j| column(g, j)).collect();
            for (a, v) in agg.iter_mut().zip(variance_inflation_factors(&columns)?) {
                *a = a.max(v);
            }
            measured = true;
        }
        if !measured {
            let all: Vec<&Observation> = observations.iter().collect();
            let columns: Vec<Vec<f64>> = vars.iter().map(|&j| column(&all, j)).collect();
            agg = variance_inflation_factors(&columns)?;
        }
        Ok(agg)
    }

    /// How a parity design's columns relate; the pair is the first and
    /// the last column.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Design {
        Independent,
        /// `x_b = 1.5·x_a + ε·sd_a·noise`: pair VIF about `2.25/ε²`.
        NearCollinear(f64),
        /// `x_b = 2·x_a`, or `x_b = x_a + x_1`.
        ExactCollinear,
        /// `x_b` is 44.0 throughout one state.
        ConstantInState,
    }

    /// Seeded sweep of 1,000 designs: the Gram VIFs that selection reads
    /// off the state blocks against the observation-space reference, for
    /// p = 1..12 and 1–4 states, with states below `need` and whole designs
    /// below it (the pooled fallback). Columns have |mean|/sd ≤ 5, as the
    /// catalog's size and length variables do.
    ///
    /// Asserted: the same over/under decision at 10 and 100, `∞` wherever
    /// the reference is `∞`, and — where no ridge is involved and the VIF
    /// is below 1e6 — relative agreement within 1e-9, or within
    /// `16·ε·(1 + (mean/sd)²)·VIF_max` when that is larger (`VIF_max` the
    /// design's largest VIF, `ε` the machine epsilon). The Gram route forms
    /// centred moments from raw sums, which costs about
    /// `ε·(1 + (mean/sd)²)` per moment, and the Schur complement amplifies
    /// that by up to the largest VIF; the sweep's worst gap is about half
    /// that bound.
    #[test]
    fn gram_vifs_match_the_observation_space_reference() {
        let mut rng = mdbs_stats::Rng::seed_from_u64(0x5EED_0F1F);
        let (mut compared, mut pooled_designs, mut infinite) = (0usize, 0usize, 0usize);
        for d in 0..1_000 {
            let p = 1 + d % 12;
            let m = rng.gen_range(1usize..5);
            let design = match rng.gen_range(0usize..5) {
                _ if p == 1 => Design::Independent,
                0 => Design::Independent,
                1 => Design::NearCollinear([1e-1, 1e-2, 1e-3, 1e-4][rng.gen_range(0usize..4)]),
                2 => Design::NearCollinear([1e-6, 1e-7][rng.gen_range(0usize..2)]),
                3 => Design::ExactCollinear,
                _ => Design::ConstantInState,
            };
            let need = min_obs_per_state(p).max(p + 2);
            let all_small = rng.gen_bool(0.1);
            let counts: Vec<usize> = (0..m)
                .map(|_| {
                    if all_small || rng.gen_bool(0.25) {
                        rng.gen_range(0..need)
                    } else {
                        rng.gen_range(need..need + 20)
                    }
                })
                .collect();
            if counts.iter().all(|&c| c < need) {
                pooled_designs += 1;
            }
            let sds: Vec<f64> = (0..p).map(|_| rng.gen_range(1.0..2_000.0)).collect();
            let means: Vec<f64> = sds.iter().map(|sd| sd * rng.gen_range(-5.0..5.0)).collect();
            let (a, b) = (0, p - 1);
            let constant_state = rng.gen_range(0..m);
            let mut obs = Vec::new();
            for (s, &count) in counts.iter().enumerate() {
                for _ in 0..count {
                    let mut x: Vec<f64> = (0..p).map(|j| rng.normal(means[j], sds[j])).collect();
                    match design {
                        Design::Independent => {}
                        Design::NearCollinear(eps) => {
                            x[b] = 1.5 * x[a] + eps * sds[a] * rng.normal(0.0, 1.0);
                        }
                        Design::ExactCollinear if p >= 3 && d % 2 == 0 => x[b] = x[a] + x[1],
                        Design::ExactCollinear => x[b] = 2.0 * x[a],
                        Design::ConstantInState if s == constant_state => x[b] = 44.0,
                        Design::ConstantInState => {}
                    }
                    obs.push(Observation {
                        x,
                        cost: rng.gen_range(0.0..100.0),
                        probe_cost: s as f64 + 0.5,
                    });
                }
            }
            let states = StateSet::from_edges((0..=m).map(|e| e as f64).collect()).unwrap();
            let vars: Vec<usize> = (0..p).collect();
            let reference = reference_max_vif(&vars, &obs, &states);
            let gram = StateMoments::new(&obs, &states, p).and_then(|mo| mo.max_vif(&vars, &vars));
            let at = format!("design {d} ({design:?}, p={p}, states {counts:?})");
            let (reference, gram) = match (reference, gram) {
                (Ok(r), Ok(g)) => (r, g),
                (Err(r), Err(g)) => {
                    assert_eq!(r.to_string(), g.to_string(), "{at}");
                    continue;
                }
                (r, g) => panic!("{at}: {r:?} vs {g:?}"),
            };
            // A near-collinear pair with a VIF near `1e10` sits below the
            // resolution of moments formed from raw sums (the Gram solver's
            // pivot tolerance): the Gram route takes it as exactly
            // dependent and ridges, while the QR reference still resolves
            // the noise direction and, in a small state, uses it to explain
            // *other* columns by chance. Only the pair's own VIFs are
            // comparable there.
            let unresolved =
                matches!(design, Design::NearCollinear(_)) && reference[a].max(reference[b]) >= 1e9;
            let ridge_free =
                matches!(design, Design::Independent | Design::NearCollinear(_)) && !unresolved;
            let vif_max = reference.iter().fold(1.0f64, |acc, &v| acc.max(v));
            let centring = 1.0
                + (0..p)
                    .map(|j| (means[j] / sds[j]).powi(2))
                    .fold(0.0, f64::max);
            for (j, (&r, &g)) in reference.iter().zip(&gram).enumerate() {
                let at = format!("{at} var {j}: reference {r}, gram {g}");
                if unresolved && j != a && j != b {
                    continue;
                }
                for t in [10.0, 100.0] {
                    assert_eq!(r > t, g > t, "{at}: decision at {t}");
                }
                if r.is_infinite() {
                    infinite += 1;
                    assert!(g.is_infinite(), "{at}");
                }
                if ridge_free && r < 1e6 {
                    let rel = (g - r).abs() / r;
                    let bound = 1e-9f64.max(16.0 * f64::EPSILON * centring * vif_max);
                    assert!(rel <= bound, "{at}: relative gap {rel:e} > {bound:e}");
                }
                compared += 1;
            }
        }
        assert!(compared >= 4_500, "{compared} VIFs compared");
        assert!(pooled_designs >= 100, "{pooled_designs} pooled designs");
        assert!(infinite >= 100, "{infinite} infinite VIFs");
    }

    /// An observation with fewer variables than its family is a typed
    /// error, not a slice panic while the state blocks are accumulated.
    #[test]
    fn short_observations_are_rejected() {
        let mut obs = synth_unary(300);
        obs[7].x.truncate(3);
        let result = select_variables(
            VariableFamily::Unary,
            &obs,
            &states(),
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        );
        match result {
            Err(CoreError::Degenerate(msg)) => assert!(msg.contains("observation 7"), "{msg}"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn var_names_align_with_indexes() {
        let obs = synth_unary(300);
        let sel = select_variables(
            VariableFamily::Unary,
            &obs,
            &states(),
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )
        .unwrap();
        let all = VariableFamily::Unary.all();
        for (i, &idx) in sel.var_indexes.iter().enumerate() {
            assert_eq!(sel.var_names[i], all[idx].name);
        }
    }
}
