//! Qualitative regression cost models (paper §3.2, Table 2).
//!
//! A cost model relates a query's cost `Y` to quantitative explanatory
//! variables `X_1..X_p` *and* a qualitative contention-state variable with
//! `m` categories. The state variable can enter in four ways:
//!
//! * **Coincident** — one shared equation (the static method's model),
//! * **Parallel** — per-state intercepts, shared slopes,
//! * **Concurrent** — shared intercept, per-state slopes,
//! * **General** — per-state intercepts *and* slopes.
//!
//! The paper argues (§3.2) that contention inflates both the
//! initialization cost (the intercept) and the I/O/CPU costs (the slopes),
//! so the **general** form is the right one for dynamic environments; the
//! other forms are provided both for completeness and for the ablation
//! benchmarks.
//!
//! All four forms are fitted through one code path: each form maps an
//! observation to a design-matrix row (cell-means coding), OLS runs once
//! over the pooled sample, and the per-state "adjusted coefficients"
//! `b_{j,i}` (paper Algorithm 3.1, line 16) are recovered from the raw
//! coefficient vector. Statistics (R², SEE, F) are therefore pooled across
//! states exactly as the paper's algorithm expects.

use crate::classes::QueryClass;
use crate::observation::{check_moments, check_values, check_width, Observation};
use crate::qualvar::StateSet;
use crate::CoreError;
use mdbs_stats::{
    fit_block_diagonal, solve_block_diagonal_in, GramAccumulator, GramFit, GramWorkspace, Matrix,
    StatsError,
};

/// How the qualitative variable enters the regression equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelForm {
    /// One equation for all states.
    Coincident,
    /// Per-state intercepts, shared slopes.
    Parallel,
    /// Shared intercept, per-state slopes.
    Concurrent,
    /// Per-state intercepts and slopes (the paper's choice).
    General,
}

impl ModelForm {
    /// The form a derivation fits over `states`: the paper's general form,
    /// or the static method's one equation when a single state admits only
    /// that.
    pub(crate) fn for_states(states: &StateSet) -> ModelForm {
        if states.is_single() {
            ModelForm::Coincident
        } else {
            ModelForm::General
        }
    }

    /// Number of raw coefficients for `m` states and `p` variables.
    pub fn num_params(self, m: usize, p: usize) -> usize {
        match self {
            ModelForm::Coincident => p + 1,
            ModelForm::Parallel => m + p,
            ModelForm::Concurrent => 1 + m * p,
            ModelForm::General => m * (p + 1),
        }
    }
}

/// Pooled goodness-of-fit statistics of a cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct FitStats {
    /// Coefficient of total determination R².
    pub r_squared: f64,
    /// Adjusted R².
    pub adj_r_squared: f64,
    /// Standard error of estimation.
    pub see: f64,
    /// Overall F statistic.
    pub f_statistic: f64,
    /// Upper-tail p-value of the F statistic.
    pub f_p_value: f64,
    /// Observations used.
    pub n: usize,
    /// Raw parameters fitted.
    pub k: usize,
}

/// A fitted qualitative regression cost model for one query class.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// The regression form in use.
    pub form: ModelForm,
    /// The contention-state partition.
    pub states: StateSet,
    /// Indexes of the selected variables in the family's canonical order.
    pub var_indexes: Vec<usize>,
    /// Names of the selected variables (aligned with `var_indexes`).
    pub var_names: Vec<String>,
    /// Adjusted per-state coefficients: `coefficients[s][0]` is the
    /// intercept for state `s`, `coefficients[s][j+1]` the slope of the
    /// `j`-th selected variable in state `s`.
    pub coefficients: Vec<Vec<f64>>,
    /// Pooled fit statistics.
    pub fit: FitStats,
}

impl CostModel {
    /// Checks that every selected variable index addresses `class`'s
    /// Table-3 variable family, as a model decoded from catalog bytes must
    /// before its first estimate indexes the extracted variables with
    /// them. Each decoder wraps the message in its own typed error.
    pub(crate) fn check_variables(&self, class: QueryClass) -> Result<(), String> {
        let width = class.family().all().len();
        match self.var_indexes.iter().find(|&&i| i >= width) {
            Some(bad) => Err(format!(
                "{} model uses variable index {bad} of a {width}-variable family",
                class.label()
            )),
            None => Ok(()),
        }
    }

    /// Number of contention states `m`.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of selected quantitative variables `p`.
    pub fn num_variables(&self) -> usize {
        self.var_indexes.len()
    }

    /// Estimates the cost of a query given its selected-variable values
    /// (aligned with `var_indexes`) and the probing cost gauged in the
    /// target environment.
    ///
    /// Thin wrapper: resolves the contention state from `probe_cost` via
    /// [`StateSet::state_of`](crate::qualvar::StateSet::state_of) and
    /// delegates to [`CostModel::estimate_in_state`], the single source of
    /// truth for pricing. Results are bitwise identical to calling
    /// `estimate_in_state` with the resolved state.
    pub fn estimate(&self, x_selected: &[f64], probe_cost: f64) -> f64 {
        let s = self.states.state_of(probe_cost);
        self.estimate_in_state(x_selected, s)
    }

    /// Estimates the cost within an explicit contention state.
    ///
    /// This is the **single source of truth** for model pricing: both
    /// [`CostModel::estimate`] and [`CostModel::estimate_observation`] are
    /// thin wrappers that resolve the state / project the variables and then
    /// delegate here, so all three entry points are bitwise consistent. Any
    /// change to the evaluation arithmetic must be made here and only here.
    pub fn estimate_in_state(&self, x_selected: &[f64], state: usize) -> f64 {
        let b = &self.coefficients[state.min(self.coefficients.len() - 1)];
        let mut y = b[0];
        for (j, &x) in x_selected.iter().enumerate().take(self.num_variables()) {
            y += b[j + 1] * x;
        }
        y
    }

    /// Estimates the cost of a full-width observation (all candidate
    /// variables); projection onto the selected subset happens internally.
    ///
    /// Thin wrapper over [`CostModel::estimate`] (and therefore over
    /// [`CostModel::estimate_in_state`], the single source of truth):
    /// projects `obs` onto `var_indexes` and delegates, so its result is
    /// bitwise identical to projecting by hand and calling `estimate`.
    pub fn estimate_observation(&self, obs: &Observation) -> f64 {
        let x = obs.project(&self.var_indexes);
        self.estimate(&x, obs.probe_cost)
    }

    /// Renders the model in the style of the paper's Table 4: one cost
    /// equation per contention state, highest-contention state first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let m = self.num_states();
        for s in (0..m).rev() {
            let (lo, hi) = self.states.bounds(s);
            let mut eq = format!(
                "  {} (probe in [{:.3}, {:.3})): Y = {:+.4e}",
                self.states.paper_label(s),
                lo,
                hi,
                self.coefficients[s][0]
            );
            for (j, name) in self.var_names.iter().enumerate() {
                eq.push_str(&format!(" {:+.4e}*{}", self.coefficients[s][j + 1], name));
            }
            out.push_str(&eq);
            out.push('\n');
        }
        out
    }
}

/// Where the entries of a state's local row `z = [1, x₁..x_p]` land in the
/// full design row of a given form: local column `j` occupies global column
/// `design_position(..)[j]`.
///
/// This is the single source of truth for the column layout — the
/// observation-space rows of [`fit_cost_model`] and the Gram-assembly path
/// ([`fit_gram_from_blocks`]) both derive from it, so the QR fit and the
/// Gram solves fit the *same* design by construction.
pub(crate) fn design_position(form: ModelForm, m: usize, p: usize, state: usize) -> Vec<usize> {
    match form {
        ModelForm::Coincident => (0..=p).collect(),
        ModelForm::Parallel => {
            let mut pos = Vec::with_capacity(p + 1);
            pos.push(state);
            pos.extend(m..m + p);
            pos
        }
        ModelForm::Concurrent => {
            let mut pos = Vec::with_capacity(p + 1);
            pos.push(0);
            pos.extend(1 + state * p..1 + (state + 1) * p);
            pos
        }
        ModelForm::General => (state * (p + 1)..(state + 1) * (p + 1)).collect(),
    }
}

/// Recovers the adjusted per-state coefficient table `b_{j,i}` from the raw
/// coefficient vector.
pub(crate) fn adjusted_coefficients(
    form: ModelForm,
    m: usize,
    p: usize,
    beta: &[f64],
) -> Vec<Vec<f64>> {
    (0..m)
        .map(|s| match form {
            ModelForm::Coincident => beta.to_vec(),
            ModelForm::Parallel => {
                let mut b = Vec::with_capacity(p + 1);
                b.push(beta[s]);
                b.extend_from_slice(&beta[m..m + p]);
                b
            }
            ModelForm::Concurrent => {
                let mut b = Vec::with_capacity(p + 1);
                b.push(beta[0]);
                b.extend_from_slice(&beta[1 + s * p..1 + (s + 1) * p]);
                b
            }
            ModelForm::General => beta[s * (p + 1)..(s + 1) * (p + 1)].to_vec(),
        })
        .collect()
}

/// Counts how many observations fall in each state of a partition.
pub fn counts_per_state(states: &StateSet, observations: &[Observation]) -> Vec<usize> {
    let mut counts = vec![0usize; states.len()];
    for o in observations {
        counts[states.state_of(o.probe_cost)] += 1;
    }
    counts
}

/// Minimum observations a state must contain for a general-form fit with
/// `p` variables (exact fit needs `p + 1`; one spare for the error term).
pub fn min_obs_per_state(p: usize) -> usize {
    p + 2
}

/// Shared sample-sufficiency validation of the QR fit and the Gram solves,
/// in a fixed order: first the pooled total against `k + 1`, then (for the
/// state-dependent general/concurrent forms with `m > 1`) each state
/// against [`min_obs_per_state`].
pub(crate) fn check_state_counts(
    form: ModelForm,
    p: usize,
    counts: &[usize],
) -> Result<(), CoreError> {
    let m = counts.len();
    let k = form.num_params(m, p);
    let total: usize = counts.iter().sum();
    if total < k + 1 {
        return Err(CoreError::InsufficientSamples {
            needed: k + 1,
            got: total,
        });
    }
    if m > 1 && matches!(form, ModelForm::General | ModelForm::Concurrent) {
        if let Some(&c) = counts.iter().find(|&&c| c < min_obs_per_state(p)) {
            return Err(CoreError::InsufficientSamples {
                needed: min_obs_per_state(p),
                got: c,
            });
        }
    }
    Ok(())
}

/// Fits a qualitative model from per-state sufficient-statistics blocks.
///
/// Each block holds the Gram statistics of one state's observations over
/// the local row `z = [1, x₁..x_p]`. Under the general form the state
/// blocks are the diagonal blocks of the design's `XᵀX`, so they are
/// solved block by block ([`solve_block_diagonal_in`], bit-identical to
/// the assembled solve); the other forms share columns across states, so
/// their blocks are pooled into the full design via [`design_position`]
/// and solved at once. Either way no observation is touched, and the
/// factors live in the caller's workspace. Validation and error semantics
/// mirror [`fit_cost_model`] exactly ([`CoreError::InsufficientSamples`]
/// in the same order, rank deficiency as
/// `CoreError::Numeric(StatsError::Singular)`).
pub(crate) fn fit_gram_from_blocks(
    form: ModelForm,
    p: usize,
    blocks: &[GramAccumulator],
    ws: &mut GramWorkspace,
) -> Result<GramFit, CoreError> {
    let m = blocks.len();
    let counts: Vec<usize> = blocks.iter().map(|b| b.n()).collect();
    check_state_counts(form, p, &counts)?;
    if form == ModelForm::General {
        if let Some(b) = blocks.iter().find(|b| b.k() != p + 1) {
            return Err(CoreError::Numeric(StatsError::DimensionMismatch {
                context: format!("state block of width {} for {p} variables", b.k()),
            }));
        }
        return solve_block_diagonal_in(blocks, true, ws).map_err(CoreError::Numeric);
    }
    let k = form.num_params(m, p);
    let mut pooled = GramAccumulator::new(k);
    for (s, block) in blocks.iter().enumerate() {
        pooled
            .merge_placed(block, &design_position(form, m, p, s))
            .map_err(CoreError::Numeric)?;
    }
    solve_block_diagonal_in(std::slice::from_ref(&pooled), true, ws).map_err(CoreError::Numeric)
}

/// Fits a qualitative regression cost model.
///
/// `var_indexes`/`var_names` select the quantitative variables (indexes
/// into the canonical candidate order of the class family). For state-
/// dependent forms every state must hold at least
/// [`min_obs_per_state`] observations, otherwise
/// [`CoreError::InsufficientSamples`] is returned — callers (IUPMA/ICMA)
/// react by drawing more samples or merging states.
///
/// The fit is one Householder QR per group of rows that share columns
/// ([`fit_block_diagonal`]): under the general form state `s`'s rows touch
/// only state `s`'s `p + 1` columns, so each state is its own group, over
/// the local rows `z = [1, x₁..x_p]`; the other forms share columns across
/// states and fit as one group, bit-identical to
/// [`OlsFit::fit`](mdbs_stats::OlsFit::fit) of the design. R², SEE and F
/// pool over every state.
///
/// Names that do not pair up with the indexes, an observation too short
/// for a selected index, and a fit with a non-finite coefficient, R² or
/// SEE (a non-finite cost or variable, or overflowing squares) are each a
/// [`CoreError::Degenerate`]. The values themselves are not rescanned:
/// callers that need every value finite run their own checks first.
pub fn fit_cost_model(
    form: ModelForm,
    states: StateSet,
    var_indexes: Vec<usize>,
    var_names: Vec<String>,
    observations: &[Observation],
) -> Result<CostModel, CoreError> {
    let m = states.len();
    let p = var_indexes.len();
    if var_names.len() != p {
        return Err(CoreError::Degenerate(format!(
            "{} variable names for {p} variable indexes",
            var_names.len()
        )));
    }
    check_width(observations, var_indexes.iter().max().map_or(0, |&j| j + 1))?;
    let counts = counts_per_state(&states, observations);
    check_state_counts(form, p, &counts)?;
    // Each group's design rows go straight into one row-major buffer:
    // zeros, then the intercept and the variables at the state's
    // `design_position` columns. A one-state general row is the local row
    // [1, x₁..x_p].
    let per_state = form == ModelForm::General;
    let (width, positions, group_rows) = if per_state {
        let local = design_position(form, 1, p, 0);
        (p + 1, vec![local; m], counts)
    } else {
        let positions = (0..m).map(|s| design_position(form, m, p, s)).collect();
        (form.num_params(m, p), positions, vec![observations.len()])
    };
    let mut data: Vec<Vec<f64>> = group_rows
        .iter()
        .map(|&r| Vec::with_capacity(r * width))
        .collect();
    let mut ys: Vec<Vec<f64>> = group_rows.iter().map(|&r| Vec::with_capacity(r)).collect();
    for o in observations {
        let s = states.state_of(o.probe_cost);
        let g = if per_state { s } else { 0 };
        let pos = &positions[s];
        let start = data[g].len();
        data[g].resize(start + width, 0.0);
        let row = &mut data[g][start..];
        row[pos[0]] = 1.0;
        for (&col, &i) in pos[1..].iter().zip(&var_indexes) {
            row[col] = o.x[i];
        }
        ys[g].push(o.cost);
    }
    let blocks = data
        .into_iter()
        .zip(ys)
        .map(|(data, y)| Ok((Matrix::from_vec(y.len(), width, data)?, y)))
        .collect::<Result<Vec<_>, StatsError>>()
        .map_err(CoreError::Numeric)?;
    let fit = fit_block_diagonal(&blocks, true).map_err(CoreError::Numeric)?;
    check_finite_fit(&fit.coefficients, fit.summary.r_squared, fit.summary.see)?;
    let coefficients = adjusted_coefficients(form, m, p, &fit.coefficients);
    Ok(CostModel {
        form,
        states,
        var_indexes,
        var_names,
        coefficients,
        fit: FitStats {
            r_squared: fit.summary.r_squared,
            adj_r_squared: fit.summary.adj_r_squared,
            see: fit.summary.see,
            f_statistic: fit.summary.f_statistic,
            f_p_value: fit.summary.f_p_value,
            n: fit.n,
            k: fit.k,
        },
    })
}

/// Rejects a solved fit with a non-finite coefficient, R² or SEE, which a
/// non-finite or overflowing input leaves behind. O(k): the fit, not the
/// sample, is read.
fn check_finite_fit(coefficients: &[f64], r_squared: f64, see: f64) -> Result<(), CoreError> {
    if coefficients.iter().all(|c| c.is_finite()) && r_squared.is_finite() && see.is_finite() {
        Ok(())
    } else {
        Err(CoreError::Degenerate(
            "the fit has a non-finite coefficient, R² or SEE".into(),
        ))
    }
}

/// Sufficient statistics of a fitted cost model, kept alive so maintenance
/// can fold new observations in and refit in O(k³) **without** rescanning
/// (or even retaining) the fitting sample — the cheap continuous refit that
/// `ModelMaintainer::refit_incremental` builds on. Persisted alongside the
/// model in the catalog (`gram-entry` blocks).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAccumulator {
    form: ModelForm,
    states: StateSet,
    var_indexes: Vec<usize>,
    var_names: Vec<String>,
    /// One `(p+1)`-wide Gram block per contention state, over the local
    /// row `z = [1, x₁..x_p]`.
    blocks: Vec<GramAccumulator>,
}

impl ModelAccumulator {
    /// Builds the accumulator of a fitted model from its fitting sample;
    /// errors as [`ModelAccumulator::absorb`] does.
    pub fn from_observations(
        model: &CostModel,
        observations: &[Observation],
    ) -> Result<ModelAccumulator, CoreError> {
        let mut acc = ModelAccumulator {
            form: model.form,
            states: model.states.clone(),
            var_indexes: model.var_indexes.clone(),
            var_names: model.var_names.clone(),
            blocks: vec![GramAccumulator::new(model.num_variables() + 1); model.states.len()],
        };
        acc.absorb(observations)?;
        Ok(acc)
    }

    /// Rebuilds an accumulator from persisted parts. The blocks must match
    /// the state count and variable width.
    pub fn from_parts(
        form: ModelForm,
        states: StateSet,
        var_indexes: Vec<usize>,
        var_names: Vec<String>,
        blocks: Vec<GramAccumulator>,
    ) -> Result<ModelAccumulator, CoreError> {
        if blocks.len() != states.len() || var_indexes.len() != var_names.len() {
            return Err(CoreError::Degenerate(format!(
                "model accumulator: {} blocks for {} states, {} indexes for {} names",
                blocks.len(),
                states.len(),
                var_indexes.len(),
                var_names.len()
            )));
        }
        let width = var_indexes.len() + 1;
        if blocks.iter().any(|b| b.k() != width) {
            return Err(CoreError::Degenerate(format!(
                "model accumulator: block width != {width}"
            )));
        }
        Ok(ModelAccumulator {
            form,
            states,
            var_indexes,
            var_names,
            blocks,
        })
    }

    /// Folds new observations into the per-state blocks (rank-1 updates;
    /// the observations are not retained). A non-finite value, an
    /// observation too short for the model's variables, or a batch whose
    /// squares overflow a block is a [`CoreError::Degenerate`], and no
    /// block changes.
    pub fn absorb(&mut self, observations: &[Observation]) -> Result<(), CoreError> {
        let width = self.var_indexes.iter().max().map_or(0, |&j| j + 1);
        check_values(observations, width)?;
        // An overflowed block would feed every later refit `±∞`/`NaN`
        // (its SSE clamps to 0, so the fit even looks perfect): the batch
        // goes into a copy that replaces the blocks only if it stays finite.
        let mut blocks = self.blocks.clone();
        let mut z = Vec::with_capacity(self.var_indexes.len() + 1);
        for o in observations {
            let s = self.states.state_of(o.probe_cost);
            z.clear();
            z.push(1.0);
            z.extend(self.var_indexes.iter().map(|&i| o.x[i]));
            blocks[s]
                .add_row(&z, o.cost)
                .expect("block width matches var_indexes by construction");
        }
        for block in &blocks {
            check_moments(block)?;
        }
        self.blocks = blocks;
        Ok(())
    }

    /// Total observations absorbed across all states.
    pub fn n(&self) -> usize {
        self.blocks.iter().map(|b| b.n()).sum()
    }

    /// The regression form.
    pub fn form(&self) -> ModelForm {
        self.form
    }

    /// The contention-state partition the blocks are keyed by.
    pub fn states(&self) -> &StateSet {
        &self.states
    }

    /// Indexes of the selected variables.
    pub fn var_indexes(&self) -> &[usize] {
        &self.var_indexes
    }

    /// Names of the selected variables.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// The per-state Gram blocks (for persistence).
    pub fn blocks(&self) -> &[GramAccumulator] {
        &self.blocks
    }

    /// Refits the cost model from the accumulated statistics — O(k³),
    /// independent of how many observations were absorbed. A non-finite
    /// coefficient, R² or SEE is rejected as [`fit_cost_model`] rejects it.
    pub fn refit(&self) -> Result<CostModel, CoreError> {
        let p = self.var_indexes.len();
        let gram = fit_gram_from_blocks(self.form, p, &self.blocks, &mut GramWorkspace::default())?;
        check_finite_fit(&gram.coefficients, gram.r_squared, gram.see)?;
        let coefficients =
            adjusted_coefficients(self.form, self.states.len(), p, &gram.coefficients);
        Ok(CostModel {
            form: self.form,
            states: self.states.clone(),
            var_indexes: self.var_indexes.clone(),
            var_names: self.var_names.clone(),
            coefficients,
            fit: FitStats {
                r_squared: gram.r_squared,
                adj_r_squared: gram.adj_r_squared,
                see: gram.see,
                f_statistic: gram.f_statistic,
                f_p_value: gram.f_p_value,
                n: gram.n,
                k: gram.k,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesizes observations from a known two-state ground truth:
    /// state 0 (probe < 5): y = 1 + 2x; state 1 (probe >= 5): y = 10 + 6x.
    fn two_state_observations() -> Vec<Observation> {
        let mut obs = Vec::new();
        for i in 0..40 {
            let x = i as f64;
            obs.push(Observation {
                x: vec![x],
                cost: 1.0 + 2.0 * x,
                probe_cost: 2.0 + (i % 3) as f64 * 0.5,
            });
            obs.push(Observation {
                x: vec![x],
                cost: 10.0 + 6.0 * x,
                probe_cost: 7.0 + (i % 3) as f64 * 0.5,
            });
        }
        obs
    }

    fn two_states() -> StateSet {
        StateSet::from_edges(vec![0.0, 5.0, 10.0]).unwrap()
    }

    #[test]
    fn general_form_recovers_both_regimes() {
        let obs = two_state_observations();
        let model = fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![0],
            vec!["x".into()],
            &obs,
        )
        .unwrap();
        assert!((model.coefficients[0][0] - 1.0).abs() < 1e-8);
        assert!((model.coefficients[0][1] - 2.0).abs() < 1e-8);
        assert!((model.coefficients[1][0] - 10.0).abs() < 1e-8);
        assert!((model.coefficients[1][1] - 6.0).abs() < 1e-8);
        assert!(model.fit.r_squared > 0.999999);
    }

    #[test]
    fn coincident_form_averages_regimes() {
        let obs = two_state_observations();
        let model = fit_cost_model(
            ModelForm::Coincident,
            StateSet::single(),
            vec![0],
            vec!["x".into()],
            &obs,
        )
        .unwrap();
        // One pooled slope between 2 and 6.
        let slope = model.coefficients[0][1];
        assert!(slope > 2.0 && slope < 6.0, "slope {slope}");
        // And a visibly worse fit than the general model.
        assert!(model.fit.r_squared < 0.95);
    }

    #[test]
    fn parallel_form_shares_slopes() {
        let obs = two_state_observations();
        let model = fit_cost_model(
            ModelForm::Parallel,
            two_states(),
            vec![0],
            vec!["x".into()],
            &obs,
        )
        .unwrap();
        assert!((model.coefficients[0][1] - model.coefficients[1][1]).abs() < 1e-10);
        assert!(model.coefficients[0][0] != model.coefficients[1][0]);
    }

    #[test]
    fn concurrent_form_shares_intercept() {
        let obs = two_state_observations();
        let model = fit_cost_model(
            ModelForm::Concurrent,
            two_states(),
            vec![0],
            vec!["x".into()],
            &obs,
        )
        .unwrap();
        assert!((model.coefficients[0][0] - model.coefficients[1][0]).abs() < 1e-10);
        assert!(model.coefficients[0][1] != model.coefficients[1][1]);
    }

    #[test]
    fn general_fit_beats_restricted_forms_on_general_data() {
        let obs = two_state_observations();
        let fit = |form, states: StateSet| {
            fit_cost_model(form, states, vec![0], vec!["x".into()], &obs)
                .unwrap()
                .fit
                .r_squared
        };
        let general = fit(ModelForm::General, two_states());
        let parallel = fit(ModelForm::Parallel, two_states());
        let concurrent = fit(ModelForm::Concurrent, two_states());
        let coincident = fit(ModelForm::Coincident, StateSet::single());
        assert!(general >= parallel && general >= concurrent);
        assert!(parallel > coincident);
    }

    #[test]
    fn estimate_uses_probe_cost_to_pick_state() {
        let obs = two_state_observations();
        let model = fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![0],
            vec!["x".into()],
            &obs,
        )
        .unwrap();
        assert!((model.estimate(&[3.0], 1.0) - 7.0).abs() < 1e-6);
        assert!((model.estimate(&[3.0], 8.0) - 28.0).abs() < 1e-6);
        // Probe outside the sampled range clamps to the edge state.
        assert!((model.estimate(&[3.0], 100.0) - 28.0).abs() < 1e-6);
    }

    #[test]
    fn estimate_observation_projects_full_vector() {
        let obs = two_state_observations();
        let model = fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![0],
            vec!["x".into()],
            &obs,
        )
        .unwrap();
        let test = Observation {
            x: vec![4.0],
            cost: 0.0,
            probe_cost: 1.0,
        };
        assert!((model.estimate_observation(&test) - 9.0).abs() < 1e-6);
    }

    #[test]
    fn thin_state_is_rejected() {
        // All observations in state 0; state 1 empty.
        let obs: Vec<Observation> = (0..30)
            .map(|i| Observation {
                x: vec![i as f64],
                cost: i as f64,
                probe_cost: 1.0,
            })
            .collect();
        let err = fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![0],
            vec!["x".into()],
            &obs,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InsufficientSamples { .. }));
    }

    #[test]
    fn too_few_total_observations_rejected() {
        let obs: Vec<Observation> = (0..3)
            .map(|i| Observation {
                x: vec![i as f64],
                cost: i as f64,
                probe_cost: 1.0 + i as f64 * 3.0,
            })
            .collect();
        assert!(fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![0],
            vec!["x".into()],
            &obs,
        )
        .is_err());
    }

    #[test]
    fn num_params_per_form() {
        assert_eq!(ModelForm::Coincident.num_params(4, 3), 4);
        assert_eq!(ModelForm::Parallel.num_params(4, 3), 7);
        assert_eq!(ModelForm::Concurrent.num_params(4, 3), 13);
        assert_eq!(ModelForm::General.num_params(4, 3), 16);
    }

    #[test]
    fn render_mentions_every_state_and_variable() {
        let obs = two_state_observations();
        let model = fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![0],
            vec!["N_O".into()],
            &obs,
        )
        .unwrap();
        let text = model.render();
        assert!(text.contains("S1"));
        assert!(text.contains("S2"));
        assert!(text.contains("N_O"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn estimate_entry_points_are_bitwise_consistent() {
        // All three estimation entry points must agree bitwise: `estimate`
        // and `estimate_observation` are documented as thin wrappers over
        // `estimate_in_state`, the single source of truth.
        let obs = two_state_observations();
        let model = fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![0],
            vec!["N_O".into()],
            &obs,
        )
        .unwrap();
        for o in &obs {
            let x = o.project(&model.var_indexes);
            let s = model.states.state_of(o.probe_cost);
            let via_state = model.estimate_in_state(&x, s);
            let via_probe = model.estimate(&x, o.probe_cost);
            let via_obs = model.estimate_observation(o);
            assert_eq!(via_probe.to_bits(), via_state.to_bits());
            assert_eq!(via_obs.to_bits(), via_state.to_bits());
        }
    }

    /// More names than variable indexes returned a model whose `render`
    /// then indexed past a state's coefficients.
    #[test]
    fn unpaired_variable_names_are_a_typed_error() {
        let obs = two_state_observations();
        let names = vec!["x".into(), "extra".into()];
        let err = fit_cost_model(ModelForm::General, two_states(), vec![0], names, &obs);
        assert!(matches!(err, Err(CoreError::Degenerate(_))), "{err:?}");
    }

    /// A variable index past an observation's width was a slice panic.
    #[test]
    fn an_index_past_a_row_is_a_typed_error() {
        let obs = two_state_observations();
        let err = fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![3],
            vec!["x3".into()],
            &obs,
        );
        match err {
            Err(CoreError::Degenerate(msg)) => assert!(msg.contains("observation 0"), "{msg}"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    /// A NaN cost fitted to NaN coefficients with R² = 1.
    #[test]
    fn a_nan_cost_is_a_typed_error() {
        let mut obs = two_state_observations();
        obs[5].cost = f64::NAN;
        let err = fit_cost_model(
            ModelForm::General,
            two_states(),
            vec![0],
            vec!["x".into()],
            &obs,
        );
        assert!(matches!(err, Err(CoreError::Degenerate(_))), "{err:?}");
    }

    #[test]
    fn counts_per_state_totals() {
        let obs = two_state_observations();
        let counts = counts_per_state(&two_states(), &obs);
        assert_eq!(counts.iter().sum::<usize>(), obs.len());
        assert_eq!(counts, vec![40, 40]);
    }
}
