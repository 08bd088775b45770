//! Feedback-driven online correction of served estimates (ROADMAP item 2).
//!
//! The paper keeps cost models accurate in a *dynamic* environment by
//! re-deriving them — a heavyweight reaction. Between retrains there is a
//! much cheaper signal: every `observe` event compares a served estimate
//! against the cost the site actually charged, and the resulting relative
//! error is strongly autocorrelated per (site, contention-state) when the
//! environment shifts durably (a 12× I/O degrade biases *every* estimate in
//! a state by roughly the same factor). This module folds that residual
//! stream into a [`CorrectionLedger`] of per-(site, state) running
//! statistics and multiplies the learned bias out of every served estimate,
//! in the spirit of low-cost online model corrections between retrains
//! (see PAPERS.md: adaptive cost models folding execution feedback).
//!
//! Two statistics per cell, both plain EWMAs so the fold is O(1),
//! deterministic, and independent of worker count:
//!
//! * **bias** — EWMA of the *signed* relative error
//!   `(raw_estimate − observed) / observed` of the **raw** model output.
//!   Learning on raw (not corrected) estimates keeps the statistic a
//!   property of the model itself: a working correction would otherwise
//!   drive its own evidence to zero and immediately unlearn itself.
//! * **scale** — EWMA of `|rel − bias|`, a robust dispersion of the
//!   residuals around the learned bias. Served as the `±` confidence
//!   annotation: a small bias with a huge scale is noise, not signal.
//!
//! A cell only corrects after [`MIN_SAMPLES`] folds (cold cells serve the
//! raw estimate), and the correction is the multiplicative factor
//! `1 / (1 + bias)`, clamped to [`FACTOR_CLAMP`] so a pathological bias
//! near −1 cannot blow an estimate up unboundedly.
//!
//! ## The escalation ladder
//!
//! Correction is the first rung of the serving loop's maintenance ladder:
//!
//! 1. **correct** — cheap, per-observation, no model change;
//! 2. **refit** — when `|bias|` saturates a configurable threshold
//!    ([`CorrectionConfig::saturation`]), the model itself is wrong enough
//!    that the loop spends one incremental refit
//!    ([`crate::maintenance::ModelMaintainer::refit_incremental`]) per
//!    episode to fold the new regime into the coefficients;
//! 3. **rederive** — if the bias saturates *again* after that refit, the
//!    cheap rungs are exhausted: the cell is **suspended** (corrections
//!    stop, raw estimates flow) so the drift monitor sees the model's true
//!    quality and can trip the full
//!    [`crate::maintenance::rederive_drifted`] path. Papering over a
//!    saturated correction forever would hide the drift signal the
//!    heavyweight rung keys on.
//!
//! Cells reset whenever their site's model is republished (the learned
//! bias described the old snapshot), and the per-model refit budget is
//! restored by a rederivation — the ladder starts over against the fresh
//! model.
//!
//! ## The unified estimation entry point
//!
//! Corrections reach estimates through one choke point:
//! [`crate::registry::ModelRegistry::estimate`], taking an
//! [`EstimateQuery`] and returning an
//! [`crate::registry::EstimateDetail`] carrying the corrected estimate,
//! the raw model output, the applied factor, the confidence, the snapshot
//! version and the detected contention state.

use crate::catalog::SiteId;
use crate::registry::EstimateDetail;
use mdbs_obs::Telemetry;
use mdbs_sim::catalog::LocalCatalog;
use mdbs_sim::query::Query;
use std::collections::BTreeMap;

/// Folds a correction cell only after this many observations: a single
/// residual is noise, not bias.
pub const MIN_SAMPLES: u64 = 3;

/// Clamp on the multiplicative correction factor `1 / (1 + bias)`: a bias
/// approaching −1 (raw estimates near zero against large observed costs)
/// must not blow an estimate up without bound.
pub const FACTOR_CLAMP: (f64, f64) = (0.05, 20.0);

/// Knobs of the correction layer. Carried inside
/// [`crate::server::ServeConfig`] (`correction_*` fields) and validated by
/// its builder.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectionConfig {
    /// EWMA smoothing factor in `(0, 1]` for both the bias and the scale
    /// statistic. Larger adapts faster and forgets faster.
    pub ewma_alpha: f64,
    /// `|bias|` at or above this (with [`MIN_SAMPLES`] evidence) saturates
    /// the cell and escalates to an incremental refit.
    pub saturation: f64,
    /// Upper bound on live cells; the least-recently-observed cell is
    /// evicted when a new key would exceed it.
    pub max_cells: usize,
}

impl Default for CorrectionConfig {
    fn default() -> Self {
        CorrectionConfig {
            ewma_alpha: 0.25,
            saturation: 0.5,
            max_cells: 1024,
        }
    }
}

/// One (site, state) correction cell.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    /// EWMA of the signed relative error of raw estimates.
    bias: f64,
    /// EWMA of `|rel − bias|`: robust residual dispersion.
    scale: f64,
    /// Observations folded in.
    samples: u64,
    /// Monotone recency stamp for LRU eviction.
    touch: u64,
    /// Set once the per-model refit budget is exhausted: the cell stops
    /// correcting so the drift monitor sees raw quality.
    suspended: bool,
}

/// What one [`CorrectionLedger::observe`] fold did to its cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellUpdate {
    /// The signed relative error folded in.
    pub rel: f64,
    /// The cell's bias after the fold.
    pub bias: f64,
    /// The cell's scale after the fold.
    pub scale: f64,
    /// Observations in the cell after the fold.
    pub samples: u64,
    /// Whether the cell is saturated (`|bias| ≥ saturation` with
    /// [`MIN_SAMPLES`] evidence) — the escalation trigger.
    pub saturated: bool,
}

/// A correction applied (or declined) for one served estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correction {
    /// The estimate to serve (equals the raw estimate when not applied).
    pub estimate: f64,
    /// Multiplicative factor applied (1.0 when not applied).
    pub factor: f64,
    /// The cell's residual scale — the `±` confidence annotation.
    pub confidence: f64,
    /// Whether a warm, non-suspended cell actually corrected.
    pub applied: bool,
}

impl Correction {
    /// The identity correction: raw estimate served untouched.
    fn none(raw: f64) -> Correction {
        Correction {
            estimate: raw,
            factor: 1.0,
            confidence: 0.0,
            applied: false,
        }
    }
}

/// Per-(site, state) running bias/scale statistics over the residual
/// stream, bounded by an LRU cap. Mutated only from the serving loop's
/// serial event path; estimation reads it through a shared reference, so
/// every decision is worker-count-independent by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectionLedger {
    config: CorrectionConfig,
    cells: BTreeMap<(String, String), Cell>,
    touch_counter: u64,
    evictions: u64,
}

impl CorrectionLedger {
    /// An empty ledger with the given knobs (`max_cells` is clamped to at
    /// least 1 so the ledger can always hold the cell it is folding).
    pub fn new(config: CorrectionConfig) -> CorrectionLedger {
        let config = CorrectionConfig {
            max_cells: config.max_cells.max(1),
            ..config
        };
        CorrectionLedger {
            config,
            cells: BTreeMap::new(),
            touch_counter: 0,
            evictions: 0,
        }
    }

    /// The knobs this ledger runs with.
    pub fn config(&self) -> &CorrectionConfig {
        &self.config
    }

    /// Folds one (raw estimate, observed cost) pair into the cell,
    /// creating (and LRU-evicting) as needed. The relative error is
    /// `(raw − observed) / observed` with the denominator floored away
    /// from zero, exactly like the accuracy ledger's.
    pub fn observe(&mut self, site: &str, state: &str, raw: f64, observed: f64) -> CellUpdate {
        let denom = observed.abs().max(1e-12);
        let rel = (raw - observed) / denom;
        let key = (site.to_string(), state.to_string());
        if !self.cells.contains_key(&key) && self.cells.len() >= self.config.max_cells {
            let oldest = self
                .cells
                .iter()
                .min_by_key(|(_, c)| c.touch)
                .map(|(k, _)| k.clone())
                .expect("non-empty at cap");
            self.cells.remove(&oldest);
            self.evictions += 1;
        }
        self.touch_counter += 1;
        let touch = self.touch_counter;
        let alpha = self.config.ewma_alpha;
        let cell = self.cells.entry(key).or_insert_with(|| Cell {
            bias: rel,
            scale: rel.abs(),
            samples: 0,
            touch,
            suspended: false,
        });
        if cell.samples > 0 {
            cell.bias += alpha * (rel - cell.bias);
            cell.scale += alpha * ((rel - cell.bias).abs() - cell.scale);
        }
        cell.samples += 1;
        cell.touch = touch;
        CellUpdate {
            rel,
            bias: cell.bias,
            scale: cell.scale,
            samples: cell.samples,
            saturated: cell.samples >= MIN_SAMPLES && cell.bias.abs() >= self.config.saturation,
        }
    }

    /// The correction for one raw estimate: a warm (≥ [`MIN_SAMPLES`]),
    /// non-suspended cell divides the learned bias out
    /// (`raw / (1 + bias)`, clamped to [`FACTOR_CLAMP`]); anything else is
    /// the identity. Pure — safe to call from pool workers through a
    /// shared reference.
    pub fn correct(&self, site: &str, state: &str, raw: f64) -> Correction {
        let Some(cell) = self.cells.get(&(site.to_string(), state.to_string())) else {
            return Correction::none(raw);
        };
        if cell.suspended || cell.samples < MIN_SAMPLES {
            return Correction::none(raw);
        }
        let factor = 1.0 / (1.0 + cell.bias);
        if !factor.is_finite() {
            return Correction::none(raw);
        }
        let factor = factor.clamp(FACTOR_CLAMP.0, FACTOR_CLAMP.1);
        Correction {
            estimate: raw * factor,
            factor,
            confidence: cell.scale,
            applied: true,
        }
    }

    /// Suspends a cell: it keeps folding evidence but stops correcting, so
    /// raw estimate quality reaches the drift monitor. Returns `true` when
    /// the cell existed and was not already suspended.
    pub fn suspend(&mut self, site: &str, state: &str) -> bool {
        match self.cells.get_mut(&(site.to_string(), state.to_string())) {
            Some(cell) if !cell.suspended => {
                cell.suspended = true;
                true
            }
            _ => false,
        }
    }

    /// Drops every cell of a site — called when the site's model is
    /// republished (refit or rederivation): the learned bias described the
    /// old snapshot.
    pub fn reset_site(&mut self, site: &str) {
        self.cells.retain(|(s, _), _| s != site);
    }

    /// Live cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell is live.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total observations folded across live cells.
    pub fn samples(&self) -> u64 {
        self.cells.values().map(|c| c.samples).sum()
    }

    /// Cells evicted by the LRU cap so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Largest `|bias|` across live cells (0 when empty) — the heartbeat's
    /// one-number summary of how hard the layer is working.
    pub fn max_abs_bias(&self) -> f64 {
        self.cells
            .values()
            .map(|c| c.bias.abs())
            .fold(0.0, f64::max)
    }

    /// Folds the ledger's own counters into telemetry:
    /// `serve.correction.cells` / `.samples` gauges and the
    /// `serve.correction.evictions` counter.
    pub fn fold_metrics(&self, tel: &mut Telemetry) {
        tel.gauge("serve.correction.cells", self.len() as f64);
        tel.gauge("serve.correction.samples", self.samples() as f64);
        tel.inc("serve.correction.evictions", self.evictions);
    }
}

/// The one input struct of the unified estimation entry point
/// ([`crate::registry::ModelRegistry::estimate`]): everything the
/// historical estimation trio threaded through diverging signatures,
/// plus the optional
/// correction ledger whose learned bias is divided out of the raw model
/// output.
#[derive(Debug, Clone, Copy)]
pub struct EstimateQuery<'a> {
    /// The site to price at.
    pub site: &'a SiteId,
    /// The site's local schema (classification + variable extraction).
    pub schema: &'a LocalCatalog,
    /// The query to price.
    pub query: &'a Query,
    /// The probing cost gauged in the target environment — selects the
    /// contention state.
    pub probe_cost: f64,
    /// Online correction ledger; `None` serves the raw model output.
    pub correction: Option<&'a CorrectionLedger>,
}

impl<'a> EstimateQuery<'a> {
    /// An uncorrected query: the estimate is the model's raw output.
    pub fn raw(
        site: &'a SiteId,
        schema: &'a LocalCatalog,
        query: &'a Query,
        probe_cost: f64,
    ) -> EstimateQuery<'a> {
        EstimateQuery {
            site,
            schema,
            query,
            probe_cost,
            correction: None,
        }
    }

    /// The same query with a correction ledger attached.
    pub fn with_correction(mut self, ledger: &'a CorrectionLedger) -> EstimateQuery<'a> {
        self.correction = Some(ledger);
        self
    }
}

/// Pricing core of [`crate::registry::ModelRegistry::estimate`] and of
/// the optimizer's filter-query estimate: extract the class's
/// Table-3 variables, project onto the model's selected subset, detect the
/// contention state, evaluate, and apply the correction ledger (when
/// attached and warm). A NaN probe selects no state, so it prices nothing;
/// neither does a model whose estimate for the query is not finite (only
/// a corrupt catalog holds such a model).
pub(crate) fn price_with_model(
    model: &crate::model::CostModel,
    version: u64,
    class: crate::classes::QueryClass,
    q: &EstimateQuery<'_>,
) -> Option<EstimateDetail> {
    if q.probe_cost.is_nan() {
        return None;
    }
    let family: crate::variables::VariableFamily = class.family();
    let x = family.extract(q.schema, q.query)?;
    let x_sel: Vec<f64> = model.var_indexes.iter().map(|&i| x[i]).collect();
    let state = model.states.state_of(q.probe_cost);
    let state_label = model.states.paper_label(state);
    let raw = model.estimate(&x_sel, q.probe_cost);
    if !raw.is_finite() {
        return None;
    }
    let correction = q
        .correction
        .map(|ledger| ledger.correct(&q.site.0, &state_label, raw))
        .unwrap_or_else(|| Correction::none(raw));
    Some(EstimateDetail {
        estimate: correction.estimate,
        raw_estimate: raw,
        correction: correction.factor,
        corrected: correction.applied,
        confidence: correction.confidence,
        version,
        state,
        state_label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(alpha: f64, saturation: f64, max_cells: usize) -> CorrectionLedger {
        CorrectionLedger::new(CorrectionConfig {
            ewma_alpha: alpha,
            saturation,
            max_cells,
        })
    }

    /// Satellite: the EWMA bias/scale arithmetic against hand-computed
    /// values. α = 0.5; relative errors +0.20 then +0.40 on observed 100:
    ///
    /// * fold 1 seeds: bias = 0.20, scale = |0.20| = 0.20
    /// * fold 2: bias = 0.20 + 0.5·(0.40 − 0.20) = 0.30 and
    ///   scale = 0.20 + 0.5·(|0.40 − 0.30| − 0.20) = 0.15
    #[test]
    fn ewma_bias_and_scale_match_hand_computation() {
        let mut l = ledger(0.5, 10.0, 16);
        let u1 = l.observe("oracle", "S1", 120.0, 100.0);
        assert!((u1.rel - 0.20).abs() < 1e-12);
        assert!((u1.bias - 0.20).abs() < 1e-12);
        assert!((u1.scale - 0.20).abs() < 1e-12);
        assert_eq!(u1.samples, 1);
        let u2 = l.observe("oracle", "S1", 140.0, 100.0);
        assert!((u2.rel - 0.40).abs() < 1e-12, "rel {}", u2.rel);
        assert!((u2.bias - 0.30).abs() < 1e-12, "bias {}", u2.bias);
        assert!((u2.scale - 0.15).abs() < 1e-12, "scale {}", u2.scale);
        assert_eq!(u2.samples, 2);
        assert!(!u2.saturated, "below min samples");
    }

    #[test]
    fn correction_divides_learned_bias_out_after_warmup() {
        let mut l = ledger(0.5, 10.0, 16);
        // Model overestimates by exactly +25% in this cell.
        for _ in 0..2 {
            l.observe("oracle", "S1", 125.0, 100.0);
        }
        // Cold cell (2 < MIN_SAMPLES): identity.
        let cold = l.correct("oracle", "S1", 125.0);
        assert!(!cold.applied);
        assert_eq!(cold.estimate, 125.0);
        l.observe("oracle", "S1", 125.0, 100.0);
        // Warm: bias = 0.25, factor = 1/1.25 = 0.8 → 125 → 100.
        let c = l.correct("oracle", "S1", 125.0);
        assert!(c.applied);
        assert!((c.factor - 0.8).abs() < 1e-12, "factor {}", c.factor);
        assert!((c.estimate - 100.0).abs() < 1e-9, "estimate {}", c.estimate);
        // Constant residuals: the scale seeded at |rel| = 0.25 halves on
        // every fold (α = 0.5, zero deviation) — 0.25 → 0.125 → 0.0625.
        assert!((c.confidence - 0.0625).abs() < 1e-12, "{}", c.confidence);
        // An unknown cell stays identity.
        assert!(!l.correct("oracle", "S2", 50.0).applied);
        assert!(!l.correct("db2", "S1", 50.0).applied);
    }

    #[test]
    fn saturation_needs_both_evidence_and_magnitude() {
        let mut l = ledger(0.5, 0.5, 16);
        // Massive bias but < MIN_SAMPLES folds: not saturated.
        assert!(!l.observe("oracle", "S1", 10.0, 100.0).saturated);
        assert!(!l.observe("oracle", "S1", 10.0, 100.0).saturated);
        // Third fold crosses the evidence gate with |bias| ≈ 0.9 ≥ 0.5.
        let u = l.observe("oracle", "S1", 10.0, 100.0);
        assert!(u.saturated, "bias {} with {} samples", u.bias, u.samples);
        // A small-bias cell never saturates regardless of evidence.
        let mut small = ledger(0.5, 0.5, 16);
        for _ in 0..10 {
            assert!(!small.observe("oracle", "S1", 101.0, 100.0).saturated);
        }
    }

    #[test]
    fn suspension_stops_correcting_but_keeps_folding() {
        let mut l = ledger(0.5, 0.5, 16);
        for _ in 0..4 {
            l.observe("oracle", "S1", 10.0, 100.0);
        }
        assert!(l.correct("oracle", "S1", 10.0).applied);
        assert!(l.suspend("oracle", "S1"));
        assert!(!l.suspend("oracle", "S1"), "already suspended");
        assert!(!l.suspend("oracle", "S9"), "unknown cell");
        let c = l.correct("oracle", "S1", 10.0);
        assert!(!c.applied);
        assert_eq!(c.estimate, 10.0);
        // Evidence keeps folding while suspended.
        let before = l.samples();
        l.observe("oracle", "S1", 10.0, 100.0);
        assert_eq!(l.samples(), before + 1);
    }

    #[test]
    fn reset_site_drops_only_that_sites_cells() {
        let mut l = ledger(0.5, 0.5, 16);
        l.observe("oracle", "S1", 10.0, 100.0);
        l.observe("oracle", "S2", 10.0, 100.0);
        l.observe("db2", "S1", 10.0, 100.0);
        assert_eq!(l.len(), 3);
        l.reset_site("oracle");
        assert_eq!(l.len(), 1);
        assert!(!l.correct("oracle", "S1", 10.0).applied, "cell gone");
        l.observe("db2", "S1", 10.0, 100.0);
        assert_eq!(l.samples(), 2, "db2's cell survived intact");
    }

    #[test]
    fn lru_cap_evicts_least_recently_observed_and_counts() {
        let mut l = ledger(0.5, 0.5, 2);
        l.observe("a", "S1", 1.0, 1.0);
        l.observe("b", "S1", 1.0, 1.0);
        // Touch `a` so `b` is the LRU victim.
        l.observe("a", "S1", 1.0, 1.0);
        l.observe("c", "S1", 1.0, 1.0);
        assert_eq!(l.len(), 2);
        assert_eq!(l.evictions(), 1);
        // `b` was evicted: re-observing it starts a fresh cell (and evicts
        // the now-oldest `a`).
        let u = l.observe("b", "S1", 1.0, 1.0);
        assert_eq!(u.samples, 1);
        assert_eq!(l.evictions(), 2);
        // Existing-key folds never evict.
        l.observe("b", "S1", 1.0, 1.0);
        assert_eq!(l.evictions(), 2);
    }

    #[test]
    fn factor_clamp_bounds_pathological_bias() {
        let mut l = ledger(1.0, 10.0, 4);
        // Raw ~0 against observed 100 → rel ≈ −1 → naive factor explodes.
        for _ in 0..3 {
            l.observe("oracle", "S1", 1e-9, 100.0);
        }
        let c = l.correct("oracle", "S1", 1e-9);
        assert!(c.applied);
        assert!(c.factor <= FACTOR_CLAMP.1, "factor {}", c.factor);
        // Raw huge against tiny observed → factor floors.
        let mut h = ledger(1.0, 10.0, 4);
        for _ in 0..3 {
            h.observe("oracle", "S1", 1000.0, 1.0);
        }
        let c = h.correct("oracle", "S1", 1000.0);
        assert!(c.applied);
        assert!(c.factor >= FACTOR_CLAMP.0, "factor {}", c.factor);
    }

    #[test]
    fn fold_metrics_reports_cells_samples_and_evictions() {
        let mut l = ledger(0.5, 0.5, 1);
        l.observe("a", "S1", 1.0, 1.0);
        l.observe("b", "S1", 1.0, 1.0);
        let mut tel = Telemetry::enabled();
        l.fold_metrics(&mut tel);
        let jsonl = tel.render_jsonl();
        assert!(jsonl.contains("serve.correction.cells"), "{jsonl}");
        assert!(jsonl.contains("serve.correction.evictions"), "{jsonl}");
        assert_eq!(tel.metrics.counter("serve.correction.evictions"), 1);
    }

    #[test]
    fn max_abs_bias_summarises_the_worst_cell() {
        let mut l = ledger(1.0, 10.0, 8);
        assert_eq!(l.max_abs_bias(), 0.0);
        l.observe("a", "S1", 110.0, 100.0);
        l.observe("b", "S1", 50.0, 100.0);
        assert!((l.max_abs_bias() - 0.5).abs() < 1e-12);
    }
}
