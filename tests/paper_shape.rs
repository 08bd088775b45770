//! Shape-level reproduction checks: every qualitative claim of the paper's
//! evaluation (§5) must hold in this implementation. Absolute numbers are
//! allowed to differ (our substrate is a simulator); who wins, by roughly
//! what factor, and where the knees fall must match.

use mdbs_bench::experiments::fig4_9::multi_wins;
use mdbs_bench::experiments::{
    average_improvement, fig1, fig10, fig4_9, states_sweep, table5, table6, test_points,
    Table5Config,
};
use mdbs_core::classes::QueryClass;
use mdbs_core::validate::quality;

/// Figure 1: the cost of one query grows dramatically and super-linearly
/// with the number of concurrent processes (paper: 3.80 s → 124.02 s).
#[test]
fn fig1_cost_explodes_with_contention() {
    let r = fig1(3);
    assert!(r.dynamic_ratio() > 10.0, "ratio {:.1}", r.dynamic_ratio());
    let costs: Vec<f64> = r.points.iter().map(|p| p.1).collect();
    assert!(
        costs.windows(2).filter(|w| w[1] >= w[0]).count() >= costs.len() * 3 / 4,
        "cost is not broadly monotone in load"
    );
}

/// Table 5 shape, all six combinations:
/// multi-states R² high, one-state visibly worse, static approach 1 great
/// on its own data but poor in the dynamic environment.
#[test]
fn table5_shape_holds() {
    let t5 = table5(&Table5Config::quick()).expect("table 5 runs");
    assert_eq!(t5.combos.len(), 6);
    for combo in &t5.combos {
        let multi = &combo.derived.model;
        let one = &combo.one_state;
        assert!(
            multi.fit.r_squared > one.fit.r_squared,
            "{}: multi {} <= one-state {}",
            combo.label,
            multi.fit.r_squared,
            one.fit.r_squared
        );
        assert!(
            combo.static1.model.fit.r_squared > 0.9,
            "{}: static model should fit its own static data",
            combo.label
        );
        let q_multi = quality(&test_points(&combo.points, 0));
        let q_static = quality(&test_points(&combo.points, 2));
        assert!(
            q_multi.good_pct > q_static.good_pct,
            "{}: static ({}) not worse than multi ({})",
            combo.label,
            q_static.good_pct,
            q_multi.good_pct
        );
    }
    // Averaged improvement over one-state is clearly positive (paper:
    // +27.0 pp very-good, +20.2 pp good).
    let (d_vg, d_g) = average_improvement(&t5);
    assert!(d_vg > 5.0, "very-good improvement only {d_vg:.1} pp");
    assert!(d_g > 5.0, "good improvement only {d_g:.1} pp");
}

/// Figures 4–9: the multi-states estimates track observed costs better
/// than the one-state estimates in (almost) every figure.
#[test]
fn figures_4_to_9_multi_states_tracks_better() {
    let mut cfg = Table5Config::quick();
    cfg.test_queries = 30;
    let t5 = table5(&cfg).expect("table 5 runs");
    let figs = fig4_9(&t5);
    assert_eq!(figs.figures.len(), 6);
    assert!(
        multi_wins(&figs) >= 5,
        "multi wins only {}/6",
        multi_wins(&figs)
    );
}

/// §5 text: more contention states → better model, with diminishing
/// returns; a small number (3–6) suffices.
#[test]
fn states_sweep_shows_diminishing_returns() {
    let s = states_sweep(QueryClass::UnaryNonClusteredIndex, 360, 6).expect("sweep runs");
    let first = s.points.first().expect("nonempty");
    let last = s.points.last().expect("nonempty");
    assert_eq!(first.0, 1);
    assert!(last.0 >= 4);
    assert!(last.1 - first.1 > 0.2, "gain {}", last.1 - first.1);
    assert!(last.1 > 0.9, "final R² {}", last.1);
    // SEE decreases from the static model to the multi-states ones.
    assert!(last.2 < first.2);
}

/// Table 6: under clustered contention, ICMA's boundaries are at least as
/// good as IUPMA's at the same state budget, on the same data.
#[test]
fn table6_icma_at_least_matches_iupma() {
    let t = table6(QueryClass::UnaryNoIndex, Some(240), 50).expect("table 6 runs");
    let iupma = t.row("IUPMA").expect("IUPMA row");
    let icma = t.row("ICMA").expect("ICMA row");
    assert!(
        icma.r_squared >= iupma.r_squared - 0.02,
        "ICMA {} vs IUPMA {}",
        icma.r_squared,
        iupma.r_squared
    );
    assert!(icma.states >= 2 && iupma.states >= 2);
}

/// Figure 10: the probing-cost distribution in the clustered environment
/// is multi-modal.
#[test]
fn fig10_contention_is_multimodal() {
    let r = fig10(500, 40);
    assert!(r.modes() >= 2, "only {} modes", r.modes());
    assert!(r.summary.max > 2.0 * r.summary.min);
}

/// §5 text: small-cost queries have worse (relative) estimates than
/// large-cost queries.
#[test]
fn small_cost_queries_estimate_worse() {
    let mut cfg = Table5Config::quick();
    cfg.test_queries = 60;
    let t5 = table5(&cfg).expect("table 5 runs");
    let mut small_err = Vec::new();
    let mut large_err = Vec::new();
    for combo in &t5.combos {
        let points = test_points(&combo.points, 0);
        let mut sorted: Vec<f64> = points.iter().map(|p| p.observed).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = sorted[sorted.len() / 2];
        for p in &points {
            let err = p.relative_error();
            if err.is_finite() {
                if p.observed < median {
                    small_err.push(err);
                } else {
                    large_err.push(err);
                }
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&small_err) > mean(&large_err),
        "small-cost mean err {:.3} <= large-cost {:.3}",
        mean(&small_err),
        mean(&large_err)
    );
}
