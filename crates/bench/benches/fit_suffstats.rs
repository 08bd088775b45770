//! Full-QR refit vs sufficient-statistics candidate fit.
//!
//! The state-determination search scores hundreds of candidate partitions.
//! The legacy path rebuilds the design and fits it from the observations
//! per candidate (`fit_cost_model`, also the published fit): under the
//! General form one Householder QR per state over that state's rows and
//! its `p + 1` columns — O(n·(p+1)²). The Gram path keeps prefix sums of
//! the per-observation outer products in probe-cost order, assembles a
//! candidate's per-state blocks by prefix difference, and solves the
//! block-diagonal normal equations one state's `(p+1)×(p+1)` block at a
//! time — O(m·(p+1)³), independent of `n`. This bench measures exactly
//! those two candidate-evaluation costs at the sample sizes the pipeline
//! sees (and one 10k stress size), for a 4-state General-form model with
//! 3 variables (k = 16 design columns in four 4-column blocks).
//!
//! The `vif/*` cases measure the multicollinearity screen of variable
//! selection on the same sample: `vif/obs` runs the observation-space
//! reference (one QR auxiliary regression over all `n` rows per
//! variable), `vif/gram` reads the same VIFs off the sample's Gram block
//! (accumulated once, outside the timed loop, as selection caches it).
//!
//! Names are zero-padded (`n=00100`) so `cargo bench -- n=00100` selects
//! one size without substring-matching the larger ones.

use mdbs_bench::harness::Harness;
use mdbs_core::model::{fit_cost_model, ModelForm};
use mdbs_core::observation::Observation;
use mdbs_core::qualvar::StateSet;
use mdbs_core::ModelAccumulator;
use mdbs_stats::vif::{gram_variance_inflation_factors, variance_inflation_factors};
use mdbs_stats::{GramAccumulator, GramPrefix, Rng};

const NUM_STATES: usize = 4;
const NUM_VARS: usize = 3;

/// Deterministic noisy observations spread over [`NUM_STATES`] contention
/// states (probe costs in `[0, 4)`).
fn observations(n: usize) -> Vec<Observation> {
    let mut rng = Rng::seed_from_u64(0x05EE_DF17);
    (0..n)
        .map(|i| {
            let x1 = rng.gen_f64() * 4_000.0;
            let x2 = rng.gen_f64() * 1_500.0;
            let x3 = rng.gen_f64() * 90.0;
            let s = i % NUM_STATES;
            Observation {
                x: vec![x1, x2, x3],
                cost: (s + 1) as f64 * (1.0 + 0.01 * x1 + 0.003 * x2 + 0.02 * x3)
                    + rng.gen_f64() * 0.5,
                probe_cost: s as f64 + 0.1 + rng.gen_f64() * 0.8,
            }
        })
        .collect()
}

fn main() {
    let mut h = Harness::new("fit_suffstats");
    let states = StateSet::from_edges(vec![0.0, 1.0, 2.0, 3.0, 4.0]).expect("ascending");
    let var_indexes = vec![0, 1, 2];
    let var_names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];

    for &n in &[100usize, 1_000, 10_000] {
        let obs = observations(n);
        let iters = if n >= 10_000 { 30 } else { 100 };

        // Legacy candidate evaluation: design-matrix rebuild + Householder
        // QR over all n observations.
        let (st, vi, vn) = (states.clone(), var_indexes.clone(), var_names.clone());
        h.bench(&format!("full_qr/n={n:05}"), 3, iters, || {
            fit_cost_model(ModelForm::General, st.clone(), vi.clone(), vn.clone(), &obs)
                .expect("fit succeeds")
        });

        // Gram candidate evaluation: prefix-difference block extraction +
        // O(k³) normal-equations solve. The prefix itself is built once per
        // sample (outside the timed loop), exactly as the search caches it.
        let mut order: Vec<usize> = (0..obs.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            obs[a]
                .probe_cost
                .partial_cmp(&obs[b].probe_cost)
                .expect("finite probe costs")
                .then(a.cmp(&b))
        });
        let mut prefix = GramPrefix::new(NUM_VARS + 1);
        for &i in &order {
            let o = &obs[i];
            let mut z = Vec::with_capacity(NUM_VARS + 1);
            z.push(1.0);
            z.extend_from_slice(&o.x);
            prefix.push(&z, o.cost).expect("row width matches");
        }
        let sorted_probes: Vec<f64> = order.iter().map(|&i| obs[i].probe_cost).collect();
        let mut bounds = vec![0usize];
        for s in 0..NUM_STATES {
            bounds.push(sorted_probes.partition_point(|&pc| states.state_of(pc) <= s));
        }
        let (st, vi, vn) = (states.clone(), var_indexes.clone(), var_names.clone());
        h.bench(&format!("gram/n={n:05}"), 3, iters, || {
            let blocks: Vec<_> = (0..NUM_STATES)
                .map(|s| {
                    prefix
                        .range(bounds[s], bounds[s + 1])
                        .expect("bounds are valid prefix indexes")
                })
                .collect();
            ModelAccumulator::from_parts(
                ModelForm::General,
                st.clone(),
                vi.clone(),
                vn.clone(),
                blocks,
            )
            .expect("well-formed accumulator")
            .refit()
            .expect("fit succeeds")
        });

        // VIFs of the three variables over all n rows.
        let columns: Vec<Vec<f64>> = (0..NUM_VARS)
            .map(|j| obs.iter().map(|o| o.x[j]).collect())
            .collect();
        h.bench(&format!("vif/obs/n={n:05}"), 3, iters, || {
            variance_inflation_factors(&columns).expect("VIFs")
        });
        let mut block = GramAccumulator::new(NUM_VARS + 1);
        for o in &obs {
            let mut z = Vec::with_capacity(NUM_VARS + 1);
            z.push(1.0);
            z.extend_from_slice(&o.x);
            block.add_row(&z, o.cost).expect("row width matches");
        }
        let all: Vec<usize> = (0..NUM_VARS).collect();
        h.bench(&format!("vif/gram/n={n:05}"), 3, iters, || {
            gram_variance_inflation_factors(&block, &all).expect("VIFs")
        });
    }

    h.finish();
}
