//! Gram-candidate parity: every candidate the derivation search scores
//! from sufficient statistics must agree with the QR fit that publishes
//! models ([`fit_cost_model`]).
//!
//! Three layers of evidence:
//!
//! 1. **Solver parity** — on seeded noisy designs, `GramAccumulator::solve`
//!    matches `OlsFit::fit` statistic-for-statistic to a mixed 1e-9
//!    tolerance (the two paths share every downstream formula; the only
//!    difference is QR-over-observations vs normal equations).
//! 2. **Candidate parity** — on six derivations (two vendors × three
//!    classes, both state algorithms), every candidate family the search
//!    scores is built the way the search builds it and solved by
//!    `ModelAccumulator::from_parts(..).refit()`: the uniform partitions
//!    m = 1..6 and every ICMA cut level of the basic variables (`GramPrefix`
//!    ranges over the probe-sorted rows), each adjacent-pair merge of those
//!    (block `+=`), and the drop-one and add-one variable sets around the
//!    published model (`subset` of the full-width state blocks). Each is
//!    held to `fit_cost_model` of the same candidate: R² and SEE within
//!    1e-12 relative, every adjusted coefficient within
//!    `1e-3·(1 + max(|a|, |b|))` (the normal equations square the
//!    condition number, so coefficients agree far less closely than the
//!    fit statistics), the same `CoreError` variant when either route
//!    fails, and the same first phase-2 merge index.
//! 3. **Rank-deficient parity** — partitions that isolate a collinear band
//!    are skipped (not fatal) by the search, which counts the skips and its
//!    Gram solves, and the two routes agree on which uniform partitions of
//!    the band fit and how the others fail.

use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig, DerivedModel};
use mdbs_core::model::fit_cost_model;
use mdbs_core::observation::Observation;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::{determine_states, NoResampling, StateAlgorithm, StatesConfig};
use mdbs_core::{CoreError, CostModel, ModelAccumulator, ModelForm, StateSet};
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};
use mdbs_stats::{
    cluster_path_1d, gram_coefficient_inference, GramAccumulator, GramPrefix, Matrix, OlsFit, Rng,
};

/// Mixed absolute/relative closeness at the parity tolerance.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(close(a, b), "{what}: {a} vs {b}");
}

#[test]
fn gram_solve_matches_full_qr_statistics() {
    let mut rng = Rng::seed_from_u64(0xFACADE);
    for &(n, k) in &[(20usize, 3usize), (60, 5), (200, 8), (500, 12)] {
        for has_intercept in [true, false] {
            // Noisy target: an exact-fit design would push SSE into
            // catastrophic cancellation territory, which the tolerance
            // deliberately does not cover (and the pipeline never sees).
            let mut rows = Vec::with_capacity(n);
            let mut y = Vec::with_capacity(n);
            let mut acc = GramAccumulator::new(k);
            for _ in 0..n {
                let mut row = Vec::with_capacity(k);
                if has_intercept {
                    row.push(1.0);
                }
                while row.len() < k {
                    row.push(rng.gen_f64() * 100.0);
                }
                let target: f64 = row
                    .iter()
                    .enumerate()
                    .map(|(j, v)| v * (j as f64 + 0.5) * 0.02)
                    .sum::<f64>()
                    + rng.gen_f64() * 5.0;
                acc.add_row(&row, target).expect("row width matches");
                rows.push(row);
                y.push(target);
            }
            let x = Matrix::from_rows(&rows).expect("rectangular");
            let qr = OlsFit::fit(&x, &y, has_intercept).expect("full rank");
            let gram = acc.solve(has_intercept).expect("full rank");
            let inference =
                gram_coefficient_inference(std::slice::from_ref(&acc), &gram).expect("full rank");

            let what = format!("n={n} k={k} intercept={has_intercept}");
            assert_eq!(gram.n, qr.n, "{what}: n");
            assert_eq!(gram.k, qr.k, "{what}: k");
            for j in 0..k {
                assert_close(
                    gram.coefficients[j],
                    qr.coefficients[j],
                    &format!("{what}: β[{j}]"),
                );
                assert_close(
                    inference.std_errors[j],
                    qr.coef_std_errors[j],
                    &format!("{what}: se[{j}]"),
                );
                assert_close(
                    inference.t_statistics[j],
                    qr.t_statistics[j],
                    &format!("{what}: t[{j}]"),
                );
                assert_close(
                    inference.t_p_values[j],
                    qr.t_p_values[j],
                    &format!("{what}: t_p[{j}]"),
                );
            }
            assert_close(gram.sse, qr.sse, &format!("{what}: SSE"));
            assert_close(gram.sst, qr.sst, &format!("{what}: SST"));
            assert_close(gram.r_squared, qr.r_squared, &format!("{what}: R²"));
            assert_close(
                gram.adj_r_squared,
                qr.adj_r_squared,
                &format!("{what}: adj R²"),
            );
            assert_close(gram.see, qr.see, &format!("{what}: SEE"));
            assert_close(gram.f_statistic, qr.f_statistic, &format!("{what}: F"));
            assert_close(gram.f_p_value, qr.f_p_value, &format!("{what}: F p"));
        }
    }
}

fn agent_for(vendor: &str, env_seed: u64) -> MdbsAgent {
    let profile = match vendor {
        "oracle8" => VendorProfile::oracle8(),
        "db2v5" => VendorProfile::db2v5(),
        other => panic!("unknown vendor {other}"),
    };
    let mut agent = MdbsAgent::new(profile, standard_database(42), env_seed);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 5.0,
        hi: 125.0,
    }));
    agent
}

/// Derives the six models of the candidate sweep (vendors × classes,
/// both state algorithms) at the quick configuration.
fn derivations() -> Vec<(String, DerivedModel)> {
    let cfg = DerivationConfig::quick();
    let mut out = Vec::new();
    for (vendor, env_seed) in [("oracle8", 11u64), ("db2v5", 12)] {
        for (class, algorithm, seed) in [
            (QueryClass::UnaryNoIndex, StateAlgorithm::Iupma, 7u64),
            (QueryClass::UnaryClusteredIndex, StateAlgorithm::Icma, 8),
            (QueryClass::JoinNoIndex, StateAlgorithm::Iupma, 9),
        ] {
            let mut agent = agent_for(vendor, env_seed);
            let derived = derive_cost_model(
                &mut agent,
                class,
                algorithm,
                &cfg,
                &mut PipelineCtx::seeded(seed),
            )
            .expect("derivation succeeds");
            out.push((format!("{vendor}/{class:?}/{algorithm:?}"), derived));
        }
    }
    out
}

/// The form the search fits over `states`.
fn form_for(states: &StateSet) -> ModelForm {
    if states.is_single() {
        ModelForm::Coincident
    } else {
        ModelForm::General
    }
}

fn names(vars: &[usize]) -> Vec<String> {
    vars.iter().map(|j| format!("x{j}")).collect()
}

/// The search's route to a candidate: its per-state Gram blocks, solved
/// as the search solves them.
fn gram_route(
    states: &StateSet,
    vars: &[usize],
    blocks: Vec<GramAccumulator>,
) -> Result<CostModel, CoreError> {
    ModelAccumulator::from_parts(
        form_for(states),
        states.clone(),
        vars.to_vec(),
        names(vars),
        blocks,
    )?
    .refit()
}

/// The publishing route: one QR per contention state over the observations.
fn qr_route(
    states: &StateSet,
    vars: &[usize],
    observations: &[Observation],
) -> Result<CostModel, CoreError> {
    fit_cost_model(
        form_for(states),
        states.clone(),
        vars.to_vec(),
        names(vars),
        observations,
    )
}

/// The states search's cache: rows `[1, x[vars]…]` pushed into a
/// `GramPrefix` in probing-cost order (ties by observation index), so a
/// partition's state blocks are prefix ranges.
struct ProbeSorted {
    probes: Vec<f64>,
    prefix: GramPrefix,
}

impl ProbeSorted {
    fn new(observations: &[Observation], vars: &[usize]) -> ProbeSorted {
        let mut order: Vec<(f64, usize)> = observations
            .iter()
            .enumerate()
            .map(|(i, o)| (o.probe_cost, i))
            .collect();
        order.sort_unstable_by(|(pa, a), (pb, b)| {
            pa.partial_cmp(pb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        let mut prefix = GramPrefix::new(vars.len() + 1);
        for &(_, i) in &order {
            let o = &observations[i];
            let z: Vec<f64> = std::iter::once(1.0)
                .chain(vars.iter().map(|&j| o.x[j]))
                .collect();
            prefix.push(&z, o.cost).expect("row width matches");
        }
        let probes = order.into_iter().map(|(probe, _)| probe).collect();
        ProbeSorted { probes, prefix }
    }

    fn blocks(&self, states: &StateSet) -> Vec<GramAccumulator> {
        let m = states.len();
        let mut bounds = vec![0];
        for s in 0..m - 1 {
            bounds.push(self.probes.partition_point(|&pc| states.state_of(pc) <= s));
        }
        bounds.push(self.probes.len());
        bounds
            .windows(2)
            .map(|w| self.prefix.range(w[0], w[1]).expect("range in bounds"))
            .collect()
    }
}

/// Selection's state blocks: rows `[1, x_0..x_{width-1}]` added in
/// observation order to their state's block.
fn state_blocks(
    observations: &[Observation],
    states: &StateSet,
    width: usize,
) -> Vec<GramAccumulator> {
    let mut blocks = vec![GramAccumulator::new(width + 1); states.len()];
    for o in observations {
        let z: Vec<f64> = std::iter::once(1.0)
            .chain(o.x[..width].iter().copied())
            .collect();
        blocks[states.state_of(o.probe_cost)]
            .add_row(&z, o.cost)
            .expect("row width matches");
    }
    blocks
}

/// Phase 2's merge rule: the first adjacent pair whose adjusted
/// coefficients differ by a maximum relative error below 0.15.
fn first_merge(coefficients: &[Vec<f64>]) -> Option<usize> {
    let rel = |a: &[f64], b: &[f64]| {
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
    };
    (0..coefficients.len().saturating_sub(1))
        .find(|&i| rel(&coefficients[i], &coefficients[i + 1]) < 0.15)
}

/// Both routes fit (the two models), or both fail with the same error
/// variant, down to the numeric error's kind (`None`).
fn agree(
    at: &str,
    gram: Result<CostModel, CoreError>,
    qr: Result<CostModel, CoreError>,
) -> Option<(CostModel, CostModel)> {
    match (gram, qr) {
        (Ok(g), Ok(q)) => Some((g, q)),
        (Err(g), Err(q)) => {
            let same = match (&g, &q) {
                (CoreError::Numeric(x), CoreError::Numeric(y)) => {
                    std::mem::discriminant(x) == std::mem::discriminant(y)
                }
                _ => std::mem::discriminant(&g) == std::mem::discriminant(&q),
            };
            assert!(same, "{at}: Gram {g:?} vs QR {q:?}");
            None
        }
        (g, q) => panic!("{at}: Gram {g:?} vs QR {q:?}"),
    }
}

/// Counts over the sweep.
#[derive(Default, Debug)]
struct Sweep {
    fitted: usize,
    failed: usize,
    merge_rules: usize,
}

impl Sweep {
    fn compare(
        &mut self,
        at: &str,
        gram: Result<CostModel, CoreError>,
        qr: Result<CostModel, CoreError>,
    ) {
        let Some((gram, qr)) = agree(at, gram, qr) else {
            self.failed += 1;
            return;
        };
        for (what, a, b) in [
            ("R²", gram.fit.r_squared, qr.fit.r_squared),
            ("SEE", gram.fit.see, qr.fit.see),
        ] {
            let rel = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
            assert!(rel <= 1e-12, "{at}: {what} {a} vs {b} ({rel:e} relative)");
        }
        for (s, (g, q)) in gram.coefficients.iter().zip(&qr.coefficients).enumerate() {
            for (j, (&a, &b)) in g.iter().zip(q).enumerate() {
                let gap = (a - b).abs() / (1.0 + a.abs().max(b.abs()));
                assert!(gap <= 1e-3, "{at}: b[{s}][{j}] {a} vs {b} ({gap:e} mixed)");
            }
        }
        if gram.num_states() > 1 {
            assert_eq!(
                first_merge(&gram.coefficients),
                first_merge(&qr.coefficients),
                "{at}: first merge index"
            );
            self.merge_rules += 1;
        }
        self.fitted += 1;
    }
}

#[test]
fn gram_candidates_match_the_qr_fit() {
    let mut sweep = Sweep::default();
    for (label, derived) in derivations() {
        let obs = &derived.observations;
        let family = derived.class.family();

        // The states search: the basic variables, prefix ranges over the
        // probe-sorted rows, every proposal it can make, and each
        // adjacent-pair merge of a proposal.
        let basic = family.basic_indexes();
        let sorted = ProbeSorted::new(obs, &basic);
        let (c_min, c_max) = (sorted.probes[0], sorted.probes[sorted.probes.len() - 1]);
        let probes: Vec<f64> = obs.iter().map(|o| o.probe_cost).collect();
        let path = cluster_path_1d(&probes, 6);
        let mut partitions = vec![("uniform m=1".to_string(), StateSet::single())];
        for m in 2..=6 {
            let uniform = StateSet::uniform(c_min, c_max, m).expect("probe range is wide");
            partitions.push((format!("uniform m={m}"), uniform));
            let cut = StateSet::from_clusters(&path[m - 1]).expect("clusters are ordered");
            partitions.push((format!("ICMA level {m}"), cut));
        }
        for (name, states) in &partitions {
            let blocks = sorted.blocks(states);
            let at = format!("{label} {name}");
            sweep.compare(
                &at,
                gram_route(states, &basic, blocks.clone()),
                qr_route(states, &basic, obs),
            );
            for i in 0..states.len().saturating_sub(1) {
                let merged = states.merge_with_next(i).expect("adjacent pair");
                let mut blocks = blocks.clone();
                let right = blocks.remove(i + 1);
                blocks[i] += &right;
                sweep.compare(
                    &format!("{at} merge {i}"),
                    gram_route(&merged, &basic, blocks),
                    qr_route(&merged, &basic, obs),
                );
            }
        }

        // Variable selection: the published partition, column subsets of
        // the full-width state blocks, the published variable set and its
        // drop-one and add-one neighbours.
        let states = &derived.model.states;
        let width = family.all().len();
        let full = state_blocks(obs, states, width);
        let published = &derived.model.var_indexes;
        let mut sets = vec![published.clone()];
        if published.len() > 1 {
            for &j in published {
                sets.push(published.iter().copied().filter(|&i| i != j).collect());
            }
        }
        for j in (0..width).filter(|j| !published.contains(j)) {
            let mut set = published.clone();
            set.push(j);
            set.sort_unstable();
            sets.push(set);
        }
        for vars in sets {
            let cols: Vec<usize> = std::iter::once(0)
                .chain(vars.iter().map(|&j| j + 1))
                .collect();
            let blocks = full
                .iter()
                .map(|b| b.subset(&cols).expect("columns in range"))
                .collect();
            sweep.compare(
                &format!("{label} variables {vars:?}"),
                gram_route(states, &vars, blocks),
                qr_route(states, &vars, obs),
            );
        }
    }
    // The sweep fits 164 candidates (146 of them multi-state) and sees 143
    // thin partitions fail in both routes; the floors keep it from going
    // vacuous.
    assert!(sweep.fitted >= 150, "{sweep:?}");
    assert!(sweep.merge_rules >= 100, "{sweep:?}");
    assert!(sweep.failed >= 1, "{sweep:?}");
}

/// The collinear-band dataset from the states unit tests: any partition
/// isolating the upper half produces a singular per-state design.
fn collinear_band_observations() -> Vec<Observation> {
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
}

#[test]
fn rank_deficient_partitions_are_skipped_and_fail_alike_in_both_routes() {
    let mut obs = collinear_band_observations();
    let mut ctx = PipelineCtx::traced(0);
    let result = determine_states(
        StateAlgorithm::Iupma,
        &mut obs,
        &[0],
        &["x".to_string()],
        &StatesConfig::default(),
        &mut NoResampling,
        &mut ctx,
    )
    .expect("singular proposals must not abort determination");
    assert_eq!(result.model.num_states(), 1);
    let metrics = &ctx.telemetry.metrics;
    assert!(
        metrics.counter("states.rank_deficient_skipped") >= 1,
        "the collinear upper band must trigger at least one skip"
    );
    assert!(
        metrics.counter("fit.gram.solves") >= 1,
        "the search did not score candidates from Gram blocks"
    );

    let sorted = ProbeSorted::new(&obs, &[0]);
    let (c_min, c_max) = (sorted.probes[0], sorted.probes[sorted.probes.len() - 1]);
    // One state fits; every split isolates part of the band. The fit is
    // near exact, below the resolution of SSE from the normal equations,
    // so only the outcomes are compared.
    for m in 1..=6 {
        let states = StateSet::uniform(c_min, c_max, m).expect("probe range is wide");
        let gram = gram_route(&states, &[0], sorted.blocks(&states));
        let qr = qr_route(&states, &[0], &obs);
        let fitted = agree(&format!("collinear band m={m}"), gram, qr).is_some();
        assert_eq!(fitted, m == 1, "m={m}");
    }
}
