//! Old-vs-new fit parity: the sufficient-statistics (Gram) engine must
//! reproduce the legacy full-QR path.
//!
//! Three layers of evidence:
//!
//! 1. **Solver parity** — on seeded noisy designs, `GramAccumulator::solve`
//!    matches `OlsFit::fit` statistic-for-statistic to a mixed 1e-9
//!    tolerance (the two paths share every downstream formula; the only
//!    difference is QR-over-observations vs normal equations).
//! 2. **Pipeline parity** — full derivations run under
//!    [`FitEngine::FullRefit`] and [`FitEngine::Gram`] export *byte
//!    identical* catalogs, across vendors, classes and both state
//!    algorithms. The search may score candidates differently at the last
//!    bit, but the published model is always the canonical QR refit, so the
//!    catalogs must agree exactly.
//! 3. **Rank-deficient parity** — partitions that isolate a collinear band
//!    are skipped (not fatal) under both engines, with the same final
//!    model and a counted skip under Gram.

use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::model::FitEngine;
use mdbs_core::observation::Observation;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::{determine_states, NoResampling, StateAlgorithm, StatesConfig};
use mdbs_core::GlobalCatalog;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};
use mdbs_stats::{gram_coefficient_inference, GramAccumulator, Matrix, OlsFit, Rng};

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

fn config_with_engine(engine: FitEngine) -> DerivationConfig {
    let mut cfg = DerivationConfig::quick();
    cfg.states.engine = engine;
    cfg.selection.engine = engine;
    cfg
}

/// Derives a small catalog (vendors × classes × algorithms) under one
/// engine.
fn derive_catalog(engine: FitEngine) -> GlobalCatalog {
    let mut catalog = GlobalCatalog::new();
    let cfg = config_with_engine(engine);
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
            catalog.insert_model(format!("{vendor}-site").into(), class, derived.model);
        }
    }
    catalog
}

#[test]
fn pipeline_catalogs_are_byte_identical_across_engines() {
    let legacy = derive_catalog(FitEngine::FullRefit);
    let gram = derive_catalog(FitEngine::Gram);
    assert_eq!(
        legacy.export(),
        gram.export(),
        "FullRefit and Gram engines published different catalogs"
    );
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
fn rank_deficient_partitions_skip_identically_across_engines() {
    let run = |engine: FitEngine| {
        let mut obs = collinear_band_observations();
        let cfg = StatesConfig {
            engine,
            ..StatesConfig::default()
        };
        let mut ctx = PipelineCtx::traced(0);
        let result = determine_states(
            StateAlgorithm::Iupma,
            &mut obs,
            &[0],
            &["x".to_string()],
            &cfg,
            &mut NoResampling,
            &mut ctx,
        )
        .expect("singular proposals must not abort determination");
        (result, ctx)
    };
    let (legacy, legacy_ctx) = run(FitEngine::FullRefit);
    let (gram, gram_ctx) = run(FitEngine::Gram);
    assert_eq!(gram.model, legacy.model, "published models diverged");
    assert_eq!(gram.merges, legacy.merges);
    for ctx in [&legacy_ctx, &gram_ctx] {
        assert!(
            ctx.telemetry
                .metrics
                .counter("states.rank_deficient_skipped")
                >= 1,
            "the collinear upper band must trigger at least one skip"
        );
    }
    assert!(
        gram_ctx.telemetry.metrics.counter("fit.gram.solves") >= 1,
        "Gram engine did not actually score candidates via Gram"
    );
}
