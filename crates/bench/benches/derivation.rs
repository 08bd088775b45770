//! End-to-end derivation benchmarks: the full multi-states pipeline
//! (sampling → probing → state determination → variable selection → fit)
//! per query class, sampling alone (`sampling/collect_observations/*`),
//! plus ablations over the regression form and the probing-cost
//! estimator — the design choices DESIGN.md calls out.

use mdbs_bench::harness::Harness;
use mdbs_bench::workloads::Site;
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{collect_observations, derive_cost_model, DerivationConfig};
use mdbs_core::model::{fit_cost_model, ModelForm};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::qualvar::StateSet;
use mdbs_core::sampling::{planned_sample_size, SampleGenerator};
use mdbs_core::states::{StateAlgorithm, StatesConfig};

fn quick_cfg() -> DerivationConfig {
    DerivationConfig {
        states: StatesConfig {
            max_states: 4,
            ..StatesConfig::default()
        },
        sample_size: Some(160),
        fit_probe_estimator: false,
        ..DerivationConfig::default()
    }
}

fn main() {
    let mut h = Harness::new("derivation");

    for (class, name) in [
        (QueryClass::UnaryNoIndex, "unary_g1"),
        (QueryClass::UnaryNonClusteredIndex, "unary_g2"),
        (QueryClass::JoinNoIndex, "join_g3"),
    ] {
        h.bench(&format!("derive_cost_model/{name}"), 1, 10, || {
            let mut agent = Site::Oracle.dynamic_agent(31);
            derive_cost_model(
                &mut agent,
                class,
                StateAlgorithm::Iupma,
                &quick_cfg(),
                &mut PipelineCtx::seeded(32),
            )
            .expect("derivation succeeds")
        });
    }

    // Sampling alone, as derive runs it: eq. (4)'s sample size at the
    // default state budget, the eq. (2) probe log on. Each iteration starts
    // from a clone of one agent, so every run draws the same environment.
    for (class, name) in [
        (QueryClass::UnaryNoIndex, "unary_g1"),
        (QueryClass::JoinNoIndex, "join_g3"),
    ] {
        let n = planned_sample_size(class.family(), StatesConfig::default().max_states);
        let prototype = Site::Oracle.dynamic_agent(61);
        h.bench(
            &format!("sampling/collect_observations/{name}"),
            2,
            30,
            || {
                let mut agent = prototype.clone();
                let mut generator = SampleGenerator::new(62);
                let mut probe_log = Vec::with_capacity(n);
                collect_observations(&mut agent, class, n, &mut generator, Some(&mut probe_log))
                    .expect("collection succeeds")
            },
        );
    }

    // Ablation: the same observations fitted under each regression form of
    // paper Table 2 — quantifying what the general form costs over the
    // restricted ones.
    let mut agent = Site::Oracle.dynamic_agent(41);
    let mut generator = SampleGenerator::new(42);
    let obs = collect_observations(
        &mut agent,
        QueryClass::UnaryNoIndex,
        240,
        &mut generator,
        None,
    )
    .expect("collection succeeds");
    let (lo, hi) = obs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), o| {
            (a.min(o.probe_cost), b.max(o.probe_cost))
        });
    let states = StateSet::uniform(lo, hi, 4).expect("valid range");
    for form in [
        ModelForm::Parallel,
        ModelForm::Concurrent,
        ModelForm::General,
    ] {
        h.bench(&format!("form_ablation/{form:?}"), 5, 50, || {
            fit_cost_model(
                form,
                states.clone(),
                vec![0, 1, 2],
                vec!["N_O".into(), "N_I".into(), "N_R".into()],
                &obs,
            )
            .expect("fit succeeds")
        });
    }

    // Ablation: IUPMA vs ICMA inside the full pipeline on clustered loads.
    for (algo, name) in [
        (StateAlgorithm::Iupma, "iupma"),
        (StateAlgorithm::Icma, "icma"),
    ] {
        h.bench(&format!("algorithm_ablation/{name}"), 1, 10, || {
            let mut agent = Site::Oracle.clustered_agent(51);
            derive_cost_model(
                &mut agent,
                QueryClass::UnaryNoIndex,
                algo,
                &quick_cfg(),
                &mut PipelineCtx::seeded(52),
            )
            .expect("derivation succeeds")
        });
    }

    h.finish();
}
