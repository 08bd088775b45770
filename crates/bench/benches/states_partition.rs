//! Benchmarks of contention-state machinery: 1-D agglomerative clustering
//! (one level, and the whole path ICMA walks), state lookup, and the full IUPMA/ICMA determination loop — the ablation
//! the paper's §3.3 motivates (uniform vs clustering-based partitioning).

use mdbs_bench::harness::Harness;
use mdbs_core::observation::Observation;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::qualvar::StateSet;
use mdbs_core::states::{determine_states, NoResampling, StateAlgorithm, StatesConfig};
use mdbs_stats::{cluster_1d, cluster_path_1d};
use std::hint::black_box;

/// Synthetic observations with `regimes` genuine contention regimes and
/// clustered probing costs.
fn clustered_observations(n: usize, regimes: usize) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let r = i % regimes;
            let x = (i % 29) as f64 * 40.0;
            let centre = 1.0 + r as f64 * 3.0;
            let probe = centre + ((i % 11) as f64 - 5.0) * 0.04;
            Observation {
                x: vec![x],
                cost: (r + 1) as f64 * (0.5 + 0.02 * x) + (i % 7) as f64 * 0.01,
                probe_cost: probe,
            }
        })
        .collect()
}

fn main() {
    let mut h = Harness::new("states_partition");

    for &n in &[200usize, 600, 2_000] {
        let probes: Vec<f64> = clustered_observations(n, 3)
            .iter()
            .map(|o| o.probe_cost)
            .collect();
        h.bench(&format!("cluster_1d/{n}"), 5, 50, || cluster_1d(&probes, 4));
        // ICMA's phase-1 proposals for m = 1..=6: one agglomeration that
        // records every level, against one agglomeration per level.
        h.bench(&format!("cluster_path/{n}"), 5, 50, || {
            cluster_path_1d(&probes, 6)
        });
        h.bench(&format!("cluster_1d_per_level/{n}"), 5, 50, || {
            (1..=6).map(|k| cluster_1d(&probes, k)).collect::<Vec<_>>()
        });
    }

    let states = StateSet::uniform(0.0, 10.0, 6).expect("valid partition");
    h.bench("state_of_lookup", 10, 200, || {
        let mut acc = 0usize;
        for i in 0..1_000 {
            acc += states.state_of(black_box(i as f64 * 0.011));
        }
        acc
    });

    for (algo, name) in [
        (StateAlgorithm::Iupma, "iupma"),
        (StateAlgorithm::Icma, "icma"),
    ] {
        for &n in &[300usize, 600] {
            let base = clustered_observations(n, 4);
            h.bench(&format!("determine_states/{name}/{n}"), 2, 20, || {
                let mut obs = base.clone();
                determine_states(
                    algo,
                    &mut obs,
                    &[0],
                    &["x".to_string()],
                    &StatesConfig::default(),
                    &mut NoResampling,
                    &mut PipelineCtx::default(),
                )
                .expect("determination succeeds")
            });
        }
    }

    h.finish();
}
