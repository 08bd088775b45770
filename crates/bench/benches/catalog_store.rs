//! Binary snapshot store vs. the text catalog format.
//!
//! The serving paths load the catalog at every startup. This bench builds the
//! acceptance-criteria catalog — 2 vendors × 3 classes, every pair with
//! its Gram accumulator — in the join-family shape (8 candidate
//! variables including a cross product, 6 contention states, measured
//! full-precision costs) and measures:
//!
//! * `load/*` — full [`FileCatalogStore::load`] of the same catalog from
//!   the text file and from the binary file. Binary skips all float
//!   parsing/formatting and must be ≥ 5× faster.
//! * `size/*` — the on-disk bytes of each form, printed (not recorded:
//!   the report's `median_ns` is wall time). The binary form packs the
//!   symmetric Gram triangle and inherits accumulator shape from the model
//!   entry, and must be ≥ 3× smaller.
//!
//! Both properties are self-asserted, so CI fails if the binary
//! format loses its edge. Run with `--json PATH` for the machine report
//! (`BENCH_catalog.json` in the repo root is the committed reference).

use mdbs_bench::harness::Harness;
use mdbs_core::catalog::GlobalCatalog;
use mdbs_core::classes::QueryClass;
use mdbs_core::model::{fit_cost_model, CostModel, ModelAccumulator, ModelForm};
use mdbs_core::observation::Observation;
use mdbs_core::probing::ProbeCostEstimator;
use mdbs_core::qualvar::StateSet;
use mdbs_core::store::{CatalogFormat, CatalogSnapshot, CatalogStore, FileCatalogStore};
use mdbs_obs::Telemetry;
use mdbs_stats::Rng;
use std::path::PathBuf;

const NUM_STATES: usize = 6;
const CLASSES: [QueryClass; 3] = [
    QueryClass::JoinNoIndex,
    QueryClass::JoinIndexed,
    QueryClass::UnaryNonClusteredIndex,
];

/// Join-family observations: operand/intermediate cardinalities, sizes,
/// a cross-product term, and contention spread over [`NUM_STATES`]
/// states. Everything is measured (fractional), as in a live system —
/// full 52-bit mantissas, the text format's worst case and the honest
/// shape for sizing the binary one.
fn observations(n: usize, seed: u64) -> Vec<Observation> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let n_o = rng.gen_f64() * 400.0 + 1.0;
            let n_i = rng.gen_f64() * 150.0 + 1.0;
            let s_o = rng.gen_f64() * 90.0;
            let s_i = rng.gen_f64() * 40.0;
            let t_o = rng.gen_f64() * 12.0;
            let n_r = rng.gen_f64() * 200.0;
            let l_o = rng.gen_f64() * 120.0;
            let s = i % NUM_STATES;
            Observation {
                x: vec![n_o, n_i, s_o, s_i, n_r, t_o, l_o, n_o * n_i],
                cost: (s + 1) as f64 * (0.8 + 0.004 * n_o + 0.002 * n_i + 0.0007 * n_o * n_i)
                    + rng.gen_f64() * 0.25,
                probe_cost: s as f64 + 0.1 + rng.gen_f64() * 0.8,
            }
        })
        .collect()
}

fn join_model(obs: &[Observation]) -> CostModel {
    let states = StateSet::from_edges((0..=NUM_STATES).map(|s| s as f64).collect())
        .expect("ascending edges");
    fit_cost_model(
        ModelForm::General,
        states,
        (0..8).collect(),
        ["N_O", "N_I", "S_O", "S_I", "N_R", "T_O", "L_O", "N_O*N_I"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        obs,
    )
    .expect("fit succeeds")
}

/// `sites` × [`CLASSES`] with a model + accumulator per pair and a probe
/// estimator per site; `n` observations feed each accumulator.
fn snapshot(sites: &[&str], n: usize, version: u64) -> CatalogSnapshot {
    let mut catalog = GlobalCatalog::new();
    for (si, site) in sites.iter().enumerate() {
        for (ci, class) in CLASSES.iter().enumerate() {
            let obs = observations(n, 0xCA7A_0600 + (si * 8 + ci) as u64);
            let model = join_model(&obs);
            let acc = ModelAccumulator::from_observations(&model, &obs).expect("finite sample");
            catalog.insert_model((*site).into(), *class, model);
            catalog.insert_accumulator((*site).into(), *class, acc);
        }
        catalog.insert_probe_estimator(
            (*site).into(),
            ProbeCostEstimator {
                selected: vec![0, 2],
                names: vec!["cpu".into(), "io".into()],
                coefficients: vec![0.1031 + si as f64, 1.2517, 0.7741],
                r_squared: 0.9172,
                see: 0.0831,
            },
        );
    }
    CatalogSnapshot::at_version(catalog, version)
}

fn scratch(name: &str) -> PathBuf {
    // PID-scoped so concurrent bench runs never race on the same files.
    let dir = std::env::temp_dir().join(format!("mdbs-bench-catalog-store.{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn median_of(h: &Harness, name: &str) -> Option<u128> {
    h.results()
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.median_ns)
}

fn main() {
    let mut h = Harness::new("catalog_store");
    let mut tel = Telemetry::disabled();

    // --- the acceptance catalog: 2 vendors x 3 classes ------------------
    let snap = snapshot(&["oracle-a", "db2-b"], 420, 12);
    let text_path = scratch("catalog.txt");
    let bin_path = scratch("catalog.mdbc");
    let text_store = FileCatalogStore::new(&text_path, CatalogFormat::Text);
    let bin_store = FileCatalogStore::new(&bin_path, CatalogFormat::Binary);
    text_store.store(&snap, &mut tel).expect("write text");
    bin_store.store(&snap, &mut tel).expect("write binary");
    let text_bytes = std::fs::metadata(&text_path).expect("text file").len() as usize;
    let bin_bytes = std::fs::metadata(&bin_path).expect("binary file").len() as usize;

    println!("size/text_bytes   {text_bytes}");
    println!("size/binary_bytes {bin_bytes}");
    assert!(
        bin_bytes * 3 <= text_bytes,
        "binary snapshot must be >= 3x smaller: {bin_bytes} vs {text_bytes} bytes"
    );

    h.bench("load/text", 3, 60, || {
        text_store.load(&mut tel).expect("text load")
    });
    h.bench("load/binary", 3, 60, || {
        bin_store.load(&mut tel).expect("binary load")
    });
    if let (Some(t), Some(b)) = (median_of(&h, "load/text"), median_of(&h, "load/binary")) {
        assert!(
            b * 5 <= t,
            "binary load must be >= 5x faster: {b}ns vs {t}ns"
        );
    }

    h.finish();
}
