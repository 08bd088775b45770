//! The versioned snapshot store end to end: a genuinely derived
//! multi-vendor, multi-class catalog (with accumulators) survives
//! text → binary → text byte-identically, corrupt files fail cleanly
//! with a typed error, and a seeded sweep of mutated binary and text
//! catalogs never panics or aborts anywhere from load to estimate.

use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::QueryClass;
use mdbs_core::correction::EstimateQuery;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::maintenance::MaintenanceConfig;
use mdbs_core::model::ModelAccumulator;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::sampling::SampleGenerator;
use mdbs_core::server::fleet_from_snapshot;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::{
    snapshot_from_bytes, snapshot_to_bytes, CatalogFormat, CatalogSnapshot, CatalogStore,
    FileCatalogStore, StoreError, BINARY_MAGIC,
};
use mdbs_core::CoreError;
use mdbs_obs::Telemetry;
use mdbs_sim::catalog::LocalCatalog;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::query::Query;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};
use mdbs_stats::rng::Rng;
use mdbs_stats::suffstats::push_f64_compact;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const CLASSES: [QueryClass; 3] = [
    QueryClass::UnaryNoIndex,
    QueryClass::UnaryNonClusteredIndex,
    QueryClass::UnaryClusteredIndex,
];

/// Two vendors × three classes, every pair carrying its accumulator, one
/// probe estimator per site — the catalog shape the acceptance criteria
/// name, populated by real derivations rather than hand-built models.
fn derived_snapshot(version: u64) -> CatalogSnapshot {
    let mut catalog = GlobalCatalog::new();
    for (site_name, profile, seed) in [
        ("oracle-a", VendorProfile::oracle8(), 42),
        ("db2-b", VendorProfile::db2v5(), 43),
    ] {
        let site: SiteId = site_name.into();
        let mut agent = MdbsAgent::new(profile, standard_database(seed), 50);
        agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
            lo: 20.0,
            hi: 125.0,
        }));
        let cfg = DerivationConfig {
            sample_size: Some(150),
            fit_probe_estimator: true,
            ..DerivationConfig::default()
        };
        for class in CLASSES {
            let derived = derive_cost_model(
                &mut agent,
                class,
                StateAlgorithm::Iupma,
                &cfg,
                &mut PipelineCtx::seeded(seed + 7),
            )
            .expect("derivation succeeds");
            let acc = ModelAccumulator::from_observations(&derived.model, &derived.observations)
                .expect("finite sample");
            if let Some(est) = derived.probe_estimator() {
                catalog.insert_probe_estimator(site.clone(), est.expect("estimator fits"));
            }
            catalog.insert_model(site.clone(), class, derived.model);
            catalog.insert_accumulator(site.clone(), class, acc);
        }
    }
    CatalogSnapshot::at_version(catalog, version)
}

fn scratch(name: &str) -> PathBuf {
    // PID-scoped so concurrent test runs never race on the same files.
    let dir = std::env::temp_dir().join(format!("mdbs-catalog-store-it.{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn text_binary_text_round_trip_preserves_catalog_bytes() {
    let snap = derived_snapshot(9);
    let mut tel = Telemetry::enabled();

    let text_path = scratch("roundtrip.txt");
    let text_store = FileCatalogStore::new(&text_path, CatalogFormat::Text);
    text_store.store(&snap, &mut tel).unwrap();
    let original_text = std::fs::read(&text_path).unwrap();

    // text → binary
    let bin_path = scratch("roundtrip.mdbc");
    let loaded = FileCatalogStore::sniffing(&text_path)
        .load(&mut tel)
        .unwrap();
    assert_eq!(loaded.version, 9, "snapshot version survives the text form");
    let bin_store = FileCatalogStore::new(&bin_path, CatalogFormat::Binary);
    bin_store.store(&loaded, &mut tel).unwrap();
    let binary = std::fs::read(&bin_path).unwrap();
    assert!(binary.starts_with(&BINARY_MAGIC));
    assert!(
        binary.len() * 2 < original_text.len(),
        "binary catalog not compact: {} vs {} bytes",
        binary.len(),
        original_text.len()
    );

    // binary → text: byte-identical to the first text export, Gram
    // accumulator blocks included.
    let back = FileCatalogStore::sniffing(&bin_path)
        .load(&mut tel)
        .unwrap();
    let final_path = scratch("roundtrip-back.txt");
    FileCatalogStore::new(&final_path, CatalogFormat::Text)
        .store(&back, &mut tel)
        .unwrap();
    assert_eq!(
        std::fs::read(&final_path).unwrap(),
        original_text,
        "text -> binary -> text must preserve catalog bytes exactly"
    );
    // The binary form itself is byte-stable under re-encode.
    assert_eq!(snapshot_to_bytes(&back), binary);
}

#[test]
fn corrupt_files_fail_cleanly() {
    let snap = derived_snapshot(1);
    let path = scratch("corrupt.mdbc");
    let mut tel = Telemetry::enabled();
    let store = FileCatalogStore::new(&path, CatalogFormat::Binary);
    store.store(&snap, &mut tel).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Truncated file.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let msg = format!("{}", store.load(&mut tel).unwrap_err());
    assert!(msg.contains("catalog binary error"), "{msg}");

    // Bad magic: neither MDBC nor UTF-8 text header.
    let mut bad = good.clone();
    bad[0] = 0xFE;
    std::fs::write(&path, &bad).unwrap();
    assert!(store.load(&mut tel).is_err());

    // Wrong container format version.
    let mut bad = good.clone();
    bad[4] = 0x63;
    std::fs::write(&path, &bad).unwrap();
    let msg = format!("{}", store.load(&mut tel).unwrap_err());
    assert!(msg.contains("format version"), "{msg}");

    // Frames this version does not accept: a delta frame after the
    // snapshot, a second snapshot frame, and an unknown kind in place of
    // the snapshot. Each is a typed corruption error, never a panic.
    let frame = |kind: u8, payload: &[u8]| {
        let mut out = vec![kind];
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out
    };
    let header = &good[..8];
    let snapshot_frame = &good[8..];
    let cases = [
        (
            [&good[..], &frame(b'D', &[0; 20])].concat(),
            "unknown frame kind 68",
        ),
        (
            [&good[..], snapshot_frame].concat(),
            "second snapshot frame",
        ),
        (
            [header, &frame(b'Z', &[])].concat(),
            "unknown frame kind 90",
        ),
    ];
    for (bytes, expected) in cases {
        std::fs::write(&path, &bytes).unwrap();
        match store.load(&mut tel) {
            Err(StoreError::Corrupt(e)) => assert!(e.to_string().contains(expected), "{e}"),
            other => panic!("expected a corruption error ({expected}), got {other:?}"),
        }
    }
}

#[test]
fn missing_file_loads_as_empty_only_through_load_or_empty() {
    let path = scratch("never-written.mdbc");
    let _ = std::fs::remove_file(&path);
    let store = FileCatalogStore::sniffing(&path);
    let mut tel = Telemetry::enabled();
    let snap = store.load_or_empty(&mut tel).unwrap();
    assert_eq!(snap.version, 0);
    assert!(snap.catalog.is_empty());
    // The strict path reports the IO failure instead.
    let msg = format!("{}", store.load(&mut tel).unwrap_err());
    assert!(msg.contains("cannot read"), "{msg}");
}

/// A Gram block whose variable count the file cannot hold used to
/// allocate `k * k` floats up front — an abort no unwinding can catch.
/// The load now fails with a typed corruption error instead.
#[test]
fn oversized_gram_block_is_a_typed_error() {
    let snap = derived_snapshot(2);
    let mut bytes = snapshot_to_bytes(&snap);
    let site: SiteId = "oracle-a".into();
    let block = snap
        .catalog
        .accumulator(&site, CLASSES[0])
        .expect("derived with its accumulator")
        .blocks()[0]
        .to_bytes();
    let at = bytes
        .windows(block.len())
        .position(|w| w == block.as_slice())
        .expect("the block is stored verbatim");
    bytes[at..at + 4].copy_from_slice(&0x0fff_ffffu32.to_le_bytes());
    let path = scratch("huge-gram.mdbc");
    std::fs::write(&path, &bytes).unwrap();
    match FileCatalogStore::sniffing(&path).load(&mut Telemetry::disabled()) {
        Err(StoreError::Corrupt(e)) => assert!(e.to_string().contains("bytes left"), "{e}"),
        other => panic!("expected a corruption error, got {other:?}"),
    }
}

/// A model whose variable indexes run past its class's variable family
/// used to load and then panic on its first estimate. Both decoders now
/// reject it with a typed error.
#[test]
fn out_of_range_variable_index_is_a_typed_error() {
    let mut snap = derived_snapshot(2);
    let site: SiteId = "db2-b".into();
    let mut model = snap.catalog.model(&site, CLASSES[1]).unwrap().clone();
    model.var_indexes[0] = 230;
    snap.catalog.insert_model(site, CLASSES[1], model);
    let text = snap.catalog.export_versioned(snap.version);
    for (format, bytes) in [
        ("binary", snapshot_to_bytes(&snap)),
        ("text", text.into_bytes()),
    ] {
        let path = scratch(&format!("bad-var-index.{format}"));
        std::fs::write(&path, &bytes).unwrap();
        match FileCatalogStore::sniffing(&path).load(&mut Telemetry::disabled()) {
            Err(StoreError::Corrupt(e)) => {
                assert!(
                    e.to_string().contains("variable index 230"),
                    "{format}: {e}"
                )
            }
            other => panic!("{format}: expected a corruption error, got {other:?}"),
        }
    }
}

/// A NaN state edge compares false with its neighbours, so a check
/// written as "`next <= previous` is an error" let it through and every
/// probe cost then fell into the wrong state. Both decoders now reject a
/// model whose second edge is NaN with a typed error.
#[test]
fn nan_state_edge_is_a_typed_error() {
    let snap = derived_snapshot(2);
    let site: SiteId = "oracle-a".into();
    let edges = snap
        .catalog
        .model(&site, CLASSES[0])
        .unwrap()
        .states
        .edges();

    // Text: the first model's `states` line, second value.
    let text = snap.catalog.export_versioned(snap.version);
    let (before, rest) = text.split_once("\nstates ").expect("a states line");
    let (line, after) = rest.split_once('\n').expect("line ends");
    let mut values: Vec<&str> = line.split(' ').collect();
    values[1] = "NaN";
    let bad_text = format!("{before}\nstates {}\n{after}", values.join(" "));

    // Binary: the edge list as the model entry stores it (a u16 count,
    // then compact floats), its second edge swapped for a NaN of the same
    // encoded length, so every length prefix stays valid.
    let mut list = (edges.len() as u16).to_le_bytes().to_vec();
    push_f64_compact(&mut list, edges[0]);
    let second_at = list.len();
    push_f64_compact(&mut list, edges[1]);
    let second_len = list.len() - second_at;
    for &edge in &edges[2..] {
        push_f64_compact(&mut list, edge);
    }
    let nan = f64::from_bits(0x7ff8_0000_0000_0000 | 1u64 << (8 * (9 - second_len)));
    let mut swap = Vec::new();
    push_f64_compact(&mut swap, nan);
    assert!(nan.is_nan());
    assert_eq!(swap.len(), second_len);
    let mut bytes = snapshot_to_bytes(&snap);
    let at = bytes
        .windows(list.len())
        .position(|w| w == list.as_slice())
        .expect("the edge list is stored verbatim")
        + second_at;
    bytes[at..at + second_len].copy_from_slice(&swap);

    for (format, bytes) in [("binary", bytes), ("text", bad_text.into_bytes())] {
        let path = scratch(&format!("nan-edge.{format}"));
        std::fs::write(&path, &bytes).unwrap();
        match FileCatalogStore::sniffing(&path).load(&mut Telemetry::disabled()) {
            Err(StoreError::Corrupt(e)) => {
                assert!(
                    e.to_string().contains("strictly increasing"),
                    "{format}: {e}"
                )
            }
            other => panic!("{format}: expected a corruption error, got {other:?}"),
        }
    }
}

/// Tokens a text mutation swaps in: non-finite and out-of-range numbers,
/// huge counts and indexes, keywords out of place, and garbage.
const TOKENS: &[&str] = &[
    "nan",
    "inf",
    "-inf",
    "1e309",
    "-1",
    "0",
    "230",
    "4294967296",
    "18446744073709551616",
    "1e-320",
    "end",
    "vars",
    "coef",
    "0:N_O",
    "230:N_O",
    "G9",
    "",
    "x",
];

/// Flips 1–4 random bytes.
fn flip_bytes(rng: &mut Rng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let i = rng.gen_range(0..bytes.len());
        bytes[i] ^= rng.gen_range(1..256u32) as u8;
    }
    bytes
}

/// One text mutation: byte flips, a token swap, or a dropped, duplicated
/// or truncated line.
fn mutate_text(rng: &mut Rng, base: &str) -> String {
    let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
    let i = rng.gen_range(0..lines.len());
    match rng.gen_range(0..6u32) {
        0 => return String::from_utf8_lossy(&flip_bytes(rng, base.as_bytes())).into_owned(),
        1 | 2 => {
            let mut words: Vec<&str> = lines[i].split_whitespace().collect();
            if !words.is_empty() {
                let w = rng.gen_range(0..words.len());
                words[w] = rng.choose(TOKENS).copied().unwrap_or("");
            }
            lines[i] = words.join(" ");
        }
        3 => {
            lines.remove(i);
        }
        4 => {
            let copy = lines[i].clone();
            lines.insert(i, copy);
        }
        _ => {
            let cut = rng.gen_range(0..=lines[i].len());
            lines[i] = lines[i].chars().take(cut).collect();
        }
    }
    lines.join("\n") + "\n"
}

/// One sweep case past a successful load: build the registry and the
/// maintainer fleet, then price every probe query at every site. Any
/// answer must be finite; a fleet that cannot be built is a typed error.
fn serve_case(
    snap: &CatalogSnapshot,
    schema: &LocalCatalog,
    queries: &[Query],
) -> Result<(), CoreError> {
    let registry = ModelRegistry::from_snapshot(snap);
    let fleet = fleet_from_snapshot(
        snap,
        MaintenanceConfig::default(),
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
        |_| true,
    );
    for site in snap.catalog.sites() {
        for query in queries {
            for probe in [0.5, 20.0, 1e4] {
                if let Some(detail) =
                    registry.estimate(&EstimateQuery::raw(&site, schema, query, probe))
                {
                    assert!(
                        detail.estimate.is_finite(),
                        "non-finite estimate {} at {site}",
                        detail.estimate
                    );
                }
            }
        }
    }
    fleet.map(|_| ())
}

/// The loader sweep: seeded byte flips of the binary form
/// and seeded mutations of the text form of a derived catalog, each pushed
/// through load → registry → fleet → estimate. No case may panic or abort;
/// each ends in a typed error or in finite answers.
#[test]
fn seeded_loader_sweep_never_panics() {
    const CASES: usize = 10_000;
    let snap = derived_snapshot(4);
    let binary = snapshot_to_bytes(&snap);
    let text = snap.catalog.export_versioned(snap.version);
    let schema = standard_database(42);
    let mut generator = SampleGenerator::new(5);
    let queries: Vec<Query> = CLASSES
        .iter()
        .map(|&class| generator.generate(class, &schema))
        .collect();
    // The unmutated catalog serves.
    serve_case(&snap, &schema, &queries).expect("the derived catalog serves");

    let mut rng = Rng::seed_from_u64(0x6c6f_6164_5f73_7770);
    // [loaded and served, rejected with a typed error]
    let mut tally = [0usize; 2];
    let mut settle = |outcome: std::thread::Result<Result<(), CoreError>>,
                      case: &dyn Fn() -> String| {
        match outcome {
            Ok(Ok(())) => tally[0] += 1,
            Ok(Err(_)) => tally[1] += 1,
            Err(_) => panic!("{} panicked", case()),
        }
    };
    for case in 0..CASES {
        let mutant = flip_bytes(&mut rng, &binary);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_case(&snapshot_from_bytes(&mutant)?, &schema, &queries)
        }));
        settle(outcome, &|| format!("binary case {case}"));
    }
    for case in 0..CASES {
        let mutant = mutate_text(&mut rng, &text);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (catalog, version) = GlobalCatalog::import_versioned(&mutant)?;
            serve_case(
                &CatalogSnapshot::at_version(catalog, version),
                &schema,
                &queries,
            )
        }));
        settle(outcome, &|| format!("text case {case}:\n{mutant}"));
    }
    let [loaded, rejected] = tally;
    // Both outcomes occur: the sweep reaches past the decoders.
    assert!(
        loaded > 0 && rejected > 0,
        "{loaded} loaded, {rejected} rejected"
    );
}
