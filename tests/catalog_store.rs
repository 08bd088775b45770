//! The versioned snapshot store end to end: a genuinely derived
//! multi-vendor, multi-class catalog (with accumulators) survives
//! text → binary → text byte-identically, and corrupt files fail cleanly
//! with a typed error.

use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::model::ModelAccumulator;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::{
    snapshot_to_bytes, CatalogFormat, CatalogSnapshot, CatalogStore, FileCatalogStore, StoreError,
    BINARY_MAGIC,
};
use mdbs_obs::Telemetry;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};
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
            let acc = ModelAccumulator::from_observations(&derived.model, &derived.observations);
            if let Some(est) = derived.probe_estimator.clone() {
                catalog.insert_probe_estimator(site.clone(), est);
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
