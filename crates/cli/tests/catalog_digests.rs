//! Pinned digests of derived catalogs.
//!
//! Derivation is deterministic, and a change that is meant to be a pure
//! speed-up (a different QR, VIFs from sufficient statistics, …) must not
//! move one byte of a catalog. These tests derive small catalogs through
//! the CLI and compare the 64-bit FNV-1a digest of the written text with a
//! pinned value, so "byte-identical to before" is a standing check rather
//! than a one-off comparison. A deliberate change to derivation output
//! re-pins the digests and says why in the change log.

use mdbs_cli::dispatch;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `derive` with `args` into a fresh text catalog and returns the
/// digest and length of the file it wrote.
fn derive_digest(name: &str, args: &str) -> (u64, usize) {
    let dir = std::env::temp_dir().join("mdbs-cli-digests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = dir.join(format!("{name}-{}.txt", std::process::id()));
    // `derive` adds to an existing catalog; start from nothing.
    let _ = std::fs::remove_file(&out);
    let mut argv: Vec<String> = args.split_whitespace().map(String::from).collect();
    argv.extend(["--out".to_string(), out.to_string_lossy().into_owned()]);
    dispatch(&argv).unwrap_or_else(|e| panic!("{name}: derive failed: {e}"));
    let text = std::fs::read(&out).expect("catalog written");
    let _ = std::fs::remove_file(&out);
    (fnv1a(&text), text.len())
}

#[test]
fn iupma_uniform_catalog_is_pinned() {
    let got = derive_digest(
        "iupma-uniform",
        "derive --site all --class g1,gj --algorithm iupma --profile uniform:20:125 \
         --seed 3 --jobs 1",
    );
    assert_eq!(got, (0xcf7e_e602_c441_2f34, 19_873));
}

#[test]
fn icma_clustered_catalog_is_pinned() {
    let got = derive_digest(
        "icma-clustered",
        "derive --site all --class g2,g3 --algorithm icma --profile clustered --seed 5 --jobs 1",
    );
    assert_eq!(got, (0x0d14_c86c_e7be_7fb1, 14_014));
}

/// The single site/class path (no `--jobs`), seeded as the serving gates'
/// catalog is.
#[test]
fn single_model_catalog_is_pinned() {
    let got = derive_digest("single", "derive --site oracle --class g1 --seed 7");
    assert_eq!(got, (0xc102_08b0_a220_e2ca, 6_699));
}
