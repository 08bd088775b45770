//! Pinned digests of derived catalogs.
//!
//! Derivation is deterministic, so a change to how a catalog is computed
//! shows up here as a moved digest. Each test derives a small catalog
//! through the CLI and pins two 64-bit FNV-1a digests of the written text:
//!
//! * the **structure digest** covers every line except the `coef` and
//!   `fit` lines — the contention states, selected variables, model
//!   forms, Gram accumulator blocks and probe-estimator predictors. These
//!   are decisions (or exact sums); a change to the numerics of a solver
//!   must leave them alone;
//! * the **full digest** covers every byte. A solver change that only
//!   moves the low bits of the published coefficients and fit statistics
//!   re-pins it, and says why in the change log.
//!
//! So "byte-identical to before" (full digest unchanged) and "same
//! models, different rounding" (structure digest unchanged) are standing
//! checks rather than one-off comparisons.

use mdbs_cli::dispatch;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest and length of `text`.
fn full_digest(text: &str) -> (u64, usize) {
    (fnv1a(text.as_bytes()), text.len())
}

/// Digest and length of `text` without its `coef` and `fit` lines.
fn structure_digest(text: &str) -> (u64, usize) {
    let kept: String = text
        .split_inclusive('\n')
        .filter(|line| !matches!(line.split_whitespace().next(), Some("coef" | "fit")))
        .collect();
    full_digest(&kept)
}

/// Runs `derive` with `args` into a fresh text catalog and returns the
/// text it wrote.
fn derive_text(name: &str, args: &str) -> String {
    let dir = std::env::temp_dir().join("mdbs-cli-digests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = dir.join(format!("{name}-{}.txt", std::process::id()));
    // `derive` adds to an existing catalog; start from nothing.
    let _ = std::fs::remove_file(&out);
    let mut argv: Vec<String> = args.split_whitespace().map(String::from).collect();
    argv.extend(["--out".to_string(), out.to_string_lossy().into_owned()]);
    dispatch(&argv).unwrap_or_else(|e| panic!("{name}: derive failed: {e}"));
    let text = std::fs::read_to_string(&out).expect("catalog written");
    let _ = std::fs::remove_file(&out);
    text
}

#[test]
fn iupma_uniform_catalog_is_pinned() {
    let text = derive_text(
        "iupma-uniform",
        "derive --site all --class g1,gj --algorithm iupma --profile uniform:20:125 \
         --seed 3 --jobs 1",
    );
    assert_eq!(
        structure_digest(&text),
        (0x84da_ce16_58a7_bfef, 16_298),
        "structure"
    );
    assert_eq!(full_digest(&text), (0xc024_493b_ca1d_b94a, 19_886), "full");
}

#[test]
fn icma_clustered_catalog_is_pinned() {
    let text = derive_text(
        "icma-clustered",
        "derive --site all --class g2,g3 --algorithm icma --profile clustered --seed 5 --jobs 1",
    );
    assert_eq!(
        structure_digest(&text),
        (0x3ade_811b_2d4e_af8a, 11_230),
        "structure"
    );
    assert_eq!(full_digest(&text), (0xf3f8_dd2c_919a_6545, 14_016), "full");
}

/// The single site/class path (no `--jobs`), seeded as the serving gates'
/// catalog is.
#[test]
fn single_model_catalog_is_pinned() {
    let text = derive_text("single", "derive --site oracle --class g1 --seed 7");
    assert_eq!(
        structure_digest(&text),
        (0x9fcb_eeae_354b_c3cd, 5_461),
        "structure"
    );
    assert_eq!(full_digest(&text), (0x1b94_cd54_2bab_15fb, 6_686), "full");
}

/// An ICMA derivation whose thin clusters draw targeted extra samples:
/// the agglomeration path must be rebuilt from the grown sample before
/// the next proposal (a stale path moves this catalog's structure).
#[test]
fn icma_resampled_catalog_is_pinned() {
    let text = derive_text(
        "icma-resampled",
        "derive --site oracle --class g1 --algorithm icma --profile clustered --seed 4 --jobs 1",
    );
    assert_eq!(
        structure_digest(&text),
        (0x354c_0216_d35a_113b, 2_008),
        "structure"
    );
    assert_eq!(full_digest(&text), (0x15c2_0623_a240_2a7f, 2_713), "full");
}

/// Every class under ICMA with the clustered profile: its join-class
/// selections are among the most sensitive in the 16-catalog sweep to the
/// numerics of the candidate search (a scale-invariant Cholesky pivot
/// test changed them).
#[test]
fn icma_clustered_all_classes_catalog_is_pinned() {
    let text = derive_text(
        "icma-clustered-all",
        "derive --site all --class all --algorithm icma --profile clustered --seed 2 --jobs 1",
    );
    assert_eq!(
        structure_digest(&text),
        (0x2b1c_3cb6_cc53_82bf, 25_446),
        "structure"
    );
    assert_eq!(full_digest(&text), (0x9a72_9a67_44fc_bced, 31_897), "full");
}

/// Every class under IUPMA with the uniform profile, at the seed whose
/// join-class selections the same pivot-test change moved.
#[test]
fn iupma_uniform_all_classes_catalog_is_pinned() {
    let text = derive_text(
        "iupma-uniform-all",
        "derive --site all --class all --algorithm iupma --profile uniform:20:125 \
         --seed 4 --jobs 1",
    );
    assert_eq!(
        structure_digest(&text),
        (0x567f_eb14_dd1a_4b97, 33_736),
        "structure"
    );
    assert_eq!(full_digest(&text), (0x425d_a61b_63f6_309e, 41_804), "full");
}
