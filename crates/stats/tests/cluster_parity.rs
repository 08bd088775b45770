//! `cluster_1d` and `cluster_path_1d` agglomerate through a min-heap of
//! adjacent centroid gaps. These tests pin them, bit for bit, to the
//! linear-scan agglomeration they replaced, which looked for the first
//! strict minimum gap on every merge (pair 0 when no gap compares below
//! +∞) and removed the merged neighbour from a vector: the same clusters
//! in the same order, with `to_bits`-equal min, max and centroid, at every
//! level of the one-pass path too.

use mdbs_stats::clustering::{cluster_1d, cluster_path_1d, Cluster1D};
use mdbs_stats::rng::Rng;

/// The linear-scan `cluster_1d` the heap replaced, verbatim.
fn reference_cluster_1d(values: &[f64], k: usize) -> Vec<Cluster1D> {
    if values.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mut clusters: Vec<Cluster1D> = sorted.into_iter().map(singleton).collect();
    while clusters.len() > k {
        // Find the adjacent pair with minimal centroid distance.
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for i in 0..clusters.len() - 1 {
            let d = clusters[i + 1].centroid - clusters[i].centroid;
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        let merged = merge(&clusters[best], &clusters[best + 1]);
        clusters[best] = merged;
        clusters.remove(best + 1);
    }
    clusters
}

fn singleton(v: f64) -> Cluster1D {
    Cluster1D {
        min: v,
        max: v,
        count: 1,
        centroid: v,
    }
}

fn merge(a: &Cluster1D, b: &Cluster1D) -> Cluster1D {
    let count = a.count + b.count;
    Cluster1D {
        min: a.min.min(b.min),
        max: a.max.max(b.max),
        count,
        centroid: (a.centroid * a.count as f64 + b.centroid * b.count as f64) / count as f64,
    }
}

fn assert_bits_equal(at: &str, got: &[Cluster1D], want: &[Cluster1D]) {
    assert_eq!(got.len(), want.len(), "{at}: cluster count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.count, w.count, "{at}: cluster {i} size");
        for (what, a, b) in [
            ("min", g.min, w.min),
            ("max", g.max, w.max),
            ("centroid", g.centroid, w.centroid),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{at}: cluster {i} {what} {a} vs {b}"
            );
        }
    }
}

/// How a test sample is drawn.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Uniform on [0, 100).
    Uniform,
    /// A few tight groups, like clustered probing costs.
    Clustered,
    /// Small integers: many exact ties and zero gaps.
    Ties,
    /// ±0 among a handful of repeated values.
    SignedZeros,
    /// NaN and ±∞ sprinkled among uniform values.
    NonFinite,
    /// Values near ±f64::MAX, whose merged centroids overflow to ±∞ and
    /// whose gaps become +∞, −∞ or NaN.
    Huge,
    /// Log-normal: gaps over many orders of magnitude.
    Spread,
}

const KINDS: [Kind; 7] = [
    Kind::Uniform,
    Kind::Clustered,
    Kind::Ties,
    Kind::SignedZeros,
    Kind::NonFinite,
    Kind::Huge,
    Kind::Spread,
];

fn sample(rng: &mut Rng, kind: Kind, n: usize) -> Vec<f64> {
    let centers: Vec<f64> = (0..4).map(|_| rng.gen_f64() * 50.0).collect();
    (0..n)
        .map(|_| match kind {
            Kind::Uniform => rng.gen_f64() * 100.0,
            Kind::Clustered => centers[rng.gen_range(0usize..4)] + rng.normal(0.0, 0.3),
            Kind::Ties => rng.gen_range(0usize..12) as f64,
            Kind::SignedZeros => [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5][rng.gen_range(0usize..7)],
            Kind::NonFinite => match rng.gen_range(0usize..10) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.gen_f64() * 10.0,
            },
            Kind::Huge => {
                let magnitude = [f64::MAX, 1.7e308, 1.5e308, 1e308, 9e307, 1e300, 0.0]
                    [rng.gen_range(0usize..7)];
                if rng.gen_bool(0.5) {
                    magnitude
                } else {
                    -magnitude
                }
            }
            Kind::Spread => rng.normal(0.0, 4.0).exp(),
        })
        .collect()
}

#[test]
fn heap_agglomeration_is_bit_identical_to_the_linear_scan() {
    const K_MAX: usize = 8;
    let mut rng = Rng::seed_from_u64(0xC1A5_7E25);
    let mut cases = 0usize;
    for kind in KINDS {
        // Mostly small samples (where every tie and overflow pattern is
        // reachable within a few merges), then a few up to n = 1,000; the
        // quadratic reference keeps the large ones few.
        let sizes: Vec<usize> = (0..72)
            .map(|_| rng.gen_range(1usize..=120))
            .chain([1, 2, 3, 250, 500, 1_000])
            .collect();
        for n in sizes {
            let values = sample(&mut rng, kind, n);
            let path = cluster_path_1d(&values, K_MAX);
            assert_eq!(path.len(), K_MAX);
            for k in 1..=K_MAX {
                let at = format!("{kind:?} n={n} k={k}");
                let want = reference_cluster_1d(&values, k);
                assert_bits_equal(&at, &cluster_1d(&values, k), &want);
                assert_bits_equal(&format!("{at} (path)"), &path[k - 1], &want);
                cases += 1;
            }
        }
    }
    assert!(cases >= 4_000, "{cases} cases compared");
}

/// Degenerate arguments behave as the linear scan did: no level, no
/// finite value, and fewer points than the level asked for.
#[test]
fn degenerate_inputs_match_the_linear_scan() {
    for values in [
        &[][..],
        &[f64::NAN, f64::INFINITY][..],
        &[3.0][..],
        &[2.0, -0.0, 0.0][..],
    ] {
        for k in 0..=4 {
            let at = format!("{values:?} k={k}");
            assert_bits_equal(
                &at,
                &cluster_1d(values, k),
                &reference_cluster_1d(values, k),
            );
        }
        assert!(cluster_path_1d(values, 0).is_empty());
        for (i, level) in cluster_path_1d(values, 4).iter().enumerate() {
            let at = format!("{values:?} path level {}", i + 1);
            assert_bits_equal(&at, level, &reference_cluster_1d(values, i + 1));
        }
    }
}
