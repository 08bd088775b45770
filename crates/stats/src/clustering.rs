//! Agglomerative hierarchical clustering (centroid linkage).
//!
//! The ICMA contention-state algorithm (paper §3.3, "Determining states via
//! data clustering") groups sampled probing-query costs with "an
//! agglomerative hierarchical algorithm … place each data object in its own
//! cluster initially and then gradually merge clusters", always merging the
//! pair of clusters Cᵢ and Cⱼ whose "distance between the centroids" is
//! smallest.
//!
//! Probing costs are one-dimensional, and in one dimension centroid-linkage
//! agglomeration only ever merges *adjacent* clusters in sorted order. The
//! implementation exploits that: sort once, keep the adjacent clusters as a
//! linked list and their centroid gaps in a min-heap, and merge the closest
//! pair until the wanted number of clusters remains — O(n log n) instead of
//! the naive O(n³). [`cluster_path_1d`] records every level of that one
//! agglomeration, so ICMA's whole phase-1 search costs one pass.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A cluster of one-dimensional points.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster1D {
    /// Smallest member.
    pub min: f64,
    /// Largest member.
    pub max: f64,
    /// Number of members.
    pub count: usize,
    /// Mean of the members (the centroid).
    pub centroid: f64,
}

impl Cluster1D {
    fn singleton(v: f64) -> Self {
        Cluster1D {
            min: v,
            max: v,
            count: 1,
            centroid: v,
        }
    }

    fn merge(&self, other: &Cluster1D) -> Cluster1D {
        let count = self.count + other.count;
        Cluster1D {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            count,
            centroid: (self.centroid * self.count as f64 + other.centroid * other.count as f64)
                / count as f64,
        }
    }
}

/// Clusters `values` into exactly `k` clusters (or fewer when there are not
/// enough distinct points) by centroid-linkage agglomeration.
///
/// Non-finite values are ignored. Each step merges the adjacent pair with
/// the smallest centroid gap, the leftmost pair on a tie; a gap that is NaN
/// or +∞ (centroids overflowing near ±f64::MAX) never beats another, and
/// when every gap is NaN or +∞ the leftmost pair merges.
///
/// The result is sorted ascending by centroid and the clusters' `[min, max]`
/// extents are pairwise disjoint. An empty input yields an empty vector.
pub fn cluster_1d(values: &[f64], k: usize) -> Vec<Cluster1D> {
    if k == 0 {
        return Vec::new();
    }
    let mut agglomeration = Agglomeration::new(values);
    while agglomeration.len > k {
        agglomeration.merge_closest();
    }
    agglomeration.clusters()
}

/// The full agglomeration path: clusterings for every level `1..=k_max`.
///
/// Index `i` of the result holds the clustering with `i + 1` clusters
/// (when that many are attainable), exactly `cluster_1d(values, i + 1)`.
/// All levels come from one agglomeration: O(n log n + k_max²). ICMA walks
/// this path from coarse to fine while checking model-fit improvements.
pub fn cluster_path_1d(values: &[f64], k_max: usize) -> Vec<Vec<Cluster1D>> {
    if k_max == 0 {
        return Vec::new();
    }
    let mut agglomeration = Agglomeration::new(values);
    while agglomeration.len > k_max {
        agglomeration.merge_closest();
    }
    // Levels at or above the current count all hold this clustering.
    let mut path = vec![agglomeration.clusters(); k_max];
    while agglomeration.len > 1 {
        agglomeration.merge_closest();
        path[agglomeration.len - 1] = agglomeration.clusters();
    }
    path
}

/// Marks the end of the neighbour list.
const NONE: usize = usize::MAX;

/// The heap key of the gap `gap` right of the cluster at position `left`:
/// the gap's bits in IEEE total order (high half), then the position (low
/// half), so the minimum key is the smallest gap, leftmost on a tie. A NaN
/// gap reads as +∞ and −0 as +0 first, which makes the order that of `<`
/// in a linear scan for the first strict minimum, with pair 0 winning when
/// no gap is below +∞.
fn gap_key(gap: f64, left: usize) -> u128 {
    let gap = if gap.is_nan() {
        f64::INFINITY
    } else if gap == 0.0 {
        0.0
    } else {
        gap
    };
    let bits = gap.to_bits();
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (u128::from(ordered) << 64) | left as u128
}

/// One centroid-linkage agglomeration in progress. A cluster lives at the
/// sorted position of its leftmost member, so positions order the clusters
/// left to right, and merging keeps the left one's position.
struct Agglomeration {
    clusters: Vec<Cluster1D>,
    next: Vec<usize>,
    prev: Vec<usize>,
    alive: Vec<bool>,
    /// Keys of adjacent gaps. Entries go stale when a merge changes a gap;
    /// a popped key counts only if it is still the live pair's key, and
    /// any stale copy of a live key names the same merge.
    gaps: BinaryHeap<Reverse<u128>>,
    /// Number of live clusters.
    len: usize,
}

impl Agglomeration {
    fn new(values: &[f64]) -> Agglomeration {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let n = sorted.len();
        let gaps = (1..n)
            .map(|i| Reverse(gap_key(sorted[i] - sorted[i - 1], i - 1)))
            .collect();
        Agglomeration {
            clusters: sorted.into_iter().map(Cluster1D::singleton).collect(),
            next: (1..=n).map(|i| if i < n { i } else { NONE }).collect(),
            prev: (0..n).map(|i| i.checked_sub(1).unwrap_or(NONE)).collect(),
            alive: vec![true; n],
            gaps,
            len: n,
        }
    }

    /// The current key of the gap right of the live cluster at `left`.
    fn key(&self, left: usize) -> Option<u128> {
        let right = self.next[left];
        (right != NONE).then(|| {
            gap_key(
                self.clusters[right].centroid - self.clusters[left].centroid,
                left,
            )
        })
    }

    /// Merges the adjacent pair with the smallest gap. Requires `len ≥ 2`.
    fn merge_closest(&mut self) {
        let left = loop {
            let Reverse(key) = self.gaps.pop().expect("two live clusters have a live gap");
            let left = key as u64 as usize;
            if self.alive[left] && self.key(left) == Some(key) {
                break left;
            }
        };
        let right = self.next[left];
        self.clusters[left] = self.clusters[left].merge(&self.clusters[right]);
        self.alive[right] = false;
        self.next[left] = self.next[right];
        if self.next[left] != NONE {
            self.prev[self.next[left]] = left;
        }
        self.len -= 1;
        for at in [left, self.prev[left]] {
            if at != NONE {
                if let Some(key) = self.key(at) {
                    self.gaps.push(Reverse(key));
                }
            }
        }
    }

    /// The live clusters, left to right.
    fn clusters(&self) -> Vec<Cluster1D> {
        let mut out = Vec::with_capacity(self.len);
        let mut at = if self.len == 0 { NONE } else { 0 };
        while at != NONE {
            out.push(self.clusters[at].clone());
            at = self.next[at];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(cluster_1d(&[], 3).is_empty());
        assert!(cluster_1d(&[1.0, 2.0], 0).is_empty());
        let single = cluster_1d(&[5.0], 3);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].centroid, 5.0);
    }

    #[test]
    fn two_well_separated_groups() {
        let mut vals = vec![1.0, 1.1, 0.9, 1.05];
        vals.extend([10.0, 10.2, 9.8]);
        let cl = cluster_1d(&vals, 2);
        assert_eq!(cl.len(), 2);
        assert_eq!(cl[0].count, 4);
        assert_eq!(cl[1].count, 3);
        assert!(cl[0].max < cl[1].min);
        assert!((cl[0].centroid - 1.0125).abs() < 1e-9);
        assert!((cl[1].centroid - 10.0).abs() < 1e-9);
    }

    #[test]
    fn three_groups_recovered() {
        let vals = [0.0, 0.1, 5.0, 5.1, 5.2, 20.0, 20.3];
        let cl = cluster_1d(&vals, 3);
        assert_eq!(cl.len(), 3);
        assert_eq!(
            cl.iter().map(|c| c.count).collect::<Vec<_>>(),
            vec![2, 3, 2]
        );
    }

    #[test]
    fn extents_are_disjoint_and_sorted() {
        let vals: Vec<f64> = (0..100).map(|i| ((i * 37) % 101) as f64).collect();
        for k in 1..8 {
            let cl = cluster_1d(&vals, k);
            assert_eq!(cl.len(), k.min(vals.len()));
            for w in cl.windows(2) {
                assert!(w[0].max < w[1].min, "clusters overlap: {w:?}");
                assert!(w[0].centroid <= w[1].centroid);
            }
        }
    }

    #[test]
    fn counts_sum_to_input_size() {
        let vals: Vec<f64> = (0..57).map(|i| (i as f64).sin() * 10.0).collect();
        let cl = cluster_1d(&vals, 5);
        assert_eq!(cl.iter().map(|c| c.count).sum::<usize>(), 57);
    }

    #[test]
    fn k_larger_than_n_gives_singletons() {
        let cl = cluster_1d(&[3.0, 1.0, 2.0], 10);
        assert_eq!(cl.len(), 3);
        assert_eq!(cl[0].centroid, 1.0);
        assert_eq!(cl[2].centroid, 3.0);
    }

    #[test]
    fn path_has_one_clustering_per_level() {
        let vals = [1.0, 2.0, 8.0, 9.0, 20.0];
        let path = cluster_path_1d(&vals, 4);
        assert_eq!(path.len(), 4);
        for (i, c) in path.iter().enumerate() {
            assert_eq!(c.len(), (i + 1).min(5));
        }
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let cl = cluster_1d(&[1.0, f64::NAN, 2.0, f64::INFINITY], 2);
        assert_eq!(cl.iter().map(|c| c.count).sum::<usize>(), 2);
    }
}
