//! Contention states and the qualitative variable (paper §3.1, §3.3).
//!
//! The combined effect of all frequently-changing environmental factors is
//! gauged by the probing-query cost. Its observed range `[Cmin, Cmax]` is
//! partitioned into `m` disjoint subranges, each a **contention state**; a
//! qualitative variable with `m` categories (equivalently `m − 1` indicator
//! variables) then enters the regression cost model.
//!
//! Internally states are indexed `0..m` from *lowest* to *highest*
//! contention; the paper's decreasing-index notation (`S_m` = lowest) is a
//! display concern handled by [`StateSet::paper_label`].

use crate::CoreError;
use mdbs_stats::Cluster1D;
use std::cmp::Ordering;

/// A partition of the probing-cost range into contention states.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSet {
    /// Ascending bin edges; `edges.len() == states + 1`.
    edges: Vec<f64>,
}

impl StateSet {
    /// A single all-encompassing state — the static method's assumption.
    pub fn single() -> StateSet {
        StateSet {
            edges: vec![f64::NEG_INFINITY, f64::INFINITY],
        }
    }

    /// Builds a state set from explicit ascending edges.
    ///
    /// Requires at least two strictly increasing edges; a NaN edge compares
    /// with nothing, so it is rejected too.
    pub fn from_edges(edges: Vec<f64>) -> Result<StateSet, CoreError> {
        if edges.len() < 2 {
            return Err(CoreError::Degenerate(
                "state set needs at least two edges".into(),
            ));
        }
        if edges
            .windows(2)
            .any(|w| w[0].partial_cmp(&w[1]) != Some(Ordering::Less))
        {
            return Err(CoreError::Degenerate(format!(
                "state edges must be strictly increasing: {edges:?}"
            )));
        }
        Ok(StateSet { edges })
    }

    /// The straightforward uniform partition of `[c_min, c_max]` into `m`
    /// equal subranges (paper §3.3, "Determining states via iterative
    /// uniform partition").
    pub fn uniform(c_min: f64, c_max: f64, m: usize) -> Result<StateSet, CoreError> {
        if m == 0 {
            return Err(CoreError::Degenerate("m must be at least 1".into()));
        }
        if m == 1 {
            return Ok(StateSet::single());
        }
        if c_max <= c_min {
            return Err(CoreError::Degenerate(format!(
                "cannot partition degenerate probing range [{c_min}, {c_max}]"
            )));
        }
        let width = (c_max - c_min) / m as f64;
        let edges = (0..=m)
            .map(|i| {
                if i == 0 {
                    c_min
                } else if i == m {
                    c_max
                } else {
                    c_min + width * i as f64
                }
            })
            .collect();
        StateSet::from_edges(edges)
    }

    /// A partition induced by 1-D clusters of probing costs (paper §3.3,
    /// "Determining states via data clustering"): state boundaries fall at
    /// the midpoints between adjacent clusters' extents.
    pub fn from_clusters(clusters: &[Cluster1D]) -> Result<StateSet, CoreError> {
        if clusters.is_empty() {
            return Err(CoreError::Degenerate("no clusters".into()));
        }
        let mut edges = Vec::with_capacity(clusters.len() + 1);
        edges.push(clusters[0].min);
        for w in clusters.windows(2) {
            edges.push(0.5 * (w[0].max + w[1].min));
        }
        edges.push(clusters.last().expect("non-empty").max);
        // Guard against zero-width clusters producing equal edges.
        edges.dedup_by(|b, a| *b <= *a);
        if edges.len() < 2 {
            return Err(CoreError::Degenerate(
                "clusters collapse to a single point".into(),
            ));
        }
        StateSet::from_edges(edges)
    }

    /// Number of contention states `m`.
    pub fn len(&self) -> usize {
        self.edges.len() - 1
    }

    /// A state set always has at least one state; provided for
    /// `len`/`is_empty` API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when this is the single-state (static) partition.
    pub fn is_single(&self) -> bool {
        self.len() == 1
    }

    /// The ascending edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// The `[lo, hi)` subrange of state `i` (last state closed above).
    pub fn bounds(&self, i: usize) -> (f64, f64) {
        (self.edges[i], self.edges[i + 1])
    }

    /// Maps a probing cost to its state index, clamping values outside the
    /// observed range to the nearest state (a query executed in a heavier
    /// environment than ever sampled is still "highest contention").
    /// Total over `f64`: a NaN probe maps to state 0.
    pub fn state_of(&self, probe_cost: f64) -> usize {
        let m = self.len();
        if probe_cost <= self.edges[0] {
            return 0;
        }
        if probe_cost >= self.edges[m] {
            return m - 1;
        }
        // Edges at or below the probe, over ascending edges.
        self.edges
            .partition_point(|&e| e <= probe_cost)
            .saturating_sub(1)
    }

    /// Indicator encoding of a state: `m − 1` zeros/ones, `z_i = 1` iff the
    /// state index is `i + 1` (state 0 is the reference category).
    pub fn indicators(&self, state: usize) -> Vec<f64> {
        let m = self.len();
        let mut z = vec![0.0; m.saturating_sub(1)];
        if (1..m).contains(&state) {
            z[state - 1] = 1.0;
        }
        z
    }

    /// Merges state `i` with state `i + 1` (removing their shared edge).
    pub fn merge_with_next(&self, i: usize) -> Result<StateSet, CoreError> {
        if i + 1 >= self.len() {
            return Err(CoreError::Degenerate(format!(
                "cannot merge state {i} with its successor in an {}-state set",
                self.len()
            )));
        }
        let mut edges = self.edges.clone();
        edges.remove(i + 1);
        StateSet::from_edges(edges)
    }

    /// The paper's decreasing-index label for state `i`: the lowest
    /// contention state is `S_m`, the highest `S_1`.
    pub fn paper_label(&self, i: usize) -> String {
        format!("S{}", self.len() - i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_state_covers_everything() {
        let s = StateSet::single();
        assert_eq!(s.len(), 1);
        assert!(s.is_single());
        assert_eq!(s.state_of(-1e9), 0);
        assert_eq!(s.state_of(1e9), 0);
        assert!(s.indicators(0).is_empty());
    }

    #[test]
    fn uniform_partition_has_equal_widths() {
        let s = StateSet::uniform(0.0, 10.0, 5).unwrap();
        assert_eq!(s.len(), 5);
        for i in 0..5 {
            let (lo, hi) = s.bounds(i);
            assert!((hi - lo - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_rejects_degenerate_inputs() {
        assert!(StateSet::uniform(1.0, 1.0, 3).is_err());
        assert!(StateSet::uniform(2.0, 1.0, 3).is_err());
        assert!(StateSet::uniform(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn state_lookup_is_total_and_monotone() {
        let s = StateSet::uniform(0.0, 10.0, 4).unwrap();
        assert_eq!(s.state_of(-5.0), 0);
        assert_eq!(s.state_of(0.0), 0);
        assert_eq!(s.state_of(2.49), 0);
        assert_eq!(s.state_of(2.51), 1);
        assert_eq!(s.state_of(9.99), 3);
        assert_eq!(s.state_of(10.0), 3);
        assert_eq!(s.state_of(99.0), 3);
        assert_eq!(s.state_of(f64::NAN), 0);
        let mut prev = 0;
        for i in 0..1000 {
            let st = s.state_of(i as f64 * 0.011);
            assert!(st >= prev);
            prev = st;
        }
    }

    #[test]
    fn state_lookup_at_exact_edges() {
        let s = StateSet::from_edges(vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.state_of(1.0), 1);
        assert_eq!(s.state_of(2.0), 2);
        assert_eq!(s.state_of(3.0), 2);
    }

    #[test]
    fn indicators_encode_one_hot_with_reference() {
        let s = StateSet::uniform(0.0, 10.0, 4).unwrap();
        assert_eq!(s.indicators(0), vec![0.0, 0.0, 0.0]);
        assert_eq!(s.indicators(1), vec![1.0, 0.0, 0.0]);
        assert_eq!(s.indicators(3), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn merge_removes_shared_edge() {
        let s = StateSet::uniform(0.0, 10.0, 4).unwrap();
        let merged = s.merge_with_next(1).unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.bounds(1), (2.5, 7.5));
        assert!(s.merge_with_next(3).is_err());
    }

    #[test]
    fn clusters_to_states() {
        let clusters = vec![
            Cluster1D {
                min: 1.0,
                max: 2.0,
                count: 10,
                centroid: 1.5,
            },
            Cluster1D {
                min: 6.0,
                max: 8.0,
                count: 5,
                centroid: 7.0,
            },
        ];
        let s = StateSet::from_clusters(&clusters).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.bounds(0), (1.0, 4.0));
        assert_eq!(s.bounds(1), (4.0, 8.0));
        // Points in the gap are assigned to the nearest side of the midpoint.
        assert_eq!(s.state_of(3.0), 0);
        assert_eq!(s.state_of(5.0), 1);
    }

    #[test]
    fn from_edges_validation() {
        assert!(StateSet::from_edges(vec![1.0]).is_err());
        assert!(StateSet::from_edges(vec![1.0, 1.0]).is_err());
        assert!(StateSet::from_edges(vec![2.0, 1.0]).is_err());
        assert!(StateSet::from_edges(vec![1.0, 2.0, 3.0]).is_ok());
    }

    #[test]
    fn paper_labels_decrease_with_contention() {
        let s = StateSet::uniform(0.0, 10.0, 3).unwrap();
        assert_eq!(s.paper_label(0), "S3"); // Lowest contention.
        assert_eq!(s.paper_label(2), "S1"); // Highest contention.
    }
}
