//! Sample observations: what one executed sample query contributes.

use crate::CoreError;
use mdbs_stats::GramAccumulator;

/// One data point for regression: the explanatory-variable values of a
/// sample query, its observed cost, and the probing-query cost measured in
/// the same environment ("sampled probing query cost", paper §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Values of *all* candidate explanatory variables of the query-class
    /// family, in the canonical order of
    /// [`variables::VariableFamily::all`](crate::variables::VariableFamily::all).
    pub x: Vec<f64>,
    /// Observed elapsed cost of the sample query (seconds).
    pub cost: f64,
    /// Cost of the probing query executed in the same environment.
    pub probe_cost: f64,
}

impl Observation {
    /// Projects this observation onto a subset of variables given by
    /// indexes into the canonical order.
    pub fn project(&self, keep: &[usize]) -> Vec<f64> {
        keep.iter().map(|&i| self.x[i]).collect()
    }
}

/// Checks that a fitting sample can be ordered, before any comparator or
/// solver sees it: every cost, probe cost and variable is finite and every
/// observation carries at least `width` variables. The first offence is a
/// [`CoreError::Degenerate`]. The states search and variable selection
/// pair it with [`check_moments`] of the second moments they accumulate
/// anyway (prefix sums, state blocks).
pub(crate) fn check_values(observations: &[Observation], width: usize) -> Result<(), CoreError> {
    let finite = |o: &Observation| {
        o.cost.is_finite() && o.probe_cost.is_finite() && o.x.iter().all(|v| v.is_finite())
    };
    if let Some(i) = observations.iter().position(|o| !finite(o)) {
        return Err(CoreError::Degenerate(format!(
            "observation {i} is not finite (cost, probe cost and every variable must be)"
        )));
    }
    check_width(observations, width)
}

/// Checks that every observation carries at least `width` variables.
pub(crate) fn check_width(observations: &[Observation], width: usize) -> Result<(), CoreError> {
    match observations.iter().position(|o| o.x.len() < width) {
        Some(i) => Err(CoreError::Degenerate(format!(
            "observation {i} has {} variables, {width} are needed",
            observations[i].x.len()
        ))),
        None => Ok(()),
    }
}

/// Checks that every entry of a sample's total second moments is finite
/// (a value of |v| ≳ 1e154 squares to ∞). An overflowing row leaves `±∞`
/// or `NaN` in any total it was added to, whatever the grouping.
pub(crate) fn check_moments(total: &GramAccumulator) -> Result<(), CoreError> {
    let moments = total.xtx().iter().chain(total.xty());
    if !(moments.copied().all(f64::is_finite) && total.yty().is_finite()) {
        return Err(CoreError::Degenerate(
            "the second moments of the observations overflow".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_selects_in_order() {
        let o = Observation {
            x: vec![10.0, 20.0, 30.0, 40.0],
            cost: 1.0,
            probe_cost: 0.5,
        };
        assert_eq!(o.project(&[2, 0]), vec![30.0, 10.0]);
        assert_eq!(o.project(&[]), Vec::<f64>::new());
    }
}
