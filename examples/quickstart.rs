//! Quickstart: derive a multi-states cost model for one query class at one
//! local site and use it to estimate query costs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::fmt::Write as _;

use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::validate::{quality, run_test_queries};
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};

/// Runs the whole quickstart and returns the printed report. `quick` trims
/// the sample sizes so the example stays fast under `cargo test --examples`.
fn report(quick: bool) -> Result<String, Box<dyn std::error::Error>> {
    let mut out = String::new();
    // 1. A local DBS the MDBS cannot see inside: an Oracle-8.0-like system
    //    hosting the paper's 12-table synthetic database, on a host whose
    //    background load swings between 20 and 125 concurrent processes.
    let mut agent = MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 1);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 20.0,
        hi: 125.0,
    }));

    // 2. Derive a cost model for G1 — unary queries without usable indexes
    //    — using the multi-states query sampling method (IUPMA).
    writeln!(
        out,
        "deriving a multi-states cost model for G1 (this samples a few"
    )?;
    writeln!(out, "hundred queries against the simulated local DBS)...\n")?;
    let cfg = if quick {
        DerivationConfig::quick()
    } else {
        DerivationConfig::default()
    };
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &cfg,
        &mut PipelineCtx::seeded(7),
    )?;

    writeln!(
        out,
        "derived model: {} contention states, {} variables, R² = {:.3}, SEE = {:.2}",
        derived.model.num_states(),
        derived.model.num_variables(),
        derived.model.fit.r_squared,
        derived.model.fit.see,
    )?;
    writeln!(out, "\nper-state cost equations (paper Table 4 style):")?;
    write!(out, "{}", derived.model.render())?;

    if let Some(est) = &derived.probe_estimator {
        writeln!(
            out,
            "\nprobing-cost estimator (eq. 2): C_probe ≈ f({}), R² = {:.3}",
            est.names.join(", "),
            est.r_squared
        )?;
    }

    // 3. Estimate held-out test queries before running them, then compare.
    let trials = if quick { 12 } else { 50 };
    let points = run_test_queries(
        &mut agent,
        QueryClass::UnaryNoIndex,
        &derived.model,
        trials,
        99,
    )?;
    let q = quality(&points);
    writeln!(
        out,
        "\non {} fresh test queries in the dynamic environment:",
        q.n
    )?;
    writeln!(
        out,
        "  {:.0}% very good estimates (≤30% relative error), {:.0}% good (within 2x)",
        q.very_good_pct, q.good_pct
    )?;
    writeln!(
        out,
        "\nfirst five test queries (observed vs estimated, seconds):"
    )?;
    for p in points.iter().take(5) {
        writeln!(
            out,
            "  observed {:8.2}   estimated {:8.2}   (probe {:.2}s -> state {})",
            p.observed,
            p.estimated,
            p.probe_cost,
            derived
                .model
                .states
                .paper_label(derived.model.states.state_of(p.probe_cost)),
        )?;
    }

    // 4. The one-state model (the old static method) on the same data:
    writeln!(
        out,
        "\nfor contrast, the one-state (static-method) model fitted on the same \
         sample has R² = {:.3} — the dynamic environment is simply not \
         describable by a single regression.",
        derived.one_state()?.fit.r_squared
    )?;
    Ok(out)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", report(false)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::report;

    #[test]
    fn quickstart_report_is_non_empty() {
        let out = report(true).expect("quickstart runs");
        assert!(!out.trim().is_empty());
        assert!(out.contains("derived model"), "{out}");
        assert!(out.contains("per-state cost equations"), "{out}");
    }
}
