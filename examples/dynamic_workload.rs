//! The motivating scenario of the paper's introduction (Figure 1): the
//! same local query gets over an order of magnitude slower as background
//! load grows — and a cost model that ignores contention misprices it
//! badly, while the multi-states model tracks it.
//!
//! ```text
//! cargo run --release --example dynamic_workload
//! ```

use std::fmt::Write as _;

use mdbs_core::classes::{classify, QueryClass};
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::variables::VariableFamily;
use mdbs_sim::contention::Load;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::query::{Predicate, Query, UnaryQuery};
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};

/// Runs the whole scenario and returns the printed report. `quick` trims
/// the sweeps so the example stays fast under `cargo test --examples`.
fn report(quick: bool) -> Result<String, Box<dyn std::error::Error>> {
    let mut out = String::new();
    let mut agent = MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 11);

    // The paper's Figure-1 query: a select-project on a ~50k-tuple table.
    let table = agent
        .catalog()
        .tables()
        .iter()
        .min_by_key(|t| t.cardinality.abs_diff(50_000))
        .expect("standard database is non-empty")
        .clone();
    let query = Query::Unary(UnaryQuery {
        table: table.id,
        projection: vec![0, 4, 6],
        predicates: vec![
            Predicate::gt(4, table.columns[4].domain_max / 30),
            Predicate::lt(5, table.columns[5].domain_max / 5),
        ],
        order_by: None,
    });
    writeln!(
        out,
        "query: select a1, a5, a7 from {} where a5 > .. and a6 < ..  ({} tuples)\n",
        table.id, table.cardinality
    )?;

    // Part 1 — Figure 1: sweep the number of concurrent processes.
    writeln!(
        out,
        "--- effect of concurrent processes on the observed cost ---"
    )?;
    writeln!(out, "{:>10} {:>12}", "processes", "cost (sec)")?;
    let (step, reps) = if quick { (40, 1) } else { (10, 3) };
    for procs in (50..=130).step_by(step) {
        agent.set_load(Load::background(procs as f64));
        let mean: f64 = (0..reps)
            .map(|_| agent.run(&query).unwrap().cost_s)
            .sum::<f64>()
            / reps as f64;
        writeln!(out, "{procs:>10} {mean:>12.2}")?;
    }

    // Part 2 — derive a multi-states model in the dynamic environment and
    // watch it re-price the *same* query as contention moves.
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 20.0,
        hi: 125.0,
    }));
    let class = classify(agent.catalog(), &query).expect("classifiable");
    assert_eq!(class, QueryClass::UnaryNoIndex);
    writeln!(
        out,
        "\nderiving a multi-states model for {} ...",
        class.label()
    )?;
    let cfg = if quick {
        DerivationConfig::quick()
    } else {
        DerivationConfig::default()
    };
    let derived = derive_cost_model(
        &mut agent,
        class,
        StateAlgorithm::Iupma,
        &cfg,
        &mut PipelineCtx::seeded(23),
    )?;
    writeln!(
        out,
        "model: {} states, R² = {:.3}\n",
        derived.model.num_states(),
        derived.model.fit.r_squared
    )?;

    writeln!(
        out,
        "--- the same query, priced before each run as load moves ---"
    )?;
    writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12} {:>8}",
        "processes", "probe (s)", "estimated", "observed", "state"
    )?;
    let x = VariableFamily::Unary
        .extract(agent.catalog(), &query)
        .expect("query matches the unary family");
    let x_sel: Vec<f64> = derived.model.var_indexes.iter().map(|&i| x[i]).collect();
    for procs in [25.0, 55.0, 85.0, 105.0, 120.0] {
        agent.set_load(Load::background(procs));
        let probe = agent.probe();
        let est = derived.model.estimate(&x_sel, probe);
        let obs = agent.run(&query)?.cost_s;
        let state = derived
            .model
            .states
            .paper_label(derived.model.states.state_of(probe));
        writeln!(
            out,
            "{procs:>10.0} {probe:>12.2} {est:>12.2} {obs:>12.2} {state:>8}"
        )?;
    }

    let one_state = derived.one_state()?;
    writeln!(
        out,
        "\nthe one-state model would quote {:.2}s regardless of load (R² = {:.3}).",
        one_state.estimate(&x_sel, 0.0),
        one_state.fit.r_squared
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
    fn dynamic_workload_report_is_non_empty() {
        let out = report(true).expect("scenario runs");
        assert!(!out.trim().is_empty());
        assert!(out.contains("effect of concurrent processes"), "{out}");
        assert!(out.contains("priced before each run"), "{out}");
    }
}
