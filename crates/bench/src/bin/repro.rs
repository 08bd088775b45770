//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--telemetry events.jsonl] [fig1|table4|table5|table6|fig4_9|fig10|states|parallel|all]
//! ```
//!
//! `--quick` trades sample sizes for speed (useful for smoke runs); the
//! default uses the paper's planned sample sizes (eq. (4)).
//!
//! Every target's stdout is byte-identical across runs except `parallel`,
//! which reports wall-clock times — it therefore only runs when named
//! explicitly, never as part of `all`.
//!
//! `--telemetry PATH` wraps every experiment in a span, validates the
//! rendered JSONL line-by-line (exiting non-zero if any line fails to
//! parse), writes it to PATH and prints the human-readable summary.

use mdbs_bench::experiments::fig4_9::multi_wins;
use mdbs_bench::experiments::{
    average_improvement, fig1, fig10, fig4_9, forms_ablation, noise_sensitivity, parallel_derive,
    plan_quality, probe_ablation, range_sensitivity, states_sweep, table4, table5, table6,
    Table5Config,
};
use mdbs_core::classes::QueryClass;
use mdbs_obs::{json, JsonlFileSink, Telemetry};
use std::process::ExitCode;

struct Options {
    quick: bool,
}

impl Options {
    fn table5_config(&self) -> Table5Config {
        if self.quick {
            Table5Config::quick()
        } else {
            Table5Config::default()
        }
    }

    fn sample_size(&self) -> Option<usize> {
        self.quick.then_some(180)
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut telemetry_path: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--telemetry" => match args.next() {
                Some(path) => telemetry_path = Some(path),
                None => {
                    eprintln!("--telemetry requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}`");
                return ExitCode::FAILURE;
            }
            other => targets.push(other.to_string()),
        }
    }
    let target = targets.first().map(String::as_str).unwrap_or("all");
    let opts = Options { quick };
    let mut tel = if telemetry_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let known = [
        "fig1",
        "table4",
        "table5",
        "table6",
        "fig4_9",
        "fig10",
        "states",
        "forms",
        "probe",
        "sensitivity",
        "plans",
        "parallel",
        "all",
    ];
    if !known.contains(&target) {
        eprintln!(
            "unknown target `{target}`; expected one of: {}",
            known.join(", ")
        );
        return ExitCode::FAILURE;
    }

    let root = tel.begin_span("repro");
    tel.field(root, "target", target.to_string());
    tel.field(root, "quick", if quick { 1u64 } else { 0u64 });

    // `parallel` prints wall-clock times (its whole point), which would
    // break `all`'s byte-identical-stdout guarantee — explicit target only.
    let run = |name: &str| target == name || (target == "all" && name != "parallel");
    let result = (|tel: &mut Telemetry| -> Result<(), Box<dyn std::error::Error>> {
        let experiment = |tel: &mut Telemetry, name: &str| {
            tel.inc("repro.experiments", 1);
            tel.begin_span(&format!("repro.{name}"))
        };
        if run("fig1") {
            let span = experiment(tel, "fig1");
            banner("E-FIG1");
            println!("{}", fig1(if opts.quick { 2 } else { 5 }));
            tel.end_span(span);
        }
        if run("fig10") {
            let span = experiment(tel, "fig10");
            banner("E-FIG10");
            println!("{}", fig10(if opts.quick { 300 } else { 800 }, 40));
            tel.end_span(span);
        }
        if run("states") {
            let span = experiment(tel, "states");
            banner("E-STATES");
            println!(
                "{}",
                states_sweep(
                    QueryClass::UnaryNonClusteredIndex,
                    if opts.quick { 300 } else { 500 },
                    6
                )?
            );
            tel.end_span(span);
        }
        if run("table4") {
            let span = experiment(tel, "table4");
            banner("E-TAB4");
            println!("{}", table4(opts.sample_size())?);
            tel.end_span(span);
        }
        if run("table5") || run("fig4_9") {
            let span = experiment(tel, "table5");
            banner("E-TAB5");
            let t5 = table5(&opts.table5_config())?;
            println!("{t5}");
            let (d_vg, d_g) = average_improvement(&t5);
            tel.field(span, "avg_very_good_improvement_pp", d_vg);
            tel.field(span, "avg_good_improvement_pp", d_g);
            println!(
                "\nmulti-states vs one-state, averaged over the 6 combinations: \
                 {d_vg:+.1} pp very-good, {d_g:+.1} pp good \
                 (paper: +27.0 pp and +20.2 pp)"
            );
            tel.end_span(span);
            if run("fig4_9") || target == "all" {
                let span = experiment(tel, "fig4_9");
                banner("E-FIG4..9");
                let figs = fig4_9(&t5);
                println!("{figs}");
                let wins = multi_wins(&figs);
                tel.field(span, "multi_wins", wins as u64);
                println!("multi-states tracks observations better in {wins}/6 figures");
                tel.end_span(span);
            }
        }
        if run("forms") {
            let span = experiment(tel, "forms");
            banner("E-FORMS (ablation)");
            println!(
                "{}",
                forms_ablation(
                    QueryClass::UnaryNoIndex,
                    if opts.quick { 220 } else { 360 },
                    4,
                    if opts.quick { 50 } else { 100 }
                )?
            );
            tel.end_span(span);
        }
        if run("probe") {
            let span = experiment(tel, "probe");
            banner("E-PROBE (ablation)");
            println!(
                "{}",
                probe_ablation(
                    QueryClass::UnaryNoIndex,
                    if opts.quick { 220 } else { 360 },
                    if opts.quick { 50 } else { 100 }
                )?
            );
            tel.end_span(span);
        }
        if run("sensitivity") {
            let span = experiment(tel, "sensitivity");
            banner("E-SENS (extension)");
            let (n, t) = if opts.quick { (200, 40) } else { (300, 80) };
            println!("{}", noise_sensitivity(n, t)?);
            println!("{}", range_sensitivity(n, t)?);
            tel.end_span(span);
        }
        if run("plans") {
            let span = experiment(tel, "plans");
            banner("E-PLAN (extension)");
            let (n, sc) = if opts.quick { (300, 10) } else { (500, 20) };
            println!("{}", plan_quality(n, sc)?);
            tel.end_span(span);
        }
        if run("parallel") {
            let span = experiment(tel, "parallel");
            banner("E-PAR (extension)");
            let sweep = parallel_derive(if opts.quick { 150 } else { 300 }, &[1, 2, 4, 8])?;
            println!("{sweep}");
            if sweep.rows.iter().any(|r| !r.identical) {
                return Err("parallel batch diverged from the serial catalog".into());
            }
            tel.field(span, "jobs", sweep.jobs as u64);
            tel.end_span(span);
        }
        if run("table6") {
            let span = experiment(tel, "table6");
            banner("E-TAB6");
            println!(
                "{}",
                table6(
                    QueryClass::UnaryNoIndex,
                    opts.sample_size(),
                    if opts.quick { 50 } else { 100 }
                )?
            );
            tel.end_span(span);
        }
        Ok(())
    })(&mut tel);

    tel.end_span(root);

    match result {
        Ok(()) => {
            if let Some(path) = &telemetry_path {
                write_telemetry(&tel, path)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates every rendered JSONL line, writes the stream to `path` and
/// prints the summary. Exits non-zero on an unparseable line so CI smoke
/// runs can rely on the binary's exit status alone.
fn write_telemetry(tel: &Telemetry, path: &str) -> ExitCode {
    for (i, line) in tel.render_jsonl().lines().enumerate() {
        if let Err(e) = json::parse(line) {
            eprintln!(
                "internal error: telemetry line {} is not valid JSON ({e:?}): {line}",
                i + 1
            );
            return ExitCode::FAILURE;
        }
    }
    let mut sink = match JsonlFileSink::create(std::path::Path::new(path)) {
        Ok(sink) => sink,
        Err(e) => {
            eprintln!("cannot create telemetry file `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    tel.emit_to(&mut sink);
    if let Err(e) = sink.finish() {
        eprintln!("cannot write telemetry file `{path}`: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "\ntelemetry: {} event(s) written to {path}",
        tel.events().len()
    );
    print!("{}", tel.render_summary());
    ExitCode::SUCCESS
}

fn banner(name: &str) {
    println!("\n================= {name} =================\n");
}
