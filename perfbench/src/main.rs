//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <plan-cold|plan-hot|cluster|train|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test [--seed <n>]
//! ```
//!
//! `--trace 0` runs one workload untraced and reports its end-to-end
//! metrics. `--trace 1` reports every per-layer metric: the named
//! workload's traced pass gets the whole `--seconds` budget and the other
//! three a quarter of it each. The last line of standard output is the
//! result as one JSON object; the exit code is non-zero when an output
//! check failed. See `README.md` next to this crate.

mod cluster;
mod pace;
mod plan;
mod report;
mod span;
mod train;

use std::fs;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

const WORKLOADS: [&str; 4] = ["plan-cold", "plan-hot", "cluster", "train"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.contains(&args.workload.as_str());
    if !args.self_test && !known {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// One workload, untraced: the end-to-end metrics.
fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Outcome {
    match workload {
        "plan-cold" => plan::cold(seed, seconds),
        "plan-hot" => plan::hot(seed, seconds),
        "cluster" => cluster::run(seed, seconds),
        _ => train::run(seed, seconds),
    }
}

/// Every workload's traced pass; `workload`'s gets the full budget.
fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
) -> (Outcome, Vec<(&'static str, Vec<span::Span>)>) {
    let mut all = Outcome::new();
    let mut spans = Vec::new();
    for w in WORKLOADS {
        let share = if w == workload || workload == "all" {
            1.0
        } else {
            0.25
        };
        let budget = Duration::from_secs_f64(seconds * share);
        let o = match w {
            "plan-cold" => plan::traced(false, seed, budget, &mut spans),
            "plan-hot" => plan::traced(true, seed, budget, &mut spans),
            "cluster" => cluster::traced(seed, budget, &mut spans),
            _ => train::traced(seed, budget, &mut spans),
        };
        all.absorb(o);
    }
    (all, spans)
}

/// Write the traced run's spans to `.bench_out/` under the working
/// directory, one TSV per pass.
fn write_spans(workload: &str, seed: u64, spans: &[(&'static str, Vec<span::Span>)]) {
    let dir = std::path::Path::new(".bench_out");
    let result = fs::create_dir_all(dir).and_then(|()| {
        for (pass, buf) in spans {
            let path = dir.join(format!("spans-{workload}-seed{seed}-{pass}.tsv"));
            let mut w = BufWriter::new(fs::File::create(&path)?);
            span::write_tsv(&mut w, buf)?;
            w.flush()?;
        }
        Ok(())
    });
    if let Err(e) = result {
        eprintln!("perfbench: could not write spans: {e}");
    }
}

fn print_table(workload: &str, o: &Outcome) {
    println!(
        "# {workload}: attempted {} failed {} correct {}",
        o.attempted, o.failed, o.correct
    );
    for m in &o.metrics {
        println!(
            "{workload:>10}  {:<40} {:>18.6} {}",
            m.name, m.value, m.unit
        );
    }
    for m in &o.ungated {
        println!(
            "{workload:>10}  {:<40} {:>18.6} {} (not gated)",
            m.name, m.value, m.unit
        );
    }
    for p in &o.problems {
        println!("{workload:>10}  CHECK FAILED: {p}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return selftest::run(args.seed);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let result = if args.trace {
        let (o, spans) = traced(&args.workload, args.seed, args.seconds);
        write_spans(&args.workload, args.seed, &spans);
        print_table(&args.workload, &o);
        o
    } else {
        let mut all = Outcome::new();
        for w in &names {
            let mut o = end_to_end(w, args.seed, args.seconds);
            print_table(w, &o);
            if names.len() > 1 {
                for m in o.metrics.iter_mut().chain(&mut o.ungated) {
                    m.name = format!("{w}.{}", m.name);
                }
            }
            all.absorb(o);
        }
        all
    };
    let correct = result.correct && result.failed == 0;
    println!("{}", Outcome { correct, ..result }.json_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

mod selftest;
