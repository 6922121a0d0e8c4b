//! Flag handling shared by the trajectory bench bins (`kernel`, `replay`):
//! plain `--flag value` lookup, `--json PATH` artifact output and the
//! `--baseline PATH [--max-regression F]` throughput gate. Bad input
//! exits 2; a gate regression exits 1.

use crate::kernel_bench::{self, KernelDatapoint, DEFAULT_MAX_REGRESSION};

/// The value following `name` in `args`, if present.
#[must_use]
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses `text` as the value of flag `what`, exiting 2 on failure.
#[must_use]
pub fn parse_or_die<T: std::str::FromStr>(text: &str, what: &str) -> T
where
    T::Err: std::fmt::Display,
{
    text.parse().unwrap_or_else(|e| {
        eprintln!("invalid {what} {text:?}: {e}");
        std::process::exit(2);
    })
}

/// With `--json PATH`, writes `points` as a `BENCH_*.json` artifact of
/// the named bench (`-` prints it to stdout).
pub fn write_artifact(args: &[String], bench: &str, points: &[KernelDatapoint]) {
    let Some(path) = flag_value(args, "--json") else {
        return;
    };
    let text = kernel_bench::to_json_named(bench, points);
    if path == "-" {
        print!("{text}");
    } else {
        std::fs::write(&path, &text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("\nwrote {path}");
    }
}

/// With `--baseline PATH`, gates the throughput of `points` against the
/// artifact at `PATH` ([`kernel_bench::regression_gate`]), exiting 1 on
/// a regression beyond `--max-regression` (default
/// [`DEFAULT_MAX_REGRESSION`]).
pub fn gate_against_baseline(args: &[String], points: &[KernelDatapoint]) {
    let Some(path) = flag_value(args, "--baseline") else {
        return;
    };
    let max_regression = flag_value(args, "--max-regression").map_or(DEFAULT_MAX_REGRESSION, |v| {
        parse_or_die(&v, "--max-regression")
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    let baseline = kernel_bench::parse_report(&text).unwrap_or_else(|e| {
        eprintln!("invalid baseline {path}: {e}");
        std::process::exit(2);
    });
    println!(
        "\nregression gate vs {path} (tolerance {:.0}%):",
        max_regression * 100.0
    );
    match kernel_bench::regression_gate(points, &baseline, max_regression) {
        Ok(lines) => {
            for line in lines {
                println!("  {line}");
            }
        }
        Err(e) => {
            eprintln!("REGRESSION: {e}");
            std::process::exit(1);
        }
    }
}
