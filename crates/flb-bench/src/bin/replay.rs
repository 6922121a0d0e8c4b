//! Experiment X18: trace-replay throughput and reply equivalence.
//!
//! Replays the pinned committed trace (default `tests/traces/pinned`)
//! against a throwaway in-process daemon with reply-equivalence checking
//! on; `--json PATH` writes the `BENCH_10.json` artifact and
//! `--baseline PATH` gates the measured throughput against a committed
//! artifact (exit 1 on regression or any reply mismatch).
//!
//! Run: `cargo run -p flb-bench --release --bin replay
//!       [--trace PATH] [--rounds N] [--workers W]
//!       [--json PATH] [--baseline PATH] [--max-regression F]`

use flb_bench::cli::{flag_value, gate_against_baseline, parse_or_die, write_artifact};
use flb_bench::replay_bench::{self, ReplayBenchSpec};
use flb_bench::report::fmt_seconds;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut spec = ReplayBenchSpec::pinned(
        flag_value(&args, "--trace")
            .map_or_else(|| PathBuf::from("tests/traces/pinned"), PathBuf::from),
    );
    if let Some(v) = flag_value(&args, "--rounds") {
        spec.rounds = parse_or_die(&v, "--rounds");
    }
    if let Some(v) = flag_value(&args, "--workers") {
        spec.workers = parse_or_die(&v, "--workers");
    }

    println!(
        "X18: pinned-trace replay ({}, best of {})\n",
        spec.trace.display(),
        spec.rounds.max(1)
    );

    let (point, report) = replay_bench::run(&spec).unwrap_or_else(|e| {
        eprintln!("replay bench failed: {e}");
        std::process::exit(2);
    });

    println!("{}", report.render());
    println!(
        "{}: {} tasks over {} requests, replayed in {} ({:.0} tasks/s)",
        point.name,
        point.tasks,
        report.sent,
        fmt_seconds(point.schedule_seconds),
        point.tasks_per_second
    );

    if point.makespan_ratio_vs_reference != Some(1.0) {
        eprintln!("FATAL: replayed replies diverged from the recorded trace");
        std::process::exit(1);
    }
    println!("every deterministic reply matched its recorded digest.");

    let points = vec![point];
    write_artifact(&args, "replay", &points);
    gate_against_baseline(&args, &points);
}
