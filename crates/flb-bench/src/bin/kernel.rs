//! Experiment X15: million-task kernel throughput and the perf trajectory.
//!
//! Default run measures the committed trajectory (LU at 100k and 1M tasks,
//! CCR 1.0, P = 64) and prints a table; `--json PATH` additionally writes
//! the `BENCH_07.json` artifact, and `--baseline PATH` gates the measured
//! throughput against a committed artifact (exit 1 on regression).
//!
//! Run: `cargo run -p flb-bench --release --bin kernel [--quick]
//!       [--tasks N] [--procs P] [--ccr F] [--seed S] [--family lu|cholesky|layered]
//!       [--no-reference] [--json PATH] [--baseline PATH] [--max-regression F]`

use flb_bench::cli::{flag_value, gate_against_baseline, parse_or_die, write_artifact};
use flb_bench::kernel_bench::{self, FlatFamily, KernelBenchSpec, KernelDatapoint};
use flb_bench::mem::fmt_peak_rss;
use flb_bench::report::{fmt_seconds, table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_reference = args.iter().any(|a| a == "--no-reference");

    let mut specs: Vec<KernelBenchSpec> = if let Some(tasks) = flag_value(&args, "--tasks") {
        vec![KernelBenchSpec::at_scale(parse_or_die(&tasks, "--tasks"))]
    } else if quick {
        vec![KernelBenchSpec::at_scale(20_000)]
    } else {
        KernelBenchSpec::trajectory()
    };
    for spec in &mut specs {
        if let Some(v) = flag_value(&args, "--procs") {
            spec.procs = parse_or_die(&v, "--procs");
        }
        if let Some(v) = flag_value(&args, "--ccr") {
            spec.ccr = parse_or_die(&v, "--ccr");
        }
        if let Some(v) = flag_value(&args, "--seed") {
            spec.seed = parse_or_die(&v, "--seed");
        }
        if let Some(v) = flag_value(&args, "--family") {
            spec.family = parse_or_die::<FlatFamily>(&v, "--family");
        }
        if no_reference {
            spec.reference = false;
        }
    }

    println!(
        "X15: flb-kernel trajectory ({} configuration{})\n",
        specs.len(),
        if specs.len() == 1 { "" } else { "s" }
    );

    let points: Vec<KernelDatapoint> = specs
        .iter()
        .map(|spec| {
            let dp = kernel_bench::run(spec);
            println!(
                "{}: V = {}, E = {}, scheduled in {} ({:.0} tasks/s)",
                dp.name,
                dp.tasks,
                dp.edges,
                fmt_seconds(dp.schedule_seconds),
                dp.tasks_per_second
            );
            dp
        })
        .collect();

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.name.clone(),
                p.tasks.to_string(),
                p.edges.to_string(),
                p.procs.to_string(),
                format!("{}", p.ccr),
                fmt_seconds(p.build_seconds),
                fmt_seconds(p.schedule_seconds),
                format!("{:.0}", p.tasks_per_second),
                p.makespan_ratio_vs_reference
                    .map_or("-".to_string(), |r| format!("{r:.4}")),
                fmt_peak_rss(p.peak_rss_kb),
            ]
        })
        .collect();
    println!(
        "\n{}",
        table(
            &[
                "datapoint".into(),
                "V".into(),
                "E".into(),
                "P".into(),
                "CCR".into(),
                "build".into(),
                "schedule".into(),
                "tasks/s".into(),
                "vs ref".into(),
                "peak RSS".into(),
            ],
            &rows
        )
    );
    if points
        .iter()
        .any(|p| p.makespan_ratio_vs_reference.is_some_and(|r| r != 1.0))
    {
        eprintln!("FATAL: kernel disagrees with the reference scheduler");
        std::process::exit(1);
    }
    println!("vs ref = kernel makespan / reference FLB makespan (must be exactly 1).");

    write_artifact(&args, "kernel", &points);
    gate_against_baseline(&args, &points);
}
