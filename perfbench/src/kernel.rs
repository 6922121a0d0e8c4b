//! The `kernel-100k` workload: `KernelRun::new` plus `run` in process on
//! one LU graph of 100,128 tasks at P=64, with no service layer.

use crate::host::peak_rss_mb;
use crate::inputs::{self, Workload};
use crate::report::{metric, Outcome};
use crate::serve::{end_to_end, layer_metrics, Bytes, StatsDelta, SEGMENTS};
use crate::stats::{median, percentile, Reply, Tally};
use crate::trace::Tracer;
use flb_core::{FlbRun, RunStats, TieBreak};
use flb_kernel::{FlatGraph, KernelRun};
use flb_sched::Machine;
use std::time::Instant;

/// Schedules between two reference samples, and per traced pass.
const BATCH: usize = 16;
/// Graph builds timed in the traced run.
const BUILDS: usize = 5;
/// `FlbRun` and `KernelRun` timings behind `kernel.speedup_vs_core`.
const SPEEDUP_REPS: usize = 3;

/// The workload's graph for `seed` and the seconds its build took.
fn build(seed: u64) -> (FlatGraph, f64) {
    let t0 = Instant::now();
    let g = inputs::lu(Workload::Kernel100k.shape().tasks, inputs::mix(seed, 0));
    (g, t0.elapsed().as_secs_f64())
}

/// Generates the graph, checks that seed + 1 gives another, and records
/// its digest as an exact count.
fn input(seed: u64, out: &mut Outcome) -> (FlatGraph, f64) {
    let (g, secs) = build(seed);
    let digest = inputs::flat_digest(&g);
    out.counts.insert("input.graph_digest", digest);
    let (other, _) = build(seed.wrapping_add(1));
    out.check(inputs::flat_digest(&other) != digest, || {
        "seed + 1 generated the same graph".to_owned()
    });
    (g, secs)
}

/// One untimed run: the makespan and counters every later run must
/// repeat.
fn first_run(g: &FlatGraph, slow: &[u64]) -> (u64, RunStats) {
    let mut run = KernelRun::new(g, slow, TieBreak::BottomLevel);
    run.run();
    (run.makespan(), run.stats())
}

/// Checks the kernel against `FlbRun` on the same graph and records the
/// exact counts.
fn check_against_core(g: &FlatGraph, makespan: u64, stats: RunStats, out: &mut Outcome) {
    let procs = Workload::Kernel100k.shape().procs;
    let tg = g.to_task_graph();
    let mut core = FlbRun::new(&tg, &Machine::new(procs), TieBreak::BottomLevel);
    while core.step().is_some() {}
    out.check(core.stats() == stats, || {
        "kernel counters differ from FlbRun".to_owned()
    });
    let core_makespan = core.finish().makespan();
    out.check(core_makespan == makespan, || {
        format!("kernel makespan {makespan} != FlbRun {core_makespan}")
    });
    out.counts.insert("kernel.makespan", makespan);
    out.counts
        .insert("kernel.ep_selections", stats.ep_selections as u64);
    out.counts
        .insert("kernel.non_ep_selections", stats.non_ep_selections as u64);
    out.counts
        .insert("kernel.demotions", stats.demotions as u64);
    out.counts
        .insert("kernel.max_ready", stats.max_ready as u64);
}

/// The timed run. As on the serve workloads, the window is cut into
/// segments, each scheduling a graph built at its start, and a reference
/// request is timed after every `BATCH` schedules.
pub fn timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut g, first_build) = input(seed, &mut out);
    let digest = out.counts["input.graph_digest"];
    let mut reference = Workload::Kernel100k.reference();
    let slow = vec![1; Workload::Kernel100k.shape().procs];
    let (makespan, stats) = first_run(&g, &slow);

    let mut setups = vec![first_build];
    let (mut latencies_ms, mut window_s, mut tally) = (Vec::new(), 0.0, Tally::default());
    let mut wrong = 0u64;
    for seg in 1..=SEGMENTS {
        let until = seconds * seg as f64 / SEGMENTS as f64;
        if seg > 1 {
            let (again, secs) = build(seed);
            setups.push(secs);
            out.check(inputs::flat_digest(&again) == digest, || {
                "a rebuild of the graph differs".to_owned()
            });
            g = again;
        }
        reference.move_data();
        while window_s < until {
            for _ in 0..BATCH {
                let t0 = Instant::now();
                let mut run = KernelRun::new(&g, &slow, TieBreak::BottomLevel);
                run.run();
                let secs = t0.elapsed().as_secs_f64();
                window_s += secs;
                if run.is_complete() {
                    tally.record(Reply::Done);
                    latencies_ms.push(secs * 1e3);
                } else {
                    tally.record(Reply::Failed);
                }
                wrong += u64::from(run.makespan() != makespan || run.stats() != stats);
            }
            reference.sample()?;
        }
    }
    // Peak RSS before the check below converts the graph.
    let rss = peak_rss_mb("self")?;
    out.check(wrong == 0, || {
        format!("{wrong} runs differ from the first in makespan or counters")
    });
    check_against_core(&g, makespan, stats, &mut out);

    out.attempted = tally.attempted;
    out.failed = tally.failed;
    latencies_ms.sort_by(f64::total_cmp);
    end_to_end(
        &mut out,
        &reference,
        median(&mut setups),
        tally.completed() as f64 / window_s,
        &latencies_ms,
        rss,
    );
    Ok(out)
}

/// The traced run: timed builds, then untraced and traced passes of
/// `BATCH` schedules alternating until half of `seconds` has gone by,
/// then `FlbRun` against `KernelRun` for the speed-up. The service layers
/// are not on this workload's path and read 0.
pub fn traced(seed: u64, seconds: f64) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(1 << 12);
    let (g, _) = input(seed, &mut out);
    for i in 0..BUILDS {
        tracer.time(i as u32, "kernel.build", None, || build(seed));
    }
    let slow = vec![1; Workload::Kernel100k.shape().procs];
    let (makespan, stats) = first_run(&g, &slow);

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut wrong = 0u64;
    let mut next_id = 0u32;
    let t0 = Instant::now();
    while traced.len() < 2 || t0.elapsed().as_secs_f64() < seconds / 2.0 {
        let start = Instant::now();
        for _ in 0..BATCH {
            let mut run = KernelRun::new(&g, &slow, TieBreak::BottomLevel);
            run.run();
            wrong += u64::from(run.makespan() != makespan);
        }
        untraced.push(BATCH as f64 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        for _ in 0..BATCH {
            let id = next_id;
            next_id += 1;
            let root = tracer.open(id, "kernel", None);
            let mut run = tracer.time(id, "kernel.new", Some(root), || {
                KernelRun::new(&g, &slow, TieBreak::BottomLevel)
            });
            tracer.time(id, "kernel.run", Some(root), || run.run());
            tracer.close(root);
            wrong += u64::from(run.makespan() != makespan || run.stats() != stats);
        }
        traced.push(BATCH as f64 / start.elapsed().as_secs_f64());
    }
    out.attempted = 2 * u64::from(next_id);
    out.check(wrong == 0, || {
        format!("{wrong} runs differ from the first in makespan or counters")
    });
    check_against_core(&g, makespan, stats, &mut out);

    let tg = g.to_task_graph();
    let machine = Machine::new(slow.len());
    let (mut core_ms, mut kernel_ms) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_REPS {
        let t0 = Instant::now();
        let mut core = FlbRun::new(&tg, &machine, TieBreak::BottomLevel);
        while core.step().is_some() {}
        core_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        KernelRun::new(&g, &slow, TieBreak::BottomLevel).run();
        kernel_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    let speedup = median(&mut core_ms) / median(&mut kernel_ms);

    let mut metrics = layer_metrics(
        &tracer,
        StatsDelta::default(),
        &Bytes::default(),
        stats,
        speedup,
    );
    let (u, t) = (median(&mut untraced), median(&mut traced));
    metrics.push(metric("trace.overhead_pct", (u - t) / u * 100.0, "%"));
    let mut schedule_us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "kernel")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    schedule_us.sort_by(f64::total_cmp);
    metrics.push(metric(
        "trace.live_p90_us",
        percentile(&schedule_us, 0.9),
        "us",
    ));
    for m in metrics
        .iter()
        .filter(|m| m.unit == "count" || m.unit == "B")
    {
        out.counts.insert(m.name, m.value as u64);
    }
    out.metrics = metrics;
    Ok((out, tracer))
}
