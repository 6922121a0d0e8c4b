//! Smoke tests: every harness binary runs to completion in `--quick` mode
//! and prints its headline structure. This keeps the figure/table
//! regeneration commands themselves under test.

use flb_bench::kernel_bench::{self, KernelBenchSpec, KernelDatapoint};
use std::process::Command;

fn run_quick(exe: &str) -> String {
    let out = Command::new(exe)
        .arg("--quick")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn table1_reproduces_exactly() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .output()
        .expect("launch table1");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1 reproduction: EXACT"));
}

#[test]
fn fig2_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_fig2"));
    assert!(out.contains("scheduling cost vs P"));
    assert!(out.contains("shape checks"));
    // The two robust shape claims must hold even on the quick suite.
    assert!(out.contains("ETF cost grows with P"));
}

#[test]
fn fig3_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_fig3"));
    assert!(out.contains("FLB speedup vs P"));
    assert!(out.contains("CCR = 0.2"));
    assert!(out.contains("CCR = 5"));
    assert!(out.contains("Stencil outscales LU"));
}

#[test]
fn fig4_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_fig4"));
    assert!(out.contains("normalised schedule lengths"));
    assert!(out.contains("claim checks"));
    assert!(out.contains("FLB consistently outperforms DSC-LLB"));
}

#[test]
fn ablations_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_ablations"));
    for id in ["A1", "A2a", "A2b", "A3"] {
        assert!(out.contains(id), "missing ablation {id}");
    }
}

#[test]
fn complexity_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_complexity"));
    assert!(out.contains("X3.1"));
    assert!(out.contains("X3.2"));
    assert!(out.contains("X3.3"));
    assert!(out.contains("EP-pick rate"));
}

#[test]
fn contention_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_contention"));
    assert!(out.contains("mean inflation"));
    assert!(out.contains("FLB"));
}

#[test]
fn extended_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_extended"));
    for alg in ["MCP-ins", "DLS", "HEFT", "HLFET", "FLB"] {
        assert!(out.contains(alg), "missing {alg}");
    }
}

#[test]
fn runtime_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_runtime"));
    assert!(out.contains("runtime/BL"));
    assert!(out.contains("runtime/FIFO"));
}

#[test]
fn duplication_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_duplication"));
    assert!(out.contains("makespan CPD/FLB"));
    assert!(out.contains("extra work"));
}

#[test]
fn robustness_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_robustness"));
    assert!(out.contains("±10%"));
    assert!(out.contains("±50%"));
}

#[test]
fn faults_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_faults"));
    assert!(out.contains("One processor fails"));
    assert!(out.contains("FLB/naive/clair"));
    assert!(out.contains("Message loss"));
    assert!(out.contains("Stragglers"));
}

#[test]
fn kernel_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_kernel"));
    assert!(out.contains("X15"));
    assert!(out.contains("lu-20k"));
    assert!(out.contains("tasks/s"));
    // Quick mode replays through the reference: exactness must hold.
    assert!(out.contains("1.0000"));
}

#[test]
fn kernel_json_artifact_round_trips_through_the_gate() {
    // Drive the CI gate code path with synthetic baselines, so the verdict
    // never depends on how fast this host runs: one baseline sits far
    // below any real run (the gate must pass), one far above (it must
    // fail and name the regression). The passing run also emits an
    // artifact, which must parse back.
    let dir = std::env::temp_dir().join(format!(
        "flb-kernel-gate-{}-{}",
        std::process::id(),
        "kernel_json_artifact_round_trips_through_the_gate"
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let name = KernelBenchSpec::at_scale(5000).name();
    let baseline = |file: &str, tasks_per_second: f64| {
        let path = dir.join(file);
        let point = KernelDatapoint {
            name: name.clone(),
            family: "lu".to_string(),
            tasks: 5050,
            edges: 9900,
            procs: 8,
            ccr: 1.0,
            seed: 1999,
            build_seconds: 0.01,
            schedule_seconds: 0.01,
            tasks_per_second,
            makespan: 1,
            makespan_ratio_vs_reference: None,
            peak_rss_kb: None,
        };
        std::fs::write(&path, kernel_bench::to_json(&[point])).expect("write baseline");
        path
    };
    let slow = baseline("slow.json", 1.0);
    let fast = baseline("fast.json", 1e15);
    let emitted = dir.join("emitted.json");
    let run = |extra: &[&std::path::Path]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_kernel"));
        cmd.args(["--tasks", "5000", "--procs", "8", "--no-reference"]);
        cmd.args(extra);
        cmd.output().expect("launch kernel bin")
    };

    let pass = run(&["--baseline".as_ref(), &slow, "--json".as_ref(), &emitted]);
    let stdout = String::from_utf8_lossy(&pass.stdout);
    assert!(
        pass.status.success(),
        "gate failed against a far-slower baseline\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&pass.stderr)
    );
    assert!(stdout.contains("regression gate"));
    assert!(stdout.contains(&format!("{name}: ")) && stdout.contains("ok"));
    let text = std::fs::read_to_string(&emitted).expect("artifact written");
    let points = kernel_bench::parse_report(&text).expect("artifact parses");
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].name, name);

    let fail = run(&["--baseline".as_ref(), &fast]);
    let stderr = String::from_utf8_lossy(&fail.stderr);
    assert_eq!(
        fail.status.code(),
        Some(1),
        "gate passed against a far-faster baseline\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("REGRESSION") && stderr.contains(&name),
        "the failure must name the regressed datapoint: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hetero_quick() {
    let out = run_quick(env!("CARGO_BIN_EXE_hetero"));
    assert!(out.contains("uniform (1x)"));
    assert!(out.contains("extreme (1-8x)"));
    assert!(out.contains("HEFT"));
}
