//! End-to-end and per-layer benchmark of the FLB service and kernel.
//!
//! ```text
//! perfbench --workload <serve-miss|serve-hit|kernel-100k> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics over a timed
//! window of `S` seconds; with `--trace 1` it makes the traced passes and
//! reports the per-layer metrics. Either way it checks every output and
//! prints, as its last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The line before it is the host
//! block. `perfbench daemon ARGS` runs `flb serve ARGS`, which is how the
//! serve workloads start their daemon. See `README.md`.

mod host;
mod inputs;
mod kernel;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;

use inputs::Workload;
use report::Outcome;
use std::io::Write as _;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} wants a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload: Workload::parse(value("--workload")?)?,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
        },
    })
}

fn run(a: &Args) -> Result<(Outcome, host::Pinned), String> {
    let pinned = host::pin_to_one_cpu()?;
    host::fix_malloc_thresholds()?;
    let kernel = a.workload == Workload::Kernel100k;
    let (mut out, tracer) = match (a.trace, kernel) {
        (true, true) => {
            let (o, t) = kernel::traced(a.seed, a.seconds)?;
            (o, Some(t))
        }
        (true, false) => {
            let (o, t) = serve::traced(a.workload, a.seed, a.seconds)?;
            (o, Some(t))
        }
        (false, true) => (kernel::timed(a.seed, a.seconds)?, None),
        (false, false) => (serve::timed(a.workload, a.seed, a.seconds)?, None),
    };
    let key = format!(
        "{}-seed{}-trace{}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    );
    let dir = report::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    if let Some(t) = tracer {
        let path = dir.join(format!("spans-{key}.jsonl"));
        std::fs::write(&path, t.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for name in report::canary(&key, &out.counts)? {
        out.problems.push(format!(
            "exact count changed across runs of one seed: {name}"
        ));
    }
    out.correct = out.problems.is_empty();
    Ok((out, pinned))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        let mut serve_args = vec!["serve".to_owned()];
        serve_args.extend(argv[1..].iter().cloned());
        match flb_cli::run(&serve_args) {
            Ok(text) => {
                let _ = std::io::stdout().write_all(text.as_bytes());
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let outcome = parse(&argv).and_then(|a| Ok((run(&a)?, a.workload)));
    match outcome {
        Ok(((out, pinned), workload)) => {
            for p in out.problems.iter().take(20) {
                eprintln!("check failed: {p}");
            }
            if out.problems.len() > 20 {
                eprintln!("... and {} more failed checks", out.problems.len() - 20);
            }
            let flags = if workload == Workload::Kernel100k {
                vec!["none".to_owned()]
            } else {
                host::daemon_flags(workload.shape().cache)
            };
            println!(
                "{{\"host\": {}, \"unnormalised\": {}}}",
                host::block(&flags, pinned),
                report::metrics_json(&out.unnormalised)
            );
            println!("{}", out.to_json());
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
