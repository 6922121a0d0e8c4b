//! The result line, the exact-count canary and the run's output files.

use flb_service::fingerprint::Fnv64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// The timed run's time metrics before normalisation, and the
    /// reference time they were normalised by.
    pub unnormalised: Vec<Metric>,
    /// Exact counts that must repeat across runs of one seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Why checks failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// Metrics as one JSON object of `{"value", "unit"}` objects by name.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; report them as -1 so the
        // line stays parseable and the value is visibly wrong.
        let v = if x.value.is_finite() { x.value } else { -1.0 };
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    format!("{{{m}}}")
}

/// Directory for span files and canaries, inside the benchmark package.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Renders counts one `name value` per line.
#[must_use]
pub fn render_counts(counts: &BTreeMap<&'static str, u64>) -> String {
    counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// A hash of the running binary, so that canaries compare runs of one
/// build only: another build may count differently on purpose.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("cannot read {}: {e}", exe.display()))?;
    let mut h = Fnv64::new();
    h.write(&bytes);
    Ok(h.finish())
}

/// Compares `counts` with the canary an earlier run of the same build
/// and key left behind, or leaves one. Returns the names that differ.
pub fn canary(key: &str, counts: &BTreeMap<&'static str, u64>) -> Result<Vec<String>, String> {
    let dir = out_dir().join("canary");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{key}-{:016x}.txt", build_id()?));
    let now = render_counts(counts);
    match std::fs::read_to_string(&path) {
        Ok(before) => Ok(diff_counts(&before, &now)),
        Err(_) => {
            std::fs::write(&path, now)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(Vec::new())
        }
    }
}

/// Lines of two count renderings that differ, by name.
#[must_use]
pub fn diff_counts(before: &str, now: &str) -> Vec<String> {
    let parse = |s: &str| -> BTreeMap<String, String> {
        s.lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect()
    };
    let (a, b) = (parse(before), parse(now));
    let mut names: Vec<String> = a.keys().chain(b.keys()).cloned().collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter(|k| a.get(k) != b.get(k))
        .map(|k| {
            format!(
                "{k}: {} then {}",
                a.get(&k).map_or("absent", String::as_str),
                b.get(&k).map_or("absent", String::as_str)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: vec![
                metric("ops_per_s", 12.5, "1/s"),
                metric("x", f64::NAN, "ms"),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \"x\": {\"value\": -1, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn count_diffs_name_every_mismatch() {
        let mut a = BTreeMap::new();
        a.insert("kernel.demotions", 5);
        a.insert("proto.request_bytes", 100);
        let mut b = a.clone();
        assert!(diff_counts(&render_counts(&a), &render_counts(&b)).is_empty());
        b.insert("kernel.demotions", 6);
        b.remove("proto.request_bytes");
        assert_eq!(
            diff_counts(&render_counts(&a), &render_counts(&b)),
            vec![
                "kernel.demotions: 5 then 6",
                "proto.request_bytes: 100 then absent"
            ]
        );
    }
}
