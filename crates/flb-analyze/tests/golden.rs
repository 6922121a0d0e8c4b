//! Golden-file suite: every rule demonstrated firing on a violating
//! snippet AND silenced by a reasoned waiver on its twin.
//!
//! The snippets live in `tests/golden/` (a directory the workspace
//! walker skips, so the repo's own lint gate never sees them) and are
//! analyzed under the synthetic paths their rules scope to. Assertions
//! pin rule ids, line numbers, and waiver plumbing — if a heuristic
//! drifts, the diff shows up here first.

use flb_analyze::analyze_files;
use flb_analyze::report::Report;

/// Analyzes one golden snippet under the rel-path its rule scopes to.
fn analyze(rel_path: &str, golden: &str) -> Report {
    analyze_files(vec![(rel_path.to_owned(), golden.to_owned())])
}

/// `(rule, line)` of unwaived findings, in report order.
fn unwaived(report: &Report) -> Vec<(&str, u32)> {
    report
        .unwaived()
        .map(|f| (f.rule.as_str(), f.line))
        .collect()
}

#[test]
fn alloc_rule_fires_inside_the_fence_only() {
    let report = analyze(
        "crates/flb-kernel/src/hot.rs",
        include_str!("golden/alloc_violating.rs"),
    );
    let got = unwaived(&report);
    assert_eq!(
        got,
        [
            ("no-alloc-in-hot-loop", 12), // push
            ("no-alloc-in-hot-loop", 13), // collect
            ("no-alloc-in-hot-loop", 14), // Box::new
            ("no-alloc-in-hot-loop", 15), // format!
        ],
        "full findings: {:#?}",
        report.findings
    );
}

#[test]
fn alloc_rule_is_silenced_by_a_reasoned_waiver() {
    let report = analyze(
        "crates/flb-kernel/src/hot.rs",
        include_str!("golden/alloc_waived.rs"),
    );
    assert_eq!(unwaived(&report), []);
    let waived: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.waived.is_some())
        .collect();
    assert_eq!(waived.len(), 1);
    assert!(waived[0]
        .waived
        .as_deref()
        .unwrap()
        .contains("preallocated"));
}

#[test]
fn panic_rule_fires_on_unwrap_expect_panic_and_wire_indexing() {
    let report = analyze(
        "crates/flb-service/src/proto.rs",
        include_str!("golden/panics_violating.rs"),
    );
    let got = unwaived(&report);
    assert_eq!(
        got,
        [
            ("no-panic-in-request-path", 6),  // unwrap
            ("no-panic-in-request-path", 7),  // expect
            ("no-panic-in-request-path", 9),  // panic!
            ("no-panic-in-request-path", 11), // buf[2]
        ],
        "full findings: {:#?}",
        report.findings
    );
}

#[test]
fn panic_rule_indexing_waiver_requires_the_bounds_argument() {
    let report = analyze(
        "crates/flb-service/src/proto.rs",
        include_str!("golden/panics_waived.rs"),
    );
    assert_eq!(unwaived(&report), []);
    let waived: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.waived.is_some())
        .collect();
    assert_eq!(waived.len(), 1);
    assert!(waived[0].waived.as_deref().unwrap().contains("guard"));
}

#[test]
fn panic_rule_holds_the_journal_to_the_wire_standard() {
    let report = analyze(
        "crates/flb-service/src/journal.rs",
        include_str!("golden/panics_journal_violating.rs"),
    );
    let got = unwaived(&report);
    assert_eq!(
        got,
        [
            ("no-panic-in-request-path", 7),  // unwrap
            ("no-panic-in-request-path", 9),  // panic!
            ("no-panic-in-request-path", 11), // buf[1] on torn-disk bytes
        ],
        "full findings: {:#?}",
        report.findings
    );
    // The replay client is scoped but not wire-indexed: the same source
    // under replay.rs drops the indexing finding, keeps the panics.
    let replay = analyze(
        "crates/flb-service/src/replay.rs",
        include_str!("golden/panics_journal_violating.rs"),
    );
    assert_eq!(
        unwaived(&replay),
        [
            ("no-panic-in-request-path", 7),
            ("no-panic-in-request-path", 9),
        ],
        "full findings: {:#?}",
        replay.findings
    );
}

#[test]
fn panic_rule_journal_indexing_waiver_requires_the_bounds_argument() {
    let report = analyze(
        "crates/flb-service/src/journal.rs",
        include_str!("golden/panics_journal_waived.rs"),
    );
    assert_eq!(unwaived(&report), [], "full: {:#?}", report.findings);
    let waived: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.waived.is_some())
        .collect();
    assert_eq!(waived.len(), 1);
    assert!(waived[0].waived.as_deref().unwrap().contains("guard"));
}

#[test]
fn wallclock_rule_fires_in_sim_scoped_crates() {
    let report = analyze(
        "crates/flb-sim/src/clock.rs",
        include_str!("golden/wallclock_violating.rs"),
    );
    let got = unwaived(&report);
    assert_eq!(
        got,
        [("no-wallclock-in-sim", 7), ("no-wallclock-in-sim", 8)],
        "full findings: {:#?}",
        report.findings
    );
    // The same source outside the scoped crates is clean.
    let elsewhere = analyze(
        "crates/flb-cli/src/clock.rs",
        include_str!("golden/wallclock_violating.rs"),
    );
    assert_eq!(unwaived(&elsewhere), []);
}

#[test]
fn wallclock_rule_waiver_names_the_probe() {
    let report = analyze(
        "crates/flb-sim/src/clock.rs",
        include_str!("golden/wallclock_waived.rs"),
    );
    assert_eq!(unwaived(&report), []);
    assert!(report
        .findings
        .iter()
        .any(|f| f.waived.as_deref().is_some_and(|r| r.contains("probe"))));
}

#[test]
fn lock_order_rule_fires_on_an_inverted_pair() {
    let report = analyze(
        "crates/flb-service/src/workers.rs",
        include_str!("golden/lock_order_violating.rs"),
    );
    let got = unwaived(&report);
    // Both directions of the cycle are reported, one per function.
    assert_eq!(got.len(), 2, "full findings: {:#?}", report.findings);
    assert!(got.iter().all(|(rule, _)| *rule == "lock-order"));
    let msgs: Vec<&str> = report.unwaived().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("queue") && m.contains("handles")),
        "messages must name both lock classes: {msgs:?}"
    );
}

#[test]
fn lock_order_rule_waiver_covers_each_acquisition_site() {
    let report = analyze(
        "crates/flb-service/src/workers.rs",
        include_str!("golden/lock_order_waived.rs"),
    );
    assert_eq!(unwaived(&report), [], "full: {:#?}", report.findings);
    // The cycle fires at both of its acquisition sites, and each one
    // carries its own justification.
    let reasons: Vec<&str> = report
        .findings
        .iter()
        .filter_map(|f| f.waived.as_deref())
        .collect();
    assert_eq!(reasons.len(), 2);
    assert!(reasons.iter().any(|r| r.contains("shutdown")));
    assert!(reasons.iter().any(|r| r.contains("before the pool starts")));
}

#[test]
fn lock_order_rule_fires_on_same_class_reentry() {
    let report = analyze(
        "crates/flb-bench/src/mailboxes.rs",
        include_str!("golden/lock_order_reentry_violating.rs"),
    );
    let got = unwaived(&report);
    // The self-edge fires once, at the second acquisition.
    assert_eq!(got, [("lock-order", 17)], "full: {:#?}", report.findings);
    let msg = report
        .unwaived()
        .next()
        .map(|f| f.message.as_str())
        .unwrap();
    assert!(
        msg.contains("re-entry") && msg.contains("inboxes"),
        "message must name the re-entered class: {msg}"
    );
}

#[test]
fn lock_order_reentry_waiver_names_the_index_order_argument() {
    let report = analyze(
        "crates/flb-bench/src/mailboxes.rs",
        include_str!("golden/lock_order_reentry_waived.rs"),
    );
    assert_eq!(unwaived(&report), [], "full: {:#?}", report.findings);
    let reasons: Vec<&str> = report
        .findings
        .iter()
        .filter_map(|f| f.waived.as_deref())
        .collect();
    assert_eq!(reasons.len(), 1);
    assert!(reasons[0].contains("ascending index order"));
}

#[test]
fn decode_alloc_rule_fires_on_unclamped_wire_sizes() {
    let report = analyze(
        "crates/flb-service/src/frame.rs",
        include_str!("golden/decode_alloc_violating.rs"),
    );
    let got = unwaived(&report);
    assert_eq!(
        got,
        [("bounded-decode-alloc", 6), ("bounded-decode-alloc", 7)],
        "full findings: {:#?}",
        report.findings
    );
}

#[test]
fn decode_alloc_rule_waiver_names_the_upstream_bound() {
    let report = analyze(
        "crates/flb-service/src/frame.rs",
        include_str!("golden/decode_alloc_waived.rs"),
    );
    assert_eq!(unwaived(&report), []);
    assert!(report
        .findings
        .iter()
        .any(|f| f.waived.as_deref().is_some_and(|r| r.contains("MAX_FRAME"))));
}

#[test]
fn hygiene_findings_cannot_be_waived_away() {
    let report = analyze(
        "crates/flb-kernel/src/hygiene.rs",
        include_str!("golden/hygiene_violating.rs"),
    );
    let got = unwaived(&report);
    let rules: Vec<&str> = got.iter().map(|(r, _)| *r).collect();
    // A reasonless allow, an unknown directive, and an unclosed region
    // are malformed pragmas; the well-formed allow that matches no
    // finding is stale.
    assert_eq!(
        rules,
        ["bad-pragma", "bad-pragma", "bad-pragma", "stale-waiver"],
        "full findings: {:#?}",
        report.findings
    );
}
