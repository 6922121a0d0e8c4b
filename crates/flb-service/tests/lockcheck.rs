//! Dynamic lock-discipline tests: the `lockcheck` feature of the
//! vendored `parking_lot` stub (enabled for all flb-service test
//! builds via dev-dependency feature unification) records every
//! `held-class → acquired-class` edge of named locks into a global
//! order graph and panics the moment an acquisition would close a
//! cycle.
//!
//! Two halves:
//!
//! * the real daemon worker pool — whose `"queue"` and
//!   `"worker-handles"` locks are the named classes the static
//!   `lock-order` rule reasons about — runs a full serve/schedule/
//!   shutdown cycle clean under the checker;
//! * a deliberately inverted pair of acquisitions on test-only classes
//!   is caught on the very run that closes the cycle, proving the
//!   checker actually fires (not merely that the daemon is quiet).
//!
//! The inversion test uses uniquely named classes (`"lockcheck-e2e-a"`
//! / `"lockcheck-e2e-b"`) so the poisoned edges it plants in the
//! process-global graph can never implicate the daemon's classes, and
//! vice versa, regardless of test ordering.

use flb_core::AlgorithmId;
use flb_graph::costs::CostModel;
use flb_graph::gen::Family;
use flb_sched::Machine;
use flb_service::{serve, Client, Endpoint, ServiceConfig, Submission};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The full request path — accept loop, bounded queue, worker pool,
/// cache, graceful shutdown — under the dynamic checker. Any cyclic or
/// re-entrant acquisition of the daemon's named locks panics the
/// offending thread, which surfaces as a failed schedule or a hung
/// join; a clean pass is the assertion.
#[test]
fn daemon_worker_pool_runs_clean_under_lockcheck() {
    let handle =
        serve(&Endpoint::parse("127.0.0.1:0"), ServiceConfig::default()).expect("bind loopback");
    let mut client = Client::connect(&handle.endpoint()).expect("connect");

    let machine = Machine::new(4);
    for seed in 0..4u64 {
        let graph = CostModel::paper_default(1.0).apply(&Family::Lu.topology(80), seed);
        let reply = client
            .schedule(AlgorithmId::Flb, graph, machine.clone(), 0)
            .expect("schedule request");
        assert!(
            matches!(reply, Submission::Done(_)),
            "worker pool must stay live under lockcheck, got {reply:?}"
        );
    }
    let stats = client.stats().expect("stats");
    assert!(
        stats.schedule_requests >= 4,
        "all submissions must be counted"
    );
    assert_eq!(
        stats.worker_panics, 0,
        "no worker may panic under lockcheck"
    );
    drop(client);
    handle.shutdown();
    handle.join();
}

/// The checker itself: acquire test-only classes in `a → b` order to
/// establish the edge, then close the cycle by acquiring `b → a`. The
/// second acquisition must panic with the ordering-cycle diagnostic
/// before any deadlock can form.
#[test]
fn inverted_acquisition_is_caught() {
    let a = Mutex::named("lockcheck-e2e-a", 0u32);
    let b = Mutex::named("lockcheck-e2e-b", 0u32);

    {
        let _ga = a.lock();
        let _gb = b.lock(); // records lockcheck-e2e-a → lockcheck-e2e-b
    }

    let err = catch_unwind(AssertUnwindSafe(|| {
        let _gb = b.lock();
        let _ga = a.lock(); // closes the cycle: must panic, not proceed
    }))
    .expect_err("inverted acquisition must panic under lockcheck");

    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("ordering cycle"),
        "panic must name the ordering cycle, got: {msg}"
    );
    assert!(
        msg.contains("lockcheck-e2e-a") && msg.contains("lockcheck-e2e-b"),
        "panic must name both lock classes, got: {msg}"
    );
}

/// Re-entrant acquisition of one named class self-deadlocks with std
/// mutexes; under lockcheck it panics immediately instead of hanging.
#[test]
fn reentrant_acquisition_is_caught() {
    let m = Mutex::named("lockcheck-e2e-reentrant", ());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _g1 = m.lock();
        let _g2 = m.lock();
    }))
    .expect_err("re-entrant acquisition must panic under lockcheck");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("self-deadlock"),
        "panic must name the self-deadlock, got: {msg}"
    );
}

/// Two distinct locks of one named class — an indexed collection such as
/// one mailbox per shard — held at once: opposite index orders on two
/// threads deadlock, so the checker must panic on the second acquisition
/// and name the class.
#[test]
fn holding_two_inboxes_at_once_is_caught() {
    let a = Mutex::named("lockcheck-e2e.inbox", Vec::<u32>::new());
    let b = Mutex::named("lockcheck-e2e.inbox", Vec::<u32>::new());
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ga = a.lock();
        let _gb = b.lock();
    }))
    .expect_err("same-class re-entry must panic under lockcheck");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("lockcheck-e2e.inbox"),
        "panic must name the inbox class, got: {msg}"
    );
}
