//! The schedulers under test.
//!
//! Every algorithm the workspace ships is registered here with the replay
//! fidelity the discrete-event simulator owes it: append-style list
//! schedulers (every task lands after everything already on its processor)
//! replay *exactly*; insertion schedulers (idle-slot backfilling) may only
//! replay equal-or-earlier, because the simulator is eager given the fixed
//! per-processor order.

use flb_baselines::{Dls, DscLlb, Etf, Fcp, Heft, Hlfet, Mcp};
use flb_core::{Flb, TieBreak};
use flb_kernel::FlbKernel;
use flb_sched::Scheduler;

/// How faithfully the simulator must reproduce a scheduler's static times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replay {
    /// Simulated start/finish times equal the static ones for every task.
    Exact,
    /// Simulated times are never later than the static ones (insertion
    /// schedules: the simulator is work-conserving given the fixed order).
    NoLater,
}

/// One registered scheduler.
pub struct Entry {
    /// Stable name (also accepted by the `flb` CLI and corpus files).
    pub name: &'static str,
    /// The algorithm.
    pub scheduler: Box<dyn Scheduler>,
    /// Replay fidelity class.
    pub replay: Replay,
}

/// All eleven registered schedulers, in comparison order.
#[must_use]
pub fn all() -> Vec<Entry> {
    fn e(name: &'static str, scheduler: Box<dyn Scheduler>, replay: Replay) -> Entry {
        Entry {
            name,
            scheduler,
            replay,
        }
    }
    vec![
        e("flb", Box::new(Flb::default()), Replay::Exact),
        e(
            "flb-fifo",
            Box::new(Flb::with_tie_break(TieBreak::TaskId)),
            Replay::Exact,
        ),
        // The data-oriented kernel must be indistinguishable from "flb":
        // registering it subjects it to every differential and metamorphic
        // oracle, and the sim-replay check holds it to exact times.
        e("flb-kernel", Box::new(FlbKernel::new()), Replay::Exact),
        e("etf", Box::new(Etf), Replay::Exact),
        e("mcp", Box::new(Mcp::default()), Replay::Exact),
        e("mcp-ins", Box::new(Mcp::original()), Replay::NoLater),
        e("fcp", Box::new(Fcp), Replay::Exact),
        e("dsc-llb", Box::new(DscLlb::default()), Replay::Exact),
        e("dls", Box::new(Dls), Replay::Exact),
        e("heft", Box::new(Heft), Replay::NoLater),
        e("hlfet", Box::new(Hlfet), Replay::Exact),
    ]
}

/// Looks a registered scheduler up by its stable name.
#[must_use]
pub fn by_name(name: &str) -> Option<Entry> {
    all().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_eleven_schedulers_with_unique_names() {
        let entries = all();
        assert_eq!(entries.len(), 11);
        let mut names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "duplicate registry names");
    }

    /// The kernel and the reference produce identical schedules (the fuzz
    /// suite enforces this across many instances; this pins the wiring).
    #[test]
    fn kernel_is_registered_and_matches_flb() {
        let g = flb_graph::paper::fig1();
        let m = flb_sched::Machine::new(2);
        let kernel = by_name("flb-kernel").expect("kernel registered");
        let reference = by_name("flb").expect("reference registered");
        assert_eq!(kernel.replay, Replay::Exact);
        assert_eq!(
            kernel.scheduler.schedule(&g, &m).placements(),
            reference.scheduler.schedule(&g, &m).placements()
        );
    }

    #[test]
    fn relaxed_schedulers_are_no_later() {
        // Insertion schedulers backfill idle slots, so they replay
        // equal-or-earlier.
        for e in all() {
            let expect = matches!(e.name, "mcp-ins" | "heft");
            assert_eq!(e.replay == Replay::NoLater, expect, "{}", e.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("flb").is_some());
        assert!(by_name("dsc-llb").is_some());
        assert!(by_name("nope").is_none());
    }
}
