//! Scheduling substrate: machine model, schedules, validation, metrics.
//!
//! The paper's target platform (§2) is a set of `P` homogeneous processors
//! in a clique topology with contention-free communication; once two tasks
//! are on the same processor their communication cost is zero. This crate
//! provides everything *around* a scheduling algorithm:
//!
//! * [`Machine`]/[`ProcId`] — the platform model;
//! * [`Schedule`] and [`ScheduleBuilder`] — building a schedule while
//!   maintaining the partial-schedule quantities the paper defines
//!   (`PRT`, `FT`, `LMT`, `EMT`, `EST`, enabling processor);
//! * [`validate`] — a full independent checker (precedence, communication
//!   delays, processor exclusivity) used by the tests of every algorithm;
//! * [`metrics`] — makespan, speedup, NSL, efficiency;
//! * [`bounds`] — machine-independent makespan lower bounds;
//! * [`io`] — schedule serialisation (plain-data mirror + text format);
//! * [`gantt`] — ASCII Gantt-chart rendering;
//! * [`Scheduler`] — the trait implemented by FLB and every baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod schedule;

pub mod bounds;
pub mod gantt;
pub mod io;
pub mod metrics;
pub mod repair;
pub mod validate;

pub use machine::{Machine, ProcId};
pub use schedule::{Placement, Schedule, ScheduleBuilder};

use flb_graph::TaskGraph;

/// A scheduling algorithm: maps a task graph onto a machine.
///
/// Implementations must produce a schedule that passes
/// [`validate::validate`]; this is enforced by the shared test-suite in the
/// workspace-level integration tests.
pub trait Scheduler {
    /// Short display name as used in the paper's figures ("FLB", "MCP", …).
    fn name(&self) -> &'static str;

    /// Computes a complete schedule of `graph` on `machine`.
    fn schedule(&self, graph: &TaskGraph, machine: &Machine) -> Schedule;
}
