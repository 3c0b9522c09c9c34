//! A task-based runtime with dataflow dependencies and asynchronous
//! scheduling — the PaRSEC-like substrate of the framework (paper §III-B).
//!
//! Algorithms are expressed as directed acyclic graphs ([`graph::TaskGraph`])
//! whose vertices are tasks and whose edges are dependencies. One function,
//! [`execute`], runs a graph over a pool of worker threads with a
//! work-stealing design: per-worker priority deques, steal-half victim
//! rotation, targeted single-worker wake-ups, locality-aware dispatch via
//! per-task affinity hints, and critical-path-derived priorities
//! ([`graph::TaskGraph::critical_path_lengths`]) steering workers toward
//! the longest remaining dependency chain first — the scheduling quality
//! PaRSEC's runtime provides for tile Cholesky. With one worker the same
//! loop runs tasks in strict priority order: `nthreads = 1` is the
//! deterministic oracle. Each run returns [`ExecStats`] (per-worker
//! steal/park/wake counters and the failed-attempt log); per-task timing
//! is the `TaskExec` span stream of `mixedp-obs`, which feeds occupancy
//! and Gantt analysis (paper Figs 3, 9).

pub mod dtd;
pub mod fault;
pub mod gantt;
pub mod graph;
pub mod scheduler;
pub mod stats;

pub use dtd::{DataKey, DtdBuilder};
pub use fault::{Corruption, FaultPlan, RetryPolicy, TaskFailure, WireFault};
pub use gantt::{render_gantt, render_gantt_with_stats};
pub use graph::{TaskGraph, TaskId};
pub use scheduler::{execute, ExecOptions, ExecuteError};
pub use stats::{ExecStats, WorkerStats};
