//! Algorithm 1: the adaptive mixed-precision tile Cholesky, executed for
//! real on the task runtime (numerical mode).
//!
//! The DAG matches the paper's Fig 3: `POTRF(k,k)` releases the TRSMs of
//! column `k`; `TRSM(m,k)` releases the SYRK on `(m,m)` and the GEMMs it
//! feeds in row/column `m`; in-place tile updates serialize through their
//! last writer. Kernel precisions come from the [`PrecisionMap`]; every
//! kernel's arithmetic follows its format exactly (`mixedp-kernels`), so
//! the factor and everything downstream (log-likelihoods, parameter
//! estimates) carry genuine mixed-precision rounding.
//!
//! [`CholeskyTask::inputs`] and [`CholeskyTask::readers`] are the one
//! statement of who reads which tile: [`build_dag`] takes its read
//! dependencies from the former, the STC cache fill its compute formats
//! and reader counts from the latter, and the distributed engine and the
//! DES task builder read both.

use crate::precision_map::PrecisionMap;
use mixedp_fp::Precision;
use mixedp_kernels::{
    blas::NotSpd, compute_format_index, gemm_tile_ws_cached, make_compute_buf, potrf_tile_ws,
    syrk_tile_ws, tile_is_finite, trsm_tile_ws, ComputeBuf, KernelKind, Workspace,
    N_COMPUTE_FORMATS,
};
use mixedp_obs as obs;
use mixedp_runtime::{
    execute, ExecOptions, ExecuteError, FaultPlan, RetryPolicy, TaskGraph, TaskId, WorkerStats,
};
use mixedp_tile::{SymmTileMatrix, Tile};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Poison-tolerant locking for the tile cells and STC caches: a panicking
/// (possibly fault-injected) task must never wedge a retried attempt or a
/// surviving worker on a poisoned lock. Tile state after a mid-kernel panic
/// is numerical garbage, not memory-unsafe — the recovery layers above
/// (task retry, precision escalation) own correctness.
fn lock_pt<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_pt<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_pt<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// One kernel instance of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyTask {
    Potrf { k: usize },
    Trsm { m: usize, k: usize },
    Syrk { m: usize, k: usize },
    Gemm { m: usize, n: usize, k: usize },
}

impl CholeskyTask {
    pub fn kind(&self) -> KernelKind {
        match self {
            CholeskyTask::Potrf { .. } => KernelKind::Potrf,
            CholeskyTask::Trsm { .. } => KernelKind::Trsm,
            CholeskyTask::Syrk { .. } => KernelKind::Syrk,
            CholeskyTask::Gemm { .. } => KernelKind::Gemm,
        }
    }

    /// The tile this task writes (lower-triangular coordinates).
    pub fn output_tile(&self) -> (usize, usize) {
        match *self {
            CholeskyTask::Potrf { k } => (k, k),
            CholeskyTask::Trsm { m, k } => (m, k),
            CholeskyTask::Syrk { m, .. } => (m, m),
            CholeskyTask::Gemm { m, n, .. } => (m, n),
        }
    }

    /// The tiles this task reads after another task finalized them (its
    /// in-place output tile aside): TRSM reads `L(k,k)`, SYRK reads panel
    /// tile `(m,k)`, GEMM reads panel tiles `(m,k)` and `(n,k)`. Together
    /// with [`CholeskyTask::readers`] this is the one statement of
    /// Algorithm 1's read edges.
    pub fn inputs(&self) -> impl Iterator<Item = (usize, usize)> {
        let (a, b) = match *self {
            CholeskyTask::Potrf { .. } => (None, None),
            CholeskyTask::Trsm { k, .. } => (Some((k, k)), None),
            CholeskyTask::Syrk { m, k } => (Some((m, k)), None),
            CholeskyTask::Gemm { m, n, k } => (Some((m, k)), Some((n, k))),
        };
        a.into_iter().chain(b)
    }

    /// The tasks of an `nt × nt` factorization that read this task's output
    /// (the inverse of [`CholeskyTask::inputs`]): POTRF(k) feeds the TRSMs
    /// of column `k`; TRSM(m,k) feeds SYRK(m,k), the row-`m` GEMMs
    /// `(m, n)` and the column-`m` GEMMs `(i, m)`. SYRK and GEMM outputs
    /// are only read by the next in-place update of the same tile.
    pub fn readers(&self, nt: usize) -> impl Iterator<Item = CholeskyTask> {
        let (potrf, trsm) = match *self {
            CholeskyTask::Potrf { k } => (Some(k), None),
            CholeskyTask::Trsm { m, k } => (None, Some((m, k))),
            _ => (None, None),
        };
        let trsms = potrf
            .into_iter()
            .flat_map(move |k| ((k + 1)..nt).map(move |m| CholeskyTask::Trsm { m, k }));
        let updates = trsm.into_iter().flat_map(move |(m, k)| {
            std::iter::once(CholeskyTask::Syrk { m, k })
                .chain(((k + 1)..m).map(move |n| CholeskyTask::Gemm { m, n, k }))
                .chain(((m + 1)..nt).map(move |i| CholeskyTask::Gemm { m: i, n: m, k }))
        });
        trsms.chain(updates)
    }
}

impl std::fmt::Display for CholeskyTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CholeskyTask::Potrf { k } => write!(f, "POTRF({k},{k})"),
            CholeskyTask::Trsm { m, k } => write!(f, "TRSM({m},{k})"),
            CholeskyTask::Syrk { m, k } => write!(f, "SYRK({m},{m})@{k}"),
            CholeskyTask::Gemm { m, n, k } => write!(f, "GEMM({m},{n})@{k}"),
        }
    }
}

/// The Cholesky DAG: the task graph plus each task's payload.
pub struct CholeskyDag {
    pub graph: TaskGraph,
    pub tasks: Vec<CholeskyTask>,
}

/// Relative cost of one kernel instance, indexed by
/// `[POTRF, TRSM, SYRK, GEMM]` — the weights of the critical-path pass.
pub type KernelCosts = [i64; 4];

/// Default weights: tile-kernel flop counts in units of `nb³/3`
/// (POTRF `nb³/3`, TRSM `nb³`, SYRK `nb³`, GEMM `2nb³`).
pub const DEFAULT_KERNEL_COSTS: KernelCosts = [1, 3, 3, 6];

/// Cost of `kind` under `costs`.
pub fn kernel_cost(costs: &KernelCosts, kind: KernelKind) -> i64 {
    match kind {
        KernelKind::Potrf => costs[0],
        KernelKind::Trsm => costs[1],
        KernelKind::Syrk => costs[2],
        KernelKind::Gemm => costs[3],
    }
}

/// Build the Algorithm 1 DAG for `nt × nt` tiles with the default kernel
/// cost weights (see [`build_dag_with_costs`]).
pub fn build_dag(nt: usize) -> CholeskyDag {
    build_dag_with_costs(nt, &DEFAULT_KERNEL_COSTS)
}

/// Build the Algorithm 1 DAG for `nt × nt` tiles.
///
/// Task priorities are the DAG's *weighted critical-path lengths*
/// ([`TaskGraph::critical_path_lengths`]) under the caller-supplied
/// per-kernel cost weights: a ready task outranks another exactly when
/// the chain of work its completion unlocks is longer. This subsumes the
/// old static panel-first heuristic — POTRF/TRSM of iteration `k` sit on
/// longer remaining chains than iteration `k+1` trailing updates, so the
/// panel ordering emerges from the weights — while also ranking *within*
/// a class (e.g. the GEMMs feeding the next panel column outrank GEMMs of
/// far-future columns).
///
/// Each in-place update also carries an affinity hint naming the previous
/// writer of its output tile, so the work-stealing scheduler dispatches it
/// to the worker whose cache is hot.
pub fn build_dag_with_costs(nt: usize, costs: &KernelCosts) -> CholeskyDag {
    let mut graph = TaskGraph::with_capacity(nt * nt * nt / 6 + nt * nt);
    let mut tasks = Vec::new();
    // last writer of each tile (lower-packed)
    let mut last_write: Vec<Option<TaskId>> = vec![None; nt * (nt + 1) / 2];
    let idx = |i: usize, j: usize| i * (i + 1) / 2 + j;
    let mut add = |t: CholeskyTask| {
        // Read edges: a task's inputs are final once written (POTRF and
        // TRSM are the last writers of their tiles), so each read depends
        // on the input's last writer; the in-place update then serializes
        // behind the previous writer of the output tile.
        let (oi, oj) = t.output_tile();
        let prev = last_write[idx(oi, oj)];
        let mut deps = Vec::with_capacity(3);
        deps.extend(
            t.inputs()
                .map(|(i, j)| last_write[idx(i, j)].expect("input read before it is written")),
        );
        deps.extend(prev);
        last_write[idx(oi, oj)] = Some(graph.add_task_with_affinity(deps, 0, prev));
        tasks.push(t);
    };
    for k in 0..nt {
        add(CholeskyTask::Potrf { k });
        for m in (k + 1)..nt {
            add(CholeskyTask::Trsm { m, k });
        }
        for m in (k + 1)..nt {
            add(CholeskyTask::Syrk { m, k });
            for n in (k + 1)..m {
                add(CholeskyTask::Gemm { m, n, k });
            }
        }
    }
    // Critical-path priorities: the weighted longest chain below each task.
    let cp = graph.critical_path_lengths(|id| kernel_cost(costs, tasks[id].kind()));
    graph.set_priorities(&cp);
    CholeskyDag { graph, tasks }
}

/// Statistics of a numerical factorization run.
#[derive(Debug, Clone)]
pub struct FactorStats {
    pub tasks_run: usize,
    pub kernel_counts: [usize; 4], // potrf, trsm, syrk, gemm
    pub wall_s: f64,
    /// Storage bytes of the factored matrix under the map vs full FP64.
    pub storage_bytes_mp: u64,
    pub storage_bytes_fp64: u64,
    /// Tile → compute-format quantizations actually executed (producer-side
    /// conversions plus any consumer-side fallbacks).
    pub conversions_performed: u64,
    /// GEMM operand quantizations skipped because a producer-converted
    /// buffer (STC) was reused instead.
    pub conversions_avoided: u64,
    /// Payload bytes of the avoided quantizations — the data-motion saving
    /// of STC over convert-at-every-consumer (TTC).
    pub conversion_bytes_avoided: u64,
    /// How many times the whole factorization ran (1 = clean first pass;
    /// each additional attempt was a recovery restart).
    pub factor_attempts: u32,
    /// The recovery log: one entry per restart, naming the breakdown and
    /// what the precision map escalation cost (paper-style visibility into
    /// what graceful degradation actually did).
    pub escalations: Vec<EscalationEvent>,
    /// Task attempts that panicked and were re-executed by the runtime's
    /// bounded retry policy (recovered task-level faults).
    pub task_retries: u64,
    /// Per-worker scheduler counters of the nested executor, accumulated
    /// elementwise across all factorization attempts: one entry per
    /// scheduler worker, so a serial (`nthreads <= 1`) run has exactly one.
    pub sched_per_worker: Vec<WorkerStats>,
    /// Sum of `sched_per_worker` — the run's scheduler totals.
    pub sched_totals: WorkerStats,
}

impl FactorStats {
    /// Add this run's counters to the metrics registry: `factor.*` for
    /// the factorization itself and `scheduler.*` for the nested
    /// executor's accumulated per-worker totals.
    pub fn publish_metrics(&self) {
        static RUNS: obs::LazyCounter = obs::LazyCounter::new("factor.runs");
        static TASKS: obs::LazyCounter = obs::LazyCounter::new("factor.tasks_run");
        static ATTEMPTS: obs::LazyCounter = obs::LazyCounter::new("factor.attempts");
        static ESCALATIONS: obs::LazyCounter = obs::LazyCounter::new("factor.escalations");
        static TASK_RETRIES: obs::LazyCounter = obs::LazyCounter::new("factor.task_retries");
        static CONV_PERFORMED: obs::LazyCounter =
            obs::LazyCounter::new("factor.conversions_performed");
        static CONV_AVOIDED: obs::LazyCounter = obs::LazyCounter::new("factor.conversions_avoided");
        static CONV_BYTES_AVOIDED: obs::LazyCounter =
            obs::LazyCounter::new("factor.conversion_bytes_avoided");
        RUNS.inc();
        TASKS.add(self.tasks_run as u64);
        ATTEMPTS.add(self.factor_attempts as u64);
        ESCALATIONS.add(self.escalations.len() as u64);
        TASK_RETRIES.add(self.task_retries);
        CONV_PERFORMED.add(self.conversions_performed);
        CONV_AVOIDED.add(self.conversions_avoided);
        CONV_BYTES_AVOIDED.add(self.conversion_bytes_avoided);
        self.sched_totals.publish_metrics();
    }

    /// Fraction of GEMM-operand conversions that STC eliminated:
    /// `avoided / (avoided + performed)`. Zero when no reduced-precision
    /// GEMMs ran.
    pub fn stc_avoidance_ratio(&self) -> f64 {
        let total = self.conversions_avoided + self.conversions_performed;
        if total == 0 {
            0.0
        } else {
            self.conversions_avoided as f64 / total as f64
        }
    }
}

/// Why a factorization attempt broke down at some tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownCause {
    /// POTRF hit a non-positive pivot: the tile's update path was
    /// quantized too aggressively (or the matrix is genuinely indefinite).
    NotSpd,
    /// The post-kernel health check found NaN/Inf in the output tile.
    NonFinite,
    /// A [`FaultPlan`] corruption we injected ourselves — recovered by a
    /// plain re-run (transient), never charged to the precision map.
    Injected,
}

impl std::fmt::Display for BreakdownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakdownCause::NotSpd => write!(f, "non-SPD pivot"),
            BreakdownCause::NonFinite => write!(f, "non-finite output"),
            BreakdownCause::Injected => write!(f, "injected corruption"),
        }
    }
}

/// One recovery restart of the factorization: which task broke down, why,
/// and how many precision-map tiles the escalation promoted toward FP64
/// (`0` for transient injected corruption, which re-runs unchanged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscalationEvent {
    /// The factorization attempt that failed (1-based).
    pub factor_attempt: u32,
    pub task: CholeskyTask,
    /// Output tile of the failing task.
    pub tile: (usize, usize),
    pub cause: BreakdownCause,
    /// Tiles whose kernel precision moved one level toward FP64.
    pub escalated_tiles: usize,
}

/// Typed failure modes of the fault-tolerant factorization — every hard
/// abort of the classic path becomes a reported, bounded outcome here.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// Breakdown with the implicated tiles already fully FP64: the matrix
    /// is genuinely not positive definite — no escalation can help.
    NotSpd(NotSpd),
    /// Non-finite output with no escalation left: bad input data (NaN/Inf
    /// in the matrix itself) rather than precision breakdown.
    NonFinite { task: CholeskyTask },
    /// The recovery budget ran out before a clean pass; `last` names the
    /// breakdown that exhausted it.
    EscalationExhausted { budget: u32, last: EscalationEvent },
    /// A task panicked through its whole runtime retry budget. The record
    /// names the kernel instance — never an anonymous "worker panicked".
    TaskFailed {
        task: CholeskyTask,
        attempt: u32,
        cause: String,
    },
    /// A worker thread died outside task execution (scheduler bug).
    WorkerPanicked,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotSpd(e) => {
                write!(f, "matrix is not positive definite at column {}", e.column)
            }
            FactorError::NonFinite { task } => {
                write!(
                    f,
                    "non-finite output of {task} with nothing left to escalate"
                )
            }
            FactorError::EscalationExhausted { budget, last } => write!(
                f,
                "escalation budget ({budget}) exhausted; last breakdown: {} at {} (attempt {})",
                last.cause, last.task, last.factor_attempt
            ),
            FactorError::TaskFailed {
                task,
                attempt,
                cause,
            } => write!(f, "{task} failed after {attempt} attempt(s): {cause}"),
            FactorError::WorkerPanicked => write!(f, "a worker thread panicked"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Configuration of the fault-tolerant factorization driver.
#[derive(Debug, Clone)]
pub struct FactorOptions {
    /// DAG workers (1 = the deterministic one-worker order).
    pub nthreads: usize,
    /// Maximum recovery restarts (precision escalations plus transient
    /// corruption re-runs) before giving up with
    /// [`FactorError::EscalationExhausted`].
    pub escalation_budget: u32,
    /// Run the post-kernel NaN/Inf probe on every output tile
    /// ([`mixedp_kernels::tile_is_finite`]); the cost is one streaming
    /// pass per tile, `O(1/nb)` of the kernel's own work.
    pub finite_checks: bool,
    /// Deterministic fault-injection plan (default: no faults).
    pub faults: FaultPlan,
    /// Runtime retry policy for panicking tasks.
    pub retry: RetryPolicy,
    /// Re-apply the map's storage prescription to the *input* tiles at the
    /// start of every attempt (from the caller's, normally FP64, copy).
    /// Without this, a caller that narrowed its tiles before the call has
    /// already destroyed the information a precision escalation needs —
    /// the escalated map would re-factor the same degraded data. The MLE
    /// path sets this so each retry re-narrows `Σ` fresh from FP64 under
    /// the escalated map.
    pub renarrow_storage: bool,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            nthreads: 1,
            escalation_budget: 24,
            finite_checks: true,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            renarrow_storage: false,
        }
    }
}

impl FactorOptions {
    pub fn with_threads(nthreads: usize) -> Self {
        FactorOptions {
            nthreads,
            ..Default::default()
        }
    }
}

/// Factor `a` in place under `pmap` using `nthreads` workers (1, or 0, =
/// the scheduler's deterministic one-worker order). Returns stats; the matrix holds `L`
/// tile-wise (each tile in its storage precision) on success.
///
/// # Data path
///
/// Each worker owns a [`Workspace`] (threaded through the scheduler's
/// per-worker-context API), so kernel staging performs zero heap
/// allocations once the buffers are warm. When `nthreads > 1` the kernels
/// themselves run sequentially — the DAG already saturates the workers, and
/// nested rayon parallelism inside kernels would oversubscribe the machine.
///
/// # Producer-side conversion caching (STC)
///
/// When `TRSM(m,k)` finalizes panel tile `(m,k)`, it quantizes the tile
/// into every compute format its downstream GEMMs will need — **once** —
/// and shares the buffers via `Arc`. Consuming GEMMs reuse them instead of
/// re-converting per task (the paper's single-time conversion, vs.
/// two-time conversion at every consumer). Buffers are freed as soon as the
/// last consumer has run. Cached and locally-quantized operands go through
/// the same rounding routine, so STC never changes a bit of the result.
pub fn factorize_mp(
    a: &mut SymmTileMatrix,
    pmap: &PrecisionMap,
    nthreads: usize,
) -> Result<FactorStats, NotSpd> {
    // Classic semantics on top of the fault-tolerant engine: no finite
    // checks, no injected faults, no task retry, fast-fail drain on the
    // first breakdown — and a genuine worker panic still propagates as a
    // panic, exactly as before.
    let opts = FactorOptions {
        nthreads,
        escalation_budget: 0,
        finite_checks: false,
        faults: FaultPlan::none(),
        retry: RetryPolicy::no_retry(),
        renarrow_storage: false,
    };
    let nb = a.nb();
    let dag = build_dag(a.nt());
    let t0 = std::time::Instant::now();
    let sp = obs::span_start();
    let attempt = run_attempt(a, &dag, pmap, &opts, 1, true);
    obs::span_end(sp, obs::EventKind::FactorAttempt, 1);
    match attempt {
        Ok(mut out) => match out.first_failure() {
            None => {
                let sched = std::mem::take(&mut out.sched_stats);
                Ok(finish_stats(
                    &dag,
                    pmap,
                    a.nb(),
                    t0,
                    out,
                    1,
                    Vec::new(),
                    0,
                    sched,
                ))
            }
            Some((task_idx, _)) => {
                let (i, _) = dag.tasks[task_idx].output_tile();
                Err(NotSpd { column: i * nb })
            }
        },
        Err(e) => panic!("worker panicked during factorization: {e}"),
    }
}

/// Fault-tolerant factorization: [`factorize_mp`] wrapped in the recovery
/// loop of the mixed-precision literature. A breakdown (non-SPD pivot, or
/// NaN/Inf caught by the post-kernel health check) escalates the offending
/// tile's row/column one level toward FP64 in a working copy of the
/// precision map, re-plans conversions, and refactorizes — bounded by
/// `opts.escalation_budget` — while task panics are retried by the runtime
/// under `opts.retry`. Every recovery action is recorded in the returned
/// [`FactorStats`] (`factor_attempts`, `escalations`, `task_retries`).
///
/// Failure choice is deterministic: an attempt runs the whole DAG (kernels
/// are bit-reproducible across schedules), collects every breakdown, and
/// recovers the one with the smallest task id — so serial and parallel
/// runs take the same escalation path.
pub fn factorize_mp_recovering(
    a: &mut SymmTileMatrix,
    pmap: &PrecisionMap,
    opts: &FactorOptions,
) -> Result<FactorStats, FactorError> {
    let nt = a.nt();
    assert_eq!(pmap.nt(), nt, "precision map / matrix mismatch");
    let dag = build_dag(nt);
    let mut map = pmap.clone();
    let mut escalations: Vec<EscalationEvent> = Vec::new();
    let mut task_retries = 0u64;
    let mut sched_acc: Vec<WorkerStats> = Vec::new();
    let t0 = std::time::Instant::now();
    let mut factor_attempt = 0u32;
    loop {
        factor_attempt += 1;
        let sp = obs::span_start();
        let attempt = run_attempt(a, &dag, &map, opts, factor_attempt, false);
        obs::span_end(sp, obs::EventKind::FactorAttempt, factor_attempt as u64);
        let out = attempt?;
        task_retries += out.task_retries;
        accumulate_sched(&mut sched_acc, &out.sched_stats);
        let Some((task_idx, cause)) = out.first_failure() else {
            return Ok(finish_stats(
                &dag,
                &map,
                a.nb(),
                t0,
                out,
                factor_attempt,
                escalations,
                task_retries,
                sched_acc,
            ));
        };
        let task = dag.tasks[task_idx];
        let tile = task.output_tile();
        let escalated = if cause == BreakdownCause::Injected {
            // Transient injected corruption: a plain re-run recovers it
            // (rate faults hash the attempt number); never charge the map.
            0
        } else {
            let changed = map.escalate_cross(tile.0, tile.1);
            if changed == 0 {
                // The whole implicated cross already runs in FP64: this is
                // a genuine numerical failure, not precision breakdown.
                return Err(match cause {
                    BreakdownCause::NotSpd => FactorError::NotSpd(NotSpd {
                        column: tile.0 * a.nb(),
                    }),
                    _ => FactorError::NonFinite { task },
                });
            }
            changed
        };
        obs::instant(obs::EventKind::Escalate, escalated as u64);
        let event = EscalationEvent {
            factor_attempt,
            task,
            tile,
            cause,
            escalated_tiles: escalated,
        };
        if escalations.len() as u32 >= opts.escalation_budget {
            return Err(FactorError::EscalationExhausted {
                budget: opts.escalation_budget,
                last: event,
            });
        }
        escalations.push(event);
    }
}

/// Result of one factorization attempt over the DAG.
struct AttemptOutcome {
    /// Breakdowns observed, sorted by task id (empty = clean attempt, and
    /// the factor has been written back into the matrix).
    failures: Vec<(TaskId, BreakdownCause)>,
    conv_performed: u64,
    conv_avoided: u64,
    conv_bytes_avoided: u64,
    task_retries: u64,
    /// Per-worker counters of the nested executor.
    /// Before these were carried, everything except `retries` was dropped
    /// at this boundary — steals/parks/wakes of the inner scheduler were
    /// invisible to callers.
    sched_stats: Vec<WorkerStats>,
}

impl AttemptOutcome {
    /// The breakdown with the smallest task id — the deterministic pick
    /// the recovery loop acts on (task ids are schedule-independent, and
    /// downstream NaN propagation always lands on larger ids than its
    /// root cause).
    fn first_failure(&self) -> Option<(TaskId, BreakdownCause)> {
        self.failures.first().copied()
    }
}

/// Run the Cholesky DAG once under `pmap`. On a clean pass the factor is
/// written back into `a` (storage per the map); on breakdown `a` is left
/// untouched and the failures are reported. `fast_fail` drains remaining
/// task bodies after the first breakdown (the classic single-shot path);
/// the recovery loop disables it so the set of observed breakdowns — and
/// hence the escalation choice — is schedule-independent.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    a: &mut SymmTileMatrix,
    dag: &CholeskyDag,
    pmap: &PrecisionMap,
    opts: &FactorOptions,
    factor_attempt: u32,
    fast_fail: bool,
) -> Result<AttemptOutcome, FactorError> {
    let nt = a.nt();
    let nthreads = opts.nthreads;

    // Move tiles into per-tile RwLocks for concurrent kernel execution.
    let ncells = nt * (nt + 1) / 2;
    let mut cells: Vec<RwLock<Tile>> = Vec::with_capacity(ncells);
    for i in 0..nt {
        for j in 0..=i {
            let t = a.tile(i, j);
            let cell = if opts.renarrow_storage && t.storage() != pmap.storage(i, j) {
                // The map's storage prescription is a real narrowing (part
                // of the method's error, Fig 2b) — re-derived fresh from
                // the caller's tiles each attempt so escalation recovers
                // full-precision data, not previously-degraded bits.
                t.converted_to(pmap.storage(i, j))
            } else {
                t.clone()
            };
            cells.push(RwLock::new(cell));
        }
    }
    let idx = |i: usize, j: usize| i * (i + 1) / 2 + j;
    let failures: Mutex<Vec<(TaskId, BreakdownCause)>> = Mutex::new(Vec::new());
    let failed = AtomicBool::new(false);
    let record_failure = |task_idx: TaskId, cause: BreakdownCause| {
        lock_pt(&failures).push((task_idx, cause));
        failed.store(true, Ordering::Release);
    };

    // STC cache: per panel tile, one slot per compute format, filled by the
    // tile's TRSM (its final writer) and read by its GEMM consumers.
    type Slots = [Option<Arc<ComputeBuf>>; N_COMPUTE_FORMATS];
    let caches: Vec<Mutex<Slots>> = (0..ncells).map(|_| Mutex::new(Slots::default())).collect();
    // GEMM reads remaining per panel tile, set by the tile's TRSM from its
    // readers before any of them can run.
    let readers: Vec<AtomicU64> = (0..ncells).map(|_| AtomicU64::new(0)).collect();
    let conv_performed = AtomicU64::new(0);
    let conv_avoided = AtomicU64::new(0);
    let conv_bytes_avoided = AtomicU64::new(0);

    // With several DAG workers the kernels run sequentially (no nested
    // rayon); a single DAG worker lets kernels use internal parallelism.
    let kernel_par = nthreads <= 1;

    let release_reader = |ti: usize| {
        if readers[ti].fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last GEMM consumer done: free the cached compute buffers.
            *lock_pt(&caches[ti]) = Slots::default();
        }
    };

    // Post-kernel health pass on the task's output tile: corruption
    // injection first (a deterministic function of (plan, task, factor
    // attempt)), then the finite probe.
    let check_output = |task_idx: TaskId, t: &CholeskyTask| {
        let (oi, oj) = t.output_tile();
        let mut injected = false;
        if !opts.faults.is_noop() {
            if let Some(c) = opts
                .faults
                .inject_corruption(task_idx as u64, factor_attempt)
            {
                write_pt(&cells[idx(oi, oj)]).set(0, 0, c.value());
                injected = true;
            }
        }
        if opts.finite_checks && !tile_is_finite(&read_pt(&cells[idx(oi, oj)])) {
            record_failure(
                task_idx,
                if injected {
                    BreakdownCause::Injected
                } else {
                    BreakdownCause::NonFinite
                },
            );
        }
    };

    let run_task = |ws: &mut Workspace, task_idx: TaskId| {
        if fast_fail && failed.load(Ordering::Acquire) {
            return; // breakdown observed: drain remaining tasks as no-ops
        }
        let t = &dag.tasks[task_idx];
        match *t {
            CholeskyTask::Potrf { k } => {
                let mut c = write_pt(&cells[idx(k, k)]);
                if potrf_tile_ws(&mut c, ws, kernel_par).is_err() {
                    drop(c);
                    record_failure(task_idx, BreakdownCause::NotSpd);
                    return;
                }
                drop(c);
                check_output(task_idx, t);
            }
            CholeskyTask::Trsm { m, k } => {
                let ti = idx(m, k);
                {
                    let l = read_pt(&cells[idx(k, k)]);
                    let mut b = write_pt(&cells[ti]);
                    trsm_tile_ws(pmap.kernel(m, k), &l, &mut b, ws, kernel_par);
                }
                check_output(task_idx, t);
                // STC: tile (m,k) is now final. Quantize it once into each
                // compute format a downstream GEMM will read it in. No GEMM
                // consumer can run before this task completes, so filling
                // the cache here is race-free.
                let mut gemm_readers = 0;
                let mut needed: [Option<Precision>; N_COMPUTE_FORMATS] = [None; N_COMPUTE_FORMATS];
                for r in t.readers(nt).filter(|r| r.kind() == KernelKind::Gemm) {
                    gemm_readers += 1;
                    let (i, j) = r.output_tile();
                    let p = pmap.kernel(i, j);
                    if let Some(s) = compute_format_index(p) {
                        needed[s] = Some(p);
                    }
                }
                readers[ti].store(gemm_readers, Ordering::Release);
                if needed.iter().any(|p| p.is_some()) {
                    let b = read_pt(&cells[ti]);
                    let mut slots = lock_pt(&caches[ti]);
                    for (s, p) in needed.iter().enumerate() {
                        if let Some(p) = p {
                            let buf = Arc::new(make_compute_buf(*p, &b));
                            obs::instant(obs::EventKind::Convert, buf.bytes() as u64);
                            slots[s] = Some(buf);
                            conv_performed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            CholeskyTask::Syrk { m, k } => {
                {
                    let a_in = read_pt(&cells[idx(m, k)]);
                    let mut c = write_pt(&cells[idx(m, m)]);
                    syrk_tile_ws(&a_in, &mut c, ws, kernel_par);
                }
                check_output(task_idx, t);
            }
            CholeskyTask::Gemm { m, n, k } => {
                let p = pmap.kernel(m, n);
                let (ta, tb) = (idx(m, k), idx(n, k));
                let (abuf, bbuf) = match compute_format_index(p) {
                    Some(s) => (
                        lock_pt(&caches[ta])[s].clone(),
                        lock_pt(&caches[tb])[s].clone(),
                    ),
                    None => (None, None),
                };
                {
                    let ai = read_pt(&cells[ta]);
                    let bi = read_pt(&cells[tb]);
                    let mut c = write_pt(&cells[idx(m, n)]);
                    let local = gemm_tile_ws_cached(
                        p,
                        &ai,
                        abuf.as_deref(),
                        &bi,
                        bbuf.as_deref(),
                        &mut c,
                        ws,
                        kernel_par,
                    );
                    conv_performed.fetch_add(local as u64, Ordering::Relaxed);
                    for buf in [&abuf, &bbuf].into_iter().flatten() {
                        conv_avoided.fetch_add(1, Ordering::Relaxed);
                        conv_bytes_avoided.fetch_add(buf.bytes() as u64, Ordering::Relaxed);
                    }
                }
                check_output(task_idx, t);
                release_reader(ta);
                release_reader(tb);
            }
        }
    };

    let exec_opts = ExecOptions {
        retry: opts.retry.clone(),
        faults: opts.faults.clone(),
    };
    let map_exec_err = |e: ExecuteError| match e {
        ExecuteError::TaskFailed(f) => FactorError::TaskFailed {
            task: dag.tasks[f.task],
            attempt: f.attempt,
            cause: f.cause,
        },
        ExecuteError::WorkerPanicked => FactorError::WorkerPanicked,
    };
    let stats = execute(
        &dag.graph,
        nthreads,
        |_wid| Workspace::new(),
        |ws, id| run_task(ws, id),
        &exec_opts,
    )
    .map_err(map_exec_err)?;
    let task_retries = stats.total().retries;
    let sched_stats = stats.workers;

    let mut failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
    failures.sort_by_key(|&(id, _)| id);
    failures.dedup_by_key(|&mut (id, _)| id);

    if failures.is_empty() {
        // Write tiles back, converting storage to the map's prescription
        // (the factor tile keeps the storage precision of its map entry).
        let mut cells_iter = cells.into_iter();
        for i in 0..nt {
            for j in 0..=i {
                let tile = cells_iter
                    .next()
                    .unwrap()
                    .into_inner()
                    .unwrap_or_else(|e| e.into_inner());
                *a.tile_mut(i, j) = tile.converted_to(pmap.storage(i, j));
            }
        }
    }

    Ok(AttemptOutcome {
        failures,
        conv_performed: conv_performed.into_inner(),
        conv_avoided: conv_avoided.into_inner(),
        conv_bytes_avoided: conv_bytes_avoided.into_inner(),
        task_retries,
        sched_stats,
    })
}

/// Elementwise-accumulate per-worker counters across attempts (workers are
/// identified by index; attempts all run with the same `nthreads`).
fn accumulate_sched(into: &mut Vec<WorkerStats>, from: &[WorkerStats]) {
    if into.len() < from.len() {
        into.resize(from.len(), WorkerStats::default());
    }
    for (d, s) in into.iter_mut().zip(from) {
        d.accumulate(s);
    }
}

/// Assemble the [`FactorStats`] of a successful run.
#[allow(clippy::too_many_arguments)]
fn finish_stats(
    dag: &CholeskyDag,
    pmap: &PrecisionMap,
    nb: usize,
    t0: std::time::Instant,
    out: AttemptOutcome,
    factor_attempts: u32,
    escalations: Vec<EscalationEvent>,
    task_retries: u64,
    sched_per_worker: Vec<WorkerStats>,
) -> FactorStats {
    let (mp_bytes, fp64_bytes) = pmap.storage_bytes(nb);
    let mut counts = [0usize; 4];
    for t in &dag.tasks {
        match t.kind() {
            KernelKind::Potrf => counts[0] += 1,
            KernelKind::Trsm => counts[1] += 1,
            KernelKind::Syrk => counts[2] += 1,
            KernelKind::Gemm => counts[3] += 1,
        }
    }
    let mut sched_totals = WorkerStats::default();
    for s in &sched_per_worker {
        sched_totals.accumulate(s);
    }
    let stats = FactorStats {
        tasks_run: dag.tasks.len(),
        kernel_counts: counts,
        wall_s: t0.elapsed().as_secs_f64(),
        storage_bytes_mp: mp_bytes,
        storage_bytes_fp64: fp64_bytes,
        conversions_performed: out.conv_performed,
        conversions_avoided: out.conv_avoided,
        conversion_bytes_avoided: out.conv_bytes_avoided,
        factor_attempts,
        escalations,
        task_retries,
        sched_per_worker,
        sched_totals,
    };
    stats.publish_metrics();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision_map::{uniform_map, PrecisionMap};
    use mixedp_fp::{Precision, StoragePrecision};
    use mixedp_kernels::reconstruction_error;
    use mixedp_tile::tile_fro_norms;

    fn spd_matrix(n: usize, nb: usize) -> SymmTileMatrix {
        SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| {
                let d = (i as f64 - j as f64).abs();
                (-0.08 * d).exp() + if i == j { 0.5 } else { 0.0 }
            },
            |_, _| StoragePrecision::F64,
        )
    }

    #[test]
    fn dag_task_count_is_cubic_formula() {
        for nt in [1, 2, 3, 5, 8] {
            let dag = build_dag(nt);
            // POTRF: nt; TRSM: nt(nt-1)/2; SYRK: nt(nt-1)/2;
            // GEMM: sum over k of (nt-k-1 choose 2) = nt(nt-1)(nt-2)/6
            let expect = nt + nt * (nt - 1) + nt * (nt - 1) * nt.saturating_sub(2) / 6;
            assert_eq!(dag.tasks.len(), expect, "nt={nt}");
            assert_eq!(dag.graph.len(), expect);
        }
    }

    #[test]
    fn critical_path_priorities_decrease_along_edges() {
        // cp[parent] = cost(parent) + max(cp[dependents]) with positive
        // costs, so every task strictly outranks each of its dependents —
        // the invariant that makes priority order respect the DAG depth.
        let dag = build_dag(6);
        for (id, node) in dag.graph.iter() {
            for &d in &node.deps {
                assert!(
                    dag.graph.node(d).priority > node.priority,
                    "dep {d} must outrank task {id}"
                );
            }
        }
        // The root POTRF(0,0) heads the longest chain of the whole DAG.
        let max = dag.graph.iter().map(|(_, n)| n.priority).max().unwrap();
        assert_eq!(dag.graph.node(0).priority, max);
        assert!(matches!(dag.tasks[0], CholeskyTask::Potrf { k: 0 }));
    }

    #[test]
    fn affinity_hints_name_previous_writer_of_output_tile() {
        let nt = 5;
        let dag = build_dag(nt);
        let find = |want: CholeskyTask| dag.tasks.iter().position(|t| *t == want).unwrap();
        // First iteration writes are first-touch: no previous writer.
        assert_eq!(
            dag.graph.node(find(CholeskyTask::Potrf { k: 0 })).affinity,
            None
        );
        assert_eq!(
            dag.graph
                .node(find(CholeskyTask::Trsm { m: 2, k: 0 }))
                .affinity,
            None
        );
        // POTRF(1,1) updates (1,1) in place after SYRK(1,1)<-(1,0).
        let syrk = find(CholeskyTask::Syrk { m: 1, k: 0 });
        assert_eq!(
            dag.graph.node(find(CholeskyTask::Potrf { k: 1 })).affinity,
            Some(syrk)
        );
        // TRSM(m,1) updates (m,1) last written by GEMM(m,1,0).
        let gemm = find(CholeskyTask::Gemm { m: 3, n: 1, k: 0 });
        assert_eq!(
            dag.graph
                .node(find(CholeskyTask::Trsm { m: 3, k: 1 }))
                .affinity,
            Some(gemm)
        );
        // GEMM(m,n,1) updates (m,n) last written by GEMM(m,n,0).
        let g0 = find(CholeskyTask::Gemm { m: 4, n: 2, k: 0 });
        assert_eq!(
            dag.graph
                .node(find(CholeskyTask::Gemm { m: 4, n: 2, k: 1 }))
                .affinity,
            Some(g0)
        );
    }

    #[test]
    fn fp64_factorization_matches_reference() {
        let n = 48;
        let a0 = spd_matrix(n, 16);
        let dense = a0.to_dense_symmetric();
        let mut a = a0.clone();
        let m = uniform_map(a.nt(), Precision::Fp64);
        let stats = factorize_mp(&mut a, &m, 1).unwrap();
        assert_eq!(stats.tasks_run, 3 + 6 + 1); // nt=3: 3 potrf + 3 trsm + 3 syrk + 1 gemm
        let l = a.to_dense_lower();
        let err = reconstruction_error(&dense, &l);
        assert!(err < 1e-13, "reconstruction error {err}");
    }

    #[test]
    fn parallel_matches_serial_fp64_exactly() {
        // FP64 tile kernels do identical arithmetic regardless of
        // interleaving (the DAG fixes all data dependencies).
        let n = 64;
        let mut a1 = spd_matrix(n, 16);
        let mut a2 = a1.clone();
        let m = uniform_map(a1.nt(), Precision::Fp64);
        factorize_mp(&mut a1, &m, 1).unwrap();
        factorize_mp(&mut a2, &m, 4).unwrap();
        for i in 0..n {
            for j in 0..=i {
                assert_eq!(a1.get(i, j), a2.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn mixed_precision_error_between_fp64_and_fp16() {
        let n = 80;
        let a0 = spd_matrix(n, 16);
        let dense = a0.to_dense_symmetric();
        let err_of = |p: Precision| {
            let mut a = a0.clone();
            let m = uniform_map(a.nt(), p);
            factorize_mp(&mut a, &m, 2).unwrap();
            reconstruction_error(&dense, &a.to_dense_lower())
        };
        let e64 = err_of(Precision::Fp64);
        let e32 = err_of(Precision::Fp32);
        let e16 = err_of(Precision::Fp16);
        assert!(e64 < 1e-13);
        assert!(e32 > e64 && e32 < 1e-5, "e32={e32}");
        assert!(e16 > e32, "e16={e16} vs e32={e32}");
        assert!(e16 < 0.05, "FP16 still produces a usable factor: {e16}");
    }

    #[test]
    fn adaptive_map_accuracy_tracks_u_req() {
        let n = 96;
        let a0 = spd_matrix(n, 16);
        let dense = a0.to_dense_symmetric();
        let norms = tile_fro_norms(&a0);
        let err_at = |u_req: f64| {
            let m = PrecisionMap::from_norms(&norms, u_req, &Precision::ADAPTIVE_SET);
            let mut a = a0.clone();
            factorize_mp(&mut a, &m, 2).unwrap();
            reconstruction_error(&dense, &a.to_dense_lower())
        };
        let tight = err_at(1e-14);
        let loose = err_at(1e-2);
        assert!(tight <= loose, "tight {tight} loose {loose}");
        assert!(tight < 1e-12);
    }

    #[test]
    fn not_spd_is_reported() {
        let mut a = SymmTileMatrix::from_fn(
            8,
            4,
            |i, j| if i == j { -1.0 } else { 0.0 },
            |_, _| StoragePrecision::F64,
        );
        let err = factorize_mp(&mut a, &uniform_map(2, Precision::Fp64), 2).unwrap_err();
        assert_eq!(err.column, 0);
    }

    #[test]
    fn factor_tiles_keep_storage_precision() {
        let mut a = spd_matrix(64, 16);
        let m = uniform_map(a.nt(), Precision::Fp16);
        factorize_mp(&mut a, &m, 1).unwrap();
        assert_eq!(a.tile(0, 0).storage(), StoragePrecision::F64);
        assert_eq!(a.tile(2, 0).storage(), StoragePrecision::F32);
    }

    #[test]
    fn storage_savings_reported() {
        let mut a = spd_matrix(64, 16);
        let stats = factorize_mp(&mut a, &uniform_map(4, Precision::Fp16), 1).unwrap();
        assert!(stats.storage_bytes_mp < stats.storage_bytes_fp64);
    }

    #[test]
    fn fp64_map_needs_no_conversions() {
        let mut a = spd_matrix(64, 16);
        let stats = factorize_mp(&mut a, &uniform_map(4, Precision::Fp64), 2).unwrap();
        assert_eq!(stats.conversions_performed, 0);
        assert_eq!(stats.conversions_avoided, 0);
        assert_eq!(stats.stc_avoidance_ratio(), 0.0);
    }

    #[test]
    fn stc_avoids_majority_of_panel_conversions() {
        // nt = 8: each panel tile (m,k) feeds nt-k-2 GEMMs, so one producer
        // conversion replaces that many consumer conversions.
        let nt = 8;
        let a0 = spd_matrix(nt * 16, 16);

        // uniform reduced map: every GEMM operand comes from the cache
        let mut a = a0.clone();
        let stats = factorize_mp(&mut a, &uniform_map(nt, Precision::Fp16x32), 1).unwrap();
        let ngemm = stats.kernel_counts[3] as u64;
        assert_eq!(stats.conversions_avoided, 2 * ngemm, "every operand cached");
        assert!(
            stats.stc_avoidance_ratio() > 0.5,
            "uniform map ratio {} (performed {}, avoided {})",
            stats.stc_avoidance_ratio(),
            stats.conversions_performed,
            stats.conversions_avoided
        );
        assert!(stats.conversion_bytes_avoided > 0);

        // adaptive map (the paper's setting), parallel schedule
        let norms = tile_fro_norms(&a0);
        let pmap = PrecisionMap::from_norms(&norms, 1e-4, &Precision::ADAPTIVE_SET);
        let has_reduced_gemm = (0..nt)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .any(|(i, j)| pmap.kernel(i, j) != Precision::Fp64);
        let mut a = a0.clone();
        let stats = factorize_mp(&mut a, &pmap, 4).unwrap();
        if has_reduced_gemm {
            assert!(
                stats.stc_avoidance_ratio() > 0.5,
                "adaptive map ratio {} (performed {}, avoided {})",
                stats.stc_avoidance_ratio(),
                stats.conversions_performed,
                stats.conversions_avoided
            );
        }
    }

    #[test]
    fn stc_parallel_matches_serial_mixed_precision_exactly() {
        // The whole data path — blocked kernels, workspace staging, cached
        // producer conversions — is bit-reproducible across schedules even
        // in reduced precision.
        let n = 96;
        for p in [Precision::Fp16x32, Precision::Fp32, Precision::Fp16] {
            let mut a1 = spd_matrix(n, 16);
            let mut a2 = a1.clone();
            let m = uniform_map(a1.nt(), p);
            factorize_mp(&mut a1, &m, 1).unwrap();
            factorize_mp(&mut a2, &m, 4).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    assert_eq!(a1.get(i, j), a2.get(i, j), "{p:?} ({i},{j})");
                }
            }
        }
    }
}
