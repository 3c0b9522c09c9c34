//! Execution statistics: per-worker scheduler counters and the log of
//! failed task attempts. Task timing lives in the telemetry span stream
//! (`obs::EventKind::TaskExec`), not here.

use crate::fault::TaskFailure;
use mixedp_obs as obs;

/// Per-worker scheduler counters: where each worker's tasks came from and
/// how often it went idle — the observability layer for the work-stealing
/// scheduler (dispatch quality is invisible in task spans alone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Tasks popped from the worker's own queue.
    pub local_pops: u64,
    /// Successful steal operations (each grabs up to half a victim's queue).
    pub steals: u64,
    /// Tasks obtained through stealing.
    pub stolen_tasks: u64,
    /// Full victim sweeps that found nothing to steal.
    pub failed_steals: u64,
    /// Times the worker registered idle and parked.
    pub parks: u64,
    /// Targeted wake-ups this worker issued to idle peers.
    pub wakes: u64,
    /// Ready tasks this worker dispatched to another worker's queue
    /// because of an affinity hint.
    pub affinity_dispatches: u64,
    /// Task attempts that failed (panicked) and were re-executed under the
    /// retry policy — each one a recovered fault.
    pub retries: u64,
}

impl WorkerStats {
    /// Add these counters to the metrics registry under `scheduler.*`.
    pub fn publish_metrics(&self) {
        static TASKS: obs::LazyCounter = obs::LazyCounter::new("scheduler.tasks");
        static LOCAL_POPS: obs::LazyCounter = obs::LazyCounter::new("scheduler.local_pops");
        static STEALS: obs::LazyCounter = obs::LazyCounter::new("scheduler.steals");
        static STOLEN: obs::LazyCounter = obs::LazyCounter::new("scheduler.stolen_tasks");
        static FAILED: obs::LazyCounter = obs::LazyCounter::new("scheduler.failed_steals");
        static PARKS: obs::LazyCounter = obs::LazyCounter::new("scheduler.parks");
        static WAKES: obs::LazyCounter = obs::LazyCounter::new("scheduler.wakes");
        static AFFINITY: obs::LazyCounter = obs::LazyCounter::new("scheduler.affinity_dispatches");
        static RETRIES: obs::LazyCounter = obs::LazyCounter::new("scheduler.retries");
        TASKS.add(self.tasks);
        LOCAL_POPS.add(self.local_pops);
        STEALS.add(self.steals);
        STOLEN.add(self.stolen_tasks);
        FAILED.add(self.failed_steals);
        PARKS.add(self.parks);
        WAKES.add(self.wakes);
        AFFINITY.add(self.affinity_dispatches);
        RETRIES.add(self.retries);
    }

    /// Merge another worker's counters into this one (fleet totals).
    pub fn accumulate(&mut self, o: &WorkerStats) {
        self.tasks += o.tasks;
        self.local_pops += o.local_pops;
        self.steals += o.steals;
        self.stolen_tasks += o.stolen_tasks;
        self.failed_steals += o.failed_steals;
        self.parks += o.parks;
        self.wakes += o.wakes;
        self.affinity_dispatches += o.affinity_dispatches;
        self.retries += o.retries;
    }
}

/// What one [`crate::execute`] run reports besides its side effects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Scheduler counters, one entry per worker.
    pub workers: Vec<WorkerStats>,
    /// Every failed task attempt, sorted by `(task, attempt)` so the log is
    /// schedule-independent. On a successful run these are the faults that
    /// retries recovered from.
    pub failures: Vec<TaskFailure>,
}

impl ExecStats {
    /// Sum of all workers' counters.
    pub fn total(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for s in &self.workers {
            t.accumulate(s);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_stats_accumulate() {
        let a = WorkerStats {
            tasks: 3,
            local_pops: 2,
            steals: 1,
            stolen_tasks: 1,
            failed_steals: 4,
            parks: 2,
            wakes: 1,
            affinity_dispatches: 1,
            retries: 1,
        };
        let b = WorkerStats {
            tasks: 1,
            stolen_tasks: 1,
            ..Default::default()
        };
        let s = ExecStats {
            workers: vec![a, b],
            failures: Vec::new(),
        };
        let tot = s.total();
        assert_eq!(tot.tasks, 4);
        assert_eq!(tot.stolen_tasks, 2);
        assert_eq!(tot.failed_steals, 4);
        assert_eq!(tot.retries, 1);
        assert_eq!(ExecStats::default().total(), WorkerStats::default());
    }
}
