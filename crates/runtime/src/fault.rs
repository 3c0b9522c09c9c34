//! Deterministic fault injection and bounded retry policies.
//!
//! The mixed-precision pipeline deliberately runs tiles at the lowest
//! admissible precision, so its dominant failure mode is *numerical
//! breakdown* — plus the usual transient faults of any parallel/distributed
//! runtime (task panics, dropped or garbled messages). Testing recovery
//! paths requires failures that are **replayable**: every fault here is a
//! pure function of a `(seed, site, attempt)` triple, never of wall clock,
//! thread ids, or scheduling order (the dslab-style seeded-simulation
//! discipline). Two runs with the same plan and the same task graph inject
//! exactly the same faults regardless of worker count or interleaving.
//!
//! * [`FaultPlan`] — what to inject and where: seeded rates for task
//!   panics, NaN/Inf tile corruption, and dropped/garbled wire payloads,
//!   plus explicit per-site injections for targeted tests.
//! * [`RetryPolicy`] — how many attempts a task (or a simulated
//!   retransmit) gets, and the deterministic jittered backoff between them.
//! * [`TaskFailure`] — the structured record of one failed attempt that
//!   [`crate::execute`] logs in [`crate::ExecStats::failures`] and
//!   surfaces through [`crate::scheduler::ExecuteError::TaskFailed`].
//!
//! [`crate::execute`] applies the same plan and policy at every worker
//! count, so a one-worker run is the deterministic replay of a faulty
//! parallel run.

/// SplitMix64: the standard 64-bit finalizer used to derive independent,
/// well-mixed draws from `(seed, site, attempt)` without any RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Independent draw domains so the same site can be probed for different
/// fault kinds without correlation.
#[derive(Clone, Copy)]
enum Domain {
    Panic = 1,
    Corrupt = 2,
    CorruptKind = 3,
    WireDrop = 4,
    WireGarble = 5,
    Jitter = 6,
}

/// One failed execution attempt of a task: the structured record that
/// replaces the old anonymous "a worker thread panicked".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Task id within its graph.
    pub task: crate::graph::TaskId,
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// Panic payload (or injected-fault description).
    pub cause: String,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} failed on attempt {}: {}",
            self.task, self.attempt, self.cause
        )
    }
}

/// The value a corrupted tile element is overwritten with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    Nan,
    PosInf,
    NegInf,
}

impl Corruption {
    pub fn value(self) -> f64 {
        match self {
            Corruption::Nan => f64::NAN,
            Corruption::PosInf => f64::INFINITY,
            Corruption::NegInf => f64::NEG_INFINITY,
        }
    }
}

/// A fault on a simulated cross-rank payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The message never arrives; the consumer retransmits after backoff.
    Drop,
    /// The message arrives with corrupted (non-finite) elements; the
    /// receiver's integrity check rejects it and requests a retransmit.
    Garble,
}

/// A deterministic, seeded fault-injection plan.
///
/// Rate-based faults fire when the site's hash draw falls below the rate;
/// because the attempt number is part of the hash, a rate-injected fault is
/// *transient* — the retry of the same site usually succeeds, which is what
/// makes bounded-retry recovery testable. Explicit injections
/// ([`FaultPlan::with_panic_at`], [`FaultPlan::with_persistent_panic_at`])
/// target one site exactly, optionally on every attempt (to test retry
/// exhaustion).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    panic_rate: f64,
    corrupt_rate: f64,
    wire_drop_rate: f64,
    wire_garble_rate: f64,
    /// Explicit panic injections: `(site, attempt)`; `None` = every attempt.
    panic_at: Vec<(u64, Option<u32>)>,
    /// Explicit corruption injections.
    corrupt_at: Vec<(u64, Option<u32>)>,
}

impl FaultPlan {
    /// The no-op plan: injects nothing (the production default).
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan with a replay seed; add faults with the `with_*`
    /// builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability that any `(site, attempt)` panics.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.panic_rate = rate;
        self
    }

    /// Probability that a task's output tile is corrupted with NaN/Inf.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.corrupt_rate = rate;
        self
    }

    /// Probability that a cross-rank payload is dropped.
    pub fn with_wire_drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.wire_drop_rate = rate;
        self
    }

    /// Probability that a cross-rank payload arrives garbled.
    pub fn with_wire_garble_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.wire_garble_rate = rate;
        self
    }

    /// Panic exactly at `(site, attempt)` (1-based attempt).
    pub fn with_panic_at(mut self, site: u64, attempt: u32) -> Self {
        self.panic_at.push((site, Some(attempt)));
        self
    }

    /// Panic at `site` on **every** attempt — the retry-exhaustion case.
    pub fn with_persistent_panic_at(mut self, site: u64) -> Self {
        self.panic_at.push((site, None));
        self
    }

    /// Corrupt the output of `site` exactly on `attempt` (1-based).
    pub fn with_corrupt_at(mut self, site: u64, attempt: u32) -> Self {
        self.corrupt_at.push((site, Some(attempt)));
        self
    }

    /// True when the plan can never inject anything — the hot path's
    /// one-branch fast exit.
    pub fn is_noop(&self) -> bool {
        self.panic_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.wire_drop_rate == 0.0
            && self.wire_garble_rate == 0.0
            && self.panic_at.is_empty()
            && self.corrupt_at.is_empty()
    }

    /// Uniform draw in `[0, 1)` for `(domain, site, attempt)`.
    fn draw(&self, domain: Domain, site: u64, attempt: u32) -> f64 {
        let h = splitmix64(
            self.seed
                ^ splitmix64(site ^ ((domain as u64) << 56))
                ^ splitmix64(0xA5A5_5A5A_0000_0000 | attempt as u64),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should `(site, attempt)` panic? (1-based attempt.)
    pub fn inject_panic(&self, site: u64, attempt: u32) -> bool {
        self.panic_at
            .iter()
            .any(|&(s, a)| s == site && a.map(|a| a == attempt).unwrap_or(true))
            || (self.panic_rate > 0.0 && self.draw(Domain::Panic, site, attempt) < self.panic_rate)
    }

    /// Corruption to apply to the output of `(site, attempt)`, if any.
    pub fn inject_corruption(&self, site: u64, attempt: u32) -> Option<Corruption> {
        let explicit = self
            .corrupt_at
            .iter()
            .any(|&(s, a)| s == site && a.map(|a| a == attempt).unwrap_or(true));
        let by_rate = self.corrupt_rate > 0.0
            && self.draw(Domain::Corrupt, site, attempt) < self.corrupt_rate;
        if !explicit && !by_rate {
            return None;
        }
        Some(
            match (self.draw(Domain::CorruptKind, site, attempt) * 3.0) as u32 {
                0 => Corruption::Nan,
                1 => Corruption::PosInf,
                _ => Corruption::NegInf,
            },
        )
    }

    /// Fault on the `attempt`-th transmission of payload `site`, if any.
    pub fn inject_wire(&self, site: u64, attempt: u32) -> Option<WireFault> {
        if self.wire_drop_rate > 0.0
            && self.draw(Domain::WireDrop, site, attempt) < self.wire_drop_rate
        {
            return Some(WireFault::Drop);
        }
        if self.wire_garble_rate > 0.0
            && self.draw(Domain::WireGarble, site, attempt) < self.wire_garble_rate
        {
            return Some(WireFault::Garble);
        }
        None
    }

    /// Deterministic jitter factor in `[0.5, 1.5)` for backoff at
    /// `(site, attempt)` — replayable, unlike thread-local randomness.
    pub fn jitter(&self, site: u64, attempt: u32) -> f64 {
        0.5 + self.draw(Domain::Jitter, site, attempt)
    }
}

/// Bounded per-task (and per-retransmit) retry policy with deterministic
/// jittered exponential backoff.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total execution attempts a task gets before the failure escalates
    /// (1 = no retry).
    pub max_attempts: u32,
    /// Base backoff before retry `n` (scaled by `2^(n-1)` and jitter).
    /// Zero (the default) retries immediately — right for in-process task
    /// retries where the failed work is already local; simulated wire
    /// retransmits set a non-zero base and *account* the wait instead of
    /// sleeping it.
    pub backoff_base_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            backoff_base_ns: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, fail fast.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ns: 0,
        }
    }

    pub fn with_max_attempts(mut self, n: u32) -> Self {
        assert!(n >= 1);
        self.max_attempts = n;
        self
    }

    pub fn with_backoff_base_ns(mut self, ns: u64) -> Self {
        self.backoff_base_ns = ns;
        self
    }

    /// Backoff before re-attempting `site` after failed attempt `attempt`
    /// (1-based): exponential in the attempt, jittered by the plan's
    /// deterministic draw.
    pub fn backoff_ns(&self, plan: &FaultPlan, site: u64, attempt: u32) -> u64 {
        if self.backoff_base_ns == 0 {
            return 0;
        }
        let exp = self
            .backoff_base_ns
            .saturating_mul(1u64 << (attempt - 1).min(16));
        (exp as f64 * plan.jitter(site, attempt)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_noop());
        for site in 0..1000 {
            assert!(!p.inject_panic(site, 1));
            assert!(p.inject_corruption(site, 1).is_none());
            assert!(p.inject_wire(site, 1).is_none());
        }
    }

    #[test]
    fn injection_is_deterministic_in_seed_site_attempt() {
        let a = FaultPlan::seeded(42)
            .with_panic_rate(0.3)
            .with_corrupt_rate(0.3);
        let b = a.clone();
        for site in 0..500 {
            for attempt in 1..4 {
                assert_eq!(a.inject_panic(site, attempt), b.inject_panic(site, attempt));
                assert_eq!(
                    a.inject_corruption(site, attempt),
                    b.inject_corruption(site, attempt)
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_fault_sets() {
        let a = FaultPlan::seeded(1).with_panic_rate(0.2);
        let b = FaultPlan::seeded(2).with_panic_rate(0.2);
        let hits =
            |p: &FaultPlan| -> Vec<u64> { (0..200).filter(|&s| p.inject_panic(s, 1)).collect() };
        assert_ne!(hits(&a), hits(&b));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::seeded(7).with_panic_rate(0.25);
        let n = 10_000u64;
        let hits = (0..n).filter(|&s| p.inject_panic(s, 1)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "observed rate {frac}");
    }

    #[test]
    fn rate_faults_are_transient_across_attempts() {
        // A site that fails on attempt 1 should usually pass on attempt 2 —
        // the attempt participates in the hash.
        let p = FaultPlan::seeded(3).with_panic_rate(0.3);
        let fail1: Vec<u64> = (0..2000).filter(|&s| p.inject_panic(s, 1)).collect();
        let also2 = fail1.iter().filter(|&&s| p.inject_panic(s, 2)).count();
        assert!(
            (also2 as f64) < fail1.len() as f64 * 0.5,
            "{also2}/{} sites failed twice",
            fail1.len()
        );
    }

    #[test]
    fn explicit_and_persistent_injections() {
        let p = FaultPlan::seeded(0)
            .with_panic_at(5, 1)
            .with_persistent_panic_at(9);
        assert!(p.inject_panic(5, 1));
        assert!(!p.inject_panic(5, 2));
        assert!(p.inject_panic(9, 1));
        assert!(p.inject_panic(9, 7));
        assert!(!p.inject_panic(6, 1));
    }

    #[test]
    fn corruption_values_are_non_finite() {
        let p = FaultPlan::seeded(11).with_corrupt_rate(1.0);
        for site in 0..50 {
            let c = p.inject_corruption(site, 1).unwrap();
            assert!(!c.value().is_finite());
        }
    }

    #[test]
    fn wire_faults_cover_both_kinds() {
        let p = FaultPlan::seeded(13)
            .with_wire_drop_rate(0.3)
            .with_wire_garble_rate(0.3);
        let mut drops = 0;
        let mut garbles = 0;
        for site in 0..2000 {
            match p.inject_wire(site, 1) {
                Some(WireFault::Drop) => drops += 1,
                Some(WireFault::Garble) => garbles += 1,
                None => {}
            }
        }
        assert!(drops > 100, "{drops}");
        assert!(garbles > 100, "{garbles}");
    }

    #[test]
    fn backoff_is_exponential_and_jittered_deterministically() {
        let plan = FaultPlan::seeded(1);
        let r = RetryPolicy::default().with_backoff_base_ns(1000);
        let b1 = r.backoff_ns(&plan, 4, 1);
        let b2 = r.backoff_ns(&plan, 4, 2);
        // jitter is in [0.5, 1.5): attempt 2 doubles the base
        assert!((500..1500).contains(&b1), "{b1}");
        assert!((1000..3000).contains(&b2), "{b2}");
        assert_eq!(b1, r.backoff_ns(&plan, 4, 1), "deterministic");
        // zero base means no backoff at all
        assert_eq!(RetryPolicy::default().backoff_ns(&plan, 4, 1), 0);
    }

    #[test]
    fn task_failure_displays_culprit() {
        let f = TaskFailure {
            task: 17,
            attempt: 2,
            cause: "injected fault".into(),
        };
        let s = format!("{f}");
        assert!(s.contains("task 17"));
        assert!(s.contains("attempt 2"));
        assert!(s.contains("injected fault"));
    }
}
