//! Shared timing and measurement helpers for the benchmark binaries —
//! previously copy-pasted into `bench_kernels` / `bench_scheduler` /
//! `bench_wire`, now one implementation.

use mixedp_core::factorize::{build_dag, kernel_cost, DEFAULT_KERNEL_COSTS};
use mixedp_obs as obs;
use mixedp_runtime::{execute, ExecOptions};
use std::time::Instant;

/// Upper median of `v` (non-empty).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median wall-clock seconds of `reps` runs of `f` (one untimed warmup).
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Telemetry on-vs-off cost of task dispatch on the nt=16 Cholesky DAG with
/// busy-wait bodies of `unit_ns` per kernel-cost unit — one ring store
/// amortized over kernel-scale work, the number the <2% telemetry gate
/// checks. Runs at `min(workers, host CPUs)` workers: oversubscribed spin
/// bodies time OS preemption, not the instrumentation. Off and on runs
/// alternate rep by rep, in alternating order, so a drift in host speed
/// lands on both sides of a pair. Returns the median ns/task off and on and
/// the median per-pair delta in percent.
pub fn weighted_telemetry_overhead(workers: usize, reps: usize, unit_ns: u64) -> (f64, f64, f64) {
    let workers = workers.min(std::thread::available_parallelism().map_or(1, |p| p.get()));
    let dag = build_dag(16);
    let costs: Vec<u64> = dag
        .tasks
        .iter()
        .map(|t| kernel_cost(&DEFAULT_KERNEL_COSTS, t.kind()) as u64 * unit_ns)
        .collect();
    let time = |on: bool| {
        obs::set_enabled(on);
        let t0 = Instant::now();
        execute(
            &dag.graph,
            workers,
            |_| (),
            |(), id| spin(costs[id]),
            &ExecOptions::default(),
        )
        .unwrap();
        let secs = t0.elapsed().as_secs_f64();
        obs::set_enabled(false);
        secs
    };
    // untimed warmup of both sides (the first traced run allocates rings)
    time(false);
    time(true);
    let (mut off, mut on, mut pct) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (t_off, t_on) = if rep % 2 == 0 {
            (time(false), time(true))
        } else {
            let t_on = time(true);
            (time(false), t_on)
        };
        off.push(t_off);
        on.push(t_on);
        pct.push(100.0 * (t_on - t_off) / t_off);
    }
    obs::reset_rings();
    let ns_per_task = 1e9 / dag.graph.len() as f64;
    (
        median(off) * ns_per_task,
        median(on) * ns_per_task,
        median(pct),
    )
}

/// Busy-wait for `ns` nanoseconds (sleep granularity is far too coarse for
/// tile-kernel-scale task bodies).
pub fn spin(ns: u64) {
    let t0 = Instant::now();
    while t0.elapsed().as_nanos() < ns as u128 {
        std::hint::spin_loop();
    }
}

/// Deterministic pseudo-random buffer in `[-0.5, 0.5)` (xorshift64).
pub fn pseudo(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

/// Pull `"<key>": <number>` out of the `section` object of a previously
/// committed benchmark JSON. The files are machine-written by the bench
/// binaries themselves, so a string scan is exact.
pub fn scan_json_f64(json: &str, section: &str, key: &str) -> Option<f64> {
    let sec = json.find(&format!("\"{section}\""))?;
    let rest = &json[sec..];
    let pat = format!("\"{key}\": ");
    let rest = &rest[rest.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The host a snapshot was measured on, as a JSON object: CPU model, the
/// SIMD flags the kernels care about, available parallelism, `rustc`
/// version and the checkout's git revision, `-dirty` when the tree has
/// uncommitted changes ("unknown" where unavailable).
pub fn host_fingerprint_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let model = field("model name").unwrap_or_else(|| "unknown".into());
    let flags = field("flags").unwrap_or_default();
    let simd: Vec<String> = ["avx2", "fma", "f16c", "avx512f", "avx512fp16"]
        .iter()
        .map(|f| format!("\"{f}\": {}", flags.split_whitespace().any(|x| x == *f)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let rustc = run("rustc", &["--version"]);
    let git = run("git", &["describe", "--always", "--dirty", "--abbrev=12"]);
    format!(
        "{{\"cpu_model\": \"{model}\", \"simd\": {{{}}}, \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"git_sha\": \"{git}\"}}",
        simd.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive() {
        let s = median_secs(3, || {
            std::hint::black_box(0);
        });
        assert!(s >= 0.0);
    }

    #[test]
    fn pseudo_is_deterministic_and_centered() {
        let a = pseudo(128, 7);
        assert_eq!(a, pseudo(128, 7));
        assert!(a.iter().all(|x| (-0.5..0.5).contains(x)));
        assert_ne!(a, pseudo(128, 8));
    }

    #[test]
    fn scan_finds_section_keys() {
        let j = "{\"flat\": {\"ns_per_task_worksteal\": 178.4}, \"chol\": {\"ns_per_task_worksteal\": 289.8}}";
        assert_eq!(
            scan_json_f64(j, "flat", "ns_per_task_worksteal"),
            Some(178.4)
        );
        assert_eq!(
            scan_json_f64(j, "chol", "ns_per_task_worksteal"),
            Some(289.8)
        );
        assert_eq!(scan_json_f64(j, "nope", "ns_per_task_worksteal"), None);
        assert_eq!(scan_json_f64(j, "flat", "missing"), None);
    }
}
