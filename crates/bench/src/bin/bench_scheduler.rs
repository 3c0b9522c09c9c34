//! Scheduler performance snapshot: emits `BENCH_scheduler.json` so changes
//! to the task runtime can be tracked run to run.
//!
//! Measures:
//!   * dispatch overhead (ns/task) of `execute` on empty-body DAGs at 8
//!     workers, on both a flat 1-deep graph (pure queue contention) and the
//!     Cholesky DAG (dependency release traffic);
//!   * worker occupancy on the Cholesky DAG at `nt ∈ {8, 16, 32}` with
//!     synthetic task durations proportional to the kernel cost weights,
//!     plus the steal / park / wake / affinity counters of the run.
//!
//! Occupancy comes from the telemetry span stream (`obs::collect` +
//! `obs::occupancy_timeline`) of a run at `min(workers, host CPUs)`
//! workers: with more threads than cores, the span clock measures how often
//! the OS preempts a thread mid-task, not how well the scheduler feeds
//! workers. The counters still come from the full `--workers` run, where
//! stealing is actually exercised.
//!
//! Top-level `"retired_*"` entries of the previous snapshot hold the frozen
//! last figures of removed code paths (e.g. the single-heap executor the
//! work-stealing scheduler replaced); each run carries them forward
//! verbatim.
//!
//! Run: `cargo run --release -p mixedp-bench --bin bench_scheduler`
//! Options: `--workers=8 --reps=5 --quick --out=BENCH_scheduler.json`

use mixedp_bench::timing::{median_secs, min_secs, scan_json_f64, spin};
use mixedp_bench::Args;
use mixedp_core::factorize::{build_dag, kernel_cost, DEFAULT_KERNEL_COSTS};
use mixedp_obs as obs;
use mixedp_runtime::{execute, ExecOptions, ExecStats, TaskGraph, TaskId};

/// Occupancy-timeline bins for the occupancy measurement.
const OCCUPANCY_BINS: usize = 64;

fn run(graph: &TaskGraph, workers: usize, body: impl Fn(TaskId) + Sync) -> ExecStats {
    execute(
        graph,
        workers,
        |_| (),
        |(), id| body(id),
        &ExecOptions::default(),
    )
    .unwrap()
}

/// Median ns/task of an empty-body run: all measured time is scheduler
/// overhead (queue ops, dependency release, wake-ups).
fn dispatch_ns(graph: &TaskGraph, workers: usize, reps: usize) -> f64 {
    median_secs(reps, || {
        run(graph, workers, |_| {});
    }) * 1e9
        / graph.len() as f64
}

/// Mean occupancy of a traced run, from the span stream. A first traced
/// run fills the telemetry ring pool, so ring allocation stays out of the
/// measured run.
fn traced_occupancy(graph: &TaskGraph, workers: usize, body: impl Fn(TaskId) + Sync) -> f64 {
    obs::set_enabled(true);
    run(graph, workers, &body);
    obs::collect();
    run(graph, workers, &body);
    obs::set_enabled(false);
    let trace = obs::collect();
    obs::occupancy_timeline(&trace, OCCUPANCY_BINS, workers).mean()
}

/// The `"retired_*"` entries of a snapshot written by this binary (one
/// entry per line), without their trailing commas.
fn retired_entries(json: &str) -> Vec<&str> {
    json.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("\"retired_"))
        .map(|l| l.trim_end_matches(','))
        .collect()
}

struct OccupancyResult {
    nt: usize,
    tasks: usize,
    occupancy: f64,
    stats: ExecStats,
}

fn main() {
    let args = Args::parse();
    let quick = args.get_flag("quick");
    let workers = args.get_usize("workers", 8);
    let reps = args.get_usize("reps", if quick { 3 } else { 5 });
    let out = args.get_str("out", "BENCH_scheduler.json");
    // synthetic body duration of one cost unit (GEMM = 6 units)
    let unit_ns = args.get_usize("unit-ns", if quick { 2_000 } else { 20_000 }) as u64;
    let flat_tasks = args.get_usize("flat-tasks", if quick { 4_000 } else { 20_000 });

    println!(
        "scheduler bench: {workers} workers, {reps} reps{}",
        if quick { " (quick)" } else { "" }
    );

    // --- dispatch overhead: flat graph (no edges, pure queue traffic) ----
    let mut flat = TaskGraph::with_capacity(flat_tasks);
    for _ in 0..flat_tasks {
        flat.add_task(vec![], 0);
    }
    let flat_ns = dispatch_ns(&flat, workers, reps);
    let s = run(&flat, workers, |_| {}).total();
    println!(
        "flat {:>6} tasks   {:>8.1} ns/task   steals {} (tasks {}) failed {} parks {}",
        flat.len(),
        flat_ns,
        s.steals,
        s.stolen_tasks,
        s.failed_steals,
        s.parks
    );

    // --- dispatch overhead: Cholesky DAG (dependency release traffic) ----
    let chol_nt = args.get_usize("dispatch-nt", 24);
    let dag = build_dag(chol_nt);
    let chol_ns = dispatch_ns(&dag.graph, workers, reps);
    println!(
        "chol nt={chol_nt} {:>5} tasks   {:>8.1} ns/task",
        dag.graph.len(),
        chol_ns
    );

    // --- fault-tolerance wrapper overhead vs the committed snapshot ------
    // PR 3 wrapped every task body in catch_unwind + a fault-plan probe
    // (one `is_noop` branch when no faults are configured). The fault-free
    // dispatch path must stay within noise of the committed pre-run
    // numbers; report the delta so regressions are visible in the JSON.
    let committed = std::fs::read_to_string(&out).ok();
    let ft_overhead = committed.as_deref().and_then(|b| {
        // only comparable against a same-config snapshot: quick vs full
        // differ in task counts and unit durations
        if !b.contains(&format!("\"quick\": {quick}"))
            || !b.contains(&format!("\"tasks\": {}", flat.len()))
        {
            println!("ft wrapper overhead: committed {out} used a different config; skipping");
            return None;
        }
        let flat_base = scan_json_f64(b, "flat", "ns_per_task_worksteal")?;
        let chol_base = scan_json_f64(b, "cholesky_dispatch", "ns_per_task_worksteal")?;
        let flat_pct = 100.0 * (flat_ns - flat_base) / flat_base;
        let chol_pct = 100.0 * (chol_ns - chol_base) / chol_base;
        println!(
            "ft wrapper overhead vs committed {out}: flat {flat_pct:+.2}% ({flat_base:.1} -> {flat_ns:.1} ns/task), chol {chol_pct:+.2}% ({chol_base:.1} -> {chol_ns:.1} ns/task)"
        );
        Some((flat_base, flat_pct, chol_base, chol_pct))
    });

    // --- telemetry on/off dispatch delta ---------------------------------
    // Disabled spans cost one relaxed load per task; enabled spans add one
    // ring store (the scheduler reuses its existing clock reads). Measure
    // both states on the same graphs so the instrumentation cost is
    // tracked in the JSON alongside the dispatch numbers.
    obs::set_enabled(true);
    let flat_on = dispatch_ns(&flat, workers, reps);
    let chol_on = dispatch_ns(&dag.graph, workers, reps);
    obs::set_enabled(false);
    obs::reset_rings();
    let flat_tele_pct = 100.0 * (flat_on - flat_ns) / flat_ns;
    let chol_tele_pct = 100.0 * (chol_on - chol_ns) / chol_ns;
    println!(
        "telemetry on/off: flat {flat_ns:.1} -> {flat_on:.1} ns/task ({flat_tele_pct:+.2}%), chol {chol_ns:.1} -> {chol_on:.1} ns/task ({chol_tele_pct:+.2}%)"
    );
    // Cost-weighted bodies: one ring store amortized over kernel-scale
    // work — the realistic overhead, and the number the <2% acceptance
    // gate (`telemetry_smoke` / `scripts/verify.sh`) tracks. Measured at
    // <= one worker per core for the same reason the occupancy comparison
    // is: oversubscribed spin bodies time OS preemption, not the
    // instrumentation.
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let occ_workers = workers.min(host_cpus);
    let wdag = build_dag(16);
    let wcosts: Vec<u64> = wdag
        .tasks
        .iter()
        .map(|t| kernel_cost(&DEFAULT_KERNEL_COSTS, t.kind()) as u64 * unit_ns)
        .collect();
    let wn = wdag.graph.len() as f64;
    let w_reps = reps.max(9); // min-of-N wants enough samples to hit the floor
    let w_off = min_secs(w_reps, || {
        run(&wdag.graph, occ_workers, |id| spin(wcosts[id]));
    }) * 1e9
        / wn;
    obs::set_enabled(true);
    let w_on = min_secs(w_reps, || {
        run(&wdag.graph, occ_workers, |id| spin(wcosts[id]));
    }) * 1e9
        / wn;
    obs::set_enabled(false);
    obs::reset_rings();
    let w_pct = 100.0 * (w_on - w_off) / w_off;
    println!(
        "telemetry on/off (cost-weighted nt=16, {occ_workers} workers): {w_off:.1} -> {w_on:.1} ns/task ({w_pct:+.2}%)"
    );

    // --- occupancy on the Cholesky DAG with cost-weighted bodies ---------
    let mut occ_results: Vec<OccupancyResult> = Vec::new();
    for nt in [8usize, 16, 32] {
        let dag = build_dag(nt);
        let costs: Vec<u64> = dag
            .tasks
            .iter()
            .map(|t| kernel_cost(&DEFAULT_KERNEL_COSTS, t.kind()) as u64 * unit_ns)
            .collect();
        // counters from the full --workers run (stealing exercised) ...
        run(&dag.graph, workers, |id| spin(costs[id]));
        let stats = run(&dag.graph, workers, |id| spin(costs[id]));
        // ... occupancy at <= one worker per core
        let occ = traced_occupancy(&dag.graph, occ_workers, |id| spin(costs[id]));
        let s = stats.total();
        println!(
            "occupancy nt={nt:<3} {:>5} tasks   {:>5.1}% ({occ_workers} workers)   steals {:>5} (tasks {:>5})   parks {:>4}   wakes {:>4}   affinity {:>5}",
            dag.graph.len(),
            100.0 * occ,
            s.steals,
            s.stolen_tasks,
            s.parks,
            s.wakes,
            s.affinity_dispatches
        );
        occ_results.push(OccupancyResult {
            nt,
            tasks: dag.graph.len(),
            occupancy: occ,
            stats,
        });
    }

    // --- JSON ------------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workers\": {workers},\n  \"host_cpus\": {host_cpus},\n  \"occupancy_workers\": {occ_workers},\n  \"reps\": {reps},\n  \"quick\": {quick},\n  \"unit_ns\": {unit_ns},\n"
    ));
    json.push_str(&format!(
        "  \"flat\": {{\"tasks\": {}, \"ns_per_task_worksteal\": {flat_ns:.1}}},\n",
        flat.len()
    ));
    json.push_str(&format!(
        "  \"cholesky_dispatch\": {{\"nt\": {chol_nt}, \"tasks\": {}, \"ns_per_task_worksteal\": {chol_ns:.1}}},\n",
        dag.graph.len()
    ));
    if let Some((flat_base, flat_pct, chol_base, chol_pct)) = ft_overhead {
        json.push_str(&format!(
            "  \"ft_overhead_vs_committed\": {{\"flat_baseline_ns\": {flat_base:.1}, \"flat_ns\": {flat_ns:.1}, \"flat_pct\": {flat_pct:.2}, \"chol_baseline_ns\": {chol_base:.1}, \"chol_ns\": {chol_ns:.1}, \"chol_pct\": {chol_pct:.2}}},\n"
        ));
    }
    json.push_str(&format!(
        "  \"telemetry\": {{\"flat_ns_off\": {flat_ns:.1}, \"flat_ns_on\": {flat_on:.1}, \"flat_pct\": {flat_tele_pct:.2}, \"chol_ns_off\": {chol_ns:.1}, \"chol_ns_on\": {chol_on:.1}, \"chol_pct\": {chol_tele_pct:.2}, \"weighted_ns_off\": {w_off:.1}, \"weighted_ns_on\": {w_on:.1}, \"weighted_pct\": {w_pct:.2}}},\n"
    ));
    json.push_str("  \"occupancy\": [\n");
    for (i, r) in occ_results.iter().enumerate() {
        let s = r.stats.total();
        let comma = if i + 1 == occ_results.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"nt\": {}, \"tasks\": {}, \"occupancy\": {:.4}, \"steals\": {}, \"stolen_tasks\": {}, \"failed_steals\": {}, \"local_pops\": {}, \"parks\": {}, \"wakes\": {}, \"affinity_dispatches\": {}}}{}\n",
            r.nt,
            r.tasks,
            r.occupancy,
            s.steals,
            s.stolen_tasks,
            s.failed_steals,
            s.local_pops,
            s.parks,
            s.wakes,
            s.affinity_dispatches,
            comma
        ));
    }
    json.push_str("  ]");
    for entry in committed
        .as_deref()
        .map(retired_entries)
        .unwrap_or_default()
    {
        json.push_str(&format!(",\n  {entry}"));
    }
    json.push_str("\n}\n");
    std::fs::write(&out, json).expect("write BENCH_scheduler.json");
    println!("wrote {out}");
}
