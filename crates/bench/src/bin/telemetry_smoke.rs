//! Telemetry smoke test (the `scripts/verify.sh` acceptance step for the
//! observability layer, DESIGN.md §15).
//!
//! Runs a parallel mixed-precision factorization plus a small distributed
//! run with tracing on, then checks the whole export chain:
//!
//! 1. **bit-identity** — the factor computed with tracing on is bit-for-bit
//!    the factor computed with tracing off (telemetry never touches
//!    numerical data);
//! 2. **Chrome export** — `chrome_trace_json` validates against the
//!    `trace_event` schema, with task spans, kernel spans, wire spans and
//!    per-worker tracks present;
//! 3. **RunReport** — `RunReport::collect` → `to_json` validates against
//!    the v1 schema with a non-trivial occupancy timeline and energy split;
//! 4. **overhead** — instrumented dispatch on a cost-weighted Cholesky DAG
//!    stays under 2% of the uninstrumented run (measured live, plus the
//!    committed `BENCH_scheduler.json` weighted_pct when comparable).
//!
//! Artifacts land in `--out-dir` (default `target/telemetry/`):
//! `trace.json` (open in chrome://tracing or Perfetto), `events.jsonl`,
//! `run_report.json`.
//!
//! Run: `cargo run --release -p mixedp-bench --bin telemetry_smoke`

use std::time::Instant;

use mixedp_bench::timing::{scan_json_f64, weighted_telemetry_overhead};
use mixedp_bench::Args;
use mixedp_core::{
    factorize_mp, factorize_mp_distributed, uniform_map, validate_run_report, RunReport, WirePolicy,
};
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_obs as obs;
use mixedp_tile::{Grid2d, SymmTileMatrix};

fn spd_matrix(n: usize, nb: usize) -> SymmTileMatrix {
    SymmTileMatrix::from_fn(
        n,
        nb,
        |i, j| {
            let d = (i as f64 - j as f64).abs();
            (-0.1 * d).exp() + if i == j { 0.6 } else { 0.0 }
        },
        |_, _| StoragePrecision::F64,
    )
}

fn main() {
    let args = Args::parse();
    let out_dir = args.get_str("out-dir", "target/telemetry");
    let sched_json = args.get_str("sched-json", "BENCH_scheduler.json");
    let threads = args.get_usize("threads", 4);
    let reps = args.get_usize("reps", 9);
    let unit_ns = args.get_usize("unit-ns", 2_000) as u64;
    std::fs::create_dir_all(&out_dir).expect("create out-dir");

    let nb = 32usize;
    let nt = 8usize;
    let n = nt * nb;
    let a0 = spd_matrix(n, nb);
    let m = uniform_map(nt, Precision::Fp16x32);

    // --- traced run: parallel factorization + distributed leg ------------
    let mut a_off = a0.clone();
    factorize_mp(&mut a_off, &m, threads).expect("untraced factorization");

    obs::reset_rings();
    obs::metrics::reset();
    obs::set_enabled(true);
    let t0 = Instant::now();
    let mut a_on = a0.clone();
    let stats = factorize_mp(&mut a_on, &m, threads).expect("traced factorization");
    let mut a_dist = a0.clone();
    let dist = factorize_mp_distributed(&mut a_dist, &m, &Grid2d::new(2, 2), WirePolicy::Auto)
        .expect("traced distributed factorization");
    let wall_s = t0.elapsed().as_secs_f64();
    obs::set_enabled(false);
    let trace = obs::collect();

    // --- 1. bit-identity ---------------------------------------------------
    let mut identical = true;
    for i in 0..n {
        for j in 0..=i {
            if a_off.get(i, j).to_bits() != a_on.get(i, j).to_bits() {
                identical = false;
            }
        }
    }
    assert!(identical, "tracing must not change the computed factor");
    println!("bit-identity: traced factor identical to untraced factor");

    // --- 2. Chrome export --------------------------------------------------
    assert!(
        !trace.records.is_empty(),
        "traced run must emit telemetry records"
    );
    assert_eq!(trace.dropped, 0, "smoke run must not overflow the rings");
    let chrome = obs::chrome_trace_json(&trace);
    let summary = obs::validate_chrome_trace(&chrome).expect("chrome export must validate");
    assert!(summary.complete_spans > 0, "no spans in the chrome export");
    assert!(
        summary.tracks >= 2,
        "expected worker tracks plus main, got {} track(s)",
        summary.tracks
    );
    let has = |k: obs::EventKind| trace.records.iter().any(|r| r.kind == k);
    assert!(has(obs::EventKind::TaskExec), "missing task spans");
    assert!(has(obs::EventKind::KernelGemm), "missing kernel spans");
    assert!(has(obs::EventKind::WirePack), "missing wire pack spans");
    println!(
        "chrome trace: {} events, {} spans, {} instants, {} tracks",
        summary.events, summary.complete_spans, summary.instants, summary.tracks
    );
    std::fs::write(format!("{out_dir}/trace.json"), &chrome).expect("write trace.json");
    std::fs::write(format!("{out_dir}/events.jsonl"), obs::jsonl_log(&trace))
        .expect("write events.jsonl");

    // --- 3. RunReport ------------------------------------------------------
    let mut motion = dist.motion_inputs();
    motion.convert_count = stats.conversions_performed;
    let report = RunReport::collect(
        "telemetry_smoke",
        threads,
        wall_s,
        &trace,
        &motion,
        stats.sched_per_worker.clone(),
    );
    let report_json = report.to_json();
    let version = validate_run_report(&report_json).expect("run report must validate");
    assert!(report.occupancy.mean() > 0.0, "occupancy timeline is empty");
    assert!(
        report.energy.total_joules > 0.0,
        "energy accounting is zero"
    );
    assert!(
        report.metrics.counter("scheduler.tasks").unwrap_or(0) > 0,
        "scheduler counters missing from the metrics snapshot"
    );
    assert!(
        report.metrics.counter("wire.messages").unwrap_or(0) > 0,
        "wire counters missing from the metrics snapshot"
    );
    println!(
        "run report v{version}: occupancy {:.1}%, {:.3} J total ({:.3} J kernels, {:.3} J wire)",
        100.0 * report.occupancy.mean(),
        report.energy.total_joules,
        report.energy.kernel_joules,
        report.energy.wire_joules
    );
    std::fs::write(format!("{out_dir}/run_report.json"), &report_json)
        .expect("write run_report.json");

    // --- 4. overhead gates -------------------------------------------------
    if let Ok(b) = std::fs::read_to_string(&sched_json) {
        match scan_json_f64(&b, "telemetry", "weighted_pct") {
            Some(pct) => {
                println!("committed {sched_json} weighted telemetry overhead: {pct:+.2}%");
                assert!(
                    pct < 2.0,
                    "committed weighted telemetry overhead {pct:.2}% breaches the 2% gate"
                );
            }
            None => println!("committed {sched_json} has no telemetry section; skipping"),
        }
    } else {
        println!("no committed {sched_json}; skipping committed-overhead gate");
    }
    let mut pct = weighted_telemetry_overhead(threads, reps, unit_ns).2;
    if pct >= 2.0 {
        // one retry: paired medians damp most scheduling noise, but a single
        // background hiccup on a small host can still skew a run
        println!("live overhead {pct:+.2}% >= 2%; retrying once");
        pct = weighted_telemetry_overhead(threads, reps, unit_ns).2;
    }
    println!("live weighted telemetry overhead: {pct:+.2}%");
    assert!(
        pct < 2.0,
        "live weighted telemetry overhead {pct:.2}% breaches the 2% gate"
    );

    println!("telemetry smoke: OK ({out_dir}/trace.json, events.jsonl, run_report.json)");
}
