//! Fig 3 reproduction: the task/dependency structure of the first two
//! iterations of Algorithm 1, plus a live asynchronous execution trace
//! showing dependency-driven (not lockstep) scheduling.
//!
//! Run: `cargo run --release -p mixedp-bench --bin fig3_dag_trace [--nt=4]`

use mixedp_bench::Args;
use mixedp_core::factorize::{build_dag, CholeskyTask};
use mixedp_obs as obs;
use mixedp_runtime::{execute, ExecOptions};
use std::sync::atomic::{AtomicUsize, Ordering};

fn name(t: &CholeskyTask) -> String {
    match *t {
        CholeskyTask::Potrf { k } => format!("P({k},{k})"),
        CholeskyTask::Trsm { m, k } => format!("T({m},{k})"),
        CholeskyTask::Syrk { m, k } => format!("S({m},{m})<-({m},{k})"),
        CholeskyTask::Gemm { m, n, k } => format!("G({m},{n})<-({m},{k}),({n},{k})"),
    }
}

fn iteration(t: &CholeskyTask) -> usize {
    match *t {
        CholeskyTask::Potrf { k }
        | CholeskyTask::Trsm { k, .. }
        | CholeskyTask::Syrk { k, .. }
        | CholeskyTask::Gemm { k, .. } => k,
    }
}

fn main() {
    let args = Args::parse();
    let nt = args.get_usize("nt", 4);
    let dag = build_dag(nt);

    println!("Fig 3: first two iterations of Algorithm 1 on a {nt}x{nt} tile matrix");
    println!("(P=POTRF, T=TRSM, S=SYRK, G=GEMM; '<-' lists communicated inputs)\n");
    for (id, t) in dag.tasks.iter().enumerate() {
        if iteration(t) > 1 {
            continue;
        }
        let deps: Vec<String> = dag
            .graph
            .node(id)
            .deps
            .iter()
            .map(|&d| name(&dag.tasks[d]))
            .collect();
        println!(
            "  k={} {:<28} deps: [{}]",
            iteration(t),
            name(t),
            deps.join(", ")
        );
    }

    println!(
        "\ncritical path: {} tasks (of {} total)",
        dag.graph.critical_path_len(),
        dag.graph.len()
    );

    // Asynchronous execution demo: tasks of iteration k+1 can start before
    // iteration k has fully drained (PaRSEC's asynchrony, §III-B). The
    // Gantt comes straight from the telemetry span stream.
    let workers = 4;
    obs::set_enabled(true);
    let max_started_iter_while_k0_running = AtomicUsize::new(0);
    let k0_running = AtomicUsize::new(0);
    let stats = execute(
        &dag.graph,
        workers,
        |_| (),
        |(), id| {
            let it = iteration(&dag.tasks[id]);
            if it == 0 {
                k0_running.fetch_add(1, Ordering::SeqCst);
            } else {
                // record the deepest iteration started while k=0 work remains
                max_started_iter_while_k0_running.fetch_max(it, Ordering::SeqCst);
            }
            // emulate kernel work
            let mut acc = 0u64;
            for i in 0..200_000u64 {
                acc ^= std::hint::black_box(i).wrapping_mul(0x9E3779B9);
            }
            std::hint::black_box(acc);
        },
        &ExecOptions::default(),
    )
    .unwrap();
    obs::set_enabled(false);
    let spans = obs::collect();
    let occ = obs::occupancy_timeline(&spans, 64, workers);
    println!(
        "\nasynchronous run on {workers} workers: makespan {:.3} ms, occupancy {:.0}%",
        occ.bin_ns * occ.aggregate.len() as f64 / 1e6,
        occ.mean() * 100.0
    );
    println!("(tasks fired as dependencies were satisfied — no iteration barriers)\n");
    println!("Gantt (task-id mod 10 per slot; '·' idle):");
    print!(
        "{}",
        mixedp_runtime::render_gantt_with_stats(&spans, &stats.workers, 72)
    );
}
