//! One statement of Algorithm 1's read edges, three consumers.
//!
//! The DAG builder, the distributed engine and the DES task builder all
//! derive "who reads which tile, at what wire precision" from
//! `CholeskyTask::{inputs, readers}` and `ConversionPlan::wire`. These
//! tests pin what the three consumers produce and check that they agree:
//!
//! 1. **distributed counters** — `DistStats` of the `bench_wire`
//!    configuration equals every counter of the committed
//!    `BENCH_wire.json` `data_motion` rows;
//! 2. **fault history** — a seeded faulted run reproduces its pinned
//!    `(messages, dropped, retransmits, backoff_ns)`, so the message order
//!    (which the fault hash keys on) is fixed;
//! 3. **DES task lists** — a digest of every `SimTask` field over policy ×
//!    map × cluster is pinned;
//! 4. **read edges** — `readers()` is the exact inverse of `inputs()` over
//!    the DAG's tasks and equals the graph's dependents of POTRF/TRSM;
//! 5. **bytes cross-check** — the DES moves exactly the framed bytes the
//!    distributed engine ships for the same map on the same 2×2 grid.

use mixedp_core::factorize::{build_dag, CholeskyTask};
use mixedp_core::wire::MSG_HEADER_BYTES;
use mixedp_core::{
    build_sim_tasks, factorize_mp_distributed, factorize_mp_distributed_ft, simulate_cholesky,
    uniform_map, CholeskySimOptions, PrecisionMap, WirePolicy,
};
use mixedp_fp::{Precision, StoragePrecision};
use mixedp_gpusim::{ClusterSpec, NodeSpec};
use mixedp_obs::json;
use mixedp_runtime::{FaultPlan, RetryPolicy};
use mixedp_tile::{tile_fro_norms, Grid2d, SymmTileMatrix};

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

/// A map mixing all four adaptive precisions off the diagonal.
fn mixed_map(nt: usize) -> PrecisionMap {
    PrecisionMap::from_fn(nt, |i, j| match (i * 31 + j * 17) % 4 {
        0 => Precision::Fp64,
        1 => Precision::Fp32,
        2 => Precision::Fp16x32,
        _ => Precision::Fp16,
    })
}

/// A float as `bench_wire` prints it (`{:.6e}`), read back.
fn as_printed(x: f64) -> f64 {
    format!("{x:.6e}").parse().unwrap()
}

#[test]
fn dist_stats_reproduce_committed_bench_wire_rows() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_wire.json");
    let doc = json::parse(&text).expect("BENCH_wire.json parses");
    let nb = doc.get("nb").and_then(|v| v.as_num()).unwrap() as usize;
    assert_eq!(nb, 32, "bench_wire's default tile size");
    let rows = doc.get("data_motion").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(rows.len(), 12, "nt {{8,16}} × 3 grids × 2 policies");
    for row in rows {
        let num = |k: &str| row.get(k).and_then(|v| v.as_num()).unwrap();
        let text = |k: &str| row.get(k).and_then(|v| v.as_str()).unwrap().to_string();
        let nt = num("nt") as usize;
        let grid = match text("grid").as_str() {
            "1x1" => Grid2d::new(1, 1),
            "2x2" => Grid2d::new(2, 2),
            "2x4" => Grid2d::new(2, 4),
            g => panic!("unknown grid {g}"),
        };
        let policy = match text("policy").as_str() {
            "ttc" => WirePolicy::Ttc,
            "auto" => WirePolicy::Auto,
            p => panic!("unknown policy {p}"),
        };
        let mut a = spd_matrix(nt * nb, nb);
        let s =
            factorize_mp_distributed(&mut a, &uniform_map(nt, Precision::Fp16x32), &grid, policy)
                .unwrap();
        let label = format!("nt={nt} {} {}", text("grid"), text("policy"));
        let counters: [(&str, u64); 8] = [
            ("messages", s.messages),
            ("frames", s.frames),
            ("broadcasts", s.broadcasts),
            ("wire_bytes", s.wire_bytes),
            ("payload_bytes", s.payload_bytes),
            ("ttc_bytes", s.ttc_bytes),
            ("consumer_ttc_bytes", s.consumer_ttc_bytes),
            ("consumer_fetches", s.consumer_fetches),
        ];
        for (k, v) in counters {
            assert_eq!(v as f64, num(k), "{label}: {k}");
        }
        assert_eq!(
            as_printed(s.link_time_flat_s),
            num("link_time_flat_s"),
            "{label}"
        );
        assert_eq!(
            as_printed(s.link_time_tree_s),
            num("link_time_tree_s"),
            "{label}"
        );
    }
}

#[test]
fn seeded_fault_history_is_pinned() {
    let a0 = spd_matrix(64, 16);
    let m = uniform_map(a0.nt(), Precision::Fp32);
    let retry = RetryPolicy::default()
        .with_max_attempts(8)
        .with_backoff_base_ns(500);
    let faults = FaultPlan::seeded(7).with_wire_drop_rate(0.3);
    let mut a = a0.clone();
    let s = factorize_mp_distributed_ft(
        &mut a,
        &m,
        &Grid2d::new(2, 2),
        WirePolicy::Ttc,
        &faults,
        &retry,
    )
    .unwrap();
    assert_eq!(
        (s.messages, s.dropped, s.retransmits, s.backoff_ns),
        (14, 3, 3, 2189),
        "message order (and with it the fault history) changed"
    );
}

/// FNV-1a over the `Debug` rendering — every field of every task and of
/// every initial tile.
fn digest(tasks: &impl std::fmt::Debug, initial: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{tasks:?}{initial:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn sim_task_lists_are_pinned() {
    let nt = 8;
    let maps = [
        ("fp16", uniform_map(nt, Precision::Fp16)),
        ("fp16_32", uniform_map(nt, Precision::Fp16x32)),
        ("mixed", mixed_map(nt)),
    ];
    let mut got = Vec::new();
    for nodes in [1, 4] {
        let cluster = ClusterSpec::summit(nodes);
        for (name, m) in &maps {
            for (pname, policy) in [("ttc", WirePolicy::Ttc), ("auto", WirePolicy::Auto)] {
                let opts = CholeskySimOptions {
                    nb: 512,
                    strategy: policy,
                };
                let (tasks, initial) = build_sim_tasks(m, &cluster, opts);
                got.push(format!(
                    "{nodes} {name} {pname} {:016x}",
                    digest(&tasks, &initial)
                ));
            }
        }
    }
    let want = [
        "1 fp16 ttc 0926b3916be5344c",
        "1 fp16 auto adaede0438d2474d",
        "1 fp16_32 ttc 3092a94ae25687ce",
        "1 fp16_32 auto fed9950afdd1a297",
        "1 mixed ttc 65881e4a43988e6d",
        "1 mixed auto dbcbe3696345fd86",
        "4 fp16 ttc cb248a71490a3540",
        "4 fp16 auto ec9042ab79a6f423",
        "4 fp16_32 ttc 68d47f9b3823e362",
        "4 fp16_32 auto 22e7f105037e4265",
        "4 mixed ttc 93422738a380cf27",
        "4 mixed auto f7512704326987f8",
    ];
    assert_eq!(got, want);
}

#[test]
fn readers_are_the_inverse_of_inputs() {
    for nt in 1..=8 {
        let dag = build_dag(nt);
        let id_of = |t: CholeskyTask| dag.tasks.iter().position(|&x| x == t).unwrap();
        let dependents = dag.graph.dependents();
        for (id, t) in dag.tasks.iter().enumerate() {
            // every read has a producer that lists the reader...
            for (i, j) in t.inputs() {
                let producer = if i == j {
                    CholeskyTask::Potrf { k: i }
                } else {
                    CholeskyTask::Trsm { m: i, k: j }
                };
                assert!(
                    producer.readers(nt).any(|r| r == *t),
                    "nt={nt}: {t} reads ({i},{j}) but {producer} does not list it"
                );
            }
            // ...and every listed reader reads the producer's output
            let mut readers: Vec<usize> = t.readers(nt).map(id_of).collect();
            for &r in &readers {
                assert!(
                    dag.tasks[r].inputs().any(|x| x == t.output_tile()),
                    "nt={nt}: {} listed as a reader of {t}",
                    dag.tasks[r]
                );
            }
            match t {
                CholeskyTask::Potrf { .. } | CholeskyTask::Trsm { .. } => {
                    // a POTRF/TRSM output is final: its only dependents in
                    // the graph are its readers
                    readers.sort_unstable();
                    assert_eq!(readers, dependents[id], "nt={nt}: {t}");
                }
                _ => assert!(
                    readers.is_empty(),
                    "nt={nt}: {t} output is read before final"
                ),
            }
        }
    }
}

/// The DES moves, across nodes, the framed bytes of one message per frame;
/// the distributed engine coalesces the frames crossing a link into one
/// message, saving one message header per extra frame.
fn assert_des_bytes_match_engine(m: &PrecisionMap, label: &str) {
    let nb = 64;
    let nt = m.nt();
    // Summit nodes of one GPU each: the DES's squarest grid is the 2×2.
    let cluster = ClusterSpec::new(NodeSpec::summit().single_gpu(), 4);
    for policy in [WirePolicy::Ttc, WirePolicy::Auto] {
        let mut a = spd_matrix(nt * nb, nb);
        let dist = factorize_mp_distributed(&mut a, m, &Grid2d::new(2, 2), policy).unwrap();
        let sim = simulate_cholesky(
            m,
            &cluster,
            CholeskySimOptions {
                nb,
                strategy: policy,
            },
        );
        let expect = dist.wire_bytes + (dist.frames - dist.messages) * MSG_HEADER_BYTES as u64;
        assert_eq!(sim.nic_bytes, expect, "{label} {policy:?}: {dist:?}");
    }
}

#[test]
fn des_nic_bytes_equal_distributed_wire_bytes() {
    let nt = 8;
    let a0 = spd_matrix(nt * 64, 64);
    let adaptive = PrecisionMap::from_norms(&tile_fro_norms(&a0), 1e-4, &Precision::ADAPTIVE_SET);
    let maps = [
        ("fp64", uniform_map(nt, Precision::Fp64)),
        ("fp32", uniform_map(nt, Precision::Fp32)),
        ("fp16_32", uniform_map(nt, Precision::Fp16x32)),
        ("fp16", uniform_map(nt, Precision::Fp16)),
        ("adaptive 1e-4", adaptive),
    ];
    for (label, m) in &maps {
        assert_des_bytes_match_engine(m, label);
    }
}
