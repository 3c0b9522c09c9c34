//! Fig 11 reproduction: conversion-strategy performance on one full node —
//! 6×V100 (Summit) and 8×A100 (Guyot) — across matrix sizes.
//!
//! Run: `cargo run --release -p mixedp-bench --bin fig11_node \
//!       [--max-nt=60] [--nb=2048]`

use mixedp_bench::Args;
use mixedp_core::{simulate_cholesky, uniform_map, CholeskySimOptions, WirePolicy};
use mixedp_fp::Precision;
use mixedp_gpusim::{ClusterSpec, NodeSpec};

fn main() {
    let args = Args::parse();
    let max_nt = args.get_usize("max-nt", 60);
    let nb = args.get_usize("nb", 2048);

    for (name, node) in [
        ("Summit node (6x V100)", NodeSpec::summit()),
        ("Guyot (8x A100)", NodeSpec::guyot()),
    ] {
        let cluster = ClusterSpec::new(node, 1);
        let gpus = node.gpus;
        let peak64 = cluster.peak_tflops(Precision::Fp64);
        let peak32 = cluster.peak_tflops(Precision::Fp32);
        println!("=== Fig 11, one {name} ===");
        println!("aggregate peaks: FP64 {peak64:.1} / FP32 {peak32:.1} Tflop/s\n");
        println!(
            "{:>8} {:>9} {:>9} {:>11} {:>11} {:>9} {:>9}",
            "matrix", "FP64", "FP32", "F64/16_32-T", "F64/16_32-S", "F64/16-T", "F64/16-S"
        );
        let mut nt = 12;
        while nt <= max_nt {
            let n = nt * nb;
            let run = |p: Precision, s: WirePolicy| {
                simulate_cholesky(
                    &uniform_map(nt, p),
                    &cluster,
                    CholeskySimOptions { nb, strategy: s },
                )
                .tflops()
            };
            println!(
                "{n:>8} {:>9.1} {:>9.1} {:>11.1} {:>11.1} {:>9.1} {:>9.1}",
                run(Precision::Fp64, WirePolicy::Ttc),
                run(Precision::Fp32, WirePolicy::Ttc),
                run(Precision::Fp16x32, WirePolicy::Ttc),
                run(Precision::Fp16x32, WirePolicy::Auto),
                run(Precision::Fp16, WirePolicy::Ttc),
                run(Precision::Fp16, WirePolicy::Auto),
            );
            nt += 12;
        }
        // headline ratios at the largest size
        let o = |s| CholeskySimOptions { nb, strategy: s };
        let t64 = simulate_cholesky(
            &uniform_map(max_nt, Precision::Fp64),
            &cluster,
            o(WirePolicy::Auto),
        )
        .makespan_s;
        let t16 = simulate_cholesky(
            &uniform_map(max_nt, Precision::Fp16),
            &cluster,
            o(WirePolicy::Auto),
        )
        .makespan_s;
        let ttc16 = simulate_cholesky(
            &uniform_map(max_nt, Precision::Fp16),
            &cluster,
            o(WirePolicy::Ttc),
        )
        .makespan_s;
        let eff = simulate_cholesky(
            &uniform_map(max_nt, Precision::Fp64),
            &cluster,
            o(WirePolicy::Auto),
        )
        .tflops()
            / peak64;
        println!(
            "\nat n={}: FP64 efficiency {:.0}% | TTC→STC speedup {:.2}x | FP64→FP64/FP16 {:.1}x ({gpus} GPUs)\n",
            max_nt * nb,
            eff * 100.0,
            ttc16 / t16,
            t64 / t16
        );
    }
    println!("paper shape: near-linear one-GPU→full-node scaling; ≥80% FP64/FP32");
    println!("efficiency; TTC→STC up to 1.66x; FP64→FP64/FP16 9.75x (Summit) and");
    println!("10.9x (Guyot).");
}
