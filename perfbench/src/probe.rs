//! Isolated tile-kernel probe: each Algorithm 1 kernel at one tile size and
//! precision, called from outside the program on synthetic tiles.
//!
//! Comparing `isolated_gflops` with the in-run rate (`kernels.*.gflops`)
//! separates a kernel's own speed from what the factorization around it
//! costs, and lets a kernel change predict its end-to-end effect as
//! calls × Δt per call.

use crate::report::{median, Report};
use crate::workloads::prec_label;
use mixedp_fp::{storage_precision_of, Precision};
use mixedp_kernels::{
    gemm_tile_ws, kernel_flops, potrf_tile_ws, syrk_tile_ws, trsm_tile_ws, KernelKind, Workspace,
};
use mixedp_tile::Tile;
use std::time::Instant;

/// Every (kernel, precision) pair the factorization can run. TRSM clamps
/// FP16-class precisions to FP32 (`trsm_effective_precision`), and
/// POTRF/SYRK always run in FP64.
pub const KERNELS: [(KernelKind, Precision); 8] = [
    (KernelKind::Gemm, Precision::Fp64),
    (KernelKind::Gemm, Precision::Fp32),
    (KernelKind::Gemm, Precision::Fp16x32),
    (KernelKind::Gemm, Precision::Fp16),
    (KernelKind::Trsm, Precision::Fp64),
    (KernelKind::Trsm, Precision::Fp32),
    (KernelKind::Syrk, Precision::Fp64),
    (KernelKind::Potrf, Precision::Fp64),
];

pub fn kind_label(k: KernelKind) -> &'static str {
    match k {
        KernelKind::Gemm => "gemm",
        KernelKind::Trsm => "trsm",
        KernelKind::Syrk => "syrk",
        KernelKind::Potrf => "potrf",
    }
}

/// Stop timing one pair once this much time has gone into it.
const PAIR_BUDGET_S: f64 = 0.25;

/// Deterministic values in [-1, 1).
fn filler(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn random_tile(nb: usize, seed: u64, p: Precision) -> Tile {
    let mut f = filler(seed);
    let data: Vec<f64> = (0..nb * nb).map(|_| f()).collect();
    Tile::from_f64(nb, nb, &data, storage_precision_of(p))
}

/// A symmetric, strongly diagonally dominant (so SPD) tile in FP64.
fn spd_tile(nb: usize) -> Tile {
    let mut f = filler(7);
    let mut data = vec![0.0; nb * nb];
    for i in 0..nb {
        for j in 0..i {
            let v = 0.5 * f();
            data[i * nb + j] = v;
            data[j * nb + i] = v;
        }
        data[i * nb + i] = nb as f64;
    }
    Tile::from_f64(nb, nb, &data, storage_precision_of(Precision::Fp64))
}

/// Time one call of `kind` at precision `p`; the output tile is reset from
/// a pristine copy before every call, outside the timing.
fn time_pair(kind: KernelKind, p: Precision, nb: usize, ws: &mut Workspace) -> Vec<f64> {
    let a = random_tile(nb, 1, p);
    let b = random_tile(nb, 2, p);
    let spd = spd_tile(nb);
    let mut l = spd.clone();
    potrf_tile_ws(&mut l, ws, false).expect("diagonally dominant tile is SPD");
    let out0 = match kind {
        KernelKind::Potrf => spd.clone(),
        _ => random_tile(nb, 3, p),
    };
    let mut times = Vec::new();
    let t_all = Instant::now();
    // One warm-up call, then at least two timed ones.
    for rep in 0..usize::MAX {
        let mut c = out0.clone();
        let t0 = Instant::now();
        match kind {
            KernelKind::Gemm => gemm_tile_ws(p, &a, &b, &mut c, ws, false),
            KernelKind::Trsm => trsm_tile_ws(p, &l, &mut c, ws, false),
            KernelKind::Syrk => syrk_tile_ws(&a, &mut c, ws, false),
            KernelKind::Potrf => potrf_tile_ws(&mut c, ws, false).expect("SPD tile"),
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&c);
        if rep > 0 {
            times.push(dt);
        }
        if times.len() >= 2 && t_all.elapsed().as_secs_f64() >= PAIR_BUDGET_S {
            break;
        }
    }
    times
}

/// Bytes one call reads and writes at the operands' storage precision
/// (computed from tile sizes, not measured).
fn bytes_per_call(kind: KernelKind, p: Precision, nb: usize) -> f64 {
    let tile = (nb * nb * storage_precision_of(p).bytes()) as f64;
    let tiles_touched = match kind {
        KernelKind::Gemm => 4.0, // read A, B, C; write C
        KernelKind::Trsm | KernelKind::Syrk => 3.0,
        KernelKind::Potrf => 2.0,
    };
    tiles_touched * tile
}

/// Run the probe at tile size `nb` and record
/// `kernels.<kind>.<prec>.isolated_gflops` (plus per-call counts in info).
pub fn run(nb: usize, report: &mut Report) {
    let mut ws = Workspace::new();
    for (kind, p) in KERNELS {
        let key = format!("kernels.{}.{}", kind_label(kind), prec_label(p));
        let flops = kernel_flops(kind, nb);
        let t = median(&time_pair(kind, p, nb, &mut ws));
        report.metric(
            format!("{key}.isolated_gflops"),
            flops / t * 1e-9,
            "GFLOP/s",
        );
        report.info(format!("{key}.isolated_flops_per_call"), flops);
        report.info(
            format!("{key}.isolated_bytes_per_call"),
            bytes_per_call(kind, p, nb),
        );
    }
}
