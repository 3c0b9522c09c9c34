//! Mixed-precision tile kernels with faithful per-format arithmetic.
//!
//! The emulation contract (DESIGN.md §7):
//!
//! * **FP32** — inputs on the binary32 grid, f32 accumulation.
//! * **TF32** — inputs rounded to a 10-bit mantissa, f32 accumulation.
//! * **FP16_32 / BF16_32** — inputs rounded to binary16 / bfloat16, f32
//!   accumulation (the f16·f16 product is exact in f32, exactly as tensor
//!   cores compute it).
//! * **FP16** — inputs *and* the running accumulation in binary16, with
//!   per-operation rounding.
//! * Hardware limitation (paper §V): FP16-class TRSM does not exist on
//!   NVIDIA GPUs, so [`trsm_effective_precision`] clamps those to FP32, and
//!   POTRF/SYRK on diagonal tiles always run FP64 (Algorithm 1 "D" prefix).
//!
//! # Data path
//!
//! Every kernel has a `*_tile_ws` form taking a caller-owned [`Workspace`]
//! and an explicit `parallel` flag: operand staging reuses the workspace's
//! buffers (zero steady-state heap allocations), F64-stored tiles are
//! updated in place with no staging copy at all, and reduced-precision
//! paths read/write `f32` directly instead of round-tripping through `f64`.
//! The legacy allocating names delegate through a thread-local workspace.
//!
//! GEMM additionally accepts pre-quantized operand images ([`ComputeBuf`])
//! so a producer can convert a tile to its compute format **once** and share
//! the result with every consumer — the paper's single-time conversion
//! (STC). Cached and locally-quantized operands are built by the same
//! quantization routine, so STC never changes a single bit of the result.
//!
//! # FP16-class fast paths
//!
//! On CPUs with F16C ([`f16c::available`], detected once at run time),
//! pure-FP16 GEMM runs the [`f16c`] register-blocked micro-kernel, and
//! F32/F16-stored operands of FP16 / FP16_32 / BF16_32 are quantized with
//! F16C or the bfloat16 bit trick. F64-stored operands keep the exact
//! encoder. Every fast path is bit-identical to the scalar shim path, which
//! stays as the fallback and as the oracle ([`reference_gemm_tile`]).

use crate::blas;
use crate::f16c;
use crate::workspace::{with_thread_workspace, Workspace};
use half::f16;
use mixedp_fp::Precision;
use mixedp_obs as obs;
use mixedp_tile::{Tile, TileBuf};

/// The precision a TRSM actually executes in when the tile's kernel
/// precision is `p` — FP16-class tiles fall back to FP32 (paper §V).
pub fn trsm_effective_precision(p: Precision) -> Precision {
    match p {
        Precision::Fp64 => Precision::Fp64,
        _ => Precision::Fp32,
    }
}

/// A tile's image in a kernel input format: the unit of the paper's
/// single-time conversion. Built once by the producing task, shared (behind
/// an `Arc`) with every consuming GEMM.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeBuf {
    /// f32-grid image (FP32 / TF32 / FP16_32 / BF16_32 after input
    /// quantization — all exactly representable in binary32).
    F32(Vec<f32>),
    /// binary16 image (pure-FP16 GEMM).
    F16(Vec<f16>),
}

impl ComputeBuf {
    pub fn len(&self) -> usize {
        match self {
            ComputeBuf::F32(v) => v.len(),
            ComputeBuf::F16(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes (for data-motion accounting).
    pub fn bytes(&self) -> usize {
        match self {
            ComputeBuf::F32(v) => v.len() * 4,
            ComputeBuf::F16(v) => v.len() * 2,
        }
    }
}

/// Number of distinct non-FP64 kernel input formats — the slot count of a
/// per-tile compute-buffer cache.
pub const N_COMPUTE_FORMATS: usize = 5;

/// Cache-slot index of a precision's input format (`None` for FP64, which
/// needs no conversion).
pub fn compute_format_index(p: Precision) -> Option<usize> {
    match p {
        Precision::Fp64 => None,
        Precision::Fp32 => Some(0),
        Precision::Tf32 => Some(1),
        Precision::Fp16x32 => Some(2),
        Precision::Bf16x32 => Some(3),
        Precision::Fp16 => Some(4),
    }
}

/// Quantize a tile through `p`'s input representation into an f32 buffer
/// (every value of every format ≤ FP32 is exactly f32 representable).
/// Single widening per element, no intermediate allocation. With `simd`,
/// F32- and F16-stored FP16_32 / BF16_32 operands take the bit-identical
/// [`f16c`] paths; F64 sources always use the exact encoder.
fn quantize_into(p: Precision, t: &Tile, out: &mut Vec<f32>, simd: bool) {
    out.clear();
    match (t.buf(), p) {
        (TileBuf::F32(v), Precision::Fp16x32) if simd => {
            out.resize(v.len(), 0.0);
            f16c::round_f16(v, out);
        }
        (TileBuf::F32(v), Precision::Bf16x32) if simd => {
            out.extend(v.iter().map(|&x| f16c::round_bf16(x)))
        }
        (TileBuf::F16(v), Precision::Fp16x32 | Precision::Bf16x32) if simd => {
            // Widening is exact, and binary16 values are already on the
            // FP16_32 grid; bfloat16 then rounds once from the exact value.
            out.resize(v.len(), 0.0);
            f16c::f16_to_f32(v, out);
            if p == Precision::Bf16x32 {
                out.iter_mut().for_each(|x| *x = f16c::round_bf16(*x));
            }
        }
        (TileBuf::F64(v), _) => out.extend(v.iter().map(|&x| mixedp_fp::quantize(p, x) as f32)),
        (TileBuf::F32(v), _) => {
            out.extend(v.iter().map(|&x| mixedp_fp::quantize(p, x as f64) as f32))
        }
        (TileBuf::F16(v), _) => {
            out.extend(v.iter().map(|x| mixedp_fp::quantize(p, x.to_f64()) as f32))
        }
    }
}

/// Read a tile as binary16 values (the FP16 GEMM input grid).
fn f16_into(t: &Tile, out: &mut Vec<f16>, simd: bool) {
    out.clear();
    match t.buf() {
        TileBuf::F64(v) => out.extend(v.iter().map(|&x| f16::from_f64(x))),
        TileBuf::F32(v) if simd => {
            out.resize(v.len(), f16::ZERO);
            f16c::f32_to_f16(v, out);
        }
        TileBuf::F32(v) => out.extend(v.iter().map(|&x| f16::from_f32(x))),
        TileBuf::F16(v) => out.extend_from_slice(v),
    }
}

/// An FP16 GEMM operand as `f32` values on the binary16 grid, for the F16C
/// micro-kernel: the producer's cached image widened when one is given,
/// else the tile quantized here. Returns the conversions performed (0 or 1).
fn f16_grid_into(t: &Tile, cached: Option<&ComputeBuf>, out: &mut Vec<f32>) -> usize {
    out.clear();
    out.resize(t.len(), 0.0);
    match (cached, t.buf()) {
        (Some(ComputeBuf::F16(v)), _) if v.len() == t.len() => {
            f16c::f16_to_f32(v, out);
            return 0;
        }
        (_, TileBuf::F64(v)) => {
            for (d, &s) in out.iter_mut().zip(v) {
                *d = f16::from_f64(s).to_f32();
            }
        }
        (_, TileBuf::F32(v)) => f16c::round_f16(v, out),
        (_, TileBuf::F16(v)) => f16c::f16_to_f32(v, out),
    }
    1
}

/// Build the compute-format image of `t` for kernel precision `p`
/// (`p ≠ Fp64`). Uses the same quantization routines as the uncached GEMM
/// paths, so consuming a cached buffer is bit-identical to converting
/// locally.
pub fn make_compute_buf(p: Precision, t: &Tile) -> ComputeBuf {
    let simd = f16c::available();
    match p {
        Precision::Fp64 => panic!("FP64 operands are consumed directly, not via ComputeBuf"),
        Precision::Fp16 => {
            let mut v = Vec::with_capacity(t.len());
            f16_into(t, &mut v, simd);
            ComputeBuf::F16(v)
        }
        _ => {
            let mut v = Vec::with_capacity(t.len());
            quantize_into(p, t, &mut v, simd);
            ComputeBuf::F32(v)
        }
    }
}

/// POTRF on a diagonal tile: always FP64 (Algorithm 1 `DPOTRF`).
pub fn potrf_tile(c: &mut Tile) -> Result<(), blas::NotSpd> {
    with_thread_workspace(|ws| potrf_tile_ws(c, ws, true))
}

/// [`potrf_tile`] on a caller-owned workspace. F64-stored tiles are
/// factored fully in place (no staging copy); note that on a `NotSpd`
/// failure such a tile holds the partial factorization, as with any
/// in-place LAPACK-style POTRF.
pub fn potrf_tile_ws(c: &mut Tile, ws: &mut Workspace, parallel: bool) -> Result<(), blas::NotSpd> {
    let sp = obs::span_start();
    let r = potrf_tile_ws_inner(c, ws, parallel);
    obs::span_end(
        sp,
        obs::EventKind::KernelPotrf,
        obs::kernel_arg(Precision::Fp64, c.rows()),
    );
    r
}

fn potrf_tile_ws_inner(
    c: &mut Tile,
    ws: &mut Workspace,
    parallel: bool,
) -> Result<(), blas::NotSpd> {
    let n = c.rows();
    assert_eq!(n, c.cols(), "POTRF needs a square tile");
    if let Some(a) = c.as_mut_f64_slice() {
        blas::potrf_f64_p(a, n, parallel)?;
        for i in 0..n {
            for j in (i + 1)..n {
                a[i * n + j] = 0.0;
            }
        }
        return Ok(());
    }
    let a = ws.c64.load(|v| c.read_f64_into(v));
    blas::potrf_f64_p(a, n, parallel)?;
    // Zero the strict upper triangle so the tile holds exactly L.
    for i in 0..n {
        for j in (i + 1)..n {
            a[i * n + j] = 0.0;
        }
    }
    c.store_f64(a);
    Ok(())
}

/// TRSM: `C_mk ← C_mk · L_kkᵀ⁻¹` at kernel precision `p` (clamped per
/// [`trsm_effective_precision`]). `l` is the factored diagonal tile.
pub fn trsm_tile(p: Precision, l: &Tile, b: &mut Tile) {
    with_thread_workspace(|ws| trsm_tile_ws(p, l, b, ws, true))
}

/// [`trsm_tile`] on a caller-owned workspace. The FP32 path stages both
/// operands directly in `f32` — no `f64` round-trip — which halves its
/// staging traffic; the values are bit-identical to the widen-then-narrow
/// route because every step of that route rounded at most once.
pub fn trsm_tile_ws(p: Precision, l: &Tile, b: &mut Tile, ws: &mut Workspace, parallel: bool) {
    let sp = obs::span_start();
    trsm_tile_ws_inner(p, l, b, ws, parallel);
    obs::span_end(
        sp,
        obs::EventKind::KernelTrsm,
        obs::kernel_arg(trsm_effective_precision(p), l.rows()),
    );
}

fn trsm_tile_ws_inner(p: Precision, l: &Tile, b: &mut Tile, ws: &mut Workspace, parallel: bool) {
    let n = l.rows();
    assert_eq!(n, l.cols());
    assert_eq!(b.cols(), n);
    let m = b.rows();
    match trsm_effective_precision(p) {
        Precision::Fp64 => {
            let lf = ws.a64.load(|v| l.read_f64_into(v));
            if let Some(bf) = b.as_mut_f64_slice() {
                blas::trsm_rlt_f64_ws(lf, n, bf, m, &mut ws.bt64, parallel);
            } else {
                let bf = ws.c64.load(|v| b.read_f64_into(v));
                blas::trsm_rlt_f64_ws(lf, n, bf, m, &mut ws.bt64, parallel);
                b.store_f64(bf);
            }
        }
        _ => {
            let lf = ws.a32.load(|v| l.read_f32_into(v));
            let bf = ws.c32.load(|v| b.read_f32_into(v));
            blas::trsm_rlt_f32_ws(lf, n, bf, m, &mut ws.bt32, parallel);
            b.write_f32(bf);
        }
    }
}

/// SYRK on a diagonal tile: `C_mm ← C_mm − C_mk C_mkᵀ`, always FP64
/// (Algorithm 1 `DSYRK`). The input panel may arrive in reduced storage —
/// widening it is lossless; the precision loss already happened when the
/// panel was stored, which is exactly the paper's error model.
pub fn syrk_tile(a: &Tile, c: &mut Tile) {
    with_thread_workspace(|ws| syrk_tile_ws(a, c, ws, true))
}

/// [`syrk_tile`] on a caller-owned workspace; F64-stored `C` updates in
/// place, and F64-stored panels are read with zero copies.
pub fn syrk_tile_ws(a: &Tile, c: &mut Tile, ws: &mut Workspace, parallel: bool) {
    let sp = obs::span_start();
    syrk_tile_ws_inner(a, c, ws, parallel);
    obs::span_end(
        sp,
        obs::EventKind::KernelSyrk,
        obs::kernel_arg(Precision::Fp64, c.rows()),
    );
}

fn syrk_tile_ws_inner(a: &Tile, c: &mut Tile, ws: &mut Workspace, parallel: bool) {
    let m = c.rows();
    assert_eq!(m, c.cols());
    assert_eq!(a.rows(), m);
    let k = a.cols();
    let af: &[f64] = match a.as_f64_slice() {
        Some(s) => s,
        None => ws.a64.load(|v| a.read_f64_into(v)),
    };
    if let Some(cf) = c.as_mut_f64_slice() {
        blas::syrk_ln_f64_ws(af, m, k, cf, &mut ws.bt64, parallel);
    } else {
        let cf = ws.c64.load(|v| c.read_f64_into(v));
        blas::syrk_ln_f64_ws(af, m, k, cf, &mut ws.bt64, parallel);
        c.store_f64(cf);
    }
}

/// GEMM: `C_mn ← C_mn − C_mk C_nkᵀ` at kernel precision `p`.
pub fn gemm_tile(p: Precision, a: &Tile, b: &Tile, c: &mut Tile) {
    with_thread_workspace(|ws| {
        gemm_tile_ws(p, a, b, c, ws, true);
    })
}

/// [`gemm_tile`] on a caller-owned workspace.
pub fn gemm_tile_ws(
    p: Precision,
    a: &Tile,
    b: &Tile,
    c: &mut Tile,
    ws: &mut Workspace,
    parallel: bool,
) {
    gemm_tile_ws_cached(p, a, None, b, None, c, ws, parallel);
}

/// GEMM with optional producer-converted operand images (STC).
///
/// When `a_buf`/`b_buf` hold the operand already quantized to `p`'s input
/// format, that conversion is skipped; otherwise the operand is quantized
/// locally into the workspace. Returns the number of operand conversions
/// performed *here* (0–2 for reduced-precision `p`, always 0 for FP64), so
/// the caller can account conversions avoided vs. performed.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tile_ws_cached(
    p: Precision,
    a: &Tile,
    a_buf: Option<&ComputeBuf>,
    b: &Tile,
    b_buf: Option<&ComputeBuf>,
    c: &mut Tile,
    ws: &mut Workspace,
    parallel: bool,
) -> usize {
    let sp = obs::span_start();
    let simd = f16c::available();
    let converted = gemm_tile_ws_cached_inner(p, a, a_buf, b, b_buf, c, ws, parallel, simd);
    obs::span_end(sp, obs::EventKind::KernelGemm, obs::kernel_arg(p, c.rows()));
    converted
}

/// [`gemm_tile`] on the scalar shim path only, never the F16C fast paths:
/// the fallback on CPUs without F16C, and the oracle the fast paths are
/// tested against bit for bit.
pub fn reference_gemm_tile(p: Precision, a: &Tile, b: &Tile, c: &mut Tile) {
    with_thread_workspace(|ws| {
        gemm_tile_ws_cached_inner(p, a, None, b, None, c, ws, false, false);
    })
}

#[allow(clippy::too_many_arguments)]
fn gemm_tile_ws_cached_inner(
    p: Precision,
    a: &Tile,
    a_buf: Option<&ComputeBuf>,
    b: &Tile,
    b_buf: Option<&ComputeBuf>,
    c: &mut Tile,
    ws: &mut Workspace,
    parallel: bool,
    simd: bool,
) -> usize {
    let m = c.rows();
    let n = c.cols();
    let k = a.cols();
    assert_eq!(a.rows(), m);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), k);
    let mut converted = 0;
    match p {
        Precision::Fp64 => {
            let af: &[f64] = match a.as_f64_slice() {
                Some(s) => s,
                None => ws.a64.load(|v| a.read_f64_into(v)),
            };
            let bf: &[f64] = match b.as_f64_slice() {
                Some(s) => s,
                None => ws.b64.load(|v| b.read_f64_into(v)),
            };
            if let Some(cf) = c.as_mut_f64_slice() {
                blas::gemm_nt_f64_ws(af, bf, cf, m, n, k, &mut ws.bt64, parallel);
            } else {
                let cf = ws.c64.load(|v| c.read_f64_into(v));
                blas::gemm_nt_f64_ws(af, bf, cf, m, n, k, &mut ws.bt64, parallel);
                c.store_f64(cf);
            }
        }
        Precision::Fp16 if simd => {
            let af = ws.a32.load(|v| converted += f16_grid_into(a, a_buf, v));
            let bf = ws.b32.load(|v| converted += f16_grid_into(b, b_buf, v));
            let bp = ws
                .bt32
                .load(|v| blas::pack_b_panels::<f32, { blas::W32 }>(bf, n, k, v));
            let cf = ws.c32.load(|v| {
                f16_grid_into(c, None, v);
            });
            f16c::gemm_f16(af, bp, cf, m, n, k);
            c.write_f32(cf);
        }
        Precision::Fp16 => {
            let af: &[f16] = match a_buf {
                Some(ComputeBuf::F16(v)) if v.len() == m * k => v,
                _ => {
                    converted += 1;
                    ws.a16.load(|v| f16_into(a, v, false))
                }
            };
            let bf: &[f16] = match b_buf {
                Some(ComputeBuf::F16(v)) if v.len() == n * k => v,
                _ => {
                    converted += 1;
                    ws.b16.load(|v| f16_into(b, v, false))
                }
            };
            let cf = ws.c16.load(|v| f16_into(c, v, false));
            gemm_f16_core(af, bf, cf, m, n, k);
            let wide = ws.c64.load(|v| {
                v.clear();
                v.extend(cf.iter().map(|x| x.to_f64()));
            });
            c.store_f64(wide);
        }
        _ => {
            // FP32 / TF32 / FP16_32 / BF16_32: quantize inputs to the
            // format's grid, accumulate in f32.
            let af: &[f32] = match a_buf {
                Some(ComputeBuf::F32(v)) if v.len() == m * k => v,
                _ => {
                    converted += 1;
                    ws.a32.load(|v| quantize_into(p, a, v, simd))
                }
            };
            let bf: &[f32] = match b_buf {
                Some(ComputeBuf::F32(v)) if v.len() == n * k => v,
                _ => {
                    converted += 1;
                    ws.b32.load(|v| quantize_into(p, b, v, simd))
                }
            };
            let cf = ws.c32.load(|v| c.read_f32_into(v));
            blas::gemm_nt_f32_ws(af, bf, cf, m, n, k, &mut ws.bt32, parallel);
            c.write_f32(cf);
        }
    }
    converted
}

/// Pure-FP16 GEMM core on the scalar shim: binary16 inputs, binary16
/// multiply results, binary16 running accumulation — per-operation
/// rounding via `half::f16`. The fallback and oracle of [`f16c::gemm_f16`].
fn gemm_f16_core(af: &[f16], bf: &[f16], cf: &mut [f16], m: usize, n: usize, k: usize) {
    for (i, crow) in cf.chunks_mut(n).enumerate().take(m) {
        let ai = &af[i * k..(i + 1) * k];
        for (j, cij) in crow.iter_mut().enumerate() {
            let bj = &bf[j * k..(j + 1) * k];
            let mut acc = *cij;
            for (x, y) in ai.iter().zip(bj) {
                let prod = *x * *y; // f16 multiply (rounds to f16)
                acc = acc - prod; // f16 subtract (rounds to f16)
            }
            *cij = acc;
        }
    }
}

/// FP8 GEMM emulation (extension): inputs rounded through FP8 E4M3, FP32
/// accumulation — the H100 FP8 tensor-core mode, one precision rung below
/// the paper's FP16_32. `C ← C − A Bᵀ`.
pub fn gemm_tile_fp8(a: &Tile, b: &Tile, c: &mut Tile) {
    let m = c.rows();
    let n = c.cols();
    let k = a.cols();
    assert_eq!(a.rows(), m);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), k);
    with_thread_workspace(|ws| {
        let af = ws.a32.load(|v| {
            v.clear();
            v.extend(a.to_f64().iter().map(|&x| mixedp_fp::round_e4m3(x) as f32));
        });
        let bf = ws.b32.load(|v| {
            v.clear();
            v.extend(b.to_f64().iter().map(|&x| mixedp_fp::round_e4m3(x) as f32));
        });
        let cf = ws.c32.load(|v| c.read_f32_into(v));
        blas::gemm_nt_f32_ws(af, bf, cf, m, n, k, &mut ws.bt32, true);
        c.write_f32(cf);
    });
}

/// Flop count of each Algorithm 1 kernel on `nb × nb` tiles (standard dense
/// counts; used by the performance model and the Gflop/s reports).
pub fn kernel_flops(kind: KernelKind, nb: usize) -> f64 {
    let b = nb as f64;
    match kind {
        KernelKind::Potrf => b * b * b / 3.0,
        KernelKind::Trsm => b * b * b,
        KernelKind::Syrk => b * b * b,
        KernelKind::Gemm => 2.0 * b * b * b,
    }
}

/// The four kernel classes of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    Potrf,
    Trsm,
    Syrk,
    Gemm,
}

impl KernelKind {
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::Potrf => "POTRF",
            KernelKind::Trsm => "TRSM",
            KernelKind::Syrk => "SYRK",
            KernelKind::Gemm => "GEMM",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_fp::StoragePrecision as SP;

    fn spd_tile(n: usize) -> Tile {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            }
            d[i * n + i] += n as f64;
        }
        Tile::from_f64(n, n, &d, SP::F64)
    }

    fn rand_tile(m: usize, k: usize, seed: u64, storage: SP) -> Tile {
        // deterministic pseudo-random fill in [-1, 1]
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let d: Vec<f64> = (0..m * k)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect();
        Tile::from_f64(m, k, &d, storage)
    }

    #[test]
    fn potrf_tile_zeros_upper() {
        let mut t = spd_tile(8);
        potrf_tile(&mut t).unwrap();
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_eq!(t.get(i, j), 0.0);
            }
            assert!(t.get(i, i) > 0.0);
        }
    }

    #[test]
    fn potrf_tile_reduced_storage_roundtrips() {
        // staging path (non-F64 storage) must behave like the in-place one
        let mut t64 = spd_tile(8);
        let mut t32 = t64.converted_to(SP::F32);
        potrf_tile(&mut t64).unwrap();
        potrf_tile(&mut t32).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                assert!((t64.get(i, j) - t32.get(i, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gemm_precision_error_ladder() {
        // Relative error of reduced-precision GEMM vs FP64 must grow as the
        // format coarsens — the qualitative content of paper Fig 1.
        let (m, n, k) = (48, 48, 48);
        let a = rand_tile(m, k, 1, SP::F64);
        let b = rand_tile(n, k, 2, SP::F64);
        let exact = {
            let mut c = Tile::zeros(m, n, SP::F64);
            gemm_tile(Precision::Fp64, &a, &b, &mut c);
            c
        };
        let mut errs = Vec::new();
        for p in [
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16x32,
            Precision::Fp16,
        ] {
            let mut c = Tile::zeros(m, n, SP::F64);
            gemm_tile(p, &a, &b, &mut c);
            let e = crate::validate::gemm_relative_error(&c, &exact);
            errs.push((p, e));
        }
        assert!(errs[0].1 < 1e-6, "FP32 err {:?}", errs[0]);
        assert!(errs[1].1 > errs[0].1, "TF32 coarser than FP32: {errs:?}");
        assert!(errs[3].1 > errs[2].1, "FP16 coarser than FP16_32: {errs:?}");
        assert!(errs[3].1 < 0.2, "FP16 still correlated: {errs:?}");
    }

    #[test]
    fn fp16x32_matches_manual_emulation() {
        let (m, n, k) = (5, 4, 6);
        let a = rand_tile(m, k, 3, SP::F64);
        let b = rand_tile(n, k, 4, SP::F64);
        let mut c = Tile::zeros(m, n, SP::F64);
        gemm_tile(Precision::Fp16x32, &a, &b, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for t in 0..k {
                    let x = f16::from_f64(a.get(i, t)).to_f32();
                    let y = f16::from_f64(b.get(j, t)).to_f32();
                    acc += x * y;
                }
                assert_eq!(c.get(i, j), -(acc as f64), "({i},{j})");
            }
        }
    }

    #[test]
    fn cached_operands_are_bit_identical_to_local_quantization() {
        // STC contract: a GEMM fed producer-converted buffers matches the
        // locally-converting GEMM bit for bit, for every format class.
        let (m, n, k) = (12, 10, 8);
        for p in [
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16x32,
            Precision::Bf16x32,
            Precision::Fp16,
        ] {
            let a = rand_tile(m, k, 31, SP::F64);
            let b = rand_tile(n, k, 32, SP::F32);
            let c0 = rand_tile(m, n, 33, SP::F64);
            let ab = make_compute_buf(p, &a);
            let bb = make_compute_buf(p, &b);
            let mut ws = Workspace::new();

            let mut c_cached = c0.clone();
            let conv = gemm_tile_ws_cached(
                p,
                &a,
                Some(&ab),
                &b,
                Some(&bb),
                &mut c_cached,
                &mut ws,
                false,
            );
            assert_eq!(conv, 0, "{p:?}: cached operands must not reconvert");

            let mut c_local = c0.clone();
            let conv = gemm_tile_ws_cached(p, &a, None, &b, None, &mut c_local, &mut ws, false);
            assert_eq!(conv, 2, "{p:?}: uncached operands convert twice");

            assert_eq!(c_cached, c_local, "{p:?}: STC changed the result");
        }
    }

    #[test]
    fn gemm_ws_steady_state_is_allocation_free() {
        let (m, n, k) = (24, 24, 24);
        let a = rand_tile(m, k, 41, SP::F64);
        let b = rand_tile(n, k, 42, SP::F16);
        let mut ws = Workspace::new();
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            let mut c = rand_tile(m, n, 43, SP::F32);
            gemm_tile_ws(p, &a, &b, &mut c, &mut ws, false);
        }
        let warm = ws.grow_events();
        for _ in 0..5 {
            for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
                let mut c = rand_tile(m, n, 43, SP::F32);
                gemm_tile_ws(p, &a, &b, &mut c, &mut ws, false);
            }
        }
        assert_eq!(ws.grow_events(), warm, "warm workspace reallocated");
    }

    #[test]
    fn trsm_clamps_fp16_to_fp32() {
        assert_eq!(trsm_effective_precision(Precision::Fp16), Precision::Fp32);
        assert_eq!(
            trsm_effective_precision(Precision::Fp16x32),
            Precision::Fp32
        );
        assert_eq!(trsm_effective_precision(Precision::Fp64), Precision::Fp64);

        let mut l = spd_tile(6);
        potrf_tile(&mut l).unwrap();
        let b0 = rand_tile(4, 6, 9, SP::F64);
        let mut b16 = b0.clone();
        trsm_tile(Precision::Fp16, &l, &mut b16);
        let mut b32 = b0.clone();
        trsm_tile(Precision::Fp32, &l, &mut b32);
        // identical: FP16 TRSM *is* FP32 TRSM
        assert_eq!(b16.to_f64(), b32.to_f64());
    }

    #[test]
    fn trsm_tile_solves() {
        let n = 8;
        let mut l = spd_tile(n);
        potrf_tile(&mut l).unwrap();
        let x0 = rand_tile(3, n, 7, SP::F64);
        // b = x0 * L^T
        let mut b = Tile::zeros(3, n, SP::F64);
        for i in 0..3 {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..=j {
                    s += x0.get(i, t) * l.get(j, t);
                }
                b.set(i, j, s);
            }
        }
        trsm_tile(Precision::Fp64, &l, &mut b);
        for i in 0..3 {
            for j in 0..n {
                assert!((b.get(i, j) - x0.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn syrk_always_fp64_semantics() {
        let m = 6;
        let k = 5;
        let a = rand_tile(m, k, 11, SP::F64);
        let mut c = spd_tile(m);
        let c0 = c.clone();
        syrk_tile(&a, &mut c);
        for i in 0..m {
            for j in 0..=i {
                let mut s = 0.0;
                for t in 0..k {
                    s += a.get(i, t) * a.get(j, t);
                }
                assert!((c.get(i, j) - (c0.get(i, j) - s)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn flop_counts() {
        assert_eq!(kernel_flops(KernelKind::Gemm, 100) as u64, 2_000_000);
        assert_eq!(kernel_flops(KernelKind::Trsm, 100) as u64, 1_000_000);
        assert!(kernel_flops(KernelKind::Potrf, 100) < kernel_flops(KernelKind::Trsm, 100));
    }

    #[test]
    fn gemm_respects_c_storage_precision() {
        // C stored in F32: result must lie on the f32 grid
        let (m, n, k) = (4, 4, 4);
        let a = rand_tile(m, k, 20, SP::F64);
        let b = rand_tile(n, k, 21, SP::F64);
        let mut c = rand_tile(m, n, 22, SP::F32);
        gemm_tile(Precision::Fp32, &a, &b, &mut c);
        for v in c.to_f64() {
            assert_eq!(v as f32 as f64, v);
        }
    }

    #[test]
    fn compute_format_index_covers_all_reduced_formats() {
        let mut seen = [false; N_COMPUTE_FORMATS];
        for p in [
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16x32,
            Precision::Bf16x32,
            Precision::Fp16,
        ] {
            let i = compute_format_index(p).unwrap();
            assert!(!seen[i], "slot {i} reused");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(compute_format_index(Precision::Fp64), None);
    }
}
