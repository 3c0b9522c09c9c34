//! Dense kernels on raw row-major buffers.
//!
//! Shapes follow the tile Cholesky of Algorithm 1 (lower variant):
//!
//! * `potrf`: `A = L Lᵀ`, lower triangle in place.
//! * `trsm_rlt`: right-side, lower, transposed — `X Lᵀ = B`, in place on B.
//! * `syrk_ln`: `C ← C − A Aᵀ`, lower triangle only.
//! * `gemm_nt`: `C ← C − A Bᵀ` (the trailing-update `alpha = −1, beta = 1`
//!   form; general `alpha/beta` GEMM is [`gemm_full_f64`]).
//!
//! # Lane-wide data path
//!
//! GEMM and SYRK share one packed-B kernel: B is packed once per call into
//! k-major panels one 512-bit row wide (8 columns of f64, 16 of f32), and
//! each register block is up to 4 rows of A times one panel, `4 × W`
//! accumulators with one SIMD lane per column of C. SYRK is the same kernel
//! masked to the lower triangle. TRSM is row-lane: a group of rows of B is
//! transposed into a k-major scratch panel, so each lane runs one row's
//! forward substitution. Pack and transpose buffers come from the caller's
//! [`Workspace`] (`bt64` / `bt32`), so the steady state allocates nothing.
//!
//! **Bit-exactness contract.** For `k ≤ KC` the lane-wide kernels produce
//! results *bit-identical* to the naive row-dot `reference_*` kernels: each
//! output element sums its products in increasing `t` starting from `−0.0`
//! (where `Iterator::sum` starts, so signed zeros agree), and receives one
//! subtraction (TRSM: one subtraction, then one division) — the exact
//! operation sequence of the oracle, per lane. rustc never contracts to FMA,
//! so every lane rounds exactly as the scalar code does. Zero-padded edge
//! lanes are discarded before write-back. The k-block (`pc`) loop is
//! outermost, and the parallel path stripes whole rows of C (or B), which
//! keeps every per-element operation sequence unchanged. Tile kernels
//! always have `k = nb ≤ KC`, so mixed-precision factorizations are
//! reproducible serial-vs-parallel and lane-wide-vs-reference.
//!
//! Every large kernel has a `*_p` variant with an explicit `parallel: bool`;
//! the scheduler passes `false` when it already runs tasks on several
//! workers, which avoids nested-parallelism oversubscription. The legacy
//! names keep the old auto-threshold behaviour. The public GEMM/SYRK/TRSM
//! entry points stage through this thread's workspace; the tile kernels of
//! [`crate::mp`] pass their worker's buffers to the `*_ws` forms.

use crate::workspace::{with_thread_workspace, TrackedBuf, Workspace};
use rayon::prelude::*;

/// Error: the matrix was not (numerically) symmetric positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotSpd {
    /// Column at which a non-positive pivot appeared.
    pub column: usize,
}

impl std::fmt::Display for NotSpd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix not positive definite at column {}", self.column)
    }
}

impl std::error::Error for NotSpd {}

/// Minimum row count before a kernel bothers spawning rayon tasks.
const PAR_THRESHOLD: usize = 64;

/// k-depth of one k-block; also the bit-exactness horizon (see module
/// docs): `k ≤ KC` runs in a single k-block.
pub const KC: usize = 256;
/// Rows of A per register block.
const MR: usize = 4;
/// Lanes of an f64 panel: one 512-bit row of eight columns.
pub(crate) const W64: usize = 8;
/// Lanes of an f32 panel: one 512-bit row of sixteen columns.
pub(crate) const W32: usize = 16;

/// The element arithmetic of the lane-wide kernels (`f64` and `f32`).
pub(crate) trait Elem:
    Copy
    + Default
    + Send
    + Sync
    + core::ops::Mul<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Div<Output = Self>
    + core::ops::AddAssign
    + core::ops::SubAssign
{
    /// The start of every sum: `Iterator::sum` folds from `−0.0`, so an
    /// all-`−0.0` dot product stays `−0.0`.
    const NEG_ZERO: Self;
}

impl Elem for f64 {
    const NEG_ZERO: Self = -0.0;
}

impl Elem for f32 {
    const NEG_ZERO: Self = -0.0;
}

/// Pack `b` (`n × k`, row-major) into `W`-wide k-major panels: panel `p`
/// holds columns `p·W .. p·W+W` of `Bᵀ` as `k` contiguous `W`-wide rows,
/// zero-padded past `n`. The layout every lane-wide GEMM reads, the F16C
/// pure-FP16 one included.
pub(crate) fn pack_b_panels<T: Copy + Default, const W: usize>(
    b: &[T],
    n: usize,
    k: usize,
    out: &mut Vec<T>,
) {
    assert_eq!(b.len(), n * k);
    out.clear();
    out.resize(n.div_ceil(W) * k * W, T::default());
    for (j, row) in b.chunks_exact(k.max(1)).take(n).enumerate() {
        let panel = &mut out[(j / W) * k * W..][..k * W];
        for (t, &x) in row.iter().enumerate() {
            panel[t * W + j % W] = x;
        }
    }
}

/// `R` rows of A (k-range `pc .. pc+kc`, `kc = panel.len() / W`) times one
/// packed panel: `R × W` accumulators, each summing its products in
/// increasing `t` from `−0.0` — the operation sequence of the row-dot
/// oracle, one SIMD lane per column. Kept out of line: inlined into its
/// caller, LLVM's SLP vectorizer leaves the 4-row f32 block scalar.
#[inline(never)]
fn block<T: Elem, const W: usize, const R: usize>(
    a: &[T],
    k: usize,
    i0: usize,
    pc: usize,
    panel: &[T],
) -> [[T; W]; R] {
    let kc = panel.len() / W;
    let rows: [&[T]; R] = std::array::from_fn(|r| &a[(i0 + r) * k + pc..][..kc]);
    let mut acc = [[T::NEG_ZERO; W]; R];
    for (t, bt) in panel.as_chunks::<W>().0.iter().enumerate() {
        for (accr, row) in acc.iter_mut().zip(&rows) {
            let x = row[t];
            for (s, &y) in accr.iter_mut().zip(bt) {
                *s += x * y;
            }
        }
    }
    acc
}

/// Rows `i0 .. i0+R` of an `m`-row stripe of `C ← C − A Bᵀ` against every
/// packed panel, for the k-block at `pc`. With `lower = Some(row0)` (SYRK;
/// `row0` is the stripe's first row of C) only `j ≤ row0 + i` is written and
/// panels wholly above the diagonal are skipped.
#[allow(clippy::too_many_arguments)]
fn rows_x_panels<T: Elem, const W: usize, const R: usize>(
    a: &[T],
    bp: &[T],
    c: &mut [T],
    i0: usize,
    n: usize,
    k: usize,
    pc: usize,
    kc: usize,
    lower: Option<usize>,
) {
    for (p, panel) in bp.chunks_exact(k * W).enumerate() {
        let j0 = p * W;
        if lower.is_some_and(|row0| j0 >= row0 + i0 + R) {
            break;
        }
        let acc = block::<T, W, R>(a, k, i0, pc, &panel[pc * W..(pc + kc) * W]);
        let w = W.min(n - j0);
        for (r, accr) in acc.iter().enumerate() {
            let cols = match lower {
                Some(row0) => (row0 + i0 + r + 1).saturating_sub(j0).min(w),
                None => w,
            };
            let crow = &mut c[(i0 + r) * n + j0..][..cols];
            for (cij, &s) in crow.iter_mut().zip(accr) {
                *cij -= s;
            }
        }
    }
}

/// Serial lane-wide core of `C ← C − A Bᵀ` on an `m`-row stripe: `a` holds
/// the stripe's rows of A (`m × k`), `bp` all of B packed by
/// [`pack_b_panels`]. The k-block loop is outermost, so every element of C
/// receives one subtraction per k-block.
fn gemm_packed<T: Elem, const W: usize>(
    a: &[T],
    bp: &[T],
    c: &mut [T],
    m: usize,
    n: usize,
    k: usize,
    lower: Option<usize>,
) {
    let mut pc = 0;
    while pc < k {
        let kc = (k - pc).min(KC);
        let mut i = 0;
        while i < m {
            let f = match m - i {
                1 => rows_x_panels::<T, W, 1>,
                2 => rows_x_panels::<T, W, 2>,
                3 => rows_x_panels::<T, W, 3>,
                _ => rows_x_panels::<T, W, MR>,
            };
            f(a, bp, c, i, n, k, pc, kc, lower);
            i += MR;
        }
        pc += KC;
    }
}

/// `C ← C − A Bᵀ` (or its lower triangle, for SYRK) with B packed once into
/// `bt`. The parallel path stripes rows of C (and the matching rows of A)
/// across threads over the one packed B; each stripe runs the serial core,
/// so results are bit-equal to the `parallel = false` path.
#[allow(clippy::too_many_arguments)]
fn gemm_nt<T: Elem, const W: usize>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    n: usize,
    k: usize,
    syrk: bool,
    bt: &mut TrackedBuf<T>,
    parallel: bool,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let bp: &[T] = bt.load(|v| pack_b_panels::<T, W>(b, n, k, v));
    let lower = |row0: usize| syrk.then_some(row0);
    if parallel && m >= PAR_THRESHOLD {
        let nthr = rayon::current_num_threads().max(1);
        let rows = m.div_ceil(nthr).max(MR);
        c.par_chunks_mut(rows * n).enumerate().for_each(|(s, cs)| {
            let i0 = s * rows;
            let ms = cs.len() / n;
            gemm_packed::<T, W>(&a[i0 * k..(i0 + ms) * k], bp, cs, ms, n, k, lower(i0));
        });
    } else {
        gemm_packed::<T, W>(a, bp, c, m, n, k, lower(0));
    }
}

/// `C ← C − A Bᵀ` with `A: m × k`, `B: n × k`, `C: m × n` (f64), lane-wide,
/// with an explicit `parallel` switch. Packs B into this thread's workspace.
pub fn gemm_nt_f64_p(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    parallel: bool,
) {
    with_thread_workspace(|ws| gemm_nt_f64_ws(a, b, c, m, n, k, &mut ws.bt64, parallel));
}

/// [`gemm_nt_f64_p`] packing B into a caller-owned buffer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_nt_f64_ws(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    bt: &mut TrackedBuf<f64>,
    parallel: bool,
) {
    gemm_nt::<f64, W64>(a, b, c, m, n, k, false, bt, parallel);
}

/// `C ← C − A Bᵀ` (f64). Legacy auto-threshold entry point.
pub fn gemm_nt_f64(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    gemm_nt_f64_p(a, b, c, m, n, k, m >= PAR_THRESHOLD);
}

/// `C ← C − A Bᵀ` in f32 arithmetic (FP32 accumulation — also the compute
/// path for TF32 / FP16_32 / BF16_32 after their input quantization), with
/// an explicit `parallel` switch. Packs B into this thread's workspace.
pub fn gemm_nt_f32_p(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    parallel: bool,
) {
    with_thread_workspace(|ws| gemm_nt_f32_ws(a, b, c, m, n, k, &mut ws.bt32, parallel));
}

/// [`gemm_nt_f32_p`] packing B into a caller-owned buffer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_nt_f32_ws(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    bt: &mut TrackedBuf<f32>,
    parallel: bool,
) {
    gemm_nt::<f32, W32>(a, b, c, m, n, k, false, bt, parallel);
}

/// `C ← C − A Bᵀ` (f32). Legacy auto-threshold entry point.
pub fn gemm_nt_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    gemm_nt_f32_p(a, b, c, m, n, k, m >= PAR_THRESHOLD);
}

/// Naive row-dot `C ← C − A Bᵀ` (f64): the sequential oracle the lane-wide
/// kernel is tested (bit-exactly, for `k ≤ KC`) and benchmarked against.
pub fn reference_gemm_nt_f64(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    for (i, crow) in c.chunks_mut(n).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for (j, cij) in crow.iter_mut().enumerate() {
            let bj = &b[j * k..(j + 1) * k];
            let s: f64 = ai.iter().zip(bj).map(|(x, y)| x * y).sum();
            *cij -= s;
        }
    }
}

/// Naive row-dot `C ← C − A Bᵀ` (f32) oracle.
pub fn reference_gemm_nt_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    for (i, crow) in c.chunks_mut(n).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for (j, cij) in crow.iter_mut().enumerate() {
            let bj = &b[j * k..(j + 1) * k];
            let s: f32 = ai.iter().zip(bj).map(|(x, y)| x * y).sum();
            *cij -= s;
        }
    }
}

/// `C ← C − A Aᵀ` on the lower triangle of the `m × m` matrix `C`,
/// with `A` an `m × k` panel: the GEMM kernel masked to `j ≤ i`, with
/// explicit parallelism control. Packs A into this thread's workspace.
pub fn syrk_ln_f64_p(a: &[f64], m: usize, k: usize, c: &mut [f64], parallel: bool) {
    with_thread_workspace(|ws| syrk_ln_f64_ws(a, m, k, c, &mut ws.bt64, parallel));
}

/// [`syrk_ln_f64_p`] packing A into a caller-owned buffer.
pub(crate) fn syrk_ln_f64_ws(
    a: &[f64],
    m: usize,
    k: usize,
    c: &mut [f64],
    bt: &mut TrackedBuf<f64>,
    parallel: bool,
) {
    gemm_nt::<f64, W64>(a, a, c, m, m, k, true, bt, parallel);
}

/// `C ← C − A Aᵀ` (lower). Legacy auto-threshold entry point.
pub fn syrk_ln_f64(a: &[f64], m: usize, k: usize, c: &mut [f64]) {
    syrk_ln_f64_p(a, m, k, c, m >= PAR_THRESHOLD);
}

/// Naive row-dot SYRK oracle (sequential).
pub fn reference_syrk_ln_f64(a: &[f64], m: usize, k: usize, c: &mut [f64]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(c.len(), m * m);
    for (i, crow) in c.chunks_mut(m).enumerate() {
        let ai = &a[i * k..(i + 1) * k];
        for j in 0..=i {
            let aj = &a[j * k..(j + 1) * k];
            let s: f64 = ai.iter().zip(aj).map(|(x, y)| x * y).sum();
            crow[j] -= s;
        }
    }
}

/// Unblocked lower Cholesky in place on a row-major `n × n` buffer, with
/// explicit parallelism control for the trailing row updates.
/// On success the lower triangle holds `L`; the strict upper triangle is
/// left untouched.
pub fn potrf_f64_p(a: &mut [f64], n: usize, parallel: bool) -> Result<(), NotSpd> {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j * n + j];
        for t in 0..j {
            d -= a[j * n + t] * a[j * n + t];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotSpd { column: j });
        }
        let l = d.sqrt();
        a[j * n + j] = l;
        // Split so row j (read-only) and rows j+1.. (written) don't alias.
        let (head, tail) = a.split_at_mut((j + 1) * n);
        let row_j = &head[j * n..j * n + j];
        let update = |chunk: &mut [f64]| {
            let s: f64 = chunk[..j].iter().zip(row_j).map(|(x, y)| x * y).sum();
            chunk[j] = (chunk[j] - s) / l;
        };
        if parallel && n - j > PAR_THRESHOLD {
            tail.par_chunks_mut(n).for_each(update);
        } else {
            tail.chunks_mut(n).for_each(update);
        }
    }
    Ok(())
}

/// Unblocked lower Cholesky. Legacy auto-threshold entry point.
pub fn potrf_f64(a: &mut [f64], n: usize) -> Result<(), NotSpd> {
    potrf_f64_p(a, n, true)
}

/// Sequential unblocked Cholesky oracle.
pub fn reference_potrf_f64(a: &mut [f64], n: usize) -> Result<(), NotSpd> {
    potrf_f64_p(a, n, false)
}

/// Lower Cholesky in f32 arithmetic (used by FP32-mode tiles).
pub fn potrf_f32(a: &mut [f32], n: usize) -> Result<(), NotSpd> {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j * n + j];
        for t in 0..j {
            d -= a[j * n + t] * a[j * n + t];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotSpd { column: j });
        }
        let l = d.sqrt();
        a[j * n + j] = l;
        for i in (j + 1)..n {
            let s: f32 = a[i * n..i * n + j]
                .iter()
                .zip(&a[j * n..j * n + j])
                .map(|(x, y)| x * y)
                .sum();
            a[i * n + j] = (a[i * n + j] - s) / l;
        }
    }
    Ok(())
}

/// Rows of B one f64 row-lane TRSM pass solves together: two lane vectors
/// of independent chains, whose `n × 16` scratch stays in L1 at `n = 256`.
const P64: usize = 2 * W64;
/// Rows of B per f32 row-lane TRSM pass.
const P32: usize = 2 * W32;

/// Row-lane forward substitution for `X Lᵀ = B` on up to `P`-row groups of
/// `b`: each group is transposed into the k-major scratch `xs` (`P × n`), so
/// lane `r` solves row `r` as `x_j = (b_j − Σ_{t<j} L_jt·x_t) / L_jj`, the
/// sum taken in increasing `t` from `−0.0` — the row-dot oracle's operation
/// sequence.
fn trsm_lanes<T: Elem, const P: usize>(l: &[T], n: usize, b: &mut [T], xs: &mut [T]) {
    assert_eq!(xs.len(), P * n);
    for grp in b.chunks_mut(P * n) {
        if grp.len() < P * n {
            xs.fill(T::default());
        }
        for (r, row) in grp.chunks_exact(n).enumerate() {
            for (x, &v) in xs.chunks_exact_mut(P).zip(row) {
                x[r] = v;
            }
        }
        for j in 0..n {
            let (done, rest) = xs.as_chunks_mut::<P>().0.split_at_mut(j);
            let xj = &mut rest[0];
            let mut acc = [T::NEG_ZERO; P];
            for (&ljt, xt) in l[j * n..j * n + j].iter().zip(done.iter()) {
                for (s, &x) in acc.iter_mut().zip(xt) {
                    *s += ljt * x;
                }
            }
            let d = l[j * n + j];
            for (x, &s) in xj.iter_mut().zip(&acc) {
                *x = (*x - s) / d;
            }
        }
        for (r, row) in grp.chunks_exact_mut(n).enumerate() {
            for (v, x) in row.iter_mut().zip(xs.chunks_exact(P)) {
                *v = x[r];
            }
        }
    }
}

/// Solve `X Lᵀ = B` in place on `B` (`m × n`), `l` the lower-triangular
/// `n × n` factor, with `xs` as the transpose scratch. The parallel path
/// stripes whole row groups across threads, each with its own slice of
/// scratch, so results are bit-equal to the serial path.
fn trsm_rlt<T: Elem, const P: usize>(
    l: &[T],
    n: usize,
    b: &mut [T],
    m: usize,
    xs: &mut TrackedBuf<T>,
    parallel: bool,
) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if parallel && m >= PAR_THRESHOLD {
        let nthr = rayon::current_num_threads().max(1);
        let rows = m.div_ceil(nthr).next_multiple_of(P);
        let xs = xs.prep(m.div_ceil(rows) * P * n);
        let stripes: Vec<_> = b.chunks_mut(rows * n).zip(xs.chunks_mut(P * n)).collect();
        stripes
            .into_par_iter()
            .for_each(|(bs, x)| trsm_lanes::<T, P>(l, n, bs, x));
    } else {
        trsm_lanes::<T, P>(l, n, b, xs.prep(P * n));
    }
}

/// Solve `X Lᵀ = B` in place on `B` (`m × n`), with `l` the lower-triangular
/// `n × n` factor; explicit parallelism control. Row-lane: one SIMD lane per
/// row of B. Transposes through this thread's workspace.
pub fn trsm_rlt_f64_p(l: &[f64], n: usize, b: &mut [f64], m: usize, parallel: bool) {
    with_thread_workspace(|ws| trsm_rlt_f64_ws(l, n, b, m, &mut ws.bt64, parallel));
}

/// [`trsm_rlt_f64_p`] transposing through a caller-owned buffer.
pub(crate) fn trsm_rlt_f64_ws(
    l: &[f64],
    n: usize,
    b: &mut [f64],
    m: usize,
    xs: &mut TrackedBuf<f64>,
    parallel: bool,
) {
    trsm_rlt::<f64, P64>(l, n, b, m, xs, parallel);
}

/// Solve `X Lᵀ = B` in place on `B`. Legacy auto-threshold entry point.
pub fn trsm_rlt_f64(l: &[f64], n: usize, b: &mut [f64], m: usize) {
    trsm_rlt_f64_p(l, n, b, m, true)
}

/// f32 variant of [`trsm_rlt_f64_p`].
pub fn trsm_rlt_f32_p(l: &[f32], n: usize, b: &mut [f32], m: usize, parallel: bool) {
    with_thread_workspace(|ws| trsm_rlt_f32_ws(l, n, b, m, &mut ws.bt32, parallel));
}

/// [`trsm_rlt_f32_p`] transposing through a caller-owned buffer.
pub(crate) fn trsm_rlt_f32_ws(
    l: &[f32],
    n: usize,
    b: &mut [f32],
    m: usize,
    xs: &mut TrackedBuf<f32>,
    parallel: bool,
) {
    trsm_rlt::<f32, P32>(l, n, b, m, xs, parallel);
}

/// f32 variant of [`trsm_rlt_f64`].
pub fn trsm_rlt_f32(l: &[f32], n: usize, b: &mut [f32], m: usize) {
    trsm_rlt_f32_p(l, n, b, m, true)
}

/// Row-dot `X Lᵀ = B` (f64): the sequential oracle the row-lane TRSM is
/// tested against bit for bit. Each row of B is an independent forward
/// substitution.
pub fn reference_trsm_rlt_f64(l: &[f64], n: usize, b: &mut [f64], m: usize) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), m * n);
    for row in b.chunks_mut(n) {
        for j in 0..n {
            let s: f64 = l[j * n..j * n + j]
                .iter()
                .zip(row.iter())
                .map(|(lj, x)| lj * x)
                .sum();
            row[j] = (row[j] - s) / l[j * n + j];
        }
    }
}

/// Row-dot `X Lᵀ = B` (f32) oracle.
pub fn reference_trsm_rlt_f32(l: &[f32], n: usize, b: &mut [f32], m: usize) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), m * n);
    for row in b.chunks_mut(n) {
        for j in 0..n {
            let s: f32 = l[j * n..j * n + j]
                .iter()
                .zip(row.iter())
                .map(|(lj, x)| lj * x)
                .sum();
            row[j] = (row[j] - s) / l[j * n + j];
        }
    }
}

/// General `C ← alpha · A Bᵀ + beta · C` in f64 (used by the standalone GEMM
/// benchmark of paper §IV), with explicit parallelism control.
#[allow(clippy::too_many_arguments)]
pub fn gemm_full_f64_p(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    parallel: bool,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    let body = |(i, crow): (usize, &mut [f64])| {
        let ai = &a[i * k..(i + 1) * k];
        for (j, cij) in crow.iter_mut().enumerate() {
            let bj = &b[j * k..(j + 1) * k];
            let s: f64 = ai.iter().zip(bj).map(|(x, y)| x * y).sum();
            *cij = alpha * s + beta * *cij;
        }
    };
    if parallel && m >= PAR_THRESHOLD {
        c.par_chunks_mut(n).enumerate().for_each(body);
    } else {
        c.chunks_mut(n).enumerate().for_each(body);
    }
}

/// General `C ← alpha · A Bᵀ + beta · C`. Legacy auto-threshold entry point.
#[allow(clippy::too_many_arguments)]
pub fn gemm_full_f64(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    gemm_full_f64_p(alpha, a, b, beta, c, m, n, k, true)
}

/// Full lower Cholesky of a dense row-major `n × n` matrix in place
/// (reference path: FP64 throughout). Uses the blocked algorithm above a
/// size threshold — same kernels as the tile factorization, better cache
/// behaviour than the unblocked loop.
pub fn cholesky_in_place(a: &mut [f64], n: usize) -> Result<(), NotSpd> {
    if n <= 128 {
        potrf_f64(a, n)
    } else {
        potrf_blocked_f64(a, n, 64)
    }
}

/// Blocked right-looking lower Cholesky on a dense row-major buffer:
/// the dense-level mirror of Algorithm 1 (POTRF/TRSM/SYRK/GEMM on
/// `nb`-sized panels). Stages blocks through this thread's [`Workspace`].
pub fn potrf_blocked_f64(a: &mut [f64], n: usize, nb: usize) -> Result<(), NotSpd> {
    with_thread_workspace(|ws| potrf_blocked_f64_ws(a, n, nb, ws, true))
}

/// [`potrf_blocked_f64`] on a caller-owned workspace with explicit
/// parallelism control. After the first factorization of a given shape the
/// workspace is warm and the whole routine performs zero heap allocations.
pub fn potrf_blocked_f64_ws(
    a: &mut [f64],
    n: usize,
    nb: usize,
    ws: &mut Workspace,
    parallel: bool,
) -> Result<(), NotSpd> {
    assert_eq!(a.len(), n * n);
    assert!(nb > 0);
    fn read_block(v: &mut Vec<f64>, a: &[f64], n: usize, i0: usize, j0: usize, r: usize, c: usize) {
        v.clear();
        for i in 0..r {
            v.extend_from_slice(&a[(i0 + i) * n + j0..(i0 + i) * n + j0 + c]);
        }
    }
    fn write_block(a: &mut [f64], b: &[f64], n: usize, i0: usize, j0: usize, r: usize, c: usize) {
        for i in 0..r {
            a[(i0 + i) * n + j0..(i0 + i) * n + j0 + c].copy_from_slice(&b[i * c..(i + 1) * c]);
        }
    }
    let nt = n.div_ceil(nb);
    let dim = |t: usize| (n - t * nb).min(nb);
    for k in 0..nt {
        let dk = dim(k);
        let lkk = ws.p64.load(|v| read_block(v, a, n, k * nb, k * nb, dk, dk));
        potrf_f64_p(lkk, dk, parallel).map_err(|e| NotSpd {
            column: k * nb + e.column,
        })?;
        // zero the strict upper of the diagonal block
        for i in 0..dk {
            for j in (i + 1)..dk {
                lkk[i * dk + j] = 0.0;
            }
        }
        write_block(a, lkk, n, k * nb, k * nb, dk, dk);
        for m in (k + 1)..nt {
            let dm = dim(m);
            let bmk = ws.c64.load(|v| read_block(v, a, n, m * nb, k * nb, dm, dk));
            trsm_rlt_f64_ws(lkk, dk, bmk, dm, &mut ws.bt64, parallel);
            write_block(a, bmk, n, m * nb, k * nb, dm, dk);
        }
        for m in (k + 1)..nt {
            let dm = dim(m);
            let amk = ws.a64.load(|v| read_block(v, a, n, m * nb, k * nb, dm, dk));
            let cmm = ws.c64.load(|v| read_block(v, a, n, m * nb, m * nb, dm, dm));
            syrk_ln_f64_ws(amk, dm, dk, cmm, &mut ws.bt64, parallel);
            write_block(a, cmm, n, m * nb, m * nb, dm, dm);
            for t in (k + 1)..m {
                let dt = dim(t);
                let atk = ws.b64.load(|v| read_block(v, a, n, t * nb, k * nb, dt, dk));
                let cmt = ws.c64.load(|v| read_block(v, a, n, m * nb, t * nb, dm, dt));
                gemm_nt_f64_ws(amk, atk, cmt, dm, dt, dk, &mut ws.bt64, parallel);
                write_block(a, cmt, n, m * nb, t * nb, dm, dt);
            }
        }
    }
    Ok(())
}

/// Solve `L y = b` in place on `b`, with `l` lower-triangular `n × n`
/// row-major (forward substitution).
pub fn forward_solve_in_place(l: &[f64], n: usize, b: &mut [f64]) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), n);
    for i in 0..n {
        let s: f64 = l[i * n..i * n + i]
            .iter()
            .zip(b.iter())
            .map(|(x, y)| x * y)
            .sum();
        b[i] = (b[i] - s) / l[i * n + i];
    }
}

/// Solve `Lᵀ x = b` in place on `b` (backward substitution).
pub fn backward_solve_trans_in_place(l: &[f64], n: usize, b: &mut [f64]) {
    assert_eq!(l.len(), n * n);
    assert_eq!(b.len(), n);
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= l[j * n + i] * b[j];
        }
        b[i] = s / l[i * n + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Vec<f64> {
        // diagonally dominant symmetric => SPD
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            }
            a[i * n + i] += n as f64;
        }
        a
    }

    fn reconstruct(l: &[f64], n: usize) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..=i.min(j) {
                    s += l[i * n + t] * l[j * n + t];
                }
                a[i * n + j] = s;
            }
        }
        a
    }

    #[test]
    fn potrf_reconstructs() {
        let n = 17;
        let a0 = spd(n);
        let mut a = a0.clone();
        potrf_f64(&mut a, n).unwrap();
        // zero strict upper for reconstruction
        let mut l = a.clone();
        for i in 0..n {
            for j in (i + 1)..n {
                l[i * n + j] = 0.0;
            }
        }
        let r = reconstruct(&l, n);
        for (x, y) in r.iter().zip(&a0) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let n = 3;
        let mut a = vec![1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(potrf_f64(&mut a, n), Err(NotSpd { column: 1 }));
    }

    #[test]
    fn potrf_f32_agrees_with_f64_loosely() {
        let n = 12;
        let a0 = spd(n);
        let mut a64 = a0.clone();
        potrf_f64(&mut a64, n).unwrap();
        let mut a32: Vec<f32> = a0.iter().map(|&x| x as f32).collect();
        potrf_f32(&mut a32, n).unwrap();
        for i in 0..n {
            for j in 0..=i {
                let d = (a64[i * n + j] - a32[i * n + j] as f64).abs();
                assert!(d < 1e-4 * a64[j * n + j].abs().max(1.0), "({i},{j})");
            }
        }
    }

    #[test]
    fn trsm_solves() {
        let n = 8;
        let m = 5;
        let mut l = spd(n);
        potrf_f64(&mut l, n).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                l[i * n + j] = 0.0;
            }
        }
        // B = X0 * L^T for known X0; solve must recover X0
        let x0: Vec<f64> = (0..m * n).map(|t| ((t * 13 % 7) as f64) - 3.0).collect();
        let mut b = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..n {
                    s += x0[i * n + t] * l[j * n + t]; // (L^T)[t][j] = L[j][t]
                }
                b[i * n + j] = s;
            }
        }
        trsm_rlt_f64(&l, n, &mut b, m);
        for (x, y) in b.iter().zip(&x0) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn syrk_matches_gemm_on_lower() {
        let m = 6;
        let k = 4;
        let a: Vec<f64> = (0..m * k).map(|t| (t as f64) * 0.31 - 2.0).collect();
        let c0: Vec<f64> = (0..m * m).map(|t| (t as f64) * 0.05).collect();
        let mut c_syrk = c0.clone();
        syrk_ln_f64(&a, m, k, &mut c_syrk);
        let mut c_gemm = c0.clone();
        gemm_nt_f64(&a, &a, &mut c_gemm, m, m, k);
        for i in 0..m {
            for j in 0..=i {
                assert!((c_syrk[i * m + j] - c_gemm[i * m + j]).abs() < 1e-12);
            }
        }
        // upper triangle untouched by syrk
        for i in 0..m {
            for j in (i + 1)..m {
                assert_eq!(c_syrk[i * m + j], c0[i * m + j]);
            }
        }
    }

    #[test]
    fn gemm_small_known() {
        // A = [[1,2]], B = [[3,4]] => A B^T = [[11]]
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let mut c = vec![100.0];
        gemm_nt_f64(&a, &b, &mut c, 1, 1, 2);
        assert_eq!(c[0], 89.0);
        let mut c2 = vec![100.0];
        gemm_full_f64(2.0, &a, &b, 0.5, &mut c2, 1, 1, 2);
        assert_eq!(c2[0], 72.0);
    }

    #[test]
    fn solves_roundtrip() {
        let n = 10;
        let mut l = spd(n);
        potrf_f64(&mut l, n).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| (i as f64) - 4.5).collect();
        // b = L x0
        let mut b = vec![0.0; n];
        for i in 0..n {
            for t in 0..=i {
                b[i] += l[i * n + t] * x0[t];
            }
        }
        forward_solve_in_place(&l, n, &mut b);
        for (x, y) in b.iter().zip(&x0) {
            assert!((x - y).abs() < 1e-10);
        }
        // and L^T path
        let mut b2 = vec![0.0; n];
        for i in 0..n {
            for j in i..n {
                b2[i] += l[j * n + i] * x0[j];
            }
        }
        backward_solve_trans_in_place(&l, n, &mut b2);
        for (x, y) in b2.iter().zip(&x0) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn blocked_cholesky_matches_unblocked() {
        for n in [8usize, 33, 96, 130] {
            let a0 = spd(n);
            let mut plain = a0.clone();
            potrf_f64(&mut plain, n).unwrap();
            let mut blocked = a0.clone();
            potrf_blocked_f64(&mut blocked, n, 24).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    let d = (plain[i * n + j] - blocked[i * n + j]).abs();
                    assert!(d < 1e-11, "n={n} ({i},{j}): {d}");
                }
            }
        }
    }

    #[test]
    fn blocked_cholesky_reports_global_failure_column() {
        // indefinite in the second block
        let n = 40;
        let mut a = spd(n);
        a[30 * n + 30] = -100.0;
        let err = potrf_blocked_f64(&mut a, n, 16).unwrap_err();
        assert_eq!(err.column, 30);
    }

    #[test]
    fn blocked_cholesky_steady_state_is_allocation_free() {
        let n = 96;
        let a0 = spd(n);
        let mut ws = Workspace::new();
        let mut a = a0.clone();
        potrf_blocked_f64_ws(&mut a, n, 24, &mut ws, false).unwrap();
        let warm = ws.grow_events();
        assert!(warm > 0, "first run must populate the workspace");
        for _ in 0..3 {
            let mut a = a0.clone();
            potrf_blocked_f64_ws(&mut a, n, 24, &mut ws, false).unwrap();
        }
        assert_eq!(ws.grow_events(), warm, "warm workspace reallocated");
    }

    #[test]
    fn parallel_threshold_paths_agree() {
        // exercise the rayon path (m >= 64) against the serial one
        let (m, n, k) = (80, 16, 24);
        let a: Vec<f64> = (0..m * k).map(|t| ((t * 29 % 17) as f64) * 0.1).collect();
        let b: Vec<f64> = (0..n * k).map(|t| ((t * 31 % 13) as f64) * 0.2).collect();
        let mut c1 = vec![1.0; m * n];
        gemm_nt_f64(&a, &b, &mut c1, m, n, k);
        // serial reference
        let mut c2 = vec![1.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..k {
                    s += a[i * k + t] * b[j * k + t];
                }
                c2[i * n + j] -= s;
            }
        }
        assert_eq!(c1, c2);
    }

    fn pseudo(len: usize, mul: usize, md: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|t| ((t * mul % md) as f64) * scale - 1.0)
            .collect()
    }

    #[test]
    fn blocked_gemm_bit_matches_reference_at_odd_shapes() {
        // every combination of interior/edge micro-tiles and cache blocks
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 4, 4),
            (5, 9, 3),
            (17, 13, 29),
            (33, 31, 65),
            (64, 64, 64),
            (70, 130, 80),
        ] {
            let a = pseudo(m * k, 29, 17, 0.1);
            let b = pseudo(n * k, 31, 13, 0.2);
            let c0 = pseudo(m * n, 7, 11, 0.3);
            let mut c_blk = c0.clone();
            gemm_nt_f64_p(&a, &b, &mut c_blk, m, n, k, false);
            let mut c_ref = c0.clone();
            reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
            assert_eq!(c_blk, c_ref, "shape ({m},{n},{k})");
        }
    }

    #[test]
    fn blocked_gemm_f32_bit_matches_reference() {
        let (m, n, k) = (19, 23, 31);
        let a: Vec<f32> = (0..m * k)
            .map(|t| ((t * 29 % 17) as f32) * 0.1 - 1.0)
            .collect();
        let b: Vec<f32> = (0..n * k)
            .map(|t| ((t * 31 % 13) as f32) * 0.2 - 1.0)
            .collect();
        let c0: Vec<f32> = (0..m * n).map(|t| ((t * 7 % 11) as f32) * 0.3).collect();
        let mut c_blk = c0.clone();
        gemm_nt_f32_p(&a, &b, &mut c_blk, m, n, k, false);
        let mut c_ref = c0;
        reference_gemm_nt_f32(&a, &b, &mut c_ref, m, n, k);
        assert_eq!(c_blk, c_ref);
    }

    #[test]
    fn blocked_gemm_multiblock_k_stays_accurate() {
        // k > KC splits the accumulation; no longer bit-equal, but the
        // result must agree to f64 roundoff.
        let (m, n, k) = (8, 8, 2 * KC + 57);
        let a = pseudo(m * k, 29, 97, 0.01);
        let b = pseudo(n * k, 31, 89, 0.02);
        let c0 = pseudo(m * n, 7, 11, 0.3);
        let mut c_blk = c0.clone();
        gemm_nt_f64_p(&a, &b, &mut c_blk, m, n, k, false);
        let mut c_ref = c0;
        reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
        for (x, y) in c_blk.iter().zip(&c_ref) {
            assert!((x - y).abs() <= 1e-12 * y.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_syrk_bit_matches_reference_and_masks_upper() {
        for &(m, k) in &[
            (1usize, 1usize),
            (3, 5),
            (4, 4),
            (7, 9),
            (18, 6),
            (33, 16),
            (66, 40),
        ] {
            let a = pseudo(m * k, 29, 17, 0.1);
            let c0 = pseudo(m * m, 7, 11, 0.3);
            let mut c_blk = c0.clone();
            syrk_ln_f64_p(&a, m, k, &mut c_blk, false);
            let mut c_ref = c0.clone();
            reference_syrk_ln_f64(&a, m, k, &mut c_ref);
            assert_eq!(c_blk, c_ref, "shape ({m},{k})");
            for i in 0..m {
                for j in (i + 1)..m {
                    assert_eq!(
                        c_blk[i * m + j],
                        c0[i * m + j],
                        "upper touched at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_flag_paths_are_bit_identical() {
        let (m, n, k) = (130, 70, 48);
        let a = pseudo(m * k, 29, 17, 0.1);
        let b = pseudo(n * k, 31, 13, 0.2);
        let mut c_par = vec![1.0; m * n];
        gemm_nt_f64_p(&a, &b, &mut c_par, m, n, k, true);
        let mut c_seq = vec![1.0; m * n];
        gemm_nt_f64_p(&a, &b, &mut c_seq, m, n, k, false);
        assert_eq!(c_par, c_seq);

        let mut s_par = vec![0.5; m * m];
        syrk_ln_f64_p(&a, m, k, &mut s_par, true);
        let mut s_seq = vec![0.5; m * m];
        syrk_ln_f64_p(&a, m, k, &mut s_seq, false);
        assert_eq!(s_par, s_seq);

        let a0 = spd(m);
        let mut p_par = a0.clone();
        potrf_f64_p(&mut p_par, m, true).unwrap();
        let mut p_seq = a0;
        potrf_f64_p(&mut p_seq, m, false).unwrap();
        assert_eq!(p_par, p_seq);
    }

    #[test]
    fn pack_b_panels_transposes_and_pads() {
        let (n, k) = (17, 3);
        let b: Vec<f32> = (0..n * k).map(|x| x as f32).collect();
        let mut bp = Vec::new();
        pack_b_panels::<f32, W32>(&b, n, k, &mut bp);
        assert_eq!(bp.len(), 2 * k * W32);
        for j in 0..n {
            for t in 0..k {
                assert_eq!(bp[(j / W32) * k * W32 + t * W32 + j % W32], b[j * k + t]);
            }
        }
        assert!(bp[k * W32 + 1..k * W32 + W32].iter().all(|&x| x == 0.0));
    }

    /// Sums start at `−0.0`, as `Iterator::sum` does: a `−0.0` dot product
    /// subtracted from a `−0.0` entry gives `+0.0` in the oracles, and so
    /// must it in the lane-wide kernels (a `+0.0` start gives `−0.0`).
    #[test]
    fn signed_zero_sums_start_at_negative_zero() {
        let pos = 0.0f64.to_bits();
        let mut c = [-0.0];
        gemm_nt_f64_p(&[-0.0], &[1.0], &mut c, 1, 1, 1, false);
        assert_eq!(c[0].to_bits(), pos, "gemm f64");
        let mut c32 = [-0.0f32];
        gemm_nt_f32_p(&[-0.0], &[1.0], &mut c32, 1, 1, 1, false);
        assert_eq!(c32[0].to_bits(), 0.0f32.to_bits(), "gemm f32");
        // C(1,0) −= a₁·a₀ = 1·(−0)
        let mut s = [-0.0; 4];
        syrk_ln_f64_p(&[-0.0, 1.0], 2, 1, &mut s, false);
        assert_eq!(s[2].to_bits(), pos, "syrk");
        // x₀ = (b₀ − Σ∅) / L₀₀ with b₀ = −0
        let mut b = [-0.0, 1.0];
        trsm_rlt_f64_p(&[1.0, 0.0, 0.5, 2.0], 2, &mut b, 1, false);
        assert_eq!(b[0].to_bits(), pos, "trsm f64");
        let mut b32 = [-0.0f32, 1.0];
        trsm_rlt_f32_p(&[1.0, 0.0, 0.5, 2.0], 2, &mut b32, 1, false);
        assert_eq!(b32[0].to_bits(), 0.0f32.to_bits(), "trsm f32");
        let mut r = [-0.0];
        reference_gemm_nt_f64(&[-0.0], &[1.0], &mut r, 1, 1, 1);
        assert_eq!(r[0].to_bits(), pos, "oracle");
    }

    #[test]
    fn nested_thread_workspace_calls_do_not_panic() {
        let (m, n, k) = (5, 9, 3);
        let a = pseudo(m * k, 29, 17, 0.1);
        let b = pseudo(n * k, 31, 13, 0.2);
        let mut c_in = vec![0.5; m * n];
        with_thread_workspace(|_| gemm_nt_f64_p(&a, &b, &mut c_in, m, n, k, false));
        let mut c_ref = vec![0.5; m * n];
        reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
        assert_eq!(c_in, c_ref);
    }
}
