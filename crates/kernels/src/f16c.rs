//! Vectorized, bit-exact binary16 / bfloat16 emulation on x86 F16C.
//!
//! The scalar `half` shim is the semantic reference for every FP16-class
//! format: it rounds once, directly from the exact value, to the nearest
//! binary16 / bfloat16 (ties to even). The routines here produce the same
//! bits far faster, and rest on three facts (DESIGN.md §7):
//!
//! * **Double rounding is innocuous.** By Figueroa's theorem ("When is
//!   double rounding innocuous?", SIGNUM 1995), rounding the exact result
//!   of +, −, × first to binary32 and then to a q-bit format equals rounding
//!   it directly, whenever 24 ≥ 2q + 2 — true for binary16 (q = 11) and
//!   bfloat16 (q = 8).
//! * **Binary16 products are exact in binary32**, subnormals included (at
//!   most 22 significant bits, exponents well inside binary32's range).
//! * **FP16-class tiles are stored in FP32**, so quantizing an operand is a
//!   single f32 → f16 rounding, which `vcvtps2ph` with round-to-nearest-even
//!   performs exactly. A direct f64 → f16 rounding is *not* covered: F64
//!   sources keep the shim's exact encoder (an intermediate f32 step would
//!   double round, e.g. 1 + 2⁻¹¹ + 2⁻²⁵).
//!
//! **NaN equivalence.** Results agree bit for bit except on NaN, where both
//! sides are NaN with the same sign bit; payloads may differ (the hardware
//! keeps the top payload bits, the shim emits the default quiet NaN).
//!
//! **Dispatch.** [`available`] detects F16C (with AVX) at run time; the
//! standard library caches the detection, so the choice is made once per
//! process. Without it every routine here runs the scalar shim code, which
//! also stays the oracle the tests compare against.

use half::f16;

/// Whether this CPU runs the F16C fast paths (x86-64 with AVX and F16C).
#[inline]
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx") && std::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Round each `f32` to binary16 (ties to even, overflow to ±∞, gradual
/// underflow): bit-identical to [`f16::from_f32`] up to NaN equivalence.
pub fn f32_to_f16(src: &[f32], dst: &mut [f16]) {
    assert_eq!(src.len(), dst.len(), "f32_to_f16 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: AVX and F16C were detected; lengths are equal (asserted).
        unsafe { x86::f32_to_f16(src, dst) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16::from_f32(s);
    }
}

/// Widen binary16 values to `f32` (exact, NaN sign and payload kept).
pub fn f16_to_f32(src: &[f16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "f16_to_f32 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: AVX and F16C were detected; lengths are equal (asserted).
        unsafe { x86::f16_to_f32(src, dst) };
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// Round each `f32` through binary16 and back: `dst[i]` is
/// `f16::from_f32(src[i]).to_f32()` up to NaN equivalence.
pub fn round_f16(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "round_f16 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: AVX and F16C were detected; lengths are equal (asserted).
        unsafe { x86::round_f16(src, dst) };
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16::from_f32(s).to_f32();
    }
}

/// Round an `f32` to the nearest bfloat16 (ties to even) on its bits:
/// `bf16::from_f32(x).to_f32()` exactly, NaN included (the quiet NaN of
/// `x`'s sign). Integer-only, so it vectorizes on any target.
#[inline]
pub fn round_bf16(x: f32) -> f32 {
    let b = x.to_bits();
    if b & 0x7FFF_FFFF > 0x7F80_0000 {
        return f32::from_bits((b & 0x8000_0000) | 0x7FC0_0000);
    }
    // Adding 0x7FFF plus the kept LSB rounds to nearest, ties to even; a
    // carry into the exponent is the correct rounding up to the next binade
    // (or to infinity).
    f32::from_bits(b.wrapping_add(0x7FFF + ((b >> 16) & 1)) & 0xFFFF_0000)
}

/// Columns of the pure-FP16 micro-kernel's register block (two 8-lane
/// vectors): the width of an f32 packed `B` panel.
const NR: usize = crate::blas::W32;

/// Pure-FP16 GEMM, `C ← C − A·Bᵀ`, every multiply and every subtract
/// rounded to binary16, `t` ascending per element — the same operation
/// sequence as the scalar shim kernel, and bit-identical to it (products
/// are exact in f32; the subtraction's f32 rounding is innocuous).
///
/// `a` is `m × k`, `c` is `m × n` (row-major, on the binary16 grid), and
/// `bp` is `B` packed into 16-wide panels by `blas::pack_b_panels`.
/// Serial: the task graph supplies the parallelism. Requires [`available`].
pub(crate) fn gemm_f16(a: &[f32], bp: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert!(available(), "gemm_f16 needs AVX + F16C");
    assert_eq!(a.len(), m * k);
    assert_eq!(c.len(), m * n);
    assert_eq!(bp.len(), n.div_ceil(NR) * k * NR);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX and F16C were detected; shapes are asserted above.
    unsafe {
        x86::gemm_f16(a, bp, c, m, n, k)
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::NR;
    use core::arch::x86_64::*;
    use half::f16;

    /// Rows of the register block: 4 × 2 independent accumulators.
    const MR: usize = 4;

    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;

    /// # Safety
    /// The CPU must support AVX and F16C, and `src.len() == dst.len()`.
    #[target_feature(enable = "avx,f16c")]
    pub unsafe fn f32_to_f16(src: &[f32], dst: &mut [f16]) {
        let mut s8 = src.chunks_exact(8);
        let mut d8 = dst.chunks_exact_mut(8);
        for (s, d) in (&mut s8).zip(&mut d8) {
            // SAFETY: `s` holds 8 f32 and `d` 8 f16 (16 bytes); unaligned
            // load/store intrinsics.
            unsafe {
                let h = _mm256_cvtps_ph::<RNE>(_mm256_loadu_ps(s.as_ptr()));
                _mm_storeu_si128(d.as_mut_ptr().cast(), h);
            }
        }
        let (s, d) = (s8.remainder(), d8.into_remainder());
        let mut tmp = [0.0f32; 8];
        tmp[..s.len()].copy_from_slice(s);
        let mut out = [f16::ZERO; 8];
        // SAFETY: both stack arrays hold 8 lanes.
        unsafe {
            let h = _mm256_cvtps_ph::<RNE>(_mm256_loadu_ps(tmp.as_ptr()));
            _mm_storeu_si128(out.as_mut_ptr().cast(), h);
        }
        d.copy_from_slice(&out[..d.len()]);
    }

    /// # Safety
    /// The CPU must support AVX and F16C, and `src.len() == dst.len()`.
    #[target_feature(enable = "avx,f16c")]
    pub unsafe fn f16_to_f32(src: &[f16], dst: &mut [f32]) {
        let mut s8 = src.chunks_exact(8);
        let mut d8 = dst.chunks_exact_mut(8);
        for (s, d) in (&mut s8).zip(&mut d8) {
            // SAFETY: `s` holds 8 f16 (16 bytes) and `d` 8 f32.
            unsafe {
                let v = _mm256_cvtph_ps(_mm_loadu_si128(s.as_ptr().cast()));
                _mm256_storeu_ps(d.as_mut_ptr(), v);
            }
        }
        let (s, d) = (s8.remainder(), d8.into_remainder());
        let mut tmp = [f16::ZERO; 8];
        tmp[..s.len()].copy_from_slice(s);
        let mut out = [0.0f32; 8];
        // SAFETY: both stack arrays hold 8 lanes.
        unsafe {
            let v = _mm256_cvtph_ps(_mm_loadu_si128(tmp.as_ptr().cast()));
            _mm256_storeu_ps(out.as_mut_ptr(), v);
        }
        d.copy_from_slice(&out[..d.len()]);
    }

    /// # Safety
    /// The CPU must support AVX and F16C, and `src.len() == dst.len()`.
    #[target_feature(enable = "avx,f16c")]
    pub unsafe fn round_f16(src: &[f32], dst: &mut [f32]) {
        let mut s8 = src.chunks_exact(8);
        let mut d8 = dst.chunks_exact_mut(8);
        for (s, d) in (&mut s8).zip(&mut d8) {
            // SAFETY: `s` and `d` hold 8 f32 each.
            unsafe { _mm256_storeu_ps(d.as_mut_ptr(), round(_mm256_loadu_ps(s.as_ptr()))) };
        }
        let (s, d) = (s8.remainder(), d8.into_remainder());
        let mut tmp = [0.0f32; 8];
        tmp[..s.len()].copy_from_slice(s);
        // SAFETY: `tmp` holds 8 lanes.
        unsafe { _mm256_storeu_ps(tmp.as_mut_ptr(), round(_mm256_loadu_ps(tmp.as_ptr()))) };
        d.copy_from_slice(&tmp[..d.len()]);
    }

    /// f32 → binary16 (ties to even) → f32, eight lanes.
    #[inline]
    #[target_feature(enable = "avx,f16c")]
    fn round(v: __m256) -> __m256 {
        _mm256_cvtph_ps(_mm256_cvtps_ph::<RNE>(v))
    }

    /// One k-step of an accumulator vector: `acc ← fl16(acc − fl16(x·b))`.
    #[inline]
    #[target_feature(enable = "avx,f16c")]
    fn step(acc: __m256, x: __m256, b: __m256) -> __m256 {
        round(_mm256_sub_ps(acc, round(_mm256_mul_ps(x, b))))
    }

    /// # Safety
    /// The CPU must support AVX and F16C; shapes as in [`super::gemm_f16`].
    #[target_feature(enable = "avx,f16c")]
    pub unsafe fn gemm_f16(a: &[f32], bp: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
        for (p, panel) in bp.chunks_exact((k * NR).max(1)).enumerate() {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let mut i = 0;
            while i < m {
                match m - i {
                    1 => block::<1>(a, panel, c, i, j0, w, n, k),
                    2 => block::<2>(a, panel, c, i, j0, w, n, k),
                    3 => block::<3>(a, panel, c, i, j0, w, n, k),
                    _ => block::<MR>(a, panel, c, i, j0, w, n, k),
                }
                i += MR;
            }
        }
    }

    /// Rows `i0 .. i0+R` × columns `j0 .. j0+w` of C: `2R` independent
    /// 8-lane accumulators held in registers across the whole k loop.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx,f16c")]
    fn block<const R: usize>(
        a: &[f32],
        panel: &[f32],
        c: &mut [f32],
        i0: usize,
        j0: usize,
        w: usize,
        n: usize,
        k: usize,
    ) {
        let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k..][..k]);
        let mut tile = [[0.0f32; NR]; R];
        for (r, t) in tile.iter_mut().enumerate() {
            t[..w].copy_from_slice(&c[(i0 + r) * n + j0..][..w]);
        }
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for (v, t) in acc.iter_mut().zip(&tile) {
            // SAFETY: each `tile` row holds NR = 16 lanes.
            unsafe {
                *v = [
                    _mm256_loadu_ps(t.as_ptr()),
                    _mm256_loadu_ps(t.as_ptr().add(8)),
                ]
            };
        }
        for (t, bt) in panel.chunks_exact(NR).enumerate() {
            // SAFETY: `bt` holds NR = 16 lanes.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(bt.as_ptr()),
                    _mm256_loadu_ps(bt.as_ptr().add(8)),
                )
            };
            for r in 0..R {
                let x = _mm256_set1_ps(rows[r][t]);
                acc[r][0] = step(acc[r][0], x, b0);
                acc[r][1] = step(acc[r][1], x, b1);
            }
        }
        for (r, t) in tile.iter_mut().enumerate() {
            // SAFETY: each `tile` row holds NR = 16 lanes.
            unsafe {
                _mm256_storeu_ps(t.as_mut_ptr(), acc[r][0]);
                _mm256_storeu_ps(t.as_mut_ptr().add(8), acc[r][1]);
            }
            c[(i0 + r) * n + j0..][..w].copy_from_slice(&t[..w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use half::bf16;

    fn lcg(seed: u64) -> impl FnMut() -> u32 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 32) as u32
        }
    }

    #[test]
    fn slice_conversions_match_shim_on_ragged_lengths() {
        let mut next = lcg(3);
        for len in [0, 1, 7, 8, 9, 31, 64] {
            let src: Vec<f32> = (0..len).map(|_| f32::from_bits(next())).collect();
            let mut h = vec![f16::ZERO; len];
            f32_to_f16(&src, &mut h);
            let mut r = vec![0.0; len];
            round_f16(&src, &mut r);
            let mut w = vec![0.0; len];
            f16_to_f32(&h, &mut w);
            for i in 0..len {
                let want = f16::from_f32(src[i]);
                if want.is_nan() {
                    assert!(h[i].is_nan() && r[i].is_nan() && w[i].is_nan());
                    continue;
                }
                assert_eq!(h[i].to_bits(), want.to_bits(), "{:#x}", src[i].to_bits());
                assert_eq!(r[i].to_bits(), want.to_f32().to_bits());
                assert_eq!(w[i].to_bits(), want.to_f32().to_bits());
            }
        }
    }

    #[test]
    fn round_bf16_known_values() {
        assert_eq!(round_bf16(1.0), 1.0);
        assert_eq!(round_bf16(1.01), 1.0078125);
        // 1 + 2^-8 is the midpoint between 1 and 1 + 2^-7: ties to even.
        assert_eq!(round_bf16(1.0 + 2f32.powi(-8)), 1.0);
        assert_eq!(round_bf16(f32::MAX), f32::INFINITY);
        assert_eq!(round_bf16(-0.0).to_bits(), (-0.0f32).to_bits());
        let nan = round_bf16(-f32::NAN);
        assert!(nan.is_nan() && nan.is_sign_negative());
        assert_eq!(
            round_bf16(1.0e-40).to_bits(),
            bf16::from_f32(1.0e-40).to_f32().to_bits()
        );
    }
}
