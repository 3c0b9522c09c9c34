//! Conversion gate: the fast f32 → binary16 conversion ([`f16c::f32_to_f16`])
//! against the shim's `f16::from_f32`, and the fast bfloat16 rounding
//! ([`f16c::round_bf16`]) against `bf16::from_f32`.
//!
//! **NaN equivalence:** where the shim returns a NaN, the fast result must be
//! a NaN with the same sign bit; payloads may differ. Every other result must
//! match bit for bit.
//!
//! The default suite checks a strided subset of all 2³² f32 patterns plus
//! every pattern within ±4 ulp of each threshold and rounding midpoint that
//! matters. The full sweep is ignored by default; run it with
//! `cargo test --release -p mixedp-kernels --test f16c_conversions -- --ignored`.

use half::{bf16, f16};
use mixedp_kernels::f16c;

fn is_nan_f16(h: u16) -> bool {
    h & 0x7FFF > 0x7C00
}

fn is_nan_bf16(h: u16) -> bool {
    h & 0x7FFF > 0x7F80
}

/// The 16-bit results agree up to NaN equivalence.
fn equivalent(got: u16, want: u16, is_nan: fn(u16) -> bool) -> bool {
    if is_nan(want) {
        is_nan(got) && got >> 15 == want >> 15
    } else {
        got == want
    }
}

/// Check every f32 bit pattern yielded by `patterns` in both formats.
fn check(patterns: impl Iterator<Item = u32>) -> u64 {
    const BATCH: usize = 4096;
    let mut src = Vec::with_capacity(BATCH);
    let mut dst = vec![f16::ZERO; BATCH];
    let mut checked = 0;
    let mut flush = |src: &mut Vec<f32>| {
        let out = &mut dst[..src.len()];
        f16c::f32_to_f16(src, out);
        for (&x, h) in src.iter().zip(out.iter()) {
            let want = f16::from_f32(x).to_bits();
            assert!(
                equivalent(h.to_bits(), want, is_nan_f16),
                "f16: {:#010x} -> {:#06x}, shim {want:#06x}",
                x.to_bits(),
                h.to_bits()
            );
            let got = f16c::round_bf16(x).to_bits();
            let want = bf16::from_f32(x).to_bits();
            assert_eq!(got & 0xFFFF, 0, "bf16 rounding left low bits: {got:#010x}");
            assert!(
                equivalent((got >> 16) as u16, want, is_nan_bf16),
                "bf16: {:#010x} -> {got:#010x}, shim {want:#06x}",
                x.to_bits()
            );
        }
        checked += src.len() as u64;
        src.clear();
    };
    for bits in patterns {
        src.push(f32::from_bits(bits));
        if src.len() == BATCH {
            flush(&mut src);
        }
    }
    flush(&mut src);
    checked
}

/// Thresholds and rounding midpoints of both formats, as f32 values.
fn edges() -> Vec<f32> {
    let p = |e: i32| 2f32.powi(e);
    let mut v = vec![
        // binary16: underflow midpoint, smallest subnormal and the next
        // midpoint, largest subnormal / smallest normal and their midpoint,
        // largest finite, overflow threshold, 2^16.
        p(-25),
        p(-24),
        3.0 * p(-25),
        p(-14) - p(-24),
        p(-14) - p(-25),
        p(-14),
        65504.0,
        65520.0,
        65536.0,
        // bfloat16: the same set on its (f32) exponent range.
        p(-134),
        p(-133),
        p(-126) - p(-133),
        p(-126),
        (2.0 - p(-7)) * p(127),
        (2.0 - p(-8)) * p(127),
        f32::MAX,
        f32::INFINITY,
        f32::NAN,
        2.0 - p(-11),
        1.0,
    ];
    // Rounding midpoints on both sides of 1.0, for both formats.
    for i in 0..4 {
        let odd = (2 * i + 1) as f32;
        v.extend([
            1.0 + odd * p(-11),
            1.0 - odd * p(-12),
            1.0 + odd * p(-8),
            1.0 - odd * p(-9),
        ]);
    }
    v
}

#[test]
fn fast_conversions_match_shim_near_every_edge() {
    let patterns = edges().into_iter().flat_map(|x| {
        let b = x.to_bits();
        [b, b ^ 0x8000_0000]
            .into_iter()
            .flat_map(|c| c.saturating_sub(4)..=c.saturating_add(4))
    });
    assert!(check(patterns) > 400);
}

#[test]
fn fast_conversions_match_shim_on_strided_patterns() {
    // A stride coprime to 2^32 with a varying low part visits every
    // exponent and a spread of mantissas and signs.
    let n = check((0..(1u64 << 32) / 1021).map(|i| (i * 1021) as u32));
    assert!(n > 4_000_000);
}

#[test]
#[ignore = "full 2^32 sweep: run in release with --ignored"]
fn fast_conversions_match_shim_on_all_f32_patterns() {
    let total: u64 = std::thread::scope(|s| {
        let halves = [0u64..1 << 31, 1 << 31..1 << 32];
        let handles = halves.map(|r| s.spawn(move || check(r.map(|b| b as u32))));
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(total, 1 << 32);
}
