//! Bit-exact software `f16` (IEEE binary16) and `bf16` (bfloat16) storage
//! types, standing in for the `half` crate in this offline workspace.
//!
//! Conversions from `f64` perform a single round-to-nearest-even directly
//! to the target format (no intermediate `f32` step, which would double
//! round), with gradual underflow to subnormals and overflow to ±∞ —
//! matching both IEEE 754 and the hardware convert instructions the
//! precision experiments model. Decoding builds the `f32` bit pattern from
//! the fields (exact for every value, NaN sign and payload kept). Arithmetic
//! on `f16` routes through `f64`: products and sums of binary16 values are
//! exact in binary64, so the single rounding back to binary16 gives
//! correctly-rounded results.

/// Round-to-nearest-even encode of a finite/inf/NaN `f64` into a small
/// binary float with `E` exponent bits and `M` mantissa bits (E + M ≤ 15).
#[inline]
fn encode<const E: u32, const M: u32>(x: f64) -> u16 {
    let bits = x.to_bits();
    let sign = (((bits >> 63) as u16) & 1) << (E + M);
    let exp = ((bits >> 52) & 0x7FF) as i64;
    let man = bits & ((1u64 << 52) - 1);
    let max_exp_field: u64 = (1u64 << E) - 1;
    let inf: u16 = sign | ((max_exp_field as u16) << M);
    if exp == 0x7FF {
        return if man == 0 {
            inf
        } else {
            // Any NaN maps to a quiet NaN of the target format.
            inf | (1u16 << (M - 1))
        };
    }
    if exp == 0 {
        // f64 zeros and subnormals: magnitude < 2^-1022, below half the
        // smallest target subnormal for every format we instantiate.
        return sign;
    }
    let bias_t: i64 = (1i64 << (E - 1)) - 1;
    let emin_t: i64 = 1 - bias_t;
    let e = exp - 1023;
    let et = e.max(emin_t);
    // Bits of the 53-bit significand dropped by the narrowing (≥ 52 − M;
    // larger when the result is subnormal in the target).
    let shift = (52 - M as i64) + (et - e);
    if shift >= 64 {
        return sign; // underflows to zero regardless of rounding
    }
    let shift = shift as u32;
    let sig = (1u64 << 52) | man;
    let mut kept = sig >> shift;
    let rem = sig & ((1u64 << shift) - 1);
    let half = 1u64 << (shift - 1);
    if rem > half || (rem == half && kept & 1 == 1) {
        kept += 1;
    }
    // Hidden bit of `kept` lands in the exponent field, hence the −1; a
    // carry out of rounding bumps the exponent naturally, and a subnormal
    // result (et = emin_t, kept < 2^M) yields exponent field 0.
    let code = (((et + bias_t - 1) as u64) << M) + kept;
    if code >= max_exp_field << M {
        return inf;
    }
    sign | code as u16
}

/// Exact decode of a binary16 bit pattern into binary32 bits, built from
/// the fields alone (no arithmetic): every binary16 value, subnormals
/// included, is a normal or zero binary32 value. Infinities and NaNs keep
/// their sign and payload, as the hardware `vcvtph2ps` does.
#[inline]
fn f16_to_f32_bits(h: u16) -> u32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x3FF) as u32;
    match exp {
        0x1F => sign | 0x7F80_0000 | (man << 13),
        0 if man == 0 => sign,
        0 => {
            // man × 2^-24 with the leading one at bit `top`: renormalize.
            let top = 31 - man.leading_zeros();
            sign | ((top + 103) << 23) | ((man << (23 - top)) & 0x7F_FFFF)
        }
        _ => sign | ((exp + 112) << 23) | (man << 13),
    }
}

/// Exact decode of a bfloat16 bit pattern: bfloat16 is the upper half of
/// a binary32 word.
#[inline]
fn bf16_to_f32_bits(h: u16) -> u32 {
    (h as u32) << 16
}

macro_rules! half_type {
    ($(#[$doc:meta])* $name:ident, $e:expr, $m:expr, $to_f32_bits:ident) => {
        $(#[$doc])*
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Default, PartialEq, PartialOrd)]
        #[repr(transparent)]
        pub struct $name(u16);

        impl $name {
            pub const ZERO: Self = Self(0);
            pub const ONE: Self = Self(((1u16 << ($e - 1)) - 1) << $m);
            const INF_BITS: u16 = ((1u16 << $e) - 1) << $m;
            const MAGNITUDE: u16 = !(1u16 << ($e + $m));

            #[inline]
            pub fn from_f64(x: f64) -> Self {
                Self(encode::<$e, $m>(x))
            }

            #[inline]
            pub fn from_f32(x: f32) -> Self {
                // f32 → f64 is exact, so this is a single rounding.
                Self(encode::<$e, $m>(x as f64))
            }

            #[inline]
            pub fn to_f64(self) -> f64 {
                self.to_f32() as f64
            }

            #[inline]
            pub fn to_f32(self) -> f32 {
                // Every value of this format is exactly representable in f32.
                f32::from_bits($to_f32_bits(self.0))
            }

            #[inline]
            pub fn from_bits(bits: u16) -> Self {
                Self(bits)
            }

            #[inline]
            pub fn to_bits(self) -> u16 {
                self.0
            }

            #[inline]
            pub fn is_nan(self) -> bool {
                self.0 & Self::MAGNITUDE > Self::INF_BITS
            }

            #[inline]
            pub fn is_infinite(self) -> bool {
                self.0 & Self::MAGNITUDE == Self::INF_BITS
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.to_f64())
            }
        }

        // Arithmetic through f64 is exact before the single final rounding
        // (significand products/sums of this format fit in binary64).
        impl std::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() + rhs.to_f64())
            }
        }

        impl std::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() - rhs.to_f64())
            }
        }

        impl std::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() * rhs.to_f64())
            }
        }

        impl std::ops::Div for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() / rhs.to_f64())
            }
        }

        impl std::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(self.0 ^ (1u16 << ($e + $m)))
            }
        }
    };
}

half_type!(
    /// IEEE 754 binary16: 5 exponent bits, 10 mantissa bits.
    f16, 5, 10, f16_to_f32_bits
);
half_type!(
    /// bfloat16: 8 exponent bits, 7 mantissa bits (f32's exponent range).
    bf16, 8, 7, bf16_to_f32_bits
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_known_values() {
        assert_eq!(f16::from_f64(0.0).to_bits(), 0);
        assert_eq!(f16::from_f64(1.0).to_bits(), 0x3C00);
        assert_eq!(f16::ONE.to_bits(), 0x3C00);
        assert_eq!(f16::from_f64(-2.0).to_bits(), 0xC000);
        assert_eq!(f16::from_f64(65504.0).to_f64(), 65504.0);
        assert!(f16::from_f64(70000.0).to_f64().is_infinite());
        // 1/3 → 0x3555 → 0.333251953125
        assert_eq!(f16::from_f64(1.0 / 3.0).to_bits(), 0x3555);
        assert_eq!(f16::from_f64(1.0 / 3.0).to_f64(), 0.333251953125);
    }

    #[test]
    fn f16_subnormals_and_underflow() {
        let min_sub = (2.0f64).powi(-24);
        assert_eq!(f16::from_f64(min_sub).to_f64(), min_sub);
        // Exactly half the min subnormal ties to even → zero.
        assert_eq!(f16::from_f64(min_sub / 2.0).to_f64(), 0.0);
        // Just above half rounds up to the min subnormal.
        assert_eq!(f16::from_f64(min_sub * 0.5000001).to_f64(), min_sub);
        // Largest subnormal.
        let max_sub = (2.0f64).powi(-14) - (2.0f64).powi(-24);
        assert_eq!(f16::from_f64(max_sub).to_f64(), max_sub);
        // Smallest normal.
        assert_eq!(f16::from_f64((2.0f64).powi(-14)).to_bits(), 0x0400);
    }

    #[test]
    fn f16_ties_to_even() {
        // ulp(2048) = 2: 2049 is exactly halfway, rounds to even 2048.
        assert_eq!(f16::from_f64(2049.0).to_f64(), 2048.0);
        assert_eq!(f16::from_f64(2051.0).to_f64(), 2052.0);
        assert_eq!(f16::from_f64(2049.5).to_f64(), 2050.0);
    }

    #[test]
    fn f16_no_double_rounding_from_f64() {
        // 1 + 2^-11 + 2^-25 rounds up in a direct f64→f16 conversion, but an
        // intermediate f32 step would first strip the 2^-25 and then tie to
        // even at 1.0. Detects the classic double-rounding bug.
        let x = 1.0 + (2.0f64).powi(-11) + (2.0f64).powi(-25);
        assert_eq!(f16::from_f64(x).to_f64(), 1.0 + (2.0f64).powi(-10));
    }

    #[test]
    fn bf16_known_values() {
        assert_eq!(bf16::from_f64(1.0).to_f64(), 1.0);
        assert_eq!(bf16::from_f64(1.01).to_f64(), 1.0078125);
        assert!(bf16::from_f64(1e38).to_f64().is_finite());
        assert!(bf16::from_f64(4e38).to_f64().is_infinite());
        // bf16 is f32 truncated to 7 mantissa bits + RNE.
        let x = 1.5f64;
        assert_eq!(bf16::from_f64(x).to_f64(), x);
    }

    #[test]
    fn roundtrip_is_idempotent_and_monotone() {
        let mut prev = f64::NEG_INFINITY;
        let mut x = -70000.0;
        while x < 70000.0 {
            let r = f16::from_f64(x).to_f64();
            assert_eq!(f16::from_f64(r).to_f64(), r, "idempotent at {x}");
            assert!(r >= prev, "monotone at {x}: {r} < {prev}");
            prev = r;
            x += 173.7;
        }
    }

    #[test]
    fn nan_and_neg() {
        assert!(f16::from_f64(f64::NAN).is_nan());
        assert!(bf16::from_f64(f64::NAN).is_nan());
        assert_eq!((-f16::from_f64(1.5)).to_f64(), -1.5);
    }

    /// The arithmetic decode formula the bit construction replaced, kept
    /// as the oracle. It returns the positive default NaN for every NaN.
    fn decode_by_formula<const E: u32, const M: u32>(bits: u16) -> f64 {
        let sign = if bits >> (E + M) & 1 == 1 { -1.0 } else { 1.0 };
        let exp_field = (bits >> M) as i64 & ((1i64 << E) - 1);
        let man = (bits & ((1u16 << M) - 1)) as f64;
        let bias_t: i64 = (1i64 << (E - 1)) - 1;
        let max_exp_field: i64 = (1i64 << E) - 1;
        if exp_field == max_exp_field {
            return if man == 0.0 {
                sign * f64::INFINITY
            } else {
                f64::NAN
            };
        }
        let scale = (2.0f64).powi(-(M as i32));
        if exp_field == 0 {
            sign * man * scale * (2.0f64).powi((1 - bias_t) as i32)
        } else {
            sign * (1.0 + man * scale) * (2.0f64).powi((exp_field - bias_t) as i32)
        }
    }

    /// Every bit pattern of both formats decodes to exactly the oracle's
    /// value (same f64 bits, so signed zeros too). NaN patterns must decode
    /// to a NaN; the bit construction also keeps the sign, which the
    /// oracle drops.
    #[test]
    fn decode_matches_formula_exhaustively() {
        for bits in 0..=u16::MAX {
            let sign_set = bits & 0x8000 != 0;
            for (got, got32, want, nan, inf) in [
                (
                    f16::from_bits(bits).to_f64(),
                    f16::from_bits(bits).to_f32(),
                    decode_by_formula::<5, 10>(bits),
                    f16::from_bits(bits).is_nan(),
                    f16::from_bits(bits).is_infinite(),
                ),
                (
                    bf16::from_bits(bits).to_f64(),
                    bf16::from_bits(bits).to_f32(),
                    decode_by_formula::<8, 7>(bits),
                    bf16::from_bits(bits).is_nan(),
                    bf16::from_bits(bits).is_infinite(),
                ),
            ] {
                assert_eq!(got.to_bits(), (got32 as f64).to_bits(), "{bits:#06x}");
                assert_eq!(nan, want.is_nan(), "{bits:#06x}");
                assert_eq!(inf, want.is_infinite(), "{bits:#06x}");
                if want.is_nan() {
                    assert!(got.is_nan(), "{bits:#06x}");
                    assert_eq!(got.is_sign_negative(), sign_set, "{bits:#06x}");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "{bits:#06x}");
                }
            }
        }
    }

    #[test]
    fn f16_arithmetic_rounds_per_op() {
        let a = f16::from_f64(2048.0);
        let b = f16::from_f64(1.0);
        assert_eq!((a + b).to_f64(), 2048.0); // below half-ulp, ties to even
        let c = f16::from_f64(3.0) * f16::from_f64(0.5);
        assert_eq!(c.to_f64(), 1.5);
    }
}
