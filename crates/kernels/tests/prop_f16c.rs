//! Bit-identity of the F16C fast paths against the scalar shim oracle
//! ([`reference_gemm_tile`]) for every FP16-class GEMM precision.
//!
//! Shapes run 1..=70 on each side, so every vector-width and register-block
//! tail occurs; operands are stored in F64, F32 or F16 and arrive either
//! STC-cached (built by [`make_compute_buf`]) or quantized inside the call;
//! scales run from 1e-7 to 1e3 with sprinkled specials, so binary16
//! subnormals, overflow to ±∞ and NaN all occur. Outputs must agree bit for
//! bit, except that a NaN only has to meet a NaN: Rust leaves the sign and
//! payload of a NaN produced by arithmetic unspecified. On CPUs without
//! F16C both sides run the scalar path, and the tests still hold.

use mixedp_fp::{Precision, StoragePrecision as SP};
use mixedp_kernels::{gemm_tile_ws_cached, make_compute_buf, reference_gemm_tile, Workspace};
use mixedp_tile::Tile;
use proptest::prelude::*;

const PRECISIONS: [Precision; 3] = [Precision::Fp16, Precision::Fp16x32, Precision::Bf16x32];
const STORAGES: [SP; 3] = [SP::F64, SP::F32, SP::F16];

/// Values that sit on binary16 edges: overflow, its tie, underflow below
/// half the smallest subnormal, and the non-finite values.
const SPECIALS: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    7.0e4,
    65520.0,
    -65504.0,
    2.0e-8,
    -3.0e-8,
];

fn random_tile(rows: usize, cols: usize, scale: f64, seed: u64, storage: SP) -> Tile {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| {
            let r = next();
            if r % 97 == 0 {
                SPECIALS[(r >> 8) as usize % SPECIALS.len()]
            } else {
                ((r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
            }
        })
        .collect();
    Tile::from_f64(rows, cols, &data, storage)
}

/// Bit equality, with any NaN matching any NaN.
fn assert_same(got: &Tile, want: &Tile, ctx: &str) {
    assert_eq!(got.storage(), want.storage());
    for (i, (g, w)) in got.to_f64().iter().zip(want.to_f64()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{ctx}: element {i}: fast {g:e} vs scalar {w:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Fast GEMM (STC-cached and local operands) equals the scalar oracle.
    #[test]
    fn fp16_class_gemm_matches_scalar_oracle(
        m in 1usize..=70,
        n in 1usize..=70,
        k in 1usize..=70,
        pi in 0usize..3,
        sa in 0usize..3,
        sb in 0usize..3,
        sc in 0usize..3,
        log_scale in -7.0f64..3.0,
        seed in 0u64..1_000_000,
    ) {
        let p = PRECISIONS[pi];
        let scale = 10f64.powf(log_scale);
        let a = random_tile(m, k, scale, seed, STORAGES[sa]);
        let b = random_tile(n, k, scale, seed + 1, STORAGES[sb]);
        let c0 = random_tile(m, n, scale, seed + 2, STORAGES[sc]);
        let ctx = format!("{p:?} {m}x{n}x{k} scale {scale:e} storage {sa}/{sb}/{sc}");

        let mut want = c0.clone();
        reference_gemm_tile(p, &a, &b, &mut want);

        let mut ws = Workspace::new();
        let mut local = c0.clone();
        let conv = gemm_tile_ws_cached(p, &a, None, &b, None, &mut local, &mut ws, false);
        prop_assert_eq!(conv, 2);
        assert_same(&local, &want, &format!("{ctx} local"));

        let (ab, bb) = (make_compute_buf(p, &a), make_compute_buf(p, &b));
        let mut cached = c0.clone();
        let conv =
            gemm_tile_ws_cached(p, &a, Some(&ab), &b, Some(&bb), &mut cached, &mut ws, false);
        prop_assert_eq!(conv, 0);
        assert_same(&cached, &want, &format!("{ctx} cached"));
    }
}

/// An F64-stored operand whose direct rounding differs from rounding
/// through f32 first: the fast paths must keep the exact f64 encoder.
#[test]
fn f64_sources_do_not_double_round() {
    let h = 2f64.powi(-25);
    for (p, x, direct) in [
        (
            Precision::Fp16,
            1.0 + 2f64.powi(-11) + h,
            1.0 + 2f64.powi(-10),
        ),
        (
            Precision::Fp16x32,
            1.0 + 2f64.powi(-11) + h,
            1.0 + 2f64.powi(-10),
        ),
        (
            Precision::Bf16x32,
            1.0 + 2f64.powi(-8) + h,
            1.0 + 2f64.powi(-7),
        ),
    ] {
        // Through f32, the 2^-25 is lost and the tie goes to even (1.0).
        assert_eq!(mixedp_fp::quantize(p, x as f32 as f64), 1.0);
        let a = Tile::from_f64(1, 1, &[x], SP::F64);
        let b = Tile::from_f64(1, 1, &[1.0], SP::F32);
        let mut fast = Tile::zeros(1, 1, SP::F32);
        gemm_tile_ws_cached(
            p,
            &a,
            None,
            &b,
            None,
            &mut fast,
            &mut Workspace::new(),
            false,
        );
        assert_eq!(fast.get(0, 0), -direct, "{p:?}");
        let mut cached = Tile::zeros(1, 1, SP::F32);
        let ab = make_compute_buf(p, &a);
        gemm_tile_ws_cached(
            p,
            &a,
            Some(&ab),
            &b,
            None,
            &mut cached,
            &mut Workspace::new(),
            false,
        );
        assert_eq!(cached.get(0, 0), -direct, "{p:?} cached");
        let mut want = Tile::zeros(1, 1, SP::F32);
        reference_gemm_tile(p, &a, &b, &mut want);
        assert_eq!(want.get(0, 0), -direct, "{p:?} oracle");
    }
}
