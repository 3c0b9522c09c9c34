//! Property-based tests of the dense kernels.

use mixedp_fp::{Precision, StoragePrecision};
use mixedp_kernels::{
    blas, forward_solve_tiled, gemm_relative_error, gemm_tile, gemm_tile_ws, log_det_tiled,
    potrf_tile, trsm_tile, Workspace,
};
use mixedp_tile::{SymmTileMatrix, Tile};
use proptest::prelude::*;

fn tile_from(v: &[f64], rows: usize, cols: usize) -> Tile {
    Tile::from_f64(rows, cols, v, StoragePrecision::F64)
}

/// A value stream for the bit-identity tests: mostly ordinary values in
/// (−1, 1), with ±0.0 and subnormals (~6%) and ±∞ (~0.2%, so that most
/// `k = KC` dot products still stay finite) mixed in.
fn special_mix(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let u = (s >> 11) as f64 / (1u64 << 53) as f64;
        match s % 1024 {
            0..=15 => 0.0,
            16..=31 => -0.0,
            32..=47 => f64::MIN_POSITIVE * u,
            48..=63 => -f64::MIN_POSITIVE * u,
            64..=79 => f32::MIN_POSITIVE as f64 * (u - 0.5),
            80 => f64::INFINITY,
            81 => f64::NEG_INFINITY,
            _ => u * 2.0 - 1.0,
        }
    }
}

/// Bit equality, except that any two NaNs match (their payloads depend on
/// operand order, which the compiler may commute).
fn same_bits_f64(x: &[f64], y: &[f64]) -> Result<(), String> {
    assert_eq!(x.len(), y.len());
    match x
        .iter()
        .zip(y)
        .position(|(a, b)| a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan()))
    {
        Some(i) => Err(format!("element {i}: {:e} vs {:e}", x[i], y[i])),
        None => Ok(()),
    }
}

fn same_bits_f32(x: &[f32], y: &[f32]) -> Result<(), String> {
    let wide = |v: &[f32]| v.iter().map(|&a| a as f64).collect::<Vec<_>>();
    same_bits_f64(&wide(x), &wide(y))
}

prop_compose! {
    /// Row counts that straddle the 4-row register block, the 8/16-lane
    /// panels and the parallel threshold; `k` up to `KC`.
    fn lane_dims()(
        m in 1usize..80,
        n in 1usize..40,
        k in prop_oneof![1usize..40, (blas::KC - 24)..=blas::KC],
    ) -> (usize, usize, usize) {
        (m, n, k)
    }
}

prop_compose! {
    fn arb_dims()(m in 1usize..12, n in 1usize..12, k in 1usize..12) -> (usize, usize, usize) {
        (m, n, k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FP64 gemm_tile matches a naive triple loop exactly.
    #[test]
    fn gemm_fp64_matches_naive(
        (m, n, k) in arb_dims(),
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let av: Vec<f64> = (0..m * k).map(|_| rnd()).collect();
        let bv: Vec<f64> = (0..n * k).map(|_| rnd()).collect();
        let cv: Vec<f64> = (0..m * n).map(|_| rnd()).collect();
        let a = tile_from(&av, m, k);
        let b = tile_from(&bv, n, k);
        let mut c = tile_from(&cv, m, n);
        gemm_tile(Precision::Fp64, &a, &b, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut want = cv[i * n + j];
                let mut dot = 0.0;
                for t in 0..k {
                    dot += av[i * k + t] * bv[j * k + t];
                }
                want -= dot;
                prop_assert!((c.get(i, j) - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    /// Every reduced-precision GEMM stays within its coarse error budget of
    /// FP64 (normalized data, bounded k).
    #[test]
    fn gemm_reduced_precision_error_budget(seed in 0u64..500) {
        let (m, n, k) = (16usize, 16usize, 16usize);
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let a = tile_from(&(0..m * k).map(|_| rnd()).collect::<Vec<_>>(), m, k);
        let b = tile_from(&(0..n * k).map(|_| rnd()).collect::<Vec<_>>(), n, k);
        let mut c64 = Tile::zeros(m, n, StoragePrecision::F64);
        gemm_tile(Precision::Fp64, &a, &b, &mut c64);
        for (p, budget) in [
            (Precision::Fp32, 1e-5),
            (Precision::Tf32, 1e-2),
            (Precision::Fp16x32, 1e-2),
            (Precision::Bf16x32, 8e-2),
            (Precision::Fp16, 1e-1),
        ] {
            let mut c = Tile::zeros(m, n, StoragePrecision::F64);
            gemm_tile(p, &a, &b, &mut c);
            let e = gemm_relative_error(&c, &c64);
            prop_assert!(e < budget, "{p}: {e:e} > {budget:e}");
        }
    }

    /// POTRF then TRSM recovers a planted panel: X L^T = B round trip.
    #[test]
    fn trsm_recovers_planted_solution(seed in 0u64..500, n in 2usize..10, m in 1usize..8) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        // SPD tile
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let v = rnd() * 0.3;
                d[i * n + j] += v;
                d[j * n + i] += v;
            }
            d[i * n + i] += n as f64;
        }
        let mut l = tile_from(&d, n, n);
        potrf_tile(&mut l).unwrap();
        let x0v: Vec<f64> = (0..m * n).map(|_| rnd() * 2.0).collect();
        // b = x0 L^T
        let mut bv = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for t in 0..=j {
                    bv[i * n + j] += x0v[i * n + t] * l.get(j, t);
                }
            }
        }
        let mut b = tile_from(&bv, m, n);
        trsm_tile(Precision::Fp64, &l, &mut b);
        for i in 0..m {
            for j in 0..n {
                prop_assert!((b.get(i, j) - x0v[i * n + j]).abs() < 1e-8);
            }
        }
    }

    /// The cache-blocked GEMM is bit-identical to the naive reference at
    /// arbitrary shapes — including non-multiples of the MR/NR register
    /// blocks — on both the serial and the row-striped parallel path.
    #[test]
    fn blocked_gemm_bit_matches_reference(
        m in 1usize..80, n in 1usize..40, k in 1usize..40,
        seed in 0u64..500, par in 0usize..2,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let a: Vec<f64> = (0..m * k).map(|_| rnd()).collect();
        let b: Vec<f64> = (0..n * k).map(|_| rnd()).collect();
        let c0: Vec<f64> = (0..m * n).map(|_| rnd()).collect();
        let mut c_blk = c0.clone();
        blas::gemm_nt_f64_p(&a, &b, &mut c_blk, m, n, k, par == 1);
        let mut c_ref = c0;
        blas::reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
        prop_assert_eq!(c_blk, c_ref);
    }

    /// The blocked SYRK is bit-identical to the reference on the lower
    /// triangle and never touches the strict upper triangle.
    #[test]
    fn blocked_syrk_bit_matches_reference(
        m in 1usize..48, k in 1usize..32, seed in 0u64..500, par in 0usize..2,
    ) {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let a: Vec<f64> = (0..m * k).map(|_| rnd()).collect();
        let c0: Vec<f64> = (0..m * m).map(|_| rnd()).collect();
        let mut c_blk = c0.clone();
        blas::syrk_ln_f64_p(&a, m, k, &mut c_blk, par == 1);
        let mut c_ref = c0.clone();
        blas::reference_syrk_ln_f64(&a, m, k, &mut c_ref);
        prop_assert_eq!(&c_blk, &c_ref);
        for i in 0..m {
            for j in (i + 1)..m {
                prop_assert_eq!(c_blk[i * m + j], c0[i * m + j], "upper ({},{})", i, j);
            }
        }
    }

    /// A workspace warmed by one tile shape never leaks stale data into a
    /// later (possibly smaller) kernel: shared-workspace results match
    /// fresh-workspace results bit for bit.
    #[test]
    fn workspace_reuse_never_leaks_stale_data(
        m1 in 1usize..14, n1 in 1usize..14, k1 in 1usize..14,
        m2 in 1usize..14, n2 in 1usize..14, k2 in 1usize..14,
        seed in 0u64..300,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut tile = |r: usize, c: usize| {
            tile_from(&(0..r * c).map(|_| rnd()).collect::<Vec<_>>(), r, c)
        };
        let (a1, b1) = (tile(m1, k1), tile(n1, k1));
        let (a2, b2) = (tile(m2, k2), tile(n2, k2));
        let c2_0 = tile(m2, n2);
        for p in [Precision::Fp64, Precision::Fp32, Precision::Fp16] {
            let mut ws = Workspace::new();
            // warm the workspace with the first shape
            let mut c1 = Tile::zeros(m1, n1, StoragePrecision::F64);
            gemm_tile_ws(p, &a1, &b1, &mut c1, &mut ws, false);
            // second shape through the warm workspace vs a fresh one
            let mut c_shared = c2_0.clone();
            gemm_tile_ws(p, &a2, &b2, &mut c_shared, &mut ws, false);
            let mut c_fresh = c2_0.clone();
            gemm_tile_ws(p, &a2, &b2, &mut c_fresh, &mut Workspace::new(), false);
            prop_assert_eq!(&c_shared, &c_fresh, "{:?}", p);
        }
    }

    /// Forward + transposed-backward solve round-trips `Σ x = b` through
    /// the factored form.
    #[test]
    fn solve_roundtrip(seed in 0u64..300, n in 2usize..20) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let v = rnd() * 0.2;
                a[i * n + j] += v;
                a[j * n + i] += v;
            }
            a[i * n + i] += n as f64;
        }
        let a0 = a.clone();
        blas::potrf_f64(&mut a, n).unwrap();
        let x0: Vec<f64> = (0..n).map(|_| rnd() * 3.0).collect();
        // b = A x0 (using the symmetric original)
        let mut b = vec![0.0; n];
        for i in 0..n {
            for t in 0..n {
                b[i] += a0[i * n + t] * x0[t];
            }
        }
        blas::forward_solve_in_place(&a, n, &mut b);
        blas::backward_solve_trans_in_place(&a, n, &mut b);
        for (x, y) in b.iter().zip(&x0) {
            prop_assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    /// The lane-wide f64 GEMM is bit-identical to the row-dot oracle on
    /// ±0.0, subnormal and ±∞ inputs, up to `k = KC`, serial and parallel.
    #[test]
    fn lane_gemm_f64_bit_matches_oracle_on_special_values(
        (m, n, k) in lane_dims(), seed in 0u64..1000, par in 0usize..2,
    ) {
        let mut v = special_mix(seed);
        let a: Vec<f64> = (0..m * k).map(|_| v()).collect();
        let b: Vec<f64> = (0..n * k).map(|_| v()).collect();
        let c0: Vec<f64> = (0..m * n).map(|_| v()).collect();
        let mut c = c0.clone();
        blas::gemm_nt_f64_p(&a, &b, &mut c, m, n, k, par == 1);
        let mut c_ref = c0;
        blas::reference_gemm_nt_f64(&a, &b, &mut c_ref, m, n, k);
        prop_assert!(same_bits_f64(&c, &c_ref).is_ok(), "{:?}", same_bits_f64(&c, &c_ref));
    }

    /// The lane-wide f32 GEMM (FP32-class tiles) against its oracle.
    #[test]
    fn lane_gemm_f32_bit_matches_oracle_on_special_values(
        (m, n, k) in lane_dims(), seed in 0u64..1000, par in 0usize..2,
    ) {
        let mut v = special_mix(seed);
        let mut w = || v() as f32;
        let a: Vec<f32> = (0..m * k).map(|_| w()).collect();
        let b: Vec<f32> = (0..n * k).map(|_| w()).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| w()).collect();
        let mut c = c0.clone();
        blas::gemm_nt_f32_p(&a, &b, &mut c, m, n, k, par == 1);
        let mut c_ref = c0;
        blas::reference_gemm_nt_f32(&a, &b, &mut c_ref, m, n, k);
        prop_assert!(same_bits_f32(&c, &c_ref).is_ok(), "{:?}", same_bits_f32(&c, &c_ref));
    }

    /// SYRK is bit-identical to its oracle on the lower triangle and leaves
    /// the strict upper triangle untouched, bit for bit.
    #[test]
    fn lane_syrk_bit_matches_oracle_and_keeps_upper(
        (m, _n, k) in lane_dims(), seed in 0u64..1000, par in 0usize..2,
    ) {
        let mut v = special_mix(seed);
        let a: Vec<f64> = (0..m * k).map(|_| v()).collect();
        let c0: Vec<f64> = (0..m * m).map(|_| v()).collect();
        let mut c = c0.clone();
        blas::syrk_ln_f64_p(&a, m, k, &mut c, par == 1);
        let mut c_ref = c0.clone();
        blas::reference_syrk_ln_f64(&a, m, k, &mut c_ref);
        prop_assert!(same_bits_f64(&c, &c_ref).is_ok(), "{:?}", same_bits_f64(&c, &c_ref));
        for i in 0..m {
            for j in (i + 1)..m {
                prop_assert_eq!(c[i * m + j].to_bits(), c0[i * m + j].to_bits(), "upper ({},{})", i, j);
            }
        }
    }

    /// The row-lane TRSM is bit-identical to the row-dot oracle, f64 and
    /// f32, for `n` up to `KC` and row counts off every lane multiple.
    #[test]
    fn lane_trsm_bit_matches_oracle_on_special_values(
        (m, _n, n) in lane_dims(), seed in 0u64..1000, par in 0usize..2,
    ) {
        let mut v = special_mix(seed);
        // L: lower triangle from the mix, diagonal mostly away from zero.
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..i {
                l[i * n + j] = v();
            }
            let d = v();
            l[i * n + i] = if d.abs() < 0.5 && d.is_finite() && d != 0.0 { d + 2.0 } else { d };
        }
        let b0: Vec<f64> = (0..m * n).map(|_| v()).collect();
        let mut b = b0.clone();
        blas::trsm_rlt_f64_p(&l, n, &mut b, m, par == 1);
        let mut b_ref = b0.clone();
        blas::reference_trsm_rlt_f64(&l, n, &mut b_ref, m);
        prop_assert!(same_bits_f64(&b, &b_ref).is_ok(), "f64 {:?}", same_bits_f64(&b, &b_ref));

        let l32: Vec<f32> = l.iter().map(|&x| x as f32).collect();
        let b32_0: Vec<f32> = b0.iter().map(|&x| x as f32).collect();
        let mut b32 = b32_0.clone();
        blas::trsm_rlt_f32_p(&l32, n, &mut b32, m, par == 1);
        let mut b32_ref = b32_0;
        blas::reference_trsm_rlt_f32(&l32, n, &mut b32_ref, m);
        prop_assert!(same_bits_f32(&b32, &b32_ref).is_ok(), "f32 {:?}", same_bits_f32(&b32, &b32_ref));
    }

    /// The tile forward solve and log-det on a ragged factor with F64, F32
    /// and F16 storage tiles equal the dense route (`to_dense_lower` +
    /// `forward_solve_in_place` + the ln-sum) bit for bit, and a zero,
    /// negative or NaN pivot gives `None` from both.
    #[test]
    fn tile_solve_and_log_det_bit_match_dense(
        n in 1usize..70, nb in 1usize..24, seed in 0u64..1000, bad in 0usize..4,
    ) {
        let storages = [StoragePrecision::F64, StoragePrecision::F32, StoragePrecision::F16];
        let mut v = special_mix(seed);
        let vals: Vec<f64> = (0..n * n).map(|_| v()).collect();
        let pivot = seed as usize % n;
        let l = SymmTileMatrix::from_fn(
            n,
            nb,
            |i, j| match i.cmp(&j) {
                // The strict upper triangle of a diagonal tile is never read.
                std::cmp::Ordering::Less => f64::NAN,
                std::cmp::Ordering::Equal if i == pivot && bad > 0 => [0.0, -0.5, f64::NAN][bad - 1],
                std::cmp::Ordering::Equal => 1.5 + vals[i * n + i],
                std::cmp::Ordering::Greater => vals[i * n + j],
            },
            |i, j| storages[(seed as usize + 7 * i + 3 * j) % 3],
        );
        let dense = l.to_dense_lower();
        let mut b0: Vec<f64> = (0..n).map(|_| v()).collect();
        if seed % 2 == 0 {
            b0[0] = -0.0; // an empty row sum keeps `Iterator::sum`'s sign
        }
        let mut b_tiled = b0.clone();
        forward_solve_tiled(&l, &mut b_tiled);
        let mut b_dense = b0;
        blas::forward_solve_in_place(dense.data(), n, &mut b_dense);
        prop_assert!(same_bits_f64(&b_tiled, &b_dense).is_ok(), "{:?}", same_bits_f64(&b_tiled, &b_dense));

        let ln_sum = (0..n).try_fold(0.0, |s, i| {
            let d = dense.data()[i * n + i];
            (d > 0.0 && d.is_finite()).then(|| s + d.ln())
        });
        prop_assert_eq!(log_det_tiled(&l).map(f64::to_bits), ln_sum.map(f64::to_bits));
        if bad > 0 {
            prop_assert!(ln_sum.is_none());
        }
    }
}
