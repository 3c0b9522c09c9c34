//! Tiled triangular solves against a factored [`SymmTileMatrix`] — the
//! post-factorization stage of the MLE (`v = L⁻¹Z`) and of the iterative
//! refinement solver, operating tile-by-tile so each block is read in its
//! own storage precision exactly once.

use crate::blas;
use mixedp_tile::{SymmTileMatrix, Tile, TileBuf};

/// `s + Σ_c t[i, c]·x[c]` over `c < x.len()`, added left to right into the
/// one running sum, each element widened to `f64` as [`Tile::get`] does.
fn row_dot_acc(t: &Tile, i: usize, x: &[f64], mut s: f64) -> f64 {
    let row = i * t.cols()..i * t.cols() + x.len();
    match t.buf() {
        TileBuf::F64(v) => {
            for (a, y) in v[row].iter().zip(x) {
                s += a * y;
            }
        }
        TileBuf::F32(v) => {
            for (&a, y) in v[row].iter().zip(x) {
                s += a as f64 * y;
            }
        }
        TileBuf::F16(v) => {
            for (a, y) in v[row].iter().zip(x) {
                s += a.to_f64() * y;
            }
        }
    }
    s
}

/// Solve `L y = b` in place on `b`, where `l` holds the lower Cholesky
/// factor tile-wise (as produced by the mixed-precision factorization).
///
/// Each row keeps one running sum across its tiles in column order, starts
/// it where `Iterator::sum` starts, and ends with one subtraction and one
/// division — the arithmetic of [`blas::forward_solve_in_place`] on
/// `l.to_dense_lower()`, so `y` is bit-identical to it with no `n × n` copy.
pub fn forward_solve_tiled(l: &SymmTileMatrix, b: &mut [f64]) {
    assert_eq!(b.len(), l.n());
    let nb = l.nb();
    // `Iterator::sum`'s starting value (−0.0): it fixes the sign of an
    // empty row's `b − s`.
    let zero: f64 = std::iter::empty::<f64>().sum();
    for k in 0..l.nt() {
        let off = k * nb;
        let d = l.tile(k, k);
        for i in 0..d.rows() {
            let mut s = zero;
            for j in 0..k {
                s = row_dot_acc(l.tile(k, j), i, &b[j * nb..(j + 1) * nb], s);
            }
            s = row_dot_acc(d, i, &b[off..off + i], s);
            b[off + i] = (b[off + i] - s) / d.get(i, i);
        }
    }
}

/// `ln det L = Σ ln L_ii` for the tile factor `l`, summed in index order
/// (`log|Σ|` is twice this); `None` on a non-positive or non-finite pivot.
pub fn log_det_tiled(l: &SymmTileMatrix) -> Option<f64> {
    let mut s = 0.0;
    for k in 0..l.nt() {
        let d = l.tile(k, k);
        for i in 0..d.rows() {
            let x = d.get(i, i);
            if x <= 0.0 || !x.is_finite() {
                return None;
            }
            s += x.ln();
        }
    }
    Some(s)
}

/// Solve `Lᵀ x = b` in place on `b` (the backward stage of `Σ x = c`).
pub fn backward_solve_trans_tiled(l: &SymmTileMatrix, b: &mut [f64]) {
    let n = l.n();
    assert_eq!(b.len(), n);
    let nb = l.nb();
    let nt = l.nt();
    for k in (0..nt).rev() {
        let rk = l.tile_rows(k);
        let off_k = k * nb;
        // subtract contributions of already-solved blocks below:
        // b_k -= (L_ik)ᵀ x_i for i > k
        for i in (k + 1)..nt {
            let t = l.tile(i, k); // rows of block i, cols of block k
            let off_i = i * nb;
            for c in 0..t.cols() {
                let mut s = 0.0;
                for r in 0..t.rows() {
                    s += t.get(r, c) * b[off_i + r];
                }
                b[off_k + c] -= s;
            }
        }
        let d = l.tile(k, k).to_f64();
        blas::backward_solve_trans_in_place(&d, rk, &mut b[off_k..off_k + rk]);
    }
}

/// Solve the full SPD system `Σ x = b` through the factor: forward then
/// transposed-backward substitution (allocating).
pub fn spd_solve_tiled(l: &SymmTileMatrix, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    forward_solve_tiled(l, &mut x);
    backward_solve_trans_tiled(l, &mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_fp::StoragePrecision;
    use mixedp_tile::DenseMatrix;

    fn spd(n: usize) -> DenseMatrix {
        DenseMatrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { n as f64 * 0.3 } else { 0.0 }
        })
    }

    fn factor_tiled(a: &DenseMatrix, nb: usize) -> SymmTileMatrix {
        let n = a.rows();
        let mut d = a.clone();
        blas::potrf_f64(d.data_mut(), n).unwrap();
        // zero strict upper, then tile it
        for i in 0..n {
            for j in (i + 1)..n {
                d.set(i, j, 0.0);
            }
        }
        SymmTileMatrix::from_fn(n, nb, |i, j| d.get(i, j), |_, _| StoragePrecision::F64)
    }

    #[test]
    fn forward_matches_dense_solver() {
        let n = 23; // ragged tiles
        let a = spd(n);
        let l = factor_tiled(&a, 5);
        let b0: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let mut b_tiled = b0.clone();
        forward_solve_tiled(&l, &mut b_tiled);
        // dense reference
        let mut d = a.clone();
        blas::potrf_f64(d.data_mut(), n).unwrap();
        let mut b_dense = b0;
        blas::forward_solve_in_place(d.data(), n, &mut b_dense);
        for (x, y) in b_tiled.iter().zip(&b_dense) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn spd_solve_roundtrip() {
        let n = 30;
        let a = spd(n);
        let l = factor_tiled(&a, 8);
        let x0: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let b = a.matvec(&x0);
        let x = spd_solve_tiled(&l, &b);
        for (u, v) in x.iter().zip(&x0) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn backward_matches_dense_solver() {
        let n = 17;
        let a = spd(n);
        let l = factor_tiled(&a, 4);
        let b0: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut b_tiled = b0.clone();
        backward_solve_trans_tiled(&l, &mut b_tiled);
        let mut d = a.clone();
        blas::potrf_f64(d.data_mut(), n).unwrap();
        let mut b_dense = b0;
        blas::backward_solve_trans_in_place(d.data(), n, &mut b_dense);
        for (x, y) in b_tiled.iter().zip(&b_dense) {
            assert!((x - y).abs() < 1e-11);
        }
    }
}
