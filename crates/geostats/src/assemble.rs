//! Parallel covariance-matrix tile generation through the task runtime.
//!
//! Every likelihood evaluation of the MLE loop builds `Σ(θ)` tile-wise
//! before factoring it — the loop's second hot phase after the Cholesky
//! itself (paper §V's matrix-generation phase). Tiles are mutually
//! independent, so the phase maps onto a trivial dependency-free
//! [`TaskGraph`] (one task per lower-triangle tile) executed by the same
//! work-stealing scheduler that runs the factorization: generation
//! saturates the workers, and the per-tile cost imbalance (ragged trailing
//! tiles, diagonal vs off-diagonal) is absorbed by stealing.
//!
//! Every entry is computed by the same [`covariance_entry`] the serial
//! builder uses, and each task writes a disjoint tile, so the result is
//! bit-identical for every thread count.

use crate::covariance::{covariance_entry, CovarianceModel};
use crate::locations::Location;
use mixedp_fp::StoragePrecision;
use mixedp_runtime::{execute, ExecOptions, TaskGraph};
use mixedp_tile::{SymmTileMatrix, Tile};
use std::sync::Mutex;

/// Build the covariance matrix `Σ(θ)` in FP64 tiles of size `nb`, filling
/// tiles over `nthreads` workers of the task runtime (0 means one). Bit-identical to
/// [`SymmTileMatrix::from_fn`] with [`covariance_entry`] at any thread
/// count.
pub fn covariance_tiles(
    model: &dyn CovarianceModel,
    locs: &[Location],
    theta: &[f64],
    nb: usize,
    nthreads: usize,
) -> SymmTileMatrix {
    let n = locs.len();
    assert!(n > 0 && nb > 0);
    let nt = n.div_ceil(nb);
    let coords: Vec<(usize, usize)> = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();

    // One dependency-free task per tile. Priority = tile area, so the
    // ragged (smaller) trailing tiles are scheduled last and the tail of
    // the run stays balanced.
    let mut graph = TaskGraph::with_capacity(coords.len());
    for &(i, j) in &coords {
        let r = (n - i * nb).min(nb);
        let c = (n - j * nb).min(nb);
        graph.add_task(vec![], (r * c) as i64);
    }

    let slots: Vec<Mutex<Option<Tile>>> = coords.iter().map(|_| Mutex::new(None)).collect();
    let generate = |(): &mut (), id: usize| {
        let (i, j) = coords[id];
        let r = (n - i * nb).min(nb);
        let c = (n - j * nb).min(nb);
        let mut data = Vec::with_capacity(r * c);
        for ii in 0..r {
            for jj in 0..c {
                data.push(covariance_entry(
                    model,
                    locs,
                    i * nb + ii,
                    j * nb + jj,
                    theta,
                ));
            }
        }
        *slots[id].lock().unwrap() = Some(Tile::from_f64(r, c, &data, StoragePrecision::F64));
    };

    execute(&graph, nthreads, |_| (), generate, &ExecOptions::default())
        .expect("covariance tile generation panicked");

    let tiles: Vec<Tile> = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("tile not generated"))
        .collect();
    SymmTileMatrix::from_tiles(n, nb, tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::SqExp;
    use crate::locations::gen_locations_2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (SqExp, Vec<Location>) {
        let mut rng = StdRng::seed_from_u64(11);
        (SqExp::new2d(), gen_locations_2d(n, &mut rng))
    }

    #[test]
    fn matches_from_fn_bit_exactly_any_thread_count() {
        let (model, locs) = setup(53); // ragged trailing tiles at nb=16
        let theta = [1.3, 0.2];
        let reference = SymmTileMatrix::from_fn(
            locs.len(),
            16,
            |i, j| covariance_entry(&model, &locs, i, j, &theta),
            |_, _| StoragePrecision::F64,
        );
        for threads in [1, 2, 4, 8] {
            let got = covariance_tiles(&model, &locs, &theta, 16, threads);
            assert_eq!(got.nt(), reference.nt());
            for i in 0..locs.len() {
                for j in 0..=i {
                    assert_eq!(
                        got.get(i, j),
                        reference.get(i, j),
                        "threads={threads} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_tile_matrix() {
        let (model, locs) = setup(7);
        let theta = [1.0, 0.1];
        let a = covariance_tiles(&model, &locs, &theta, 32, 4);
        assert_eq!(a.nt(), 1);
        // diagonal carries the nugget
        assert!(a.get(0, 0) > 1.0);
        assert_eq!(a.get(3, 1), a.get(1, 3));
    }
}
