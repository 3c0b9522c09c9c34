//! Covariance-matrix generation as a tile task on the task runtime.
//!
//! Every likelihood evaluation of the MLE loop builds `Σ(θ)` tile-wise
//! before factoring it — the largest stage of an evaluation (paper §V's
//! matrix-generation phase). Tiles are mutually independent, so the phase
//! maps onto a trivial dependency-free [`TaskGraph`] (one task per
//! lower-triangle tile) executed by the same work-stealing scheduler that
//! runs the factorization: generation saturates the workers, and the
//! per-tile cost imbalance (ragged trailing tiles, diagonal vs
//! off-diagonal) is absorbed by stealing.
//!
//! Each task is one [`covariance_block`]: the model's tile kernel computes
//! its θ-only terms once per tile, a diagonal tile computes its lower
//! triangle once and mirrors it, and the task returns its tile's squared
//! Frobenius norm so the precision map's norms cost no second pass. Every
//! entry is bit-equal to [`covariance_entry`](crate::covariance::covariance_entry)
//! and each task writes a disjoint tile, so the result is bit-identical for
//! every thread count.

use crate::covariance::{covariance_block, CovarianceModel};
use crate::locations::Location;
use mixedp_runtime::{execute, ExecOptions, TaskGraph};
use mixedp_tile::{NormMap, SymmTileMatrix, Tile, TileBuf};
use std::sync::Mutex;

/// Build the covariance matrix `Σ(θ)` in FP64 tiles of size `nb`, and its
/// tile norms, filling tiles over `nthreads` workers of the task runtime
/// (0 means one). The norms are bit-equal to [`mixedp_tile::tile_fro_norms`]
/// of the result. `None` when `θ` is outside the model's domain
/// ([`CovarianceModel::in_domain`]).
pub fn covariance_tiles_with_norms(
    model: &dyn CovarianceModel,
    locs: &[Location],
    theta: &[f64],
    nb: usize,
    nthreads: usize,
) -> Option<(SymmTileMatrix, NormMap)> {
    if !model.in_domain(theta) {
        return None;
    }
    let n = locs.len();
    assert!(n > 0 && nb > 0);
    let nt = n.div_ceil(nb);
    let coords: Vec<(usize, usize)> = (0..nt).flat_map(|i| (0..=i).map(move |j| (i, j))).collect();
    let span = |i: usize| i * nb..(i * nb + nb).min(n);

    // One dependency-free task per tile. Priority = tile area, so the
    // ragged (smaller) trailing tiles are scheduled last and the tail of
    // the run stays balanced.
    let mut graph = TaskGraph::with_capacity(coords.len());
    for &(i, j) in &coords {
        graph.add_task(vec![], (span(i).len() * span(j).len()) as i64);
    }

    let slots: Vec<Mutex<Option<(Tile, f64)>>> = coords.iter().map(|_| Mutex::new(None)).collect();
    let generate = |(): &mut (), id: usize| {
        let (i, j) = coords[id];
        let (rows, cols) = (&locs[span(i)], &locs[span(j)]);
        let mut data = vec![0.0; rows.len() * cols.len()];
        covariance_block(model, rows, cols, theta, i == j, &mut data);
        let tile = Tile::from_buf(rows.len(), cols.len(), TileBuf::F64(data));
        let sq = tile.fro_norm_sq();
        *slots[id].lock().unwrap() = Some((tile, sq));
    };

    execute(&graph, nthreads, |_| (), generate, &ExecOptions::default())
        .expect("covariance tile generation panicked");

    let (tiles, sq): (Vec<Tile>, Vec<f64>) = slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("tile not generated"))
        .unzip();
    Some((
        SymmTileMatrix::from_tiles(n, nb, tiles),
        NormMap::from_tile_sq(nt, sq),
    ))
}

/// [`covariance_tiles_with_norms`] without the norms: `Σ(θ)` in FP64 tiles,
/// bit-identical to [`SymmTileMatrix::from_fn`] with
/// [`covariance_entry`](crate::covariance::covariance_entry) at any thread
/// count.
///
/// # Panics
/// Panics when `θ` is outside the model's domain.
pub fn covariance_tiles(
    model: &dyn CovarianceModel,
    locs: &[Location],
    theta: &[f64],
    nb: usize,
    nthreads: usize,
) -> SymmTileMatrix {
    match covariance_tiles_with_norms(model, locs, theta, nb, nthreads) {
        Some((sigma, _)) => sigma,
        None => panic!("θ = {theta:?} is outside the {} domain", model.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::{covariance_entry, SqExp};
    use crate::locations::gen_locations_2d;
    use mixedp_fp::StoragePrecision;
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
