//! Σ(θ) bit for bit.
//!
//! * Pinned digests: an FNV-1a digest of every stored tile element of
//!   `covariance_tiles`, for each covariance model, at ragged sizes and at
//!   1, 2 and 4 threads. The pinned values were computed with the
//!   per-element assembly (one `covariance_entry` call per stored element,
//!   both triangles of diagonal tiles), so any change to the assembly that
//!   moves a single bit of Σ(θ) fails here. The Matérn orders cover
//!   Temme's μ = 0.25, −0.3 and −½, integer orders and, at β = 0.1,
//!   arguments `h/β` on both sides of 2.
//! * A property test: the tile assembly equals `covariance_entry` in every
//!   stored element, and its fused norms equal `tile_fro_norms`.

use mixedp_geostats::covariance::covariance_entry;
use mixedp_geostats::{
    covariance_tiles, covariance_tiles_with_norms, gen_locations_2d, gen_locations_3d,
    CovarianceModel, Location, Matern2d, PowExp, SqExp,
};
use mixedp_tile::{tile_fro_norms, SymmTileMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the tile shapes and the bits of every stored element, tiles
/// in lower-packed order.
fn digest(a: &SymmTileMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, j, t) in a.iter_lower() {
        eat(i as u64);
        eat(j as u64);
        eat(t.rows() as u64);
        eat(t.cols() as u64);
        for x in t.to_f64() {
            eat(x.to_bits());
        }
    }
    h
}

fn check(model: &dyn CovarianceModel, locs: &[Location], theta: &[f64], nb: usize, want: u64) {
    for threads in [1, 2, 4] {
        let got = digest(&covariance_tiles(model, locs, theta, nb, threads));
        assert_eq!(
            got,
            want,
            "{} θ={theta:?} n={} nb={nb} threads={threads}: digest {got:#018x}",
            model.label(),
            locs.len()
        );
    }
}

fn locs2d(n: usize, seed: u64) -> Vec<Location> {
    gen_locations_2d(n, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn sqexp_2d_sigma_is_pinned() {
    check(
        &SqExp::new2d(),
        &locs2d(203, 1),
        &[1.3, 0.05],
        32,
        0x3e4f_d94a_665d_f06a,
    );
}

#[test]
fn sqexp_3d_sigma_is_pinned() {
    let locs = gen_locations_3d(150, &mut StdRng::seed_from_u64(2));
    check(
        &SqExp::new3d(),
        &locs,
        &[0.8, 0.2],
        40,
        0x0a03_634a_9e68_28fa,
    );
}

#[test]
fn powexp_sigma_is_pinned() {
    check(
        &PowExp,
        &locs2d(181, 3),
        &[1.1, 0.15, 1.4],
        48,
        0x8748_fead_00c8_0b4f,
    );
}

#[test]
fn matern_sigma_is_pinned() {
    let locs = locs2d(157, 4);
    let pinned: [(f64, u64); 5] = [
        (0.25, 0x6173_3875_0ee8_85fa),
        (0.5, 0x75c4_2c79_5f80_4b5f),
        (1.0, 0x67d9_7ebd_7672_3027),
        (1.7, 0x734d_3894_4f66_8a1c),
        (2.5, 0xba40_7237_2f7d_7b08),
    ];
    for (nu, want) in pinned {
        check(&Matern2d, &locs, &[1.2, 0.1, nu], 37, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every stored element — both triangles of diagonal tiles, ragged
    /// trailing tiles — is `covariance_entry`'s value bit for bit, and the
    /// fused norms are `tile_fro_norms`' bit for bit.
    #[test]
    fn tile_assembly_is_covariance_entry(
        n in 1usize..90,
        nb in 1usize..40,
        seed in 0u64..1_000,
        which in 0usize..4,
        threads in 1usize..4,
        s2 in 0.2f64..3.0,
        beta in 0.02f64..0.5,
        shape in prop_oneof![Just(0.5), Just(1.0), Just(2.0), 0.05f64..3.0],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, theta, locs): (Box<dyn CovarianceModel>, Vec<f64>, Vec<Location>) = match which {
            0 => (Box::new(SqExp::new2d()), vec![s2, beta], gen_locations_2d(n, &mut rng)),
            1 => (Box::new(SqExp::new3d()), vec![s2, beta], gen_locations_3d(n, &mut rng)),
            2 => (Box::new(PowExp), vec![s2, beta, shape.min(2.0)], gen_locations_2d(n, &mut rng)),
            _ => (Box::new(Matern2d), vec![s2, beta, shape], gen_locations_2d(n, &mut rng)),
        };
        let model = model.as_ref();
        let (sigma, norms) = covariance_tiles_with_norms(model, &locs, &theta, nb, threads)
            .expect("θ is in the domain");
        for (ti, tj, t) in sigma.iter_lower() {
            for ii in 0..t.rows() {
                for jj in 0..t.cols() {
                    let (i, j) = (ti * nb + ii, tj * nb + jj);
                    let want = covariance_entry(model, &locs, i, j, &theta);
                    prop_assert_eq!(
                        t.get(ii, jj).to_bits(),
                        want.to_bits(),
                        "{} θ={:?} n={} nb={} ({}, {})", model.label(), theta, n, nb, i, j
                    );
                }
            }
        }
        let want = tile_fro_norms(&sigma);
        for i in 0..sigma.nt() {
            for j in 0..=i {
                prop_assert_eq!(norms.tile(i, j).to_bits(), want.tile(i, j).to_bits());
            }
        }
        prop_assert_eq!(norms.global().to_bits(), want.global().to_bits());
    }
}
