//! Criterion benches of the statistics substrate: Bessel `K_ν`, covariance
//! assembly (dense, and tiled on one runtime worker), synthetic-field
//! generation, and one log-likelihood evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mixedp_geostats::covariance::covariance_dense;
use mixedp_geostats::{
    bessel_k, covariance_tiles, gen_locations_2d, generate_field, loglik_exact, Matern2d, SqExp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_bessel(c: &mut Criterion) {
    let mut g = c.benchmark_group("bessel_k");
    for &(nu, x) in &[(0.5f64, 0.8f64), (1.0, 0.8), (1.0, 5.0), (2.3, 1.7)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("nu{nu}_x{x}")),
            &(nu, x),
            |b, &(nu, x)| b.iter(|| bessel_k(nu, x)),
        );
    }
    g.finish();
}

fn bench_covariance(c: &mut Criterion) {
    let mut g = c.benchmark_group("covariance_dense");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let locs = gen_locations_2d(400, &mut rng);
    g.bench_function("sqexp_400", |b| {
        b.iter(|| covariance_dense(&SqExp::new2d(), &locs, &[1.0, 0.1]))
    });
    g.bench_function("matern_400", |b| {
        b.iter(|| covariance_dense(&Matern2d, &locs, &[1.0, 0.1, 0.5]))
    });
    g.finish();
    let mut g = c.benchmark_group("covariance_tiles");
    g.sample_size(10);
    g.bench_function("sqexp_400_nb100", |b| {
        b.iter(|| covariance_tiles(&SqExp::new2d(), &locs, &[1.0, 0.1], 100, 1))
    });
    g.bench_function("matern_400_nb100", |b| {
        b.iter(|| covariance_tiles(&Matern2d, &locs, &[1.0, 0.1, 0.5], 100, 1))
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("statistics_pipeline");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(4);
    let locs = gen_locations_2d(256, &mut rng);
    let model = SqExp::new2d();
    g.bench_function("generate_field_256", |b| {
        let mut r = StdRng::seed_from_u64(5);
        b.iter(|| generate_field(&model, &locs, &[1.0, 0.05], &mut r))
    });
    let z = generate_field(&model, &locs, &[1.0, 0.05], &mut rng);
    g.bench_function("loglik_exact_256", |b| {
        b.iter(|| loglik_exact(&model, &locs, &[1.0, 0.05], &z).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_bessel, bench_covariance, bench_pipeline);
criterion_main!(benches);
