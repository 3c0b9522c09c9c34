//! The workloads, their seeded inputs, and the untraced (end-to-end) run.
//!
//! Both workloads evaluate the 2D Matérn log-likelihood at θ = (1, 0.1,
//! 0.5) on jittered-grid locations; why these two, and why the MLE fit and
//! the distributed factorization are measured only in traced runs, is in
//! `perfbench/NOTES.md`. The distributed path's correctness checks run on
//! every run.

use crate::report::{median, Report};
use crate::rss;
use crate::stages;
use mixedp_core::{
    factorize_mp, factorize_mp_distributed, simulate_cholesky, CholeskySimOptions, DistStats,
    MpBackend, PrecisionMap, Strategy, WirePolicy,
};
use mixedp_fp::Precision;
use mixedp_geostats::{
    covariance_tiles, estimate, gen_locations_2d, generate_field, loglik_exact, CovarianceModel,
    Location, LoglikBackend, Matern2d, MleConfig, MleResult,
};
use mixedp_gpusim::{ClusterSpec, NodeSpec, SimReport};
use mixedp_tile::{tile_fro_norms, Grid2d, SymmTileMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// True parameters of the generated field: (σ², β, ν).
pub const THETA: [f64; 3] = [1.0, 0.1, 0.5];

/// How many times a run repeats set-up; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub n: usize,
    pub nb: usize,
    pub u_req: f64,
    pub threads: usize,
    /// Largest accepted |ℓ − ℓ_exact| / |ℓ_exact|: ten times `u_req`.
    pub rel_tol: f64,
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "loglik-tight",
        n: 2048,
        nb: 256,
        u_req: 1e-9,
        threads: 2,
        rel_tol: 1e-8,
    },
    Spec {
        name: "loglik-loose",
        n: 1024,
        nb: 128,
        u_req: 1e-4,
        threads: 2,
        rel_tol: 1e-3,
    },
];

/// The MLE fit every traced run measures, in the Fig 5 setting: n=400,
/// nb=64, u_req=1e-9, one thread, `MleConfig::paper_defaults(3)` with tol
/// 1e-9 and a 40-evaluation budget.
pub const FIT: Spec = Spec {
    name: "fit",
    n: 400,
    nb: 64,
    u_req: 1e-9,
    threads: 1,
    rel_tol: 1e-8,
};
const FIT_BUDGET: usize = 40;

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seeded inputs plus the untimed FP64 reference ℓ at θ.
pub struct Inputs {
    pub locs: Vec<Location>,
    pub z: Vec<f64>,
    pub loglik_exact: f64,
}

pub fn inputs(n: usize, seed: u64) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let locs = gen_locations_2d(n, &mut rng);
    let z = generate_field(&Matern2d, &locs, &THETA, &mut rng);
    let loglik_exact = exact(&locs, &THETA, &z)?;
    Ok(Inputs {
        locs,
        z,
        loglik_exact,
    })
}

pub fn exact(locs: &[Location], theta: &[f64], z: &[f64]) -> Result<f64, String> {
    loglik_exact(&Matern2d, locs, theta, z).ok_or_else(|| "exact reference failed".into())
}

pub fn rel_err(ll: f64, exact: f64) -> f64 {
    ((ll - exact) / exact).abs()
}

/// Check ℓ against the FP64 reference within the spec's tolerance.
pub fn check_loglik(report: &mut Report, name: &str, spec: &Spec, ll: f64, exact: f64) -> f64 {
    let err = rel_err(ll, exact);
    report.check(name, err <= spec.rel_tol, || {
        format!("rel err {err:e} above {:e}", spec.rel_tol)
    });
    err
}

/// `MpBackend` as the MLE driver sees it, counting evaluations and the
/// ones that failed (returned `None`).
pub struct CountingBackend {
    pub inner: MpBackend,
    pub evals: AtomicU64,
    pub failed: AtomicU64,
}

impl CountingBackend {
    pub fn new(spec: &Spec) -> Self {
        CountingBackend {
            inner: MpBackend::new(spec.u_req, spec.nb, spec.threads),
            evals: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }
}

impl LoglikBackend for CountingBackend {
    fn loglik(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<f64> {
        self.evals.fetch_add(1, Ordering::Relaxed);
        let r = self.inner.loglik(model, locs, theta, z);
        if r.is_none() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// One [`FIT`] fit; `Err` when it produced no finite estimate.
pub fn fit(inp: &Inputs, backend: &CountingBackend) -> Result<MleResult, String> {
    let mut cfg = MleConfig::paper_defaults(3);
    cfg.optimizer.tol = 1e-9;
    cfg.optimizer.max_evals = FIT_BUDGET;
    let r = estimate(&Matern2d, &inp.locs, &inp.z, &cfg, backend);
    if r.loglik.is_finite() && r.theta_hat.iter().all(|t| t.is_finite()) {
        Ok(r)
    } else {
        Err(format!(
            "fit ended without a finite estimate ({:?})",
            r.theta_hat
        ))
    }
}

/// Σ(θ) in FP64 tiles and its precision map, as the backend builds them.
pub fn sigma_and_map(spec: &Spec, inp: &Inputs) -> (SymmTileMatrix, PrecisionMap) {
    let sigma = covariance_tiles(&Matern2d, &inp.locs, &THETA, spec.nb, spec.threads);
    let map = PrecisionMap::from_norms(
        &tile_fro_norms(&sigma),
        spec.u_req,
        &Precision::ADAPTIVE_SET,
    );
    (sigma, map)
}

/// Factor `a` in place over the 2×2 grid under `policy`.
pub fn factor_dist(
    a: &mut SymmTileMatrix,
    map: &PrecisionMap,
    policy: WirePolicy,
) -> Result<DistStats, String> {
    factorize_mp_distributed(a, map, &Grid2d::new(2, 2), policy).map_err(|e| e.to_string())
}

/// The DES replay of `map`: four single-GPU Summit nodes, whose squarest
/// process grid is the 2×2 of the numerical run.
pub fn simulate(spec: &Spec, map: &PrecisionMap) -> SimReport {
    let cluster = ClusterSpec::new(NodeSpec::summit().single_gpu(), 4);
    simulate_cholesky(
        map,
        &cluster,
        CholeskySimOptions {
            nb: spec.nb,
            strategy: Strategy::Auto,
        },
    )
}

/// The distributed path's checks: the automatic-wire factor gives ℓ within
/// tolerance, a TTC-policy factor is bit-identical to the shared-memory
/// factor of the same map (the `bench_wire` invariant), and the DES runs.
/// Returns the automatic-wire statistics.
pub fn check_dist(spec: &Spec, inp: &Inputs, report: &mut Report) -> Result<DistStats, String> {
    let (sigma, map) = sigma_and_map(spec, inp);
    let mut auto = sigma.clone();
    let stats = factor_dist(&mut auto, &map, WirePolicy::Auto)?;
    let l = auto.to_dense_lower();
    let ll =
        stages::loglik_from_dense(l.data(), spec.n, &inp.z).ok_or("distributed factor unusable")?;
    check_loglik(
        report,
        "dist_loglik_within_tolerance",
        spec,
        ll,
        inp.loglik_exact,
    );
    let mut ttc = sigma.clone();
    factor_dist(&mut ttc, &map, WirePolicy::Ttc)?;
    let mut shared = sigma;
    factorize_mp(&mut shared, &map, spec.threads).map_err(|e| e.to_string())?;
    let n = spec.n;
    let same =
        (0..n).all(|i| (0..=i).all(|j| ttc.get(i, j).to_bits() == shared.get(i, j).to_bits()));
    report.check("ttc_bit_identical_to_shared", same, || {
        "TTC factor differs from shared memory".into()
    });
    let sim = simulate(spec, &map);
    report.check(
        "sim_sane",
        sim.makespan_s > 0.0 && sim.nic_bytes > 0,
        || format!("makespan {} nic bytes {}", sim.makespan_s, sim.nic_bytes),
    );
    Ok(stats)
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Fill `report` with the end-to-end metrics of one untraced run: set-up
/// and repeated `loglik_detailed` calls, then the checks.
pub fn run_e2e(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let inp = inputs(spec.n, seed)?;
    let rss_reset = rss::reset_peak(Path::new(rss::CLEAR_REFS));
    report.info("rss_reset", rss_reset as u8 as f64);
    let eval = |be: &MpBackend| be.loglik_detailed(&Matern2d, &inp.locs, &THETA, &inp.z);

    let mut setup = Vec::new();
    let mut first: Option<f64> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let be = MpBackend::new(spec.u_req, spec.nb, spec.threads);
        let r = eval(&be);
        setup.push(secs(t0));
        report.attempt(r.is_some());
        if let Some((ll, _)) = r {
            first.get_or_insert(ll);
        }
    }
    let ll = first.ok_or("every set-up evaluation failed")?;

    let be = MpBackend::new(spec.u_req, spec.nb, spec.threads);
    let mut same = true;
    let mut times = Vec::new();
    let t_loop = Instant::now();
    while times.len() < 3 || secs(t_loop) < seconds {
        let t0 = Instant::now();
        let r = eval(&be);
        let dt = secs(t0);
        report.attempt(r.is_some());
        let Some((l, _)) = r else { continue };
        same &= l.to_bits() == ll.to_bits();
        times.push(dt);
    }
    let peak = rss::peak_mib(Path::new(rss::STATUS)).ok_or("no peak RSS: /proc unavailable")?;
    report.metric("setup_s", median(&setup), "s");
    report.metric("op_s", median(&times), "s");
    report.metric("peak_rss_mb", peak, "MiB");
    report.info("op_samples", times.len() as f64);

    report.check("loglik_repeats_bitwise", same, || {
        "ℓ changed between evaluations".into()
    });
    let err = check_loglik(
        report,
        "loglik_within_tolerance",
        spec,
        ll,
        inp.loglik_exact,
    );
    report.info("loglik_rel_err", err);
    let replay = stages::replay(spec, &inp.locs, &THETA, &inp.z)?;
    report.check(
        "replay_bit_identical",
        replay.loglik.to_bits() == ll.to_bits(),
        || format!("replay ℓ {} vs backend ℓ {ll}", replay.loglik),
    );
    for (p, c) in tile_counts(&replay.map) {
        report.info(format!("tiles_{}", prec_label(p)), c as f64);
    }
    let stats = check_dist(spec, &inp, report)?;
    report.info("wire_bytes", stats.wire_bytes as f64);
    report.info("wire_messages", stats.messages as f64);
    Ok(())
}

/// The map's tile counts (lower triangle) per kernel precision.
pub fn tile_counts(map: &PrecisionMap) -> [(Precision, usize); 4] {
    let nt = map.nt();
    Precision::ADAPTIVE_SET.map(|p| {
        let c = (0..nt)
            .flat_map(|i| (0..=i).map(move |j| (i, j)))
            .filter(|&(i, j)| map.kernel(i, j) == p)
            .count();
        (p, c)
    })
}

pub fn prec_label(p: Precision) -> &'static str {
    match p {
        Precision::Fp64 => "fp64",
        Precision::Fp32 => "fp32",
        Precision::Fp16x32 => "fp16_32",
        Precision::Fp16 => "fp16",
        Precision::Bf16x32 => "bf16_32",
        Precision::Tf32 => "tf32",
    }
}
