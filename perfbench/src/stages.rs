//! A staged replay of one likelihood evaluation through the library's
//! public stage functions, each wrapped in a span of the benchmark's own.
//!
//! The stage order and arguments are those of
//! `MpBackend::loglik_detailed`, so the replay's ℓ equals the backend's bit
//! for bit (a check on every run).

use crate::workloads::Spec;
use mixedp_core::{
    factorize_mp_recovering, plan_conversions, FactorOptions, FactorStats, PrecisionMap,
};
use mixedp_fp::Precision;
use mixedp_geostats::covariance_tiles;
use mixedp_geostats::loglik::assemble_loglik;
use mixedp_geostats::{Location, Matern2d};
use mixedp_kernels::blas;
use mixedp_obs as obs;
use mixedp_tile::tile_fro_norms;

/// One stage's span on the telemetry clock (`obs::now_ns`).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One replayed evaluation.
pub struct Replay {
    pub loglik: f64,
    pub spans: Vec<Span>,
    /// Start and end of the whole replay, temporaries' drops included;
    /// the part no stage covers is the unattributed remainder.
    pub wall_ns: (u64, u64),
    pub map: PrecisionMap,
    pub stc_senders: usize,
    pub factor: FactorStats,
}

impl Replay {
    pub fn span(&self, stage: &str) -> Span {
        *self
            .spans
            .iter()
            .find(|s| s.stage == stage)
            .expect("every stage has a span")
    }

    pub fn wall_s(&self) -> f64 {
        (self.wall_ns.1 - self.wall_ns.0) as f64 * 1e-9
    }
}

/// Log-determinant and quadratic form of a dense lower factor, as the
/// backend computes them; `None` on a non-positive pivot or non-finite
/// result.
pub fn loglik_from_dense(l: &[f64], n: usize, z: &[f64]) -> Option<f64> {
    let mut log_det = 0.0;
    for i in 0..n {
        let d = l[i * n + i];
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        log_det += d.ln();
    }
    log_det *= 2.0;
    let mut v = z.to_vec();
    blas::forward_solve_in_place(l, n, &mut v);
    let v2: f64 = v.iter().map(|x| x * x).sum();
    v2.is_finite().then(|| assemble_loglik(n, log_det, v2))
}

/// Replay one evaluation of `ℓ(θ)` stage by stage.
pub fn replay(spec: &Spec, locs: &[Location], theta: &[f64], z: &[f64]) -> Result<Replay, String> {
    let n = locs.len();
    let wall_start = obs::now_ns();
    let mut spans = Vec::new();
    let mut stage = |stage: &'static str, start_ns: u64| {
        spans.push(Span {
            stage,
            start_ns,
            end_ns: obs::now_ns(),
        })
    };
    let t = obs::now_ns();
    let mut sigma = covariance_tiles(&Matern2d, locs, theta, spec.nb, spec.threads);
    stage("assemble", t);
    let t = obs::now_ns();
    let norms = tile_fro_norms(&sigma);
    stage("norms", t);
    let t = obs::now_ns();
    let map = PrecisionMap::from_norms(&norms, spec.u_req, &Precision::ADAPTIVE_SET);
    stage("map", t);
    let t = obs::now_ns();
    let stc_senders = plan_conversions(&map).stc_count();
    stage("plan", t);
    // Configured exactly as `MpBackend` configures it.
    let opts = FactorOptions {
        nthreads: spec.threads,
        renarrow_storage: true,
        ..Default::default()
    };
    let t = obs::now_ns();
    let factor = factorize_mp_recovering(&mut sigma, &map, &opts);
    stage("factor", t);
    let factor = factor.map_err(|e| e.to_string())?;
    let t = obs::now_ns();
    let l = sigma.to_dense_lower();
    stage("dense_copy", t);
    let t = obs::now_ns();
    let loglik = loglik_from_dense(l.data(), n, z);
    stage("solve", t);
    let loglik = loglik.ok_or("non-positive pivot or non-finite solve")?;
    drop((l, sigma, norms));
    let wall_ns = (wall_start, obs::now_ns());
    Ok(Replay {
        loglik,
        spans,
        wall_ns,
        map,
        stc_senders,
        factor,
    })
}
