//! The mixed-precision log-likelihood backend: plugs the adaptive
//! mixed-precision Cholesky into the geostatistics MLE driver (the full
//! application pipeline of the paper — every likelihood evaluation builds
//! `Σ(θ)` tile-wise under the precision map and factors it with Algorithm 1).

use crate::factorize::{factorize_mp_recovering, FactorOptions, FactorStats};
use crate::precision_map::PrecisionMap;
use mixedp_fp::Precision;
use mixedp_geostats::assemble::covariance_tiles_with_norms;
use mixedp_geostats::loglik::{assemble_loglik, LoglikBackend};
use mixedp_geostats::{CovarianceModel, Location};
use mixedp_kernels::{forward_solve_tiled, log_det_tiled};
use mixedp_obs as obs;
use mixedp_tile::{NormMap, SymmTileMatrix};

/// Adaptive mixed-precision likelihood backend.
///
/// `accuracy` is the application-required accuracy `u_req` of the
/// tile-selection rule — the x-axis of Figs 5–6 (1e-4 … 1e-12).
#[derive(Debug, Clone)]
pub struct MpBackend {
    pub accuracy: f64,
    /// Tile size for the covariance matrix.
    pub nb: usize,
    /// Worker threads for the factorization (1 = deterministic serial).
    pub threads: usize,
    /// Candidate precisions (defaults to the paper's adaptive set).
    pub candidates: Vec<Precision>,
    /// Recovery budget: when the adaptive map proves too aggressive for
    /// `Σ(θ)` (non-SPD pivot), the factorization escalates the offending
    /// tiles toward FP64 and retries up to this many times before the
    /// likelihood evaluation reports `None`. `0` restores the old
    /// fail-on-first-breakdown behavior.
    pub escalation_budget: u32,
}

impl MpBackend {
    pub fn new(accuracy: f64, nb: usize, threads: usize) -> Self {
        MpBackend {
            accuracy,
            nb,
            threads,
            candidates: Precision::ADAPTIVE_SET.to_vec(),
            escalation_budget: FactorOptions::default().escalation_budget,
        }
    }

    /// Also expose the precision map chosen for a given `θ` (used by the
    /// Fig 7 experiment).
    ///
    /// # Panics
    /// Panics when `θ` is outside the model's domain.
    pub fn precision_map_for(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
    ) -> PrecisionMap {
        let (_, norms) = self
            .build_sigma(model, locs, theta)
            .unwrap_or_else(|| panic!("θ = {theta:?} is outside the {} domain", model.label()));
        PrecisionMap::from_norms(&norms, self.accuracy, &self.candidates)
    }

    /// `Σ(θ)` and its tile norms in one pass; `None` when `θ` is outside
    /// the model's domain.
    fn build_sigma(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
    ) -> Option<(SymmTileMatrix, NormMap)> {
        // Generate in FP64 first (needed for the norms that drive the map);
        // the map's storage precisions are applied to the tiles afterwards,
        // exactly as the paper's matrix-generation phase does (§V). Tile
        // generation runs on the same worker pool as the factorization and
        // is bit-identical at any thread count.
        covariance_tiles_with_norms(model, locs, theta, self.nb, self.threads)
    }

    /// [`LoglikBackend::loglik`] plus the [`FactorStats`] of the run, so
    /// callers see what the factorization cost — in particular whether
    /// (and how) precision escalation recovered a breakdown
    /// (`stats.escalations`, `stats.factor_attempts`).
    pub fn loglik_detailed(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<(f64, FactorStats)> {
        static EVALS: obs::LazyCounter = obs::LazyCounter::new("mle.evals");
        let sp = obs::span_start();
        let r = self.loglik_detailed_inner(model, locs, theta, z);
        obs::span_end(sp, obs::EventKind::MleIter, EVALS.inc());
        r
    }

    fn loglik_detailed_inner(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<(f64, FactorStats)> {
        let n = locs.len();
        assert_eq!(z.len(), n);
        let (mut sigma, norms) = self.build_sigma(model, locs, theta)?;
        let pmap = PrecisionMap::from_norms(&norms, self.accuracy, &self.candidates);
        // `renarrow_storage` re-stores the FP64 tiles at the map's storage
        // precision (Fig 2b) inside each factorization attempt: the same
        // real narrowing the classic path applied up front, but re-derived
        // from FP64 after every escalation so recovery regains the bits
        // the breakdown needs.
        let opts = FactorOptions {
            nthreads: self.threads,
            escalation_budget: self.escalation_budget,
            renarrow_storage: true,
            ..Default::default()
        };
        let stats = factorize_mp_recovering(&mut sigma, &pmap, &opts).ok()?;
        // log|Σ| and the quadratic form straight on the tile factor, with
        // the dense formula's arithmetic and no n × n copy.
        let log_det = 2.0 * log_det_tiled(&sigma)?;
        let mut v = z.to_vec();
        forward_solve_tiled(&sigma, &mut v);
        let v2: f64 = v.iter().map(|x| x * x).sum();
        if !v2.is_finite() {
            return None;
        }
        Some((assemble_loglik(n, log_det, v2), stats))
    }
}

impl LoglikBackend for MpBackend {
    fn loglik(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<f64> {
        self.loglik_detailed(model, locs, theta, z)
            .map(|(ll, _)| ll)
    }

    fn label(&self) -> String {
        format!("{:.0e}", self.accuracy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixedp_geostats::loglik::ExactBackend;
    use mixedp_geostats::{gen_locations_2d, generate_field, SqExp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (SqExp, Vec<Location>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(21);
        let locs = gen_locations_2d(n, &mut rng);
        let model = SqExp::new2d();
        let z = generate_field(&model, &locs, &[1.0, 0.1], &mut rng);
        (model, locs, z)
    }

    #[test]
    fn tight_accuracy_matches_exact_backend() {
        let (model, locs, z) = setup(144);
        let theta = [1.0, 0.1];
        let exact = ExactBackend.loglik(&model, &locs, &theta, &z).unwrap();
        let mp = MpBackend::new(1e-12, 48, 1)
            .loglik(&model, &locs, &theta, &z)
            .unwrap();
        let rel = ((mp - exact) / exact).abs();
        assert!(rel < 1e-9, "mp {mp} vs exact {exact}");
    }

    #[test]
    fn loose_accuracy_still_close_but_not_identical() {
        // Use the (well-conditioned) Matérn ν = 0.5 kernel: the squared
        // exponential at strong correlation is too ill-conditioned to
        // factor once tiles are degraded to FP32 — the same reason the
        // paper's Matérn runs demand 1e-9 while sqexp tolerates 1e-4.
        let mut rng = StdRng::seed_from_u64(33);
        let locs = gen_locations_2d(196, &mut rng);
        let model = mixedp_geostats::Matern2d;
        let theta = [1.0, 0.1, 0.5];
        let z = generate_field(&model, &locs, &theta, &mut rng);
        let exact = ExactBackend.loglik(&model, &locs, &theta, &z).unwrap();
        let mp = MpBackend::new(1e-4, 28, 1)
            .loglik(&model, &locs, &theta, &z)
            .unwrap();
        let rel = ((mp - exact) / exact).abs();
        assert!(rel < 0.05, "mp {mp} vs exact {exact}");
    }

    #[test]
    fn map_gets_cheaper_as_accuracy_relaxes() {
        let (model, locs, _z) = setup(256);
        let theta = [1.0, 0.02]; // weak correlation: far tiles tiny
        let tight = MpBackend::new(1e-12, 32, 1).precision_map_for(&model, &locs, &theta);
        let loose = MpBackend::new(1e-2, 32, 1).precision_map_for(&model, &locs, &theta);
        let fp64_frac = |m: &PrecisionMap| {
            m.percentages()
                .iter()
                .find(|(p, _)| *p == Precision::Fp64)
                .unwrap()
                .1
        };
        assert!(fp64_frac(&loose) < fp64_frac(&tight));
    }

    #[test]
    fn out_of_domain_theta_fails_the_evaluation() {
        // A negative or NaN range or smoothness has no Matérn Σ(θ); both
        // backends report a failed evaluation instead of panicking.
        let mut rng = StdRng::seed_from_u64(8);
        let locs = gen_locations_2d(64, &mut rng);
        let model = mixedp_geostats::Matern2d;
        let z = generate_field(&model, &locs, &[1.0, 0.1, 0.5], &mut rng);
        let mp = MpBackend::new(1e-9, 16, 2);
        for theta in [
            [1.0, 0.1, -0.5],
            [1.0, -0.1, 0.5],
            [1.0, f64::NAN, 0.5],
            [1.0, 0.1, f64::NAN],
            [1.0, 0.0, 0.5],
        ] {
            assert!(
                mp.loglik(&model, &locs, &theta, &z).is_none(),
                "mp {theta:?}"
            );
            let exact = ExactBackend.loglik(&model, &locs, &theta, &z);
            assert!(exact.is_none(), "exact {theta:?}");
        }
        assert!(mp.loglik(&model, &locs, &[1.0, 0.1, 0.5], &z).is_some());
    }

    /// The benchmark replay's check, at tier 1: the backend's ℓ, computed
    /// on the tile factor, is bit-identical to the dense formula
    /// (`to_dense_lower` + `forward_solve_in_place` + `assemble_loglik`) on
    /// the same factor.
    #[test]
    fn loglik_bit_matches_dense_formula() {
        use mixedp_kernels::blas;
        fn dense_loglik(
            be: &MpBackend,
            model: &dyn CovarianceModel,
            locs: &[Location],
            theta: &[f64],
            z: &[f64],
        ) -> f64 {
            let (mut sigma, norms) = be.build_sigma(model, locs, theta).unwrap();
            let pmap = PrecisionMap::from_norms(&norms, be.accuracy, &be.candidates);
            let opts = FactorOptions {
                nthreads: be.threads,
                escalation_budget: be.escalation_budget,
                renarrow_storage: true,
                ..Default::default()
            };
            factorize_mp_recovering(&mut sigma, &pmap, &opts).unwrap();
            let n = z.len();
            let l = sigma.to_dense_lower();
            let log_det = 2.0 * (0..n).fold(0.0, |s, i| s + l.data()[i * n + i].ln());
            let mut v = z.to_vec();
            blas::forward_solve_in_place(l.data(), n, &mut v);
            assemble_loglik(n, log_det, v.iter().map(|x| x * x).sum())
        }
        let mut rng = StdRng::seed_from_u64(12);
        let sqexp = SqExp::new2d();
        let matern = mixedp_geostats::Matern2d;
        let cases: [(&dyn CovarianceModel, &[f64], usize, usize); 2] = [
            (&sqexp, &[1.0, 0.02], 150, 32),
            (&matern, &[1.0, 0.1, 0.5], 133, 24),
        ];
        for (model, theta, n, nb) in cases {
            let locs = gen_locations_2d(n, &mut rng);
            let z = generate_field(model, &locs, theta, &mut rng);
            for u_req in [1e-4, 1e-9] {
                let mixed = MpBackend::new(u_req, nb, 1)
                    .precision_map_for(model, &locs, theta)
                    .percentages()
                    .iter()
                    .any(|&(p, pct)| p != Precision::Fp64 && pct > 0.0);
                assert!(mixed, "{} u_req {u_req:e}: map is all FP64", model.label());
                for threads in [1, 2, 4] {
                    let be = MpBackend::new(u_req, nb, threads);
                    let (ll, _) = be.loglik_detailed(model, &locs, theta, &z).unwrap();
                    let want = dense_loglik(&be, model, &locs, theta, &z);
                    assert_eq!(
                        ll.to_bits(),
                        want.to_bits(),
                        "{} u_req {u_req:e} threads {threads}: {ll} vs {want}",
                        model.label()
                    );
                }
            }
        }
    }

    #[test]
    fn label_formats_accuracy() {
        assert_eq!(MpBackend::new(1e-9, 64, 1).label(), "1e-9");
    }

    #[test]
    fn breakdown_recovers_via_escalation() {
        // Strong-correlation squared exponential: the adaptive map at
        // loose accuracy narrows panel tiles below what the conditioning
        // tolerates, so the classic fail-on-first-breakdown path (budget
        // 0) hits NotSpd and the evaluation dies. The recovering backend
        // escalates the implicated rows/columns toward FP64, refactorizes,
        // and completes — with the whole recovery trail visible in
        // FactorStats.
        let mut rng = StdRng::seed_from_u64(5);
        let locs = gen_locations_2d(196, &mut rng);
        let model = SqExp::new2d();
        let theta = [1.0, 0.3];
        let z = generate_field(&model, &locs, &[1.0, 0.1], &mut rng);

        let mut no_recovery = MpBackend::new(1e-4, 28, 1);
        no_recovery.escalation_budget = 0;
        assert!(
            no_recovery
                .loglik_detailed(&model, &locs, &theta, &z)
                .is_none(),
            "this configuration must trigger NotSpd without recovery"
        );

        let be = MpBackend::new(1e-4, 28, 1);
        let (ll, stats) = be.loglik_detailed(&model, &locs, &theta, &z).unwrap();
        assert!(stats.factor_attempts > 1, "recovery must have restarted");
        assert!(
            !stats.escalations.is_empty(),
            "escalations must be recorded"
        );
        let first = &stats.escalations[0];
        assert_eq!(first.cause, crate::factorize::BreakdownCause::NotSpd);
        assert!(first.escalated_tiles > 0);
        let exact = ExactBackend.loglik(&model, &locs, &theta, &z).unwrap();
        let rel = ((ll - exact) / exact).abs();
        assert!(
            rel < 1e-6,
            "recovered ll {ll} vs exact {exact} (rel {rel:e})"
        );
    }
}
