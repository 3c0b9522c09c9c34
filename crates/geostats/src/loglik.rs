//! The Gaussian log-likelihood (paper Eq. 1) and the backend abstraction
//! that lets the MLE driver run on either the exact FP64 solver or the
//! adaptive mixed-precision Cholesky of `mixedp-core`.

use crate::covariance::{covariance_dense, CovarianceModel};
use crate::locations::Location;
use mixedp_kernels::blas;

/// Evaluates `ℓ(θ)` for a covariance model over a fixed dataset.
///
/// Returns `None` when `θ` is outside the model's domain or `Σ(θ)` is not
/// numerically positive definite (the optimizer treats that as `−∞`).
pub trait LoglikBackend: Sync {
    fn loglik(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<f64>;

    /// Label for reports ("exact", "1e-9", ...).
    fn label(&self) -> String;
}

/// Assemble `ℓ` from the pieces every backend produces: the log-determinant
/// `log|Σ| = 2·Σᵢ log Lᵢᵢ` and the solved vector `v = L⁻¹Z`
/// (so `Zᵀ Σ⁻¹ Z = ‖v‖²`).
pub fn assemble_loglik(n: usize, log_det: f64, v_norm_sq: f64) -> f64 {
    -0.5 * (n as f64) * (2.0 * std::f64::consts::PI).ln() - 0.5 * log_det - 0.5 * v_norm_sq
}

/// The exact FP64 reference backend ("exact computation" in Figs 5–6).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactBackend;

impl LoglikBackend for ExactBackend {
    fn loglik(
        &self,
        model: &dyn CovarianceModel,
        locs: &[Location],
        theta: &[f64],
        z: &[f64],
    ) -> Option<f64> {
        let n = locs.len();
        assert_eq!(z.len(), n);
        if !model.in_domain(theta) {
            return None;
        }
        let mut sigma = covariance_dense(model, locs, theta);
        if blas::cholesky_in_place(sigma.data_mut(), n).is_err() {
            return None;
        }
        let l = sigma.data();
        let log_det: f64 = (0..n).map(|i| l[i * n + i].ln()).sum::<f64>() * 2.0;
        let mut v = z.to_vec();
        blas::forward_solve_in_place(l, n, &mut v);
        let v2: f64 = v.iter().map(|x| x * x).sum();
        Some(assemble_loglik(n, log_det, v2))
    }

    fn label(&self) -> String {
        "exact".into()
    }
}

/// Direct exact log-likelihood of one dataset (convenience wrapper).
pub fn loglik_exact(
    model: &dyn CovarianceModel,
    locs: &[Location],
    theta: &[f64],
    z: &[f64],
) -> Option<f64> {
    ExactBackend.loglik(model, locs, theta, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::SqExp;
    use crate::datagen::generate_field;
    use crate::locations::gen_locations_2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn loglik_of_iid_standard_normal_identity_cov() {
        // With Σ = I (σ²=1, β→0 ⇒ off-diagonals ≈ 0):
        // ℓ = −n/2 log 2π − ½ Σ z².
        let n = 16;
        let locs: Vec<_> = (0..n)
            .map(|i| crate::locations::Location::new2d(i as f64, 0.0))
            .collect();
        let z: Vec<f64> = (0..n).map(|i| (i as f64) * 0.1 - 0.8).collect();
        let model = SqExp::new2d();
        // β tiny, distances ≥ 1 ⇒ exp(−h²/β) underflows to 0 off-diagonal.
        let got = loglik_exact(&model, &locs, &[1.0, 1e-4], &z).unwrap();
        let want = -0.5 * (n as f64) * (2.0 * std::f64::consts::PI).ln()
            - 0.5 * z.iter().map(|x| x * x).sum::<f64>();
        // the 1e-8 relative nugget shifts the value by ~1e-7
        assert!((got - want).abs() < 1e-5, "{got} vs {want}");
    }

    #[test]
    fn loglik_peaks_near_true_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let locs = gen_locations_2d(225, &mut rng);
        let model = SqExp::new2d();
        let theta_true = [1.0, 0.1];
        // average over replicas to tame sampling noise
        let reps = 6;
        let mut ll_true = 0.0;
        let mut ll_lo = 0.0;
        let mut ll_hi = 0.0;
        for _ in 0..reps {
            let z = generate_field(&model, &locs, &theta_true, &mut rng);
            ll_true += loglik_exact(&model, &locs, &theta_true, &z).unwrap();
            ll_lo += loglik_exact(&model, &locs, &[1.0, 0.01], &z).unwrap();
            ll_hi += loglik_exact(&model, &locs, &[1.0, 1.0], &z).unwrap();
        }
        assert!(ll_true > ll_lo, "{ll_true} vs lo {ll_lo}");
        assert!(ll_true > ll_hi, "{ll_true} vs hi {ll_hi}");
    }

    #[test]
    fn assemble_matches_formula() {
        let got = assemble_loglik(2, 0.5, 3.0);
        let want = -(2.0 * std::f64::consts::PI).ln() - 0.25 - 1.5;
        assert!((got - want).abs() < 1e-15);
    }
}
