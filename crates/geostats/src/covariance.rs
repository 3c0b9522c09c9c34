//! Covariance models (paper §III-A).
//!
//! Two stationary, isotropic families:
//!
//! * **Squared exponential** (2D or 3D): `C(h) = σ²·exp(−h²/β)`,
//!   `θ = (σ², β)`.
//! * **2D Matérn**:
//!   `C(h) = σ²·(2^{1−ν}/Γ(ν))·(h/β)^ν·K_ν(h/β)`, `θ = (σ², β, ν)`.

use crate::bessel::BesselK;
use crate::locations::Location;

/// A stationary isotropic covariance model parameterized by `θ`.
pub trait CovarianceModel: Sync + Send {
    /// Number of parameters in `θ`.
    fn nparams(&self) -> usize;

    /// Covariance at distance `h ≥ 0` for parameters `theta`.
    fn cov(&self, h: f64, theta: &[f64]) -> f64;

    /// Human-readable parameter names, in `θ` order.
    fn param_names(&self) -> &'static [&'static str];

    /// Model label as used in the paper ("2D-sqexp", "2D-Matérn", "3D-sqexp").
    fn label(&self) -> &'static str;

    /// Covariance between two locations.
    fn cov_loc(&self, a: &Location, b: &Location, theta: &[f64]) -> f64 {
        self.cov(a.dist(b), theta)
    }

    /// Whether `theta` lies in the model's domain: `nparams()` finite
    /// values with `σ² = θ₀ > 0` and `β = θ₁ > 0`; models with a shape
    /// parameter narrow it further. Assembly outside the domain yields no
    /// usable `Σ(θ)` and may panic, so every likelihood evaluation checks
    /// here first and fails instead.
    fn in_domain(&self, theta: &[f64]) -> bool {
        scale_and_range_ok(self.nparams(), theta)
    }

    /// The covariances between `rows` and `cols`, row-major into `out`
    /// (`rows.len() × cols.len()`); with `lower`, only entries `(i, j)` with
    /// `j ≤ i` are written. Every value is bit-equal to
    /// [`cov_loc`](Self::cov_loc); a model overrides this to compute its
    /// θ-only terms once per tile instead of once per entry.
    fn cov_tile(
        &self,
        rows: &[Location],
        cols: &[Location],
        theta: &[f64],
        lower: bool,
        out: &mut [f64],
    ) {
        fill_tile(rows, cols, lower, out, |a, b| self.cov_loc(a, b, theta));
    }
}

/// `theta` has `nparams` finite values with `σ² = θ₀ > 0` and `β = θ₁ > 0`.
fn scale_and_range_ok(nparams: usize, theta: &[f64]) -> bool {
    theta.len() == nparams
        && theta.iter().all(|t| t.is_finite())
        && theta[0] > 0.0
        && theta[1] > 0.0
}

/// The element loop of [`CovarianceModel::cov_tile`]: `out[i, j] = f(rows[i], cols[j])`.
fn fill_tile(
    rows: &[Location],
    cols: &[Location],
    lower: bool,
    out: &mut [f64],
    f: impl Fn(&Location, &Location) -> f64,
) {
    let c = cols.len();
    assert_eq!(out.len(), rows.len() * c, "covariance tile length mismatch");
    for (i, a) in rows.iter().enumerate() {
        let m = if lower { i + 1 } else { c };
        for (o, b) in out[i * c..(i + 1) * c].iter_mut().zip(cols).take(m) {
            *o = f(a, b);
        }
    }
}

/// Squared exponential `C(h) = σ² exp(−h²/β)`; the `dims` field only changes
/// the label (the functional form is dimension-free, distances do the work).
#[derive(Debug, Clone, Copy)]
pub struct SqExp {
    dims: u8,
}

impl SqExp {
    pub fn new2d() -> Self {
        SqExp { dims: 2 }
    }

    pub fn new3d() -> Self {
        SqExp { dims: 3 }
    }
}

impl CovarianceModel for SqExp {
    fn nparams(&self) -> usize {
        2
    }

    fn cov(&self, h: f64, theta: &[f64]) -> f64 {
        debug_assert_eq!(theta.len(), 2);
        let (sigma_sq, beta) = (theta[0], theta[1]);
        sigma_sq * (-h * h / beta).exp()
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["sigma^2", "beta"]
    }

    fn label(&self) -> &'static str {
        if self.dims == 2 {
            "2D-sqexp"
        } else {
            "3D-sqexp"
        }
    }
}

/// 2D Matérn `C(h) = σ² (2^{1−ν}/Γ(ν)) (h/β)^ν K_ν(h/β)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Matern2d;

/// The Matérn covariance at a fixed `θ`: the terms that depend on `θ`
/// alone — `σ²·2^{1−ν}/Γ(ν)` and `K_ν`'s order terms — are computed once,
/// and [`cov`](Self::cov) evaluates one distance. The product keeps its
/// left-to-right order `((σ²·scale)·r^ν)·K_ν(r)`, so hoisting changes no bit.
struct MaternAt {
    sigma_sq: f64,
    beta: f64,
    nu: f64,
    /// `σ²·2^{1−ν}/Γ(ν)`.
    scale: f64,
    k: BesselK,
}

impl MaternAt {
    fn new(theta: &[f64]) -> Self {
        debug_assert_eq!(theta.len(), 3);
        let (sigma_sq, beta, nu) = (theta[0], theta[1], theta[2]);
        MaternAt {
            sigma_sq,
            beta,
            nu,
            scale: sigma_sq * ((2.0f64).powf(1.0 - nu) / libm::tgamma(nu)),
            k: BesselK::new(nu),
        }
    }

    #[inline]
    fn cov(&self, h: f64) -> f64 {
        if h == 0.0 {
            return self.sigma_sq;
        }
        let r = h / self.beta;
        self.scale * r.powf(self.nu) * self.k.eval(r)
    }
}

impl CovarianceModel for Matern2d {
    fn nparams(&self) -> usize {
        3
    }

    fn cov(&self, h: f64, theta: &[f64]) -> f64 {
        MaternAt::new(theta).cov(h)
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["sigma^2", "beta", "nu"]
    }

    fn label(&self) -> &'static str {
        "2D-Matérn"
    }

    /// The common domain and smoothness `ν > 0`.
    fn in_domain(&self, theta: &[f64]) -> bool {
        scale_and_range_ok(3, theta) && theta[2] > 0.0
    }

    fn cov_tile(
        &self,
        rows: &[Location],
        cols: &[Location],
        theta: &[f64],
        lower: bool,
        out: &mut [f64],
    ) {
        let m = MaternAt::new(theta);
        fill_tile(rows, cols, lower, out, |a, b| m.cov(a.dist(b)));
    }
}

/// Powered exponential `C(h) = σ² exp(−(h/β)^γ)`, `θ = (σ², β, γ)` with
/// `0 < γ ≤ 2` — a classical family bridging the exponential (`γ = 1`,
/// rough) and the Gaussian/squared-exponential (`γ = 2`, ultra-smooth)
/// shapes; included as an extension model for sensitivity studies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowExp;

impl CovarianceModel for PowExp {
    fn nparams(&self) -> usize {
        3
    }

    fn cov(&self, h: f64, theta: &[f64]) -> f64 {
        debug_assert_eq!(theta.len(), 3);
        let (sigma_sq, beta, gamma) = (theta[0], theta[1], theta[2]);
        if h == 0.0 {
            return sigma_sq;
        }
        sigma_sq * (-(h / beta).powf(gamma)).exp()
    }

    fn param_names(&self) -> &'static [&'static str] {
        &["sigma^2", "beta", "gamma"]
    }

    fn label(&self) -> &'static str {
        "2D-powexp"
    }

    /// The common domain and `0 < γ ≤ 2`.
    fn in_domain(&self, theta: &[f64]) -> bool {
        scale_and_range_ok(3, theta) && theta[2] > 0.0 && theta[2] <= 2.0
    }
}

/// Relative nugget added to the diagonal of every assembled covariance
/// matrix: `Σ_ii = σ²·(1 + NUGGET_REL)`.
///
/// The squared-exponential kernel's eigenvalues decay exponentially, so at
/// strong correlation (`β = 0.3`) `Σ(θ)` is numerically singular in FP64
/// already at a few hundred locations. A 1e-8 relative nugget — standard
/// practice in GP software — restores numerical positive definiteness while
/// perturbing the model far below the parameter-estimation noise floor. It
/// is applied identically in data generation and in every likelihood
/// backend, so all accuracy-level comparisons remain paired (DESIGN.md).
pub const NUGGET_REL: f64 = 1e-8;

/// Covariance matrix entry `(i, j)` including the diagonal nugget — the
/// per-element definition of `Σ(θ)`. [`covariance_block`], and through it
/// the dense and the tiled assembly, is bit-equal to it entry for entry.
pub fn covariance_entry(
    model: &dyn CovarianceModel,
    locs: &[Location],
    i: usize,
    j: usize,
    theta: &[f64],
) -> f64 {
    let v = model.cov_loc(&locs[i], &locs[j], theta);
    if i == j {
        v + theta[0] * NUGGET_REL
    } else {
        v
    }
}

/// The block of `Σ(θ)` between the locations `rows` and `cols`, row-major
/// into `out`, each entry bit-equal to [`covariance_entry`]. A `diag` block
/// has `rows` and `cols` the same locations: its lower triangle is computed
/// once and mirrored (the distance is exactly symmetric, `a − b = −(b − a)`
/// in IEEE arithmetic, so the mirror holds the very bits a second
/// evaluation would give), and the nugget is added on its diagonal.
pub fn covariance_block(
    model: &dyn CovarianceModel,
    rows: &[Location],
    cols: &[Location],
    theta: &[f64],
    diag: bool,
    out: &mut [f64],
) {
    model.cov_tile(rows, cols, theta, diag, out);
    if diag {
        let n = rows.len();
        debug_assert_eq!(n, cols.len());
        let nugget = theta[0] * NUGGET_REL;
        for i in 0..n {
            out[i * n + i] += nugget;
            for j in 0..i {
                out[j * n + i] = out[i * n + j];
            }
        }
    }
}

/// Build the dense covariance matrix `Σ(θ)` for a location set (row-major,
/// symmetric, used by the exact reference path and data generation).
pub fn covariance_dense(
    model: &dyn CovarianceModel,
    locs: &[Location],
    theta: &[f64],
) -> mixedp_tile::DenseMatrix {
    let n = locs.len();
    let mut a = mixedp_tile::DenseMatrix::zeros(n, n);
    covariance_block(model, locs, locs, theta, true, a.data_mut());
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqexp_basics() {
        let m = SqExp::new2d();
        let theta = [1.5, 0.1];
        assert_eq!(m.cov(0.0, &theta), 1.5);
        assert!(m.cov(0.1, &theta) < 1.5);
        // C(h) = σ² e^{−h²/β}
        let h = 0.2;
        let want = 1.5 * (-h * h / 0.1f64).exp();
        assert!((m.cov(h, &theta) - want).abs() < 1e-15);
        assert_eq!(m.label(), "2D-sqexp");
        assert_eq!(SqExp::new3d().label(), "3D-sqexp");
    }

    #[test]
    fn matern_at_zero_is_variance() {
        let m = Matern2d;
        assert_eq!(m.cov(0.0, &[2.0, 0.3, 0.5]), 2.0);
    }

    #[test]
    fn matern_nu_half_is_exponential() {
        // ν = 1/2 ⇒ C(h) = σ² exp(−h/β)
        let m = Matern2d;
        let (s2, beta) = (1.3, 0.17);
        for &h in &[0.01, 0.1, 0.5, 1.0] {
            let got = m.cov(h, &[s2, beta, 0.5]);
            let want = s2 * (-h / beta).exp();
            assert!(
                ((got - want) / want).abs() < 1e-11,
                "h={h}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn matern_smoothness_orders_short_range() {
        // Near h→0, higher ν ⇒ flatter (smoother) correlation: at a small h
        // the smoother field has correlation closer to σ².
        let m = Matern2d;
        let h = 0.02;
        let c_rough = m.cov(h, &[1.0, 0.1, 0.5]);
        let c_smooth = m.cov(h, &[1.0, 0.1, 1.0]);
        assert!(c_smooth > c_rough);
    }

    #[test]
    fn matern_decreasing_in_h() {
        let m = Matern2d;
        let theta = [1.0, 0.1, 1.0];
        let mut prev = m.cov(0.0, &theta);
        for i in 1..50 {
            let c = m.cov(0.02 * i as f64, &theta);
            assert!(c < prev);
            assert!(c > 0.0);
            prev = c;
        }
    }

    #[test]
    fn matern_nu_three_half_closed_form() {
        // ν = 3/2 ⇒ C(h) = σ² (1 + h/β) exp(−h/β)
        let m = Matern2d;
        let (s2, beta) = (0.8, 0.25);
        for &h in &[0.02, 0.2, 0.7] {
            let got = m.cov(h, &[s2, beta, 1.5]);
            let r = h / beta;
            let want = s2 * (1.0 + r) * (-r).exp();
            assert!(((got - want) / want).abs() < 1e-11, "h={h}");
        }
    }

    #[test]
    fn powexp_bridges_exponential_and_gaussian() {
        let m = PowExp;
        let (s2, beta) = (1.2, 0.3);
        for &h in &[0.05, 0.2, 0.6] {
            // γ = 1: exponential
            let e = m.cov(h, &[s2, beta, 1.0]);
            assert!(((e - s2 * (-h / beta).exp()) / e).abs() < 1e-14);
            // γ = 2: squared exponential with β' = β²
            let g = m.cov(h, &[s2, beta, 2.0]);
            let sq = SqExp::new2d().cov(h, &[s2, beta * beta]);
            assert!(((g - sq) / g).abs() < 1e-12, "{g} vs {sq}");
        }
        assert_eq!(m.cov(0.0, &[s2, beta, 1.3]), s2);
        // smoother (larger γ) decays slower at short range
        let short = 0.03;
        assert!(m.cov(short, &[1.0, 0.3, 2.0]) > m.cov(short, &[1.0, 0.3, 0.8]));
    }

    #[test]
    fn covariance_dense_is_symmetric_with_unit_diag_scaled() {
        let locs = vec![
            Location::new2d(0.1, 0.1),
            Location::new2d(0.3, 0.7),
            Location::new2d(0.9, 0.2),
        ];
        let a = covariance_dense(&SqExp::new2d(), &locs, &[2.0, 0.2]);
        for i in 0..3 {
            assert!((a.get(i, i) - 2.0).abs() < 1e-7);
            for j in 0..3 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }
}
