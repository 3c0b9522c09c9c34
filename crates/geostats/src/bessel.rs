//! Modified Bessel function of the second kind `K_ν(x)`, from scratch.
//!
//! Required by the Matérn covariance (paper §III-A). The implementation
//! follows the classical two-regime scheme:
//!
//! * `x ≤ 2`: Temme's series for `K_μ` and `K_{μ+1}` with `|μ| ≤ ½`
//!   (N. M. Temme, *On the numerical evaluation of the modified Bessel
//!   function of the third kind*, J. Comput. Phys. 19 (1975)),
//! * `x > 2`: the even continued fraction CF2 evaluated by Steed's
//!   algorithm,
//!
//! followed by upward recurrence `K_{ν+1} = K_{ν−1} + (2ν/x)·K_ν` to the
//! requested order. Relative accuracy is ~1e-13 on the domain the Matérn
//! kernel exercises (`x ∈ (0, ~50]`, `ν ∈ (0, ~5]`).

const EPS: f64 = 1e-16;
const MAX_ITER: usize = 10_000;
/// Euler–Mascheroni constant.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// `Γ`-derived coefficients of Temme's series:
/// `gam1 = (1/Γ(1−μ) − 1/Γ(1+μ)) / (2μ)`, `gam2 = (1/Γ(1−μ) + 1/Γ(1+μ)) / 2`,
/// plus `1/Γ(1+μ)` and `1/Γ(1−μ)` themselves.
fn temme_gammas(mu: f64) -> (f64, f64, f64, f64) {
    let gampl = 1.0 / libm::tgamma(1.0 + mu);
    let gammi = 1.0 / libm::tgamma(1.0 - mu);
    let gam1 = if mu.abs() < 1e-5 {
        // limit: (d/dμ) 1/Γ(1+μ) at 0 = γ  ⇒  gam1 → −γ, with O(μ²) error
        // below 1e-10 at this threshold.
        -EULER_GAMMA
    } else {
        (gammi - gampl) / (2.0 * mu)
    };
    let gam2 = (gammi + gampl) / 2.0;
    (gam1, gam2, gampl, gammi)
}

/// `K_ν(x)` for `ν ≥ 0`, `x > 0`.
///
/// ```
/// use mixedp_geostats::bessel_k;
/// // K_{1/2}(x) = sqrt(π/(2x))·e^{−x}
/// let x = 1.3;
/// let closed = (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp();
/// assert!((bessel_k(0.5, x) - closed).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics on `x ≤ 0` or `ν < 0` (use symmetry `K_{−ν} = K_ν` at call sites
/// if negative orders are needed).
pub fn bessel_k(nu: f64, x: f64) -> f64 {
    BesselK::new(nu).eval(x)
}

/// `K_ν` at a fixed order: the terms that depend on `ν` alone (the split
/// `ν = nl + μ`, Temme's `πμ/sin(πμ)` and `Γ(1±μ)` coefficients) are
/// computed once, so evaluating many arguments — a covariance tile — pays
/// only the per-`x` series or continued fraction. `eval` is bit-identical
/// to [`bessel_k`], which is this type used once.
#[derive(Debug, Clone, Copy)]
pub struct BesselK {
    nl: usize,
    mu: f64,
    /// `πμ / sin(πμ)` (1 at μ = 0).
    fact: f64,
    /// [`temme_gammas`]`(μ)`.
    gammas: (f64, f64, f64, f64),
}

impl BesselK {
    /// # Panics
    /// Panics on `ν < 0` or NaN.
    pub fn new(nu: f64) -> Self {
        assert!(nu >= 0.0, "bessel_k requires ν ≥ 0, got {nu}");
        // Split ν = nl + μ with nl integer and |μ| ≤ 1/2.
        let nl = (nu + 0.5).floor();
        let mu = nu - nl;
        let pimu = std::f64::consts::PI * mu;
        let fact = if pimu.abs() < EPS {
            1.0
        } else {
            pimu / pimu.sin()
        };
        BesselK {
            nl: nl as usize,
            mu,
            fact,
            gammas: temme_gammas(mu),
        }
    }

    /// `K_ν(x)`.
    ///
    /// # Panics
    /// Panics on `x ≤ 0` or NaN.
    pub fn eval(&self, x: f64) -> f64 {
        assert!(x > 0.0, "bessel_k requires x > 0, got {x}");
        let mu = self.mu;
        let (mut k_mu, mut k_mu1) = if x <= 2.0 {
            k_temme_series(mu, self.fact, self.gammas, x)
        } else {
            k_steed_cf2(mu, x)
        };

        // Upward recurrence K_{m+1} = K_{m−1} + 2m/x · K_m, starting at m = μ+1.
        for i in 1..=self.nl {
            let k_next = k_mu + 2.0 * (mu + i as f64) / x * k_mu1;
            k_mu = k_mu1;
            k_mu1 = k_next;
        }
        k_mu
    }
}

/// Temme's series: returns `(K_μ(x), K_{μ+1}(x))` for `x ≤ 2`, `|μ| ≤ ½`,
/// given `πμ/sin(πμ)` and `temme_gammas(μ)`.
fn k_temme_series(mu: f64, fact: f64, gammas: (f64, f64, f64, f64), x: f64) -> (f64, f64) {
    let x2 = 0.5 * x;
    let d = -x2.ln();
    let e = mu * d;
    let fact2 = if e.abs() < EPS { 1.0 } else { e.sinh() / e };
    let (gam1, gam2, gampl, gammi) = gammas;
    let mut ff = fact * (gam1 * e.cosh() + gam2 * fact2 * d);
    let mut sum = ff;
    let e = e.exp();
    let mut p = 0.5 * e / gampl;
    let mut q = 0.5 / (e * gammi);
    let mut c = 1.0;
    let d2 = x2 * x2;
    let mut sum1 = p;
    let mu2 = mu * mu;
    for i in 1..=MAX_ITER {
        let fi = i as f64;
        ff = (fi * ff + p + q) / (fi * fi - mu2);
        c *= d2 / fi;
        p /= fi - mu;
        q /= fi + mu;
        let del = c * ff;
        sum += del;
        let del1 = c * (p - fi * ff);
        sum1 += del1;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    (sum, sum1 * 2.0 / x)
}

/// Steed's CF2: returns `(K_μ(x), K_{μ+1}(x))` for `x > 2`, `|μ| ≤ ½`.
fn k_steed_cf2(mu: f64, x: f64) -> (f64, f64) {
    let mu2 = mu * mu;
    let mut b = 2.0 * (1.0 + x);
    let mut d = 1.0 / b;
    let mut delh = d;
    let mut h = delh;
    let mut q1 = 0.0;
    let mut q2 = 1.0;
    let a1 = 0.25 - mu2;
    let mut q = a1;
    let mut c = a1;
    let mut a = -a1;
    let mut s = 1.0 + q * delh;
    for i in 2..=MAX_ITER {
        let fi = i as f64;
        a -= 2.0 * (fi - 1.0);
        c = -a * c / fi;
        let qnew = (q1 - b * q2) / a;
        q1 = q2;
        q2 = qnew;
        q += c * qnew;
        b += 2.0;
        d = 1.0 / (b + a * d);
        delh *= b * d - 1.0;
        h += delh;
        let dels = q * delh;
        s += dels;
        if (dels / s).abs() < EPS {
            break;
        }
    }
    let h = a1 * h;
    let k_mu = (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp() / s;
    let k_mu1 = k_mu * (mu + x + 0.5 - h) / x;
    (k_mu, k_mu1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed form: K_{1/2}(x) = sqrt(π/(2x)) e^{−x}.
    fn k_half(x: f64) -> f64 {
        (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp()
    }

    #[test]
    fn half_order_closed_form() {
        for &x in &[0.05, 0.3, 1.0, 1.9, 2.1, 5.0, 10.0, 30.0] {
            let got = bessel_k(0.5, x);
            let want = k_half(x);
            assert!(
                ((got - want) / want).abs() < 1e-12,
                "K_1/2({x}): got {got:e}, want {want:e}"
            );
        }
    }

    /// Closed form: K_{3/2}(x) = sqrt(π/(2x)) e^{−x} (1 + 1/x).
    #[test]
    fn three_half_order_closed_form() {
        for &x in &[0.1, 0.8, 1.5, 3.0, 12.0] {
            let got = bessel_k(1.5, x);
            let want = k_half(x) * (1.0 + 1.0 / x);
            assert!(((got - want) / want).abs() < 1e-12, "K_3/2({x})");
        }
    }

    /// Closed form: K_{5/2}(x) = sqrt(π/(2x)) e^{−x} (1 + 3/x + 3/x²).
    #[test]
    fn five_half_order_closed_form() {
        for &x in &[0.2, 1.0, 4.0, 20.0] {
            let got = bessel_k(2.5, x);
            let want = k_half(x) * (1.0 + 3.0 / x + 3.0 / (x * x));
            assert!(((got - want) / want).abs() < 1e-12, "K_5/2({x})");
        }
    }

    /// Reference values (Abramowitz & Stegun / verified against SciPy).
    #[test]
    fn integer_order_reference_values() {
        let cases = [
            (0.0, 1.0, 0.421_024_438_240_708_33),
            (1.0, 1.0, 0.601_907_230_197_234_6),
            (0.0, 0.1, 2.427_069_024_702_853),
            (1.0, 0.1, 9.853_844_780_870_606),
            (0.0, 5.0, 3.691_098_334_042_594e-3),
            (1.0, 5.0, 4.044_613_445_452_164e-3),
            (2.0, 1.0, 1.624_838_898_635_177_5),
            (2.0, 5.0, 5.308_943_712_032_282e-3),
        ];
        for (nu, x, want) in cases {
            let got = bessel_k(nu, x);
            assert!(
                ((got - want) / want).abs() < 1e-10,
                "K_{nu}({x}): got {got:e}, want {want:e}"
            );
        }
    }

    /// Independent cross-check with the integral representation
    /// `K_ν(x) = ∫₀^∞ exp(−x·cosh t)·cosh(νt) dt` (Simpson's rule on a
    /// truncated domain — slow but derivation-independent).
    #[test]
    fn matches_integral_representation() {
        fn k_by_quadrature(nu: f64, x: f64) -> f64 {
            // exp(−x cosh t) < 1e−320 once x cosh t > 740
            let t_max = (740.0 / x).acosh().max(1.0);
            let n = 20_000; // even
            let h = t_max / n as f64;
            let f = |t: f64| (-x * t.cosh()).exp() * (nu * t).cosh();
            let mut s = f(0.0) + f(t_max);
            for i in 1..n {
                let w = if i % 2 == 1 { 4.0 } else { 2.0 };
                s += w * f(h * i as f64);
            }
            s * h / 3.0
        }
        for &(nu, x) in &[(0.75, 1.3), (0.3, 2.5), (1.0, 0.7), (2.2, 4.0), (0.1, 0.4)] {
            let got = bessel_k(nu, x);
            let want = k_by_quadrature(nu, x);
            assert!(
                ((got - want) / want).abs() < 1e-8,
                "K_{nu}({x}): got {got:e}, quadrature {want:e}"
            );
        }
    }

    #[test]
    fn recurrence_consistency() {
        // K_{ν+1}(x) = K_{ν−1}(x) + 2ν/x K_ν(x) must hold across orders and
        // across the x = 2 regime boundary.
        for &x in &[0.5, 1.0, 1.99, 2.01, 3.7, 8.0] {
            for &nu in &[0.2, 0.5, 0.8, 1.0, 1.3] {
                let lhs = bessel_k(nu + 1.0, x);
                let rec = bessel_k((nu - 1.0).abs(), x) + 2.0 * nu / x * bessel_k(nu, x);
                assert!(
                    ((lhs - rec) / lhs).abs() < 1e-10,
                    "recurrence at ν={nu}, x={x}: {lhs:e} vs {rec:e}"
                );
            }
        }
    }

    #[test]
    fn continuity_across_regime_boundary() {
        for &nu in &[0.0, 0.5, 1.0, 1.7, 3.2] {
            let a = bessel_k(nu, 2.0 - 1e-9);
            let b = bessel_k(nu, 2.0 + 1e-9);
            assert!(((a - b) / a).abs() < 1e-6, "ν={nu}: {a:e} vs {b:e}");
        }
    }

    #[test]
    fn monotone_decreasing_in_x() {
        for &nu in &[0.3, 1.0, 2.5] {
            let mut prev = f64::INFINITY;
            for i in 1..60 {
                let x = 0.1 * i as f64;
                let v = bessel_k(nu, x);
                assert!(v < prev, "K_{nu} not decreasing at x={x}");
                assert!(v > 0.0);
                prev = v;
            }
        }
    }

    #[test]
    fn increasing_in_nu() {
        for &x in &[0.3, 1.0, 4.0] {
            assert!(bessel_k(2.0, x) > bessel_k(1.0, x));
            assert!(bessel_k(1.0, x) > bessel_k(0.3, x));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_x() {
        bessel_k(1.0, 0.0);
    }
}
