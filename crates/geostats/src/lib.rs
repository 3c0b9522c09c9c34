//! Geospatial statistics: Gaussian-process modeling, synthetic data, and
//! maximum likelihood estimation (paper §III-A, §VII-B).
//!
//! The pipeline mirrors ExaGeoStat's: generate spatial locations, build the
//! covariance matrix `Σ(θ)` under a covariance model (squared exponential in
//! 2D/3D or 2D Matérn), draw a synthetic field `Z = L·e`, and recover `θ̂`
//! by maximizing the Gaussian log-likelihood
//!
//! ```text
//! ℓ(θ) = −n/2·log 2π − ½·log|Σ(θ)| − ½·Zᵀ Σ(θ)⁻¹ Z
//! ```
//!
//! with a bound-constrained derivative-free optimizer (a from-scratch
//! substitute for NLOPT's BOBYQA — see DESIGN.md).

pub mod assemble;
pub mod bessel;
pub mod boxplot;
pub mod covariance;
pub mod datagen;
pub mod locations;
pub mod loglik;
pub mod mle;
pub mod montecarlo;
pub mod optimizer;
pub mod predict;
pub mod variogram;

pub use assemble::{covariance_tiles, covariance_tiles_with_norms};
pub use bessel::bessel_k;
pub use boxplot::BoxplotStats;
pub use covariance::{CovarianceModel, Matern2d, PowExp, SqExp};
pub use datagen::generate_field;
pub use locations::{gen_locations_2d, gen_locations_3d, Location};
pub use loglik::{loglik_exact, ExactBackend, LoglikBackend};
pub use mle::{estimate, MleConfig, MleResult};
pub use montecarlo::{run_monte_carlo, MonteCarloConfig, MonteCarloResult};
pub use optimizer::{maximize_bounded, OptimizerConfig, OptimizerResult};
pub use predict::{mspe, predict, predict_with_solver, Prediction};
pub use variogram::{empirical_variogram, model_variogram, VariogramBin};
