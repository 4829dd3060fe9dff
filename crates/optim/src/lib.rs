//! Reference optimizer algebra and training numerics for the GradPIM
//! reproduction.
//!
//! This crate is the *ground truth* against which the in-DRAM execution of
//! parameter updates (crate `gradpim-core`) is validated. It provides:
//!
//! * every parameter-update algorithm named in the paper (§III-A, §VIII):
//!   [`Sgd`], [`MomentumSgd`] (with weight decay), [`Nag`], [`Adam`],
//!   [`AdaGrad`], [`RmsProp`], all behind the [`Optimizer`] trait;
//! * the mixed-precision numerics of §II/§VI-C: int8 linear quantization
//!   with power-of-two scales and a hand-rolled IEEE-754 binary16
//!   implementation ([`quant`]);
//! * the [`Precision`]/[`PrecisionMix`] vocabulary used across the whole
//!   workspace (the 8/32, 16/32, 8/16 and 32/32 settings of Fig. 12c/d).
//!
//! # Example
//!
//! ```
//! use gradpim_optim::{MomentumSgd, Optimizer};
//!
//! // Minimise f(x) = x^2 with momentum SGD: gradient is 2x.
//! let mut opt = MomentumSgd::new(0.1, 0.9, 0.0, 1);
//! let mut theta = vec![1.0_f32];
//! for _ in 0..200 {
//!     let g = vec![2.0 * theta[0]];
//!     opt.step(&mut theta, &g);
//! }
//! assert!(theta[0].abs() < 1e-3);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adagrad;
pub mod adam;
pub mod momentum;
pub mod nag;
pub mod optimizer;
pub mod precision;
pub mod quant;
pub mod rmsprop;
pub mod sgd;

pub use adagrad::AdaGrad;
pub use adam::Adam;
pub use momentum::MomentumSgd;
pub use nag::Nag;
pub use optimizer::{HyperParams, Optimizer, OptimizerKind};
pub use precision::{Precision, PrecisionMix};
pub use quant::{dequantize_i8, f16_to_f32, f32_to_f16, quantize_i8, Q8Scale};
pub use rmsprop::RmsProp;
pub use sgd::Sgd;
