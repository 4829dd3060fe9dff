//! The Diannao-like NPU model of §V-A (Fig. 6).
//!
//! The paper pairs GradPIM with an NPU built from 256 multiplier-adder
//! trees (each consuming 256 input pairs per cycle), double-buffered local
//! buffers, an im2col/col2im front-end, and a global buffer. This crate
//! models:
//!
//! * [`config`] — the NPU configuration and the ops/bandwidth ratio that
//!   parameterizes Fig. 12a;
//! * [`compute`] — the blocked-GEMM cycle model for forward/backward
//!   passes;
//! * [`accumulate`] — functional chunk-based accumulation (the §V-A
//!   swamping countermeasure), validated against naive low-precision
//!   summation;
//! * [`im2col`] — the traffic-expansion accounting that justifies the
//!   on-chip im2col module.
//!
//! # Example
//!
//! ```
//! use gradpim_npu::{compute, NpuConfig};
//! use gradpim_workloads::models;
//!
//! let cfg = NpuConfig::paper_default();
//! let net = models::resnet18();
//! let cycles = compute::network_forward_cycles(&cfg, &net, 32);
//! assert!(cycles > 0);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulate;
pub mod compute;
pub mod config;
pub mod im2col;

pub use config::NpuConfig;
