//! The GradPIM architecture: the paper's primary contribution.
//!
//! This crate layers the GradPIM design of *Kim et al., HPCA 2021* on top of
//! the `gradpim-dram` substrate:
//!
//! * [`scaler`] — the `±(2ⁿ ± 2ᵐ)` shifter-adder scaler and its four
//!   MRW-programmable slots (§IV-B);
//! * [`isa`] — the Table I RFU command encoding over the five spare DDR4
//!   command signals (§IV-E);
//! * [`placement`] — the §V-B data-placement discipline: arrays aligned to
//!   bank regions so matching elements share a bank group across different
//!   banks, with quarter-row packing for quantized shadows;
//! * [`kernel`] — the §IV-D procedures (dequantization, parameter update,
//!   quantization) compiled into per-unit command streams, and the one
//!   driver that feeds such streams to the simulator;
//! * [`memory`] — [`GradPimMemory`], a host-side facade that runs real
//!   gradient-descent steps *inside* the simulated DRAM, over one
//!   parameter group or several stacked ones (one per layer).
//!
//! # Example: momentum SGD running inside DRAM
//!
//! ```
//! use gradpim_core::GradPimMemory;
//! use gradpim_dram::DramConfig;
//! use gradpim_optim::{HyperParams, OptimizerKind, PrecisionMix};
//!
//! let hyper = HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() };
//! let mut mem = GradPimMemory::new(
//!     DramConfig::ddr4_2133(),
//!     OptimizerKind::MomentumSgd,
//!     PrecisionMix::MIXED_8_32,
//!     hyper,
//!     1024,
//! )?;
//! mem.load_theta(&vec![1.0; 1024]);
//! mem.write_gradients(&vec![0.5; 1024]);
//! let report = mem.step()?;           // timed, in-DRAM update
//! assert_eq!(report.stats.external_bytes(), 0); // nothing crossed the bus
//! # Ok::<(), gradpim_core::GradPimError>(())
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod isa;
pub mod kernel;
pub mod memory;
pub mod placement;
pub mod scaler;
pub mod schedule;
pub mod xalu;

pub use isa::{DecodeError, GradPimFunc, RfuBits};
pub use kernel::{
    compile_step, compile_step_parts, run_unit_streams, scaler_bank_for, KernelCounts, KernelError,
    KernelParts, StepPlan, UnitStream,
};
pub use memory::{GradPimError, GradPimMemory, StepReport};
pub use placement::{ArrayName, ArraySpec, Chunk, Placement, PlacementError};
pub use scaler::{ScalerBank, ScalerValue};
pub use schedule::LrSchedule;
pub use xalu::{adam_scalers, adam_step_size, compile_adam, AdamConstants, AdamPlan};
