//! System-level co-simulation: NPU + DRAM + GradPIM.
//!
//! This crate composes the substrates into the paper's evaluation platform
//! (§VI-A): the six designs of Fig. 9 ([`Design`]), full training-step
//! simulation ([`TrainingSim`] → Fig. 9/10/11) planned as phase calls
//! ([`PhaseCall`]) and assembled from their results, distributed data
//! parallelism ([`distributed`] → Fig. 14), the six sweep families of the
//! evaluation ([`sweeps`] → Fig. 9, 12a–d, 13, 14), and an end-to-end
//! functional training path ([`functional`]) that learns a real task with
//! every parameter update executed inside the simulated DRAM.
//!
//! # Example
//!
//! ```
//! use gradpim_sim::{Design, SystemConfig, TrainingSim};
//! use gradpim_workloads::models;
//!
//! let net = models::mlp();
//! let mut quick = SystemConfig::new(Design::GradPimBuffered);
//! quick.max_sim_bursts = 2000;
//! quick.max_sim_params = 20_000;
//! let report = TrainingSim::new(quick).run(&net)?;
//! assert!(report.update_ns() > 0.0);
//! # Ok::<(), gradpim_sim::PhaseError>(())
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod distributed;
pub mod env;
pub mod functional;
pub mod phase;
pub mod report;
pub mod sweeps;
pub mod train;

pub use config::{Design, SystemConfig};
pub use distributed::{distributed_step, DistConfig, DistReport, DistSpec};
pub use functional::{synthetic_dataset, PimTrainer};
pub use phase::{PhaseCall, PhaseError, PhaseMemo, PhaseResult, Simulation};
pub use report::{Column, Kind, Report, Schema, SweepRow, ToRow, Value};
pub use train::{BlockReport, TrainingReport, TrainingSim};
