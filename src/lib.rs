//! # GradPIM — a practical processing-in-DRAM architecture for gradient descent
//!
//! Full-system Rust reproduction of *Kim et al., "GradPIM: A Practical
//! Processing-in-DRAM Architecture for Gradient Descent", HPCA 2021*
//! (arXiv:2102.07511).
//!
//! This facade crate re-exports the whole workspace so downstream users need
//! a single dependency:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`optim`] | `gradpim-optim` | reference optimizers + quantization numerics |
//! | [`dram`] | `gradpim-dram` | cycle-level DDR4 simulator with the GradPIM protocol extension |
//! | [`core`] | `gradpim-core` | the paper's contribution: PIM unit, RFU ISA, update kernels |
//! | [`workloads`] | `gradpim-workloads` | DNN model zoo + per-layer traffic analysis |
//! | [`npu`] | `gradpim-npu` | Diannao-like NPU performance model |
//! | [`sim`] | `gradpim-sim` | system co-simulation (Baseline / GradPIM-DR / GradPIM-BD / TensorDIMM / AoS / AoS-PB) |
//! | [`engine`] | `gradpim-engine` | parallel execution engine: sweep-point pool, result cache, `gradpim-cli` |
//! | [`obs`] | `gradpim-obs` | tracing spans, metrics registry (Chrome-trace export lives in [`engine::trace`]) |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a guided tour; the short version:
//!
//! ```
//! use gradpim::sim::{Design, SystemConfig, TrainingSim};
//! use gradpim::workloads::models;
//!
//! let net = models::mlp();
//! let mut cfg_base = SystemConfig::new(Design::Baseline);
//! let mut cfg_pim = SystemConfig::new(Design::GradPimBuffered);
//! for c in [&mut cfg_base, &mut cfg_pim] {
//!     c.max_sim_bursts = 2_000; // doc-sized traffic caps
//!     c.max_sim_params = 20_000;
//! }
//! let baseline = TrainingSim::new(cfg_base).run(&net)?;
//! let pim = TrainingSim::new(cfg_pim).run(&net)?;
//! assert!(pim.total_time_ns() < baseline.total_time_ns());
//! # Ok::<(), gradpim::sim::PhaseError>(())
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub use gradpim_core as core;
pub use gradpim_dram as dram;
pub use gradpim_engine as engine;
pub use gradpim_npu as npu;
pub use gradpim_obs as obs;
pub use gradpim_optim as optim;
pub use gradpim_sim as sim;
pub use gradpim_workloads as workloads;
