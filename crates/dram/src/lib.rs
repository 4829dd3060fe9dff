//! A cycle-level DDR4 DRAM simulator with the GradPIM protocol extension.
//!
//! This crate is the substrate the paper built on DRAMsim3 (§VI-A),
//! reimplemented from scratch in Rust:
//!
//! * **Organization** — channels → ranks → bank groups → banks, with the
//!   Table II DDR4-2133 preset (plus DDR4-3200 and an HBM2-like point for
//!   the Fig. 12a sweep).
//! * **Timing** — a DRAMsim3-style constraint engine covering
//!   tRCD/tRP/tRAS/tRC, tCCD_L/S, tRRD_L/S + tFAW, tWR/tWTR/tRTP, data-bus
//!   occupancy with rank switching, tREFI/tRFC refresh, and the paper's PIM
//!   rules (§IV-C): scaled reads/writebacks pace the bank-group I/O at
//!   tCCD_L without touching the external bus, and parallel ALU ops occupy
//!   a unit for `tPIM`.
//! * **Controller** — FR-FCFS open-page scheduling with in-order per-unit
//!   PIM streams, direct-attach or per-rank-buffered command issue
//!   (Fig. 8), shared or per-rank data buses (for TensorDIMM-style
//!   baselines).
//! * **Energy** — Micron power-calculator formulas over Table II currents,
//!   IDDpre-based internal transfers, and the Table III PIM-unit layout
//!   numbers.
//! * **Protocol** — the DDR4 commands plus one [`Command::Pim`], which
//!   carries a GradPIM [`PimOp`] (Table I, §VIII) to the unit of one bank
//!   group. Kernels queue bare ops per unit; the controller opens their
//!   rows.
//! * **Function** — optional byte-level storage and live PIM register
//!   files, so kernels *compute* while they are being timed. The
//!   [`ModeRegisters`] hold the scalers, the int8 exponent and the element
//!   formats as one `PrecisionMix`.
//! * **Speed** — an event-driven fast-forward core:
//!   [`Controller::next_event_cycle`] computes the earliest cycle anything
//!   observable can change (timing-constraint expiry, refresh due,
//!   power-down wake, in-flight retire) and
//!   [`Controller::advance_to`]/[`MemorySystem::tick_until_event`] skip
//!   there in bulk, bit-identical to per-cycle stepping
//!   ([`MemorySystem::drain_reference`] keeps the reference path for
//!   differential testing). Issue selection walks only the queues that
//!   hold work and reuses each queue's cached candidate until its queue or
//!   its bank group's timing changes, or its rank refreshes; each
//!   candidate keeps the slot of its rank and class in one flat table of
//!   rank and bus terms, so its earliest cycle is one `max` of two loads.
//!   [`MemorySystem::take_pim_retired`] names the PIM queues that freed
//!   room, so a stream driver refills only those. [`MemorySystem::work`]
//!   counts what that costs ([`WorkCounters`]).
//!
//! # Example
//!
//! ```
//! use gradpim_dram::{AddressMapping, DramConfig, MemorySystem, PimOp};
//!
//! let mut mem = MemorySystem::with_storage(DramConfig::ddr4_2133(), AddressMapping::GradPim);
//! // Put 16 f32 values into bank 0 of bank group 0 and scale them in-DRAM.
//! let bytes: Vec<u8> = (0..16).flat_map(|i| (i as f32).to_le_bytes()).collect();
//! mem.poke(0, &bytes);
//! mem.enqueue_pim(0, 0, 0, PimOp::ScaledRead { bank: 0, row: 0, col: 0, scaler: 0, dst: 0 })?;
//! mem.enqueue_pim(0, 0, 0, PimOp::Writeback { bank: 1, row: 0, col: 0, src: 0 })?;
//! mem.drain(10_000)?;
//! # Ok::<(), gradpim_dram::MemError>(())
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod bank;
pub mod command;
pub mod config;
pub mod controller;
pub mod pim;
pub mod power;
pub mod stats;
pub mod storage;
pub mod system;
pub mod timing;
pub mod trace;

pub use address::{Address, AddressMapping};
pub use command::{BankAddr, Command, CommandKind, PimOp};
pub use config::{CommandIssueMode, DataBusScope, DramConfig, PimPlacement};
pub use controller::{Completion, Controller, EnqueueError};
pub use pim::{ModeRegisters, PimUnit};
pub use power::{PimLayout, PowerModel, DDR4_8GB_DIE_MM2};
pub use stats::{EnergyBreakdown, Stats, WorkCounters};
pub use storage::Storage;
pub use system::{MemError, MemorySystem};
pub use trace::{verify_trace, ProtocolViolation, TraceEntry};
