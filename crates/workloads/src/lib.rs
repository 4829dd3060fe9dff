//! DNN workload models and memory-traffic analysis for the GradPIM
//! reproduction.
//!
//! * [`layer`] — layer descriptors with shape/parameter/MAC arithmetic and
//!   the Fig. 13 weight/activation ratio;
//! * [`models`] — the five evaluation networks of §VI-A (ResNet-18/50,
//!   MobileNetV2, MLP, AlphaGo Zero) with Fig. 2 layer names and Fig. 9
//!   block groupings;
//! * [`traffic`] — the per-phase off-chip traffic model behind Fig. 2,
//!   including the MBS + BNFF reuse filtering.
//!
//! # Example
//!
//! ```
//! use gradpim_workloads::{models, traffic::{update_share, TrafficConfig}};
//!
//! // §II: mixed-precision ResNet-18 spends ~46 % of its off-chip traffic
//! // on parameter updates.
//! let share = update_share(&models::resnet18(), &TrafficConfig::paper_default());
//! assert!(share > 0.35);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod layer;
pub mod models;
pub mod traffic;

pub use layer::{Layer, LayerKind, Network};
pub use traffic::{layer_traffic, network_traffic, total_traffic, PhaseTraffic, TrafficConfig};
