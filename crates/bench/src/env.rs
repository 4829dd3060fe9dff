//! The bench harness's designated environment-variable module.
//!
//! Every `std::env::var` read in this crate (the `src/` support library
//! *and* the `benches/` figure targets) lives here: the root `clippy.toml`
//! disallows it elsewhere (see `gradpim_engine::env` for the rationale).
//! Knobs owned by this crate:
//!
//! | variable | effect |
//! |---|---|
//! | `GRADPIM_FULL` | `=1` runs the figure benches at full fidelity instead of the scaled default |

#![expect(clippy::disallowed_methods, reason = "the bench harness's designated env module")]

/// `GRADPIM_FULL=1` requests full-fidelity bench runs: no traffic caps,
/// paper-scale measurements.
pub fn full_fidelity() -> bool {
    std::env::var("GRADPIM_FULL").as_deref() == Ok("1")
}
