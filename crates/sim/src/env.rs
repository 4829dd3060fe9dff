//! The simulator's designated environment-variable module.
//!
//! Every `std::env::var` read in this crate lives here: the root
//! `clippy.toml` disallows it elsewhere (see `gradpim_engine::env` for the
//! rationale). Knobs owned by this crate:
//!
//! | variable | effect |
//! |---|---|
//! | `GRADPIM_REFERENCE` | `=1` forces per-cycle stepping (differential runs against the event-skip core) |
//! | `GRADPIM_FULL` | `=1` removes the default traffic caps (full-fidelity runs) |

#![expect(clippy::disallowed_methods, reason = "the simulator's designated env module")]

/// `GRADPIM_REFERENCE=1` forces per-cycle stepping. Cached: the mode must
/// not flip mid-run, and the streaming phases query it per drain.
pub fn reference_mode() -> bool {
    static MODE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| std::env::var("GRADPIM_REFERENCE").as_deref() == Ok("1"))
}

/// `GRADPIM_FULL=1` requests full-fidelity runs: the default burst and
/// parameter caps are lifted.
pub fn full_fidelity() -> bool {
    std::env::var("GRADPIM_FULL").as_deref() == Ok("1")
}
