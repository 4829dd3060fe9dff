//! The engine's designated environment-variable module.
//!
//! Every `std::env::var`/`var_os` read in this crate lives here — enforced
//! by `gradpim-lint`'s `env-discipline` rule. Environment knobs are
//! reproducibility inputs: a read scattered at its point of use is
//! per-host nondeterminism the byte-identity CI gates cannot see until a
//! stray variable flips a report on someone else's machine. Keeping the
//! reads in one audited module per crate makes the knob surface
//! enumerable (the README's knob table mirrors these functions) and keeps
//! environment access off hot paths.
//!
//! Knobs owned by this crate:
//!
//! | variable | effect |
//! |---|---|
//! | `GRADPIM_THREADS` | worker-thread count for [`crate::Engine::from_env_with`] |
//! | `GRADPIM_CACHE` | on-disk result-cache directory (the ambient form of `gradpim-cli --cache DIR`; see [`crate::cache`]) |

/// Raw `GRADPIM_THREADS` value, when set. Parsing/clamping stays with
/// [`crate::Engine::from_env_with`], the single consumer.
pub fn threads_var() -> Option<String> {
    std::env::var("GRADPIM_THREADS").ok()
}

/// The on-disk result-cache directory (`GRADPIM_CACHE`), when set — the
/// ambient fallback for `gradpim-cli --cache DIR`. Resolution and
/// writability handling stay with [`crate::cache::store_with_log`], the
/// single consumer.
pub fn cache_dir() -> Option<String> {
    std::env::var(crate::cache::CACHE_DIR_ENV).ok()
}
