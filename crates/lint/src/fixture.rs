//! The seeded-violation fixture: one site per sanctionable rule, each
//! under `#[expect(<lint>, reason = "seeded: <rule>")]`.
//!
//! When a rule's lint stops detecting its pattern (its `clippy.toml` entry
//! or its level is deleted), the expectation goes unfulfilled and CI's
//! `cargo clippy --workspace --all-targets -- -D warnings` fails at that
//! line. An `#[expect]` also enables its lint locally, so for restriction
//! lints these sites prove detection, not enablement;
//! [`crate::rules::simple`] checks the enabling lines. The workspace audit
//! skips this file ([`crate::config::FIXTURE`]); `tests/golden.rs` audits
//! it as ordinary library code, where every scoped seed is out of place.

#[expect(clippy::disallowed_types, reason = "seeded: hash-collection")]
pub fn hash_map(rows: &std::collections::HashMap<u32, u64>) -> usize {
    rows.len()
}

#[expect(clippy::disallowed_types, reason = "seeded: hash-collection")]
pub fn hash_set(rows: &std::collections::HashSet<u32>) -> usize {
    rows.len()
}

#[expect(clippy::disallowed_methods, reason = "seeded: thread-spawn")]
pub fn thread_spawn() {
    let _ = std::thread::spawn(|| {}).join();
}

#[expect(clippy::disallowed_methods, reason = "seeded: thread-spawn")]
pub fn thread_scope() {
    std::thread::scope(|_| {});
}

#[expect(clippy::disallowed_methods, reason = "seeded: thread-spawn")]
pub fn builder_spawn() {
    let _ = std::thread::Builder::new().spawn(|| {});
}

#[expect(clippy::disallowed_methods, reason = "seeded: thread-spawn")]
pub fn builder_spawn_scoped<'scope>(s: &'scope std::thread::Scope<'scope, '_>) {
    let _ = std::thread::Builder::new().spawn_scoped(s, || {});
}

#[expect(clippy::disallowed_methods, reason = "seeded: env-discipline")]
pub fn env_var() -> bool {
    std::env::var("GRADPIM_POINTS").is_ok()
}

#[expect(clippy::disallowed_methods, reason = "seeded: env-discipline")]
pub fn env_var_os() -> bool {
    std::env::var_os("GRADPIM_POINTS").is_some()
}

#[expect(clippy::disallowed_methods, reason = "seeded: obs-protocol")]
pub fn stdout_handle() {
    let _out = std::io::stdout();
}

#[expect(clippy::print_stdout, reason = "seeded: print-macro")]
pub fn print_stdout(x: u32) {
    println!("x = {x}");
}

#[expect(clippy::print_stderr, reason = "seeded: print-macro")]
pub fn print_stderr(x: u32) {
    eprintln!("x = {x}");
}

#[expect(clippy::exit, reason = "seeded: process-exit")]
pub fn process_exit() {
    std::process::exit(1);
}

#[expect(
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    reason = "seeded: allow-syntax"
)]
pub mod allow_syntax {
    #[allow(clippy::exit)]
    pub fn noop() {}
}

#[expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "seeded: panic-discipline"
)]
pub fn first_result(slots: &[Option<u32>]) -> u32 {
    slots[0].unwrap() + slots.get(1).copied().flatten().expect("two slots")
}

#[expect(
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    reason = "seeded: panic-discipline"
)]
pub fn panics(x: u32) -> u32 {
    match x {
        0 => panic!("zero"),
        1 => unreachable!("one"),
        _ => unimplemented!("more"),
    }
}

#[cfg(test)]
mod tests {
    // Pins the `allow-*-in-tests` entries of clippy.toml: with one of them
    // deleted, its line below becomes an error.
    #![deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::print_stdout
    )]

    #[test]
    fn tests_may_unwrap_index_panic_and_print() {
        let slots: &[Option<u32>] = &[Some(1)];
        let x = slots[0].unwrap() + slots[0].expect("one slot");
        println!("x = {x}");
        if x != 2 {
            panic!("{x}");
        }
    }
}
