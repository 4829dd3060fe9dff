//! `env-discipline`: each crate reads the process environment in its own
//! `src/env.rs`, so every knob is listed in one place per crate. clippy
//! flags `std::env::{var, var_os}` everywhere; an expectation that
//! sanctions a read must sit in an env module (or a vendor stand-in).

#[cfg(test)]
mod tests {
    use super::super::{check, FileCtx, Finding};
    use crate::config::FileMeta;

    fn run(src: &str, meta: &FileMeta) -> Vec<Finding> {
        check(&FileCtx::new(src), meta)
    }

    #[test]
    fn inline_env_read_is_flagged() {
        let meta = FileMeta::classify("crates/sim", "crates/sim/src/config.rs".into());
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn cap() -> bool { std::env::var(\"GRADPIM_FULL\").is_ok() }";
        let d = run(src, &meta);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "env-discipline");
        assert!(d[0].message.contains("src/env.rs"), "{}", d[0].message);
        let src2 = "use std::env;\n#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn cap() -> bool { env::var_os(\"GRADPIM_FULL\").is_some() }";
        assert_eq!(run(src2, &meta).len(), 1);
    }

    #[test]
    fn the_env_module_itself_is_exempt() {
        let meta = FileMeta::classify("crates/sim", "crates/sim/src/env.rs".into());
        let src = "//! Knobs.\n#![expect(clippy::disallowed_methods, reason = \"the env module\")]\npub fn full() -> bool { std::env::var(\"GRADPIM_FULL\").is_ok() }";
        assert!(run(src, &meta).is_empty());
        // The module-wide expectation covers reads anywhere in the file.
        let src = "#![expect(clippy::disallowed_methods, reason = \"the env module\")]\nfn a() {}\npub fn full() -> bool { std::env::var(\"GRADPIM_FULL\").is_ok() }";
        assert!(run(src, &meta).is_empty());
        // An env module is not a licence to spawn threads.
        let src = "#![expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() { std::thread::spawn(|| {}); }";
        assert_eq!(run(src, &meta).len(), 1);
    }

    #[test]
    fn tests_and_benches_are_covered() {
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn main() { let _ = std::env::var(\"GRADPIM_FULL\"); }";
        let meta = FileMeta::classify("crates/sim", "crates/sim/benches/fig.rs".into());
        assert_eq!(run(src, &meta).len(), 1);
        let meta = FileMeta::classify("crates/sim", "crates/sim/tests/golden.rs".into());
        assert_eq!(run(src, &meta).len(), 1);
        // Test modules inside library files too.
        let meta = FileMeta::classify("crates/sim", "crates/sim/src/config.rs".into());
        let src = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}");
        assert_eq!(run(&src, &meta).len(), 1);
    }

    #[test]
    fn unrelated_var_idents_do_not_fire() {
        let meta = FileMeta::classify("crates/sim", "crates/sim/src/config.rs".into());
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() { let var = 3; g(var); m::var(1); env::vars(); }";
        let d = run(src, &meta);
        assert!(d.iter().all(|f| f.rule != "env-discipline"), "{d:?}");
    }
}
