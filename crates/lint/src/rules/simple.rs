//! Token-pattern rules: determinism, protocol hygiene, panic discipline,
//! and the crate-root `unsafe_code` attribute check.

use std::collections::BTreeSet;

use crate::config::FileMeta;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::rules::FileCtx;

/// `hash-collection`: any `HashMap`/`HashSet` in non-test library/binary
/// code. Hash iteration order varies per process (`RandomState`), so a
/// hash collection anywhere on a path that feeds `Report` rows, `Stats`,
/// or trace emission silently breaks the byte-identity gates; the
/// workspace standard is `BTreeMap`/`BTreeSet` (or an explicit sort
/// before emission, under an allow).
pub fn hash_collection(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_hash_collection() {
        return;
    }
    for i in 0..ctx.len() {
        if ctx.in_test[i] || ctx.kind(i) != TokKind::Ident {
            continue;
        }
        let name = ctx.text(i);
        if name == "HashMap" || name == "HashSet" {
            let btree = if name == "HashMap" { "BTreeMap" } else { "BTreeSet" };
            ctx.error(
                diags,
                meta,
                "hash-collection",
                i,
                format!(
                    "`{name}` iteration order is nondeterministic and this workspace's \
                     reports/stats must be byte-identical across runs — use `{btree}` \
                     (or sort before emission and justify with an allow)"
                ),
            );
        }
    }
}

/// `print-macro`: `print!`-family macros in library code. Stdout is the
/// spec/report pipe (`gradpim-cli --format json | …` must stay
/// machine-parseable); diagnostics belong on stderr, and only the CLI
/// writes the banner.
pub fn print_macro(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_print_macro() {
        return;
    }
    for i in 0..ctx.len().saturating_sub(1) {
        if ctx.in_test[i] || ctx.kind(i) != TokKind::Ident {
            continue;
        }
        let name = ctx.text(i);
        if matches!(name, "print" | "println" | "eprint" | "eprintln") && ctx.text(i + 1) == "!" {
            ctx.error(
                diags,
                meta,
                "print-macro",
                i,
                format!(
                    "`{name}!` in a library crate — stdout is the spec/report pipe and \
                     stderr belongs to the CLI banner; return the text to the caller \
                     or justify with an allow"
                ),
            );
        }
    }
}

/// `obs-protocol`: acquiring a stdout handle (`io::stdout()` or a bare
/// `stdout()`) in library code. Stdout is the spec/report byte-identity
/// protocol; observability output (traces, metrics, span dumps) must be
/// returned as a string for the CLI to route, never written to the pipe
/// directly. The `Command` builder method `.stdout(Stdio::piped())` is a
/// different thing entirely and is excluded by the leading-`.` check.
pub fn obs_protocol(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_obs_protocol() {
        return;
    }
    for i in 0..ctx.len().saturating_sub(1) {
        if ctx.in_test[i] || ctx.kind(i) != TokKind::Ident {
            continue;
        }
        if ctx.text(i) == "stdout" && ctx.text(i + 1) == "(" && (i == 0 || ctx.text(i - 1) != ".") {
            ctx.error(
                diags,
                meta,
                "obs-protocol",
                i,
                "`stdout()` in a library crate — stdout is the spec/report protocol; \
                 return the trace/metrics text to the caller and let the CLI emit it, \
                 or justify with an allow"
                    .into(),
            );
        }
    }
}

/// `process-exit`: `std::process::exit` outside `gradpim-cli`. The CLI
/// owns the documented exit-code contract (0 ok / 1 runtime / 2 usage);
/// a library calling `exit` would skip destructors and bypass that
/// contract.
pub fn process_exit(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_process_exit() {
        return;
    }
    for i in 0..ctx.len().saturating_sub(3) {
        if ctx.in_test[i] {
            continue;
        }
        if ctx.text(i) == "process"
            && ctx.text(i + 1) == ":"
            && ctx.text(i + 2) == ":"
            && ctx.text(i + 3) == "exit"
        {
            ctx.error(
                diags,
                meta,
                "process-exit",
                i,
                "`std::process::exit` outside gradpim-cli — return a Result and let the \
                 CLI map it onto the exit-code contract"
                    .into(),
            );
        }
    }
}

/// `thread-spawn`: thread creation (`thread::spawn`, `thread::Builder`,
/// `thread::scope`) outside the `engine::sched` subsystem — the single
/// spawn site that owns the global thread budget. All parallelism (sweep
/// batches and channel drains alike) must flow through the scheduler so it
/// stays inside the budget and the lowest-index panic propagation.
pub fn thread_spawn(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_thread_spawn() {
        return;
    }
    for i in 0..ctx.len().saturating_sub(3) {
        if ctx.in_test[i] {
            continue;
        }
        let target = ctx.text(i + 3);
        if ctx.text(i) == "thread"
            && ctx.text(i + 1) == ":"
            && ctx.text(i + 2) == ":"
            && matches!(target, "spawn" | "Builder" | "scope")
        {
            ctx.error(
                diags,
                meta,
                "thread-spawn",
                i,
                format!(
                    "`thread::{target}` outside the engine::sched subsystem — route \
                     parallel work through the scheduler so it stays inside the \
                     thread budget and panic-propagation machinery"
                ),
            );
        }
    }
}

/// `panic-discipline`: in the sched, cache, and CLI files a panic does
/// not reach the user as a diagnostic — it masks a batch's lowest-index
/// payload or aborts the run — so potential panic sites need a
/// justification.
pub fn panic_discipline(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_panic_discipline() {
        return;
    }
    for i in 0..ctx.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = ctx.text(i);
        // `.unwrap()` / `.expect(...)` method calls.
        if i > 0
            && i + 1 < ctx.len()
            && matches!(t, "unwrap" | "expect")
            && ctx.text(i - 1) == "."
            && ctx.text(i + 1) == "("
        {
            ctx.error(
                diags,
                meta,
                "panic-discipline",
                i,
                format!(
                    "`.{t}()` in a panic-scoped file — propagate an error (panics here \
                     bypass lowest-index propagation) or justify the invariant with an allow"
                ),
            );
            continue;
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
        if i + 1 < ctx.len()
            && matches!(t, "panic" | "unreachable" | "todo" | "unimplemented")
            && ctx.text(i + 1) == "!"
        {
            ctx.error(
                diags,
                meta,
                "panic-discipline",
                i,
                format!(
                    "`{t}!` in a panic-scoped file — return an error, or justify with an allow"
                ),
            );
            continue;
        }
        // Bare indexing: a postfix `[...]` without a `..` (ranges are
        // slicing, reported separately often enough to stay out of scope).
        // `mut [` is a slice *type* (`&mut [T]`), never an index
        // expression — `mut` lexes as an identifier but cannot receive a
        // postfix index in valid Rust.
        if t == "["
            && i > 0
            && (ctx.kind(i - 1) == TokKind::Ident || matches!(ctx.text(i - 1), ")" | "]"))
            && ctx.text(i - 1) != "mut"
        {
            let mut depth = 1usize;
            let mut j = i + 1;
            let mut has_range = false;
            while j < ctx.len() && depth > 0 {
                match ctx.text(j) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "." if depth == 1 && ctx.adjacent(j) && ctx.text(j + 1) == "." => {
                        has_range = true
                    }
                    _ => {}
                }
                j += 1;
            }
            if !has_range {
                ctx.error(
                    diags,
                    meta,
                    "panic-discipline",
                    i,
                    "bare indexing in a panic-scoped file — use `.get()` with error \
                     handling, or justify the bounds invariant with an allow"
                        .into(),
                );
            }
        }
    }
}

/// `float-accum`: `+=` on a known-float target inside a loop, inside a
/// function whose name contains `merge`. Float addition is not
/// associative, so a bare accumulation loop makes merged results depend
/// on operand arrival order; `Stats::merge_all` is the canonical
/// (sorted-operand) summation point.
pub fn float_accum(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_float_accum() {
        return;
    }
    let floats = float_names(ctx);

    #[derive(PartialEq)]
    enum Scope {
        Fn(String),
        Loop,
        Other,
    }
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut pending_loop = false;

    for i in 0..ctx.len() {
        match ctx.text(i) {
            "fn" if ctx.kind(i) == TokKind::Ident
                && i + 1 < ctx.len()
                && ctx.kind(i + 1) == TokKind::Ident =>
            {
                pending_fn = Some(ctx.text(i + 1).to_string());
            }
            "for" | "while" | "loop" if ctx.kind(i) == TokKind::Ident => pending_loop = true,
            "{" => {
                if let Some(name) = pending_fn.take() {
                    stack.push(Scope::Fn(name));
                } else if pending_loop {
                    stack.push(Scope::Loop);
                } else {
                    stack.push(Scope::Other);
                }
                pending_loop = false;
            }
            "}" => {
                stack.pop();
            }
            ";" => pending_loop = false,
            "+" if ctx.adjacent(i) && i + 1 < ctx.len() && ctx.text(i + 1) == "=" => {
                if ctx.in_test[i] {
                    continue;
                }
                // Innermost enclosing fn, and whether a loop opened inside it.
                let fn_pos = stack.iter().rposition(|s| matches!(s, Scope::Fn(_)));
                let Some(fp) = fn_pos else { continue };
                let Scope::Fn(fn_name) = &stack[fp] else { continue };
                let in_merge = fn_name.contains("merge");
                let in_loop = stack[fp + 1..].contains(&Scope::Loop);
                if !(in_merge && in_loop) {
                    continue;
                }
                if let Some(field) = accum_target(ctx, i) {
                    if floats.contains(field) {
                        ctx.error(
                            diags,
                            meta,
                            "float-accum",
                            i,
                            format!(
                                "float accumulation `{field} +=` inside a loop in \
                                 `{fn_name}` — f64 addition is order-sensitive; sum over \
                                 a canonically ordered sequence (see Stats::merge_all) \
                                 or justify with an allow"
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// The field/variable a `+=` at significant-token `plus` assigns into:
/// the identifier just left of the operator, looking through one index
/// bracket group (`self.commands[i] +=` → `commands`).
pub(super) fn accum_target<'s>(ctx: &FileCtx<'s>, plus: usize) -> Option<&'s str> {
    let mut j = plus.checked_sub(1)?;
    if ctx.text(j) == "]" {
        let mut depth = 1usize;
        while depth > 0 {
            j = j.checked_sub(1)?;
            match ctx.text(j) {
                "]" => depth += 1,
                "[" => depth -= 1,
                _ => {}
            }
        }
        j = j.checked_sub(1)?;
    }
    (ctx.kind(j) == TokKind::Ident).then(|| ctx.text(j))
}

/// Names in this file with a float type: struct fields declared `: f64` /
/// `: f32`, and `let` bindings with a float annotation or float-literal
/// initializer.
pub(super) fn float_names<'s>(ctx: &FileCtx<'s>) -> BTreeSet<&'s str> {
    let mut out = BTreeSet::new();
    for i in 0..ctx.len().saturating_sub(2) {
        if ctx.kind(i) != TokKind::Ident || ctx.text(i + 1) != ":" {
            continue;
        }
        // `name: f64` (field or annotated binding). `::` paths excluded.
        if ctx.text(i + 2) == ":" {
            continue;
        }
        if matches!(ctx.text(i + 2), "f64" | "f32") {
            out.insert(ctx.text(i));
        }
    }
    // `let [mut] name = <float literal>`.
    for i in 0..ctx.len().saturating_sub(3) {
        if ctx.text(i) != "let" {
            continue;
        }
        let n = if ctx.text(i + 1) == "mut" { i + 2 } else { i + 1 };
        if n + 2 < ctx.len()
            && ctx.kind(n) == TokKind::Ident
            && ctx.text(n + 1) == "="
            && ctx.kind(n + 2) == TokKind::Num
            && ctx.text(n + 2).contains('.')
        {
            out.insert(ctx.text(n));
        }
    }
    out
}

/// `forbid-unsafe`: every crate root must carry
/// `#![forbid(unsafe_code)]`.
pub fn forbid_unsafe(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_forbid_unsafe() {
        return;
    }
    for i in 0..ctx.len().saturating_sub(7) {
        if ctx.text(i) == "#"
            && ctx.text(i + 1) == "!"
            && ctx.text(i + 2) == "["
            && ctx.text(i + 3) == "forbid"
            && ctx.text(i + 4) == "("
            && ctx.text(i + 5) == "unsafe_code"
            && ctx.text(i + 6) == ")"
            && ctx.text(i + 7) == "]"
        {
            return;
        }
    }
    if !ctx.is_empty() {
        ctx.error(
            diags,
            meta,
            "forbid-unsafe",
            0,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileMeta;

    fn lib_meta() -> FileMeta {
        FileMeta::classify("crates/dram", "crates/dram/src/stats.rs".into())
    }

    fn cache_meta() -> FileMeta {
        FileMeta::classify("crates/engine", "crates/engine/src/cache.rs".into())
    }

    fn run(src: &str, meta: &FileMeta) -> Vec<Diagnostic> {
        let ctx = FileCtx::new(src);
        let mut diags = Vec::new();
        super::super::run_all(&ctx, meta, &mut diags);
        diags
    }

    #[test]
    fn hash_map_in_lib_code_is_flagged() {
        let d = run(
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
            &lib_meta(),
        );
        assert!(d.iter().filter(|d| d.rule == "hash-collection").count() == 3, "{d:?}");
        assert!(d[0].message.contains("BTreeMap"), "{}", d[0].message);
    }

    #[test]
    fn hash_set_in_tests_is_fine() {
        let d = run(
            "#[cfg(test)]\nmod tests {\n fn t() { let s = std::collections::HashSet::new(); }\n}",
            &lib_meta(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn println_in_lib_is_flagged_strings_are_not() {
        let d = run("fn f() { println!(\"x\"); let s = \"println!\"; }", &lib_meta());
        assert_eq!(d.iter().filter(|d| d.rule == "print-macro").count(), 1, "{d:?}");
    }

    #[test]
    fn stdout_handle_in_lib_is_flagged_command_builder_is_not() {
        let d = run("fn f() { let mut out = std::io::stdout(); }", &lib_meta());
        assert_eq!(d.iter().filter(|d| d.rule == "obs-protocol").count(), 1, "{d:?}");
        // `.stdout(Stdio::piped())` is the Command builder, not the pipe.
        let d = run("fn f(c: &mut Command) { c.stdout(Stdio::piped()); }", &lib_meta());
        assert!(d.iter().all(|d| d.rule != "obs-protocol"), "{d:?}");
        // CLIs own stdout.
        let cli =
            FileMeta::classify("crates/engine", "crates/engine/src/bin/gradpim-cli.rs".into());
        let d = run("fn f() { let mut out = std::io::stdout(); }", &cli);
        assert!(d.iter().all(|d| d.rule != "obs-protocol"), "{d:?}");
    }

    #[test]
    fn process_exit_is_flagged_outside_cli() {
        let d = run("fn f() { std::process::exit(1); }", &lib_meta());
        assert_eq!(d.iter().filter(|d| d.rule == "process-exit").count(), 1, "{d:?}");
        let cli =
            FileMeta::classify("crates/engine", "crates/engine/src/bin/gradpim-cli.rs".into());
        let d = run("fn f() { std::process::exit(1); }", &cli);
        assert!(d.iter().all(|d| d.rule != "process-exit"), "{d:?}");
    }

    #[test]
    fn thread_spawn_flagged_except_in_the_scheduler() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(run(src, &lib_meta()).iter().filter(|d| d.rule == "thread-spawn").count(), 1);
        // Panic-scoped engine files outside `sched/` are no exception.
        assert_eq!(run(src, &cache_meta()).iter().filter(|d| d.rule == "thread-spawn").count(), 1);
        let sched = FileMeta::classify("crates/engine", "crates/engine/src/sched/mod.rs".into());
        assert!(run(src, &sched).iter().all(|d| d.rule != "thread-spawn"));
    }

    #[test]
    fn panic_discipline_catches_unwrap_and_indexing() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { let x = v.get(i).unwrap(); v[0] + x }";
        let d = run(src, &cache_meta());
        let rules: Vec<_> = d.iter().filter(|d| d.rule == "panic-discipline").collect();
        assert_eq!(rules.len(), 2, "{d:?}");
        // Same file outside the panic scope: clean.
        let d = run(src, &lib_meta());
        assert!(d.iter().all(|d| d.rule != "panic-discipline"), "{d:?}");
    }

    #[test]
    fn range_slicing_is_not_bare_indexing() {
        let d = run("fn f(v: &[u32]) -> &[u32] { &v[1..3] }", &cache_meta());
        assert!(d.iter().all(|d| d.rule != "panic-discipline"), "{d:?}");
    }

    #[test]
    fn mut_slice_types_are_not_bare_indexing() {
        let d = run(
            "fn f(items: &mut [u32]) -> Vec<&mut [u32]> { items.chunks_mut(2).collect() }",
            &cache_meta(),
        );
        assert!(d.iter().all(|d| d.rule != "panic-discipline"), "{d:?}");
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let d = run("fn f(v: Option<u32>) -> u32 { v.unwrap_or(3) }", &cache_meta());
        assert!(d.iter().all(|d| d.rule != "panic-discipline"), "{d:?}");
    }

    #[test]
    fn float_accum_in_merge_loop_is_flagged() {
        let src = "struct S { sum_pj: f64, n: u64 }\nimpl S {\n fn merge_parts(&mut self, parts: &[S]) {\n  for p in parts { self.sum_pj += p.sum_pj; self.n += p.n; }\n }\n}";
        let d = run(src, &lib_meta());
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "float-accum").collect();
        assert_eq!(hits.len(), 1, "{d:?}");
        assert!(hits[0].message.contains("sum_pj"), "{}", hits[0].message);
    }

    #[test]
    fn float_accum_outside_loop_or_merge_is_fine() {
        // Pairwise merge without a loop: the canonical-summation fixup in
        // merge_all makes this sound.
        let src = "struct S { sum_pj: f64 }\nimpl S {\n fn merge(&mut self, o: &S) { self.sum_pj += o.sum_pj; }\n fn scale_all(&mut self, xs: &[f64]) { for x in xs { self.sum_pj += x; } }\n}";
        let d = run(src, &lib_meta());
        assert!(d.iter().all(|d| d.rule != "float-accum"), "{d:?}");
    }

    #[test]
    fn forbid_unsafe_missing_on_crate_root() {
        let root = FileMeta::classify("crates/dram", "crates/dram/src/lib.rs".into());
        let d = run("//! Docs.\npub mod stats;\n", &root);
        assert_eq!(d.iter().filter(|d| d.rule == "forbid-unsafe").count(), 1, "{d:?}");
        let d = run("//! Docs.\n#![forbid(unsafe_code)]\npub mod stats;\n", &root);
        assert!(d.iter().all(|d| d.rule != "forbid-unsafe"), "{d:?}");
    }

    #[test]
    fn engine_root_requires_forbid_not_deny() {
        // The engine root is no exception: like every crate root it must
        // forbid unsafe code outright.
        let root = FileMeta::classify("crates/engine", "crates/engine/src/lib.rs".into());
        let d = run("#![deny(unsafe_code)]\n", &root);
        assert_eq!(d.iter().filter(|d| d.rule == "forbid-unsafe").count(), 1, "{d:?}");
        let d = run("#![forbid(unsafe_code)]\n", &root);
        assert!(d.iter().all(|d| d.rule != "forbid-unsafe"), "{d:?}");
    }
}
