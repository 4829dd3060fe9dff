//! `panic-reach`: transitive panic-reachability from protocol roots.
//!
//! The per-site `panic-discipline` rule audits `unwrap`/`panic!` *inside*
//! the protocol-critical files (sched, cache, CLI). This
//! rule closes the gap it leaves: a panic in a helper *called from* those
//! files crashes the protocol just the same, three frames removed from
//! anything the token rule can see. Roots are every non-test function in
//! the panic-discipline scope plus the `report`/`serialize` emit paths
//! (see [`crate::config::FileMeta::panic_reach_root`]); a breadth-first traversal over
//! the workspace call graph then flags every potential panic site the
//! roots can reach, reporting the full call chain root-first in the
//! diagnostic.
//!
//! Two containment mechanisms keep the rule precise:
//!
//! * **absorption boundaries** ([`crate::config::panic_reach_absorbed`]):
//!   functions whose runtime machinery converts payload panics to errors
//!   (`catch_unwind` + bounded retry) stop the traversal;
//! * sites *inside* the panic-discipline scope are skipped here — the
//!   per-site rule already owns them, with its own allow set.

use std::collections::VecDeque;

use crate::config::{self, Role};
use crate::diag::{Diagnostic, Frame, Severity};
use crate::graph::Graph;

/// Runs the rule over a built graph. Diagnostics are handed to `sink`
/// with the index (into [`Graph::files`]) of the file they belong to, so
/// the caller can route them through that file's inline-allow set.
pub fn check(graph: &Graph, sink: &mut dyn FnMut(usize, Diagnostic)) {
    let n = graph.fns.len();
    // Multi-source BFS with parent pointers; fn-id order makes the
    // chosen root and chain deterministic.
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; n]; // (caller, call line)
    let mut root_of: Vec<Option<usize>> = vec![None; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if f.in_test || config::panic_reach_absorbed(&f.qname) {
            continue;
        }
        if graph.metas[f.file].panic_reach_root() {
            root_of[id] = Some(id);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for e in &graph.calls[id] {
            let callee = &graph.fns[e.to];
            if root_of[e.to].is_some()
                || callee.in_test
                || config::panic_reach_absorbed(&callee.qname)
                || graph.metas[callee.file].role == Role::Vendor
            {
                continue;
            }
            root_of[e.to] = root_of[id];
            prev[e.to] = Some((id, e.line));
            queue.push_back(e.to);
        }
    }
    // Report each reachable panic site outside the per-site rule's scope.
    for (id, reach) in root_of.iter().enumerate() {
        let Some(root) = *reach else { continue };
        let f = &graph.fns[id];
        let meta = &graph.metas[f.file];
        if meta.check_panic_discipline() || graph.panics[id].is_empty() {
            continue;
        }
        let chain = chain_to(graph, &prev, root, id);
        for site in &graph.panics[id] {
            let hops = chain.len() - 1;
            let via = if hops == 0 {
                "directly inside a protocol root".to_string()
            } else {
                format!("through {hops} call{}", if hops == 1 { "" } else { "s" })
            };
            sink(
                f.file,
                Diagnostic {
                    rule: "panic-reach",
                    severity: Severity::Error,
                    file: meta.rel.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "`{}` in `{}` is reachable from protocol root `{}` {via}: a panic here \
                         crashes the batch or run outside the lowest-index propagation machinery \
                         — return an error, or absorb it behind a registered catch_unwind \
                         boundary",
                        site.what, f.qname, graph.fns[root].qname
                    ),
                    chain: chain.clone(),
                },
            );
        }
    }
}

/// The root-first frame chain from `root` to `id`: frame 0 anchors the
/// root at its definition; each later frame anchors the callee at the
/// call site in its caller's file.
fn chain_to(graph: &Graph, prev: &[Option<(usize, usize)>], root: usize, id: usize) -> Vec<Frame> {
    let mut rev: Vec<Frame> = Vec::new();
    let mut cur = id;
    while cur != root {
        let Some((caller, line)) = prev[cur] else { break };
        rev.push(Frame {
            name: graph.fns[cur].qname.clone(),
            file: graph.files[graph.fns[caller].file].clone(),
            line,
        });
        cur = caller;
    }
    let r = &graph.fns[root];
    rev.push(Frame { name: r.qname.clone(), file: graph.files[r.file].clone(), line: r.line });
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileMeta;
    use crate::graph::build;
    use crate::rules::FileCtx;
    use std::path::Path;

    fn run(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let metas: Vec<FileMeta> =
            files.iter().map(|(m, r, _)| FileMeta::classify(m, (*r).to_string())).collect();
        let ctxs: Vec<FileCtx<'static>> = files
            .iter()
            .map(|(_, _, s)| FileCtx::new(Box::leak((*s).to_string().into_boxed_str())))
            .collect();
        let pairs: Vec<(&FileMeta, &FileCtx<'_>)> = metas.iter().zip(ctxs.iter()).collect();
        let g = build(Path::new("/nonexistent-root"), &pairs);
        let mut out = Vec::new();
        check(&g, &mut |_, d| out.push(d));
        out
    }

    #[test]
    fn transitive_panic_is_reported_with_its_chain() {
        let d = run(&[
            (
                "crates/engine",
                "crates/engine/src/cache.rs",
                "use crate::util::checked;\npub fn lookup() { checked(3); }\n",
            ),
            (
                "crates/engine",
                "crates/engine/src/util.rs",
                "pub fn checked(n: u32) { deep(n); }\nfn deep(n: u32) { x(n).unwrap(); }\n",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "panic-reach");
        assert_eq!(d[0].file, "crates/engine/src/util.rs");
        let names: Vec<&str> = d[0].chain.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["engine::cache::lookup", "engine::util::checked", "engine::util::deep"]);
    }

    #[test]
    fn sites_inside_panic_discipline_scope_are_left_to_the_per_site_rule() {
        let d = run(&[(
            "crates/engine",
            "crates/engine/src/cache.rs",
            "pub fn lookup() { x.unwrap(); }\n",
        )]);
        assert!(d.is_empty(), "panic-discipline owns in-scope sites: {d:?}");
    }

    #[test]
    fn absorption_boundary_stops_traversal() {
        let d = run(&[
            (
                "crates/engine",
                "crates/engine/src/serialize.rs",
                "impl ExperimentSpec { pub fn run(&self) { crate::payload::go(); } }\n",
            ),
            ("crates/engine", "crates/engine/src/payload.rs", "pub fn go() { x.unwrap(); }\n"),
        ]);
        assert!(d.is_empty(), "absorbed boundary must not leak reachability: {d:?}");
    }

    #[test]
    fn unreached_panics_and_test_code_stay_silent() {
        let d = run(&[
            ("crates/engine", "crates/engine/src/cache.rs", "pub fn lookup() {}\n"),
            (
                "crates/engine",
                "crates/engine/src/other.rs",
                "pub fn helper() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n",
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }
}
