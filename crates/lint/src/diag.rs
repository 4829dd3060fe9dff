//! Diagnostics: severity model, stable ordering, and the human / JSON
//! renderings.
//!
//! The severity model is **deny by default**: every rule reports at
//! [`Severity::Error`] unless the rule itself documents a softer level
//! (only `unused-allow` does — see [`crate::allow`]). Errors fail the run;
//! warnings are printed but exit clean, so the CI gate stays strict
//! without turning hygiene nits into build breaks.
//!
//! JSON output follows the same hand-rolled conventions as
//! `gradpim_engine::json` (minimal canonical escaping, members in fixed
//! order, one stable sort over the records) so reports diff cleanly across
//! runs and machines.

use std::fmt;

use crate::json::push_json_str;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the run.
    Warning,
    /// Fails the run (exit code 1).
    Error,
}

impl Severity {
    /// The JSON/human spelling.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One frame of a graph-rule call chain: a function and where it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Fully-qualified function name (`crate::module::[Type::]fn`).
    pub name: String,
    /// Workspace-relative file of the definition.
    pub file: String,
    /// 1-based line of the call site (or the definition, for frame 0).
    pub line: usize,
}

/// One finding: a rule, a location, and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Severity under the deny-by-default model.
    pub severity: Severity,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (characters).
    pub col: usize,
    /// What is wrong and what to do instead.
    pub message: String,
    /// For graph rules (`panic-reach`): the call chain from a protocol
    /// root to the reported site, root first. Empty for token rules.
    pub chain: Vec<Frame>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}:{}: [{}] {}",
            self.severity.name(),
            self.file,
            self.line,
            self.col,
            self.rule,
            self.message
        )?;
        for (i, frame) in self.chain.iter().enumerate() {
            write!(f, "\n    #{i} {} ({}:{})", frame.name, frame.file, frame.line)?;
        }
        Ok(())
    }
}

/// Sorts diagnostics into the one canonical report order: by file, line,
/// column, then rule name — independent of rule execution order.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.col, b.rule, &b.message))
    });
}

/// Renders the human report: one line per diagnostic plus a summary line.
pub fn render_human(diags: &[Diagnostic], files_checked: usize) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    out.push_str(&format!(
        "gradpim-lint: {files_checked} files checked, {errors} error{}, {warnings} warning{}\n",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    ));
    out
}

/// Renders the machine-readable report (already-sorted diagnostics), e.g.:
///
/// ```json
/// {
///   "tool": "gradpim-lint",
///   "version": 2,
///   "files_checked": 92,
///   "errors": 1,
///   "warnings": 0,
///   "diagnostics": [
///     {"rule": "...", "severity": "error", "file": "...",
///      "line": 3, "col": 9, "message": "..."}
///   ]
/// }
/// ```
///
/// Version 2 adds an optional `chain` member per diagnostic — the
/// root-first call chain of a graph rule, present only when non-empty:
///
/// ```json
/// {"rule": "panic-reach", ..., "chain": [
///   {"name": "engine::cache::lookup", "file": "...", "line": 41},
///   {"name": "engine::util::checked", "file": "...", "line": 7}
/// ]}
/// ```
pub fn render_json(diags: &[Diagnostic], files_checked: usize) -> String {
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.len() - errors;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"gradpim-lint\",\n");
    out.push_str("  \"version\": 2,\n");
    out.push_str(&format!("  \"files_checked\": {files_checked},\n"));
    out.push_str(&format!("  \"errors\": {errors},\n"));
    out.push_str(&format!("  \"warnings\": {warnings},\n"));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"rule\": ");
        push_json_str(&mut out, d.rule);
        out.push_str(", \"severity\": ");
        push_json_str(&mut out, d.severity.name());
        out.push_str(", \"file\": ");
        push_json_str(&mut out, &d.file);
        out.push_str(&format!(", \"line\": {}, \"col\": {}, \"message\": ", d.line, d.col));
        push_json_str(&mut out, &d.message);
        if !d.chain.is_empty() {
            out.push_str(", \"chain\": [");
            for (k, fr) in d.chain.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"name\": ");
                push_json_str(&mut out, &fr.name);
                out.push_str(", \"file\": ");
                push_json_str(&mut out, &fr.file);
                out.push_str(&format!(", \"line\": {}}}", fr.line));
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str(if diags.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: usize, rule: &'static str) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Error,
            file: file.into(),
            line,
            col: 1,
            message: "m".into(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn sort_is_by_file_then_line_then_rule() {
        let mut v = vec![diag("b.rs", 1, "x"), diag("a.rs", 9, "x"), diag("a.rs", 2, "y")];
        sort(&mut v);
        assert_eq!(
            v.iter().map(|d| (d.file.as_str(), d.line)).collect::<Vec<_>>(),
            [("a.rs", 2), ("a.rs", 9), ("b.rs", 1)]
        );
    }

    #[test]
    fn json_escapes_metacharacters() {
        let mut d = diag("a.rs", 1, "r");
        d.message = "quote \" slash \\ tab\t".into();
        let json = render_json(&[d], 1);
        assert!(json.contains(r#""quote \" slash \\ tab\t""#), "{json}");
    }

    #[test]
    fn empty_report_is_well_formed() {
        let json = render_json(&[], 3);
        assert!(json.contains("\"diagnostics\": []"), "{json}");
        assert!(json.contains("\"errors\": 0"), "{json}");
    }

    #[test]
    fn chains_render_in_both_formats() {
        let mut d = diag("a.rs", 9, "panic-reach");
        d.chain = vec![
            Frame { name: "engine::pool::run".into(), file: "pool.rs".into(), line: 4 },
            Frame { name: "engine::util::f".into(), file: "util.rs".into(), line: 9 },
        ];
        let human = d.to_string();
        assert!(human.contains("\n    #0 engine::pool::run (pool.rs:4)"), "{human}");
        assert!(human.contains("\n    #1 engine::util::f (util.rs:9)"), "{human}");
        let json = render_json(&[d], 1);
        assert!(
            json.contains(r#""chain": [{"name": "engine::pool::run", "file": "pool.rs", "line": 4}, {"name": "engine::util::f", "file": "util.rs", "line": 9}]"#),
            "{json}"
        );
        // Chain-free diagnostics omit the member entirely.
        let json = render_json(&[diag("a.rs", 1, "r")], 1);
        assert!(!json.contains("chain"), "{json}");
    }
}
