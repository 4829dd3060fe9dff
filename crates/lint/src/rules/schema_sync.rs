//! `schema-sync`: every sweep family's `Schema` column list must match
//! the cells its `ToRow::row` impl emits.
//!
//! `Report::push` checks every row against the family's schema, and the
//! CSV/JSON emitters trust `ToRow::schema` — so a point type whose
//! `schema()` and `row()` drift apart (a field added to one but not the
//! other, columns reordered, a kind changed) ships wrong-shaped data that
//! is only caught at run time, deep in a sweep. This rule re-derives both
//! sides from the source and compares names, kinds, and order statically.
//!
//! The check is structural: `schema()` must build `Schema::new([...])`
//! from literals and `row()` must build `SweepRow::new([...])`; each cell
//! expression is then matched to its column by identifier overlap
//! (`("mac_dim", Kind::Int)` ↔ `self.mac_dim.into()`), and cell kinds are
//! compared where they can be derived (literals, `.as_str()`/`format!`
//! conversions, `as` casts, `Value::…` constructors, or the field's
//! declared type when the point struct lives in the same file). A
//! non-literal schema cannot be checked and is reported as a warning so
//! it never silently drops out of the gate.

use std::collections::BTreeMap;

use crate::config::FileMeta;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokKind;
use crate::rules::FileCtx;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    Str,
    Int,
    Float,
}

impl CellKind {
    fn name(self) -> &'static str {
        match self {
            CellKind::Str => "Str",
            CellKind::Int => "Int",
            CellKind::Float => "Float",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "Str" => Some(CellKind::Str),
            "Int" => Some(CellKind::Int),
            "Float" => Some(CellKind::Float),
            _ => None,
        }
    }

    fn of_type(ty: &str) -> Option<Self> {
        match ty {
            "String" | "str" => Some(CellKind::Str),
            "usize" | "u64" | "i64" | "u32" | "i32" | "u16" | "i16" | "u8" | "i8" | "isize" => {
                Some(CellKind::Int)
            }
            "f64" | "f32" => Some(CellKind::Float),
            _ => None,
        }
    }
}

/// Runs the check over every `impl ToRow for …` block in the file.
pub fn check(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    if !meta.check_schema_sync() {
        return;
    }
    let fields = struct_fields(ctx);
    let mut i = 0;
    while i + 3 < ctx.len() {
        if !(ctx.text(i) == "impl" && ctx.text(i + 1) == "ToRow" && ctx.text(i + 2) == "for") {
            i += 1;
            continue;
        }
        // `impl ToRow for Name {` — the type name is the last ident before
        // the brace (tolerates paths like `sweeps::Point`).
        let mut j = i + 3;
        let mut type_name = "";
        while j < ctx.len() && ctx.text(j) != "{" {
            if ctx.kind(j) == TokKind::Ident {
                type_name = ctx.text(j);
            }
            j += 1;
        }
        let Some(end) = matching_brace(ctx, j) else { break };
        check_impl(ctx, meta, diags, &fields, type_name, i, j, end);
        i = end;
    }
}

/// Index of the `}` matching the `{` at `open` (both significant-token
/// indices), or `None` on malformed input.
fn matching_brace(ctx: &FileCtx<'_>, open: usize) -> Option<usize> {
    if open >= ctx.len() || ctx.text(open) != "{" {
        return None;
    }
    let mut depth = 0usize;
    for k in open..ctx.len() {
        match ctx.text(k) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Finds `fn <name>` inside `[start, end)` and returns the significant
/// index just past its opening body brace, plus the body's close index.
fn fn_body(ctx: &FileCtx<'_>, start: usize, end: usize, name: &str) -> Option<(usize, usize)> {
    for k in start..end.saturating_sub(1) {
        if ctx.text(k) == "fn" && ctx.text(k + 1) == name {
            let mut b = k + 2;
            while b < end && ctx.text(b) != "{" {
                b += 1;
            }
            let close = matching_brace(ctx, b)?;
            return Some((b + 1, close));
        }
    }
    None
}

/// Finds `<head> :: new ( [` inside `[start, end)` and returns the token
/// range strictly inside the `[...]` array literal.
fn new_array(ctx: &FileCtx<'_>, start: usize, end: usize, head: &str) -> Option<(usize, usize)> {
    for k in start..end.saturating_sub(5) {
        if ctx.text(k) == head
            && ctx.text(k + 1) == ":"
            && ctx.text(k + 2) == ":"
            && ctx.text(k + 3) == "new"
            && ctx.text(k + 4) == "("
            && ctx.text(k + 5) == "["
        {
            let mut depth = 1usize;
            let mut m = k + 6;
            while m < end && depth > 0 {
                match ctx.text(m) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                m += 1;
            }
            return (depth == 0).then_some((k + 6, m - 1));
        }
    }
    None
}

/// Parses `("name", Kind::X), …` column pairs out of the schema array
/// range; `None` when the array is not made of literal pairs.
fn parse_columns(ctx: &FileCtx<'_>, start: usize, end: usize) -> Option<Vec<(String, CellKind)>> {
    let mut cols = Vec::new();
    let mut k = start;
    while k < end {
        if ctx.text(k) == "," {
            k += 1;
            continue;
        }
        // `( "name" , Kind : : X )`
        if k + 7 < end
            && ctx.text(k) == "("
            && ctx.kind(k + 1) == TokKind::Str
            && ctx.text(k + 2) == ","
            && ctx.text(k + 3) == "Kind"
            && ctx.text(k + 4) == ":"
            && ctx.text(k + 5) == ":"
            && ctx.text(k + 7) == ")"
        {
            let name = ctx.text(k + 1).trim_matches('"').to_string();
            let kind = CellKind::parse(ctx.text(k + 6))?;
            cols.push((name, kind));
            k += 8;
        } else {
            return None;
        }
    }
    Some(cols)
}

/// Splits the row array range into one token-range per cell, at depth-0
/// commas.
fn split_cells(ctx: &FileCtx<'_>, start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut cells = Vec::new();
    let mut depth = 0usize;
    let mut cell_start = start;
    for k in start..end {
        match ctx.text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "," if depth == 0 => {
                cells.push((cell_start, k));
                cell_start = k + 1;
            }
            _ => {}
        }
    }
    if cell_start < end {
        cells.push((cell_start, end));
    }
    cells
}

/// Struct field types declared in this file: `struct Name { field: Ty }`
/// → `field → CellKind` for the primitives we understand.
fn struct_fields<'s>(ctx: &FileCtx<'s>) -> BTreeMap<&'s str, CellKind> {
    let mut out = BTreeMap::new();
    for i in 0..ctx.len() {
        if ctx.text(i) != "struct" {
            continue;
        }
        let mut j = i + 1;
        while j < ctx.len() && ctx.text(j) != "{" && ctx.text(j) != ";" {
            j += 1;
        }
        let Some(end) = matching_brace(ctx, j) else { continue };
        let mut k = j + 1;
        let mut depth = 0usize;
        while k + 2 < end {
            match ctx.text(k) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                _ => {}
            }
            // `field : Ty` at field depth (not inside a generic argument).
            if depth == 0
                && ctx.kind(k) == TokKind::Ident
                && ctx.text(k + 1) == ":"
                && ctx.text(k + 2) != ":"
            {
                // Skip references/lifetimes to the first type ident.
                let mut t = k + 2;
                while t < end && !matches!(ctx.kind(t), TokKind::Ident) {
                    t += 1;
                }
                if t < end {
                    if let Some(kind) = CellKind::of_type(ctx.text(t)) {
                        out.insert(ctx.text(k), kind);
                    }
                }
            }
            k += 1;
        }
    }
    out
}

/// True when column name `col` plausibly names the cell with identifier
/// set `idents`: exact/containment match on a whole identifier, or at
/// least two `_`-separated name parts (or one long part) appearing inside
/// the identifiers.
fn name_matches(col: &str, idents: &[&str]) -> bool {
    for id in idents {
        if *id == col || (id.len() >= 3 && col.contains(id)) || (col.len() >= 3 && id.contains(col))
        {
            return true;
        }
    }
    let parts: Vec<&str> = col.split('_').filter(|p| !p.is_empty()).collect();
    let found = parts.iter().filter(|p| idents.iter().any(|id| id.contains(*p))).count();
    found >= 2 || parts.iter().any(|p| p.len() >= 4 && idents.iter().any(|id| id.contains(p)))
}

/// Identifiers appearing in a cell expression, minus conversion noise.
fn cell_idents<'s>(ctx: &FileCtx<'s>, start: usize, end: usize) -> Vec<&'s str> {
    const NOISE: &[&str] = &[
        "self",
        "into",
        "as_str",
        "to_string",
        "to_owned",
        "clone",
        "Value",
        "String",
        "from",
        "as",
        "f64",
        "f32",
        "usize",
        "u64",
        "i64",
        "u32",
        "i32",
        "format",
    ];
    (start..end)
        .filter(|&k| ctx.kind(k) == TokKind::Ident && !NOISE.contains(&ctx.text(k)))
        .map(|k| ctx.text(k))
        .collect()
}

/// The cell's kind, when derivable from conversions, literals, casts,
/// `Value::…` constructors, or (last) the point struct's field types.
fn cell_kind(
    ctx: &FileCtx<'_>,
    start: usize,
    end: usize,
    fields: &BTreeMap<&str, CellKind>,
) -> Option<CellKind> {
    let mut field_kind = None;
    for k in start..end {
        let t = ctx.text(k);
        // Explicit `Value::X(...)` constructor decides outright.
        if t == "Value" && k + 3 < end && ctx.text(k + 1) == ":" && ctx.text(k + 2) == ":" {
            if let Some(kind) = CellKind::parse(ctx.text(k + 3)) {
                return Some(kind);
            }
        }
        // String conversions / literals decide.
        if ctx.kind(k) == TokKind::Str || matches!(t, "as_str" | "to_string" | "format") {
            return Some(CellKind::Str);
        }
        // `as f64` / `as usize` casts decide.
        if t == "as" && k + 1 < end {
            if let Some(kind) = CellKind::of_type(ctx.text(k + 1)) {
                return Some(kind);
            }
        }
        if ctx.kind(k) == TokKind::Num {
            return Some(if t.contains('.') { CellKind::Float } else { CellKind::Int });
        }
        // `self.field` → declared type, kept as weakest evidence.
        if field_kind.is_none()
            && t == "self"
            && k + 2 < end
            && ctx.text(k + 1) == "."
            && ctx.kind(k + 2) == TokKind::Ident
        {
            // Only a direct field access (`self.f`, possibly followed by a
            // method call like `.into()`) — not `self.a.b`, whose type
            // lives in another struct.
            let deeper = k + 4 < end
                && ctx.text(k + 3) == "."
                && ctx.kind(k + 4) == TokKind::Ident
                && !(k + 5 < end && ctx.text(k + 5) == "(");
            if !deeper {
                field_kind = fields.get(ctx.text(k + 2)).copied();
            }
        }
    }
    field_kind
}

#[allow(clippy::too_many_arguments)]
fn check_impl(
    ctx: &FileCtx<'_>,
    meta: &FileMeta,
    diags: &mut Vec<Diagnostic>,
    fields: &BTreeMap<&str, CellKind>,
    type_name: &str,
    impl_at: usize,
    body_open: usize,
    body_close: usize,
) {
    let warn = |diags: &mut Vec<Diagnostic>, at: usize, message: String| {
        let t = ctx.tok(at);
        diags.push(Diagnostic {
            rule: "schema-sync",
            severity: Severity::Warning,
            file: meta.rel.clone(),
            line: t.line,
            col: t.col,
            message,
            chain: Vec::new(),
        });
    };

    let schema_body = fn_body(ctx, body_open, body_close, "schema");
    let row_body = fn_body(ctx, body_open, body_close, "row");
    let (Some((ss, se)), Some((rs, re))) = (schema_body, row_body) else {
        warn(
            diags,
            impl_at,
            format!("impl ToRow for {type_name}: cannot find both fn schema and fn row bodies"),
        );
        return;
    };
    let Some((cs, ce)) = new_array(ctx, ss, se, "Schema") else {
        warn(
            diags,
            ss,
            format!(
                "{type_name}::schema is not a literal Schema::new([..]) — not statically checkable"
            ),
        );
        return;
    };
    let Some(cols) = parse_columns(ctx, cs, ce) else {
        warn(diags, cs, format!("{type_name}::schema columns are not literal (name, Kind::..) pairs — not statically checkable"));
        return;
    };
    let Some((vs, ve)) = new_array(ctx, rs, re, "SweepRow") else {
        warn(
            diags,
            rs,
            format!(
                "{type_name}::row is not a literal SweepRow::new([..]) — not statically checkable"
            ),
        );
        return;
    };
    let cells = split_cells(ctx, vs, ve);

    if cols.len() != cells.len() {
        ctx.error(
            diags,
            meta,
            "schema-sync",
            impl_at,
            format!(
                "{type_name}: schema() declares {} columns but row() emits {} cells — \
                 Report::push will reject this family's rows",
                cols.len(),
                cells.len()
            ),
        );
        return;
    }

    let idents: Vec<Vec<&str>> = cells.iter().map(|&(s, e)| cell_idents(ctx, s, e)).collect();
    for (i, (col, kind)) in cols.iter().enumerate() {
        if !name_matches(col, &idents[i]) {
            // Point at the order drift when the column matches another cell.
            let elsewhere = (0..cells.len()).find(|&j| j != i && name_matches(col, &idents[j]));
            let hint = match elsewhere {
                Some(j) => format!("cell {j} matches it — columns and cells out of order?"),
                None => format!("cell {i} mentions [{}]", idents[i].join(", ")),
            };
            ctx.error(
                diags,
                meta,
                "schema-sync",
                cells[i].0,
                format!("{type_name}: column {i} `{col}` does not match its row cell; {hint}"),
            );
            continue;
        }
        if let Some(actual) = cell_kind(ctx, cells[i].0, cells[i].1, fields) {
            if actual != *kind {
                ctx.error(
                    diags,
                    meta,
                    "schema-sync",
                    cells[i].0,
                    format!(
                        "{type_name}: column `{col}` is Kind::{} but its cell produces a {} \
                         value",
                        kind.name(),
                        actual.name()
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileMeta;

    fn meta() -> FileMeta {
        FileMeta::classify("crates/sim", "crates/sim/src/sweeps.rs".into())
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new(src);
        let mut diags = Vec::new();
        check(&ctx, &meta(), &mut diags);
        diags
    }

    const GOOD: &str = r#"
pub struct Point { pub network: String, pub batch: usize, pub speedup_pct: f64 }
impl ToRow for Point {
    fn schema() -> Schema {
        Schema::new([("network", Kind::Str), ("batch", Kind::Int), ("speedup_pct", Kind::Float)])
    }
    fn row(&self) -> SweepRow {
        SweepRow::new([self.network.as_str().into(), self.batch.into(), self.speedup_pct.into()])
    }
}
"#;

    #[test]
    fn matching_impl_is_clean() {
        let d = run(GOOD);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn arity_drift_is_flagged() {
        let src = GOOD.replace(", (\"speedup_pct\", Kind::Float)", "");
        let d = run(&src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("3 cells"), "{}", d[0].message);
        assert!(d[0].message.contains("2 columns"), "{}", d[0].message);
    }

    #[test]
    fn renamed_column_is_flagged() {
        let src = GOOD.replace("(\"batch\", Kind::Int)", "(\"nodes\", Kind::Int)");
        let d = run(&src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`nodes`"), "{}", d[0].message);
    }

    #[test]
    fn reordered_cells_are_flagged_as_order_drift() {
        let src = GOOD.replace(
            "[self.network.as_str().into(), self.batch.into(), self.speedup_pct.into()]",
            "[self.network.as_str().into(), self.speedup_pct.into(), self.batch.into()]",
        );
        let d = run(&src);
        assert!(!d.is_empty(), "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("out of order")), "{d:?}");
    }

    #[test]
    fn kind_drift_on_declared_field_is_flagged() {
        let src = GOOD.replace("(\"batch\", Kind::Int)", "(\"batch\", Kind::Float)");
        let d = run(&src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Kind::Float"), "{}", d[0].message);
    }

    #[test]
    fn string_conversion_vs_int_column_is_flagged() {
        let src = GOOD.replace("self.batch.into()", "self.batch.to_string().into()");
        let d = run(&src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Str value"), "{}", d[0].message);
    }

    #[test]
    fn non_literal_schema_is_a_warning_not_an_error() {
        let src = r#"
impl ToRow for Dyn {
    fn schema() -> Schema { build_schema() }
    fn row(&self) -> SweepRow { build_row(self) }
}
"#;
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn method_derived_cells_match_by_name() {
        let src = r#"
pub struct Row { pub nodes: usize }
impl ToRow for Row {
    fn schema() -> Schema {
        Schema::new([("nodes", Kind::Int), ("speedup", Kind::Float)])
    }
    fn row(&self) -> SweepRow {
        SweepRow::new([self.nodes.into(), self.speedup().into()])
    }
}
"#;
        let d = run(src);
        assert!(d.is_empty(), "{d:?}");
    }
}
