//! An error-tolerant, recursive-descent *item* parser over the
//! [`crate::lexer`] token stream — how the audit tells which item an
//! `#[expect]` is attached to ([`crate::allow`]).
//!
//! The contract mirrors the lexer's, one level up:
//!
//! * **never panics** — any byte sequence, including torn-off Rust,
//!   produces *some* item tree;
//! * **exact source partition** — at every nesting level the item spans
//!   are an in-order, gap-free, non-overlapping cover of that level's
//!   significant tokens (unrecognized stretches become [`ItemKind::Verbatim`]
//!   runs rather than being dropped), so spans round-trip losslessly back
//!   to byte offsets;
//! * **approximate by design** — this is not a Rust grammar. It recovers
//!   the item skeleton (`fn`/`mod`/`impl`/`trait`/`use`/…), names, and
//!   brace-delimited bodies; statement-level structure inside bodies is
//!   left as raw token ranges.
//!
//! Both properties are proptested the same way the lexer is
//! (`tests/parser_prop.rs`).

use crate::lexer::{TokKind, Token};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(...) { ... }` or a bodiless `fn name(...);` declaration.
    Fn,
    /// `mod name { ... }` (children parsed).
    Mod,
    /// `mod name;` (the module lives in another file).
    ModDecl,
    /// `use path::{...};`
    Use,
    /// `impl [Trait for] Type { ... }` (children parsed).
    Impl,
    /// `trait Name { ... }` (children parsed).
    Trait,
    /// `struct` / `enum` / `union` definitions.
    Type,
    /// `const` / `static` items.
    Const,
    /// `type Alias = ...;`
    TypeAlias,
    /// `macro_rules! name { ... }` / `macro name { ... }`.
    MacroDef,
    /// `extern "C" { ... }` foreign block (body left opaque).
    ExternBlock,
    /// `extern crate name;`
    ExternCrate,
    /// Anything the parser did not recognize as an item: a maximal run of
    /// tokens (balanced groups consumed whole) between recognized items.
    Verbatim,
}

/// One parsed item.
///
/// Spans are ranges over the file's *significant-token index space* (the
/// `sig` vector of [`crate::rules::FileCtx`]): `span = (start, end)` means
/// significant tokens `start..end` belong to this item, `body` is the
/// range strictly inside a braced body (exclusive of the braces), and
/// `name_tok` is the index of the defining name token.
#[derive(Debug, Clone)]
pub struct Item {
    /// What this is.
    pub kind: ItemKind,
    /// The defining name (`fn name`, `mod name`, the `impl` self type…),
    /// raw-identifier prefix stripped. `None` for `use`/`impl`-less forms
    /// and verbatim runs.
    pub name: Option<String>,
    /// For [`ItemKind::Impl`]: the trait in `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// Significant-token span `[start, end)` of the whole item, attributes
    /// included.
    pub span: (usize, usize),
    /// Significant-token index of the name token, when there is one.
    pub name_tok: Option<usize>,
    /// Significant-token range strictly inside the braced body, when the
    /// item has one (`fn`/`mod`/`impl`/`trait` bodies).
    pub body: Option<(usize, usize)>,
    /// Nested items, parsed for `mod`/`impl`/`trait` bodies only — they
    /// exactly partition `body`. `fn` bodies are deliberately left
    /// unparsed.
    pub children: Vec<Item>,
}

/// A token-slice view the parser walks: source text plus the significant
/// token indices of one file.
struct View<'s> {
    src: &'s str,
    tokens: &'s [Token],
    sig: &'s [usize],
}

impl<'s> View<'s> {
    fn text(&self, i: usize) -> &'s str {
        self.tokens[self.sig[i]].text(self.src)
    }

    fn kind(&self, i: usize) -> TokKind {
        self.tokens[self.sig[i]].kind
    }

    /// True when significant tokens `i` and `i+1` touch byte-adjacently
    /// (distinguishes `->`'s `>` from a closing angle bracket).
    fn adjacent(&self, i: usize) -> bool {
        i + 1 < self.sig.len() && self.tokens[self.sig[i]].end == self.tokens[self.sig[i + 1]].start
    }
}

/// Parses a file's significant tokens into an item tree. `tokens`/`sig`
/// must come from [`crate::lexer::lex`] over the same `src`.
pub fn parse_items(src: &str, tokens: &[Token], sig: &[usize]) -> Vec<Item> {
    let v = View { src, tokens, sig };
    parse_range(&v, 0, sig.len(), 0)
}

/// Keywords that may prefix an item's defining keyword.
const MODIFIERS: &[&str] = &["pub", "default", "const", "async", "unsafe", "extern"];

/// Nesting levels beyond which the parser stops recursing into
/// `mod`/`impl`/`trait` bodies and leaves them opaque — a cheap guard
/// against adversarial brace towers blowing the stack. Real code never
/// gets near it.
const MAX_DEPTH: usize = 64;

/// Parses the items of one nesting level (`lo..hi` in sig-index space).
/// The returned items exactly partition `lo..hi`.
fn parse_range(v: &View<'_>, lo: usize, hi: usize, depth: usize) -> Vec<Item> {
    let mut items: Vec<Item> = Vec::new();
    let mut i = lo;
    while i < hi {
        let start = i;
        // Leading attributes (`#[...]` / `#![...]`) belong to the item.
        i = skip_attrs(v, i, hi);
        // Visibility and modifier keywords. `extern` is tricky: it both
        // modifies (`extern "C" fn`) and leads (`extern crate`,
        // `extern "C" { ... }`), so look ahead before treating it as a
        // modifier.
        let mut j = i;
        while j < hi && v.kind(j) == TokKind::Ident && MODIFIERS.contains(&v.text(j)) {
            let word = v.text(j);
            if word == "pub" && j + 1 < hi && v.text(j + 1) == "(" {
                j = skip_group(v, j + 1, hi, "(", ")");
                continue;
            }
            if word == "const" {
                // `const fn` / `const unsafe fn` is a modifier; `const N:`
                // is the item keyword itself.
                let next = (j + 1 < hi).then(|| v.text(j + 1));
                if !matches!(next, Some("fn" | "unsafe" | "extern" | "async")) {
                    break;
                }
            }
            if word == "extern" {
                // `extern crate x;` and `extern "C" { ... }` are items of
                // their own; `extern "C" fn` is a modifier.
                if j + 1 < hi && v.text(j + 1) == "crate" {
                    break;
                }
                let after_abi =
                    if j + 1 < hi && v.kind(j + 1) == TokKind::Str { j + 2 } else { j + 1 };
                if after_abi < hi && v.text(after_abi) == "{" {
                    break;
                }
                j = after_abi;
                continue;
            }
            j += 1;
        }
        let item = if j < hi && v.kind(j) == TokKind::Ident {
            match v.text(j) {
                "fn" => Some(parse_fn(v, start, j, hi)),
                "mod" => Some(parse_mod(v, start, j, hi, depth)),
                "use" => Some(finish_semi(v, start, j, hi, ItemKind::Use, None)),
                "impl" => Some(parse_impl(v, start, j, hi, depth)),
                "trait" => Some(parse_braced(v, start, j, hi, ItemKind::Trait, depth)),
                "struct" | "enum" | "union" => {
                    Some(parse_type_def(v, start, j, hi, name_after(v, j, hi)))
                }
                "const" | "static" => {
                    Some(finish_semi(v, start, j, hi, ItemKind::Const, name_after(v, j, hi)))
                }
                "type" => {
                    Some(finish_semi(v, start, j, hi, ItemKind::TypeAlias, name_after(v, j, hi)))
                }
                "macro_rules" | "macro" => Some(parse_macro_def(v, start, j, hi)),
                "extern" => Some(parse_extern(v, start, j, hi)),
                _ => None,
            }
        } else {
            None
        };
        match item {
            Some(item) => {
                debug_assert!(item.span.1 > start, "parser must always make progress");
                i = item.span.1.max(start + 1);
                items.push(item);
            }
            None => {
                // Not an item: extend (or open) a verbatim run by one
                // balanced unit. Attributes already skipped still land in
                // the run via `start`.
                let step = if i < hi {
                    match v.text(i) {
                        "{" => skip_group(v, i, hi, "{", "}"),
                        "(" => skip_group(v, i, hi, "(", ")"),
                        "[" => skip_group(v, i, hi, "[", "]"),
                        _ => i + 1,
                    }
                } else {
                    // Only attributes/modifiers until `hi`: close out.
                    hi
                };
                let step = step.max(start + 1).min(hi);
                if let Some(last) = items.last_mut() {
                    if last.kind == ItemKind::Verbatim && last.span.1 == start {
                        last.span.1 = step;
                        i = step;
                        continue;
                    }
                }
                items.push(Item {
                    kind: ItemKind::Verbatim,
                    name: None,
                    trait_name: None,
                    span: (start, step),
                    name_tok: None,
                    body: None,
                    children: Vec::new(),
                });
                i = step;
            }
        }
    }
    items
}

/// Skips a run of outer/inner attributes starting at `i`; returns the
/// first non-attribute position.
fn skip_attrs(v: &View<'_>, mut i: usize, hi: usize) -> usize {
    loop {
        if i < hi && v.text(i) == "#" {
            let mut j = i + 1;
            if j < hi && v.text(j) == "!" {
                j += 1;
            }
            if j < hi && v.text(j) == "[" {
                i = skip_group(v, j, hi, "[", "]");
                continue;
            }
        }
        return i;
    }
}

/// From an opener at `i`, returns the position just past its matching
/// closer (or `hi` when unterminated — error tolerance, never panics).
fn skip_group(v: &View<'_>, i: usize, hi: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < hi {
        let t = v.text(j);
        if t == open {
            depth += 1;
        } else if t == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    hi
}

/// The defining name right after an item keyword at `kw`, if present.
fn name_after(v: &View<'_>, kw: usize, hi: usize) -> Option<(String, usize)> {
    let n = kw + 1;
    (n < hi && v.kind(n) == TokKind::Ident)
        .then(|| (v.text(n).trim_start_matches("r#").to_string(), n))
}

/// Consumes from `start` to the end of an item that terminates at the
/// first `;` **or** first balanced `{...}` group at bracket-depth zero —
/// the shape shared by `fn`, `struct`, `enum`, `const`, `use`, and
/// friends. Returns `(end, body)` where `body` is the inside of the brace
/// group when that is how the item ended.
fn consume_to_semi_or_block(
    v: &View<'_>,
    from: usize,
    hi: usize,
) -> (usize, Option<(usize, usize)>) {
    let mut j = from;
    let mut paren = 0usize;
    let mut bracket = 0usize;
    while j < hi {
        match v.text(j) {
            "(" => paren += 1,
            ")" => paren = paren.saturating_sub(1),
            "[" => bracket += 1,
            "]" => bracket = bracket.saturating_sub(1),
            ";" if paren == 0 && bracket == 0 => return (j + 1, None),
            "{" if paren == 0 && bracket == 0 => {
                let end = skip_group(v, j, hi, "{", "}");
                let body_hi = if end > j + 1 { end - 1 } else { end };
                return (end, Some((j + 1, body_hi)));
            }
            // A stray closer means we ran off the end of our level (e.g.
            // an item missing its `;` just before the parent's `}`).
            "}" => return (j.max(from + 1), None),
            _ => {}
        }
        j += 1;
    }
    (hi, None)
}

/// An item ending in `;` (or, tolerantly, a `{...}` initializer for
/// consts): `use`, `const`, `static`, `type`, `extern crate`, `mod x;`.
fn finish_semi(
    v: &View<'_>,
    start: usize,
    kw: usize,
    hi: usize,
    kind: ItemKind,
    name: Option<(String, usize)>,
) -> Item {
    let (end, _) = consume_to_semi_or_block(v, kw, hi);
    let (name, name_tok) = name.map(|(n, t)| (Some(n), Some(t))).unwrap_or((None, None));
    Item {
        kind,
        name,
        trait_name: None,
        span: (start, end),
        name_tok,
        body: None,
        children: vec![],
    }
}

/// `fn name(...) [-> T] [where ...] { body }` or `fn name(...);`.
fn parse_fn(v: &View<'_>, start: usize, kw: usize, hi: usize) -> Item {
    let name = name_after(v, kw, hi);
    let (end, body) = consume_to_semi_or_block(v, kw + 1, hi);
    let (name, name_tok) = name.map(|(n, t)| (Some(n), Some(t))).unwrap_or((None, None));
    Item {
        kind: ItemKind::Fn,
        name,
        trait_name: None,
        span: (start, end),
        name_tok,
        body,
        children: Vec::new(),
    }
}

/// `struct`/`enum`/`union` — like [`finish_semi`] but brace bodies are
/// normal (`struct S { ... }`).
fn parse_type_def(
    v: &View<'_>,
    start: usize,
    kw: usize,
    hi: usize,
    name: Option<(String, usize)>,
) -> Item {
    let (end, body) = consume_to_semi_or_block(v, kw, hi);
    let (name, name_tok) = name.map(|(n, t)| (Some(n), Some(t))).unwrap_or((None, None));
    Item {
        kind: ItemKind::Type,
        name,
        trait_name: None,
        span: (start, end),
        name_tok,
        body,
        children: Vec::new(),
    }
}

/// `mod name;` or `mod name { items... }` with children parsed.
fn parse_mod(v: &View<'_>, start: usize, kw: usize, hi: usize, depth: usize) -> Item {
    let name = name_after(v, kw, hi);
    let after = name.as_ref().map(|&(_, t)| t + 1).unwrap_or(kw + 1);
    if after < hi && v.text(after) == "{" {
        let end = skip_group(v, after, hi, "{", "}");
        let body_hi = if end > after + 1 { end - 1 } else { end };
        let children = if depth < MAX_DEPTH {
            parse_range(v, after + 1, body_hi, depth + 1)
        } else {
            Vec::new()
        };
        let (name, name_tok) = name.map(|(n, t)| (Some(n), Some(t))).unwrap_or((None, None));
        Item {
            kind: ItemKind::Mod,
            name,
            trait_name: None,
            span: (start, end),
            name_tok,
            body: Some((after + 1, body_hi)),
            children,
        }
    } else {
        finish_semi(v, start, kw, hi, ItemKind::ModDecl, name)
    }
}

/// A braced container item (`trait`): name, body, children.
fn parse_braced(
    v: &View<'_>,
    start: usize,
    kw: usize,
    hi: usize,
    kind: ItemKind,
    d: usize,
) -> Item {
    let name = name_after(v, kw, hi);
    let (end, body) = consume_to_semi_or_block(v, kw + 1, hi);
    let children = match body {
        Some((blo, bhi)) if d < MAX_DEPTH => parse_range(v, blo, bhi, d + 1),
        _ => Vec::new(),
    };
    let (name, name_tok) = name.map(|(n, t)| (Some(n), Some(t))).unwrap_or((None, None));
    Item { kind, name, trait_name: None, span: (start, end), name_tok, body, children }
}

/// `impl [<...>] [Trait for] Type [where ...] { items }`.
///
/// `name` is the self type's final plain segment, `trait_name` the
/// trait's — both approximate (a reference/tuple/slice self type yields
/// its last identifier).
fn parse_impl(v: &View<'_>, start: usize, kw: usize, hi: usize, depth: usize) -> Item {
    // Skip generic parameters, tolerating `->` inside bounds.
    let mut j = kw + 1;
    if j < hi && v.text(j) == "<" {
        let mut angle = 0usize;
        while j < hi {
            match v.text(j) {
                "<" => angle += 1,
                ">" if j > 0 && v.text(j - 1) == "-" && v.adjacent(j - 1) => {} // `->`
                ">" => {
                    angle = angle.saturating_sub(1);
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                "{" | ";" => break, // malformed; bail to error tolerance
                _ => {}
            }
            j += 1;
        }
    }
    // Walk the header up to `{`/`where`/`;`, tracking the last identifier
    // at angle-depth zero of each side of a possible `for`.
    let mut angle = 0usize;
    let mut current: Option<(String, usize)> = None;
    let mut before_for: Option<(String, usize)> = None;
    let mut saw_for = false;
    while j < hi {
        let t = v.text(j);
        match t {
            "<" => angle += 1,
            ">" if j > 0 && v.text(j - 1) == "-" && v.adjacent(j - 1) => {}
            ">" => angle = angle.saturating_sub(1),
            "{" | ";" if angle == 0 => break,
            "where" if angle == 0 && v.kind(j) == TokKind::Ident => break,
            "for" if angle == 0 && v.kind(j) == TokKind::Ident => {
                before_for = current.take();
                saw_for = true;
            }
            _ if angle == 0 && v.kind(j) == TokKind::Ident => {
                current = Some((t.trim_start_matches("r#").to_string(), j));
            }
            _ => {}
        }
        j += 1;
    }
    let (trait_name, self_ty) =
        if saw_for { (before_for.map(|(n, _)| n), current) } else { (None, current) };
    let (end, body) = consume_to_semi_or_block(v, j, hi);
    let children = match body {
        Some((blo, bhi)) if depth < MAX_DEPTH => parse_range(v, blo, bhi, depth + 1),
        _ => Vec::new(),
    };
    let (name, name_tok) = self_ty.map(|(n, t)| (Some(n), Some(t))).unwrap_or((None, None));
    Item {
        kind: ItemKind::Impl,
        name,
        trait_name,
        span: (start, end.max(start + 1)),
        name_tok,
        body,
        children,
    }
}

/// `macro_rules! name { ... }` / `macro name { ... }` — opaque body.
fn parse_macro_def(v: &View<'_>, start: usize, kw: usize, hi: usize) -> Item {
    // `macro_rules` is followed by `!` then the name; `macro` by the name.
    let mut n = kw + 1;
    if n < hi && v.text(n) == "!" {
        n += 1;
    }
    let name = (n < hi && v.kind(n) == TokKind::Ident)
        .then(|| (v.text(n).trim_start_matches("r#").to_string(), n));
    let (end, body) = consume_to_semi_or_block(v, n, hi);
    let (name, name_tok) = name.map(|(nm, t)| (Some(nm), Some(t))).unwrap_or((None, None));
    Item {
        kind: ItemKind::MacroDef,
        name,
        trait_name: None,
        span: (start, end),
        name_tok,
        body,
        children: Vec::new(),
    }
}

/// `extern crate name;` or `extern "C" { ... }` (foreign body opaque).
fn parse_extern(v: &View<'_>, start: usize, kw: usize, hi: usize) -> Item {
    if kw + 1 < hi && v.text(kw + 1) == "crate" {
        return finish_semi(v, start, kw, hi, ItemKind::ExternCrate, name_after(v, kw + 1, hi));
    }
    let (end, body) = consume_to_semi_or_block(v, kw + 1, hi);
    Item {
        kind: ItemKind::ExternBlock,
        name: None,
        trait_name: None,
        span: (start, end),
        name_tok: None,
        body,
        children: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        let tokens = lex(src);
        let sig: Vec<usize> =
            tokens.iter().enumerate().filter(|(_, t)| t.is_significant()).map(|(i, _)| i).collect();
        parse_items(src, &tokens, &sig)
    }

    fn kinds(items: &[Item]) -> Vec<(ItemKind, Option<&str>)> {
        items.iter().map(|i| (i.kind, i.name.as_deref())).collect()
    }

    #[test]
    fn top_level_items_parse_with_names() {
        let src = "use std::fmt;\n\
                   pub mod sub;\n\
                   const N: usize = 3;\n\
                   pub fn alpha(x: u32) -> u32 { x + 1 }\n\
                   struct S { a: f64 }\n";
        let items = parse(src);
        assert_eq!(
            kinds(&items),
            vec![
                (ItemKind::Use, None),
                (ItemKind::ModDecl, Some("sub")),
                (ItemKind::Const, Some("N")),
                (ItemKind::Fn, Some("alpha")),
                (ItemKind::Type, Some("S")),
            ]
        );
        assert!(items[3].body.is_some(), "{items:#?}");
    }

    #[test]
    fn impl_blocks_expose_trait_and_self_type() {
        let src = "impl fmt::Display for Report { fn fmt(&self) {} }\n\
                   impl<T: Clone> Stack<T> { fn push_one(&mut self, t: T) {} }\n";
        let items = parse(src);
        assert_eq!(items.len(), 2, "{items:#?}");
        assert_eq!(items[0].name.as_deref(), Some("Report"));
        assert_eq!(items[0].trait_name.as_deref(), Some("Display"));
        assert_eq!(kinds(&items[0].children), vec![(ItemKind::Fn, Some("fmt"))]);
        assert_eq!(items[1].name.as_deref(), Some("Stack"));
        assert_eq!(items[1].trait_name, None);
        assert_eq!(kinds(&items[1].children), vec![(ItemKind::Fn, Some("push_one"))]);
    }

    #[test]
    fn fn_bound_arrows_do_not_close_impl_generics() {
        let src = "impl<F: Fn() -> u64> Runner<F> { fn go(&self) {} }";
        let items = parse(src);
        assert_eq!(items[0].name.as_deref(), Some("Runner"), "{items:#?}");
        assert_eq!(kinds(&items[0].children), vec![(ItemKind::Fn, Some("go"))]);
    }

    #[test]
    fn nested_mods_nest() {
        let src = "mod outer { mod inner { fn leaf() {} } fn side() {} }";
        let items = parse(src);
        assert_eq!(items[0].kind, ItemKind::Mod);
        let outer = &items[0].children;
        assert_eq!(
            kinds(outer),
            vec![(ItemKind::Mod, Some("inner")), (ItemKind::Fn, Some("side"))]
        );
        assert_eq!(kinds(&outer[0].children), vec![(ItemKind::Fn, Some("leaf"))]);
    }

    #[test]
    fn garbage_becomes_verbatim_and_partitions() {
        let src = "]] ; wat 42 fn ok() {} ) (";
        let items = parse(src);
        assert!(items.iter().any(|i| i.kind == ItemKind::Fn && i.name.as_deref() == Some("ok")));
        // Partition: spans tile 0..len with no gaps.
        let mut pos = 0;
        for it in &items {
            assert_eq!(it.span.0, pos, "{items:#?}");
            assert!(it.span.1 > it.span.0);
            pos = it.span.1;
        }
    }

    #[test]
    fn raw_identifier_names_are_stripped() {
        let items = parse("fn r#type() {}");
        assert_eq!(items[0].name.as_deref(), Some("type"));
    }

    #[test]
    fn trait_methods_are_children() {
        let items = parse("pub trait Exec { fn run_shard(&self) -> u32; fn boxed() {} }");
        assert_eq!(items[0].kind, ItemKind::Trait);
        assert_eq!(
            kinds(&items[0].children),
            vec![(ItemKind::Fn, Some("run_shard")), (ItemKind::Fn, Some("boxed"))]
        );
        assert!(items[0].children[0].body.is_none(), "declaration has no body");
        assert!(items[0].children[1].body.is_some());
    }

    #[test]
    fn unterminated_body_extends_to_eof() {
        let items = parse("fn broken(x: u32) { let y = x;");
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert!(items[0].body.is_some());
    }

    #[test]
    fn extern_forms() {
        let items = parse(
            "extern crate alloc;\nextern \"C\" { fn c_side(); }\nextern \"C\" fn shim() {}\n",
        );
        assert_eq!(
            kinds(&items),
            vec![
                (ItemKind::ExternCrate, Some("alloc")),
                (ItemKind::ExternBlock, None),
                (ItemKind::Fn, Some("shim")),
            ]
        );
    }
}
