//! A lightweight item-level Rust parser over the token stream.
//!
//! This is deliberately *not* an expression parser: the interprocedural
//! passes only need item boundaries (modules, fns, impl/trait blocks,
//! structs, use-trees), function signatures (name, visibility, owning
//! impl type), and the token range of each function body. Everything
//! inside a body stays a flat token slice for [`crate::graph`] to scan
//! for call and lock sites.
//!
//! The parser is infallible by design, like the lexer: on a shape it
//! does not understand it skips tokens instead of aborting, so a
//! half-edited file degrades to fewer recognized items, never to a
//! crashed lint run. Items nested inside function bodies (local fns,
//! impls, structs) are parsed too — a laundering wrapper hidden inside
//! a body is still a call-graph node.

use crate::context::SourceFile;
use crate::lexer::{Token, TokenKind};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// Display module path (`core::grid`, `lint::parser`, …).
    pub module: String,
    /// The surrounding `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// `true` for trait-impl methods and trait default methods —
    /// callable through a trait object, so reachable even when the
    /// concrete receiver cannot be resolved.
    pub via_trait: bool,
    /// `true` only for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `true` when the first parameter is a `self` receiver — the only
    /// functions a method-call expression can dispatch to.
    pub has_self: bool,
    /// Token-index range `[start, end)` of the body, brace-exclusive;
    /// `None` for trait method declarations and extern fns.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// Human-readable qualified name for chains: `core::grid::GridRunner::run`.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(ty) => format!("{}::{}::{}", self.module, ty, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// One `struct` item; fields carry the head type name after stripping
/// transparent wrappers (`Arc<Mutex<T>>` → `T`) so the call graph can
/// resolve `self.field.method()` to the field type's impl.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Type-parameter names (a field typed by one is opaque).
    pub generics: Vec<String>,
    /// `(field_name, head_type_name)` for named fields.
    pub fields: Vec<(String, String)>,
}

/// One leaf of a `use` tree: `binding` is the in-scope name (alias if
/// `as` was used), `target` the imported item's real name, `qualifier`
/// the path segment before it (`collections` in `std::collections::BTreeMap`).
#[derive(Debug, Clone)]
pub struct UseImport {
    /// Name the import binds in this file.
    pub binding: String,
    /// Real name of the imported item.
    pub target: String,
    /// Immediate parent path segment, if any.
    pub qualifier: Option<String>,
}

/// Items recognized in one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All functions, in source order (including nested ones).
    pub fns: Vec<FnItem>,
    /// All structs with named fields.
    pub structs: Vec<StructItem>,
    /// All use-tree leaves.
    pub imports: Vec<UseImport>,
}

/// Wrappers whose single type argument is "the real type" for field
/// resolution: `handles: Arc<Mutex<Pool>>` calls methods of `Pool`
/// (through guards), never of `Arc`.
const TRANSPARENT_WRAPPERS: &[&str] =
    &["Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Cell", "Option", "Vec", "VecDeque"];

/// Keywords that may sit between `pub` and the item keyword without
/// cancelling the pending visibility (`pub const fn`, `pub unsafe fn`,
/// `pub async fn`, `pub extern "C" fn`, `default fn` in impls).
fn is_fn_qualifier(text: &str) -> bool {
    matches!(text, "const" | "unsafe" | "async" | "extern" | "default")
}

/// Derive the display module path from a workspace-relative file path:
/// `crates/core/src/grid.rs` → `core::grid`, `crates/llm/src/lib.rs` →
/// `llm`, `src/main.rs` → `taxoglimpse::main`.
pub fn module_of(rel_path: &str) -> String {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, rest): (&str, &[&str]) = match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] => (krate, rest),
        ["src", rest @ ..] => ("taxoglimpse", rest),
        _ => ("", parts.as_slice()),
    };
    let mut out = String::from(crate_name);
    for (i, seg) in rest.iter().enumerate() {
        let seg = if i + 1 == rest.len() {
            match seg.strip_suffix(".rs") {
                Some(stem) if stem == "lib" || stem == "mod" => continue,
                Some(stem) => stem,
                None => seg,
            }
        } else if *seg == "bin" {
            continue;
        } else {
            seg
        };
        if !out.is_empty() {
            out.push_str("::");
        }
        out.push_str(seg);
    }
    out
}

/// Parse every item in `file`.
pub fn parse_items(file: &SourceFile) -> ParsedFile {
    let mut out = ParsedFile::default();
    let toks = &file.lexed.tokens;
    let module = module_of(&file.rel_path);
    walk(toks, 0, toks.len(), &module, None, &mut out);
    out
}

/// Scan `[i, end)` for items. `impl_ctx` is `(type_name, via_trait)`
/// when inside an impl or trait block. Non-item tokens (expression code
/// in function bodies) are skipped one at a time, which is what lets
/// the walker double as the nested-item scanner for bodies.
fn walk(
    toks: &[Token],
    mut i: usize,
    end: usize,
    module: &str,
    impl_ctx: Option<(&str, bool)>,
    out: &mut ParsedFile,
) {
    let mut is_pub = false;
    while i < end {
        let t = &toks[i];
        if t.kind == TokenKind::Punct {
            if t.text == "#" && text_at(toks, i + 1) == "[" {
                // Attribute: skip, visibility stays pending across it.
                i = skip_balanced_capped(toks, i + 1, end);
                continue;
            }
            is_pub = false;
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            is_pub = false;
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "pub" => {
                is_pub = true;
                i += 1;
                if text_at(toks, i) == "(" {
                    // `pub(crate)` and friends are not public API.
                    is_pub = false;
                    i = skip_balanced_capped(toks, i, end);
                }
            }
            q if is_fn_qualifier(q) => i += 1,
            "fn" if ident_at(toks, i + 1) => {
                i = parse_fn(toks, i, end, module, impl_ctx, is_pub, out);
                is_pub = false;
            }
            "mod" if ident_at(toks, i + 1) => {
                let name = toks[i + 1].text.clone();
                if text_at(toks, i + 2) == "{" {
                    let close = skip_balanced_capped(toks, i + 2, end);
                    let sub = format!("{module}::{name}");
                    walk(toks, i + 3, close.saturating_sub(1), &sub, None, out);
                    i = close;
                } else {
                    i += 2; // `mod name;` — out-of-line, parsed via its own file
                }
                is_pub = false;
            }
            "impl" => {
                i = parse_impl(toks, i, end, module, out);
                is_pub = false;
            }
            "trait" if ident_at(toks, i + 1) => {
                let name = toks[i + 1].text.clone();
                let mut j = i + 2;
                // Bounds/generics up to the body brace.
                while j < end && !matches!(text_at(toks, j).as_str(), "{" | ";") {
                    j = match text_at(toks, j).as_str() {
                        "<" => skip_generics(toks, j, end),
                        "(" | "[" => skip_balanced_capped(toks, j, end),
                        _ => j + 1,
                    };
                }
                if text_at(toks, j) == "{" {
                    let close = skip_balanced_capped(toks, j, end);
                    walk(toks, j + 1, close.saturating_sub(1), module, Some((&name, true)), out);
                    i = close;
                } else {
                    i = j + 1;
                }
                is_pub = false;
            }
            "struct" if ident_at(toks, i + 1) => {
                i = parse_struct(toks, i, end, out);
                is_pub = false;
            }
            "enum" | "union" if ident_at(toks, i + 1) => {
                let mut j = i + 2;
                if text_at(toks, j) == "<" {
                    j = skip_generics(toks, j, end);
                }
                if matches!(text_at(toks, j).as_str(), "{" | "(") {
                    j = skip_balanced_capped(toks, j, end);
                }
                i = j;
                is_pub = false;
            }
            "use" => {
                i = parse_use(toks, i, end, out);
                is_pub = false;
            }
            _ => {
                is_pub = false;
                i += 1;
            }
        }
    }
}

fn text_at(toks: &[Token], i: usize) -> String {
    toks.get(i).map(|t| t.text.clone()).unwrap_or_default()
}

fn ident_at(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
}

/// [`crate::context`]'s balanced skip, clamped to `end` so a truncated
/// region cannot run past its enclosing body.
fn skip_balanced_capped(toks: &[Token], open: usize, end: usize) -> usize {
    crate::context::skip_balanced(toks, open).min(end)
}

/// [`skip_generics`] for sibling modules (turbofish hopping in the
/// call scanner).
pub(crate) fn skip_generics_pub(toks: &[Token], open: usize, end: usize) -> usize {
    skip_generics(toks, open, end)
}

/// Given `open` pointing at `<`, return the index past the matching
/// `>`. Nested delimiters (incl. const-generic braces) are skipped as
/// balanced groups; `->` is a single token and never miscounted.
fn skip_generics(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < end {
        match toks[j].text.as_str() {
            "<" => {
                depth += 1;
                j += 1;
            }
            ">" => {
                depth -= 1;
                j += 1;
                if depth <= 0 {
                    return j;
                }
            }
            "(" | "[" | "{" => j = skip_balanced_capped(toks, j, end),
            _ => j += 1,
        }
    }
    j
}

/// Parse `fn name …` starting at the `fn` keyword; returns the index
/// past the item. Records the item and recurses into the body for
/// nested items (which are free fns, not methods — `impl_ctx` resets).
fn parse_fn(
    toks: &[Token],
    fn_idx: usize,
    end: usize,
    module: &str,
    impl_ctx: Option<(&str, bool)>,
    is_pub: bool,
    out: &mut ParsedFile,
) -> usize {
    let name_idx = fn_idx + 1;
    let name = toks[name_idx].text.clone();
    let line = toks[fn_idx].line;
    let mut j = name_idx + 1;
    if text_at(toks, j) == "<" {
        j = skip_generics(toks, j, end);
    }
    if text_at(toks, j) != "(" {
        return name_idx + 1; // not a fn item shape; resume scanning
    }
    let params_open = j;
    j = skip_balanced_capped(toks, j, end);

    // A `self` token in the first parameter (`&self`, `&mut self`,
    // `self: Arc<Self>`, …) marks a method; method-call dispatch in the
    // graph only targets these.
    let has_self = toks[params_open + 1..j]
        .iter()
        .take_while(|t| t.text != ",")
        .any(|t| t.kind == TokenKind::Ident && t.text == "self");

    // Return type and where clause up to the body `{` or a `;`.
    let body = loop {
        if j >= end {
            break None;
        }
        match toks[j].text.as_str() {
            "{" => {
                let close = skip_balanced_capped(toks, j, end);
                let range = (j + 1, close.saturating_sub(1));
                j = close;
                break Some(range);
            }
            ";" => {
                j += 1;
                break None;
            }
            "<" => j = skip_generics(toks, j, end),
            "(" | "[" => j = skip_balanced_capped(toks, j, end),
            _ => j += 1,
        }
    };

    let (impl_type, via_trait) = match impl_ctx {
        Some((ty, via)) => (Some(ty.to_owned()), via),
        None => (None, false),
    };
    out.fns.push(FnItem {
        name,
        module: module.to_owned(),
        impl_type,
        via_trait,
        is_pub,
        line,
        has_self,
        body,
    });
    if let Some((lo, hi)) = body {
        walk(toks, lo, hi, module, None, out);
    }
    j
}

/// Parse an `impl` block header starting at the keyword; returns the
/// index past the block. Methods inside inherit the self type name.
fn parse_impl(
    toks: &[Token],
    impl_idx: usize,
    end: usize,
    module: &str,
    out: &mut ParsedFile,
) -> usize {
    let mut j = impl_idx + 1;
    if text_at(toks, j) == "<" {
        j = skip_generics(toks, j, end);
    }
    // Header tokens up to `{`/`;`: track the self-type name (the last
    // path-level identifier, skipping generic args) and whether a
    // top-level `for` marks this as a trait impl.
    let mut type_name: Option<String> = None;
    let mut is_trait_impl = false;
    let mut in_where = false;
    loop {
        if j >= end {
            return j;
        }
        let t = &toks[j];
        match t.text.as_str() {
            "{" => break,
            ";" => return j + 1, // `impl Trait for Type;` shapes
            "for" if t.kind == TokenKind::Ident && !in_where => {
                is_trait_impl = true;
                type_name = None; // the self type is what follows `for`
                j += 1;
            }
            "where" if t.kind == TokenKind::Ident => {
                in_where = true;
                j += 1;
            }
            "<" => j = skip_generics(toks, j, end),
            "(" | "[" => j = skip_balanced_capped(toks, j, end),
            _ => {
                if t.kind == TokenKind::Ident && !in_where && t.text != "dyn" && t.text != "mut" {
                    type_name = Some(t.text.clone());
                }
                j += 1;
            }
        }
    }
    let close = skip_balanced_capped(toks, j, end);
    if let Some(name) = type_name {
        walk(toks, j + 1, close.saturating_sub(1), module, Some((&name, is_trait_impl)), out);
    }
    close
}

/// Parse a `struct` item starting at the keyword; returns the index
/// past it. Only brace-bodied structs contribute fields.
fn parse_struct(toks: &[Token], struct_idx: usize, end: usize, out: &mut ParsedFile) -> usize {
    let name = toks[struct_idx + 1].text.clone();
    let mut j = struct_idx + 2;

    let mut generics = Vec::new();
    if text_at(toks, j) == "<" {
        // Type-parameter names are the identifiers directly after `<`
        // or a depth-1 `,` (bounds after `:` are skipped; lifetimes are
        // not Ident tokens and const params name the *next* ident).
        let close = skip_generics(toks, j, end);
        let mut expect_param = true;
        let mut k = j + 1;
        let mut depth = 1i32;
        while k + 1 < close {
            let t = &toks[k];
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                "," if depth == 1 => expect_param = true,
                // Const params are values, not types — the name after
                // `const` must not enter the type-parameter list.
                "const" if t.kind == TokenKind::Ident => expect_param = false,
                _ => {
                    if depth == 1 && expect_param && t.kind == TokenKind::Ident {
                        generics.push(t.text.clone());
                    }
                    if t.kind != TokenKind::Punct || t.text != "," {
                        expect_param = false;
                    }
                }
            }
            k += 1;
        }
        j = close;
    }

    let mut fields = Vec::new();
    match text_at(toks, j).as_str() {
        "{" => {
            let close = skip_balanced_capped(toks, j, end);
            let mut k = j + 1;
            while k + 1 < close {
                // Per-field: attrs, optional visibility, `name : Type`.
                if toks[k].text == "#" && text_at(toks, k + 1) == "[" {
                    k = skip_balanced_capped(toks, k + 1, close);
                    continue;
                }
                if toks[k].text == "pub" {
                    k += 1;
                    if text_at(toks, k) == "(" {
                        k = skip_balanced_capped(toks, k, close);
                    }
                    continue;
                }
                if toks[k].kind == TokenKind::Ident && text_at(toks, k + 1) == ":" {
                    let fname = toks[k].text.clone();
                    let ty_start = k + 2;
                    let mut t = ty_start;
                    while t < close.saturating_sub(1) && toks[t].text != "," {
                        t = match toks[t].text.as_str() {
                            "<" => skip_generics(toks, t, close),
                            "(" | "[" => skip_balanced_capped(toks, t, close),
                            _ => t + 1,
                        };
                    }
                    if let Some(head) = type_head(toks, ty_start, t) {
                        fields.push((fname, head));
                    }
                    k = t + 1;
                    continue;
                }
                k += 1;
            }
            j = close;
        }
        "(" => {
            j = skip_balanced_capped(toks, j, end); // tuple struct: unnamed fields
            if text_at(toks, j) == ";" {
                j += 1;
            }
        }
        ";" => j += 1, // unit struct
        _ => {}
    }
    out.structs.push(StructItem { name, generics, fields });
    j
}

/// The head type name of a field type token range: the last segment of
/// the outermost path, descending through [`TRANSPARENT_WRAPPERS`]
/// (`Arc<Mutex<Pool>>` → `Pool`, `&'a Taxonomy` → `Taxonomy`).
fn type_head(toks: &[Token], mut lo: usize, hi: usize) -> Option<String> {
    loop {
        // Skip leading refs/pointers/lifetimes/`dyn`/`mut` to the path.
        while lo < hi
            && (toks[lo].kind == TokenKind::Lifetime
                || matches!(toks[lo].text.as_str(), "&" | "*" | "dyn" | "mut" | "const"))
        {
            lo += 1;
        }
        // Last segment of the path: idents joined by `::`.
        let mut head: Option<(usize, String)> = None;
        let mut k = lo;
        while k < hi && toks[k].kind == TokenKind::Ident {
            head = Some((k, toks[k].text.clone()));
            if text_at(toks, k + 1) == "::" {
                k += 2;
            } else {
                break;
            }
        }
        let (head_idx, name) = head?;
        if TRANSPARENT_WRAPPERS.contains(&name.as_str()) && text_at(toks, head_idx + 1) == "<" {
            // Descend into the single/first type argument.
            lo = head_idx + 2;
            continue;
        }
        return Some(name);
    }
}

/// Parse a `use` tree starting at the keyword; returns the index past
/// the `;`. Records every leaf with its immediate qualifier.
fn parse_use(toks: &[Token], use_idx: usize, end: usize, out: &mut ParsedFile) -> usize {
    let mut stack: Vec<Vec<String>> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    let mut pending_as = false;
    let mut dirty = false;
    let mut j = use_idx + 1;

    let flush = |cur: &mut Vec<String>,
                 alias: &mut Option<String>,
                 dirty: &mut bool,
                 out: &mut ParsedFile| {
        if !*dirty {
            return;
        }
        *dirty = false;
        let alias = alias.take();
        let (target, qualifier) = match cur.last().map(String::as_str) {
            None | Some("*") => return,
            // `use a::b::{self, c}` binds `b` itself.
            Some("self") if cur.len() >= 2 => {
                (cur[cur.len() - 2].clone(), cur.len().checked_sub(3).map(|q| cur[q].clone()))
            }
            Some(last) => {
                (last.to_owned(), cur.len().checked_sub(2).map(|q| cur[q].clone()))
            }
        };
        out.imports.push(UseImport {
            binding: alias.unwrap_or_else(|| target.clone()),
            target,
            qualifier,
        });
    };

    while j < end {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "as") => pending_as = true,
            (TokenKind::Ident, name) => {
                if pending_as {
                    alias = Some(name.to_owned());
                    pending_as = false;
                } else {
                    cur.push(name.to_owned());
                }
                dirty = true;
            }
            (TokenKind::Punct, "{") => stack.push(cur.clone()),
            (TokenKind::Punct, ",") => {
                flush(&mut cur, &mut alias, &mut dirty, out);
                cur = stack.last().cloned().unwrap_or_default();
            }
            (TokenKind::Punct, "}") => {
                flush(&mut cur, &mut alias, &mut dirty, out);
                cur = stack.pop().unwrap_or_default();
            }
            (TokenKind::Punct, ";") => {
                flush(&mut cur, &mut alias, &mut dirty, out);
                return j + 1;
            }
            (TokenKind::Punct, "*") => {
                cur.push("*".to_owned());
                dirty = false;
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_items(&SourceFile::new("crates/x/src/lib.rs", src))
    }

    #[test]
    fn modules_impls_and_visibility() {
        let src = r#"
            pub fn top() {}
            pub(crate) fn crate_only() {}
            mod inner {
                pub fn nested() {}
            }
            struct Widget { count: u32 }
            impl Widget {
                pub fn push(&self) {}
                fn private(&self) {}
            }
            impl Clone for Widget {
                fn clone(&self) -> Widget { Widget { count: 0 } }
            }
            trait Runs {
                fn go(&self) { self.halt() }
                fn halt(&self);
            }
        "#;
        let p = parse(src);
        let find = |name: &str| p.fns.iter().find(|f| f.name == name).expect("fn parsed");
        assert!(find("top").is_pub);
        assert!(!find("crate_only").is_pub);
        assert_eq!(find("nested").module, "x::inner");
        assert!(find("nested").is_pub);
        assert_eq!(find("push").impl_type.as_deref(), Some("Widget"));
        assert!(!find("push").via_trait);
        assert_eq!(find("clone").impl_type.as_deref(), Some("Widget"));
        assert!(find("clone").via_trait);
        assert!(find("go").via_trait);
        assert!(find("go").body.is_some());
        assert!(find("halt").body.is_none());
        assert_eq!(find("push").display(), "x::Widget::push");
    }

    #[test]
    fn struct_fields_strip_wrappers() {
        let src = r#"
            struct Server<T, const N: usize> {
                pool: Arc<Mutex<Pool>>,
                cache: Vec<Entry>,
                name: String,
                generic: Box<T>,
                cb: fn(u32) -> u32,
            }
        "#;
        let p = parse(src);
        let s = &p.structs[0];
        assert_eq!(s.name, "Server");
        assert_eq!(s.generics, ["T"]);
        let field = |n: &str| {
            s.fields.iter().find(|(f, _)| f == n).map(|(_, ty)| ty.as_str())
        };
        assert_eq!(field("pool"), Some("Pool"));
        assert_eq!(field("cache"), Some("Entry"));
        assert_eq!(field("name"), Some("String"));
        assert_eq!(field("generic"), Some("T"));
    }

    #[test]
    fn generics_and_where_clauses_do_not_derail() {
        let src = r#"
            pub fn complex<T: Iterator<Item = Vec<u8>>, F>(f: F) -> impl Fn() -> u32
            where
                F: FnMut(&[u8]) -> Result<u32, String>,
            {
                helper()
            }
            fn helper() -> u32 { 0 }
        "#;
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].is_pub);
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn fn_keyword_in_strings_and_comments_is_ignored() {
        let src = r##"
            // fn not_an_item() {}
            /* pub fn also_not() {} */
            fn real() {
                let s = "fn fake(x: u32) {}";
                let r = r#"fn raw_fake() {}"#;
                let _ = (s, r);
            }
        "##;
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn nested_fns_inside_bodies_are_items() {
        let src = "fn outer() { fn inner() { panic!(\"x\") } inner() }";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        // inner's body must be inside outer's.
        let (olo, ohi) = p.fns[0].body.expect("outer body");
        let (ilo, ihi) = p.fns[1].body.expect("inner body");
        assert!(olo < ilo && ihi <= ohi);
    }

    #[test]
    fn use_trees_flatten_with_aliases() {
        let src = "use std::collections::{BTreeMap, BTreeSet as Ordered};\nuse crate::grid::{self, GridRunner};\nuse std::fmt::*;\n";
        let p = parse(src);
        let find = |b: &str| p.imports.iter().find(|u| u.binding == b).expect("import");
        assert_eq!(find("BTreeMap").qualifier.as_deref(), Some("collections"));
        let ordered = find("Ordered");
        assert_eq!(ordered.target, "BTreeSet");
        assert_eq!(find("grid").target, "grid");
        assert_eq!(find("GridRunner").qualifier.as_deref(), Some("grid"));
        assert!(!p.imports.iter().any(|u| u.binding == "*"));
    }

    #[test]
    fn module_paths_from_rel_paths() {
        assert_eq!(module_of("crates/core/src/grid.rs"), "core::grid");
        assert_eq!(module_of("crates/llm/src/lib.rs"), "llm");
        assert_eq!(module_of("crates/bench/src/bin/tables567.rs"), "bench::tables567");
        assert_eq!(module_of("src/lib.rs"), "taxoglimpse");
        assert_eq!(module_of("src/main.rs"), "taxoglimpse::main");
    }

    #[test]
    fn macro_heavy_and_adversarial_shapes_survive() {
        let src = r#"
            macro_rules! gen {
                ($name:ident) => { fn $name() {} };
            }
            gen!(made);
            fn after_macro<const N: usize>(xs: [u8; N]) -> u8 { xs[0] }
            impl<'a, T: Clone + 'a> Holder<'a, T> where T: Send {
                fn held(&self) -> &T { &self.value }
            }
        "#;
        let p = parse(src);
        // `$name` never becomes an item; the shapes around it do.
        assert!(p.fns.iter().any(|f| f.name == "after_macro"));
        let held = p.fns.iter().find(|f| f.name == "held").expect("held parsed");
        assert_eq!(held.impl_type.as_deref(), Some("Holder"));
    }
}
