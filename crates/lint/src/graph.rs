//! Workspace call graph, lock-acquisition sites with hold ranges, and
//! the per-function facts the interprocedural passes consume.
//!
//! Call resolution is name-based with type narrowing where the parser
//! gives us types: `self.method()` resolves within the receiver's impl,
//! `self.field.method()` through the field's declared (wrapper-stripped)
//! type, `Type::method()` through the qualifier. Untyped receivers fall
//! back to global name matching filtered through a stoplist of common
//! std method names, so `v.push(x)` never edges into a workspace `push`.
//!
//! Two deliberate asymmetries keep the over-approximation usable:
//! model-protocol calls (`answer`/`answer_batch`) are recorded as sinks
//! but never traversed as edges (a generic `M: LanguageModel` receiver
//! would otherwise edge into *every* implementation, fabricating lock
//! cycles), and guard-producing methods (`lock`, `expect`, `borrow`, …)
//! are transparent when walking `self.a.lock().expect(..).m()` chains.

use std::collections::BTreeMap;

use taxoglimpse_json::Json;

use crate::context::{skip_balanced, SourceFile};
use crate::lexer::{Token, TokenKind};
use crate::parser::{FnItem, ParsedFile};

/// Macros whose expansion panics; P001 sinks.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Unsafe unchecked accessors; P001 sinks alongside the panic macros.
const UNCHECKED_METHODS: &[&str] = &["get_unchecked", "get_unchecked_mut", "unwrap_unchecked"];

/// Model-protocol entry points: calling one *is* a model call (L002
/// sink) and is never traversed as a call edge.
const MODEL_METHODS: &[&str] = &["answer", "answer_batch"];

/// Methods that yield the same logical object (guards, conversions) —
/// transparent when resolving `self.field.lock().expect(..).method()`.
const GUARD_TRANSPARENT: &[&str] = &[
    "lock", "read", "write", "expect", "unwrap", "borrow", "borrow_mut", "as_ref", "as_mut",
    "as_deref", "clone", "get_mut",
];

/// Common std method names an *untyped* receiver must not resolve to a
/// workspace method of the same name. Typed resolution bypasses this
/// list, so a workspace `ResponseCache::insert` still resolves when the
/// receiver type is known.
const STOPLIST: &[&str] = &[
    "clone", "into", "from", "to_owned", "to_string", "as_str", "as_ref", "as_mut", "as_deref",
    "as_bytes", "iter", "iter_mut", "into_iter", "next", "map", "map_err", "and_then", "or_else",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok_or", "ok_or_else", "ok", "err",
    "expect", "unwrap", "take", "replace", "get", "get_mut", "insert", "remove", "push", "pop",
    "push_str", "len", "is_empty", "is_some", "is_none", "is_ok", "is_err", "contains",
    "contains_key", "entry", "or_insert", "or_insert_with", "or_default", "keys", "values",
    "split", "splitn", "split_whitespace", "trim", "trim_start", "trim_end", "parse", "fmt",
    "eq", "ne", "cmp", "partial_cmp", "hash", "min", "max", "abs", "floor", "ceil", "round",
    "sqrt", "powi", "powf", "extend", "collect", "filter", "filter_map", "flat_map", "fold",
    "sum", "count", "skip", "chain", "zip", "rev", "enumerate", "sort", "sort_by", "sort_by_key",
    "sort_unstable", "dedup", "retain", "find", "position", "any", "all", "last", "first",
    "starts_with", "ends_with", "chars", "bytes", "lines", "join", "send", "recv", "flush",
    "write_all", "read_to_string", "to_vec", "copied", "cloned", "drain", "clear", "resize",
    "reserve", "saturating_sub", "saturating_add", "checked_sub", "checked_add", "wrapping_add",
    "windows", "range",
];

/// Keywords that can directly precede `(` without being a call.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "let", "move", "in", "as", "ref",
    "mut", "break", "continue", "where", "unsafe", "async", "await", "dyn", "impl", "pub", "use",
    "mod", "struct", "enum", "trait", "type", "const", "static", "crate", "super", "box", "fn",
];

/// One function node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into the scanned file list.
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// Qualified display name for chains (`core::grid::GridRunner::run`).
    pub display: String,
    /// Display module path.
    pub module: String,
    /// Surrounding impl/trait type, if any.
    pub impl_type: Option<String>,
    /// Unrestricted `pub`.
    pub is_pub: bool,
    /// Trait-impl method or trait default method.
    pub via_trait: bool,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// First parameter is a `self` receiver.
    pub has_self: bool,
    /// Whether the fn has a body (and therefore facts).
    pub has_body: bool,
}

/// One resolved call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Token index of the callee name in its file.
    pub tok: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// Callee name as written.
    pub name: String,
    /// Resolved candidate node indices (empty = external/std).
    pub callees: Vec<usize>,
}

/// A direct model-protocol call site (L002 sink).
#[derive(Debug, Clone)]
pub struct ModelSink {
    /// Token index in the file.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// `answer` or `answer_batch`.
    pub name: String,
}

/// A panic-family site (P001 sink).
#[derive(Debug, Clone)]
pub struct PanicSink {
    /// 1-based line.
    pub line: u32,
    /// Human name of the sink (`panic!`, `get_unchecked`).
    pub what: String,
}

/// A D001/D002 pattern site not sanctioned by a `lint:allow` (D101
/// source). Sites in D002-exempt locations (crates/bench) count too —
/// that exemption is exactly what a laundering wrapper hides behind.
#[derive(Debug, Clone)]
pub struct DetSource {
    /// 1-based line.
    pub line: u32,
    /// `D001` or `D002`.
    pub rule: &'static str,
    /// Human name of the source (`Instant::now`, `HashMap`).
    pub what: String,
}

/// One lock acquisition with the token range the guard is held over.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Token index of the `lock` ident in its file.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Interned lock identity (index into [`CallGraph::lock_names`]).
    pub lock: u32,
    /// Token range `[start, end)` the guard is held over.
    pub hold: (usize, usize),
}

/// Per-node facts extracted from the body token scan.
#[derive(Debug, Default, Clone)]
pub struct Facts {
    /// Call sites, in token order.
    pub calls: Vec<Call>,
    /// Direct model-protocol call sites.
    pub model_sinks: Vec<ModelSink>,
    /// Panic-family sites.
    pub panic_sinks: Vec<PanicSink>,
    /// Unsanctioned D001/D002 pattern sites.
    pub det_sources: Vec<DetSource>,
    /// Lock acquisitions.
    pub locks: Vec<LockAcq>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test function nodes, in (file, source) order.
    pub nodes: Vec<Node>,
    /// Facts per node (empty for bodiless declarations).
    pub facts: Vec<Facts>,
    /// Interned lock identities.
    pub lock_names: Vec<String>,
}

impl CallGraph {
    /// Build the graph from prepared files and their parsed items.
    pub fn build(files: &[SourceFile], parsed: &[ParsedFile]) -> CallGraph {
        Builder::new(files, parsed).build()
    }

    /// Deduplicated callee indices of node `n`.
    pub fn callees(&self, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> =
            self.facts[n].calls.iter().flat_map(|c| c.callees.iter().copied()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Find a node by its display name (test helper).
    pub fn node_by_display(&self, display: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.display == display)
    }

    /// The `--graph` JSON document.
    pub fn to_json(&self, files: &[SourceFile]) -> Json {
        Json::obj(vec![
            ("schema_version", Json::U64(1)),
            (
                "nodes",
                Json::Arr(
                    self.nodes
                        .iter()
                        .enumerate()
                        .map(|(i, n)| {
                            let facts = &self.facts[i];
                            Json::obj(vec![
                                ("fn", Json::Str(n.display.clone())),
                                ("file", Json::Str(files[n.file].rel_path.clone())),
                                ("line", Json::U64(u64::from(n.line))),
                                ("pub", Json::Bool(n.is_pub)),
                                ("via_trait", Json::Bool(n.via_trait)),
                                (
                                    "calls",
                                    Json::Arr(
                                        facts
                                            .calls
                                            .iter()
                                            .filter(|c| !c.callees.is_empty())
                                            .map(|c| {
                                                Json::obj(vec![
                                                    ("name", Json::Str(c.name.clone())),
                                                    ("line", Json::U64(u64::from(c.line))),
                                                    (
                                                        "to",
                                                        Json::Arr(
                                                            c.callees
                                                                .iter()
                                                                .map(|&t| {
                                                                    Json::Str(
                                                                        self.nodes[t]
                                                                            .display
                                                                            .clone(),
                                                                    )
                                                                })
                                                                .collect(),
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "locks",
                                    Json::Arr(
                                        facts
                                            .locks
                                            .iter()
                                            .map(|l| {
                                                Json::Str(
                                                    self.lock_names[l.lock as usize].clone(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "model_calls",
                                    Json::U64(facts.model_sinks.len() as u64),
                                ),
                                (
                                    "panic_sites",
                                    Json::U64(facts.panic_sinks.len() as u64),
                                ),
                                (
                                    "entropy_sources",
                                    Json::U64(facts.det_sources.len() as u64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// `true` iff `file` carries a `lint:allow(rule, ..)` targeting `line`
/// (read-only — used to treat sanctioned sites as trusted, without
/// consuming the allow).
pub fn has_allow(file: &SourceFile, rule: &str, line: u32) -> bool {
    file.allows.iter().any(|a| a.rule == rule && a.target_line == Some(line))
}

struct Builder<'a> {
    files: &'a [SourceFile],
    parsed: &'a [ParsedFile],
    nodes: Vec<Node>,
    bodies: Vec<Option<(usize, usize)>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_impl: BTreeMap<(String, String), Vec<usize>>,
    structs: BTreeMap<String, (Vec<String>, BTreeMap<String, String>)>,
    imports: Vec<BTreeMap<String, String>>,
    lock_ids: BTreeMap<String, u32>,
    lock_names: Vec<String>,
}

impl<'a> Builder<'a> {
    fn new(files: &'a [SourceFile], parsed: &'a [ParsedFile]) -> Builder<'a> {
        Builder {
            files,
            parsed,
            nodes: Vec::new(),
            bodies: Vec::new(),
            by_name: BTreeMap::new(),
            by_impl: BTreeMap::new(),
            structs: BTreeMap::new(),
            imports: Vec::new(),
            lock_ids: BTreeMap::new(),
            lock_names: Vec::new(),
        }
    }

    fn build(mut self) -> CallGraph {
        for (fi, pf) in self.parsed.iter().enumerate() {
            let file = &self.files[fi];
            for item in &pf.fns {
                if file.in_test(item.line) {
                    continue;
                }
                let idx = self.nodes.len();
                self.nodes.push(node_of(fi, item));
                self.bodies.push(item.body);
                self.by_name.entry(item.name.clone()).or_default().push(idx);
                if let Some(ty) = &item.impl_type {
                    self.by_impl.entry((ty.clone(), item.name.clone())).or_default().push(idx);
                }
            }
            for s in &pf.structs {
                let entry = self
                    .structs
                    .entry(s.name.clone())
                    .or_insert_with(|| (Vec::new(), BTreeMap::new()));
                for g in &s.generics {
                    if !entry.0.contains(g) {
                        entry.0.push(g.clone());
                    }
                }
                for (f, ty) in &s.fields {
                    entry.1.entry(f.clone()).or_insert_with(|| ty.clone());
                }
            }
            let mut alias = BTreeMap::new();
            for u in &pf.imports {
                if u.binding != u.target {
                    alias.insert(u.binding.clone(), u.target.clone());
                }
            }
            self.imports.push(alias);
        }

        let mut facts = vec![Facts::default(); self.nodes.len()];
        for idx in 0..self.nodes.len() {
            if let Some((lo, hi)) = self.bodies[idx] {
                facts[idx] = self.scan_body(idx, lo, hi);
            }
        }
        CallGraph { nodes: self.nodes, facts, lock_names: self.lock_names }
    }

    /// Scan one body for calls, sinks, sources, and locks, skipping the
    /// bodies of nested fn items (they are their own nodes).
    fn scan_body(&mut self, idx: usize, lo: usize, hi: usize) -> Facts {
        let node = self.nodes[idx].clone();
        let file = &self.files[node.file];
        let toks = &file.lexed.tokens;
        let mut skips: Vec<(usize, usize)> = self.parsed[node.file]
            .fns
            .iter()
            .filter_map(|f| f.body)
            .filter(|&(l, h)| l > lo && h <= hi)
            .collect();
        skips.sort_unstable();
        let depth = delim_depths(toks, lo, hi);

        let mut facts = Facts::default();
        let mut skip_i = 0usize;
        let mut k = lo;
        while k < hi {
            while skip_i < skips.len() && skips[skip_i].1 <= k {
                skip_i += 1;
            }
            if skip_i < skips.len() && skips[skip_i].0 == k {
                k = skips[skip_i].1;
                skip_i += 1;
                continue;
            }
            let t = &toks[k];
            if t.kind != TokenKind::Ident {
                k += 1;
                continue;
            }
            // A nested fn's own name is a declaration, not a call.
            if k > 0 && toks[k - 1].text == "fn" {
                k += 1;
                continue;
            }
            let text = t.text.as_str();

            // Macros: panic-family are sinks; none are call edges, but
            // their argument tokens keep getting scanned.
            if text_at(toks, k + 1) == "!" {
                if PANIC_MACROS.contains(&text) {
                    facts
                        .panic_sinks
                        .push(PanicSink { line: t.line, what: format!("{text}!") });
                }
                k += 1;
                continue;
            }

            // D101 sources (unsanctioned D001/D002 pattern sites).
            match text {
                "HashMap" | "HashSet" => {
                    if !has_allow(file, "D001", t.line) {
                        facts.det_sources.push(DetSource {
                            line: t.line,
                            rule: "D001",
                            what: text.to_owned(),
                        });
                    }
                }
                "SystemTime" | "Instant"
                    if text_at(toks, k + 1) == "::" && text_at(toks, k + 2) == "now" =>
                {
                    if !has_allow(file, "D002", t.line) {
                        facts.det_sources.push(DetSource {
                            line: t.line,
                            rule: "D002",
                            what: format!("{text}::now"),
                        });
                    }
                }
                "RandomState" => {
                    if !has_allow(file, "D002", t.line) {
                        facts.det_sources.push(DetSource {
                            line: t.line,
                            rule: "D002",
                            what: text.to_owned(),
                        });
                    }
                }
                _ => {}
            }

            let is_method = k > 0 && toks[k - 1].text == ".";

            // Lock acquisition: `.lock()`.
            if text == "lock"
                && is_method
                && text_at(toks, k + 1) == "("
                && text_at(toks, k + 2) == ")"
            {
                let chain = receiver_chain(toks, k - 1);
                let name = self.lock_name(&node, &chain, t.line);
                let id = self.intern_lock(name);
                let hold = hold_range(toks, lo, hi, k, &depth);
                facts.locks.push(LockAcq { tok: k, line: t.line, lock: id, hold });
                k += 1;
                continue;
            }

            // Unchecked accessors: P001 sinks.
            if UNCHECKED_METHODS.contains(&text) && is_method && text_at(toks, k + 1) == "(" {
                facts.panic_sinks.push(PanicSink { line: t.line, what: text.to_owned() });
                k += 1;
                continue;
            }

            // Call sites: `name(`, optionally with a `::<..>` turbofish.
            let called = if text_at(toks, k + 1) == "(" {
                true
            } else if text_at(toks, k + 1) == "::" && text_at(toks, k + 2) == "<" {
                let g = crate::parser::skip_generics_pub(toks, k + 2, hi);
                text_at(toks, g) == "("
            } else {
                false
            };
            if !called {
                k += 1;
                continue;
            }

            if MODEL_METHODS.contains(&text) {
                // Model-protocol sink; deliberately not a call edge.
                facts
                    .model_sinks
                    .push(ModelSink { tok: k, line: t.line, name: text.to_owned() });
                k += 1;
                continue;
            }

            let callees = if is_method {
                let chain = receiver_chain(toks, k - 1);
                self.resolve_method(&node, &chain, text)
            } else if k > 0 && toks[k - 1].text == "::" {
                self.resolve_path(&node, toks, k, text)
            } else if !EXPR_KEYWORDS.contains(&text) {
                self.resolve_plain(&node, text)
            } else {
                k += 1;
                continue;
            };
            facts.calls.push(Call {
                tok: k,
                line: t.line,
                name: text.to_owned(),
                callees,
            });
            k += 1;
        }
        facts
    }

    fn intern_lock(&mut self, name: String) -> u32 {
        if let Some(&id) = self.lock_ids.get(&name) {
            return id;
        }
        let id = self.lock_names.len() as u32;
        self.lock_names.push(name.clone());
        self.lock_ids.insert(name, id);
        id
    }

    /// Stable identity for the mutex behind a `.lock()` receiver.
    fn lock_name(&self, node: &Node, chain: &[String], line: u32) -> String {
        match chain {
            [s, field, ..] if s == "self" => {
                let owner = node.impl_type.as_deref().unwrap_or(&node.module);
                format!("{owner}.{field}")
            }
            [var, ..] => format!("{}.{var}", node.module),
            [] => format!("{}.anon_l{line}", node.display),
        }
    }

    /// `self.method()` and `self.field.method()` resolution.
    fn resolve_method(&self, node: &Node, chain: &[String], name: &str) -> Vec<usize> {
        if let Some((head, rest)) = chain.split_first() {
            if head == "self" {
                if let Some(own) = &node.impl_type {
                    // Walk field types, skipping guard/conversion hops.
                    let mut ty = own.clone();
                    let mut known = true;
                    let mut generic = false;
                    for seg in rest {
                        if GUARD_TRANSPARENT.contains(&seg.as_str()) {
                            continue;
                        }
                        match self.structs.get(&ty) {
                            Some((generics, fields)) => match fields.get(seg) {
                                Some(ft) if generics.contains(ft) => {
                                    generic = true;
                                    break;
                                }
                                Some(ft) => ty = ft.clone(),
                                None => {
                                    known = false;
                                    break;
                                }
                            },
                            None => {
                                known = false;
                                break;
                            }
                        }
                    }
                    if generic {
                        // A generic field is some *other* type: every
                        // candidate but our own impl.
                        return self.fallback(name, Some(own));
                    }
                    if known {
                        if let Some(list) = self.by_impl.get(&(ty.clone(), name.to_owned())) {
                            return list.clone();
                        }
                        if rest.iter().any(|s| !GUARD_TRANSPARENT.contains(&s.as_str())) {
                            // Typed to a field type with no such method:
                            // a std container call, not a workspace edge.
                            return Vec::new();
                        }
                        // `self.method()` with no inherent impl: a trait
                        // default method (stoplist still applies).
                        if STOPLIST.contains(&name) {
                            return Vec::new();
                        }
                        return self
                            .by_name
                            .get(name)
                            .map(|l| {
                                l.iter()
                                    .copied()
                                    .filter(|&i| {
                                        let n = &self.nodes[i];
                                        n.via_trait && n.has_body && n.has_self
                                    })
                                    .collect()
                            })
                            .unwrap_or_default();
                    }
                }
            }
        }
        self.fallback(name, None)
    }

    /// `Qual::name(..)` resolution: alias-expanded impl or module match.
    fn resolve_path(&self, node: &Node, toks: &[Token], name_idx: usize, name: &str) -> Vec<usize> {
        let qualifier = path_qualifier(toks, name_idx);
        let Some(mut qual) = qualifier else { return Vec::new() };
        if qual == "Self" {
            match &node.impl_type {
                Some(own) => qual = own.clone(),
                None => return Vec::new(),
            }
        }
        if let Some(target) = self.imports[node.file].get(&qual) {
            qual = target.clone();
        }
        if let Some(list) = self.by_impl.get(&(qual.clone(), name.to_owned())) {
            return list.clone();
        }
        // Module-qualified free fn: `grid::run_indexed(..)`.
        self.by_name
            .get(name)
            .map(|l| {
                l.iter()
                    .copied()
                    .filter(|&i| {
                        let n = &self.nodes[i];
                        n.impl_type.is_none()
                            && (n.module == qual || n.module.ends_with(&format!("::{qual}")))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Bare `name(..)`: same-file free fns, then same-module, then any
    /// free fn (stoplisted).
    fn resolve_plain(&self, node: &Node, name: &str) -> Vec<usize> {
        let Some(list) = self.by_name.get(name) else { return Vec::new() };
        let free: Vec<usize> = list
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].impl_type.is_none())
            .collect();
        let same_file: Vec<usize> =
            free.iter().copied().filter(|&i| self.nodes[i].file == node.file).collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let same_module: Vec<usize> =
            free.iter().copied().filter(|&i| self.nodes[i].module == node.module).collect();
        if !same_module.is_empty() {
            return same_module;
        }
        if STOPLIST.contains(&name) {
            return Vec::new();
        }
        free
    }

    /// Untyped-receiver fallback: workspace methods of that name, minus
    /// the stoplist and optionally minus one impl type.
    fn fallback(&self, name: &str, exclude_impl: Option<&str>) -> Vec<usize> {
        if STOPLIST.contains(&name) {
            return Vec::new();
        }
        self.by_name
            .get(name)
            .map(|l| {
                l.iter()
                    .copied()
                    .filter(|&i| {
                        let n = &self.nodes[i];
                        n.impl_type.is_some()
                            && n.has_body
                            && n.has_self // method calls only hit `self` receivers
                            && !exclude_impl
                                .is_some_and(|ex| n.impl_type.as_deref() == Some(ex))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

fn node_of(file: usize, item: &FnItem) -> Node {
    Node {
        file,
        name: item.name.clone(),
        display: item.display(),
        module: item.module.clone(),
        impl_type: item.impl_type.clone(),
        is_pub: item.is_pub,
        via_trait: item.via_trait,
        line: item.line,
        has_self: item.has_self,
        has_body: item.body.is_some(),
    }
}

fn text_at(toks: &[Token], i: usize) -> String {
    toks.get(i).map(|t| t.text.clone()).unwrap_or_default()
}

/// Delimiter depths before each token of `[lo, hi)`, for statement and
/// scope extent computation. Index 0 of each vec corresponds to `lo`.
/// `.0` counts all of `(){}[]`, `.1` only braces.
fn delim_depths(toks: &[Token], lo: usize, hi: usize) -> (Vec<i32>, Vec<i32>) {
    let mut all = Vec::with_capacity(hi - lo);
    let mut braces = Vec::with_capacity(hi - lo);
    let (mut a, mut b) = (0i32, 0i32);
    for t in &toks[lo..hi] {
        all.push(a);
        braces.push(b);
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => a += 1,
                ")" | "]" => a -= 1,
                "{" => {
                    a += 1;
                    b += 1;
                }
                "}" => {
                    a -= 1;
                    b -= 1;
                }
                _ => {}
            }
        }
    }
    (all, braces)
}

/// Walk a method receiver backwards from the `.` at `dot_idx`:
/// `self.shard(key).lock()` → `["self", "shard"]` (outermost first).
fn receiver_chain(toks: &[Token], dot_idx: usize) -> Vec<String> {
    let mut parts = Vec::new();
    let mut k = dot_idx;
    loop {
        if k == 0 {
            break;
        }
        k -= 1;
        match toks[k].text.as_str() {
            ")" | "]" => {
                let open = rev_skip_balanced(toks, k);
                if open == 0 {
                    break;
                }
                k = open; // loop decrements to the token before the opener
            }
            "?" => {}
            _ if toks[k].kind == TokenKind::Ident => {
                parts.push(toks[k].text.clone());
                if k == 0 || toks[k - 1].text != "." {
                    break;
                }
                k -= 1; // consume the `.`; loop steps to the next element
            }
            _ => break,
        }
    }
    parts.reverse();
    parts
}

/// Given `close` pointing at `)`/`]`/`}`, return the index of the
/// matching opener (or 0 if unbalanced).
fn rev_skip_balanced(toks: &[Token], close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = close;
    loop {
        if toks[j].kind == TokenKind::Punct {
            match toks[j].text.as_str() {
                ")" | "]" | "}" => depth += 1,
                "(" | "[" | "{" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        if j == 0 {
            return 0;
        }
        j -= 1;
    }
}

/// The token range a guard acquired at `lock_tok` is held over.
///
/// Lexical model: a let-bound guard lives to the end of its enclosing
/// block or an explicit `drop(binding)`; any other acquisition
/// (temporary guard, `if let`/`while let` scrutinee, match scrutinee)
/// lives to the end of its statement, including attached blocks and
/// `else` chains. Conservative in the over-holding direction only for
/// `let x = m.lock().…copied_out();` shapes, which the workspace
/// avoids.
fn hold_range(
    toks: &[Token],
    lo: usize,
    hi: usize,
    lock_tok: usize,
    depth: &(Vec<i32>, Vec<i32>),
) -> (usize, usize) {
    let (all, braces) = depth;
    let d_of = |i: usize| all[i - lo];
    let b_of = |i: usize| braces[i - lo];

    // Find the statement head: scan back to a `;`/`{`/`}`/`=>` at
    // balance 0. An unmatched `(`/`[` means expression context.
    let mut head = lo;
    let mut expr_ctx = false;
    {
        let mut bal = 0i32;
        let mut j = lock_tok;
        while j > lo {
            j -= 1;
            let t = &toks[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    ")" | "]" | "}" => bal += 1,
                    "{" if bal == 0 => {
                        head = j + 1;
                        break;
                    }
                    "(" | "[" if bal == 0 => {
                        head = j + 1;
                        expr_ctx = true;
                        break;
                    }
                    "(" | "[" | "{" => bal -= 1,
                    ";" | "=>" if bal == 0 => {
                        head = j + 1;
                        break;
                    }
                    _ => {}
                }
            }
        }
    }

    let is_let = !expr_ctx && toks.get(head).is_some_and(|t| t.text == "let");
    if is_let {
        // Guard binding: first ident after `let` (through `mut`/`(`).
        let mut binding = None;
        let mut j = head + 1;
        while j < lock_tok {
            let t = &toks[j];
            if t.kind == TokenKind::Ident && t.text != "mut" {
                binding = Some(t.text.clone());
                break;
            }
            if t.kind == TokenKind::Punct && !matches!(t.text.as_str(), "(" | "&") {
                break;
            }
            j += 1;
        }
        let base = b_of(head);
        let mut j = lock_tok;
        while j < hi {
            if b_of(j) < base || (toks[j].text == "}" && b_of(j) == base) {
                return (lock_tok, j);
            }
            if let Some(b) = &binding {
                if toks[j].text == "drop"
                    && text_at(toks, j + 1) == "("
                    && text_at(toks, j + 2) == *b
                    && text_at(toks, j + 3) == ")"
                {
                    return (lock_tok, j);
                }
            }
            j += 1;
        }
        return (lock_tok, hi);
    }

    // Temporary / scrutinee guard: end of statement, block(s) included.
    let base = d_of(head);
    let mut j = lock_tok;
    while j < hi {
        let d = d_of(j);
        if d < base {
            return (lock_tok, j);
        }
        if d == base {
            match toks[j].text.as_str() {
                ";" => return (lock_tok, j),
                ")" | "]" | "}" => return (lock_tok, j),
                "{" => {
                    let close = skip_balanced(toks, j).min(hi);
                    if text_at(toks, close) == "else" {
                        j = close + 1;
                        continue;
                    }
                    return (lock_tok, close);
                }
                _ => {}
            }
        }
        j += 1;
    }
    (lock_tok, hi)
}

/// The path segment before `name_idx`'s `::`, skipping a turbofish:
/// `Vec::<u8>::with_capacity` → `Vec`, `cache::shard_of` → `cache`.
fn path_qualifier(toks: &[Token], name_idx: usize) -> Option<String> {
    if name_idx < 2 {
        return None;
    }
    let mut j = name_idx - 2; // token before the `::`
    if toks[j].text == ">" {
        // `Type::<args>::name` — hop the generic args backwards.
        let mut depth = 0i32;
        loop {
            match toks[j].text.as_str() {
                ">" => depth += 1,
                "<" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        // `<Foo as Trait>` casts: first ident inside.
        if j + 1 < name_idx && toks[j + 1].kind == TokenKind::Ident {
            return Some(toks[j + 1].text.clone());
        }
        if j < 2 || toks[j - 1].text != "::" {
            return None;
        }
        j -= 2;
    }
    (toks[j].kind == TokenKind::Ident).then(|| toks[j].text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_items;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> =
            sources.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let parsed: Vec<ParsedFile> = files.iter().map(parse_items).collect();
        let graph = CallGraph::build(&files, &parsed);
        (files, graph)
    }

    #[test]
    fn typed_field_resolution_beats_name_dispatch() {
        let src = r#"
            struct Session { count: u32 }
            impl Session {
                fn call(&mut self) { self.count += 1; }
            }
            struct Wrapper { session: Arc<Mutex<Session>> }
            impl Wrapper {
                fn go(&self) {
                    self.session.lock().expect("session lock stays healthy").call();
                }
            }
            struct Unrelated;
            impl Unrelated {
                fn call(&self) {}
            }
        "#;
        let (_, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let go = g.node_by_display("x::Wrapper::go").expect("go node exists");
        let call = g.facts[go]
            .calls
            .iter()
            .find(|c| c.name == "call")
            .expect("the .call() site is recorded");
        let targets: Vec<&str> =
            call.callees.iter().map(|&i| g.nodes[i].display.as_str()).collect();
        assert_eq!(targets, ["x::Session::call"]);
        // And the lock identity is the typed field, held across the call.
        let lock = &g.facts[go].locks[0];
        assert_eq!(g.lock_names[lock.lock as usize], "Wrapper.session");
        assert!(lock.hold.0 <= call.tok && call.tok < lock.hold.1);
    }

    #[test]
    fn stoplist_blocks_untyped_std_names() {
        let src = r#"
            struct Table;
            impl Table {
                fn insert(&self) {}
            }
            fn caller(v: &mut Vec<u32>) {
                v.insert(0);
            }
        "#;
        let (_, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let caller = g.node_by_display("x::caller").expect("caller node");
        assert!(g.facts[caller].calls.iter().all(|c| c.callees.is_empty()));
    }

    #[test]
    fn model_calls_are_sinks_not_edges() {
        let src = r#"
            struct Bot;
            impl Bot {
                fn answer(&self) -> u32 { 1 }
            }
            fn drive(b: &Bot) -> u32 { b.answer() }
        "#;
        let (_, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let drive = g.node_by_display("x::drive").expect("drive node");
        assert!(g.facts[drive].calls.is_empty());
        assert_eq!(g.facts[drive].model_sinks.len(), 1);
    }

    #[test]
    fn let_guard_holds_to_block_end_or_drop() {
        let src = r#"
            struct S { m: Mutex<u32>, n: Mutex<u32> }
            impl S {
                fn dropped(&self) {
                    let g = self.m.lock().expect("m lock is never poisoned");
                    drop(g);
                    tail();
                }
                fn held(&self) {
                    let g = self.n.lock().expect("n lock is never poisoned");
                    tail();
                }
            }
            fn tail() {}
        "#;
        let (_, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let dropped = g.node_by_display("x::S::dropped").expect("dropped node");
        let held = g.node_by_display("x::S::held").expect("held node");
        let in_hold = |n: usize| {
            let lock = &g.facts[n].locks[0];
            let call = g.facts[n].calls.iter().find(|c| c.name == "tail").expect("tail call");
            lock.hold.0 <= call.tok && call.tok < lock.hold.1
        };
        assert!(!in_hold(dropped), "drop(g) must end the hold");
        assert!(in_hold(held), "guard lives to the end of the block");
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let src = r#"
            struct S { m: Mutex<u32> }
            impl S {
                fn f(&self) {
                    *self.m.lock().expect("m lock is never poisoned") += 1;
                    after();
                }
            }
            fn after() {}
        "#;
        let (_, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let f = g.node_by_display("x::S::f").expect("f node");
        let lock = &g.facts[f].locks[0];
        let call = g.facts[f].calls.iter().find(|c| c.name == "after").expect("after call");
        assert!(call.tok >= lock.hold.1, "statement-scoped guard released before after()");
    }

    #[test]
    fn entropy_sources_respect_allows() {
        let src = "fn t() -> u64 {\n    let m = HashMap::new(); // lint:allow(D001, graph fixture)\n    let i = Instant::now();\n    0\n}\n";
        let (_, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let t = g.node_by_display("x::t").expect("t node");
        let sources: Vec<&str> =
            g.facts[t].det_sources.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(sources, ["Instant::now"]);
    }

    #[test]
    fn plain_calls_prefer_same_file() {
        let a = "pub fn entry() { helper() }\nfn helper() {}\n";
        let b = "fn helper() {}\n";
        let (_, g) =
            graph_of(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        let entry = g.node_by_display("a::entry").expect("entry node");
        let targets: Vec<&str> = g.facts[entry].calls[0]
            .callees
            .iter()
            .map(|&i| g.nodes[i].display.as_str())
            .collect();
        assert_eq!(targets, ["a::helper"]);
    }
}
