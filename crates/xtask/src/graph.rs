//! Workspace-wide call graph for the interprocedural lints.
//!
//! [`build`] lexes and parses every given file ([`crate::parser`]),
//! assigns each `fn` item a [`FnNode`] with a fully-qualified display name
//! (`crate::module::Impl::name`), scans each body for the *sites* the
//! graph lints care about (panic sites for QL007, hash-iteration sites
//! for QL008, broker mutation/ledger-append sites for QL009), and resolves
//! call expressions into edges ([`crate::resolve`]).
//!
//! Everything here is deterministic by construction — files arrive sorted,
//! nodes follow file/parse order, edges are sorted and deduplicated — so
//! the DOT/JSON artifacts emitted by `cargo xtask graph` are byte-identical
//! across runs (CI diffs two consecutive runs to enforce this).

use crate::analysis::FileContext;
use crate::lexer::{Tok, TokKind};
use crate::parser::{self, ParsedFile, Vis};
use crate::resolve;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One analyzed source file: lint context plus parsed items.
pub struct AnalyzedFile {
    pub ctx: FileContext,
    pub parsed: ParsedFile,
}

/// A token position a graph lint may report, with a short description of
/// what sits there (`.unwrap()`, `buyers.insert`, …).
#[derive(Debug, Clone)]
pub struct Site {
    /// Code-token index (into the owning file's code view).
    pub tok: usize,
    pub line: u32,
    pub what: String,
}

/// One function in the workspace graph.
pub struct FnNode {
    /// Index into [`WorkspaceGraph::files`].
    pub file: usize,
    /// Index into that file's `parsed.items`.
    pub item: usize,
    /// Display name: `crate::module::Scope::name`.
    pub fqn: String,
    /// Crate directory name (`core`, `sqlengine`, …; root facade `qirana`).
    pub krate: String,
    /// Module path derived from the file path (not inline `mod`s — those
    /// live in the item's scope).
    pub module: Vec<String>,
    pub vis: Vis,
    pub has_self: bool,
    /// Code-token index of the `fn` keyword.
    pub decl: usize,
    pub line: u32,
    /// QL003-pattern sites in the body (QL007 raw material).
    pub panic_sites: Vec<Site>,
    /// QL001-pattern sites in the body (QL008 raw material).
    pub hash_sites: Vec<Site>,
    /// Broker account/database mutation sites (QL009 raw material);
    /// empty outside the broker module.
    pub mutation_sites: Vec<Site>,
    /// Code-token indices of `ledger.append(…)` calls in the body.
    pub append_sites: Vec<usize>,
}

impl FnNode {
    /// All addressing segments: file-derived module path followed by the
    /// in-file scope (inline mods, impl/trait self-types, enclosing fns).
    pub fn segments<'a>(&'a self, files: &'a [AnalyzedFile]) -> Vec<&'a str> {
        let scope = &files[self.file].parsed.items[self.item].scope;
        self.module
            .iter()
            .map(String::as_str)
            .chain(scope.iter().map(String::as_str))
            .collect()
    }

    /// True when any addressing segment equals `seg`.
    pub fn in_module(&self, files: &[AnalyzedFile], seg: &str) -> bool {
        self.segments(files).contains(&seg)
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    /// Code-token index of the call site in `from`'s file.
    pub call_tok: usize,
    /// Line of the call site.
    pub line: u32,
}

/// The workspace call graph.
pub struct WorkspaceGraph {
    pub files: Vec<AnalyzedFile>,
    pub nodes: Vec<FnNode>,
    /// Sorted by `(from, to, call_tok)`, deduplicated.
    pub edges: Vec<Edge>,
    /// Outgoing edge indices per node, in `edges` order.
    pub adj: Vec<Vec<usize>>,
}

/// Builds the graph from `(display_path, source)` pairs. Callers pass
/// paths sorted (the workspace walker already does) so node ids are
/// stable; fixture tests pass a single file.
pub fn build(sources: Vec<(String, String)>) -> WorkspaceGraph {
    let files: Vec<AnalyzedFile> = sources
        .into_iter()
        .map(|(path, src)| {
            let ctx = FileContext::new(&path, &src);
            let parsed = parser::parse_file(&ctx);
            AnalyzedFile { ctx, parsed }
        })
        .collect();

    let mut nodes = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let (krate, module) = crate_and_module(&file.ctx.path);
        let hash_names = hash_typed_names(&file.ctx.code);
        for (ii, item) in file.parsed.items.iter().enumerate() {
            let mut fqn = String::new();
            for seg in std::iter::once(krate.as_str())
                .chain(module.iter().map(String::as_str))
                .chain(item.scope.iter().map(String::as_str))
            {
                if !fqn.is_empty() {
                    fqn.push_str("::");
                }
                fqn.push_str(seg);
            }
            if !fqn.is_empty() {
                fqn.push_str("::");
            }
            fqn.push_str(&item.name);
            let mut node = FnNode {
                file: fi,
                item: ii,
                fqn,
                krate: krate.clone(),
                module: module.clone(),
                vis: item.vis,
                has_self: item.has_self,
                decl: item.decl,
                line: item.line,
                panic_sites: Vec::new(),
                hash_sites: Vec::new(),
                mutation_sites: Vec::new(),
                append_sites: Vec::new(),
            };
            if let Some(body) = item.body.clone() {
                scan_panic_sites(&file.ctx, body.clone(), &mut node.panic_sites);
                scan_hash_sites(&file.ctx, body.clone(), &hash_names, &mut node.hash_sites);
                // The WAL-discipline scan covers the broker itself and the
                // server's commit handlers: both layers may mutate market
                // state, so both must append before applying.
                let in_commit_scope = krate == "server"
                    || module.iter().any(|s| s == "broker" || s == "server")
                    || item.scope.iter().any(|s| s == "broker" || s == "server");
                if in_commit_scope {
                    scan_mutation_sites(&file.ctx, body.clone(), &mut node.mutation_sites);
                    node.append_sites = scan_append_sites(&file.ctx, body);
                }
            }
            nodes.push(node);
        }
    }

    let mut edges = resolve::resolve_calls(&files, &nodes);
    edges.sort();
    edges.dedup();
    let mut adj = vec![Vec::new(); nodes.len()];
    for (ei, e) in edges.iter().enumerate() {
        adj[e.from].push(ei);
    }
    WorkspaceGraph {
        files,
        nodes,
        edges,
        adj,
    }
}

/// Splits a display path into (crate name, module path). `crates/X/src/…`
/// belongs to crate `X`; the root facade `src/…` is crate `qirana`; bare
/// fixture paths become crate `fixture` with the file stem as module.
fn crate_and_module(path: &str) -> (String, Vec<String>) {
    let segs: Vec<&str> = path.split('/').collect();
    let (krate, rest): (&str, &[&str]) =
        if segs.len() > 3 && segs[0] == "crates" && segs[2] == "src" {
            (segs[1], &segs[3..])
        } else if segs.len() > 1 && segs[0] == "src" {
            ("qirana", &segs[1..])
        } else {
            ("fixture", &segs[segs.len().saturating_sub(1)..])
        };
    let mut module = Vec::new();
    for (i, seg) in rest.iter().enumerate() {
        if i + 1 == rest.len() {
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            if !matches!(stem, "lib" | "main" | "mod") {
                module.push(stem.to_string());
            }
        } else {
            module.push((*seg).to_string());
        }
    }
    (krate.to_string(), module)
}

/// Names this file declares as `HashMap`/`HashSet` (same conservative
/// intra-file rule as QL001 in `lints.rs`).
fn hash_typed_names(code: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 2..code.len() {
        if (code[i].is_ident("HashMap") || code[i].is_ident("HashSet"))
            && (code[i - 1].is_punct(":") || code[i - 1].is_punct("="))
            && code[i - 2].kind == TokKind::Ident
        {
            names.insert(code[i - 2].text.clone());
        }
    }
    names
}

/// QL003 token patterns inside `range` (test regions skipped): the raw
/// panic sites QL007 propagates. QL003 waivers deliberately do **not**
/// remove a site here — a site may be locally sound yet still poison the
/// public API contract; QL007 has its own waiver channel.
fn scan_panic_sites(ctx: &FileContext, range: std::ops::Range<usize>, out: &mut Vec<Site>) {
    const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    let code = &ctx.code;
    for i in range {
        if ctx.in_test(i) {
            continue;
        }
        let t = &code[i];
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && code[i - 1].is_punct(".")
            && code.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!(".{}()", t.text),
            });
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && (i == 0 || !code[i - 1].is_punct("."))
        {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("{}!", t.text),
            });
        }
    }
}

/// QL001 token patterns inside `range`: hash-order iteration sites whose
/// values may flow into a fingerprint/price producer (QL008).
fn scan_hash_sites(
    ctx: &FileContext,
    range: std::ops::Range<usize>,
    hash_names: &BTreeSet<String>,
    out: &mut Vec<Site>,
) {
    const ORDER_DEPENDENT_METHODS: [&str; 8] = [
        "iter",
        "iter_mut",
        "into_iter",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
    ];
    if hash_names.is_empty() {
        return;
    }
    let code = &ctx.code;
    for i in range {
        if ctx.in_test(i) {
            continue;
        }
        if code[i].kind == TokKind::Ident
            && ORDER_DEPENDENT_METHODS.contains(&code[i].text.as_str())
            && i >= 2
            && code[i - 1].is_punct(".")
            && code[i - 2].kind == TokKind::Ident
            && hash_names.contains(code[i - 2].text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            out.push(Site {
                tok: i,
                line: code[i].line,
                what: format!("{}.{}()", code[i - 2].text, code[i].text),
            });
        }
        if code[i].is_ident("for") {
            if let Some((j, name)) = for_loop_target(code, i) {
                if hash_names.contains(name) {
                    out.push(Site {
                        tok: j,
                        line: code[j].line,
                        what: format!("for … in {name}"),
                    });
                }
            }
        }
    }
}

/// Mirrors `lints::for_loop_target` (kept private there; the shapes the
/// two passes accept must stay identical, pinned by the QL008 fixtures).
fn for_loop_target(code: &[Tok], i: usize) -> Option<(usize, &str)> {
    let mut j = i + 1;
    let mut guard = 0;
    while j < code.len() && !code[j].is_ident("in") {
        j += 1;
        guard += 1;
        if guard > 24 {
            return None;
        }
    }
    let mut k = j + 1;
    while k < code.len() && (code[k].is_punct("&") || code[k].is_ident("mut")) {
        k += 1;
    }
    if code.get(k).map(|t| t.kind) == Some(TokKind::Ident)
        && code.get(k + 1).is_some_and(|t| t.is_punct("{"))
    {
        return Some((k, &code[k].text));
    }
    None
}

/// Broker account/database mutation sites (QL009). The patterns encode
/// the broker's actual durable-state surface: applying a seller update or
/// write batch to the live database, and mutating per-buyer account state
/// (`buyers` map entries, `paid`/`charged` fields, purchase `history`).
fn scan_mutation_sites(ctx: &FileContext, range: std::ops::Range<usize>, out: &mut Vec<Site>) {
    let code = &ctx.code;
    for i in range {
        if ctx.in_test(i) {
            continue;
        }
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Applying writes to the live database.
        if t.is_ident("apply_writes") && code.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("{}(…)", t.text),
            });
            continue;
        }
        let after_dot = i >= 1 && code[i - 1].is_punct(".");
        // `….buyers.insert/entry/remove/clear(…)`.
        if after_dot
            && matches!(t.text.as_str(), "insert" | "entry" | "remove" | "clear")
            && i >= 2
            && code[i - 2].is_ident("buyers")
            && code.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            out.push(Site {
                tok: i,
                line: t.line,
                what: format!("buyers.{}(…)", t.text),
            });
            continue;
        }
        // `….history.push(…)`.
        if after_dot
            && t.is_ident("push")
            && i >= 3
            && code[i - 1].is_punct(".")
            && code[i - 2].is_ident("history")
            && code[i - 3].is_punct(".")
            && code.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            out.push(Site {
                tok: i,
                line: t.line,
                what: "history.push(…)".to_string(),
            });
            continue;
        }
        // `….paid = / += …`, `….charged = …` (plain assignment, not `==`).
        if after_dot && (t.is_ident("paid") || t.is_ident("charged")) {
            let assigns = match (code.get(i + 1), code.get(i + 2)) {
                (Some(a), Some(b)) if a.is_punct("=") => !b.is_punct("="),
                (Some(a), Some(b)) if a.is_punct("+") => b.is_punct("="),
                _ => false,
            };
            if assigns {
                out.push(Site {
                    tok: i,
                    line: t.line,
                    what: format!("{} assignment", t.text),
                });
            }
        }
    }
}

/// `ledger.append(…)` sites inside `range`. Recognizes a direct
/// `ledger.append(…)`, plus `.append(…)` on a binding the body visibly
/// takes from `self.ledger` (`let led = self.ledger…` /
/// `if let Some(led) = self.ledger…` / `Ok(led) = …self.ledger…`).
fn scan_append_sites(ctx: &FileContext, range: std::ops::Range<usize>) -> Vec<usize> {
    let code = &ctx.code;
    let mut ledger_bindings: BTreeSet<&str> = BTreeSet::new();
    ledger_bindings.insert("ledger");
    for i in range.clone() {
        // `… = self . ledger …` — walk back over the `=` to the binding.
        if code[i].is_ident("ledger")
            && i >= 3
            && code[i - 1].is_punct(".")
            && code[i - 2].is_ident("self")
            && code[i - 3].is_punct("=")
        {
            let j = i - 3;
            if j >= 1 && code[j - 1].kind == TokKind::Ident {
                // `let led = self.ledger…`
                ledger_bindings.insert(&code[j - 1].text);
            } else if j >= 3
                && code[j - 1].is_punct(")")
                && code[j - 2].kind == TokKind::Ident
                && code[j - 3].is_punct("(")
            {
                // `Some(led) = self.ledger…` / `Ok(led) = …`
                ledger_bindings.insert(&code[j - 2].text);
            }
        }
    }
    let mut sites = Vec::new();
    for i in range {
        if ctx.in_test(i) {
            continue;
        }
        if code[i].is_ident("append")
            && i >= 2
            && code[i - 1].is_punct(".")
            && code[i - 2].kind == TokKind::Ident
            && ledger_bindings.contains(code[i - 2].text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            sites.push(i);
        }
    }
    sites
}

impl WorkspaceGraph {
    /// Deterministic Graphviz DOT rendering: node ids are stable indices,
    /// labels are fully-qualified names, public API nodes are boxed,
    /// panic-site carriers are marked.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph qirana_call_graph {\n  rankdir=LR;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = if n.vis == Vis::Pub { "box" } else { "ellipse" };
            let mark = if n.panic_sites.is_empty() { "" } else { " ⚠" };
            let _ = writeln!(
                out,
                "  n{} [label=\"{}{}\", shape={}];",
                i,
                escape(&n.fqn),
                mark,
                shape
            );
        }
        let mut seen = BTreeSet::new();
        for e in &self.edges {
            if seen.insert((e.from, e.to)) {
                let _ = writeln!(out, "  n{} -> n{};", e.from, e.to);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Deterministic JSON rendering (schema `qirana-graph/v1`): node and
    /// edge arrays in stable order, no timestamps, hand-escaped strings.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"qirana-graph/v1\",\n  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let vis = match n.vis {
                Vis::Pub => "pub",
                Vis::Scoped => "scoped",
                Vis::Private => "private",
            };
            let _ = write!(
                out,
                "    {{\"id\": {}, \"fqn\": \"{}\", \"crate\": \"{}\", \"file\": \"{}\", \
                 \"line\": {}, \"vis\": \"{}\", \"has_self\": {}, \"panic_sites\": {}, \
                 \"hash_iter_sites\": {}, \"mutation_sites\": {}, \"append_sites\": {}}}",
                i,
                escape(&n.fqn),
                escape(&n.krate),
                escape(&self.files[n.file].ctx.path),
                n.line,
                vis,
                n.has_self,
                n.panic_sites.len(),
                n.hash_sites.len(),
                n.mutation_sites.len(),
                n.append_sites.len(),
            );
            out.push_str(if i + 1 < self.nodes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"from\": {}, \"to\": {}, \"line\": {}}}",
                e.from, e.to, e.line
            );
            out.push_str(if i + 1 < self.edges.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string for both DOT and JSON double-quoted contexts.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(path: &str, src: &str) -> WorkspaceGraph {
        build(vec![(path.to_string(), src.to_string())])
    }

    #[test]
    fn crate_and_module_paths() {
        assert_eq!(
            crate_and_module("crates/core/src/broker.rs"),
            ("core".to_string(), vec!["broker".to_string()])
        );
        assert_eq!(
            crate_and_module("crates/core/src/lib.rs"),
            ("core".to_string(), vec![])
        );
        assert_eq!(
            crate_and_module("src/lib.rs"),
            ("qirana".to_string(), vec![])
        );
        assert_eq!(
            crate_and_module("crates/sqlengine/src/exec/join.rs"),
            (
                "sqlengine".to_string(),
                vec!["exec".to_string(), "join".to_string()]
            )
        );
        assert_eq!(
            crate_and_module("ql007_fixture.rs"),
            ("fixture".to_string(), vec!["ql007_fixture".to_string()])
        );
    }

    #[test]
    fn nodes_carry_fqns_and_sites() {
        let g = graph_of(
            "crates/core/src/engine.rs",
            "pub fn price() -> f64 { helper().unwrap() }\nfn helper() -> Option<f64> { None }\n",
        );
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.nodes[0].fqn, "core::engine::price");
        assert_eq!(g.nodes[0].panic_sites.len(), 1);
        assert_eq!(g.nodes[0].panic_sites[0].what, ".unwrap()");
        assert_eq!(g.nodes[1].fqn, "core::engine::helper");
    }

    #[test]
    fn edges_connect_caller_to_callee() {
        let g = graph_of(
            "crates/core/src/engine.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        );
        let pairs: Vec<(usize, usize)> = g.edges.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn broker_mutation_and_append_sites() {
        let src = "mod broker {\n  impl Qirana {\n    pub fn commit(&mut self) {\n      \
                   if let Some(led) = self.ledger.as_mut() { led.append(&ev).ok(); }\n      \
                   self.buyers.insert(k, v);\n      state.paid = total;\n      \
                   state.history.push(p);\n      apply_writes(&mut self.db, w);\n    }\n  }\n}\n";
        let g = graph_of("crates/core/src/lib.rs", src);
        let n = &g.nodes[0];
        assert_eq!(n.append_sites.len(), 1);
        let whats: Vec<&str> = n.mutation_sites.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(
            whats,
            vec![
                "buyers.insert(…)",
                "paid assignment",
                "history.push(…)",
                "apply_writes(…)"
            ]
        );
        // Every mutation here comes after the append.
        assert!(n.mutation_sites.iter().all(|s| s.tok > n.append_sites[0]));
    }

    #[test]
    fn artifacts_are_deterministic() {
        let src = "pub fn a() { b(); }\nfn b() {}\n";
        let g1 = graph_of("crates/core/src/engine.rs", src);
        let g2 = graph_of("crates/core/src/engine.rs", src);
        assert_eq!(g1.to_dot(), g2.to_dot());
        assert_eq!(g1.to_json(), g2.to_json());
        assert!(g1.to_json().contains("\"schema\": \"qirana-graph/v1\""));
    }

    #[test]
    fn comparison_is_not_a_paid_assignment() {
        let src = "mod broker {\n  fn check(&self) -> bool { self.paid == 1.0 }\n}\n";
        let g = graph_of("crates/core/src/lib.rs", src);
        assert!(g.nodes[0].mutation_sites.is_empty());
    }
}
