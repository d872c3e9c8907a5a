//! The qirana-lint rules: five repo-specific invariants, each born from a
//! real bug class (or bug class we refuse to admit) in this codebase
//! (see DESIGN.md §6).
//!
//! * **QL001** — nondeterministic iteration over `HashMap`/`HashSet`.
//!   Float accumulation is not associative, so hash-order iteration made
//!   two prices of the *same* partition differ in the last ulp (the PR 3
//!   entropy-pricing bug). Iterate a `BTreeMap`, a sorted vector, or
//!   first-appearance order instead.
//! * **QL002** — lossy `as f64` casts of (potentially) 64-bit integers.
//!   `i64 as f64` silently collapses distinct integers beyond 2^53; the
//!   PR 3 fingerprint bug priced `2^53` and `2^53 + 1` identically. Route
//!   exact conversions through `qirana_sqlengine::value::lossless_f64`.
//! * **QL003** — `unwrap()`/`expect()`/`panic!`-family calls in library
//!   code. The workspace has typed error channels (`EngineError`,
//!   `PricingError`, `SupportError`, `WeightError`); a malformed input
//!   must surface as one of those, not abort the broker. Tests and bins
//!   are exempt.
//! * **QL004** — unseeded randomness or wall-clock reads outside the
//!   budget/fault modules. Support generation, weights, and fault
//!   injection are all seed-driven so every price is replayable; an
//!   unseeded RNG or ambient clock read reintroduces nondeterminism.
//!   Also flags `DefaultHasher`/`RandomState`: their output is only
//!   stable within one compiler release, so any persisted or replayed
//!   artifact derived from them (update signatures, dedup keys) silently
//!   changes across toolchains — the PR 8 `SupportUpdate::signature`
//!   bug. Hash through `qirana_sqlengine::fingerprint` instead.
//! * **QL005** — direct filesystem writes (`std::fs::write`,
//!   `File::create`) outside the ledger module. Every durable market
//!   mutation must flow through the write-ahead log so crash recovery
//!   sees it; a stray `fs::write` is state the ledger cannot replay.
//!   Bins and tests are exempt.
//! * **QL006** — `println!`/`eprintln!`/`dbg!` in library code outside
//!   `core::telemetry`. Diagnostics belong in the telemetry sink (spans,
//!   counters, exporters) where they are structured, deterministic under
//!   the test clock, and silenceable; a stray print is an unstructured
//!   side channel that corrupts bench JSON on stdout. Bins and tests are
//!   exempt.
//!
//! Three further rules are **interprocedural**: they run over the
//! workspace call graph ([`crate::graph`]) instead of one file at a time
//! (see DESIGN.md §10):
//!
//! * **QL007** — transitive panic-reachability. The closure of QL003: a
//!   public library function that *transitively* reaches an
//!   `unwrap`/`expect`/`panic!` site can abort a buyer's purchase three
//!   calls deep, where the per-file pass is blind. A QL003 waiver does
//!   not silence QL007 — a site may be locally justified yet still
//!   poison the public contract; waive QL007 at the panic site or at the
//!   entry point's `fn` declaration.
//! * **QL008** — determinism taint. Hash-order iteration (the QL001
//!   pattern) inside any function that a fingerprint- or price-producing
//!   function (`sqlengine::fingerprint`, `core::engine`) transitively
//!   calls can leak per-process iteration order into prices.
//! * **QL009** — WAL discipline. Broker account/database mutation sites
//!   reachable from a `Broker` commit entry point (`buy`, `commit*`)
//!   without a dominating `ledger.append` call earlier on the path
//!   violate PR 6's append-then-apply rule: a crash between mutation and
//!   logging strands state the ledger cannot replay.
//!
//! All rules are waivable with an inline justification:
//! `// qirana-lint::allow(QL00x): <why this site is sound>`.

use crate::analysis::FileContext;
use crate::graph::WorkspaceGraph;
use crate::lexer::{Tok, TokKind};
use crate::parser::Vis;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// The lint rules, in diagnostic-code order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    Ql001,
    Ql002,
    Ql003,
    Ql004,
    Ql005,
    Ql006,
    Ql007,
    Ql008,
    Ql009,
}

impl Lint {
    /// Diagnostic code, e.g. `QL001`.
    pub fn code(self) -> &'static str {
        match self {
            Lint::Ql001 => "QL001",
            Lint::Ql002 => "QL002",
            Lint::Ql003 => "QL003",
            Lint::Ql004 => "QL004",
            Lint::Ql005 => "QL005",
            Lint::Ql006 => "QL006",
            Lint::Ql007 => "QL007",
            Lint::Ql008 => "QL008",
            Lint::Ql009 => "QL009",
        }
    }

    /// Parses a diagnostic code (as written in allow annotations).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "QL001" => Some(Lint::Ql001),
            "QL002" => Some(Lint::Ql002),
            "QL003" => Some(Lint::Ql003),
            "QL004" => Some(Lint::Ql004),
            "QL005" => Some(Lint::Ql005),
            "QL006" => Some(Lint::Ql006),
            "QL007" => Some(Lint::Ql007),
            "QL008" => Some(Lint::Ql008),
            "QL009" => Some(Lint::Ql009),
            _ => None,
        }
    }

    pub const ALL: [Lint; 9] = [
        Lint::Ql001,
        Lint::Ql002,
        Lint::Ql003,
        Lint::Ql004,
        Lint::Ql005,
        Lint::Ql006,
        Lint::Ql007,
        Lint::Ql008,
        Lint::Ql009,
    ];

    /// Long-form rationale, example, and waiver syntax for
    /// `cargo xtask lint --explain QLxxx`.
    pub fn explain(self) -> &'static str {
        match self {
            Lint::Ql001 => {
                "QL001 — nondeterministic HashMap/HashSet iteration\n\n\
                 Float accumulation is not associative, so iterating a hash map while\n\
                 summing prices or entropy makes the result depend on per-process hash\n\
                 order (the PR 3 entropy-pricing bug: two prices of the same partition\n\
                 differed in the last ulp).\n\n\
                 Example violation:   for (k, v) in weights.iter() { total += v; }\n\
                 Fix:                 iterate a BTreeMap, a sorted Vec, or\n\
                                      first-appearance indexing.\n\
                 Waiver:              // qirana-lint::allow(QL001): <why order cannot leak>"
            }
            Lint::Ql002 => {
                "QL002 — lossy `as f64` casts of possibly-64-bit integers\n\n\
                 `i64 as f64` silently collapses distinct integers beyond 2^53; the\n\
                 PR 3 fingerprint bug priced 2^53 and 2^53 + 1 identically. A cast\n\
                 passes only when the source is provably <= 32 bits at the token level\n\
                 (`x as u32 as f64`, a declared-small name, a small literal).\n\n\
                 Example violation:   let w = row_count as f64;   // row_count: u64\n\
                 Fix:                 qirana_sqlengine::value::lossless_f64, or cast\n\
                                      through u32/i32 when the range is known.\n\
                 Waiver:              // qirana-lint::allow(QL002): <why the value fits>"
            }
            Lint::Ql003 => {
                "QL003 — panicking calls in library code\n\n\
                 `unwrap()`, `expect()`, and the `panic!` macro family abort the broker\n\
                 instead of surfacing a typed error (`EngineError`, `PricingError`,\n\
                 `SupportError`, `WeightError`). Bins and test code are exempt;\n\
                 `#[allow(clippy::unwrap_used)]`-family attributes also waive the\n\
                 annotated item.\n\n\
                 Example violation:   let plan = parse(sql).unwrap();\n\
                 Fix:                 let plan = parse(sql).map_err(EngineError::parse)?;\n\
                 Waiver:              // qirana-lint::allow(QL003): <invariant making this unreachable>"
            }
            Lint::Ql004 => {
                "QL004 — ambient nondeterminism (entropy, wall clock, unstable hashers)\n\n\
                 Support sets, weights, and prices must replay from an explicit seed.\n\
                 `thread_rng`/`from_entropy`/`rand::random` seed from the environment;\n\
                 `Instant::now`/`SystemTime::now` read the ambient clock; `DefaultHasher`/\n\
                 `RandomState` output changes across compiler releases (the PR 8\n\
                 SupportUpdate::signature bug). The fault module is exempt.\n\n\
                 Example violation:   let mut rng = thread_rng();\n\
                 Fix:                 SeedableRng::seed_from_u64(cfg.seed); hash through\n\
                                      qirana_sqlengine::fingerprint.\n\
                 Waiver:              // qirana-lint::allow(QL004): <why this site is replayable>"
            }
            Lint::Ql005 => {
                "QL005 — durable writes bypassing the ledger\n\n\
                 The market's only durable artifacts are the write-ahead log and its\n\
                 snapshots, owned by core::ledger. A direct `fs::write`/`File::create`\n\
                 elsewhere creates state crash recovery cannot see or replay. Bins and\n\
                 tests are exempt.\n\n\
                 Example violation:   std::fs::write(\"balances.json\", data)?;\n\
                 Fix:                 persist through the ledger (or move into a bin).\n\
                 Waiver:              // qirana-lint::allow(QL005): <why this bypass is sound>"
            }
            Lint::Ql006 => {
                "QL006 — stray prints in library code\n\n\
                 `println!`/`eprintln!`/`dbg!` bypass the telemetry sink and corrupt\n\
                 machine-readable output on stdout (bench JSON). core::telemetry and\n\
                 bins are exempt.\n\n\
                 Example violation:   println!(\"price = {p}\");\n\
                 Fix:                 record a span/counter/gauge on core::telemetry.\n\
                 Waiver:              // qirana-lint::allow(QL006): <why this print must stay>"
            }
            Lint::Ql007 => {
                "QL007 — transitive panic-reachability from public API (interprocedural)\n\n\
                 The closure of QL003 over the workspace call graph: a `pub` library\n\
                 function that transitively reaches an `unwrap`/`expect`/`panic!` site\n\
                 can abort a buyer's purchase several calls deep. QL003 waivers do NOT\n\
                 silence QL007: a site may be locally justified (checked invariant) yet\n\
                 still poison the public contract, so the interprocedural waiver is\n\
                 separate. The diagnostic shows one example call path from the public\n\
                 entry to the panic site.\n\n\
                 Example violation:   pub fn quote(..) -> f64 { helper() } where\n\
                                      helper() calls slots.expect(\"populated\")\n\
                 Fix:                 thread a typed error (`EngineError::internal`) up\n\
                                      to the entry, or prove + document the invariant.\n\
                 Waiver:              // qirana-lint::allow(QL007): <reason> at the panic\n\
                                      site or at the entry `fn` declaration line."
            }
            Lint::Ql008 => {
                "QL008 — determinism taint into fingerprint/price producers (interprocedural)\n\n\
                 Hash-order iteration (the QL001 pattern) inside any function that a\n\
                 fingerprint- or price-producing function (module `fingerprint` or\n\
                 `engine`) transitively calls lets per-process hash order leak into\n\
                 published prices — even when the iteration lives in a helper far from\n\
                 the pricing surface. The diagnostic shows the call path from the\n\
                 tainted producer to the iteration site.\n\n\
                 Example violation:   core::engine::price -> util::fold_weights, where\n\
                                      fold_weights sums over weights.values()\n\
                 Fix:                 iterate a BTreeMap/sorted Vec in the helper.\n\
                 Waiver:              // qirana-lint::allow(QL008): <why order cannot\n\
                                      reach the producer's output> at the iteration site."
            }
            Lint::Ql009 => {
                "QL009 — WAL discipline on broker commit paths (interprocedural)\n\n\
                 PR 6's append-then-apply rule: on every path from a commit entry\n\
                 point (`buy`, `commit*` — in the broker module or anywhere in the\n\
                 server crate) to an account/database mutation\n\
                 (buyers map, paid/charged fields, history, apply_writes), a\n\
                 `ledger.append(..)` must come first — otherwise a\n\
                 crash between mutation and logging strands state the WAL cannot\n\
                 replay. The pass walks only call edges not preceded by an append in\n\
                 the caller's body and flags mutation sites with no earlier append in\n\
                 their own body.\n\n\
                 Example violation:   pub fn commit_x(&mut self) { self.buyers.insert(..);\n\
                                      self.log()?; }   // mutate before append\n\
                 Fix:                 append the event first, then apply it (rollback on\n\
                                      append failure if the apply already happened).\n\
                 Waiver:              // qirana-lint::allow(QL009): <compensating\n\
                                      mechanism, e.g. undo-rollback> at the mutation site."
            }
        }
    }
}

/// One finding: file, line, rule, and a human explanation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub lint: Lint,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.lint.code(),
            self.message
        )
    }
}

/// Runs every pass over one analyzed file.
pub fn lint_file(ctx: &FileContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    ql001_nondeterministic_iteration(ctx, &mut out);
    ql002_lossy_casts(ctx, &mut out);
    ql003_panicking_calls(ctx, &mut out);
    ql004_ambient_nondeterminism(ctx, &mut out);
    ql005_durability_bypass(ctx, &mut out);
    ql006_stray_prints(ctx, &mut out);
    out.sort();
    out
}

fn diag(ctx: &FileContext, i: usize, lint: Lint, message: String, out: &mut Vec<Diagnostic>) {
    if !ctx.allowed(lint, i) {
        out.push(Diagnostic {
            path: ctx.path.clone(),
            line: ctx.code[i].line,
            lint,
            message,
        });
    }
}

/// Methods whose results depend on a hash map's iteration order.
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

/// QL001: iteration over bindings/fields whose type this file declares as
/// `HashMap`/`HashSet`. Intra-file and conservative by design: a name is
/// hash-typed if the file contains `name: HashMap<…>` (binding or field
/// annotation) or `let [mut] name = HashMap::new()/with_capacity/from…`.
fn ql001_nondeterministic_iteration(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let code = &ctx.code;
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    for i in 0..code.len() {
        if !(code[i].is_ident("HashMap") || code[i].is_ident("HashSet")) {
            continue;
        }
        // `name : HashMap` (type ascription on a binding or struct field).
        if i >= 2 && code[i - 1].is_punct(":") && code[i - 2].kind == TokKind::Ident {
            hash_names.insert(&code[i - 2].text);
        }
        // `let [mut] name = HashMap::…` / `name = HashMap::…`.
        if i >= 2 && code[i - 1].is_punct("=") && code[i - 2].kind == TokKind::Ident {
            hash_names.insert(&code[i - 2].text);
        }
    }
    if hash_names.is_empty() {
        return;
    }

    for i in 0..code.len() {
        // `name.method(` where name is hash-typed and method is
        // order-dependent. Covers field access too: in `self.buyers.iter()`
        // the token before `.iter` is `buyers`.
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
            diag(
                ctx,
                i,
                Lint::Ql001,
                format!(
                    "`{}.{}()` iterates a HashMap/HashSet: per-process hash order can leak \
                     into prices/fingerprints; use BTreeMap, a sorted Vec, or \
                     first-appearance indexing",
                    code[i - 2].text,
                    code[i].text
                ),
                out,
            );
        }
        // `for pat in [&[mut]] name` where name is hash-typed.
        if code[i].is_ident("for") {
            if let Some((j, name)) = for_loop_target(code, i) {
                if hash_names.contains(name) {
                    diag(
                        ctx,
                        j,
                        Lint::Ql001,
                        format!(
                            "`for … in {name}` iterates a HashMap/HashSet in hash order; \
                             use BTreeMap, a sorted Vec, or first-appearance indexing"
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// For a `for` keyword at `i`, returns the index and text of the iterated
/// identifier when the loop has the shape `for pat in [&[mut]] name {`.
fn for_loop_target(code: &[Tok], i: usize) -> Option<(usize, &str)> {
    let mut j = i + 1;
    // Scan the (possibly destructuring) pattern for the `in` keyword.
    let mut guard = 0;
    while j < code.len() && !code[j].is_ident("in") {
        j += 1;
        guard += 1;
        if guard > 24 {
            return None; // not a plain loop header
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

/// Integer types provably ≤ 32 bits, whose `as f64` is always exact.
const EXACT_IN_F64: [&str; 7] = ["u8", "i8", "u16", "i16", "u32", "i32", "f32"];

/// QL002: `<expr> as f64` where the source cannot be proven ≤ 32 bits at
/// the token level. `x as u32 as f64` passes, as does `x as f64` when this
/// file declares `x` with a ≤ 32-bit type; `i64`/`u64`/`usize` sources,
/// `.len()` results, and unproven identifiers flag — the 2^53 collapse is
/// silent, so the burden of proof is on the cast site.
fn ql002_lossy_casts(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let code = &ctx.code;
    // Names this file ascribes a provably-exact type: `n: u32` in a
    // binding, field, or signature.
    let mut small_names: BTreeSet<&str> = BTreeSet::new();
    for i in 2..code.len() {
        if code[i].kind == TokKind::Ident
            && EXACT_IN_F64.contains(&code[i].text.as_str())
            && code[i - 1].is_punct(":")
            && code[i - 2].kind == TokKind::Ident
        {
            small_names.insert(&code[i - 2].text);
        }
    }
    for i in 0..code.len() {
        if ctx.in_test(i)
            || !(code[i].is_ident("as") && code.get(i + 1).is_some_and(|t| t.is_ident("f64")))
        {
            continue;
        }
        // The token immediately before `as` is the tail of the source
        // expression: a chained narrow cast (`… as u32 as f64`), a
        // declared-small identifier, or a small integer literal is
        // provably exact.
        let exact = match code.get(i.wrapping_sub(1)) {
            Some(prev) if prev.kind == TokKind::Ident => {
                EXACT_IN_F64.contains(&prev.text.as_str())
                    || small_names.contains(prev.text.as_str())
            }
            Some(prev) if prev.kind == TokKind::Number => prev
                .text
                .parse::<i64>()
                .is_ok_and(|v| v.unsigned_abs() <= (1 << 53)),
            _ => false,
        };
        if !exact {
            diag(
                ctx,
                i,
                Lint::Ql002,
                "`as f64` on a possibly-64-bit integer silently rounds beyond 2^53 \
                 (the fingerprint-collapse bug class); use \
                 `qirana_sqlengine::value::lossless_f64` or cast through u32/i32"
                    .to_string(),
                out,
            );
        }
    }
}

/// Macros that abort instead of returning a typed error.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// QL003: panicking calls in library code. Skipped wholesale in bins and
/// test regions; waivable per-site with a justification or a
/// `#[allow(clippy::unwrap_used)]`-family attribute on the item.
fn ql003_panicking_calls(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.is_bin() {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test(i) {
            continue;
        }
        let t = &code[i];
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && code[i - 1].is_punct(".")
            && code.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            diag(
                ctx,
                i,
                Lint::Ql003,
                format!(
                    "`.{}()` in library code panics on the error path; return the typed \
                     error (`EngineError`/`PricingError`/`SupportError`) instead",
                    t.text
                ),
                out,
            );
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && (i == 0 || !code[i - 1].is_punct("."))
        {
            diag(
                ctx,
                i,
                Lint::Ql003,
                format!(
                    "`{}!` in library code aborts the broker; return a typed error or \
                     document the invariant with an allow annotation",
                    t.text
                ),
                out,
            );
        }
    }
}

/// QL004: ambient nondeterminism. The fault module is exempt (it is the
/// sanctioned failpoint home and is itself seed-driven); the execution
/// budget's deadline meter carries an inline annotation at its one site.
fn ql004_ambient_nondeterminism(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.is_fault_module() {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test(i) {
            continue;
        }
        let t = &code[i];
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
            diag(
                ctx,
                i,
                Lint::Ql004,
                format!(
                    "`{}` seeds from the environment: support sets, weights, and prices \
                     must be replayable from an explicit seed (use `SeedableRng::seed_from_u64`)",
                    t.text
                ),
                out,
            );
        } else if t.is_ident("random")
            && i >= 2
            && code[i - 1].is_punct(":")
            && code[i - 2].is_punct(":")
            && i >= 3
            && code[i - 3].is_ident("rand")
        {
            diag(
                ctx,
                i,
                Lint::Ql004,
                "`rand::random` draws from the global entropy RNG; use an explicitly \
                 seeded generator"
                    .to_string(),
                out,
            );
        } else if t.is_ident("DefaultHasher") || t.is_ident("RandomState") {
            diag(
                ctx,
                i,
                Lint::Ql004,
                format!(
                    "`{}` output is only stable within one compiler release: a persisted \
                     signature or replayed dedup key silently changes across toolchains; \
                     hash through `qirana_sqlengine::fingerprint` (e.g. `output_row_hash`)",
                    t.text
                ),
                out,
            );
        } else if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && code.get(i + 1).is_some_and(|t| t.is_punct(":"))
            && code.get(i + 2).is_some_and(|t| t.is_punct(":"))
            && code.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            diag(
                ctx,
                i,
                Lint::Ql004,
                format!(
                    "`{}::now()` reads the ambient clock outside the budget/fault \
                     modules; thread a deadline or budget through instead",
                    t.text
                ),
                out,
            );
        }
    }
}

/// QL005: durable-state writes that bypass the ledger. Library code must
/// never open a file for writing directly: the market's only durable
/// artifacts are the write-ahead log and its snapshots, both owned by
/// `core::ledger`, and a side-channel `fs::write` is state that crash
/// recovery can neither see nor replay. The ledger module itself and bins
/// (report generators, the REPL) are exempt; tests are skipped.
fn ql005_durability_bypass(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.is_ledger_module() || ctx.is_bin() {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test(i) {
            continue;
        }
        let t = &code[i];
        if !code.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // `fs::write(` / `std::fs::write(`.
        if t.is_ident("write")
            && i >= 3
            && code[i - 1].is_punct(":")
            && code[i - 2].is_punct(":")
            && code[i - 3].is_ident("fs")
        {
            diag(
                ctx,
                i,
                Lint::Ql005,
                "`fs::write` outside `core::ledger` creates durable state the \
                 write-ahead log cannot replay after a crash; persist through the \
                 ledger (or move this into a bin/test)"
                    .to_string(),
                out,
            );
        }
        // `File::create(` / `File::create_new(`.
        if (t.is_ident("create") || t.is_ident("create_new"))
            && i >= 3
            && code[i - 1].is_punct(":")
            && code[i - 2].is_punct(":")
            && code[i - 3].is_ident("File")
        {
            diag(
                ctx,
                i,
                Lint::Ql005,
                format!(
                    "`File::{}` outside `core::ledger` opens a durable side channel \
                     that crash recovery cannot see; persist through the ledger (or \
                     move this into a bin/test)",
                    t.text
                ),
                out,
            );
        }
    }
}

/// Macros that print straight to stdout/stderr, bypassing telemetry.
const PRINT_MACROS: [&str; 3] = ["println", "eprintln", "dbg"];

/// QL006: stray prints in library code. The telemetry module (the
/// sanctioned diagnostic surface) and bins (whose whole job is printing)
/// are exempt; tests are skipped. `print!`-without-ln is deliberately not
/// matched: progressive output formatting lives in bins, and the `ln`
/// variants are what debugging leaves behind.
fn ql006_stray_prints(ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if ctx.is_telemetry_module() || ctx.is_bin() {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test(i) {
            continue;
        }
        let t = &code[i];
        if t.kind == TokKind::Ident
            && PRINT_MACROS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && (i == 0 || !code[i - 1].is_punct("."))
        {
            diag(
                ctx,
                i,
                Lint::Ql006,
                format!(
                    "`{}!` in library code prints past the telemetry sink and corrupts \
                     machine-readable output on stdout/stderr; record a span, counter, \
                     or gauge on `core::telemetry` instead (or move this into a bin/test)",
                    t.text
                ),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Interprocedural passes (QL007–QL009) over the workspace call graph.
// ---------------------------------------------------------------------------

/// Runs the graph-powered passes. Per-file passes stay in [`lint_file`];
/// this entry point exists separately so fixtures can pin each layer's
/// diagnostics in isolation.
pub fn lint_graph(g: &WorkspaceGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    ql007_panic_reachability(g, &mut out);
    ql008_determinism_taint(g, &mut out);
    ql009_wal_discipline(g, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Reachability state from a multi-source BFS: for each reached node, the
/// entry it traces to and its BFS parent (for one example path). Nodes are
/// seeded and expanded in index order, so example paths are deterministic.
struct Reach {
    reached: Vec<bool>,
    origin: Vec<usize>,
    parent: Vec<usize>,
}

const NO_NODE: usize = usize::MAX;

fn reach_from(g: &WorkspaceGraph, starts: &[usize]) -> Reach {
    let n = g.nodes.len();
    let mut r = Reach {
        reached: vec![false; n],
        origin: vec![NO_NODE; n],
        parent: vec![NO_NODE; n],
    };
    let mut queue = VecDeque::new();
    for &s in starts {
        if !r.reached[s] {
            r.reached[s] = true;
            r.origin[s] = s;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &ei in &g.adj[u] {
            let v = g.edges[ei].to;
            if !r.reached[v] {
                r.reached[v] = true;
                r.origin[v] = r.origin[u];
                r.parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    r
}

/// ` (call path: a -> b -> c)` from the BFS entry down to `v`, or empty
/// when `v` is itself the entry.
fn call_path(g: &WorkspaceGraph, r: &Reach, v: usize) -> String {
    if r.parent[v] == NO_NODE {
        return String::new();
    }
    let mut chain = vec![v];
    let mut cur = v;
    while r.parent[cur] != NO_NODE {
        cur = r.parent[cur];
        chain.push(cur);
    }
    chain.reverse();
    let names: Vec<&str> = chain.iter().map(|&i| g.nodes[i].fqn.as_str()).collect();
    format!(" (call path: {})", names.join(" -> "))
}

fn graph_diag(
    g: &WorkspaceGraph,
    node: usize,
    tok: usize,
    lint: Lint,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let ctx = &g.files[g.nodes[node].file].ctx;
    if !ctx.allowed(lint, tok) {
        out.push(Diagnostic {
            path: ctx.path.clone(),
            line: ctx.code[tok].line,
            lint,
            message,
        });
    }
}

/// QL007: panic sites transitively reachable from public library API.
/// Entries are `pub` fns outside bins/tests whose declaration line carries
/// no QL007 waiver; sites are the QL003 token patterns (QL003's own
/// waivers deliberately don't transfer — see the module docs).
fn ql007_panic_reachability(g: &WorkspaceGraph, out: &mut Vec<Diagnostic>) {
    let entries: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            let ctx = &g.files[n.file].ctx;
            n.vis == Vis::Pub
                && !ctx.is_bin()
                && !ctx.in_test(n.decl)
                && !ctx.allowed(Lint::Ql007, n.decl)
        })
        .map(|(i, _)| i)
        .collect();
    let r = reach_from(g, &entries);
    for (i, n) in g.nodes.iter().enumerate() {
        if !r.reached[i] || g.files[n.file].ctx.is_bin() {
            continue;
        }
        for site in &n.panic_sites {
            graph_diag(
                g,
                i,
                site.tok,
                Lint::Ql007,
                format!(
                    "`{}` can panic and is reachable from public API `{}`{}; thread a \
                     typed error to the entry or waive QL007 at this site or the \
                     entry `fn`",
                    site.what,
                    g.nodes[r.origin[i]].fqn,
                    call_path(g, &r, i)
                ),
                out,
            );
        }
    }
}

/// QL008: hash-order iteration sites inside functions that a fingerprint-
/// or price-producing function (module segment `fingerprint` or `engine`)
/// transitively calls.
fn ql008_determinism_taint(g: &WorkspaceGraph, out: &mut Vec<Diagnostic>) {
    let sinks: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            let ctx = &g.files[n.file].ctx;
            (n.in_module(&g.files, "fingerprint") || n.in_module(&g.files, "engine"))
                && !ctx.in_test(n.decl)
                && !ctx.allowed(Lint::Ql008, n.decl)
        })
        .map(|(i, _)| i)
        .collect();
    let r = reach_from(g, &sinks);
    for (i, n) in g.nodes.iter().enumerate() {
        if !r.reached[i] {
            continue;
        }
        for site in &n.hash_sites {
            graph_diag(
                g,
                i,
                site.tok,
                Lint::Ql008,
                format!(
                    "`{}` iterates in per-process hash order and can taint the \
                     deterministic output of `{}`{}; iterate a BTreeMap or sorted Vec",
                    site.what,
                    g.nodes[r.origin[i]].fqn,
                    call_path(g, &r, i)
                ),
                out,
            );
        }
    }
}

/// QL009: broker mutation sites reachable from a commit entry point with
/// no `ledger.append` earlier on the path. An edge is *protected* (not
/// walked) when the caller appends before making the call; a mutation
/// site is *covered* when its own body appends earlier.
fn ql009_wal_discipline(g: &WorkspaceGraph, out: &mut Vec<Diagnostic>) {
    let entries: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            let ctx = &g.files[n.file].ctx;
            let name = g.files[n.file].parsed.items[n.item].name.as_str();
            (n.in_module(&g.files, "broker")
                || n.krate == "server"
                || n.in_module(&g.files, "server"))
                && n.vis == Vis::Pub
                && (name == "buy" || name.starts_with("commit"))
                && !ctx.is_bin()
                && !ctx.in_test(n.decl)
                && !ctx.allowed(Lint::Ql009, n.decl)
        })
        .map(|(i, _)| i)
        .collect();
    // BFS over unprotected edges only: once a caller has appended, every
    // callee after that call inherits the WAL entry.
    let n = g.nodes.len();
    let mut r = Reach {
        reached: vec![false; n],
        origin: vec![NO_NODE; n],
        parent: vec![NO_NODE; n],
    };
    let mut queue = VecDeque::new();
    for &s in &entries {
        if !r.reached[s] {
            r.reached[s] = true;
            r.origin[s] = s;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &ei in &g.adj[u] {
            let e = g.edges[ei];
            let protected = g.nodes[u].append_sites.iter().any(|&a| a < e.call_tok);
            if protected || r.reached[e.to] {
                continue;
            }
            r.reached[e.to] = true;
            r.origin[e.to] = r.origin[u];
            r.parent[e.to] = u;
            queue.push_back(e.to);
        }
    }
    for (i, node) in g.nodes.iter().enumerate() {
        if !r.reached[i] {
            continue;
        }
        for site in &node.mutation_sites {
            if node.append_sites.iter().any(|&a| a < site.tok) {
                continue;
            }
            graph_diag(
                g,
                i,
                site.tok,
                Lint::Ql009,
                format!(
                    "broker state mutation `{}` executes with no preceding \
                     `ledger.append` on the path from commit entry `{}`{}; log the \
                     event before applying it (append-then-apply)",
                    site.what,
                    g.nodes[r.origin[i]].fqn,
                    call_path(g, &r, i)
                ),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        lint_file(&FileContext::new("crates/demo/src/lib.rs", src))
    }

    fn codes(src: &str) -> Vec<&'static str> {
        run(src).iter().map(|d| d.lint.code()).collect()
    }

    #[test]
    fn ql001_flags_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\nfn f() {\n  let mut m: HashMap<u32, f64> = HashMap::new();\n  m.insert(1, 2.0);\n  let _ = m.get(&1);\n  for (k, v) in m.iter() { sink(k, v); }\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, Lint::Ql001);
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn ql001_flags_for_loop_over_map() {
        let src = "fn f(m2: HashMap<u32, u32>) {\n  for x in &m2 { sink(x); }\n}\n";
        // `m2 : HashMap` in the signature marks the name.
        assert_eq!(codes(src), vec!["QL001"]);
    }

    #[test]
    fn ql001_ignores_vec_iteration() {
        let src = "fn f(v: Vec<u32>) { for x in v.iter() { sink(x); } }\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn ql002_flags_unproven_casts_only() {
        let src = "fn f(n: i64, s: u32) -> f64 {\n  let a = n as f64;\n  let b = s as f64;\n  let c = n as u32 as f64;\n  let d = 100 as f64;\n  a + b + c + d\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn ql003_flags_library_unwrap_not_test() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { assert_eq!(super::f(Some(1)).to_string().parse::<u32>().unwrap(), 1); }\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn ql003_skips_unwrap_or_family() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn ql003_flags_panic_macros() {
        let src = "fn f() { panic!(\"boom\"); }\nfn g() { unreachable!(); }\n";
        assert_eq!(codes(src), vec!["QL003", "QL003"]);
    }

    #[test]
    fn ql004_flags_clock_and_entropy() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }\n";
        assert_eq!(codes(src), vec!["QL004", "QL004"]);
    }

    #[test]
    fn ql004_flags_unstable_hashers() {
        let src = "use std::collections::hash_map::DefaultHasher;\nfn f() -> u64 {\n  let mut h = DefaultHasher::new();\n  7u64.hash(&mut h);\n  h.finish()\n}\nfn g() { let s = RandomState::new(); sink(s); }\n";
        // The `use` line and the construction site both flag (line 1, 3, 7).
        assert_eq!(codes(src), vec!["QL004", "QL004", "QL004"]);
    }

    #[test]
    fn ql004_hasher_waivable_and_test_exempt() {
        let src = "fn f() -> u64 {\n  // qirana-lint::allow(QL004): transient in-process memo, never persisted\n  let h = DefaultHasher::new();\n  h.finish()\n}\n#[cfg(test)]\nmod tests {\n  fn t() { let _ = DefaultHasher::new(); }\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn ql005_flags_direct_writes_in_lib_code() {
        let src = "use std::fs::{self, File};\nfn f() {\n  fs::write(\"out.bin\", b\"x\").ok();\n  let _ = File::create(\"log.txt\");\n  let _ = File::create_new(\"log2.txt\");\n}\n";
        assert_eq!(codes(src), vec!["QL005", "QL005", "QL005"]);
    }

    #[test]
    fn ql005_exempts_ledger_module_bins_and_tests() {
        let src = "fn f() { std::fs::write(\"wal\", b\"x\").ok(); }\n";
        let ledger = lint_file(&FileContext::new("crates/core/src/ledger.rs", src));
        assert!(ledger.is_empty(), "{ledger:?}");
        let bin = lint_file(&FileContext::new("crates/bench/src/bin/fig2.rs", src));
        assert!(bin.is_empty(), "{bin:?}");
        let test_src =
            "#[cfg(test)]\nmod tests {\n  fn t() { std::fs::write(\"t\", b\"x\").ok(); }\n}\n";
        assert!(codes(test_src).is_empty());
    }

    #[test]
    fn ql005_ignores_unrelated_create_and_write() {
        let src = "fn f(v: &mut Vec<u8>, w: &mut dyn std::io::Write) {\n  Builder::create(v);\n  w.write(b\"in-memory\").ok();\n  writer.write(buf).ok();\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn ql006_flags_prints_in_lib_code() {
        let src = "fn f(x: u32) -> u32 {\n  println!(\"x = {x}\");\n  eprintln!(\"warn\");\n  dbg!(x)\n}\n";
        assert_eq!(codes(src), vec!["QL006", "QL006", "QL006"]);
    }

    #[test]
    fn ql006_exempts_telemetry_module_bins_and_tests() {
        let src = "fn f() { println!(\"report\"); }\n";
        let tel = lint_file(&FileContext::new("crates/core/src/telemetry.rs", src));
        assert!(tel.is_empty(), "{tel:?}");
        let bin = lint_file(&FileContext::new("crates/bench/src/bin/fig2.rs", src));
        assert!(bin.is_empty(), "{bin:?}");
        let test_src = "#[cfg(test)]\nmod tests {\n  fn t() { println!(\"debug\"); }\n}\n";
        assert!(codes(test_src).is_empty());
    }

    #[test]
    fn ql006_ignores_method_calls_and_writeln() {
        let src = "fn f(w: &mut String, obj: &T) {\n  writeln!(w, \"ok\").ok();\n  obj.dbg!();\n  let println = 1;\n  sink(println);\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn allow_annotation_waives_with_reason() {
        let src = "fn f(x: Option<u32>) -> u32 {\n  // qirana-lint::allow(QL003): x is Some by construction of f's caller\n  x.unwrap()\n}\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn doc_comment_examples_do_not_fire() {
        let src = "/// ```\n/// let x = m.iter().next().unwrap();\n/// ```\nfn f() {}\n";
        assert!(codes(src).is_empty());
    }
}
