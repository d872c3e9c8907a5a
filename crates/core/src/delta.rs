//! Incremental (delta) support evaluation for the entropy family.
//!
//! Every neighborhood support instance is the base database plus exactly
//! one row/swap update, yet an entropy sweep needs the query's *output
//! fingerprint* on each of them — which the baseline gets by re-executing
//! the full plan once per neighbor. This module executes the plan **once**
//! on the base instance, materializes per-operator intermediate state, and
//! then fingerprints each neighbor as a *delta* against the memoized base.
//! [`crate::engine::query_fps`] routes here for SPJ/aggregate shapes over
//! neighborhood supports with no budget set; coverage sweeps never do
//! (§4's batched checks answer the one-bit question cheaper — DESIGN.md §9
//! has the measurements).
//!
//! * **Fingerprint arithmetic.** An unordered result fingerprint is
//!   `header(N, C) + Σ row_hash(r)` under wrapping `u128` addition
//!   (see [`qirana_sqlengine::fingerprint`]), so a neighbor's fingerprint
//!   is the base fingerprint minus the removed rows' hashes plus the
//!   added rows' hashes, with the header adjusted for the new row count.
//!   Prices compare fingerprints, never row orders, so `ORDER BY` is
//!   transparent to the delta.
//! * **SPJ contributions.** SPJ(-shape) queries have no self-joins, `
//!   DISTINCT`, or `LIMIT`, so the output bag is the disjoint union of
//!   each tuple's contribution: executing the plan with the updated
//!   relation overridden to *just* the changed tuples yields exactly the
//!   rows those tuples produce (the `naive::reduced_disagreements`
//!   override trick, turned per-neighbor). For two-relation equi-joins a
//!   prebuilt join-match index over the partner relation answers the same
//!   question without re-scanning the partner (validated at build time
//!   against the override path, falling back to it on any mismatch).
//! * **Aggregate accumulators.** Aggregate-shape queries memoize one
//!   group state per output row: the executor's representative row, exact
//!   (order-independent) accumulators with the executor's float shadows,
//!   and the output-row hash. A neighbor removes the changed tuples' core
//!   rows and adds their replacements, recomputing only affected groups.
//!   Guards detect every order-dependent case (float sums, `AVG` beyond
//!   the 2⁵³ exact-integer range, `MIN`/`MAX` ties with mixed value
//!   representations, representative-dependent projections) and fall
//!   back to full execution for that neighbor.
//! * **Short circuits.** A neighbor the engine's shared visibility test
//!   ([`crate::engine::visibility`]) rules out — unreferenced relation, no
//!   *effective* change inside the query's column footprint — agrees with
//!   the base by construction: no probe, no execution at all.
//!
//! Fallback policy: any guard trip, eval error, or modeling doubt routes
//! that one neighbor through full plan execution (apply, execute, roll
//! back), so the delta path can never invent or suppress a result the
//! full-execution path wouldn't produce. A build-time self-check
//! reconstructs the base fingerprint from the materialized state and
//! declines ([`DeltaState::Ineligible`]) on any mismatch.

use crate::engine::{bag_fp, EngineOptions, Visible};
use crate::naive::neighbor_fps;
use crate::normal_form::{Prepared, Shape};
use crate::parallel::fan_out;
use crate::update::SupportUpdate;
use qirana_sqlengine::ast::BinaryOp;
use qirana_sqlengine::exec::eval_row_expr;
use qirana_sqlengine::plan::{AggSpec, Projection};
use qirana_sqlengine::{
    execute, output_row_hash, Database, EngineError, ExecContext, Fingerprint, PExpr, PRelation,
    ResolvedSelect, Row, Value,
};
use std::collections::BTreeMap;

/// The unordered-fingerprint header term (`N ^ (C << 64)`).
fn header(rows: u64, cols: u64) -> u128 {
    rows as u128 ^ ((cols as u128) << 64)
}

/// Bitwise value identity (stricter than `sql_eq`/`total_cmp`): two values
/// are interchangeable as *expression inputs* only if they are the same
/// variant with the same bits — `Int(3)` and `Float(3.0)` compare equal
/// but `3 / 2` evaluates differently on each.
fn strict_value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Date(x), Value::Date(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// Materialized per-plan delta state, cacheable under the plan fingerprint
/// and database generation.
// Built once per plan and always held behind an `Arc`, so the by-value
// size gap between `Ineligible` and the populated variants never moves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum DeltaState {
    /// SPJ shape: per-relation contribution probes.
    Spj(SpjDelta),
    /// Aggregate shape: per-group accumulators over the unrolled core.
    Agg(AggDelta),
    /// The build declined (unsupported shape detail or a failed base
    /// self-check). Cached so the decision isn't re-derived per call.
    Ineligible,
}

impl DeltaState {
    /// True iff the state can answer probes.
    pub fn is_usable(&self) -> bool {
        !matches!(self, DeltaState::Ineligible)
    }

    fn base_fp(&self) -> Option<Fingerprint> {
        match self {
            DeltaState::Spj(d) => Some(d.base_fp),
            DeltaState::Agg(d) => Some(d.base_fp),
            DeltaState::Ineligible => None,
        }
    }
}

/// Delta state for an SPJ-shape plan.
#[derive(Debug)]
pub struct SpjDelta {
    base_fp: Fingerprint,
    base_rows: u64,
    cols: u64,
    /// Probe strategy per referenced catalog table (SPJ shapes have no
    /// self-joins, so each table maps to exactly one relation).
    rels: BTreeMap<usize, Strategy>,
}

#[derive(Debug)]
enum Strategy {
    /// Execute the plan with the relation overridden to the probed rows.
    Override,
    /// Prebuilt partner join-match index (two-relation equi-join).
    Indexed(IndexedJoin),
}

/// Join-match index for one side of a two-relation equi-join: partner rows
/// that survive the partner's local conjuncts, bucketed by the composite
/// equi-edge key — mirroring the executor's hash-join build side (NULL
/// keys never join and are skipped).
#[derive(Debug)]
struct IndexedJoin {
    self_offset: usize,
    self_arity: usize,
    partner_offset: usize,
    width: usize,
    /// Conjuncts local to the probed relation, rebased to local slots.
    self_local: Vec<PExpr>,
    /// Self-side equi-edge key expressions (local slots), conjunct order.
    self_keys: Vec<PExpr>,
    /// Partner rows passing partner-local conjuncts, by composite key.
    buckets: BTreeMap<Vec<Value>, Vec<Row>>,
    /// Non-edge, non-local conjuncts (global slots), conjunct order.
    residuals: Vec<PExpr>,
    /// Output expressions (global slots).
    projections: Vec<PExpr>,
    /// Sort-key expressions, evaluated and discarded (error parity with
    /// full execution; the bag fingerprint ignores order).
    order_by: Vec<PExpr>,
}

/// Delta state for an aggregate-shape plan.
#[derive(Debug)]
pub struct AggDelta {
    base_fp: Fingerprint,
    base_out_rows: u64,
    cols: u64,
    width: usize,
    /// Global aggregate (empty GROUP BY): always exactly one output row.
    global: bool,
    /// The unrolled core: same FROM/WHERE, identity projections, no
    /// grouping — overriding the updated relation yields exactly the core
    /// rows the changed tuples contribute.
    core: ResolvedSelect,
    group_by: Vec<PExpr>,
    specs: Vec<AggSpec>,
    /// Raw output expressions (may mix `AggRef`s and row slots).
    out_exprs: Vec<PExpr>,
    order_exprs: Vec<PExpr>,
    /// Row slots the output expressions read — the representative row
    /// only matters through these.
    watched: Vec<usize>,
    groups: BTreeMap<Vec<Value>, GroupState>,
}

#[derive(Debug, Clone)]
struct GroupState {
    /// The executor's representative (first core row of the group in base
    /// scan order — the build folds rows in the same order).
    first_row: Row,
    /// `first_row` restricted to the watched slots.
    watched_vals: Vec<Value>,
    /// True iff every base member agrees bitwise on the watched slots —
    /// then the representative choice cannot be observed.
    watched_clean: bool,
    /// The synthesized empty global group (`GROUP BY ()` over no rows).
    synthetic: bool,
    count: u64,
    accums: Vec<DAcc>,
    /// Hash of this group's base output row.
    out_hash: u128,
}

// ---------------------------------------------------------------------------
// Exact accumulators
// ---------------------------------------------------------------------------

/// A subtractable accumulator that tracks both the executor's exact base
/// value (float shadows fed in base scan order) and order-independent
/// exact forms for neighbor recomputation. `finalize_base` is bitwise the
/// executor's base result; `finalize_probe` yields a value only when the
/// neighbor result is provably order-independent.
#[derive(Debug, Clone)]
enum DAcc {
    Count {
        n: i64,
    },
    Sum {
        n_nonnull: u64,
        int: i64,
        shadow: f64,
        nonint: u64,
    },
    Avg {
        n: i64,
        int: i128,
        abs: u128,
        shadow: f64,
        nonint: u64,
    },
    MinMax {
        is_min: bool,
        /// Multiset of values by `total_cmp` class; the stored key is the
        /// first-inserted member (the executor's strict-better rule keeps
        /// exactly that member as the class representative).
        classes: BTreeMap<Value, u64>,
        /// A class received members with differing bit representations —
        /// the surviving representative then depends on feed order.
        dirty: bool,
    },
}

/// Largest integer magnitude whose running f64 sums stay exact.
const EXACT_F64_SUM: u128 = 1u128 << 53;

impl DAcc {
    fn new(spec: &AggSpec) -> Option<DAcc> {
        use qirana_sqlengine::ast::AggFunc;
        match (spec.func, spec.distinct) {
            (AggFunc::Min, _) => Some(DAcc::MinMax {
                is_min: true,
                classes: BTreeMap::new(),
                dirty: false,
            }),
            (AggFunc::Max, _) => Some(DAcc::MinMax {
                is_min: false,
                classes: BTreeMap::new(),
                dirty: false,
            }),
            // DISTINCT aggregates fold a set with float addition — order-
            // and multiplicity-sensitive in ways the delta cannot undo
            // (the shape classifier routes them to Opaque anyway).
            (_, true) => None,
            (AggFunc::Count, false) => Some(DAcc::Count { n: 0 }),
            (AggFunc::Sum, false) => Some(DAcc::Sum {
                n_nonnull: 0,
                int: 0,
                shadow: 0.0,
                nonint: 0,
            }),
            (AggFunc::Avg, false) => Some(DAcc::Avg {
                n: 0,
                int: 0,
                abs: 0,
                shadow: 0.0,
                nonint: 0,
            }),
        }
    }

    /// Feeds one `COUNT(*)` row.
    fn add_star(&mut self) {
        if let DAcc::Count { n } = self {
            *n += 1;
        }
    }

    fn sub_star(&mut self) {
        if let DAcc::Count { n } = self {
            *n -= 1;
        }
    }

    /// Feeds one argument value (NULLs skipped, per SQL semantics).
    fn add(&mut self, v: Value) {
        if matches!(v, Value::Null) {
            return;
        }
        match self {
            DAcc::Count { n } => *n += 1,
            DAcc::Sum {
                n_nonnull,
                int,
                shadow,
                nonint,
            } => {
                *n_nonnull += 1;
                match v {
                    Value::Int(x) => {
                        *int = int.wrapping_add(x);
                        // qirana-lint::allow(QL002): executor shadow-sum
                        *shadow += x as f64; // replica, bit-exact by design
                    }
                    other => {
                        *nonint += 1;
                        *shadow += other.as_f64().unwrap_or(0.0);
                    }
                }
            }
            DAcc::Avg {
                n,
                int,
                abs,
                shadow,
                nonint,
            } => {
                *n += 1;
                *shadow += v.as_f64().unwrap_or(0.0);
                match v {
                    Value::Int(x) => {
                        *int += x as i128;
                        *abs += (x as i128).unsigned_abs();
                    }
                    _ => *nonint += 1,
                }
            }
            DAcc::MinMax { classes, dirty, .. } => {
                if let Some((rep, _)) = classes.get_key_value(&v) {
                    if !strict_value_eq(rep, &v) {
                        *dirty = true;
                    }
                    if let Some(c) = classes.get_mut(&v) {
                        *c += 1;
                    }
                } else {
                    classes.insert(v, 1);
                }
            }
        }
    }

    /// Removes one previously fed argument value.
    fn sub(&mut self, v: &Value) {
        if matches!(v, Value::Null) {
            return;
        }
        match self {
            DAcc::Count { n } => *n -= 1,
            DAcc::Sum {
                n_nonnull,
                int,
                nonint,
                ..
            } => {
                *n_nonnull = n_nonnull.saturating_sub(1);
                match v {
                    Value::Int(x) => *int = int.wrapping_sub(*x),
                    _ => *nonint = nonint.saturating_sub(1),
                }
            }
            DAcc::Avg {
                n,
                int,
                abs,
                nonint,
                ..
            } => {
                *n -= 1;
                match v {
                    Value::Int(x) => {
                        *int -= *x as i128;
                        *abs = abs.saturating_sub((*x as i128).unsigned_abs());
                    }
                    _ => *nonint = nonint.saturating_sub(1),
                }
            }
            DAcc::MinMax { classes, dirty, .. } => match classes.get_key_value(v) {
                Some((rep, _)) => {
                    if !strict_value_eq(rep, v) {
                        *dirty = true;
                    }
                    if let Some(c) = classes.get_mut(v) {
                        *c -= 1;
                        if *c == 0 {
                            classes.remove(v);
                        }
                    }
                }
                None => *dirty = true,
            },
        }
    }

    /// The executor's base value, bitwise (float shadows were fed in the
    /// executor's own scan order).
    fn finalize_base(&self) -> Value {
        match self {
            DAcc::Count { n } => Value::Int(*n),
            DAcc::Sum {
                n_nonnull,
                int,
                shadow,
                nonint,
            } => {
                if *n_nonnull == 0 {
                    Value::Null
                } else if *nonint > 0 {
                    Value::Float(*shadow)
                } else {
                    Value::Int(*int)
                }
            }
            DAcc::Avg { n, shadow, .. } => {
                if *n == 0 {
                    Value::Null
                } else {
                    // qirana-lint::allow(QL002): executor replica — the
                    Value::Float(*shadow / *n as f64) // same cast it does
                }
            }
            DAcc::MinMax {
                is_min, classes, ..
            } => {
                let rep = if *is_min {
                    classes.first_key_value()
                } else {
                    classes.last_key_value()
                };
                rep.map(|(v, _)| v.clone()).unwrap_or(Value::Null)
            }
        }
    }

    /// The neighbor value, or `None` when the result would depend on the
    /// (unknowable) neighbor feed order → the caller falls back to full
    /// execution.
    fn finalize_probe(&self) -> Option<Value> {
        match self {
            DAcc::Count { n } => Some(Value::Int(*n)),
            DAcc::Sum {
                n_nonnull,
                int,
                nonint,
                ..
            } => {
                if *n_nonnull == 0 {
                    Some(Value::Null)
                } else if *nonint > 0 {
                    None // float accumulation is feed-order dependent
                } else {
                    Some(Value::Int(*int)) // wrapping add commutes
                }
            }
            DAcc::Avg {
                n,
                int,
                abs,
                nonint,
                ..
            } => {
                if *n == 0 {
                    Some(Value::Null)
                } else if *nonint > 0 || *abs > EXACT_F64_SUM {
                    None
                } else {
                    // All-integer with Σ|v| ≤ 2^53: every partial sum is an
                    // exactly representable integer, so the executor's f64
                    // accumulation equals `int` in any feed order.
                    // qirana-lint::allow(QL002): exactness proven above
                    Some(Value::Float(*int as f64 / *n as f64))
                }
            }
            DAcc::MinMax {
                is_min,
                classes,
                dirty,
            } => {
                if classes.is_empty() {
                    Some(Value::Null)
                } else if *dirty {
                    None // representative depends on feed order
                } else {
                    let rep = if *is_min {
                        classes.first_key_value()
                    } else {
                        classes.last_key_value()
                    };
                    rep.map(|(v, _)| v.clone())
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

/// Builds delta state for a prepared query, executing the plan once on the
/// base instance. Returns [`DeltaState::Ineligible`] (not an error) when
/// the shape is opaque, a shape detail is unsupported, or the base
/// self-check fails; errors only when the base execution itself errors —
/// exactly when every full-execution path errors too.
pub fn build(db: &Database, q: &Prepared) -> Result<DeltaState, EngineError> {
    match &q.shape {
        Shape::Spj(shape) => build_spj(db, q, &shape.relations),
        Shape::Agg(_) => build_agg(db, q),
        Shape::Opaque { .. } => Ok(DeltaState::Ineligible),
    }
}

fn build_spj(
    db: &Database,
    q: &Prepared,
    relations: &[crate::normal_form::RelShape],
) -> Result<DeltaState, EngineError> {
    let out = execute(&q.plan, &ExecContext::new(db))?;
    let base_rows = out.rows.len() as u64;
    let cols = out.columns.len() as u64;
    let base_fp = bag_fp(out);

    let mut rels = BTreeMap::new();
    for rel in relations {
        let strategy = match build_indexed(db, &q.plan, rel.rel_idx) {
            Some(ix) => {
                // Validate the index against the override path on one real
                // row before trusting it; any divergence (or error skew)
                // demotes this side to the override strategy.
                let sample = db.table_at(rel.table).rows.first().cloned();
                let valid = match sample {
                    None => true,
                    Some(r0) => {
                        let probe = [r0];
                        match (
                            indexed_contrib(db, &ix, &probe),
                            override_contrib(db, &q.plan, rel.table, &probe),
                        ) {
                            (Ok(a), Ok(b)) => a == b,
                            _ => false,
                        }
                    }
                };
                if valid {
                    Strategy::Indexed(ix)
                } else {
                    Strategy::Override
                }
            }
            None => Strategy::Override,
        };
        rels.insert(rel.table, strategy);
    }
    Ok(DeltaState::Spj(SpjDelta {
        base_fp,
        base_rows,
        cols,
        rels,
    }))
}

/// Relation bitmask of an expression — mirrors the executor's `rels_of`.
fn rels_of(e: &PExpr, plan: &ResolvedSelect) -> u64 {
    let mut slots = Vec::new();
    e.collect_slots(&mut slots);
    let mut mask = 0u64;
    for s in slots {
        if let Some(rel) = plan.offsets.iter().rposition(|&o| o <= s) {
            mask |= 1 << rel;
        }
    }
    mask
}

/// Builds the join-match index for relation `s` of a two-base-relation
/// equi-join plan, mirroring the executor's conjunct classification
/// (prefilter / equi-edge / residual) so probe results match hash-join
/// execution exactly. `None` when the plan doesn't fit the pattern.
fn build_indexed(db: &Database, plan: &ResolvedSelect, s: usize) -> Option<IndexedJoin> {
    if plan.relations.len() != 2 || s > 1 {
        return None;
    }
    let p = 1 - s;
    let (PRelation::Base { .. }, PRelation::Base { table: p_table, .. }) =
        (&plan.relations[s], &plan.relations[p])
    else {
        return None;
    };

    let mut self_local = Vec::new();
    let mut partner_local = Vec::new();
    let mut self_keys = Vec::new();
    let mut partner_keys = Vec::new();
    let mut residuals = Vec::new();
    let conjs = plan
        .filter
        .clone()
        .map(PExpr::conjuncts)
        .unwrap_or_default();
    for c in conjs {
        if c.has_subquery() {
            residuals.push(c);
            continue;
        }
        let rels = rels_of(&c, plan);
        if rels.count_ones() == 1 {
            let r = rels.trailing_zeros() as usize;
            let off = plan.offsets[r];
            let mut local = c;
            local.map_slots(&mut |sl| sl - off);
            if r == s {
                self_local.push(local);
            } else {
                partner_local.push(local);
            }
            continue;
        }
        if let PExpr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = &c
        {
            let lr = rels_of(left, plan);
            let rr = rels_of(right, plan);
            if lr.count_ones() == 1 && rr.count_ones() == 1 && lr != rr {
                let (mut se, mut pe) = if lr.trailing_zeros() as usize == s {
                    ((**left).clone(), (**right).clone())
                } else {
                    ((**right).clone(), (**left).clone())
                };
                se.map_slots(&mut |sl| sl - plan.offsets[s]);
                pe.map_slots(&mut |sl| sl - plan.offsets[p]);
                self_keys.push(se);
                partner_keys.push(pe);
                continue;
            }
        }
        residuals.push(c);
    }
    if self_keys.is_empty() {
        return None; // cartesian: the override strategy handles it
    }

    // Index the partner rows that survive the partner's local conjuncts,
    // skipping NULL keys (they never join in the executor either).
    let ctx = ExecContext::new(db);
    let mut buckets: BTreeMap<Vec<Value>, Vec<Row>> = BTreeMap::new();
    'rows: for row in &db.table_at(*p_table).rows {
        for e in &partner_local {
            if eval_row_expr(e, row, &ctx).ok()?.as_bool3() != Some(true) {
                continue 'rows;
            }
        }
        let mut key = Vec::with_capacity(partner_keys.len());
        for e in &partner_keys {
            let v = eval_row_expr(e, row, &ctx).ok()?;
            if matches!(v, Value::Null) {
                continue 'rows;
            }
            key.push(v);
        }
        buckets.entry(key).or_default().push(row.clone());
    }

    Some(IndexedJoin {
        self_offset: plan.offsets[s],
        self_arity: plan.relations[s].arity(),
        partner_offset: plan.offsets[p],
        width: plan.width,
        self_local,
        self_keys,
        buckets,
        residuals,
        projections: plan.projections.iter().map(|pr| pr.expr.clone()).collect(),
        order_by: plan.order_by.iter().map(|(e, _)| e.clone()).collect(),
    })
}

/// The unrolled core of an aggregate plan: same FROM/WHERE, identity
/// projections, no grouping — its output is the joined core rows.
fn core_identity(plan: &ResolvedSelect) -> ResolvedSelect {
    let mut core = plan.clone();
    core.grouped = false;
    core.group_by.clear();
    core.aggregates.clear();
    core.having = None;
    core.order_by.clear();
    core.limit = None;
    core.distinct = false;
    core.projections = (0..plan.width)
        .map(|sl| Projection {
            expr: PExpr::Slot(sl),
            name: format!("c{sl}"),
        })
        .collect();
    core
}

/// Replaces `AggRef`s with finalized literals so output expressions can be
/// evaluated in plain row context.
fn subst_aggs(e: &PExpr, aggs: &[Value]) -> PExpr {
    let sub = |b: &PExpr| Box::new(subst_aggs(b, aggs));
    match e {
        PExpr::AggRef(j) => PExpr::Literal(aggs.get(*j).cloned().unwrap_or(Value::Null)),
        PExpr::Literal(_)
        | PExpr::Interval { .. }
        | PExpr::Slot(_)
        | PExpr::OuterSlot { .. }
        | PExpr::InSubquery { .. }
        | PExpr::Exists { .. }
        | PExpr::ScalarSubquery(_) => e.clone(),
        PExpr::Unary { op, expr } => PExpr::Unary {
            op: *op,
            expr: sub(expr),
        },
        PExpr::Binary { left, op, right } => PExpr::Binary {
            left: sub(left),
            op: *op,
            right: sub(right),
        },
        PExpr::Like {
            expr,
            pattern,
            negated,
        } => PExpr::Like {
            expr: sub(expr),
            pattern: pattern.clone(),
            negated: *negated,
        },
        PExpr::Between {
            expr,
            low,
            high,
            negated,
        } => PExpr::Between {
            expr: sub(expr),
            low: sub(low),
            high: sub(high),
            negated: *negated,
        },
        PExpr::InList {
            expr,
            list,
            negated,
        } => PExpr::InList {
            expr: sub(expr),
            list: list.iter().map(|x| subst_aggs(x, aggs)).collect(),
            negated: *negated,
        },
        PExpr::IsNull { expr, negated } => PExpr::IsNull {
            expr: sub(expr),
            negated: *negated,
        },
        PExpr::Case {
            operand,
            branches,
            else_expr,
        } => PExpr::Case {
            operand: operand.as_ref().map(|o| sub(o)),
            branches: branches
                .iter()
                .map(|(w, t)| (subst_aggs(w, aggs), subst_aggs(t, aggs)))
                .collect(),
            else_expr: else_expr.as_ref().map(|o| sub(o)),
        },
    }
}

fn watched_vals(row: &[Value], watched: &[usize]) -> Vec<Value> {
    watched.iter().map(|&s| row[s].clone()).collect()
}

fn watched_agree(vals: &[Value], row: &[Value], watched: &[usize]) -> bool {
    watched
        .iter()
        .zip(vals)
        .all(|(&s, v)| strict_value_eq(v, &row[s]))
}

fn build_agg(db: &Database, q: &Prepared) -> Result<DeltaState, EngineError> {
    let out = execute(&q.plan, &ExecContext::new(db))?;
    let base_out_rows = out.rows.len() as u64;
    let cols = out.columns.len() as u64;
    let base_fp = bag_fp(out);

    let specs = q.plan.aggregates.clone();
    if specs.iter().any(|s| DAcc::new(s).is_none()) {
        return Ok(DeltaState::Ineligible);
    }
    let core = core_identity(&q.plan);
    let Ok(core_out) = execute(&core, &ExecContext::new(db)) else {
        return Ok(DeltaState::Ineligible);
    };

    let out_exprs: Vec<PExpr> = q.plan.projections.iter().map(|p| p.expr.clone()).collect();
    let order_exprs: Vec<PExpr> = q.plan.order_by.iter().map(|(e, _)| e.clone()).collect();
    let mut watched = Vec::new();
    for e in out_exprs.iter().chain(order_exprs.iter()) {
        e.collect_slots(&mut watched);
    }
    watched.sort_unstable();
    watched.dedup();

    // Fold the core rows in the executor's own scan order: representatives
    // and float shadows come out bitwise identical to `run_grouped`.
    let ctx = ExecContext::new(db);
    let group_by = q.plan.group_by.clone();
    let mut groups: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
    for row in &core_out.rows {
        let mut key = Vec::with_capacity(group_by.len());
        for g in &group_by {
            match eval_row_expr(g, row, &ctx) {
                Ok(v) => key.push(v),
                Err(_) => return Ok(DeltaState::Ineligible),
            }
        }
        if !groups.contains_key(&key) {
            let accums = match specs.iter().map(DAcc::new).collect::<Option<Vec<_>>>() {
                Some(a) => a,
                None => return Ok(DeltaState::Ineligible),
            };
            groups.insert(
                key.clone(),
                GroupState {
                    first_row: row.clone(),
                    watched_vals: watched_vals(row, &watched),
                    watched_clean: true,
                    synthetic: false,
                    count: 0,
                    accums,
                    out_hash: 0,
                },
            );
        }
        let Some(st) = groups.get_mut(&key) else {
            return Ok(DeltaState::Ineligible);
        };
        if st.watched_clean && !watched_agree(&st.watched_vals, row, &watched) {
            st.watched_clean = false;
        }
        st.count += 1;
        for (acc, spec) in st.accums.iter_mut().zip(&specs) {
            match &spec.arg {
                None => acc.add_star(),
                Some(a) => match eval_row_expr(a, row, &ctx) {
                    Ok(v) => acc.add(v),
                    Err(_) => return Ok(DeltaState::Ineligible),
                },
            }
        }
    }
    let global = group_by.is_empty();
    if groups.is_empty() && global {
        let accums = match specs.iter().map(DAcc::new).collect::<Option<Vec<_>>>() {
            Some(a) => a,
            None => return Ok(DeltaState::Ineligible),
        };
        let null_row = vec![Value::Null; q.plan.width];
        groups.insert(
            Vec::new(),
            GroupState {
                watched_vals: watched_vals(&null_row, &watched),
                first_row: null_row,
                watched_clean: true,
                synthetic: true,
                count: 0,
                accums,
                out_hash: 0,
            },
        );
    }

    // Output-row hashes + base self-check: the reconstructed fingerprint
    // must equal the executed one, or the state models the plan wrongly.
    let mut sum = 0u128;
    for st in groups.values_mut() {
        let aggs: Vec<Value> = st.accums.iter().map(DAcc::finalize_base).collect();
        let mut out_row = Vec::with_capacity(out_exprs.len());
        for e in &out_exprs {
            match eval_row_expr(&subst_aggs(e, &aggs), &st.first_row, &ctx) {
                Ok(v) => out_row.push(v),
                Err(_) => return Ok(DeltaState::Ineligible),
            }
        }
        st.out_hash = output_row_hash(&out_row);
        sum = sum.wrapping_add(st.out_hash);
    }
    let reconstructed = header(groups.len() as u64, cols).wrapping_add(sum);
    if Fingerprint(reconstructed) != base_fp {
        return Ok(DeltaState::Ineligible);
    }

    Ok(DeltaState::Agg(AggDelta {
        base_fp,
        base_out_rows,
        cols,
        width: q.plan.width,
        global,
        core,
        group_by,
        specs,
        out_exprs,
        order_exprs,
        watched,
        groups,
    }))
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

enum InnerProbe {
    /// Delta-computed neighbor fingerprint.
    Fp(Fingerprint),
    /// A guard tripped — this neighbor needs full execution.
    NeedFallback,
}

/// Sum of output-row hashes and row count contributed by `rows` of
/// relation `table`, via plan execution with a table override.
fn override_contrib(
    db: &Database,
    plan: &ResolvedSelect,
    table: usize,
    rows: &[Row],
) -> Result<(u128, u64), EngineError> {
    let ctx = ExecContext::with_override(db, table, rows);
    let out = execute(plan, &ctx)?;
    let mut sum = 0u128;
    for r in &out.rows {
        sum = sum.wrapping_add(output_row_hash(r));
    }
    Ok((sum, out.rows.len() as u64))
}

/// Same contribution, answered from the prebuilt join-match index.
fn indexed_contrib(
    db: &Database,
    ix: &IndexedJoin,
    rows: &[Row],
) -> Result<(u128, u64), EngineError> {
    let ctx = ExecContext::new(db);
    let mut sum = 0u128;
    let mut count = 0u64;
    let mut scratch: Row = vec![Value::Null; ix.width];
    'rows: for row in rows {
        for e in &ix.self_local {
            if eval_row_expr(e, row, &ctx)?.as_bool3() != Some(true) {
                continue 'rows;
            }
        }
        let mut key = Vec::with_capacity(ix.self_keys.len());
        for e in &ix.self_keys {
            let v = eval_row_expr(e, row, &ctx)?;
            if matches!(v, Value::Null) {
                continue 'rows;
            }
            key.push(v);
        }
        let Some(bucket) = ix.buckets.get(&key) else {
            continue;
        };
        'cands: for prow in bucket {
            scratch[ix.self_offset..ix.self_offset + ix.self_arity].clone_from_slice(row);
            scratch[ix.partner_offset..ix.partner_offset + prow.len()].clone_from_slice(prow);
            for rc in &ix.residuals {
                if eval_row_expr(rc, &scratch, &ctx)?.as_bool3() != Some(true) {
                    continue 'cands;
                }
            }
            let mut out = Vec::with_capacity(ix.projections.len());
            for p in &ix.projections {
                out.push(eval_row_expr(p, &scratch, &ctx)?);
            }
            for oe in &ix.order_by {
                eval_row_expr(oe, &scratch, &ctx)?;
            }
            sum = sum.wrapping_add(output_row_hash(&out));
            count += 1;
        }
    }
    Ok((sum, count))
}

impl SpjDelta {
    fn try_probe(&self, db: &Database, plan: &ResolvedSelect, up: &SupportUpdate) -> InnerProbe {
        let Some(strategy) = self.rels.get(&up.table()) else {
            return InnerProbe::NeedFallback; // visible updates hit a relation
        };
        let (old_rows, new_rows) = up.old_new_rows(db);
        let contrib = |rows: &[Row]| match strategy {
            Strategy::Override => override_contrib(db, plan, up.table(), rows),
            Strategy::Indexed(ix) => indexed_contrib(db, ix, rows),
        };
        match (contrib(&old_rows), contrib(&new_rows)) {
            (Ok((h_rem, k_rem)), Ok((h_add, k_add))) => {
                let n2 = self.base_rows.wrapping_sub(k_rem).wrapping_add(k_add);
                let fp = self
                    .base_fp
                    .0
                    .wrapping_sub(header(self.base_rows, self.cols))
                    .wrapping_add(header(n2, self.cols))
                    .wrapping_sub(h_rem)
                    .wrapping_add(h_add);
                InnerProbe::Fp(Fingerprint(fp))
            }
            // Full execution reproduces (or resolves) the error.
            _ => InnerProbe::NeedFallback,
        }
    }
}

impl AggDelta {
    fn try_probe(&self, db: &Database, up: &SupportUpdate) -> InnerProbe {
        let (old_rows, new_rows) = up.old_new_rows(db);
        let (Ok((removed, _)), Ok((added, _))) = (
            core_rows(db, &self.core, up.table(), &old_rows),
            core_rows(db, &self.core, up.table(), &new_rows),
        ) else {
            return InnerProbe::NeedFallback;
        };

        let ctx = ExecContext::new(db);
        // Group the moved core rows by key; any eval error → fallback
        // (full execution reproduces genuine errors).
        let mut touched: BTreeMap<Vec<Value>, (Vec<&Row>, Vec<&Row>)> = BTreeMap::new();
        for (rows, slot) in [(&removed, 0usize), (&added, 1usize)] {
            for row in rows {
                let mut key = Vec::with_capacity(self.group_by.len());
                for g in &self.group_by {
                    match eval_row_expr(g, row, &ctx) {
                        Ok(v) => key.push(v),
                        Err(_) => return InnerProbe::NeedFallback,
                    }
                }
                let e = touched.entry(key).or_default();
                if slot == 0 {
                    e.0.push(row);
                } else {
                    e.1.push(row);
                }
            }
        }

        let mut d_sub = 0u128;
        let mut d_add = 0u128;
        let mut d_rows = 0i64;
        let null_row = vec![Value::Null; self.width];
        for (key, (rem, add)) in &touched {
            let base_g = self.groups.get(key);
            let is_real = base_g.map(|g| !g.synthetic).unwrap_or(false);
            if !rem.is_empty() && !is_real {
                return InnerProbe::NeedFallback; // inconsistent with base
            }
            if let Some(g) = base_g {
                if !g.synthetic && !g.watched_clean {
                    return InnerProbe::NeedFallback;
                }
            }
            let (mut count, mut accums, mut rep, mut rep_watched) = match base_g {
                Some(g) if !g.synthetic => (
                    g.count,
                    g.accums.clone(),
                    Some(g.first_row.clone()),
                    g.watched_vals.clone(),
                ),
                _ => {
                    let Some(fresh) = self
                        .specs
                        .iter()
                        .map(DAcc::new)
                        .collect::<Option<Vec<DAcc>>>()
                    else {
                        return InnerProbe::NeedFallback;
                    };
                    (0, fresh, None, Vec::new())
                }
            };
            if (count as usize) < rem.len() {
                return InnerProbe::NeedFallback;
            }
            for row in rem {
                count -= 1;
                for (acc, spec) in accums.iter_mut().zip(&self.specs) {
                    match &spec.arg {
                        None => acc.sub_star(),
                        Some(a) => match eval_row_expr(a, row, &ctx) {
                            Ok(v) => acc.sub(&v),
                            Err(_) => return InnerProbe::NeedFallback,
                        },
                    }
                }
            }
            for row in add {
                count += 1;
                match &rep {
                    Some(_) => {
                        // A new member whose watched slots differ could
                        // become the neighbor's representative — only a
                        // bitwise-agreeing member is provably invisible.
                        if !watched_agree(&rep_watched, row, &self.watched) {
                            return InnerProbe::NeedFallback;
                        }
                    }
                    None => {
                        rep = Some((*row).clone());
                        rep_watched = watched_vals(row, &self.watched);
                    }
                }
                for (acc, spec) in accums.iter_mut().zip(&self.specs) {
                    match &spec.arg {
                        None => acc.add_star(),
                        Some(a) => match eval_row_expr(a, row, &ctx) {
                            Ok(v) => acc.add(v),
                            Err(_) => return InnerProbe::NeedFallback,
                        },
                    }
                }
            }
            // Base output row disappears…
            if let Some(g) = base_g {
                d_sub = d_sub.wrapping_add(g.out_hash);
                d_rows -= 1;
            }
            // …and the recomputed one appears (unless the keyed group died).
            if count > 0 || self.global {
                let rep_row: &[Value] = if count == 0 {
                    &null_row // empty global group: the executor synthesizes
                } else {
                    match &rep {
                        Some(r) => r,
                        None => return InnerProbe::NeedFallback,
                    }
                };
                let Some(aggs) = accums
                    .iter()
                    .map(DAcc::finalize_probe)
                    .collect::<Option<Vec<Value>>>()
                else {
                    return InnerProbe::NeedFallback;
                };
                let mut out_row = Vec::with_capacity(self.out_exprs.len());
                for e in &self.out_exprs {
                    match eval_row_expr(&subst_aggs(e, &aggs), rep_row, &ctx) {
                        Ok(v) => out_row.push(v),
                        Err(_) => return InnerProbe::NeedFallback,
                    }
                }
                for e in &self.order_exprs {
                    if eval_row_expr(&subst_aggs(e, &aggs), rep_row, &ctx).is_err() {
                        return InnerProbe::NeedFallback;
                    }
                }
                d_add = d_add.wrapping_add(output_row_hash(&out_row));
                d_rows += 1;
            }
        }

        let n2 = self.base_out_rows.wrapping_add(d_rows as u64);
        let fp = self
            .base_fp
            .0
            .wrapping_sub(header(self.base_out_rows, self.cols))
            .wrapping_add(header(n2, self.cols))
            .wrapping_sub(d_sub)
            .wrapping_add(d_add);
        InnerProbe::Fp(Fingerprint(fp))
    }
}

/// Core rows contributed by `rows` of `table` (plus the count, unused but
/// kept for symmetry with [`override_contrib`]).
fn core_rows(
    db: &Database,
    core: &ResolvedSelect,
    table: usize,
    rows: &[Row],
) -> Result<(Vec<Row>, u64), EngineError> {
    let ctx = ExecContext::with_override(db, table, rows);
    let out = execute(core, &ctx)?;
    let n = out.rows.len() as u64;
    Ok((out.rows, n))
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Per-call probe tallies, folded into telemetry counters by the engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// Neighbors answered through the delta path at all.
    pub probes: u64,
    /// Neighbors answered without any execution (invisible to the query,
    /// so they agree with the base).
    pub short_circuits: u64,
    /// Neighbors that tripped a guard and ran full execution.
    pub fallbacks: u64,
}

/// Per-neighbor output fingerprints through the delta path (the
/// incremental counterpart of [`crate::naive::neighbor_fps`]): the base
/// fingerprint where the update is invisible, a delta probe elsewhere, and
/// full plan execution — apply, execute, roll back — for any neighbor
/// whose probe trips a guard.
pub(crate) fn query_fps_nbrs(
    db: &mut Database,
    q: &Prepared,
    state: &DeltaState,
    updates: &[SupportUpdate],
    visible: &[Visible],
    opts: &EngineOptions,
) -> Result<(Vec<Fingerprint>, ProbeStats), EngineError> {
    let Some(base) = state.base_fp() else {
        return Err(EngineError::Eval("delta probe on ineligible state".into()));
    };
    let n = updates.len();
    // Probes only read (table overrides, prebuilt indexes), so pool workers
    // share the database; `None` marks a tripped guard.
    let shared: &Database = db;
    let probed = fan_out(&mut (), n, opts.parallelism, &opts.telemetry, |_, i| {
        if visible[i].is_none() {
            return Ok(Some(base));
        }
        let inner = match state {
            DeltaState::Spj(d) => d.try_probe(shared, &q.plan, &updates[i]),
            DeltaState::Agg(d) => d.try_probe(shared, &updates[i]),
            DeltaState::Ineligible => InnerProbe::NeedFallback,
        };
        Ok(match inner {
            InnerProbe::Fp(fp) => Some(fp),
            InnerProbe::NeedFallback => None,
        })
    })?;
    // Only the fallbacks write (apply / execute / undo), so replicas are
    // cloned only when there are enough of them to pay for a pool.
    let fallbacks: Vec<usize> = (0..n).filter(|&i| probed[i].is_none()).collect();
    let full = neighbor_fps(db, &q.plan, updates, &fallbacks, opts)?;
    let mut fps: Vec<Fingerprint> = probed.into_iter().map(|p| p.unwrap_or(base)).collect();
    for (&i, fp) in fallbacks.iter().zip(full) {
        fps[i] = fp;
    }
    let stats = ProbeStats {
        probes: n as u64,
        short_circuits: visible.iter().filter(|v| v.is_none()).count() as u64,
        fallbacks: fallbacks.len() as u64,
    };
    Ok((fps, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{query_fps, visibility};
    use crate::normal_form::prepare_query;
    use crate::parallel::Parallelism;
    use crate::support::{generate_support, SupportConfig, SupportSet};
    use qirana_sqlengine::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("grp", DataType::Str),
                    ColumnDef::new("v", DataType::Int),
                ],
                &["id"],
            ),
            (0..30i64)
                .map(|i| {
                    vec![
                        i.into(),
                        if i % 3 == 0 { "a" } else { "b" }.into(),
                        (i * 3 % 17).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        db.add_table(
            TableSchema::new(
                "U",
                vec![
                    ColumnDef::new("uid", DataType::Int),
                    ColumnDef::new("t_id", DataType::Int),
                    ColumnDef::new("w", DataType::Int),
                ],
                &["uid"],
            ),
            (0..20i64)
                .map(|i| vec![i.into(), (i % 30).into(), (i * 7 % 11).into()])
                .collect::<Vec<_>>(),
        );
        db
    }

    fn support(db: &Database, size: usize) -> Vec<SupportUpdate> {
        generate_support(
            db,
            &SupportConfig {
                size,
                ..Default::default()
            },
        )
    }

    /// Builds the query's delta state and probes every update through it,
    /// checking the fingerprints against per-instance execution
    /// (`Strategy::Naive`) on the way out.
    fn probe_checked(
        mut database: Database,
        sql: &str,
        updates: Vec<SupportUpdate>,
        workers: usize,
    ) -> (Vec<Fingerprint>, ProbeStats) {
        let q = prepare_query(&database, sql).unwrap();
        let state = build(&database, &q).unwrap();
        assert!(state.is_usable(), "delta build declined for {sql}");
        let support = SupportSet::Neighborhood(updates);
        let SupportSet::Neighborhood(updates) = &support else {
            unreachable!()
        };
        let visible = visibility(&database, &q, &support, &vec![true; updates.len()]);
        let opts = EngineOptions::default().with_parallelism(Parallelism::Threads(workers));
        let (fps, stats) =
            query_fps_nbrs(&mut database, &q, &state, updates, &visible, &opts).unwrap();
        let naive_fps =
            query_fps(&mut database, &q, &support, &EngineOptions::naive(), None).unwrap();
        assert_eq!(fps, naive_fps, "fps diverged for {sql}");
        (fps, stats)
    }

    fn assert_delta_matches_naive(sql: &str, workers: usize) {
        let database = db();
        let updates = support(&database, 160);
        probe_checked(database, sql, updates, workers);
    }

    #[test]
    fn spj_single_table_matches_naive() {
        assert_delta_matches_naive("select v from T where grp = 'a'", 1);
        assert_delta_matches_naive("select id, grp from T where v > 7", 1);
        assert_delta_matches_naive("select * from T", 4);
    }

    #[test]
    fn spj_join_matches_naive() {
        assert_delta_matches_naive(
            "select T.grp, U.w from T, U where T.id = U.t_id and U.w > 2",
            1,
        );
        assert_delta_matches_naive(
            "select T.v from T join U on T.id = U.t_id where T.grp = 'b'",
            4,
        );
    }

    #[test]
    fn agg_matches_naive() {
        assert_delta_matches_naive("select grp, count(*), sum(v) from T group by grp", 1);
        assert_delta_matches_naive("select grp, min(v), max(v), avg(v) from T group by grp", 1);
        assert_delta_matches_naive("select count(*) from T where v > 5", 1);
        assert_delta_matches_naive(
            "select T.grp, sum(U.w) from T, U where T.id = U.t_id group by T.grp",
            4,
        );
    }

    #[test]
    fn join_key_swaps_match_naive() {
        // Swaps that move the join key relocate rows across hash buckets —
        // the delta must still agree with full execution bitwise.
        let updates: Vec<SupportUpdate> = (0..10)
            .map(|i| SupportUpdate::Swap {
                table: 1,
                row_a: i,
                row_b: i + 10,
                cols: vec![1], // t_id: the join column
            })
            .collect();
        let sql = "select T.grp, U.w from T, U where T.id = U.t_id";
        let (_, stats) = probe_checked(db(), sql, updates, 1);
        assert_eq!(stats.probes, 10);
    }

    #[test]
    fn unreferenced_table_short_circuits() {
        let updates: Vec<SupportUpdate> = (0..6)
            .map(|i| SupportUpdate::Row {
                table: 1, // U: never referenced
                row: i,
                changes: vec![(2, Value::Int(999 + i as i64))],
            })
            .collect();
        let (fps, stats) = probe_checked(db(), "select v from T where v > 3", updates, 1);
        assert!(
            fps.iter().all(|fp| *fp == fps[0]),
            "all agree with the base"
        );
        assert_eq!(stats.short_circuits, 6);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn footprint_miss_short_circuits() {
        // The query reads only T.v; a grp update on T misses its column
        // footprint and agrees without a probe.
        let updates = vec![SupportUpdate::Row {
            table: 0,
            row: 2,
            changes: vec![(1, "z".into())], // grp: outside the footprint
        }];
        let (_, stats) = probe_checked(db(), "select v from T where v < 9", updates, 1);
        assert_eq!(stats.short_circuits, 1);
    }

    #[test]
    fn noop_swap_short_circuits_via_effective_columns() {
        let database = db();
        // Rows 0 and 3 of T share grp 'a' (0 % 3 == 3 % 3 == 0): the swap
        // declares grp changed but effectively changes nothing.
        let up = SupportUpdate::Swap {
            table: 0,
            row_a: 0,
            row_b: 3,
            cols: vec![1],
        };
        assert!(!up.is_effective(&database));
        let sql = "select grp from T where v >= 0";
        let (_, stats) = probe_checked(database, sql, vec![up], 1);
        assert_eq!(stats.short_circuits, 1, "declared-but-ineffective swap");
    }

    #[test]
    fn self_join_is_ineligible() {
        let mut database = db();
        // Self-joins break per-tuple contribution additivity; the shape
        // classifier routes them to Opaque and the build must decline.
        let q = prepare_query(&database, "select a.v from T a, T b where a.id = b.id").unwrap();
        let state = build(&database, &q).unwrap();
        assert!(!state.is_usable());
        let opts = EngineOptions::default();
        let err = query_fps_nbrs(&mut database, &q, &state, &[], &[], &opts).unwrap_err();
        assert!(matches!(err, EngineError::Eval(_)));
    }

    #[test]
    fn agg_empty_group_by_empty_input() {
        // Global aggregate over an empty filter result: the executor
        // synthesizes one all-NULL-sourced row; neighbors can create and
        // destroy real groups around it.
        let database = db();
        let updates = support(&database, 80);
        let sql = "select count(*), sum(v) from T where v > 1000";
        probe_checked(database, sql, updates, 1);
    }

    #[test]
    fn float_sums_fall_back_not_diverge() {
        // Float aggregate arguments make the executor's accumulation
        // order-dependent; affected probes must fall back to full
        // execution and still match naive bitwise.
        let mut database = Database::new();
        database.add_table(
            TableSchema::new(
                "F",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("g", DataType::Int),
                    ColumnDef::new("x", DataType::Float),
                ],
                &["id"],
            ),
            (0..12i64)
                .map(|i| vec![i.into(), (i % 2).into(), Value::Float(i as f64 + 0.25)])
                .collect::<Vec<_>>(),
        );
        let updates: Vec<SupportUpdate> = (0..8)
            .map(|i| SupportUpdate::Row {
                table: 0,
                row: i,
                changes: vec![(2, Value::Float(100.5 + i as f64))],
            })
            .collect();
        let sql = "select g, sum(x), avg(x) from F group by g";
        let (_, stats) = probe_checked(database, sql, updates, 1);
        assert_eq!(stats.fallbacks, 8, "float sums must route to fallback");
    }
}
