//! Incremental (delta) support evaluation.
//!
//! Every neighborhood support instance is the base database plus exactly
//! one row/swap update, yet a sweep needs the query's *output fingerprint*
//! on each of them — which the baseline gets by re-executing the full plan
//! once per neighbor. This module executes the plan **once** on the base
//! instance, memoizes what a one-row change can move, and then fingerprints
//! *all* neighbors of a relation from **one** further execution: §4.2's
//! `upid`-widened probe. A sweep therefore costs O(relations) plan
//! executions, independent of the support size and of how many neighbors
//! are visible, and each relation a probe leaves unchanged has its
//! filtered rows and join index read once per sweep: the build, the
//! probes and the fallbacks share the sweep's scan memo
//! ([`qirana_sqlengine::SweepScans`]). With no budget set, both
//! [`crate::engine::query_fps`] and [`crate::engine::query_bits`]
//! (bit = fingerprint ≠ base) route here for SPJ/aggregate shapes over
//! neighborhood supports (DESIGN.md §9) — the paper's Algorithm 5
//! re-executes an aggregate per contributing-tuple update, the exact
//! accumulators below decide those neighbors without.
//!
//! * **Fingerprint arithmetic.** An unordered result fingerprint is
//!   `header(N, C) + Σ row_hash(r)` under wrapping `u128` addition
//!   (see [`mod@qirana_sqlengine::fingerprint`]), so a neighbor's fingerprint
//!   is the base fingerprint minus the removed rows' hashes plus the
//!   added rows' hashes, with the header adjusted for the new row count.
//!   Prices compare fingerprints, never row orders, so `ORDER BY` is
//!   transparent to the delta.
//! * **The batched probe** (`probe_batched`). Per relation with a
//!   visible neighbor, the relation is overridden with every such
//!   neighbor's `old_new_rows`, each row tagged with a trailing `upid`
//!   (`2k` for a u⁻ row of batch member `k`, `2k + 1` for a u⁺ row, so
//!   old and new ride in one execution), the widened plan runs once, and
//!   the output is bucketed by `upid`. SPJ(-shape) queries have no
//!   self-joins, `DISTINCT`, or `LIMIT`, so the output bag is the disjoint
//!   union of each tuple's contribution and a bucket is exactly the rows
//!   its member's tuples produce: `base − Σh(old) + Σh(new)`.
//! * **Aggregate accumulators.** Aggregate-shape queries memoize one
//!   group state per output row: the executor's representative row, exact
//!   subtractable accumulators (`SUM`/`AVG` are the executor's own
//!   [`SumAcc`]), and the output-row hash. The build folds the rows the
//!   base execution grouped — its input, handed back by
//!   [`qirana_sqlengine::execute_with_input`] — so the *unrolled core*
//!   (same FROM/WHERE, no grouping) never executes on the base instance;
//!   only the batched probe runs it, widened. A neighbor removes its u⁻
//!   core rows and adds its u⁺ ones, recomputing only affected groups.
//!   Guards detect the two order-dependent cases (`MIN`/`MAX` ties with
//!   mixed value representations, representative-dependent projections)
//!   and fall back to full execution for that neighbor — so the fold never
//!   depends on the order in which one `upid`'s rows arrive.
//! * **Semi-joins.** An aggregate whose `WHERE` holds top-level
//!   `[NOT] EXISTS` conjuncts ([`SemiJoin`]) also keeps, per conjunct, the
//!   inner key counts, and the rows of its stripped core (the plan without
//!   those conjuncts) by correlation value. An outer relation's probe runs
//!   the stripped core and the base counts admit its rows; an inner
//!   relation's probe yields keys, and a key whose count crosses zero moves
//!   its rows into or out of the core. Both feed the same fold.
//! * **Short circuits.** A neighbor the engine's shared visibility test
//!   ([`crate::engine::visibility`]) rules out — unreferenced relation, no
//!   *effective* change inside the query's column footprint — agrees with
//!   the base by construction and never enters a batch.
//!
//! Fallback policy: a guard trip or eval error in one neighbor's fold
//! routes that one neighbor through full plan execution (the stored
//! database read through the neighbor's row patch). **Error parity:** a batched execution that errs routes
//! *every* member of that batch there — full execution reproduces the
//! error for the neighbor that owns it and answers the healthy ones
//! exactly — so the delta path can never invent or suppress a result the
//! full-execution path wouldn't produce, and a batch never turns one
//! neighbor's error into another's wrong fingerprint. A build-time
//! self-check reconstructs the aggregate base fingerprint from the
//! materialized state, compares it with the hash of the base output, and
//! declines ([`DeltaState::Ineligible`]) on any mismatch. The base output
//! itself leaves the build with the state: it is the query's answer, which
//! the broker returns to a buyer without executing the plan again.

use crate::engine::{bag_fp, run_plan, run_plan_with_input, EngineOptions};
use crate::naive::neighbor_fps;
use crate::normal_form::{widened, Prepared, RelShape, SemiJoin, Shape};
use crate::telemetry::{Stage, Telemetry};
use crate::update::SupportUpdate;
use qirana_sqlengine::exec::{eval_group_expr, eval_row_expr};
use qirana_sqlengine::plan::{AggSpec, Projection};
use qirana_sqlengine::{
    output_row_hash, Database, EngineError, ExecContext, Fingerprint, PExpr, QueryOutput,
    ResolvedSelect, Row, SumAcc, SweepScans, Value,
};
use std::collections::{BTreeMap, HashMap};

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

/// Materialized per-plan delta state.
// Built once per sweep and only ever borrowed, so the by-value size gap
// between the variants never moves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum DeltaState {
    /// SPJ shape: the output bag is the sum of per-tuple contributions, so
    /// the base summary and the widened plans are the whole state.
    Spj(Base),
    /// Aggregate shape: per-group accumulators over the unrolled core.
    Agg(AggDelta),
    /// The build declined (unsupported shape detail or a failed base
    /// self-check); the sweep runs per instance.
    Ineligible,
}

impl DeltaState {
    /// The plan's output fingerprint on the stored database; `None` when
    /// the build declined and the state cannot answer probes.
    pub fn base_fp(&self) -> Option<Fingerprint> {
        self.base().map(|b| b.fp)
    }

    fn base(&self) -> Option<&Base> {
        match self {
            DeltaState::Spj(base) => Some(base),
            DeltaState::Agg(d) => Some(&d.base),
            DeltaState::Ineligible => None,
        }
    }
}

/// What both shapes keep of the base execution, and what they probe with.
#[derive(Debug)]
pub struct Base {
    /// Fingerprint, row count and column count of the plan's base output.
    fp: Fingerprint,
    rows: u64,
    cols: u64,
    /// Per referenced catalog table (these shapes read no table twice, so
    /// a table is exactly one relation): the probed plan with that relation
    /// [`widened`]. The probed plan is the plan itself for SPJ shapes
    /// (`ORDER BY` included: sort keys are evaluated and can error, as in
    /// full execution) and, for aggregates,
    /// its unrolled core (same FROM/WHERE, identity projections, no
    /// grouping) — overriding the relation yields exactly the rows the
    /// batched tuples contribute. A semi-join's inner relations probe its
    /// key plan ([`SemiJoin::keys`]) instead, which yields the keys they
    /// contribute.
    probes: BTreeMap<usize, ResolvedSelect>,
}

impl Base {
    fn new(out: &QueryOutput, probes: BTreeMap<usize, ResolvedSelect>) -> Base {
        Base {
            rows: out.rows.len() as u64,
            cols: out.columns.len() as u64,
            fp: bag_fp(out),
            probes,
        }
    }

    /// The base fingerprint re-anchored on a neighbor: `rows_delta` output
    /// rows net, `removed` / `added` the hash sums of the rows that left
    /// and arrived.
    fn shifted(&self, rows_delta: i64, removed: u128, added: u128) -> Fingerprint {
        let rows = self.rows.wrapping_add(rows_delta as u64);
        Fingerprint(
            self.fp
                .0
                .wrapping_sub(header(self.rows, self.cols))
                .wrapping_add(header(rows, self.cols))
                .wrapping_sub(removed)
                .wrapping_add(added),
        )
    }
}

/// Delta state for an aggregate-shape plan.
#[derive(Debug)]
pub struct AggDelta {
    base: Base,
    /// The all-NULL core row the executor evaluates an empty global
    /// group's output on.
    null_row: Row,
    /// Global aggregate (empty GROUP BY): always exactly one output row.
    global: bool,
    group_by: Vec<PExpr>,
    specs: Vec<AggSpec>,
    /// One empty accumulator per spec: the state of a group before its
    /// first row.
    fresh: Vec<DAcc>,
    /// Raw output expressions (may mix `AggRef`s and row slots).
    out_exprs: Vec<PExpr>,
    order_exprs: Vec<PExpr>,
    /// Row slots the output expressions read — the representative row
    /// only matters through these.
    watched: Vec<usize>,
    groups: BTreeMap<Vec<Value>, GroupState>,
    /// One per `[NOT] EXISTS` conjunct; empty for a subquery-free plan.
    semi: Vec<SemiState>,
    /// With semi-joins: the core rows before them — every row of the
    /// stripped core on the base, in scan order, which the counts admit
    /// into the plan's core or keep out.
    candidates: Vec<Row>,
}

/// Base state of one semi-join conjunct ([`SemiJoin`]).
#[derive(Debug)]
struct SemiState {
    negated: bool,
    outer_slot: usize,
    /// The inner block's catalog tables.
    tables: Vec<usize>,
    /// Inner key → inner rows carrying it (NULL keys skipped: they equal
    /// no outer value).
    counts: HashMap<Value, i64>,
    /// Outer key → the candidates carrying it (NULL keys skipped: their
    /// conjunct never changes).
    by_key: HashMap<Value, Vec<usize>>,
}

impl SemiState {
    /// Whether the conjunct holds for an outer key with `count` matches.
    fn holds(&self, count: i64) -> bool {
        (count > 0) != self.negated
    }

    /// Whether the conjunct holds for `row` on the base — the executor's
    /// rule: a NULL outer key matches nothing.
    fn admits(&self, row: &[Value]) -> bool {
        let key = &row[self.outer_slot];
        let count = if key.is_null() {
            0
        } else {
            self.counts.get(key).copied().unwrap_or(0)
        };
        self.holds(count)
    }
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

/// A subtractable accumulator. `SUM`/`AVG` hold the executor's own exact
/// state ([`SumAcc`]), so their finalized value is the executor's on any
/// bag in any order; `MIN`/`MAX` keep a multiset of value classes.
#[derive(Debug, Clone)]
enum DAcc {
    Count {
        n: i64,
    },
    Sum(SumAcc),
    Avg(SumAcc),
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
            // A DISTINCT aggregate folds each value once, however many rows
            // carry it — a multiplicity the fold does not track (the shape
            // classifier routes them to Opaque anyway).
            (_, true) => None,
            (AggFunc::Count, false) => Some(DAcc::Count { n: 0 }),
            (AggFunc::Sum, false) => Some(DAcc::Sum(SumAcc::default())),
            (AggFunc::Avg, false) => Some(DAcc::Avg(SumAcc::default())),
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
            DAcc::Sum(acc) | DAcc::Avg(acc) => acc.add(&v),
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
            DAcc::Sum(acc) | DAcc::Avg(acc) => acc.sub(v),
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

    /// The aggregate's value — on the base rows, bitwise the executor's.
    fn finalize(&self) -> Value {
        match self {
            DAcc::Count { n } => Value::Int(*n),
            DAcc::Sum(acc) => acc.sum(),
            DAcc::Avg(acc) => acc.avg(),
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

    /// True when the neighbor value could depend on the (unknowable)
    /// neighbor feed order: a `MIN`/`MAX` one of whose classes mixed value
    /// representations. The caller then falls back to full execution.
    fn order_dependent(&self) -> bool {
        matches!(self, DAcc::MinMax { classes, dirty: true, .. } if !classes.is_empty())
    }
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

/// Builds delta state for a prepared query from **one** execution of its
/// plan on the base instance, and returns that execution's output with it.
/// An aggregate's state folds the execution's input rows — its unrolled
/// core — so the core never executes on its own. An aggregate with
/// semi-joins executes two more plans, neither of them the plan: its
/// stripped core for the candidates, and each inner key plan for the
/// counts (`build_semi`). Returns [`DeltaState::Ineligible`] (not an
/// error) when the shape is opaque, a shape detail is unsupported, one of
/// those extra executions errs, or a base self-check fails; errors only
/// when the base execution itself errors — exactly when every
/// full-execution path errors too.
pub fn build(
    db: &Database,
    q: &Prepared,
    tel: &Telemetry,
    scans: Option<&SweepScans<'_>>,
) -> Result<(DeltaState, QueryOutput), EngineError> {
    let ctx = ExecContext::new(db).with_scans(scans);
    let (out, core_rows) = run_plan_with_input(tel, &q.plan, &ctx)?;
    let state = match &q.shape {
        Shape::Spj(shape) => DeltaState::Spj(Base::new(
            &out,
            widen_each(&q.plan, &shape.relations).collect(),
        )),
        Shape::Agg(shape) => {
            let core = core_identity(&q.plan);
            let mut probes: BTreeMap<_, _> = widen_each(&core, &shape.relations).collect();
            for sj in &shape.semi_joins {
                probes.extend(widen_each(&sj.keys, &sj.relations));
            }
            let base = Base::new(&out, probes);
            build_semi(&ctx, tel, &core, &shape.semi_joins, &core_rows)
                .and_then(|(semi, candidates)| {
                    build_agg(&ctx, &q.plan, &core_rows, base, semi, candidates)
                })
                .map_or(DeltaState::Ineligible, DeltaState::Agg)
        }
        Shape::Opaque { .. } => DeltaState::Ineligible,
    };
    Ok((state, out))
}

/// `probed` [`widened`] by each of `relations` in turn, by catalog table.
fn widen_each<'a>(
    probed: &'a ResolvedSelect,
    relations: &'a [RelShape],
) -> impl Iterator<Item = (usize, ResolvedSelect)> + 'a {
    relations
        .iter()
        .map(|rel| (rel.table, widened(probed, rel.rel_idx)))
}

/// The unrolled core of an aggregate plan: same FROM/WHERE, identity
/// projections, no grouping — its output is the plan's input rows. Only
/// the batched probes execute it, [`widened`] by one relation. The
/// `[NOT] EXISTS` conjuncts of a semi-join plan leave it (the *stripped*
/// core, whose rows the counts then admit or not), so it is subquery-free,
/// as [`widened`] requires.
fn core_identity(plan: &ResolvedSelect) -> ResolvedSelect {
    let mut core = plan.clone();
    if let Some(f) = plan.filter.as_ref().filter(|f| f.has_subquery()) {
        let kept = f
            .clone()
            .conjuncts()
            .into_iter()
            .filter(|c| !c.has_subquery());
        core.filter = PExpr::conjoin(kept.collect());
    }
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

fn watched_vals(row: &[Value], watched: &[usize]) -> Vec<Value> {
    watched.iter().map(|&s| row[s].clone()).collect()
}

fn watched_agree(vals: &[Value], row: &[Value], watched: &[usize]) -> bool {
    watched
        .iter()
        .zip(vals)
        .all(|(&s, v)| strict_value_eq(v, &row[s]))
}

/// The semi-join state of an aggregate plan with `[NOT] EXISTS` conjuncts:
/// the stripped `core`'s rows on the base (the candidates, in scan order),
/// and per conjunct its inner key counts and the candidates by outer key.
/// The executor applies subquery conjuncts once every relation is joined,
/// and a filter keeps row order, so the plan's core rows are exactly the
/// candidates every conjunct admits, in the same order; the self-check
/// compares the two. `None` declines: an execution errs (the plan itself
/// may never have evaluated an inner block, if no row reached it) or the
/// self-check fails. Subquery-free plans execute nothing here.
fn build_semi(
    ctx: &ExecContext<'_>,
    tel: &Telemetry,
    core: &ResolvedSelect,
    joins: &[SemiJoin],
    core_rows: &[Row],
) -> Option<(Vec<SemiState>, Vec<Row>)> {
    if joins.is_empty() {
        return Some((Vec::new(), Vec::new()));
    }
    let candidates = run_plan(tel, core, ctx).ok()?.rows;
    let mut semi = Vec::with_capacity(joins.len());
    for sj in joins {
        let mut counts: HashMap<Value, i64> = HashMap::new();
        for mut row in run_plan(tel, &sj.keys, ctx).ok()?.rows {
            let key = row.pop()?;
            if !key.is_null() {
                *counts.entry(key).or_default() += 1;
            }
        }
        let mut by_key: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, row) in candidates.iter().enumerate() {
            let key = &row[sj.outer_slot];
            if !key.is_null() {
                by_key.entry(key.clone()).or_default().push(i);
            }
        }
        semi.push(SemiState {
            negated: sj.negated,
            outer_slot: sj.outer_slot,
            tables: sj.relations.iter().map(|r| r.table).collect(),
            counts,
            by_key,
        });
    }
    let admitted: Vec<&Row> = candidates
        .iter()
        .filter(|row| semi.iter().all(|s| s.admits(row)))
        .collect();
    let same = admitted.len() == core_rows.len()
        && admitted.iter().zip(core_rows).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| strict_value_eq(x, y))
        });
    same.then_some((semi, candidates))
}

/// Folds the base core rows — the plan's input rows, in the order its
/// execution read them — into per-group state. `None` declines: an
/// unsupported aggregate, an eval error the base execution did not hit, or
/// a failed self-check.
fn build_agg(
    ctx: &ExecContext<'_>,
    plan: &ResolvedSelect,
    core_rows: &[Row],
    base: Base,
    semi: Vec<SemiState>,
    candidates: Vec<Row>,
) -> Option<AggDelta> {
    let specs = plan.aggregates.clone();
    let fresh: Vec<DAcc> = specs.iter().map(DAcc::new).collect::<Option<_>>()?;

    let out_exprs: Vec<PExpr> = plan.projections.iter().map(|p| p.expr.clone()).collect();
    let order_exprs: Vec<PExpr> = plan.order_by.iter().map(|(e, _)| e.clone()).collect();
    let mut watched = Vec::new();
    for e in out_exprs.iter().chain(order_exprs.iter()) {
        e.collect_slots(&mut watched);
    }
    watched.sort_unstable();
    watched.dedup();
    let group_of = |row: &Row, synthetic| GroupState {
        first_row: row.clone(),
        watched_vals: watched_vals(row, &watched),
        watched_clean: true,
        synthetic,
        count: 0,
        accums: fresh.clone(),
        out_hash: 0,
    };

    // Fold the core rows in the executor's own scan order: representatives
    // come out identical to `run_grouped`'s.
    let group_by = plan.group_by.clone();
    let mut groups: BTreeMap<Vec<Value>, GroupState> = BTreeMap::new();
    for row in core_rows {
        let mut key = Vec::with_capacity(group_by.len());
        for g in &group_by {
            key.push(eval_row_expr(g, row, ctx).ok()?);
        }
        let st = groups.entry(key).or_insert_with(|| group_of(row, false));
        if st.watched_clean && !watched_agree(&st.watched_vals, row, &watched) {
            st.watched_clean = false;
        }
        st.count += 1;
        for (acc, spec) in st.accums.iter_mut().zip(&specs) {
            match &spec.arg {
                None => acc.add_star(),
                Some(a) => acc.add(eval_row_expr(a, row, ctx).ok()?),
            }
        }
    }
    let global = group_by.is_empty();
    let null_row = vec![Value::Null; plan.width];
    if groups.is_empty() && global {
        groups.insert(Vec::new(), group_of(&null_row, true));
    }

    // Output-row hashes + base self-check, a hash comparison: the
    // fingerprint reconstructed from the groups must equal the executed
    // output's, or the state models the plan wrongly.
    let mut sum = 0u128;
    for st in groups.values_mut() {
        let aggs: Vec<Value> = st.accums.iter().map(DAcc::finalize).collect();
        let mut out_row = Vec::with_capacity(out_exprs.len());
        for e in &out_exprs {
            out_row.push(eval_group_expr(e, &st.first_row, &aggs, ctx).ok()?);
        }
        st.out_hash = output_row_hash(&out_row);
        sum = sum.wrapping_add(st.out_hash);
    }
    if header(groups.len() as u64, base.cols).wrapping_add(sum) != base.fp.0 {
        return None;
    }

    Some(AggDelta {
        base,
        null_row,
        global,
        group_by,
        specs,
        fresh,
        out_exprs,
        order_exprs,
        watched,
        groups,
        semi,
        candidates,
    })
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// What one batch member's tuples contribute to the probed plan: the
/// output rows of its u⁻ rows and of its u⁺ rows, `upid` stripped.
type Moved = [Vec<Row>; 2];

/// One execution for every neighbor in `members` (all updating `table`):
/// the relation is overridden with each member's old and new rows, tagged
/// `2k` (u⁻) and `2k + 1` (u⁺) for member `k`, and the output is bucketed
/// by tag. `None` when the execution errs — one member's bad row fails the
/// whole batch, and which member it was is not recoverable from here.
fn run_batch(
    db: &Database,
    tel: &Telemetry,
    scans: Option<&SweepScans<'_>>,
    probe: &ResolvedSelect,
    table: usize,
    updates: &[SupportUpdate],
    members: &[usize],
) -> Option<(Vec<Moved>, u64)> {
    let mut batch: Vec<Row> = Vec::with_capacity(members.len() * 2);
    for (k, &i) in members.iter().enumerate() {
        let (old_rows, new_rows) = updates[i].old_new_rows(db);
        for (tag, rows) in [(2 * k, old_rows), (2 * k + 1, new_rows)] {
            for mut row in rows {
                row.push(Value::Int(tag as i64));
                batch.push(row);
            }
        }
    }
    let ctx = ExecContext::with_override(db, table, &batch).with_scans(scans);
    let out = run_plan(tel, probe, &ctx).ok()?;
    let rows = out.rows.len() as u64;
    let mut moved: Vec<Moved> = vec![Moved::default(); members.len()];
    for mut row in out.rows {
        let tag = usize::try_from(row.pop()?.as_i64()?).ok()?;
        moved.get_mut(tag / 2)?[tag % 2].push(row);
    }
    Some((moved, rows))
}

impl Base {
    /// `base − Σh(old) + Σh(new)`: an SPJ output bag is the disjoint union
    /// of each tuple's contribution.
    fn fold_spj(&self, [removed, added]: &Moved) -> Fingerprint {
        let hashes = |rows: &[Row]| {
            rows.iter()
                .fold(0u128, |sum, r| sum.wrapping_add(output_row_hash(r)))
        };
        self.shifted(
            added.len() as i64 - removed.len() as i64,
            hashes(removed),
            hashes(added),
        )
    }
}

impl AggDelta {
    /// Recomputes the groups the moved core rows touch; `None` when a
    /// guard trips (this neighbor needs full execution). Nothing here
    /// depends on the order of `removed` or of `added`: exact sums and
    /// class counts commute, and a result that would depend on which row
    /// came first (a differing representative, a mixed-representation
    /// `MIN`/`MAX` class) is a tripped guard.
    fn fold(&self, ctx: &ExecContext<'_>, moved: &Moved) -> Option<Fingerprint> {
        // Group the moved core rows by key, `[u⁻ rows, u⁺ rows]` each; any
        // eval error → fallback (full execution reproduces genuine errors).
        let mut touched: BTreeMap<Vec<Value>, [Vec<&Row>; 2]> = BTreeMap::new();
        for (sign, rows) in moved.iter().enumerate() {
            for row in rows {
                let mut key = Vec::with_capacity(self.group_by.len());
                for g in &self.group_by {
                    key.push(eval_row_expr(g, row, ctx).ok()?);
                }
                touched.entry(key).or_default()[sign].push(row);
            }
        }

        let mut d_sub = 0u128;
        let mut d_add = 0u128;
        let mut d_rows = 0i64;
        for (key, [rem, add]) in &touched {
            let base_g = self.groups.get(key).filter(|g| !g.synthetic);
            if !rem.is_empty() && base_g.is_none() {
                return None; // inconsistent with base
            }
            if base_g.is_some_and(|g| !g.watched_clean) {
                return None;
            }
            let (mut count, mut accums, mut rep, mut rep_watched) = match base_g {
                Some(g) => (
                    g.count,
                    g.accums.clone(),
                    Some(&g.first_row),
                    g.watched_vals.clone(),
                ),
                None => (0, self.fresh.clone(), None, Vec::new()),
            };
            if (count as usize) < rem.len() {
                return None;
            }
            for row in rem {
                count -= 1;
                for (acc, spec) in accums.iter_mut().zip(&self.specs) {
                    match &spec.arg {
                        None => acc.sub_star(),
                        Some(a) => acc.sub(&eval_row_expr(a, row, ctx).ok()?),
                    }
                }
            }
            for &row in add {
                count += 1;
                match rep {
                    // A new member whose watched slots differ could become
                    // the neighbor's representative — only a bitwise-
                    // agreeing member is provably invisible.
                    Some(_) => {
                        if !watched_agree(&rep_watched, row, &self.watched) {
                            return None;
                        }
                    }
                    None => {
                        rep = Some(row);
                        rep_watched = watched_vals(row, &self.watched);
                    }
                }
                for (acc, spec) in accums.iter_mut().zip(&self.specs) {
                    match &spec.arg {
                        None => acc.add_star(),
                        Some(a) => acc.add(eval_row_expr(a, row, ctx).ok()?),
                    }
                }
            }
            // Base output row disappears (the synthesized empty global
            // group's too)…
            if let Some(g) = self.groups.get(key) {
                d_sub = d_sub.wrapping_add(g.out_hash);
                d_rows -= 1;
            }
            // …and the recomputed one appears (unless the keyed group died).
            if count > 0 || self.global {
                let rep_row: &[Value] = if count == 0 {
                    &self.null_row // empty global group: the executor synthesizes
                } else {
                    rep?
                };
                if accums.iter().any(DAcc::order_dependent) {
                    return None;
                }
                let aggs: Vec<Value> = accums.iter().map(DAcc::finalize).collect();
                let mut out_row = Vec::with_capacity(self.out_exprs.len());
                for e in &self.out_exprs {
                    out_row.push(eval_group_expr(e, rep_row, &aggs, ctx).ok()?);
                }
                for e in &self.order_exprs {
                    eval_group_expr(e, rep_row, &aggs, ctx).ok()?;
                }
                d_add = d_add.wrapping_add(output_row_hash(&out_row));
                d_rows += 1;
            }
        }
        Some(self.base.shifted(d_rows, d_sub, d_add))
    }

    /// [`AggDelta::fold`] for one batch member of `table`'s probe. Without
    /// semi-joins the probe's rows are core rows. With them, an outer
    /// relation's probe yields candidate rows, of which the base counts
    /// admit the core's; an inner relation's yields the member's old and
    /// new inner keys ([`AggDelta::flipped`]).
    fn fold_table(
        &self,
        ctx: &ExecContext<'_>,
        table: usize,
        moved: &Moved,
    ) -> Option<Fingerprint> {
        if self.semi.is_empty() {
            return self.fold(ctx, moved);
        }
        match self.semi.iter().position(|s| s.tables.contains(&table)) {
            None => {
                let admitted = |rows: &[Row]| -> Vec<Row> {
                    rows.iter()
                        .filter(|row| self.semi.iter().all(|s| s.admits(row)))
                        .cloned()
                        .collect()
                };
                self.fold(ctx, &[admitted(&moved[0]), admitted(&moved[1])])
            }
            Some(j) => self.fold(ctx, &self.flipped(j, moved)?),
        }
    }

    /// The core rows an inner neighbor of semi-join `j` moves: its old keys
    /// leave the counts and its new keys arrive, and every key whose
    /// conjunct flips takes its candidates — those the other conjuncts
    /// admit — out of the core or into it. The outer relations are
    /// untouched (no table is read twice), so the candidates and the other
    /// conjuncts' counts are the base's. `None` when the old keys are not
    /// the base's (a count would go negative).
    fn flipped(&self, j: usize, [old, new]: &Moved) -> Option<Moved> {
        let s = &self.semi[j];
        let mut shift: BTreeMap<&Value, i64> = BTreeMap::new();
        for (rows, d) in [(old, -1), (new, 1)] {
            for row in rows {
                let key = row.first()?;
                if !key.is_null() {
                    *shift.entry(key).or_default() += d;
                }
            }
        }
        let mut moved = Moved::default();
        for (key, d) in shift {
            let before = s.counts.get(key).copied().unwrap_or(0);
            let after = before + d;
            if after < 0 {
                return None;
            }
            if s.holds(before) == s.holds(after) {
                continue;
            }
            let side = usize::from(s.holds(after));
            for &i in s.by_key.get(key).into_iter().flatten() {
                let row = &self.candidates[i];
                let others = self.semi.iter().enumerate();
                if others.filter(|&(k, _)| k != j).all(|(_, o)| o.admits(row)) {
                    moved[side].push(row.clone());
                }
            }
        }
        Some(moved)
    }
}

/// The batched delta fold: the fingerprint of every neighbor
/// `updates[live[j]]` — each visible to the query — or `None` where that
/// neighbor needs full execution, plus the number of plan executions
/// issued: one per relation with a live neighbor, however many there are.
///
/// Error parity: a batch that errs sends *all* its members to full
/// execution (which reproduces or resolves the error per neighbor), and a
/// member's answer is folded from the rows carrying its own `upid` alone,
/// so one neighbor's bad row can cost the others time, never correctness.
pub(crate) fn probe_batched(
    db: &Database,
    tel: &Telemetry,
    scans: Option<&SweepScans<'_>>,
    state: &DeltaState,
    updates: &[SupportUpdate],
    live: &[usize],
) -> (Vec<Option<Fingerprint>>, Batches) {
    // Positions into `live`, per updated table, in table order.
    let mut by_table: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (pos, &i) in live.iter().enumerate() {
        by_table.entry(updates[i].table()).or_default().push(pos);
    }
    let ctx = ExecContext::new(db);
    let mut fps = vec![None; live.len()];
    let mut batches = Batches::default();
    for (table, positions) in by_table {
        // SPJ/aggregate shapes read no table twice, so a table is one
        // relation; a visible update always hits one.
        let Some(probe) = state.base().and_then(|b| b.probes.get(&table)) else {
            continue;
        };
        let members: Vec<usize> = positions.iter().map(|&pos| live[pos]).collect();
        batches.execs += 1;
        let span = tel.is_enabled().then(|| {
            let name = &db.table_at(table).schema.name;
            tel.span_with(Stage::DeltaBatch, format!("{name}:{}", members.len()))
        });
        let batch = run_batch(db, tel, scans, probe, table, updates, &members);
        let Some((moved, rows)) = batch else {
            continue;
        };
        batches.rows += rows;
        if let Some(span) = &span {
            span.count("rows", rows);
        }
        for (pos, moved) in positions.into_iter().zip(&moved) {
            fps[pos] = match state {
                DeltaState::Spj(base) => Some(base.fold_spj(moved)),
                DeltaState::Agg(d) => d.fold_table(&ctx, table, moved),
                DeltaState::Ineligible => None,
            };
        }
    }
    (fps, batches)
}

/// What the batched probes of one sweep executed: one plan execution per
/// batch, and the rows those executions produced.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Batches {
    pub(crate) execs: u64,
    pub(crate) rows: u64,
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
    /// Plan executions the batched probes issued (fallbacks excluded).
    pub execs: u64,
    /// Rows those executions produced, every member's u⁻ and u⁺ rows.
    pub rows: u64,
}

/// Per-neighbor output fingerprints through the delta path (the
/// incremental counterpart of [`crate::naive::neighbor_fps`]): the base
/// fingerprint where the update is invisible, the batched delta fold
/// elsewhere, and full plan execution under the neighbor's row patch for
/// any neighbor the fold declines.
pub(crate) fn query_fps_nbrs(
    db: &Database,
    q: &Prepared,
    state: &DeltaState,
    updates: &[SupportUpdate],
    visible: &[bool],
    opts: &EngineOptions,
    scans: Option<&SweepScans<'_>>,
) -> Result<(Vec<Fingerprint>, ProbeStats), EngineError> {
    let Some(base) = state.base_fp() else {
        return Err(EngineError::Eval("delta probe on ineligible state".into()));
    };
    let n = updates.len();
    let live: Vec<usize> = (0..n).filter(|&i| visible[i]).collect();
    let (probed, batches) = probe_batched(db, &opts.telemetry, scans, state, updates, &live);
    let mut fps = vec![base; n];
    let mut fallbacks = Vec::new();
    for (&i, fp) in live.iter().zip(probed) {
        match fp {
            Some(fp) => fps[i] = fp,
            None => fallbacks.push(i),
        }
    }
    // Only the fallbacks execute in full.
    let full = neighbor_fps(db, &q.plan, updates, &fallbacks, opts, scans)?;
    for (&i, fp) in fallbacks.iter().zip(full) {
        fps[i] = fp;
    }
    let stats = ProbeStats {
        probes: n as u64,
        short_circuits: (n - live.len()) as u64,
        fallbacks: fallbacks.len() as u64,
        execs: batches.execs,
        rows: batches.rows,
    };
    Ok((fps, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{query_fps, visibility};
    use crate::normal_form::prepare_query;
    use crate::support::{generate_support, SupportConfig, SupportSet};
    use qirana_sqlengine::{execute, ColumnDef, DataType, TableSchema};

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
        database: Database,
        sql: &str,
        updates: Vec<SupportUpdate>,
    ) -> (Vec<Fingerprint>, ProbeStats) {
        let q = prepare_query(&database, sql).unwrap();
        let (state, _) = build(&database, &q, &Telemetry::disabled(), None).unwrap();
        assert!(state.base_fp().is_some(), "delta build declined for {sql}");
        let support = SupportSet::Neighborhood(updates);
        let SupportSet::Neighborhood(updates) = &support else {
            unreachable!()
        };
        let visible = visibility(&database, &q, &support);
        let opts = EngineOptions::default();
        let (fps, stats) =
            query_fps_nbrs(&database, &q, &state, updates, &visible, &opts, None).unwrap();
        let naive_fps = query_fps(&database, &q, &support, &EngineOptions::naive()).unwrap();
        assert_eq!(fps, naive_fps, "fps diverged for {sql}");
        (fps, stats)
    }

    fn assert_delta_matches_naive(sql: &str) {
        let database = db();
        let updates = support(&database, 160);
        probe_checked(database, sql, updates);
    }

    #[test]
    fn spj_single_table_matches_naive() {
        assert_delta_matches_naive("select v from T where grp = 'a'");
        assert_delta_matches_naive("select id, grp from T where v > 7");
        assert_delta_matches_naive("select * from T");
    }

    #[test]
    fn spj_join_matches_naive() {
        assert_delta_matches_naive("select T.grp, U.w from T, U where T.id = U.t_id and U.w > 2");
        assert_delta_matches_naive("select T.v from T join U on T.id = U.t_id where T.grp = 'b'");
    }

    #[test]
    fn agg_matches_naive() {
        assert_delta_matches_naive("select grp, count(*), sum(v) from T group by grp");
        assert_delta_matches_naive("select grp, min(v), max(v), avg(v) from T group by grp");
        assert_delta_matches_naive("select count(*) from T where v > 5");
        assert_delta_matches_naive(
            "select T.grp, sum(U.w) from T, U where T.id = U.t_id group by T.grp",
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
        let (_, stats) = probe_checked(db(), sql, updates);
        assert_eq!(stats.probes, 10);
        assert_eq!((stats.execs, stats.fallbacks), (1, 0), "one batch for U");
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
        let (fps, stats) = probe_checked(db(), "select v from T where v > 3", updates);
        assert!(
            fps.iter().all(|fp| *fp == fps[0]),
            "all agree with the base"
        );
        assert_eq!(stats.short_circuits, 6);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.execs, 0, "no live neighbor, no execution");
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
        let (_, stats) = probe_checked(db(), "select v from T where v < 9", updates);
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
        let (_, stats) = probe_checked(database, sql, vec![up]);
        assert_eq!(stats.short_circuits, 1, "declared-but-ineffective swap");
    }

    #[test]
    fn self_join_is_ineligible() {
        let database = db();
        // Self-joins break per-tuple contribution additivity; the shape
        // classifier routes them to Opaque and the build must decline.
        let q = prepare_query(&database, "select a.v from T a, T b where a.id = b.id").unwrap();
        let (state, _) = build(&database, &q, &Telemetry::disabled(), None).unwrap();
        assert!(state.base_fp().is_none());
        let opts = EngineOptions::default();
        let err = query_fps_nbrs(&database, &q, &state, &[], &[], &opts, None).unwrap_err();
        assert!(matches!(err, EngineError::Eval(_)));
    }

    /// One execution per build, whatever the shape, and its output is the
    /// plan's answer bit for bit (row order included).
    #[test]
    fn build_executes_the_plan_once_and_returns_its_output() {
        let database = db();
        for sql in [
            "select T.grp, U.w from T, U where T.id = U.t_id order by U.w",
            "select grp, count(*), avg(v) from T group by grp order by grp",
            "select count(*), sum(v) from T where v > 1000",
            "select a.v from T a, T b where a.id = b.id",
        ] {
            let q = prepare_query(&database, sql).unwrap();
            let tel = Telemetry::enabled();
            let (_, out) = build(&database, &q, &tel, None).unwrap();
            let sink = tel.sink().unwrap();
            assert_eq!(sink.counter("plan_executions_total"), 1, "{sql}");
            let alone = execute(&q.plan, &ExecContext::new(&database)).unwrap();
            assert_eq!(
                qirana_sqlengine::fingerprint(&out),
                qirana_sqlengine::fingerprint(&alone),
                "{sql}"
            );
            assert_eq!((out.columns, out.ordered), (alone.columns, alone.ordered));
        }
    }

    #[test]
    fn agg_empty_group_by_empty_input() {
        // Global aggregate over an empty filter result: the executor
        // synthesizes one all-NULL-sourced row; neighbors can create and
        // destroy real groups around it.
        let database = db();
        let updates = support(&database, 80);
        let sql = "select count(*), sum(v) from T where v > 1000";
        probe_checked(database, sql, updates);
    }

    fn row_up(table: usize, row: usize, col: usize, v: Value) -> SupportUpdate {
        SupportUpdate::Row {
            table,
            row,
            changes: vec![(col, v)],
        }
    }

    fn swap(row_a: usize, row_b: usize, cols: &[usize]) -> SupportUpdate {
        SupportUpdate::Swap {
            table: 0,
            row_a,
            row_b,
            cols: cols.to_vec(),
        }
    }

    const ADVERSARIAL_QUERIES: [&str; 4] = [
        "select grp, count(*), sum(v), min(v), max(v), avg(v) from T group by grp",
        "select T.grp, sum(U.w), count(*) from T, U where T.id = U.t_id group by T.grp",
        "select id, v from T where grp = 'a' order by v",
        "select T.grp, T.v, U.w from T, U where T.id = U.t_id",
    ];

    /// Members of one batch that overlap: the same base row updated by
    /// several neighbors (one of them twice), swaps whose rows share a
    /// group, and swaps whose rows trade groups. Every answer comes from
    /// the fold — an integer workload trips no guard.
    #[test]
    fn overlapping_batch_members_match_naive() {
        let updates = vec![
            row_up(0, 3, 2, 100.into()),
            row_up(0, 3, 2, 200.into()),
            row_up(0, 3, 2, 100.into()),
            row_up(0, 3, 1, "b".into()),
            swap(0, 3, &[2]),    // both 'a': v trades places inside one group
            swap(0, 1, &[1]),    // 'a' ↔ 'b': the rows trade groups
            swap(3, 4, &[1, 2]), // group and value move together
            row_up(1, 3, 1, 6.into()),
            row_up(1, 3, 1, 0.into()),
        ];
        for sql in ADVERSARIAL_QUERIES {
            let (_, stats) = probe_checked(db(), sql, updates.clone());
            assert_eq!(stats.fallbacks, 0, "{sql}");
            assert!(stats.execs <= 2, "{sql}: one execution per relation");
        }
    }

    /// A neighbor that empties a keyed group (its output row vanishes) and
    /// one that empties the global group (the executor synthesizes a row).
    #[test]
    fn emptied_groups_match_naive() {
        let mut database = Database::new();
        database.add_table(
            db().table_at(0).schema.clone(),
            vec![
                vec![0.into(), "x".into(), 5.into()],
                vec![1.into(), "y".into(), 6.into()],
                vec![2.into(), "y".into(), 7.into()],
            ],
        );
        let updates = vec![row_up(0, 0, 1, "y".into()), row_up(0, 0, 2, 9.into())];
        for sql in [
            "select grp, count(*), max(v) from T group by grp",
            "select count(*), sum(v), min(v) from T where v < 6",
        ] {
            let (fps, stats) = probe_checked(database.clone(), sql, updates.clone());
            assert_ne!(fps[0], fps[1], "{sql}");
            assert_eq!(stats.fallbacks, 0, "{sql}");
        }
    }

    /// Error parity. A neighbor writes a string where `v + 1` expects a
    /// number, so full execution errs on it. In an aggregate the error
    /// surfaces in that neighbor's own fold: it alone is declined, and its
    /// batch mates get exactly the fingerprints they get without it. In an
    /// SPJ plan it surfaces inside the batched execution (`ORDER BY` keys
    /// included), which declines the whole batch; the sweep then errs
    /// exactly as the reference does.
    #[test]
    fn poisoned_neighbor_never_shifts_its_batch_mates() {
        let database = db();
        let healthy = vec![
            row_up(0, 1, 2, 50.into()),
            swap(0, 1, &[1, 2]),
            row_up(0, 2, 2, 60.into()),
        ];
        let mut updates = healthy.clone();
        updates.insert(1, row_up(0, 1, 2, "boom".into()));
        let naive = EngineOptions::naive();
        let off = Telemetry::disabled();

        let q = prepare_query(&database, "select grp, sum(v + 1) from T group by grp").unwrap();
        let (state, _) = build(&database, &q, &off, None).unwrap();
        let (fps, batches) = probe_batched(&database, &off, None, &state, &updates, &[0, 1, 2, 3]);
        let alone = SupportSet::Neighborhood(healthy);
        let expect = query_fps(&database, &q, &alone, &naive).unwrap();
        assert_eq!(
            fps,
            [Some(expect[0]), None, Some(expect[1]), Some(expect[2])]
        );
        assert_eq!(batches.execs, 1);

        // The second query reads the bad cell only in its sort key (which
        // the visibility test in front of a real sweep does not count).
        for sql in ["select v + 1 from T", "select id from T order by v + 1"] {
            let q = prepare_query(&database, sql).unwrap();
            let (state, _) = build(&database, &q, &off, None).unwrap();
            let (fps, batches) =
                probe_batched(&database, &off, None, &state, &updates, &[0, 1, 2, 3]);
            assert_eq!((fps, batches.execs), (vec![None; 4], 1), "{sql}");
        }
        let q = prepare_query(&database, "select v + 1 from T").unwrap();
        let support = SupportSet::Neighborhood(updates);
        for opts in [EngineOptions::default(), naive] {
            let err = query_fps(&database, &q, &support, &opts).unwrap_err();
            assert!(matches!(err, EngineError::Eval(_)), "{err:?}");
        }
    }

    #[test]
    fn float_sums_fold_without_fallback() {
        // Float arguments whose left folds round differently by row order:
        // the exact accumulators subtract and re-add them, row updates and
        // in-group swaps alike, and still match full execution bitwise.
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
                .map(|i| {
                    let x = 0.1 * (i + 1) as f64 + [0.0, 1e16, -1e16][i as usize % 3];
                    vec![i.into(), (i % 2).into(), Value::Float(x)]
                })
                .collect::<Vec<_>>(),
        );
        let updates: Vec<SupportUpdate> = (0..160)
            .map(|i| match i % 4 {
                0 => swap(i % 10, i % 10 + 2, &[2]), // one group: same bag
                _ => row_up(0, i % 12, 2, Value::Float(100.5 + 0.1 * i as f64)),
            })
            .collect();
        let sql = "select g, sum(x), avg(x) from F group by g";
        let (_, stats) = probe_checked(database, sql, updates);
        assert_eq!(stats.fallbacks, 0, "float sums fold exactly");
    }

    /// `T.id` 0..19 each have one `U` row (`t_id = uid`), 20..29 none.
    const SEMI_JOINS: [&str; 2] = [
        "select grp, count(*), sum(v) from T \
         where v > 1 and exists (select 1 from U where U.t_id = T.id and U.w > 2) group by grp",
        "select grp, count(*), sum(v) from T \
         where v > 1 and not exists (select 1 from U where U.t_id = T.id and U.w > 2) group by grp",
    ];

    fn swap_u(row_a: usize, row_b: usize, cols: &[usize]) -> SupportUpdate {
        SupportUpdate::Swap {
            table: 1,
            row_a,
            row_b,
            cols: cols.to_vec(),
        }
    }

    #[test]
    fn semi_joins_match_naive() {
        for sql in SEMI_JOINS {
            let q = prepare_query(&db(), sql).unwrap();
            assert!(matches!(q.shape, Shape::Agg(_)), "{sql}");
            assert_delta_matches_naive(sql);
        }
    }

    /// Inner neighbors that move key counts across zero, each way, and a
    /// swap that moves a qualifying row from one outer key to another —
    /// all folded, none re-executed, one execution per relation.
    #[test]
    fn semi_join_counts_flip_both_ways() {
        let updates = vec![
            row_up(1, 3, 1, 25.into()), // key 3: 1 → 0, key 25: 0 → 1
            row_up(1, 4, 2, 0.into()),  // w fails the inner filter: key 4 1 → 0
            row_up(1, 5, 2, 9.into()),  // w = 2 → 9: key 5 0 → 1
            swap_u(3, 5, &[1]),         // the qualifying match moves: key 3 → key 5
            swap_u(6, 7, &[1]),         // both qualify: every count stays
            row_up(0, 3, 2, 0.into()),  // an outer row leaves `v > 1`
            row_up(0, 25, 0, 4.into()), // an outer key moves onto a matched one
        ];
        for sql in SEMI_JOINS {
            let (fps, stats) = probe_checked(db(), sql, updates.clone());
            assert_eq!(stats.fallbacks, 0, "{sql}");
            assert_eq!(stats.execs, 2, "{sql}: one execution per relation");
            assert_ne!(fps[0], fps[4], "{sql}: a flip moves the output");
        }
    }

    /// An inner neighbor writes a string where the inner filter computes
    /// `w + 1`: the inner batch's execution errs, so every member of it
    /// falls back, while the outer batch folds as usual. Full execution
    /// then errs on that neighbor under every strategy alike.
    #[test]
    fn a_poisoned_inner_neighbor_sends_its_batch_to_full_execution() {
        let database = db();
        let sql = "select grp, count(*) from T \
                   where exists (select 1 from U where U.t_id = T.id and U.w + 1 > 3) group by grp";
        let q = prepare_query(&database, sql).unwrap();
        let off = Telemetry::disabled();
        let (state, _) = build(&database, &q, &off, None).unwrap();
        let updates = vec![
            row_up(0, 2, 2, 50.into()),
            row_up(1, 3, 1, 25.into()),
            row_up(1, 4, 2, "boom".into()),
            row_up(1, 5, 2, 9.into()),
        ];
        let (fps, batches) = probe_batched(&database, &off, None, &state, &updates, &[0, 1, 2, 3]);
        let alone = SupportSet::Neighborhood(updates[..1].to_vec());
        let expect = query_fps(&database, &q, &alone, &EngineOptions::naive()).unwrap();
        assert_eq!(
            (fps, batches.execs),
            (vec![Some(expect[0]), None, None, None], 2)
        );
        let support = SupportSet::Neighborhood(updates);
        for opts in [EngineOptions::default(), EngineOptions::naive()] {
            let err = query_fps(&database, &q, &support, &opts).unwrap_err();
            assert!(matches!(err, EngineError::Eval(_)), "{err:?}");
        }
    }

    /// No outer row reaches the `EXISTS`, so the plan never runs its inner
    /// block, which errs on the base: the plan succeeds, the build
    /// declines, and the sweep prices per instance — as `Naive` does.
    #[test]
    fn an_inner_block_that_errs_on_the_base_declines_the_build() {
        let database = db();
        let sql = "select count(*) from T \
                   where v > 1000 and exists (select 1 from U where U.t_id = T.id and U.w + 'x' > 0)";
        let q = prepare_query(&database, sql).unwrap();
        assert!(matches!(q.shape, Shape::Agg(_)));
        let (state, _) = build(&database, &q, &Telemetry::disabled(), None).unwrap();
        assert!(state.base_fp().is_none(), "the build must decline");
        let support = SupportSet::Neighborhood(support(&database, 40));
        let naive = query_fps(&database, &q, &support, &EngineOptions::naive());
        let auto = query_fps(&database, &q, &support, &EngineOptions::default());
        assert_eq!(auto.is_ok(), naive.is_ok());
        if let (Ok(auto), Ok(naive)) = (auto, naive) {
            assert_eq!(auto, naive);
        }
    }
}
