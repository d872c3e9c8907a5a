//! Query execution.
//!
//! A volcano-free, materializing executor: the FROM clause is evaluated with
//! greedy hash-join ordering (single-relation predicates are pushed down as
//! scan filters, equality conjuncts between two relations become hash joins,
//! everything else is a residual filter applied as soon as its relations are
//! bound), then grouping/aggregation, HAVING, projection, DISTINCT,
//! ORDER BY, and LIMIT run as bulk passes.
//!
//! Three features exist specifically for the pricing layer:
//!
//! * **Table overrides** ([`ExecContext::with_override`]): execute a plan as
//!   if relation `R` contained different rows — this is how QIRANA evaluates
//!   `Q((D ∖ R) ∪ {u⁺})` without touching the stored instance (§4.1) and how
//!   batch queries run over the synthetic `R⁺` relation (§4.2).
//! * **Row patches** ([`ExecContext::with_patch`]): execute a plan as if a
//!   few rows of `R` held other values — one support instance, a row or
//!   swap edit of the stored database (§3.1). Scans read a patched row in
//!   place of the stored one at the same index, so row order and every
//!   fingerprint are bitwise those of the edited database; unpatched
//!   tables are still borrowed, never copied.
//! * **Open plans**: the executor accepts programmatically modified
//!   [`ResolvedSelect`] values (key-augmented, unrolled, widened), and
//!   [`execute_with_input`] hands back the rows a plan's aggregates fold
//!   next to its output.
//!
//! `SUM`/`AVG` are exact ([`crate::exact`]): each is a function of its
//! group's bag of values, not of the order its rows arrive in.

use crate::ast::{AggFunc, BinaryOp, UnaryOp};
use crate::database::Database;
use crate::error::{BudgetResource, EngineError, Result};
use crate::exact::SumAcc;
use crate::expr::{binary_op, date_interval, like_match};
use crate::plan::{
    AggSpec, PExpr, PRelation, ResolvedSelect, Subquery, SubqueryKind, SubqueryMode, MAX_RELATIONS,
};
use crate::scans::{JoinIndex, ScanKey, SweepScans};
use crate::table::Row;
use crate::value::Value;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Resource limits for one execution context.
///
/// All limits are optional; the default is unlimited. The executor checks
/// them **cooperatively** at every row-materialization point (scan
/// prefilters, hash-join build and probe, cartesian products, group
/// creation, projection), so a tripped budget surfaces as
/// [`EngineError::BudgetExceeded`] within a bounded amount of extra work —
/// no partial results are returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecBudget {
    /// Wall-clock deadline, measured from [`ExecContext`] creation (or the
    /// last [`ExecContext::set_budget`] call).
    pub timeout: Option<Duration>,
    /// Cap on materialized rows (intermediate and output combined).
    pub max_rows: Option<u64>,
    /// Cap on estimated bytes of materialized row data. The estimate counts
    /// `size_of::<Value>()` per cell and ignores string heap allocations —
    /// it is a safety net against runaway intermediates, not an allocator
    /// audit.
    pub max_bytes: Option<u64>,
}

impl ExecBudget {
    /// No limits (the default).
    pub const UNLIMITED: ExecBudget = ExecBudget {
        timeout: None,
        max_rows: None,
        max_bytes: None,
    };

    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    pub fn with_max_rows(mut self, max_rows: u64) -> Self {
        self.max_rows = Some(max_rows);
        self
    }

    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// True when no limit is set (the meter fast-path).
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.max_rows.is_none() && self.max_bytes.is_none()
    }
}

/// Interior-mutable consumption meter for an [`ExecBudget`].
///
/// Cloning a context clones the meter *state*: the clone continues from the
/// parent's consumption at clone time, and the two track independently
/// afterwards.
#[derive(Debug, Clone)]
struct BudgetMeter {
    budget: ExecBudget,
    start: Instant,
    rows: Cell<u64>,
    bytes: Cell<u64>,
    /// Charge-call counter; the wall clock is only read every
    /// [`DEADLINE_CHECK_PERIOD`] charges to keep per-row overhead negligible.
    tick: Cell<u32>,
}

/// How many budget charges elapse between wall-clock reads.
const DEADLINE_CHECK_PERIOD: u32 = 64;

impl BudgetMeter {
    fn new(budget: ExecBudget) -> Self {
        BudgetMeter {
            budget,
            // qirana-lint::allow(QL004): BudgetMeter IS the sanctioned
            start: Instant::now(), // deadline source for execution budgets

            rows: Cell::new(0),
            bytes: Cell::new(0),
            tick: Cell::new(0),
        }
    }

    fn charge(&self, rows: u64, bytes: u64) -> Result<()> {
        let b = &self.budget;
        if b.is_unlimited() {
            return Ok(());
        }
        let total_rows = self.rows.get().saturating_add(rows);
        self.rows.set(total_rows);
        let total_bytes = self.bytes.get().saturating_add(bytes);
        self.bytes.set(total_bytes);
        if let Some(cap) = b.max_rows {
            if total_rows > cap {
                return Err(EngineError::BudgetExceeded {
                    resource: BudgetResource::Rows,
                    limit: cap,
                });
            }
        }
        if let Some(cap) = b.max_bytes {
            if total_bytes > cap {
                return Err(EngineError::BudgetExceeded {
                    resource: BudgetResource::Memory,
                    limit: cap,
                });
            }
        }
        if b.timeout.is_some() {
            let tick = self.tick.get().wrapping_add(1);
            self.tick.set(tick);
            if tick.is_multiple_of(DEADLINE_CHECK_PERIOD) {
                self.check_deadline()?;
            }
        }
        Ok(())
    }

    fn check_deadline(&self) -> Result<()> {
        if let Some(t) = self.budget.timeout {
            if self.start.elapsed() > t {
                return Err(EngineError::BudgetExceeded {
                    resource: BudgetResource::WallClock,
                    limit: t.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// Execution context: the database, optional per-table row overrides and
/// row patches, an optional resource budget and an optional scan memo.
#[derive(Clone)]
pub struct ExecContext<'a> {
    db: &'a Database,
    overrides: Vec<(usize, &'a [Row])>,
    patches: Vec<(usize, &'a [(usize, Row)])>,
    meter: BudgetMeter,
    scans: Option<&'a SweepScans<'a>>,
}

impl<'a> ExecContext<'a> {
    /// Context executing against the stored instance.
    pub fn new(db: &'a Database) -> Self {
        ExecContext {
            db,
            overrides: Vec::new(),
            patches: Vec::new(),
            meter: BudgetMeter::new(ExecBudget::UNLIMITED),
            scans: None,
        }
    }

    /// Context where table `table_idx`'s rows are replaced by `rows`.
    pub fn with_override(db: &'a Database, table_idx: usize, rows: &'a [Row]) -> Self {
        ExecContext {
            overrides: vec![(table_idx, rows)],
            ..ExecContext::new(db)
        }
    }

    /// Builder: scans of table `table_idx` read `patch`'s row in place of
    /// the row at its index — a row update is one pair, a swap two. The
    /// indices must be strictly increasing and address the table's rows,
    /// or its override rows when it has one; a malformed patch surfaces as
    /// [`EngineError::Internal`] from the execution. Replaces any earlier
    /// patch of the same table.
    pub fn with_patch(mut self, table_idx: usize, patch: &'a [(usize, Row)]) -> Self {
        self.patches.retain(|(t, _)| *t != table_idx);
        self.patches.push((table_idx, patch));
        self
    }

    /// Builder: base-table scans share `scans` ([`SweepScans`]) — they
    /// borrow the prefiltered rows and join indexes an earlier execution on
    /// the same database stored there, and store what they derive. Only a
    /// relation read with no override and no patch, in a block run with no
    /// outer row, under no budget, on the database the memo is bound to
    /// does; everything else executes as without it. `None` leaves the
    /// context memo-free.
    pub fn with_scans(mut self, scans: Option<&'a SweepScans<'a>>) -> Self {
        self.scans = scans;
        self
    }

    /// The scan memo a scan of stored table `table_idx` may share: none
    /// when the table is overridden or patched, `outer` holds a row, a
    /// budget is set or the memo belongs to another database.
    fn shared_scans(&self, table_idx: usize, outer: &[&[Value]]) -> Option<&'a SweepScans<'a>> {
        self.scans.filter(|scans| {
            outer.is_empty()
                && self.meter.budget.is_unlimited()
                && scans.binds(self.db)
                && self.db.table_at(table_idx).rows.len() <= u32::MAX as usize
                && !self.overrides.iter().any(|(t, _)| *t == table_idx)
                && !self.patches.iter().any(|(t, _)| *t == table_idx)
        })
    }

    /// Installs a resource budget; the wall-clock deadline starts now.
    /// Resets any consumption already metered on this context.
    pub fn set_budget(&mut self, budget: ExecBudget) {
        self.meter = BudgetMeter::new(budget);
    }

    /// Builder form of [`ExecContext::set_budget`].
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.set_budget(budget);
        self
    }

    /// The installed budget (default [`ExecBudget::UNLIMITED`]).
    pub fn budget(&self) -> ExecBudget {
        self.meter.budget
    }

    /// Rows charged against the budget so far.
    pub fn rows_charged(&self) -> u64 {
        self.meter.rows.get()
    }

    /// Estimated bytes charged against the budget so far.
    pub fn bytes_charged(&self) -> u64 {
        self.meter.bytes.get()
    }

    /// Charges `n` materialized rows of `row_width` cells each.
    fn charge_rows(&self, n: u64, row_width: usize) -> Result<()> {
        self.meter
            .charge(n, n * (row_width * std::mem::size_of::<Value>()) as u64)
    }

    /// The database under execution.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// Table `table_idx` as a scan source for a plan relation of `arity`
    /// columns. Override and patch rows come from the caller, so each is
    /// checked here: a malformed one is a typed error, not a panic on a
    /// slot read.
    fn scan(&self, table_idx: usize, arity: usize) -> Result<Source<'a>> {
        let malformed = |what: String| {
            Err(EngineError::internal(format!(
                "{what} of table {table_idx} does not fit the plan's {arity}-column relation"
            )))
        };
        let rows: &'a [Row] = match self.overrides.iter().find(|(t, _)| *t == table_idx) {
            Some((_, rows)) => {
                if let Some(i) = rows.iter().position(|r| r.len() != arity) {
                    return malformed(format!("override row {i}"));
                }
                rows
            }
            None => {
                let rows = &self.db.table_at(table_idx).rows;
                if rows.first().is_some_and(|r| r.len() != arity) {
                    return malformed("stored row 0".into());
                }
                rows
            }
        };
        let Some((_, patch)) = self.patches.iter().find(|(t, _)| *t == table_idx) else {
            return Ok(Source::Borrowed(rows));
        };
        let mut next = 0;
        for (i, row) in patch.iter() {
            if *i < next || *i >= rows.len() || row.len() != arity {
                return malformed(format!("patch row {i}"));
            }
            next = i + 1;
        }
        Ok(Source::Patched { rows, patch })
    }
}

/// The materialized result of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
    /// True iff the query had an ORDER BY (row order is semantically
    /// meaningful and agreement checks must be order-sensitive).
    pub ordered: bool,
}

/// Executes a resolved plan.
pub fn execute(plan: &ResolvedSelect, ctx: &ExecContext<'_>) -> Result<QueryOutput> {
    execute_nested(plan, ctx, &[])
}

/// [`execute`], also handing back the plan's input: the rows FROM and
/// WHERE produced, each `plan.width` slots wide, in the order grouping
/// and projection read them. For a grouped plan these are the rows its
/// aggregates fold, so a caller that needs both the output and the
/// ungrouped core (the pricing layer's incremental evaluator) executes
/// once. The output is exactly [`execute`]'s.
pub fn execute_with_input(
    plan: &ResolvedSelect,
    ctx: &ExecContext<'_>,
) -> Result<(QueryOutput, Vec<Row>)> {
    execute_input(plan, ctx, &[])
}

/// Evaluates a row-context expression against a single row.
///
/// Used by the update machinery and by QIRANA's static disagreement checks
/// (evaluating `C[u⁺]` on a candidate tuple without running the query).
/// Subqueries inside `e` execute against `ctx`.
pub fn eval_row_expr(e: &PExpr, row: &[Value], ctx: &ExecContext<'_>) -> Result<Value> {
    eval_in(e, row, None, ctx)
}

/// [`eval_row_expr`] in group context: `row` is the group's representative
/// and `AggRef(j)` reads `aggs[j]`, which must hold one finalized value per
/// aggregate of the plan `e` came from.
pub fn eval_group_expr(
    e: &PExpr,
    row: &[Value],
    aggs: &[Value],
    ctx: &ExecContext<'_>,
) -> Result<Value> {
    eval_in(e, row, Some(aggs), ctx)
}

fn eval_in(
    e: &PExpr,
    row: &[Value],
    aggs: Option<&[Value]>,
    ctx: &ExecContext<'_>,
) -> Result<Value> {
    let tables: SubTables = RefCell::new(HashMap::new());
    eval(
        e,
        &Env {
            row,
            aggs,
            outer: &[],
            ctx,
            tables: &tables,
        },
    )
}

/// The tables one execution of a block builds for its uncorrelated and
/// keyed subqueries, by [`Subquery::id`], each on first use.
type SubTables = RefCell<HashMap<usize, SubTable>>;

/// Evaluation environment for one row.
struct Env<'e> {
    row: &'e [Value],
    aggs: Option<&'e [Value]>,
    outer: &'e [&'e [Value]],
    ctx: &'e ExecContext<'e>,
    tables: &'e SubTables,
}

fn execute_nested(
    plan: &ResolvedSelect,
    ctx: &ExecContext<'_>,
    outer: &[&[Value]],
) -> Result<QueryOutput> {
    execute_input(plan, ctx, outer).map(|(out, _)| out)
}

fn execute_input(
    plan: &ResolvedSelect,
    ctx: &ExecContext<'_>,
    outer: &[&[Value]],
) -> Result<(QueryOutput, Vec<Row>)> {
    // Catch an already-expired deadline before doing any work (the periodic
    // in-loop checks only fire once enough rows have been charged).
    ctx.meter.check_deadline()?;
    let tables: SubTables = RefCell::new(HashMap::new());
    let joined = run_from(plan, ctx, outer, &tables)?;

    let columns: Vec<String> = plan.projections.iter().map(|p| p.name.clone()).collect();
    let mut rows: Vec<Row>;

    if plan.grouped {
        rows = run_grouped(plan, ctx, outer, &tables, &joined)?;
    } else {
        rows = Vec::with_capacity(joined.len());
        for r in &joined {
            let env = Env {
                row: r,
                aggs: None,
                outer,
                ctx,
                tables: &tables,
            };
            let mut out = Vec::with_capacity(plan.projections.len());
            for p in &plan.projections {
                out.push(eval(&p.expr, &env)?);
            }
            ctx.charge_rows(1, out.len())?;
            rows.push(out);
        }
        if !plan.order_by.is_empty() {
            // Non-grouped ORDER BY keys are row-context expressions; sort the
            // projected rows by keys computed from the source rows.
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
            for (src, out) in joined.iter().zip(rows) {
                let env = Env {
                    row: src,
                    aggs: None,
                    outer,
                    ctx,
                    tables: &tables,
                };
                let mut key = Vec::with_capacity(plan.order_by.len());
                for (e, _) in &plan.order_by {
                    key.push(eval(e, &env)?);
                }
                keyed.push((key, out));
            }
            sort_keyed(&mut keyed, &plan.order_by);
            rows = keyed.into_iter().map(|(_, r)| r).collect();
        }
    }

    if plan.distinct {
        let mut seen = HashSet::with_capacity(rows.len());
        rows.retain(|r| seen.insert(r.clone()));
    }
    if let Some(limit) = plan.limit {
        rows.truncate(limit as usize);
    }
    let out = QueryOutput {
        columns,
        rows,
        ordered: !plan.order_by.is_empty(),
    };
    Ok((out, joined))
}

fn sort_keyed(keyed: &mut [(Vec<Value>, Row)], order_by: &[(PExpr, bool)]) {
    keyed.sort_by(|(a, _), (b, _)| {
        for (i, (_, asc)) in order_by.iter().enumerate() {
            let ord = a[i].total_cmp(&b[i]);
            let ord = if *asc { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

fn run_grouped(
    plan: &ResolvedSelect,
    ctx: &ExecContext<'_>,
    outer: &[&[Value]],
    tables: &SubTables,
    joined: &[Row],
) -> Result<Vec<Row>> {
    struct Group {
        first_row: Row,
        accums: Vec<Accum>,
    }
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Group> = HashMap::new();

    for row in joined {
        let env = Env {
            row,
            aggs: None,
            outer,
            ctx,
            tables,
        };
        let mut key = Vec::with_capacity(plan.group_by.len());
        for g in &plan.group_by {
            key.push(eval(g, &env)?);
        }
        let group = match groups.get_mut(&key) {
            Some(g) => g,
            None => {
                ctx.charge_rows(1, key.len() + row.len())?;
                order.push(key.clone());
                groups.entry(key).or_insert_with(|| Group {
                    first_row: row.clone(),
                    accums: plan.aggregates.iter().map(Accum::new).collect(),
                })
            }
        };
        for (acc, spec) in group.accums.iter_mut().zip(&plan.aggregates) {
            match &spec.arg {
                None => acc.update_star(),
                Some(a) => {
                    let v = eval(a, &env)?;
                    acc.update(v);
                }
            }
        }
    }

    // Global aggregate over an empty input still yields one group.
    if groups.is_empty() && plan.group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(
            Vec::new(),
            Group {
                first_row: vec![Value::Null; plan.width],
                accums: plan.aggregates.iter().map(Accum::new).collect(),
            },
        );
    }

    let mut out_rows: Vec<Row> = Vec::with_capacity(groups.len());
    let mut sort_keys: Vec<Vec<Value>> = Vec::new();
    for key in &order {
        let g = &groups[key];
        let agg_vals: Vec<Value> = g.accums.iter().map(Accum::finalize).collect();
        let env = Env {
            row: &g.first_row,
            aggs: Some(&agg_vals),
            outer,
            ctx,
            tables,
        };
        if let Some(h) = &plan.having {
            if eval(h, &env)?.as_bool3() != Some(true) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(plan.projections.len());
        for p in &plan.projections {
            out.push(eval(&p.expr, &env)?);
        }
        if !plan.order_by.is_empty() {
            let mut k = Vec::with_capacity(plan.order_by.len());
            for (e, _) in &plan.order_by {
                k.push(eval(e, &env)?);
            }
            sort_keys.push(k);
        }
        out_rows.push(out);
    }

    if !plan.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Row)> = sort_keys.into_iter().zip(out_rows).collect();
        sort_keyed(&mut keyed, &plan.order_by);
        out_rows = keyed.into_iter().map(|(_, r)| r).collect();
    }
    Ok(out_rows)
}

/// Streaming aggregate accumulator. `SUM`/`AVG` are exact ([`SumAcc`]):
/// their result depends on the bag of values, not on the order of rows.
enum Accum {
    Count {
        n: i64,
    },
    /// `COUNT`/`SUM`/`AVG(DISTINCT …)`: a value is folded on its first
    /// arrival only.
    Distinct {
        func: AggFunc,
        seen: HashSet<Value>,
        acc: SumAcc,
    },
    Sum(SumAcc),
    Avg(SumAcc),
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
}

impl Accum {
    fn new(spec: &AggSpec) -> Accum {
        match (spec.func, spec.distinct) {
            (AggFunc::Min, _) => Accum::MinMax {
                best: None,
                is_min: true,
            },
            (AggFunc::Max, _) => Accum::MinMax {
                best: None,
                is_min: false,
            },
            (func, true) => Accum::Distinct {
                func,
                seen: HashSet::new(),
                acc: SumAcc::default(),
            },
            (AggFunc::Count, false) => Accum::Count { n: 0 },
            (AggFunc::Sum, false) => Accum::Sum(SumAcc::default()),
            (AggFunc::Avg, false) => Accum::Avg(SumAcc::default()),
        }
    }

    /// `COUNT(*)`: counts every row, NULLs included.
    fn update_star(&mut self) {
        if let Accum::Count { n } = self {
            *n += 1;
        } else {
            // qirana-lint::allow(QL003, QL007): the planner rejects other arg-less
            unreachable!("only COUNT may have no argument"); // aggregates
        }
    }

    /// Feeds one value; NULLs are skipped per SQL aggregate semantics.
    fn update(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            Accum::Count { n } => *n += 1,
            Accum::Distinct { seen, acc, .. } => {
                if !seen.contains(&v) {
                    acc.add(&v);
                    seen.insert(v);
                }
            }
            Accum::Sum(acc) | Accum::Avg(acc) => acc.add(&v),
            Accum::MinMax { best, is_min } => {
                let better = match best {
                    None => true,
                    Some(b) => {
                        if *is_min {
                            v.total_cmp(b).is_lt()
                        } else {
                            v.total_cmp(b).is_gt()
                        }
                    }
                };
                if better {
                    *best = Some(v);
                }
            }
        }
    }

    fn finalize(&self) -> Value {
        match self {
            Accum::Count { n } => Value::Int(*n),
            Accum::Distinct { func, seen, acc } => match func {
                AggFunc::Count => Value::Int(seen.len() as i64),
                AggFunc::Sum => acc.sum(),
                AggFunc::Avg => acc.avg(),
                // qirana-lint::allow(QL003, QL007): Accum::new maps MIN/MAX to MinMax
                AggFunc::Min | AggFunc::Max => unreachable!("MIN/MAX use MinMax"),
            },
            Accum::Sum(acc) => acc.sum(),
            Accum::Avg(acc) => acc.avg(),
            Accum::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// FROM evaluation (joins)
// ---------------------------------------------------------------------------

/// One relation's rows as the join reads them.
enum Source<'a> {
    Borrowed(&'a [Row]),
    /// Borrowed rows with a validated, index-sorted row patch read in place.
    Patched {
        rows: &'a [Row],
        patch: &'a [(usize, Row)],
    },
    Owned(Vec<Row>),
    /// Stored rows at the positions a shared prefilter kept, in order.
    Selected {
        rows: &'a [Row],
        keep: Rc<[u32]>,
    },
}

impl Source<'_> {
    fn len(&self) -> usize {
        match self {
            Source::Borrowed(rows) | Source::Patched { rows, .. } => rows.len(),
            Source::Owned(rows) => rows.len(),
            Source::Selected { keep, .. } => keep.len(),
        }
    }

    /// The rows in stored order, each patched index yielding its patch row
    /// (a selection yields only the rows it kept).
    fn iter(&self) -> impl Iterator<Item = &Row> {
        let (rows, patch): (&[Row], &[(usize, Row)]) = match self {
            Source::Borrowed(rows) => (rows, &[]),
            Source::Patched { rows, patch } => (rows, patch),
            Source::Owned(rows) => (rows, &[]),
            Source::Selected { .. } => (&[], &[]),
        };
        let (stored, keep): (&[Row], &[u32]) = match self {
            Source::Selected { rows, keep } => (rows, keep),
            _ => (&[], &[]),
        };
        let mut pending = patch.iter().peekable();
        rows.iter()
            .enumerate()
            .map(move |(i, row)| {
                pending
                    .next_if(|(j, _)| *j == i)
                    .map_or(row, |(_, patched)| patched)
            })
            .chain(keep.iter().map(move |&p| &stored[p as usize]))
    }

    /// The row [`Source::iter`] yields at position `i`.
    fn get(&self, i: usize) -> &Row {
        match self {
            Source::Borrowed(rows) => &rows[i],
            Source::Owned(rows) => &rows[i],
            Source::Patched { rows, patch } => patch
                .binary_search_by_key(&i, |(j, _)| *j)
                .map_or(&rows[i], |k| &patch[k].1),
            Source::Selected { rows, keep } => &rows[keep[i] as usize],
        }
    }
}

/// A classified WHERE conjunct.
struct Conjunct {
    expr: PExpr,
    /// Bitmask of relations whose slots the conjunct reads. Conjuncts that
    /// contain subqueries conservatively require all relations.
    rels: u64,
    applied: bool,
}

struct EquiEdge {
    left_rel: usize,
    left_expr: PExpr,
    right_rel: usize,
    right_expr: PExpr,
    used: bool,
}

fn rels_of(e: &PExpr, plan: &ResolvedSelect) -> u64 {
    let mut slots = Vec::new();
    e.collect_slots(&mut slots);
    let mut mask = 0u64;
    for s in slots {
        // `offsets` always contains 0, so every slot has a home relation.
        #[allow(clippy::expect_used)]
        let rel = plan
            .offsets
            .iter()
            .rposition(|&o| o <= s)
            .expect("slot below first offset"); // qirana-lint::allow(QL007): offsets[0] == 0
        mask |= 1 << rel;
    }
    mask
}

fn run_from(
    plan: &ResolvedSelect,
    ctx: &ExecContext<'_>,
    outer: &[&[Value]],
    tables: &SubTables,
) -> Result<Vec<Row>> {
    let n = plan.relations.len();
    if n == 0 {
        // `SELECT expr` with no FROM: a single empty row.
        let mut row = vec![Vec::new()];
        if let Some(f) = &plan.filter {
            let env = Env {
                row: &row[0],
                aggs: None,
                outer,
                ctx,
                tables,
            };
            if eval(f, &env)?.as_bool3() != Some(true) {
                row.clear();
            }
        }
        return Ok(row);
    }

    if n > MAX_RELATIONS {
        return Err(EngineError::internal(format!(
            "{n} relations in one query block; at most {MAX_RELATIONS} are supported"
        )));
    }

    // Classify conjuncts.
    let mut prefilters: Vec<Vec<PExpr>> = vec![Vec::new(); n];
    let mut edges: Vec<EquiEdge> = Vec::new();
    let mut residuals: Vec<Conjunct> = Vec::new();
    let all_mask: u64 = if n == MAX_RELATIONS {
        u64::MAX
    } else {
        (1 << n) - 1
    };
    if let Some(f) = plan.filter.clone() {
        for c in f.conjuncts() {
            if c.has_subquery() {
                residuals.push(Conjunct {
                    expr: c,
                    rels: all_mask,
                    applied: false,
                });
                continue;
            }
            let rels = rels_of(&c, plan);
            if rels.count_ones() == 1 {
                prefilters[rels.trailing_zeros() as usize].push(c);
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
                    edges.push(EquiEdge {
                        left_rel: lr.trailing_zeros() as usize,
                        left_expr: (**left).clone(),
                        right_rel: rr.trailing_zeros() as usize,
                        right_expr: (**right).clone(),
                        used: false,
                    });
                    continue;
                }
            }
            residuals.push(Conjunct {
                expr: c,
                rels,
                applied: false,
            });
        }
    }

    // Materialize and prefilter each relation's rows (rows stay relation-local
    // width here; prefilter expressions are rebased to local slots). A
    // stored table the scan memo may share takes its prefiltered rows from
    // there, and `shared[i]` keeps its key for the join index below.
    let mut sources: Vec<Source<'_>> = Vec::with_capacity(n);
    let mut shared: Vec<Option<(&SweepScans<'_>, ScanKey)>> = Vec::new();
    for (i, rel) in plan.relations.iter().enumerate() {
        let (raw, scans) = match rel {
            PRelation::Base { table, arity, .. } => (
                ctx.scan(*table, *arity)?,
                ctx.shared_scans(*table, outer).map(|scans| (scans, *table)),
            ),
            PRelation::Derived { plan: sub, .. } => {
                (Source::Owned(execute_nested(sub, ctx, &[])?.rows), None)
            }
        };
        if scans.is_none() && prefilters[i].is_empty() {
            sources.push(raw);
            continue;
        }
        let offset = plan.offsets[i];
        let local: Vec<PExpr> = prefilters[i]
            .iter()
            .map(|e| {
                let mut e = e.clone();
                e.map_slots(&mut |s| s - offset);
                e
            })
            .collect();
        let Some((scans, table)) = scans else {
            let mut kept = Vec::new();
            prefilter(&raw, &local, ctx, outer, tables, |_, row| {
                kept.push(row.clone())
            })?;
            sources.push(Source::Owned(kept));
            continue;
        };
        let key = ScanKey::new(table, local);
        if shared.is_empty() {
            shared.resize_with(n, || None);
        }
        if !key.filter().is_empty() {
            let keep = match scans.rows(&key) {
                Some(keep) => keep,
                None => {
                    let mut keep = Vec::new();
                    prefilter(&raw, key.filter(), ctx, outer, tables, |p, _| {
                        keep.push(p as u32)
                    })?;
                    let keep: Rc<[u32]> = keep.into();
                    scans.store_rows(key.clone(), Rc::clone(&keep));
                    keep
                }
            };
            let Source::Borrowed(rows) = raw else {
                return Err(EngineError::internal("a shared scan read a patched table"));
            };
            sources.push(Source::Selected { rows, keep });
        } else {
            sources.push(raw);
        }
        shared[i] = Some((scans, key));
    }

    // Greedy join: start from the smallest relation, repeatedly hash-join a
    // connected relation (falling back to cartesian product).
    // The planner rejects SELECTs with an empty FROM list, so n >= 1.
    let start = (0..n)
        .min_by_key(|&i| sources[i].len())
        .ok_or_else(|| EngineError::internal("greedy join started with an empty FROM list"))?;
    let mut bound: u64 = 1 << start;
    let width = plan.width;
    let mut inter: Vec<Row> = Vec::with_capacity(sources[start].len());
    for r in sources[start].iter() {
        ctx.charge_rows(1, width)?;
        inter.push(widen(r, plan.offsets[start], width));
    }
    apply_ready_residuals(&mut residuals, bound, &mut inter, ctx, outer, tables)?;

    while bound != all_mask {
        // Gather join keys for every unbound relation connected to `bound`.
        let mut candidate: Option<usize> = None;
        for r in 0..n {
            if bound & (1 << r) != 0 {
                continue;
            }
            let connected = edges.iter().any(|e| {
                !e.used
                    && ((e.left_rel == r && bound & (1 << e.right_rel) != 0)
                        || (e.right_rel == r && bound & (1 << e.left_rel) != 0))
            });
            if connected
                && candidate
                    .map(|c| sources[r].len() < sources[c].len())
                    .unwrap_or(true)
            {
                candidate = Some(r);
            }
        }

        match candidate {
            Some(r) => {
                // Composite key across every usable edge touching r.
                let mut build_exprs = Vec::new();
                let mut probe_exprs = Vec::new();
                for e in edges.iter_mut().filter(|e| !e.used) {
                    if e.left_rel == r && bound & (1 << e.right_rel) != 0 {
                        build_exprs.push(e.left_expr.clone());
                        probe_exprs.push(e.right_expr.clone());
                        e.used = true;
                    } else if e.right_rel == r && bound & (1 << e.left_rel) != 0 {
                        build_exprs.push(e.right_expr.clone());
                        probe_exprs.push(e.left_expr.clone());
                        e.used = true;
                    }
                }
                let offset = plan.offsets[r];
                let local_build: Vec<PExpr> = build_exprs
                    .into_iter()
                    .map(|mut e| {
                        e.map_slots(&mut |s| s - offset);
                        e
                    })
                    .collect();
                // Build — or borrow the index a shared scan stored — then
                // probe.
                let memo = shared.get(r).and_then(Option::as_ref);
                let stored = memo.and_then(|(scans, key)| scans.index(key, &local_build));
                let built = match stored {
                    Some(_) => None,
                    None => Some(build_index(&sources[r], &local_build, ctx, outer, tables)?),
                };
                let ht = stored
                    .as_deref()
                    .or(built.as_ref())
                    .ok_or_else(|| EngineError::internal("hash join without an index"))?;
                let mut next = Vec::new();
                'probe: for irow in &inter {
                    let env = Env {
                        row: irow,
                        aggs: None,
                        outer,
                        ctx,
                        tables,
                    };
                    let mut key = Vec::with_capacity(probe_exprs.len());
                    for e in &probe_exprs {
                        let v = eval(e, &env)?;
                        if v.is_null() {
                            continue 'probe;
                        }
                        key.push(v);
                    }
                    if let Some(matches) = ht.get(&key) {
                        for &p in matches {
                            ctx.charge_rows(1, width)?;
                            let mut merged = irow.clone();
                            fill(&mut merged, sources[r].get(p as usize), offset);
                            next.push(merged);
                        }
                    }
                }
                if let (Some((scans, key)), Some(built)) = (memo, built) {
                    scans.store_index(key.clone(), local_build, built);
                }
                inter = next;
                bound |= 1 << r;
            }
            None => {
                // Cartesian product with the smallest unbound relation.
                // The loop runs only while some relation is unbound.
                let r = (0..n)
                    .filter(|&i| bound & (1 << i) == 0)
                    .min_by_key(|&i| sources[i].len())
                    .ok_or_else(|| {
                        EngineError::internal("greedy join loop ran with every relation bound")
                    })?;
                let offset = plan.offsets[r];
                let mut next = Vec::with_capacity(inter.len() * sources[r].len().max(1));
                for irow in &inter {
                    for row in sources[r].iter() {
                        ctx.charge_rows(1, width)?;
                        let mut merged = irow.clone();
                        fill(&mut merged, row, offset);
                        next.push(merged);
                    }
                }
                inter = next;
                bound |= 1 << r;
            }
        }
        apply_ready_residuals(&mut residuals, bound, &mut inter, ctx, outer, tables)?;
    }

    debug_assert!(residuals.iter().all(|c| c.applied));
    Ok(inter)
}

fn widen(row: &Row, offset: usize, width: usize) -> Row {
    let mut out = vec![Value::Null; width];
    fill(&mut out, row, offset);
    out
}

fn fill(dst: &mut Row, src: &Row, offset: usize) {
    dst[offset..offset + src.len()].clone_from_slice(src);
}

/// Hands `keep` each row of `source` that passes every conjunct of
/// `filter` (local slots), with its position, charging it to the budget.
fn prefilter<'r>(
    source: &'r Source<'_>,
    filter: &[PExpr],
    ctx: &ExecContext<'_>,
    outer: &[&[Value]],
    tables: &SubTables,
    mut keep: impl FnMut(usize, &'r Row),
) -> Result<()> {
    'rows: for (p, row) in source.iter().enumerate() {
        let env = Env {
            row,
            aggs: None,
            outer,
            ctx,
            tables,
        };
        for e in filter {
            if eval(e, &env)?.as_bool3() != Some(true) {
                continue 'rows;
            }
        }
        ctx.charge_rows(1, row.len())?;
        keep(p, row);
    }
    Ok(())
}

/// The hash index of `source` on the build keys `build` (local slots):
/// key → positions in [`Source::iter`] order. A NULL key never joins.
fn build_index(
    source: &Source<'_>,
    build: &[PExpr],
    ctx: &ExecContext<'_>,
    outer: &[&[Value]],
    tables: &SubTables,
) -> Result<JoinIndex> {
    let mut ht: JoinIndex = HashMap::with_capacity(source.len());
    'build: for (p, row) in source.iter().enumerate() {
        let env = Env {
            row,
            aggs: None,
            outer,
            ctx,
            tables,
        };
        let mut key = Vec::with_capacity(build.len());
        for e in build {
            let v = eval(e, &env)?;
            if v.is_null() {
                continue 'build; // NULL never joins
            }
            key.push(v);
        }
        ctx.charge_rows(1, key.len())?;
        let p = u32::try_from(p)
            .map_err(|_| EngineError::internal("a join's build side exceeds 2^32 rows"))?;
        ht.entry(key).or_default().push(p);
    }
    Ok(ht)
}

fn apply_ready_residuals(
    residuals: &mut [Conjunct],
    bound: u64,
    inter: &mut Vec<Row>,
    ctx: &ExecContext<'_>,
    outer: &[&[Value]],
    tables: &SubTables,
) -> Result<()> {
    for c in residuals.iter_mut() {
        if c.applied || c.rels & !bound != 0 {
            continue;
        }
        c.applied = true;
        let mut kept = Vec::with_capacity(inter.len());
        for row in inter.drain(..) {
            let env = Env {
                row: &row,
                aggs: None,
                outer,
                ctx,
                tables,
            };
            if eval(&c.expr, &env)?.as_bool3() == Some(true) {
                kept.push(row);
            }
        }
        *inter = kept;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

fn eval(e: &PExpr, env: &Env<'_>) -> Result<Value> {
    Ok(match e {
        PExpr::Literal(v) => v.clone(),
        PExpr::Interval { .. } => {
            return Err(EngineError::eval(
                "INTERVAL literal outside date arithmetic",
            ))
        }
        PExpr::Slot(s) => env.row[*s].clone(),
        PExpr::OuterSlot { depth, slot } => env
            .outer
            .get(*depth)
            .ok_or_else(|| EngineError::eval("correlated reference without outer row"))?[*slot]
            .clone(),
        PExpr::AggRef(i) => {
            let aggs = env
                .aggs
                .ok_or_else(|| EngineError::eval("aggregate reference outside grouping"))?;
            aggs[*i].clone()
        }
        PExpr::Unary { op, expr } => {
            let v = eval(expr, env)?;
            match op {
                UnaryOp::Not => match v.as_bool3() {
                    None => Value::Null,
                    Some(b) => Value::Bool(!b),
                },
                UnaryOp::Neg => match v {
                    Value::Null => Value::Null,
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(f) => Value::Float(-f),
                    other => return Err(EngineError::eval(format!("cannot negate {other}"))),
                },
            }
        }
        PExpr::Binary { left, op, right } => {
            // Date ± INTERVAL is handled structurally.
            if let PExpr::Interval { months, days } = right.as_ref() {
                let l = eval(left, env)?;
                return date_interval(&l, *months, *days, *op == BinaryOp::Add);
            }
            if let PExpr::Interval { months, days } = left.as_ref() {
                if *op == BinaryOp::Add {
                    let r = eval(right, env)?;
                    return date_interval(&r, *months, *days, true);
                }
                return Err(EngineError::eval("INTERVAL may not be the minuend"));
            }
            // Short-circuit AND/OR to skip needless subquery work.
            if *op == BinaryOp::And {
                let l = eval(left, env)?;
                if l.as_bool3() == Some(false) {
                    return Ok(Value::Bool(false));
                }
                let r = eval(right, env)?;
                return binary_op(BinaryOp::And, &l, &r);
            }
            if *op == BinaryOp::Or {
                let l = eval(left, env)?;
                if l.as_bool3() == Some(true) {
                    return Ok(Value::Bool(true));
                }
                let r = eval(right, env)?;
                return binary_op(BinaryOp::Or, &l, &r);
            }
            let l = eval(left, env)?;
            let r = eval(right, env)?;
            binary_op(*op, &l, &r)?
        }
        PExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let s = match &v {
                Value::Str(s) => s.to_string(),
                other => other.to_string(),
            };
            let m = like_match(pattern, &s);
            Value::Bool(m != *negated)
        }
        PExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, env)?;
            let lo = eval(low, env)?;
            let hi = eval(high, env)?;
            let ge = binary_op(BinaryOp::GtEq, &v, &lo)?;
            let le = binary_op(BinaryOp::LtEq, &v, &hi)?;
            let both = binary_op(BinaryOp::And, &ge, &le)?;
            match (both.as_bool3(), negated) {
                (None, _) => Value::Null,
                (Some(b), neg) => Value::Bool(b != *neg),
            }
        }
        PExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, env)?;
            let mut saw_null = v.is_null();
            let mut found = false;
            for item in list {
                let iv = eval(item, env)?;
                if iv.is_null() || v.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&iv) {
                    found = true;
                    break;
                }
            }
            in_result(found, saw_null, *negated)
        }
        PExpr::Subquery(sub) => subquery(sub, env)?,
        PExpr::IsNull { expr, negated } => {
            let v = eval(expr, env)?;
            Value::Bool(v.is_null() != *negated)
        }
        PExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            match operand {
                Some(op) => {
                    let ov = eval(op, env)?;
                    for (w, t) in branches {
                        let wv = eval(w, env)?;
                        if !ov.is_null() && !wv.is_null() && ov.sql_eq(&wv) {
                            return eval(t, env);
                        }
                    }
                }
                None => {
                    for (w, t) in branches {
                        if eval(w, env)?.as_bool3() == Some(true) {
                            return eval(t, env);
                        }
                    }
                }
            }
            match else_expr {
                Some(e) => eval(e, env)?,
                None => Value::Null,
            }
        }
    })
}

fn in_result(found: bool, saw_null: bool, negated: bool) -> Value {
    if found {
        Value::Bool(!negated)
    } else if saw_null {
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

// ---------------------------------------------------------------------------
// Subquery evaluation
// ---------------------------------------------------------------------------

/// One key's inner rows, as the subquery's kind reads them.
#[derive(Default)]
struct Bucket {
    rows: usize,
    /// Scalar: the first row's value, the answer when it is the only row.
    first: Option<Value>,
    /// `IN`: whether a NULL was among the values.
    has_null: bool,
}

/// A subquery's inner rows by key. Uncorrelated and per-row rows all file
/// under NULL, which is also what they are looked up by; a keyed row files
/// under its key, except a NULL key, which equals no outer value. `empty`
/// answers a scalar whose key has no rows.
struct SubTable {
    buckets: HashMap<Value, Bucket>,
    /// `IN`: each key's non-NULL values, as `(key, value)`.
    values: HashSet<(Value, Value)>,
    empty: Value,
}

impl SubTable {
    /// Files `rows`: each is `[key, value…]` when `keyed`, else `[value…]`.
    fn new(kind: &SubqueryKind, rows: Vec<Row>, keyed: bool, empty: Value) -> SubTable {
        let mut buckets: HashMap<Value, Bucket> = HashMap::new();
        let mut values = HashSet::new();
        for row in rows {
            let mut cells = row.into_iter();
            let key = match keyed {
                false => Value::Null,
                true => match cells.next() {
                    Some(key) if !key.is_null() => key,
                    _ => continue,
                },
            };
            let bucket = buckets.entry(key.clone()).or_default();
            bucket.rows += 1;
            let value = cells.next().unwrap_or(Value::Null);
            match kind {
                SubqueryKind::Exists { .. } => {}
                SubqueryKind::In { .. } if value.is_null() => bucket.has_null = true,
                SubqueryKind::In { .. } => {
                    values.insert((key, value));
                }
                SubqueryKind::Scalar => {
                    bucket.first.get_or_insert(value);
                }
            }
        }
        SubTable {
            buckets,
            values,
            empty,
        }
    }

    /// The subquery's value for an outer row of key `key`; `operand` is an
    /// `IN`'s left side.
    fn answer(&self, kind: &SubqueryKind, key: &Value, operand: Value) -> Result<Value> {
        let bucket = self.buckets.get(key);
        Ok(match (kind, bucket) {
            (SubqueryKind::Exists { negated }, _) => Value::Bool(bucket.is_some() != *negated),
            // x IN (empty) is FALSE even for NULL x.
            (SubqueryKind::In { negated, .. }, None) => Value::Bool(*negated),
            (SubqueryKind::In { .. }, Some(_)) if operand.is_null() => Value::Null,
            (SubqueryKind::In { negated, .. }, Some(b)) => {
                let found = self.values.contains(&(key.clone(), operand));
                in_result(found, b.has_null, *negated)
            }
            (SubqueryKind::Scalar, None) => self.empty.clone(),
            (SubqueryKind::Scalar, Some(b)) if b.rows == 1 => {
                b.first.clone().unwrap_or(Value::Null)
            }
            (SubqueryKind::Scalar, Some(b)) => {
                return Err(EngineError::eval(format!(
                    "scalar subquery returned {} rows",
                    b.rows
                )))
            }
        })
    }
}

/// A subquery's value for the row `env` holds, in the mode the binder
/// chose. An uncorrelated or keyed subquery builds its table the first
/// time a row of this execution of the block reaches it; a per-row one
/// executes with the row in scope.
fn subquery(sub: &Subquery, env: &Env<'_>) -> Result<Value> {
    // `IN` reads its left side before its subquery.
    let operand = match &sub.kind {
        SubqueryKind::In { expr, .. } => eval(expr, env)?,
        _ => Value::Null,
    };
    let (plan, key) = match &sub.mode {
        SubqueryMode::PerRow(plan) => {
            let stack: Vec<&[Value]> = std::iter::once(env.row)
                .chain(env.outer.iter().copied())
                .collect();
            let rows = execute_nested(plan, env.ctx, &stack)?.rows;
            let table = SubTable::new(&sub.kind, rows, false, Value::Null);
            return table.answer(&sub.kind, &Value::Null, operand);
        }
        SubqueryMode::Uncorrelated(plan) => (plan, Value::Null),
        SubqueryMode::Keyed { plan, outer_slot } => (plan, env.row[*outer_slot].clone()),
    };
    if !env.tables.borrow().contains_key(&sub.id) {
        let table = build_table(sub, plan, env.ctx)?;
        env.tables.borrow_mut().insert(sub.id, table);
    }
    let tables = env.tables.borrow();
    let table = tables
        .get(&sub.id)
        .ok_or_else(|| EngineError::internal("a subquery's table went missing"))?;
    table.answer(&sub.kind, &key, operand)
}

/// The table of an uncorrelated or keyed subquery: its plan executed once,
/// with no outer row.
fn build_table(sub: &Subquery, plan: &ResolvedSelect, ctx: &ExecContext<'_>) -> Result<SubTable> {
    let keyed = matches!(sub.mode, SubqueryMode::Keyed { .. });
    // γ_key of a global aggregate has no row for a key without inner rows;
    // that key reads the empty-input row (COUNT 0, others NULL), exactly
    // what the correlated block yields for it.
    let empty = if keyed && plan.grouped {
        let empties: Vec<Value> = plan
            .aggregates
            .iter()
            .map(|spec| Accum::new(spec).finalize())
            .collect();
        eval_group_expr(
            &plan.projections[1].expr,
            &vec![Value::Null; plan.width],
            &empties,
            ctx,
        )?
    } else {
        Value::Null
    };
    let rows = execute_nested(plan, ctx, &[])?.rows;
    Ok(SubTable::new(&sub.kind, rows, keyed, empty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::plan::plan_select;
    use crate::schema::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "User",
                vec![
                    ColumnDef::new("uid", DataType::Int),
                    ColumnDef::new("name", DataType::Str),
                    ColumnDef::new("gender", DataType::Str),
                    ColumnDef::new("age", DataType::Int),
                ],
                &["uid"],
            ),
            vec![
                vec![1.into(), "John".into(), "m".into(), 25.into()],
                vec![2.into(), "Alice".into(), "f".into(), 13.into()],
                vec![3.into(), "Bob".into(), "m".into(), 45.into()],
                vec![4.into(), "Anna".into(), "f".into(), 19.into()],
            ],
        );
        db.add_table(
            TableSchema::new(
                "Tweet",
                vec![
                    ColumnDef::new("tid", DataType::Int),
                    ColumnDef::new("uid", DataType::Int),
                    ColumnDef::new("location", DataType::Str),
                ],
                &["tid"],
            ),
            vec![
                vec![1.into(), 3.into(), "CA".into()],
                vec![2.into(), 3.into(), "WA".into()],
                vec![3.into(), 1.into(), "OR".into()],
                vec![4.into(), 2.into(), "CA".into()],
            ],
        );
        db
    }

    fn run(db: &Database, sql: &str) -> QueryOutput {
        let plan = plan_select(&parse_select(sql).unwrap(), db).unwrap();
        execute(&plan, &ExecContext::new(db)).unwrap()
    }

    #[test]
    fn select_star() {
        let db = db();
        let out = run(&db, "select * from User");
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.columns, vec!["uid", "name", "gender", "age"]);
    }

    #[test]
    fn filter_and_projection() {
        let db = db();
        let out = run(&db, "select name from User where age > 20 and gender = 'm'");
        let names: Vec<String> = out.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["John", "Bob"]);
    }

    #[test]
    fn count_star_and_where() {
        let db = db();
        let out = run(&db, "select count(*) from User where gender = 'f'");
        assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn group_by_with_aggregates() {
        let db = db();
        let out = run(
            &db,
            "select gender, count(*), avg(age) from User group by gender order by gender",
        );
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0], Value::str("f"));
        assert_eq!(out.rows[0][1], Value::Int(2));
        assert_eq!(out.rows[0][2], Value::Float(16.0));
        assert_eq!(out.rows[1][2], Value::Float(35.0));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = db();
        let out = run(
            &db,
            "select count(*), sum(age), min(age) from User where age > 100",
        );
        assert_eq!(
            out.rows,
            vec![vec![Value::Int(0), Value::Null, Value::Null]]
        );
    }

    /// A value as its variant and exact bits: `Int(3)` and `Float(3.0)`
    /// compare equal as values but differ here, and so do two floats one
    /// rounding apart.
    fn image(rows: &[Row]) -> Vec<Vec<String>> {
        let cell = |v: &Value| match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            other => format!("{other:?}"),
        };
        rows.iter().map(|r| r.iter().map(cell).collect()).collect()
    }

    /// The plan's ungrouped core: same FROM/WHERE, one identity projection
    /// per joined slot, no grouping, sorting or limit.
    fn core_of(plan: &ResolvedSelect) -> ResolvedSelect {
        let mut core = plan.clone();
        core.grouped = false;
        core.group_by.clear();
        core.aggregates.clear();
        core.having = None;
        core.order_by.clear();
        core.limit = None;
        core.distinct = false;
        core.projections = (0..plan.width)
            .map(|sl| crate::plan::Projection {
                expr: PExpr::Slot(sl),
                name: format!("c{sl}"),
            })
            .collect();
        core
    }

    #[test]
    fn execute_with_input_returns_the_output_and_the_core_rows() {
        let db = db();
        for sql in [
            "select count(*), sum(age), min(age) from User where age > 100",
            "select gender, count(*), max(tid) from User, Tweet where User.uid = Tweet.uid \
             group by gender having count(*) > 1 order by gender desc limit 1",
            "select gender, sum(age * 0.1), avg(age / 3.0) from User group by gender",
        ] {
            let plan = plan_select(&parse_select(sql).unwrap(), &db).unwrap();
            let ctx = ExecContext::new(&db);
            let (out, input) = execute_with_input(&plan, &ctx).unwrap();
            let alone = execute(&plan, &ctx).unwrap();
            assert_eq!(
                (&out.columns, out.ordered, image(&out.rows)),
                (&alone.columns, alone.ordered, image(&alone.rows)),
                "{sql}"
            );
            let core = execute(&core_of(&plan), &ctx).unwrap();
            assert_eq!(image(&input), image(&core.rows), "{sql}");
        }
    }

    #[test]
    fn hash_join() {
        let db = db();
        let out = run(
            &db,
            "select name, location from User, Tweet where User.uid = Tweet.uid order by tid",
        );
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.rows[0][0], Value::str("Bob"));
        assert_eq!(out.rows[0][1], Value::str("CA"));
        assert_eq!(out.rows[2][0], Value::str("John"));
    }

    #[test]
    fn join_with_selection() {
        let db = db();
        let out = run(
            &db,
            "select name from User U, Tweet T where U.uid = T.uid and T.location = 'CA' and U.age > 20 order by name",
        );
        let names: Vec<String> = out.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["Bob"]);
    }

    #[test]
    fn cartesian_product() {
        let db = db();
        let out = run(&db, "select 1 from User, Tweet");
        assert_eq!(out.rows.len(), 16);
    }

    #[test]
    fn distinct_and_limit() {
        let db = db();
        let out = run(&db, "select distinct location from Tweet order by location");
        assert_eq!(out.rows.len(), 3);
        let out = run(
            &db,
            "select distinct location from Tweet order by location limit 2",
        );
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0], Value::str("CA"));
    }

    #[test]
    fn order_desc() {
        let db = db();
        let out = run(&db, "select age from User order by age desc");
        let ages: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ages, vec![45, 25, 19, 13]);
        assert!(out.ordered);
    }

    #[test]
    fn having_filters_groups() {
        let db = db();
        let out = run(
            &db,
            "select uid, count(*) as c from Tweet group by uid having c > 1",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Int(3));
        assert_eq!(out.rows[0][1], Value::Int(2));
    }

    #[test]
    fn in_subquery_correlation_free() {
        let db = db();
        let out = run(
            &db,
            "select name from User where uid in (select uid from Tweet where location = 'CA') order by name",
        );
        let names: Vec<String> = out.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["Alice", "Bob"]);
    }

    #[test]
    fn exists_correlated() {
        let db = db();
        let out = run(
            &db,
            "select name from User U where exists (select 1 from Tweet T where T.uid = U.uid and T.location = 'WA')",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::str("Bob"));
    }

    #[test]
    fn not_exists() {
        let db = db();
        let out = run(
            &db,
            "select name from User U where not exists (select 1 from Tweet T where T.uid = U.uid) order by name",
        );
        let names: Vec<String> = out.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["Anna"]);
    }

    #[test]
    fn scalar_subquery_correlated() {
        let db = db();
        // Users whose age exceeds the average age.
        let out = run(
            &db,
            "select name from User where age > (select avg(age) from User) order by name",
        );
        let names: Vec<String> = out.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["Bob"]); // avg = 25.5
    }

    #[test]
    fn derived_table() {
        let db = db();
        let out = run(
            &db,
            "select avg(c) from (select uid, count(*) as c from Tweet group by uid) as t",
        );
        assert_eq!(out.rows[0][0], Value::Float(4.0 / 3.0));
    }

    #[test]
    fn table_override_substitutes_rows() {
        let db = db();
        let plan = plan_select(
            &parse_select("select count(*) from User where gender = 'f'").unwrap(),
            &db,
        )
        .unwrap();
        let singleton: Vec<Row> = vec![vec![9.into(), "Zoe".into(), "f".into(), 33.into()]];
        let user_idx = db.table_index("User").unwrap();
        let ctx = ExecContext::with_override(&db, user_idx, &singleton);
        let out = execute(&plan, &ctx).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(1)]]);
    }

    // -- row patches -----------------------------------------------------------

    /// `sql` under `patch` on `table`, next to `sql` on a copy of `db` with
    /// the patched rows written in place — the two must be equal. Returns
    /// both with the unpatched output, so a caller can check the edit bit.
    fn patched_and_edited(
        db: &Database,
        table: &str,
        patch: &[(usize, Row)],
        sql: &str,
    ) -> (QueryOutput, QueryOutput) {
        let plan = plan_select(&parse_select(sql).unwrap(), db).unwrap();
        let t = db.table_index(table).unwrap();
        let patched = execute(&plan, &ExecContext::new(db).with_patch(t, patch)).unwrap();
        let mut edited = db.clone();
        for (i, row) in patch {
            edited.table_at_mut(t).rows[*i] = row.clone();
        }
        let direct = execute(&plan, &ExecContext::new(&edited)).unwrap();
        assert_eq!(patched, direct, "patch is not the edit for {sql}");
        (patched, execute(&plan, &ExecContext::new(db)).unwrap())
    }

    /// Asserts the patch equals the edit and changes `sql`'s output.
    fn check_patch(db: &Database, table: &str, patch: &[(usize, Row)], sql: &str) {
        let (patched, stored) = patched_and_edited(db, table, patch, sql);
        assert_ne!(patched, stored, "the patch must bite for {sql}");
    }

    fn user(uid: i64, name: &str, gender: &str, age: i64) -> Row {
        vec![uid.into(), name.into(), gender.into(), age.into()]
    }

    fn tweet(tid: i64, uid: i64, location: &str) -> Row {
        vec![tid.into(), uid.into(), location.into()]
    }

    #[test]
    fn patch_is_seen_by_prefiltered_and_unfiltered_scans() {
        let db = db();
        let alice_at_30 = [(1, user(2, "Alice", "f", 30))];
        check_patch(
            &db,
            "User",
            &alice_at_30,
            "select name from User where age > 20",
        );
        check_patch(&db, "User", &alice_at_30, "select name, age from User");
    }

    #[test]
    fn patch_is_seen_on_both_join_sides_and_in_a_cartesian_product() {
        let db = db();
        let join = "select name, location from User, Tweet where User.uid = Tweet.uid";
        // User starts the greedy join (probe side); Tweet is hashed.
        check_patch(&db, "Tweet", &[(0, tweet(1, 4, "CA"))], join);
        check_patch(&db, "User", &[(2, user(3, "Rob", "m", 45))], join);
        let product = "select name, location from User, Tweet";
        check_patch(&db, "Tweet", &[(3, tweet(4, 2, "NV"))], product);
        check_patch(&db, "User", &[(0, user(1, "Jon", "m", 25))], product);
    }

    #[test]
    fn patch_is_seen_by_both_bindings_of_a_self_join() {
        let db = db();
        check_patch(
            &db,
            "User",
            &[(1, user(2, "Alice", "m", 13))],
            "select a.name, b.name from User a, User b where a.gender = b.gender and a.uid < b.uid",
        );
    }

    #[test]
    fn patch_is_seen_inside_derived_tables_and_subqueries() {
        let db = db();
        check_patch(
            &db,
            "Tweet",
            &[(0, tweet(1, 4, "CA"))],
            "select avg(c) from (select uid, count(*) as c from Tweet group by uid) as t",
        );
        check_patch(
            &db,
            "Tweet",
            &[(1, tweet(2, 3, "CA"))],
            "select name from User U where exists \
             (select 1 from Tweet T where T.uid = U.uid and T.location = 'WA')",
        );
        check_patch(
            &db,
            "Tweet",
            &[(3, tweet(4, 2, "OR"))],
            "select name from User U where U.uid in \
             (select T.uid from Tweet T where T.uid = U.uid and T.location = 'CA')",
        );
        // The scalar subquery scans the patched table the outer block scans.
        check_patch(
            &db,
            "User",
            &[(1, user(2, "Alice", "f", 40))],
            "select name from User U where age > \
             (select avg(age) from User V where V.gender = U.gender)",
        );
    }

    #[test]
    fn a_swap_inside_a_group_keeps_its_float_sum() {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "F",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("grp", DataType::Str),
                    ColumnDef::new("x", DataType::Float),
                ],
                &["id"],
            ),
            [(0, "a", 0.1), (1, "a", 0.2), (2, "a", 0.3), (3, "b", 1.0)]
                .into_iter()
                .map(|(id, g, x)| vec![Value::Int(id), g.into(), Value::Float(x)])
                .collect::<Vec<_>>(),
        );
        // Swapping x between rows 0 and 2 keeps group a's bag, so it keeps
        // the sum: the double nearest the exact 0.1 + 0.2 + 0.3, which is
        // 0.6 — where a left fold gives 0.6000000000000001 in one row order
        // and 0.6 in the other.
        let swap = [
            (0, vec![Value::Int(0), "a".into(), Value::Float(0.3)]),
            (2, vec![Value::Int(2), "a".into(), Value::Float(0.1)]),
        ];
        let sql = "select grp, sum(x) from F group by grp order by grp";
        let (patched, stored) = patched_and_edited(&db, "F", &swap, sql);
        let bits = |out: &QueryOutput| match out.rows[0][1] {
            Value::Float(f) => f.to_bits(),
            ref other => panic!("float sum expected, got {other:?}"),
        };
        assert_eq!(bits(&patched), 0.6f64.to_bits());
        assert_eq!(bits(&stored), 0.6f64.to_bits());
    }

    #[test]
    fn malformed_patch_or_override_rows_are_typed_errors() {
        let db = db();
        let plan = plan_select(&parse_select("select name from User").unwrap(), &db).unwrap();
        let short: Vec<Row> = vec![vec![9.into()]];
        let run = |ctx: ExecContext<'_>| execute(&plan, &ctx).unwrap_err();
        let narrow = [(1, vec![Value::Int(2)])];
        let unsorted = [(2, user(3, "Bob", "m", 45)), (1, user(2, "Al", "f", 13))];
        let beyond = [(4, user(5, "Eve", "f", 30))];
        for err in [
            run(ExecContext::with_override(&db, 0, &short)),
            run(ExecContext::new(&db).with_patch(0, &narrow)),
            run(ExecContext::new(&db).with_patch(0, &unsorted)),
            run(ExecContext::new(&db).with_patch(0, &beyond)),
        ] {
            assert!(matches!(err, EngineError::Internal(_)), "got {err:?}");
        }
    }

    #[test]
    fn count_distinct() {
        let db = db();
        let out = run(&db, "select count(distinct location) from Tweet");
        assert_eq!(out.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn case_expression() {
        let db = db();
        let out = run(
            &db,
            "select sum(case when gender = 'm' then 1 else 0 end) from User",
        );
        assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn like_in_where() {
        let db = db();
        let out = run(&db, "select count(*) from User where name like 'A%'");
        assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn between() {
        let db = db();
        let out = run(&db, "select count(*) from User where age between 13 and 25");
        assert_eq!(out.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn no_from_select() {
        let db = db();
        let out = run(&db, "select 40 + 2");
        assert_eq!(out.rows, vec![vec![Value::Int(42)]]);
    }

    #[test]
    fn group_key_null_handling() {
        let mut db = db();
        db.table_mut("User").unwrap().set_cell(0, 2, Value::Null);
        let out = run(&db, "select gender, count(*) from User group by gender");
        // NULL forms its own group.
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn join_on_null_never_matches() {
        let mut db = db();
        db.table_mut("Tweet").unwrap().set_cell(0, 1, Value::Null);
        let out = run(
            &db,
            "select count(*) from User, Tweet where User.uid = Tweet.uid",
        );
        assert_eq!(out.rows, vec![vec![Value::Int(3)]]);
    }

    // -- budget enforcement --------------------------------------------------

    fn run_budgeted(db: &Database, sql: &str, budget: ExecBudget) -> Result<QueryOutput> {
        let plan = plan_select(&parse_select(sql).unwrap(), db).unwrap();
        execute(&plan, &ExecContext::new(db).with_budget(budget))
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let db = db();
        let sql = "select count(*) from User, Tweet where User.uid = Tweet.uid";
        let plain = run(&db, sql);
        let budgeted = run_budgeted(&db, sql, ExecBudget::UNLIMITED).unwrap();
        assert_eq!(plain.rows, budgeted.rows);
    }

    #[test]
    fn row_cap_trips_on_join() {
        let db = db();
        let err = run_budgeted(
            &db,
            "select * from User, Tweet",
            ExecBudget::default().with_max_rows(6),
        )
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::BudgetExceeded {
                resource: BudgetResource::Rows,
                limit: 6,
            }
        );
    }

    #[test]
    fn generous_row_cap_does_not_trip() {
        let db = db();
        let out = run_budgeted(
            &db,
            "select name from User where age > 18",
            ExecBudget::default().with_max_rows(1000),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn memory_cap_trips_on_cartesian_product() {
        let db = db();
        let err = run_budgeted(
            &db,
            "select * from User, Tweet",
            ExecBudget::default().with_max_bytes(64),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::BudgetExceeded {
                    resource: BudgetResource::Memory,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let db = db();
        let err = run_budgeted(
            &db,
            "select count(*) from User",
            ExecBudget::default().with_timeout(Duration::ZERO),
        )
        .unwrap_err();
        assert!(err.is_budget_exceeded(), "got {err:?}");
        assert!(
            matches!(
                err,
                EngineError::BudgetExceeded {
                    resource: BudgetResource::WallClock,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn budget_meter_reports_consumption() {
        let db = db();
        let plan = plan_select(&parse_select("select name from User").unwrap(), &db).unwrap();
        let ctx = ExecContext::new(&db).with_budget(ExecBudget::default().with_max_rows(100));
        execute(&plan, &ctx).unwrap();
        // 4 scanned rows widened + 4 projected rows.
        assert_eq!(ctx.rows_charged(), 8);
        assert!(ctx.bytes_charged() > 0);
    }

    // -- the sweep-scoped scan memo ---------------------------------------

    fn planned(db: &Database, sql: &str) -> ResolvedSelect {
        plan_select(&parse_select(sql).unwrap(), db).unwrap()
    }

    /// Bitwise image of an output: `Debug` tells `Int(4)` from `Float(4.0)`.
    fn bits(out: &QueryOutput) -> String {
        format!("{out:?}")
    }

    const SHARED: [&str; 5] = [
        "select name, location from User, Tweet where User.uid = Tweet.uid and age > 18",
        "select name, location from Tweet, User where Tweet.uid = User.uid and location <> 'WA'",
        "select gender, count(*) from User, Tweet where User.uid = Tweet.uid group by gender",
        "select name from User where exists \
         (select 1 from Tweet where Tweet.uid = User.uid and location = 'CA')",
        "select a.name, b.name from User a, User b where a.age < b.age",
    ];

    /// A second execution borrows what the first stored, and both return
    /// exactly what a memo-free execution returns.
    #[test]
    fn shared_scans_return_what_a_fresh_scan_builds() {
        let db = db();
        let scans = SweepScans::new(&db);
        for sql in SHARED {
            let plan = planned(&db, sql);
            let alone = bits(&execute(&plan, &ExecContext::new(&db)).unwrap());
            for _ in 0..2 {
                let ctx = ExecContext::new(&db).with_scans(Some(&scans));
                assert_eq!(bits(&execute(&plan, &ctx).unwrap()), alone, "{sql}");
            }
        }
        assert!(scans.len() > 0);
        assert!(scans.reuses() >= SHARED.len() as u64, "{}", scans.reuses());
    }

    /// The patched or overridden table is read as the context says; only
    /// the other relation comes from the memo.
    #[test]
    fn a_patched_table_is_never_shared() {
        let db = db();
        let scans = SweepScans::new(&db);
        let sql = SHARED[0];
        let plan = planned(&db, sql);
        execute(&plan, &ExecContext::new(&db).with_scans(Some(&scans))).unwrap();
        let stored = scans.len();
        let patch = [(1, user(2, "Alice", "f", 30))];
        let rows = [tweet(9, 2, "NV")];
        let user_t = db.table_index("User").unwrap();
        let tweet_t = db.table_index("Tweet").unwrap();
        let check = |ctx: ExecContext<'_>| {
            let alone = bits(&execute(&plan, &ctx).unwrap());
            let reuses = scans.reuses();
            let shared = ctx.with_scans(Some(&scans));
            assert_eq!(bits(&execute(&plan, &shared).unwrap()), alone);
            assert!(scans.reuses() > reuses, "the other relation is shared");
        };
        // The patched run joins in the base run's order: it borrows
        // `Tweet`'s index and stores nothing for `User`.
        check(ExecContext::new(&db).with_patch(user_t, &patch));
        assert_eq!(scans.len(), stored);
        check(ExecContext::with_override(&db, tweet_t, &rows));
    }

    /// A memo answers only executions on the database it was built from.
    #[test]
    fn a_memo_bound_to_another_database_is_ignored() {
        let a = db();
        let mut b = db();
        b.table_at_mut(0).rows[0][3] = 99.into();
        let scans = SweepScans::new(&a);
        for sql in SHARED {
            let plan = planned(&a, sql);
            execute(&plan, &ExecContext::new(&a).with_scans(Some(&scans))).unwrap();
            let stored = (scans.len(), scans.reuses());
            let alone = bits(&execute(&plan, &ExecContext::new(&b)).unwrap());
            let ctx = ExecContext::new(&b).with_scans(Some(&scans));
            assert_eq!(bits(&execute(&plan, &ctx).unwrap()), alone, "{sql}");
            assert_eq!((scans.len(), scans.reuses()), stored, "{sql}");
        }
    }

    /// Under a budget the memo is neither read nor filled: every row is
    /// charged where a memo-free execution charges it.
    #[test]
    fn a_budgeted_execution_never_touches_the_memo() {
        let db = db();
        let scans = SweepScans::new(&db);
        let plan = planned(&db, SHARED[0]);
        execute(&plan, &ExecContext::new(&db).with_scans(Some(&scans))).unwrap();
        let stored = (scans.len(), scans.reuses());
        let budget = ExecBudget::default().with_max_rows(1000);
        let alone = ExecContext::new(&db).with_budget(budget);
        let out = execute(&plan, &alone).unwrap();
        let shared = ExecContext::new(&db)
            .with_budget(budget)
            .with_scans(Some(&scans));
        assert_eq!(bits(&execute(&plan, &shared).unwrap()), bits(&out));
        assert_eq!(shared.rows_charged(), alone.rows_charged());
        assert_eq!((scans.len(), scans.reuses()), stored);
    }

    /// An eval error in a prefilter or a build key propagates as without
    /// the memo and leaves nothing behind.
    #[test]
    fn an_eval_error_stores_nothing() {
        let mut db = db();
        db.table_at_mut(0).rows[2][3] = "boom".into();
        for sql in [
            "select name from User where age + 1 > 18",
            "select location from Tweet, User where Tweet.uid = User.uid + age",
        ] {
            let plan = planned(&db, sql);
            let alone = execute(&plan, &ExecContext::new(&db)).unwrap_err();
            let scans = SweepScans::new(&db);
            let ctx = ExecContext::new(&db).with_scans(Some(&scans));
            let err = execute(&plan, &ctx).unwrap_err();
            assert_eq!(format!("{err:?}"), format!("{alone:?}"), "{sql}");
            assert_eq!(scans.len(), 0, "{sql}");
        }
    }
}
