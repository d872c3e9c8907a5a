//! Name resolution: turns a parsed [`SelectStmt`] into an executable
//! [`ResolvedSelect`] where every column reference is a slot index into the
//! joined row.
//!
//! The resolved form is deliberately *open* (public fields, slot-rewriting
//! helpers): QIRANA's pricing optimizer programmatically derives variant
//! queries from it — the key-augmented query `Q̂`, unrolled aggregates `Q°γ`,
//! and the batch queries of §4.2 which extend one relation with a synthetic
//! `upid` column.

use crate::ast::{AggFunc, BinaryOp, Expr, SelectItem, SelectStmt, TableRef, UnaryOp};
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::value::Value;

/// A resolved (planned) SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedSelect {
    /// Relations in FROM order.
    pub relations: Vec<PRelation>,
    /// Slot offset of each relation within the joined row.
    pub offsets: Vec<usize>,
    /// Total width of the joined row.
    pub width: usize,
    /// WHERE predicate (join + selection conditions), if any.
    pub filter: Option<PExpr>,
    /// Group-key expressions (row context).
    pub group_by: Vec<PExpr>,
    /// Aggregate calls extracted from the select list / HAVING / ORDER BY.
    pub aggregates: Vec<AggSpec>,
    /// True iff execution needs a grouping phase (GROUP BY or aggregates).
    pub grouped: bool,
    /// HAVING predicate (aggregate context).
    pub having: Option<PExpr>,
    /// Output columns.
    pub projections: Vec<Projection>,
    /// SELECT DISTINCT.
    pub distinct: bool,
    /// Sort keys (aggregate context when grouped) and direction (asc=true).
    pub order_by: Vec<(PExpr, bool)>,
    /// Row-count cap applied last.
    pub limit: Option<u64>,
}

/// One relation of the FROM clause after resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum PRelation {
    /// A base table, by catalog index.
    Base {
        table: usize,
        binding: String,
        arity: usize,
    },
    /// A derived table with its own resolved plan.
    Derived {
        plan: Box<ResolvedSelect>,
        binding: String,
        arity: usize,
    },
}

impl PRelation {
    /// Number of slots this relation contributes.
    pub fn arity(&self) -> usize {
        match self {
            PRelation::Base { arity, .. } | PRelation::Derived { arity, .. } => *arity,
        }
    }

    /// The binding name of the relation in the query.
    pub fn binding(&self) -> &str {
        match self {
            PRelation::Base { binding, .. } | PRelation::Derived { binding, .. } => binding,
        }
    }
}

/// An output column.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    pub expr: PExpr,
    pub name: String,
}

/// One aggregate computation for the grouping phase.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// `None` means `COUNT(*)`.
    pub arg: Option<PExpr>,
    pub distinct: bool,
}

/// A resolved scalar expression. Slots index into the joined row; `AggRef`
/// indexes into the per-group aggregate results and may only appear in
/// post-aggregation expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    Literal(Value),
    Interval {
        months: i64,
        days: i64,
    },
    Slot(usize),
    /// Correlated reference to an enclosing query's row; `depth` counts
    /// outward (0 = nearest enclosing query).
    OuterSlot {
        depth: usize,
        slot: usize,
    },
    AggRef(usize),
    Unary {
        op: UnaryOp,
        expr: Box<PExpr>,
    },
    Binary {
        left: Box<PExpr>,
        op: BinaryOp,
        right: Box<PExpr>,
    },
    Like {
        expr: Box<PExpr>,
        pattern: String,
        negated: bool,
    },
    Between {
        expr: Box<PExpr>,
        low: Box<PExpr>,
        high: Box<PExpr>,
        negated: bool,
    },
    InList {
        expr: Box<PExpr>,
        list: Vec<PExpr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<PExpr>,
        plan: Box<ResolvedSelect>,
        negated: bool,
    },
    Exists {
        plan: Box<ResolvedSelect>,
        negated: bool,
    },
    ScalarSubquery(Box<ResolvedSelect>),
    IsNull {
        expr: Box<PExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<PExpr>>,
        branches: Vec<(PExpr, PExpr)>,
        else_expr: Option<Box<PExpr>>,
    },
}

impl PExpr {
    /// Splits a predicate into its top-level conjuncts.
    pub fn conjuncts(self) -> Vec<PExpr> {
        match self {
            PExpr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Rebuilds a conjunction from conjuncts; `None` for an empty list.
    pub fn conjoin(mut parts: Vec<PExpr>) -> Option<PExpr> {
        let mut acc = parts.pop()?;
        while let Some(p) = parts.pop() {
            acc = PExpr::Binary {
                left: Box::new(p),
                op: BinaryOp::And,
                right: Box::new(acc),
            };
        }
        Some(acc)
    }

    /// Collects the row slots (depth-0 only) referenced by this expression.
    pub fn collect_slots(&self, out: &mut Vec<usize>) {
        self.walk(&mut |e| {
            if let PExpr::Slot(s) = e {
                out.push(*s);
            }
        });
    }

    /// Pre-order traversal of this expression (not descending into
    /// subquery plans; their slots live in a different frame).
    pub fn walk(&self, f: &mut impl FnMut(&PExpr)) {
        f(self);
        match self {
            PExpr::Literal(_)
            | PExpr::Interval { .. }
            | PExpr::Slot(_)
            | PExpr::OuterSlot { .. }
            | PExpr::AggRef(_) => {}
            PExpr::Unary { expr, .. } | PExpr::Like { expr, .. } | PExpr::IsNull { expr, .. } => {
                expr.walk(f)
            }
            PExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            PExpr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            PExpr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            PExpr::InSubquery { expr, .. } => expr.walk(f),
            PExpr::Exists { .. } | PExpr::ScalarSubquery(_) => {}
            PExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
        }
    }

    /// True iff this expression contains a subquery plan.
    pub fn has_subquery(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(
                e,
                PExpr::InSubquery { .. } | PExpr::Exists { .. } | PExpr::ScalarSubquery(_)
            ) {
                found = true;
            }
        });
        found
    }

    /// Rewrites every depth-0 slot through `f`. Used by the batching
    /// optimizer when a relation's arity grows.
    ///
    /// # Panics
    /// Panics if the expression contains a subquery (the optimizer only
    /// rewrites subquery-free plans; a subquery's `OuterSlot`s would need
    /// coordinated shifting).
    #[allow(clippy::panic)] // documented: callers rewrite subquery-free plans
    pub fn map_slots(&mut self, f: &mut impl FnMut(usize) -> usize) {
        match self {
            PExpr::Slot(s) => *s = f(*s),
            PExpr::Literal(_)
            | PExpr::Interval { .. }
            | PExpr::OuterSlot { .. }
            | PExpr::AggRef(_) => {}
            PExpr::Unary { expr, .. } | PExpr::Like { expr, .. } | PExpr::IsNull { expr, .. } => {
                expr.map_slots(f)
            }
            PExpr::Binary { left, right, .. } => {
                left.map_slots(f);
                right.map_slots(f);
            }
            PExpr::Between {
                expr, low, high, ..
            } => {
                expr.map_slots(f);
                low.map_slots(f);
                high.map_slots(f);
            }
            PExpr::InList { expr, list, .. } => {
                expr.map_slots(f);
                for e in list {
                    e.map_slots(f);
                }
            }
            PExpr::InSubquery { .. } | PExpr::Exists { .. } | PExpr::ScalarSubquery(_) => {
                panic!("map_slots on an expression containing a subquery") // qirana-lint::allow(QL007): documented contract; planners strip subqueries before slot mapping
            }
            PExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.map_slots(f);
                }
                for (w, t) in branches {
                    w.map_slots(f);
                    t.map_slots(f);
                }
                if let Some(e) = else_expr {
                    e.map_slots(f);
                }
            }
        }
    }
}

impl ResolvedSelect {
    /// Applies a slot rewrite to every expression of this plan.
    pub fn map_slots(&mut self, f: &mut impl FnMut(usize) -> usize) {
        if let Some(e) = &mut self.filter {
            e.map_slots(f);
        }
        for e in &mut self.group_by {
            e.map_slots(f);
        }
        for a in &mut self.aggregates {
            if let Some(e) = &mut a.arg {
                e.map_slots(f);
            }
        }
        if let Some(e) = &mut self.having {
            e.map_slots(f);
        }
        for p in &mut self.projections {
            p.expr.map_slots(f);
        }
        for (e, _) in &mut self.order_by {
            e.map_slots(f);
        }
    }

    /// Grows relation `rel` by one trailing column, shifting all slots that
    /// follow it. Returns the global slot index of the new column. The
    /// caller must supply override rows of the widened arity at execution.
    pub fn append_column(&mut self, rel: usize) -> usize {
        let insert_at = self.offsets[rel] + self.relations[rel].arity();
        match &mut self.relations[rel] {
            PRelation::Base { arity, .. } | PRelation::Derived { arity, .. } => *arity += 1,
        }
        for o in self.offsets.iter_mut().skip(rel + 1) {
            *o += 1;
        }
        self.width += 1;
        self.map_slots(&mut |s| if s >= insert_at { s + 1 } else { s });
        insert_at
    }

    /// True iff any expression in the plan contains a subquery.
    pub fn has_subquery(&self) -> bool {
        let exprs = self
            .filter
            .iter()
            .chain(self.group_by.iter())
            .chain(self.aggregates.iter().filter_map(|a| a.arg.as_ref()))
            .chain(self.having.iter())
            .chain(self.projections.iter().map(|p| &p.expr))
            .chain(self.order_by.iter().map(|(e, _)| e));
        for e in exprs {
            if e.has_subquery() {
                return true;
            }
        }
        self.relations
            .iter()
            .any(|r| matches!(r, PRelation::Derived { .. }))
    }
}

// ---------------------------------------------------------------------------
// Decorrelation
// ---------------------------------------------------------------------------

/// True iff any expression inside `plan` references a row more than `level`
/// scopes above it (i.e. escapes the plan and depends on the current row).
pub fn plan_escapes(plan: &ResolvedSelect, level: usize) -> bool {
    let exprs = plan
        .filter
        .iter()
        .chain(plan.group_by.iter())
        .chain(plan.aggregates.iter().filter_map(|a| a.arg.as_ref()))
        .chain(plan.having.iter())
        .chain(plan.projections.iter().map(|p| &p.expr))
        .chain(plan.order_by.iter().map(|(e, _)| e));
    for e in exprs {
        if expr_escapes(e, level) {
            return true;
        }
    }
    false
}

/// [`plan_escapes`] for one expression of a plan at nesting `level`.
pub fn expr_escapes(e: &PExpr, level: usize) -> bool {
    match e {
        PExpr::OuterSlot { depth, .. } => *depth >= level,
        PExpr::Literal(_) | PExpr::Interval { .. } | PExpr::Slot(_) | PExpr::AggRef(_) => false,
        PExpr::Unary { expr, .. } | PExpr::Like { expr, .. } | PExpr::IsNull { expr, .. } => {
            expr_escapes(expr, level)
        }
        PExpr::Binary { left, right, .. } => {
            expr_escapes(left, level) || expr_escapes(right, level)
        }
        PExpr::Between {
            expr, low, high, ..
        } => expr_escapes(expr, level) || expr_escapes(low, level) || expr_escapes(high, level),
        PExpr::InList { expr, list, .. } => {
            expr_escapes(expr, level) || list.iter().any(|e| expr_escapes(e, level))
        }
        PExpr::InSubquery { expr, plan, .. } => {
            expr_escapes(expr, level) || plan_escapes(plan, level + 1)
        }
        PExpr::Exists { plan, .. } => plan_escapes(plan, level + 1),
        PExpr::ScalarSubquery(plan) => plan_escapes(plan, level + 1),
        PExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            operand.as_deref().is_some_and(|o| expr_escapes(o, level))
                || branches
                    .iter()
                    .any(|(w, t)| expr_escapes(w, level) || expr_escapes(t, level))
                || else_expr.as_deref().is_some_and(|e| expr_escapes(e, level))
        }
    }
}

/// A correlated subquery reducible to one keyed index build.
///
/// Applies when the *only* reference to enclosing rows is a single
/// equality conjunct `inner_expr = OuterSlot{depth: 0}`. TPC-H Q4's
/// `EXISTS (… WHERE l_orderkey = o_orderkey …)` and Q17's
/// `(SELECT 0.2 * avg(l_quantity) … WHERE l2.l_partkey = p_partkey)` both
/// fit; without this rewrite every outer row rescans the inner relation.
/// The executor builds its subquery indexes from this form, and the
/// pricing layer's shape analysis reads the same form, so the two agree
/// on what "decorrelatable" means.
#[derive(Debug)]
pub struct Decorrelated {
    /// The subquery with the correlated conjunct removed (no outer refs).
    pub inner: ResolvedSelect,
    /// Key expression over the subquery's own joined row.
    pub inner_key: PExpr,
    /// The parent-row slot the removed conjunct compared against.
    pub outer_slot: usize,
}

/// Rewrites a correlated subquery into [`Decorrelated`] form, or `None` if
/// it has a `LIMIT` or references enclosing rows other than through one
/// equality conjunct.
pub fn decorrelate(plan: &ResolvedSelect) -> Option<Decorrelated> {
    if plan.limit.is_some() {
        return None; // LIMIT interacts with per-key row counts
    }
    let filter = plan.filter.clone()?;
    let conjuncts = filter.conjuncts();
    let mut found: Option<(usize, PExpr, usize)> = None;
    for (i, c) in conjuncts.iter().enumerate() {
        let PExpr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        let pick = |inner: &PExpr, outer: &PExpr| -> Option<(PExpr, usize)> {
            if let PExpr::OuterSlot { depth: 0, slot } = outer {
                if !expr_escapes(inner, 0) && !inner.has_subquery() {
                    return Some((inner.clone(), *slot));
                }
            }
            None
        };
        if let Some((k, s)) = pick(left, right).or_else(|| pick(right, left)) {
            found = Some((i, k, s));
            break;
        }
    }
    let (idx, inner_key, outer_slot) = found?;
    let mut rest = conjuncts;
    rest.remove(idx);
    let mut inner = plan.clone();
    inner.filter = PExpr::conjoin(rest);
    // Everything else must be outer-free, or the rewrite is unsound.
    if plan_escapes(&inner, 0) {
        return None;
    }
    Some(Decorrelated {
        inner,
        inner_key,
        outer_slot,
    })
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

/// Recursively replaces unqualified column references that match a
/// select-list alias with the aliased expression (MySQL-style alias
/// visibility in GROUP BY / HAVING / ORDER BY). Does not descend into
/// subqueries, whose names resolve in their own scope first.
fn substitute_aliases(e: &Expr, aliases: &[(String, &Expr)]) -> Expr {
    let sub = |x: &Expr| substitute_aliases(x, aliases);
    match e {
        Expr::Column {
            table: None,
            column,
        } => {
            for (a, target) in aliases {
                if a.eq_ignore_ascii_case(column) {
                    return (*target).clone();
                }
            }
            e.clone()
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(sub(expr)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(sub(left)),
            op: *op,
            right: Box::new(sub(right)),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(sub(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(sub(expr)),
            low: Box::new(sub(low)),
            high: Box::new(sub(high)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(sub(expr)),
            list: list.iter().map(sub).collect(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(sub(expr)),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(sub(o))),
            branches: branches.iter().map(|(w, t)| (sub(w), sub(t))).collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(sub(x))),
        },
        Expr::Agg {
            func,
            arg,
            distinct,
        } => Expr::Agg {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(sub(a))),
            distinct: *distinct,
        },
        // Subqueries and leaves pass through unchanged.
        _ => e.clone(),
    }
}

/// One name scope: the FROM bindings of a single SELECT.
#[derive(Debug, Clone)]
struct Scope {
    bindings: Vec<Binding>,
}

#[derive(Debug, Clone)]
struct Binding {
    name: String,
    columns: Vec<String>,
    offset: usize,
}

impl Scope {
    /// Resolves `table.column` / `column` to a slot. Errors on ambiguity.
    fn resolve(&self, table: Option<&str>, column: &str) -> Result<Option<usize>> {
        let mut found = None;
        for b in &self.bindings {
            if let Some(t) = table {
                if !b.name.eq_ignore_ascii_case(t) {
                    continue;
                }
            }
            if let Some(ci) = b
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(column))
            {
                if found.is_some() {
                    return Err(EngineError::plan(format!(
                        "ambiguous column reference {column}"
                    )));
                }
                found = Some(b.offset + ci);
            }
        }
        Ok(found)
    }
}

/// The most relations one query block may list in its FROM clause: the
/// executor tracks which relations a join has bound in a `u64` mask.
pub const MAX_RELATIONS: usize = 64;

/// Plans a SELECT against a database.
pub fn plan_select(stmt: &SelectStmt, db: &Database) -> Result<ResolvedSelect> {
    Resolver { db }.resolve_select(stmt, &[])
}

struct Resolver<'a> {
    db: &'a Database,
}

/// Expression-resolution context.
struct ExprCtx<'s> {
    /// Innermost scope first? No: `scopes[0]` is the *current* scope,
    /// followed by enclosing scopes outward.
    scopes: &'s [Scope],
    /// When `Some`, aggregate calls are allowed and register here.
    aggregates: Option<&'s mut Vec<AggSpec>>,
}

impl<'a> Resolver<'a> {
    fn resolve_select(&self, stmt: &SelectStmt, outer: &[Scope]) -> Result<ResolvedSelect> {
        if stmt.from.len() > MAX_RELATIONS {
            return Err(EngineError::plan(format!(
                "{} relations in one FROM clause; at most {MAX_RELATIONS} are supported",
                stmt.from.len()
            )));
        }
        // 1. FROM clause: build relations and the current scope.
        let mut relations = Vec::new();
        let mut offsets = Vec::new();
        let mut bindings = Vec::new();
        let mut width = 0usize;
        for tref in &stmt.from {
            let (rel, columns) = match tref {
                TableRef::Table { name, alias } => {
                    let idx = self
                        .db
                        .table_index(name)
                        .ok_or_else(|| EngineError::plan(format!("unknown table {name}")))?;
                    let schema = &self.db.table_at(idx).schema;
                    let cols: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
                    (
                        PRelation::Base {
                            table: idx,
                            binding: alias.clone().unwrap_or_else(|| name.clone()),
                            arity: schema.arity(),
                        },
                        cols,
                    )
                }
                TableRef::Derived { query, alias } => {
                    // Derived tables are uncorrelated (no LATERAL), so they
                    // resolve against an empty outer chain.
                    let plan = self.resolve_select(query, &[])?;
                    let cols: Vec<String> =
                        plan.projections.iter().map(|p| p.name.clone()).collect();
                    let arity = cols.len();
                    (
                        PRelation::Derived {
                            plan: Box::new(plan),
                            binding: alias.clone(),
                            arity,
                        },
                        cols,
                    )
                }
            };
            let binding_name = rel.binding().to_string();
            if bindings
                .iter()
                .any(|b: &Binding| b.name.eq_ignore_ascii_case(&binding_name))
            {
                return Err(EngineError::plan(format!(
                    "duplicate relation binding {binding_name} (self-joins need distinct aliases)"
                )));
            }
            offsets.push(width);
            bindings.push(Binding {
                name: binding_name,
                columns,
                offset: width,
            });
            width += rel.arity();
            relations.push(rel);
        }
        let scope = Scope { bindings };
        // scope chain: current first, then outer scopes outward.
        let mut chain = Vec::with_capacity(outer.len() + 1);
        chain.push(scope);
        chain.extend(outer.iter().cloned());

        // 2. WHERE (row context; aggregates forbidden).
        let filter = match &stmt.where_clause {
            Some(e) => {
                if e.contains_aggregate() {
                    return Err(EngineError::plan("aggregates are not allowed in WHERE"));
                }
                Some(self.resolve_expr(
                    e,
                    &mut ExprCtx {
                        scopes: &chain,
                        aggregates: None,
                    },
                )?)
            }
            None => None,
        };

        // 3. Select-list aliases, usable in GROUP BY / HAVING / ORDER BY.
        let aliases: Vec<(String, &Expr)> = stmt
            .projection
            .iter()
            .filter_map(|it| match it {
                SelectItem::Expr {
                    expr,
                    alias: Some(a),
                } => Some((a.clone(), expr)),
                _ => None,
            })
            .collect();
        let dealias = |e: &Expr| -> Expr { substitute_aliases(e, &aliases) };

        // 4. Grouping decision.
        let any_agg = stmt
            .projection
            .iter()
            .any(|it| matches!(it, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || stmt
                .having
                .as_ref()
                .is_some_and(|h| dealias(h).contains_aggregate())
            || stmt
                .order_by
                .iter()
                .any(|k| dealias(&k.expr).contains_aggregate());
        let grouped = any_agg || !stmt.group_by.is_empty();
        if stmt.having.is_some() && !grouped {
            return Err(EngineError::plan("HAVING requires GROUP BY or aggregates"));
        }

        let mut aggregates: Vec<AggSpec> = Vec::new();

        // 5. GROUP BY keys (row context).
        let mut group_by = Vec::new();
        for g in &stmt.group_by {
            let g = dealias(g);
            if g.contains_aggregate() {
                return Err(EngineError::plan("aggregates are not allowed in GROUP BY"));
            }
            group_by.push(self.resolve_expr(
                &g,
                &mut ExprCtx {
                    scopes: &chain,
                    aggregates: None,
                },
            )?);
        }

        // 6. Projections.
        let mut projections = Vec::new();
        for (i, item) in stmt.projection.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for b in &chain[0].bindings {
                        for (ci, cname) in b.columns.iter().enumerate() {
                            projections.push(Projection {
                                expr: PExpr::Slot(b.offset + ci),
                                name: cname.clone(),
                            });
                        }
                    }
                    if grouped {
                        return Err(EngineError::plan(
                            "SELECT * cannot be combined with aggregation",
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    let b = chain[0]
                        .bindings
                        .iter()
                        .find(|b| b.name.eq_ignore_ascii_case(t))
                        .ok_or_else(|| {
                            EngineError::plan(format!("unknown relation {t} in {t}.*"))
                        })?;
                    for (ci, cname) in b.columns.iter().enumerate() {
                        projections.push(Projection {
                            expr: PExpr::Slot(b.offset + ci),
                            name: cname.clone(),
                        });
                    }
                    if grouped {
                        return Err(EngineError::plan(
                            "SELECT t.* cannot be combined with aggregation",
                        ));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let pexpr = self.resolve_expr(
                        expr,
                        &mut ExprCtx {
                            scopes: &chain,
                            aggregates: if grouped { Some(&mut aggregates) } else { None },
                        },
                    )?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column { column, .. } => column.clone(),
                        _ => format!("expr{i}"),
                    });
                    projections.push(Projection { expr: pexpr, name });
                }
            }
        }

        // 7. HAVING (aggregate context).
        let having = match &stmt.having {
            Some(h) => {
                let h = dealias(h);
                Some(self.resolve_expr(
                    &h,
                    &mut ExprCtx {
                        scopes: &chain,
                        aggregates: Some(&mut aggregates),
                    },
                )?)
            }
            None => None,
        };

        // 8. ORDER BY.
        let mut order_by = Vec::new();
        for k in &stmt.order_by {
            let e = dealias(&k.expr);
            let pe = self.resolve_expr(
                &e,
                &mut ExprCtx {
                    scopes: &chain,
                    aggregates: if grouped { Some(&mut aggregates) } else { None },
                },
            )?;
            order_by.push((pe, k.asc));
        }

        Ok(ResolvedSelect {
            relations,
            offsets,
            width,
            filter,
            group_by,
            aggregates,
            grouped,
            having,
            projections,
            distinct: stmt.distinct,
            order_by,
            limit: stmt.limit,
        })
    }

    fn resolve_expr(&self, e: &Expr, ctx: &mut ExprCtx<'_>) -> Result<PExpr> {
        Ok(match e {
            Expr::Literal(v) => PExpr::Literal(v.clone()),
            Expr::Interval { months, days } => PExpr::Interval {
                months: *months,
                days: *days,
            },
            Expr::Column { table, column } => {
                // Current scope first, then outward for correlation.
                for (depth, scope) in ctx.scopes.iter().enumerate() {
                    if let Some(slot) = scope.resolve(table.as_deref(), column)? {
                        return Ok(if depth == 0 {
                            PExpr::Slot(slot)
                        } else {
                            PExpr::OuterSlot {
                                depth: depth - 1,
                                slot,
                            }
                        });
                    }
                }
                return Err(EngineError::plan(format!(
                    "unknown column {}{column}",
                    table
                        .as_deref()
                        .map(|t| format!("{t}."))
                        .unwrap_or_default()
                )));
            }
            Expr::Unary { op, expr } => PExpr::Unary {
                op: *op,
                expr: Box::new(self.resolve_expr(expr, ctx)?),
            },
            Expr::Binary { left, op, right } => PExpr::Binary {
                left: Box::new(self.resolve_expr(left, ctx)?),
                op: *op,
                right: Box::new(self.resolve_expr(right, ctx)?),
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => PExpr::Like {
                expr: Box::new(self.resolve_expr(expr, ctx)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => PExpr::Between {
                expr: Box::new(self.resolve_expr(expr, ctx)?),
                low: Box::new(self.resolve_expr(low, ctx)?),
                high: Box::new(self.resolve_expr(high, ctx)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => PExpr::InList {
                expr: Box::new(self.resolve_expr(expr, ctx)?),
                list: list
                    .iter()
                    .map(|e| self.resolve_expr(e, ctx))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let plan = self.resolve_select(subquery, ctx.scopes)?;
                if plan.projections.len() != 1 {
                    return Err(EngineError::plan("IN subquery must return one column"));
                }
                PExpr::InSubquery {
                    expr: Box::new(self.resolve_expr(expr, ctx)?),
                    plan: Box::new(plan),
                    negated: *negated,
                }
            }
            Expr::Exists { subquery, negated } => PExpr::Exists {
                plan: Box::new(self.resolve_select(subquery, ctx.scopes)?),
                negated: *negated,
            },
            Expr::ScalarSubquery(subquery) => {
                let plan = self.resolve_select(subquery, ctx.scopes)?;
                if plan.projections.len() != 1 {
                    return Err(EngineError::plan("scalar subquery must return one column"));
                }
                PExpr::ScalarSubquery(Box::new(plan))
            }
            Expr::IsNull { expr, negated } => PExpr::IsNull {
                expr: Box::new(self.resolve_expr(expr, ctx)?),
                negated: *negated,
            },
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => PExpr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.resolve_expr(o, ctx).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((self.resolve_expr(w, ctx)?, self.resolve_expr(t, ctx)?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr
                    .as_ref()
                    .map(|e| self.resolve_expr(e, ctx).map(Box::new))
                    .transpose()?,
            },
            Expr::Agg {
                func,
                arg,
                distinct,
            } => {
                let arg_resolved = match arg {
                    Some(a) => {
                        if a.contains_aggregate() {
                            return Err(EngineError::plan("nested aggregates are not allowed"));
                        }
                        // Aggregate arguments are row-context expressions.
                        Some(self.resolve_expr(
                            a,
                            &mut ExprCtx {
                                scopes: ctx.scopes,
                                aggregates: None,
                            },
                        )?)
                    }
                    None => None,
                };
                let spec = AggSpec {
                    func: *func,
                    arg: arg_resolved,
                    distinct: *distinct,
                };
                let aggs = ctx.aggregates.as_deref_mut().ok_or_else(|| {
                    EngineError::plan("aggregate call in a non-aggregate context")
                })?;
                let idx = match aggs.iter().position(|s| *s == spec) {
                    Some(i) => i,
                    None => {
                        aggs.push(spec);
                        aggs.len() - 1
                    }
                };
                PExpr::AggRef(idx)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
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
            vec![],
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
            vec![],
        );
        db
    }

    fn plan(sql: &str) -> ResolvedSelect {
        plan_select(&parse_select(sql).unwrap(), &db()).unwrap()
    }

    #[test]
    fn wildcard_expansion() {
        let p = plan("select * from User");
        assert_eq!(p.projections.len(), 4);
        assert_eq!(p.projections[0].name, "uid");
        assert_eq!(p.projections[0].expr, PExpr::Slot(0));
        assert_eq!(p.width, 4);
    }

    #[test]
    fn join_slots_offset() {
        let p = plan("select Tweet.uid from User, Tweet where User.uid = Tweet.uid");
        assert_eq!(p.offsets, vec![0, 4]);
        assert_eq!(p.width, 7);
        assert_eq!(p.projections[0].expr, PExpr::Slot(5));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let err =
            plan_select(&parse_select("select uid from User, Tweet").unwrap(), &db()).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(plan_select(&parse_select("select x from User").unwrap(), &db()).is_err());
        assert!(plan_select(&parse_select("select 1 from Nope").unwrap(), &db()).is_err());
    }

    #[test]
    fn aggregates_extracted_and_deduped() {
        let p = plan("select gender, count(*), count(*) from User group by gender");
        assert!(p.grouped);
        assert_eq!(p.aggregates.len(), 1, "identical aggregates share a spec");
        assert_eq!(p.projections[1].expr, PExpr::AggRef(0));
        assert_eq!(p.projections[2].expr, PExpr::AggRef(0));
    }

    #[test]
    fn having_alias_resolution() {
        let p = plan("select gender, count(*) as c from User group by gender having c > 1");
        assert!(p.having.is_some());
        assert_eq!(p.aggregates.len(), 1);
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let err = plan_select(
            &parse_select("select 1 from User where count(*) > 1").unwrap(),
            &db(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("WHERE"));
    }

    #[test]
    fn correlated_subquery_outer_slot() {
        let p = plan(
            "select name from User U where exists (select 1 from Tweet T where T.uid = U.uid)",
        );
        let PExpr::Exists { plan: sub, .. } = p.filter.unwrap() else {
            panic!("expected EXISTS")
        };
        let f = format!("{:?}", sub.filter);
        assert!(f.contains("OuterSlot"), "correlated ref resolved: {f}");
    }

    #[test]
    fn duplicate_binding_rejected() {
        let err =
            plan_select(&parse_select("select 1 from User, User").unwrap(), &db()).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn append_column_shifts_slots() {
        let mut p = plan("select Tweet.location from User, Tweet where User.uid = Tweet.uid");
        let before = p.projections[0].expr.clone();
        assert_eq!(before, PExpr::Slot(6));
        let upid = p.append_column(0); // widen User
        assert_eq!(upid, 4);
        assert_eq!(p.offsets, vec![0, 5]);
        assert_eq!(p.width, 8);
        assert_eq!(p.projections[0].expr, PExpr::Slot(7));
        // Widening the *last* relation shifts nothing.
        let mut p2 = plan("select uid from User");
        let upid2 = p2.append_column(0);
        assert_eq!(upid2, 4);
        assert_eq!(p2.projections[0].expr, PExpr::Slot(0));
    }

    #[test]
    fn derived_table_columns_visible() {
        let p = plan(
            "select c from (select gender, count(*) as c from User group by gender) as g where c > 0",
        );
        assert!(matches!(p.relations[0], PRelation::Derived { .. }));
        assert_eq!(p.relations[0].arity(), 2);
        assert!(p.has_subquery());
    }

    #[test]
    fn conjunct_roundtrip() {
        let p = plan("select 1 from User where uid = 1 and age > 2 and gender = 'm'");
        let parts = p.filter.unwrap().conjuncts();
        assert_eq!(parts.len(), 3);
        let rebuilt = PExpr::conjoin(parts).unwrap();
        assert_eq!(rebuilt.conjuncts().len(), 3);
    }
}
