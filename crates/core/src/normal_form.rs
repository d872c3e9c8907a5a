//! Query-shape analysis for the disagreement optimizer (§4).
//!
//! A prepared query is classified into one of three shapes:
//!
//! * [`Shape::Spj`] — a select-project-join block without self-joins,
//!   subqueries, `DISTINCT`, `LIMIT`, or aggregation: eligible for
//!   Algorithm 4/6 static checks and §4.2 batching;
//! * [`Shape::Agg`] — `γ_{G, agg…}(SPJ core)` without `HAVING`, `LIMIT`, or
//!   `DISTINCT` aggregates: eligible for Algorithm 5;
//! * [`Shape::Opaque`] — anything else: priced by re-executing the query per
//!   support instance (Algorithms 1–3 verbatim).
//!
//! Shape extraction happens once per query at prepare time; it derives the
//! auxiliary plans the optimizer executes:
//!
//! * the **keyed query** `Q̂` projecting every base relation's primary key —
//!   one execution per pricing call yields the *contributing tuple* sets
//!   (line 7 of Algorithm 4, line 9 of Algorithm 5);
//! * per-relation **probe plans** with a synthetic trailing `upid` column —
//!   the widened `R⁺` relation of §4.2 over which batched dynamic checks
//!   run;
//! * for aggregates, the **group table** `(group key → aggregate values)`
//!   and the **unrolled probe** projecting group keys and aggregate
//!   arguments.
//!
//! All agreement in this crate is **bag agreement of the projected rows**:
//! the fingerprint ignores display order (`ORDER BY` cannot change content
//! without changing the bag), matching the paper's `h(Q(D))` treatment.

use qirana_sqlengine::plan::Projection;
use qirana_sqlengine::{Database, EngineError, Fingerprint, PExpr, PRelation, ResolvedSelect};
use std::collections::HashSet;

/// A query prepared for pricing.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Original SQL text.
    pub sql: String,
    /// The resolved plan, executed verbatim for answers and naive pricing.
    pub plan: ResolvedSelect,
    /// The optimizer shape.
    pub shape: Shape,
    /// Structural fingerprint of `plan` — the key under which
    /// [`crate::cache::PricingCache`] memoizes this query's pricing
    /// artifacts. Two SQL strings resolving to the same plan share it.
    pub plan_fp: Fingerprint,
}

/// Optimizer classification of a query.
#[derive(Debug, Clone)]
pub enum Shape {
    /// SPJ normal form `π_A σ_C (R₁ × … × R_ℓ)`.
    Spj(Box<SpjShape>),
    /// Aggregate normal form `γ_{G, aggs}(SPJ core)`.
    Agg(Box<AggShape>),
    /// No normal form; priced naively. Carries the set of base tables the
    /// query (transitively) references so untouched relations still short-
    /// circuit to "agrees".
    Opaque { referenced_tables: HashSet<usize> },
}

/// Per-base-relation metadata shared by both shapes.
#[derive(Debug, Clone)]
pub struct RelShape {
    /// Position in `plan.relations`.
    pub rel_idx: usize,
    /// Catalog table index.
    pub table: usize,
    /// Slot offset of the relation within the joined row.
    pub offset: usize,
    /// Relation arity (original, before any `upid` widening).
    pub arity: usize,
    /// Primary-key column indices in the table schema.
    pub pk_cols: Vec<usize>,
    /// WHERE conjuncts that reference only this relation, rebased to
    /// local (0-based) slots — the `C[u]` of Algorithm 4's static check.
    pub local_condition: Vec<PExpr>,
    /// Local columns the query reads at all (filter + output expressions).
    /// An update confined to other columns is *irrelevant* — the query
    /// cannot observe it (Blakeley et al.'s irrelevant-update test, which
    /// §6 cites as the inspiration for the static checks).
    pub referenced_cols: HashSet<usize>,
    /// Local columns appearing in WHERE conjuncts that span more than one
    /// relation. An update avoiding these preserves every tuple's join
    /// multiplicity, unlocking the exact aggregate delta analysis.
    pub join_cols: HashSet<usize>,
    /// Probe plan with this relation widened by a trailing `upid` column,
    /// projecting the original output columns plus `upid` (§4.2). The
    /// `upid` is the last projection.
    pub probe: ResolvedSelect,
}

/// SPJ shape (Algorithm 4/6 + batching).
#[derive(Debug, Clone)]
pub struct SpjShape {
    /// The keyed query `Q̂`: same FROM/WHERE, projecting all primary keys.
    pub keyed: ResolvedSelect,
    /// Output-column ranges of each relation's key within `keyed`.
    pub keyed_ranges: Vec<std::ops::Range<usize>>,
    /// Per-relation shapes, in FROM order.
    pub relations: Vec<RelShape>,
    /// Global slots projected *verbatim* (bare `Slot` projections) — the
    /// `A` of the exact `B ∩ A ≠ ∅` static disagreement for row updates.
    pub identity_projected_slots: HashSet<usize>,
}

/// Aggregate shape (Algorithm 5).
#[derive(Debug, Clone)]
pub struct AggShape {
    /// The keyed query over the unrolled core (same FROM/WHERE).
    pub keyed: ResolvedSelect,
    /// Output-column ranges of each relation's key within `keyed`.
    pub keyed_ranges: Vec<std::ops::Range<usize>>,
    /// Per-relation shapes. `RelShape::probe` here is the *unrolled* probe:
    /// it projects the group-key expressions, then the aggregate argument
    /// expressions, then `upid`.
    pub relations: Vec<RelShape>,
    /// The group table plan: `SELECT group keys, agg values ... GROUP BY`.
    pub group_table: ResolvedSelect,
    /// Number of group-by expressions.
    pub num_group_keys: usize,
    /// For each aggregate spec `j`, the index of its argument among the
    /// probe's argument columns (`None` for `COUNT(*)`).
    pub agg_arg_cols: Vec<Option<usize>>,
    /// Global slots referenced by the group-key expressions — the `G` of
    /// Algorithm 5's `B ∩ G` check.
    pub group_slots: HashSet<usize>,
    /// True iff the query computes `COUNT(*)`, which makes several static
    /// checks exact (any row movement changes a count).
    pub has_count_star: bool,
    /// Aggregate functions, aligned with `agg_arg_cols`.
    pub agg_funcs: Vec<qirana_sqlengine::ast::AggFunc>,
    /// Per relation (by `rel_idx`): the group-key expressions rebased to
    /// that relation's local slots, when *every* group expression reads
    /// only that relation — then a tuple's group is a pure function of the
    /// tuple and group-key movement can be decided statically.
    pub local_group_exprs: Vec<Option<Vec<PExpr>>>,
    /// Index (within a group-cache value vector) of the hidden `COUNT(*)`
    /// bookkeeping aggregate appended to `group_table`.
    pub hidden_count_col: usize,
    /// For each visible aggregate `j` with an argument, the index of its
    /// hidden `COUNT(arg)` (non-null count) bookkeeping column.
    pub hidden_nonnull_cols: Vec<Option<usize>>,
}

impl Prepared {
    /// Base tables touched by the query (for the "relation not in query"
    /// short-circuit, valid for every shape).
    pub fn referenced_tables(&self) -> HashSet<usize> {
        match &self.shape {
            Shape::Spj(s) => s.relations.iter().map(|r| r.table).collect(),
            Shape::Agg(s) => s.relations.iter().map(|r| r.table).collect(),
            Shape::Opaque { referenced_tables } => referenced_tables.clone(),
        }
    }
}

/// Prepares a SQL query for pricing: parse, plan, classify.
pub fn prepare_query(db: &Database, sql: &str) -> Result<Prepared, EngineError> {
    let plan = qirana_sqlengine::prepare(db, sql)?;
    let shape = classify(db, &plan);
    let plan_fp = plan_fingerprint(&plan);
    Ok(Prepared {
        sql: sql.to_string(),
        plan,
        shape,
        plan_fp,
    })
}

/// Structural fingerprint of a resolved plan, used as the pricing-cache
/// key. The plan's `Debug` rendering is a deterministic structural
/// serialization (plan nodes hold no hash-ordered containers), streamed
/// through two independently seeded splitmix64 lanes — no intermediate
/// string is materialized. A collision would price one query as another,
/// but at 128 bits the birthday bound across any realistic number of
/// distinct plans is negligible (same argument as the output fingerprints
/// in `qirana-sqlengine`).
pub fn plan_fingerprint(plan: &ResolvedSelect) -> Fingerprint {
    use std::fmt::Write;

    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    struct Lanes {
        lo: u64,
        hi: u64,
        pending: u64,
        filled: u32,
    }

    impl Lanes {
        fn word(&mut self, w: u64) {
            self.lo = mix(self.lo ^ w);
            self.hi = mix(self.hi.rotate_left(29) ^ w.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        }
    }

    impl Write for Lanes {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.pending |= u64::from(b) << (8 * self.filled);
                self.filled += 1;
                if self.filled == 8 {
                    let w = self.pending;
                    self.pending = 0;
                    self.filled = 0;
                    self.word(w);
                }
            }
            Ok(())
        }
    }

    let mut lanes = Lanes {
        lo: 0x9e37_79b9_7f4a_7c15,
        hi: 0x85eb_ca6b_c2b2_ae35,
        pending: 0,
        filled: 0,
    };
    // Infallible: Lanes::write_str never errors.
    let _ = write!(&mut lanes, "{plan:?}");
    // Length-tagged tail word so "ab" + empty tail and "a" + "b" differ.
    let tail = lanes.pending | (u64::from(lanes.filled) + 1) << 56;
    lanes.word(tail);
    Fingerprint((u128::from(lanes.hi) << 64) | u128::from(lanes.lo))
}

/// Collects every base table referenced by a plan, descending into derived
/// tables and subqueries.
pub fn referenced_tables(plan: &ResolvedSelect) -> HashSet<usize> {
    let mut out = HashSet::new();
    collect_tables(plan, &mut out);
    out
}

fn collect_tables(plan: &ResolvedSelect, out: &mut HashSet<usize>) {
    for rel in &plan.relations {
        match rel {
            PRelation::Base { table, .. } => {
                out.insert(*table);
            }
            PRelation::Derived { plan, .. } => collect_tables(plan, out),
        }
    }
    let exprs = plan
        .filter
        .iter()
        .chain(plan.group_by.iter())
        .chain(plan.aggregates.iter().filter_map(|a| a.arg.as_ref()))
        .chain(plan.having.iter())
        .chain(plan.projections.iter().map(|p| &p.expr))
        .chain(plan.order_by.iter().map(|(e, _)| e));
    for e in exprs {
        collect_expr_tables(e, out);
    }
}

fn collect_expr_tables(e: &PExpr, out: &mut HashSet<usize>) {
    match e {
        PExpr::InSubquery { expr, plan, .. } => {
            collect_expr_tables(expr, out);
            collect_tables(plan, out);
        }
        PExpr::Exists { plan, .. } | PExpr::ScalarSubquery(plan) => collect_tables(plan, out),
        other => other.walk(&mut |sub| {
            // walk doesn't descend into subqueries, so recurse manually on
            // the subquery-bearing nodes it surfaces.
            match sub {
                PExpr::InSubquery { plan, .. }
                | PExpr::Exists { plan, .. }
                | PExpr::ScalarSubquery(plan) => collect_tables(plan, out),
                _ => {}
            }
        }),
    }
}

/// Classifies a plan into its optimizer shape.
pub fn classify(db: &Database, plan: &ResolvedSelect) -> Shape {
    let opaque = || Shape::Opaque {
        referenced_tables: referenced_tables(plan),
    };

    // Structural exclusions shared by both normal forms.
    if plan.relations.is_empty() || plan.has_subquery() || plan.distinct || plan.limit.is_some() {
        return opaque();
    }
    let mut tables = Vec::new();
    for rel in &plan.relations {
        match rel {
            PRelation::Base { table, .. } => tables.push(*table),
            PRelation::Derived { .. } => return opaque(),
        }
    }
    // Self-joins are outside the paper's optimized class.
    let mut uniq = tables.clone();
    uniq.sort_unstable();
    uniq.dedup();
    if uniq.len() != tables.len() {
        return opaque();
    }
    // Primary keys per relation: needed to identify tuples.
    let pk_cols: Vec<Vec<usize>> = tables
        .iter()
        .map(|&t| db.table_at(t).schema.primary_key.clone())
        .collect();
    if pk_cols.iter().any(|p| p.is_empty()) {
        return opaque();
    }

    if !plan.grouped {
        return classify_spj(plan, &tables, &pk_cols);
    }

    // Aggregate shape exclusions.
    if plan.having.is_some() || plan.aggregates.iter().any(|a| a.distinct) {
        return opaque();
    }
    classify_agg(plan, &tables, &pk_cols)
}

/// Builds the keyed plan (project all primary keys) plus per-relation output
/// ranges.
fn build_keyed(
    plan: &ResolvedSelect,
    db_free_pks: &[Vec<usize>],
) -> (ResolvedSelect, Vec<std::ops::Range<usize>>) {
    let mut keyed = plan.clone();
    keyed.grouped = false;
    keyed.group_by.clear();
    keyed.aggregates.clear();
    keyed.having = None;
    keyed.distinct = false;
    keyed.order_by.clear();
    keyed.limit = None;
    keyed.projections.clear();
    let mut ranges = Vec::with_capacity(db_free_pks.len());
    for (rel_idx, pks) in db_free_pks.iter().enumerate() {
        let start = keyed.projections.len();
        for &pk in pks {
            keyed.projections.push(Projection {
                expr: PExpr::Slot(plan.offsets[rel_idx] + pk),
                name: format!("pk_{rel_idx}_{pk}"),
            });
        }
        ranges.push(start..keyed.projections.len());
    }
    (keyed, ranges)
}

/// Extracts the per-relation local WHERE conjuncts, rebased to local slots.
fn local_conditions(plan: &ResolvedSelect) -> Vec<Vec<PExpr>> {
    let n = plan.relations.len();
    let mut out = vec![Vec::new(); n];
    let Some(filter) = plan.filter.clone() else {
        return out;
    };
    for c in filter.conjuncts() {
        if c.has_subquery() {
            continue;
        }
        let mut slots = Vec::new();
        c.collect_slots(&mut slots);
        if slots.is_empty() {
            continue;
        }
        // `offsets` always contains 0, so every slot has a home relation.
        #[allow(clippy::unwrap_used)]
        let rel_of = |s: usize| plan.offsets.iter().rposition(|&o| o <= s).unwrap(); // qirana-lint::allow(QL007): offsets[0] == 0 gives every slot a home
        let first = rel_of(slots[0]);
        if slots.iter().all(|&s| rel_of(s) == first) {
            let mut local = c.clone();
            let offset = plan.offsets[first];
            local.map_slots(&mut |s| s - offset);
            out[first].push(local);
        }
    }
    out
}

/// `plan` with relation `rel_idx` widened by a trailing `upid` column that
/// is also projected last — the `R⁺` of §4.2, over which one execution
/// answers for every update batched into the relation's override rows.
pub(crate) fn widened(plan: &ResolvedSelect, rel_idx: usize) -> ResolvedSelect {
    let mut probe = plan.clone();
    let upid = probe.append_column(rel_idx);
    probe.projections.push(Projection {
        expr: PExpr::Slot(upid),
        name: "upid".into(),
    });
    probe
}

fn rel_shapes(
    plan: &ResolvedSelect,
    tables: &[usize],
    pk_cols: &[Vec<usize>],
    probe_template: &ResolvedSelect,
) -> Vec<RelShape> {
    let locals = local_conditions(plan);

    // Global slots the template reads (filter + output expressions). The
    // template's projections already include group keys and aggregate
    // arguments for the aggregate shape.
    let mut read_slots: Vec<usize> = Vec::new();
    if let Some(f) = &probe_template.filter {
        f.collect_slots(&mut read_slots);
    }
    for p in &probe_template.projections {
        p.expr.collect_slots(&mut read_slots);
    }

    // Global slots appearing in conjuncts that span multiple relations.
    let mut multi_rel_slots: Vec<usize> = Vec::new();
    if let Some(f) = plan.filter.clone() {
        // `offsets` always contains 0, so every slot has a home relation.
        #[allow(clippy::unwrap_used)]
        let rel_of = |s: usize| plan.offsets.iter().rposition(|&o| o <= s).unwrap(); // qirana-lint::allow(QL007): offsets[0] == 0 gives every slot a home
        for c in f.conjuncts() {
            if c.has_subquery() {
                continue;
            }
            let mut slots = Vec::new();
            c.collect_slots(&mut slots);
            if let Some(&first) = slots.first() {
                if slots.iter().any(|&s| rel_of(s) != rel_of(first)) {
                    multi_rel_slots.extend(slots);
                }
            }
        }
    }

    tables
        .iter()
        .enumerate()
        .map(|(rel_idx, &table)| {
            let probe = widened(probe_template, rel_idx);
            let offset = plan.offsets[rel_idx];
            let arity = plan.relations[rel_idx].arity();
            let referenced_cols: HashSet<usize> = read_slots
                .iter()
                .filter(|&&s| s >= offset && s < offset + arity)
                .map(|&s| s - offset)
                .collect();
            let join_cols: HashSet<usize> = multi_rel_slots
                .iter()
                .filter(|&&s| s >= offset && s < offset + arity)
                .map(|&s| s - offset)
                .collect();
            RelShape {
                rel_idx,
                table,
                offset,
                arity,
                pk_cols: pk_cols[rel_idx].clone(),
                local_condition: locals[rel_idx].clone(),
                referenced_cols,
                join_cols,
                probe,
            }
        })
        .collect()
}

fn classify_spj(plan: &ResolvedSelect, tables: &[usize], pk_cols: &[Vec<usize>]) -> Shape {
    let (keyed, keyed_ranges) = build_keyed(plan, pk_cols);

    // Probe plan: the original projection, bag-compared (order dropped).
    let mut probe_template = plan.clone();
    probe_template.order_by.clear();

    let relations = rel_shapes(plan, tables, pk_cols, &probe_template);

    // Slots projected verbatim — exact `B ∩ A` carrier for row updates.
    let identity_projected_slots: HashSet<usize> = plan
        .projections
        .iter()
        .filter_map(|p| match &p.expr {
            PExpr::Slot(s) => Some(*s),
            _ => None,
        })
        .collect();

    Shape::Spj(Box::new(SpjShape {
        keyed,
        keyed_ranges,
        relations,
        identity_projected_slots,
    }))
}

fn classify_agg(plan: &ResolvedSelect, tables: &[usize], pk_cols: &[Vec<usize>]) -> Shape {
    let (keyed, keyed_ranges) = build_keyed(plan, pk_cols);

    // Group table: group keys followed by every aggregate's value.
    let mut group_table = plan.clone();
    group_table.having = None;
    group_table.order_by.clear();
    group_table.limit = None;
    group_table.distinct = false;
    group_table.projections = plan
        .group_by
        .iter()
        .enumerate()
        .map(|(i, g)| Projection {
            expr: g.clone(),
            name: format!("g{i}"),
        })
        .collect();
    for (j, _) in plan.aggregates.iter().enumerate() {
        group_table.projections.push(Projection {
            expr: PExpr::AggRef(j),
            name: format!("agg{j}"),
        });
    }

    // Hidden bookkeeping aggregates: group row count + per-argument
    // non-null counts, consumed by the exact delta analyses in
    // `crate::optimized` (they decide NULL transitions and group
    // disappearance without rerunning the query).
    let hidden_count_col = group_table.aggregates.len();
    group_table
        .aggregates
        .push(qirana_sqlengine::plan::AggSpec {
            func: qirana_sqlengine::ast::AggFunc::Count,
            arg: None,
            distinct: false,
        });
    group_table.projections.push(Projection {
        expr: PExpr::AggRef(hidden_count_col),
        name: "_rows".into(),
    });
    let mut hidden_nonnull_cols = Vec::with_capacity(plan.aggregates.len());
    for spec in &plan.aggregates {
        match &spec.arg {
            Some(a) => {
                let idx = group_table.aggregates.len();
                group_table
                    .aggregates
                    .push(qirana_sqlengine::plan::AggSpec {
                        func: qirana_sqlengine::ast::AggFunc::Count,
                        arg: Some(a.clone()),
                        distinct: false,
                    });
                group_table.projections.push(Projection {
                    expr: PExpr::AggRef(idx),
                    name: format!("_nn{idx}"),
                });
                hidden_nonnull_cols.push(Some(idx));
            }
            None => hidden_nonnull_cols.push(None),
        }
    }

    // Unrolled probe template: group keys then aggregate arguments, as a
    // plain SPJ projection (arguments are row-context expressions).
    let mut unrolled = plan.clone();
    unrolled.grouped = false;
    unrolled.group_by.clear();
    unrolled.aggregates.clear();
    unrolled.having = None;
    unrolled.order_by.clear();
    unrolled.limit = None;
    unrolled.distinct = false;
    unrolled.projections = plan
        .group_by
        .iter()
        .enumerate()
        .map(|(i, g)| Projection {
            expr: g.clone(),
            name: format!("g{i}"),
        })
        .collect();
    let mut agg_arg_cols = Vec::with_capacity(plan.aggregates.len());
    let mut next_arg = 0usize;
    for spec in &plan.aggregates {
        match &spec.arg {
            Some(a) => {
                unrolled.projections.push(Projection {
                    expr: a.clone(),
                    name: format!("arg{next_arg}"),
                });
                agg_arg_cols.push(Some(next_arg));
                next_arg += 1;
            }
            None => agg_arg_cols.push(None),
        }
    }

    let relations = rel_shapes(plan, tables, pk_cols, &unrolled);

    let mut group_slots = HashSet::new();
    for g in &plan.group_by {
        let mut slots = Vec::new();
        g.collect_slots(&mut slots);
        group_slots.extend(slots);
    }

    let has_count_star = plan
        .aggregates
        .iter()
        .any(|a| a.func == qirana_sqlengine::ast::AggFunc::Count && a.arg.is_none());

    let local_group_exprs = relations
        .iter()
        .map(|rel| {
            let in_rel = |s: usize| s >= rel.offset && s < rel.offset + rel.arity;
            let all_local = plan.group_by.iter().all(|g| {
                let mut slots = Vec::new();
                g.collect_slots(&mut slots);
                slots.iter().all(|&s| in_rel(s))
            });
            if !all_local {
                return None;
            }
            Some(
                plan.group_by
                    .iter()
                    .map(|g| {
                        let mut local = g.clone();
                        local.map_slots(&mut |s| s - rel.offset);
                        local
                    })
                    .collect(),
            )
        })
        .collect();

    Shape::Agg(Box::new(AggShape {
        keyed,
        keyed_ranges,
        relations,
        group_table,
        num_group_keys: plan.group_by.len(),
        agg_arg_cols,
        group_slots,
        has_count_star,
        agg_funcs: plan.aggregates.iter().map(|a| a.func).collect(),
        local_group_exprs,
        hidden_count_col,
        hidden_nonnull_cols,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qirana_sqlengine::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "User",
                vec![
                    ColumnDef::new("uid", DataType::Int),
                    ColumnDef::new("gender", DataType::Str),
                    ColumnDef::new("age", DataType::Int),
                ],
                &["uid"],
            ),
            vec![
                vec![1.into(), "m".into(), 25.into()],
                vec![2.into(), "f".into(), 13.into()],
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
            vec![vec![1.into(), 1.into(), "CA".into()]],
        );
        db
    }

    #[test]
    fn spj_classification() {
        let db = db();
        let p = prepare_query(&db, "select name_x from User where age > 3").err();
        assert!(p.is_some(), "unknown column should fail to plan");
        let p = prepare_query(
            &db,
            "select gender from User U, Tweet T where U.uid = T.uid and T.location = 'CA' and age > 18",
        )
        .unwrap();
        let Shape::Spj(s) = &p.shape else {
            panic!("expected SPJ, got {:?}", p.shape)
        };
        assert_eq!(s.relations.len(), 2);
        // keyed projects uid then tid.
        assert_eq!(s.keyed.projections.len(), 2);
        assert_eq!(s.keyed_ranges, vec![0..1, 1..2]);
        // gender is identity-projected (slot 1 of User).
        assert!(s.identity_projected_slots.contains(&1));
        // local condition on User: age > 18, rebased to local slot 2.
        assert_eq!(s.relations[0].local_condition.len(), 1);
        // local condition on Tweet: location = 'CA'.
        assert_eq!(s.relations[1].local_condition.len(), 1);
        // probe for User carries upid as last projection.
        assert_eq!(
            s.relations[0].probe.projections.last().unwrap().name,
            "upid"
        );
    }

    #[test]
    fn agg_classification() {
        let db = db();
        let p = prepare_query(
            &db,
            "select gender, count(*), avg(age) from User group by gender",
        )
        .unwrap();
        let Shape::Agg(a) = &p.shape else {
            panic!("expected Agg, got {:?}", p.shape)
        };
        assert!(a.has_count_star);
        assert_eq!(a.num_group_keys, 1);
        assert_eq!(a.agg_arg_cols, vec![None, Some(0)]);
        assert!(a.group_slots.contains(&1));
        // group table: gender, count, avg, plus hidden row count and the
        // avg argument's non-null count.
        assert_eq!(a.group_table.projections.len(), 5);
        assert_eq!(a.hidden_count_col, 2);
        assert_eq!(a.hidden_nonnull_cols, vec![None, Some(3)]);
        // unrolled probe projects gender, age, upid.
        assert_eq!(a.relations[0].probe.projections.len(), 3);
    }

    #[test]
    fn opaque_cases() {
        let db = db();
        for sql in [
            "select distinct gender from User",
            "select gender from User limit 1",
            "select gender, count(*) as c from User group by gender having c > 1",
            "select count(distinct gender) from User",
            "select uid from User where uid in (select uid from Tweet)",
            "select avg(c) from (select uid, count(*) as c from Tweet group by uid) as t",
            "select 1",
            "select A.uid from User A, User B where A.uid = B.uid",
        ] {
            let p = prepare_query(&db, sql).unwrap();
            assert!(
                matches!(p.shape, Shape::Opaque { .. }),
                "{sql} should be opaque"
            );
        }
    }

    #[test]
    fn opaque_tracks_referenced_tables_through_subqueries() {
        let db = db();
        let p = prepare_query(
            &db,
            "select uid from User where uid in (select uid from Tweet)",
        )
        .unwrap();
        let refs = p.referenced_tables();
        assert!(refs.contains(&0) && refs.contains(&1));
    }

    #[test]
    fn order_by_does_not_block_shapes() {
        let db = db();
        let p = prepare_query(&db, "select gender from User order by age").unwrap();
        assert!(matches!(p.shape, Shape::Spj(_)));
        let p = prepare_query(
            &db,
            "select gender, count(*) from User group by gender order by gender",
        )
        .unwrap();
        assert!(matches!(p.shape, Shape::Agg(_)));
    }

    #[test]
    fn plan_fingerprint_is_structural() {
        let db = db();
        let a = prepare_query(&db, "select gender from User where age > 18").unwrap();
        let b = prepare_query(&db, "SELECT   gender FROM User WHERE age > 18").unwrap();
        let c = prepare_query(&db, "select gender from User where age > 19").unwrap();
        let d = prepare_query(&db, "select age from User where age > 18").unwrap();
        assert_eq!(a.plan_fp, b.plan_fp, "same plan, same key");
        assert_ne!(a.plan_fp, c.plan_fp, "different constant, different key");
        assert_ne!(a.plan_fp, d.plan_fp, "different projection, different key");
    }

    #[test]
    fn probe_upid_slot_is_past_relation() {
        let db = db();
        let p = prepare_query(
            &db,
            "select location from User U, Tweet T where U.uid = T.uid",
        )
        .unwrap();
        let Shape::Spj(s) = &p.shape else { panic!() };
        // User and Tweet both have 3 columns; widening User (rel 0) shifts
        // Tweet's slots by 1.
        let probe = &s.relations[0].probe;
        assert_eq!(probe.offsets, vec![0, 4]);
        assert_eq!(probe.width, 7);
        // location was global slot 5, now 6.
        assert_eq!(probe.projections[0].expr, PExpr::Slot(6));
        // upid occupies User's new trailing slot 3.
        assert_eq!(probe.projections[1].expr, PExpr::Slot(3));
    }
}
