//! Query-shape analysis for the incremental evaluator ([`crate::delta`]).
//!
//! A prepared query is classified into one of three shapes:
//!
//! * [`Shape::Spj`] — a select-project-join block without self-joins,
//!   subqueries, `DISTINCT`, `LIMIT`, or aggregation;
//! * [`Shape::Agg`] — `γ_{G, agg…}(SPJ core)` without `HAVING`, `LIMIT`, or
//!   `DISTINCT` aggregates, whose `WHERE` may add top-level `[NOT] EXISTS`
//!   semi-joins over other tables;
//! * [`Shape::Opaque`] — anything else: priced by re-executing the query per
//!   support instance (Algorithms 1–3 verbatim).
//!
//! Shape extraction happens once per query at prepare time. Both normal
//! forms record each relation's column **footprint** — what the engine's
//! visibility test ([`crate::engine::visibility`]) intersects an update's
//! changed columns with. Neither needs a plan of its own beyond each
//! semi-join's inner key plan: the incremental evaluator derives its
//! `upid`-widened probes ([`widened`], the `R⁺` of §4.2) and an aggregate's
//! unrolled core from the plan at sweep time.
//!
//! All agreement in this crate is **bag agreement of the projected rows**:
//! the fingerprint ignores display order (`ORDER BY` cannot change content
//! without changing the bag), matching the paper's `h(Q(D))` treatment.

use qirana_sqlengine::ast::UnaryOp;
use qirana_sqlengine::plan::{decorrelate, Projection};
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
    /// Aggregate normal form `γ_{G, aggs}(SPJ core ⋉ semi-joins)`.
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
    /// Local columns the query reads at all: the filter and the output
    /// expressions, and for an aggregate shape also the group keys, the
    /// aggregate arguments and the sort keys — every raw slot an execution
    /// evaluates. An update confined to other columns is *irrelevant* — the
    /// query cannot observe it (Blakeley et al.'s irrelevant-update test,
    /// which §6 cites as the inspiration for Algorithm 4's static checks).
    pub referenced_cols: HashSet<usize>,
}

/// SPJ shape: the relations' footprints are all a sweep needs, as for
/// [`AggShape`].
#[derive(Debug, Clone)]
pub struct SpjShape {
    /// Per-relation shapes, in FROM order.
    pub relations: Vec<RelShape>,
}

/// Aggregate shape: the relations' footprints are all a sweep needs — the
/// incremental evaluator ([`crate::delta`]) works from the plan itself —
/// plus, for a block with top-level `[NOT] EXISTS` conjuncts, their
/// decorrelated semi-joins.
#[derive(Debug, Clone)]
pub struct AggShape {
    /// Per-relation shapes of the outer block, in FROM order.
    pub relations: Vec<RelShape>,
    /// One per `[NOT] EXISTS` conjunct of the outer `WHERE`, in conjunct
    /// order; empty for a subquery-free plan. The plan without these
    /// conjuncts is itself an aggregate shape.
    pub semi_joins: Vec<SemiJoin>,
}

/// A top-level `[NOT] EXISTS (… WHERE inner_key = outer_slot …)` conjunct,
/// decorrelated: an outer row passes iff `(count[key] > 0) != negated`,
/// where `count[k]` is the number of inner rows with key `k` and a NULL
/// outer key has count 0.
#[derive(Debug, Clone)]
pub struct SemiJoin {
    /// `NOT EXISTS`.
    pub negated: bool,
    /// Outer-row slot the correlation equality compares with.
    pub outer_slot: usize,
    /// The inner block without its correlation conjunct, projecting only
    /// the inner key (bag, not `DISTINCT`: the counts need multiplicity).
    pub keys: ResolvedSelect,
    /// Per-relation shapes of `keys`: its filter and key slots.
    pub relations: Vec<RelShape>,
}

impl AggShape {
    /// Every relation's footprint: the outer block's, then each semi-join's.
    pub fn footprints(&self) -> impl Iterator<Item = &RelShape> {
        self.relations
            .iter()
            .chain(self.semi_joins.iter().flat_map(|s| &s.relations))
    }
}

impl Prepared {
    /// Base tables touched by the query (for the "relation not in query"
    /// short-circuit, valid for every shape).
    pub fn referenced_tables(&self) -> HashSet<usize> {
        match &self.shape {
            Shape::Spj(s) => s.relations.iter().map(|r| r.table).collect(),
            Shape::Agg(s) => s.footprints().map(|r| r.table).collect(),
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

/// Classifies a plan into its optimizer shape. Only a plan with a subquery
/// pays for semi-join detection ([`semi_join_agg`]).
pub fn classify(db: &Database, plan: &ResolvedSelect) -> Shape {
    let shape = if plan.has_subquery() {
        semi_join_agg(db, plan)
    } else {
        normal_form(db, plan)
    };
    shape.unwrap_or_else(|| Shape::Opaque {
        referenced_tables: referenced_tables(plan),
    })
}

/// The shape of a subquery-free plan; `None` when it has no normal form.
fn normal_form(db: &Database, plan: &ResolvedSelect) -> Option<Shape> {
    // Structural exclusions shared by both normal forms.
    if plan.relations.is_empty() || plan.distinct || plan.limit.is_some() {
        return None;
    }
    let tables = base_tables(plan)?;
    // Self-joins are outside the paper's optimized class.
    if !all_distinct(tables.iter()) {
        return None;
    }
    // Every relation must have a primary key. No path reads the key any
    // more; the rule stays so that which plans have a normal form does not
    // move.
    if tables
        .iter()
        .any(|&t| db.table_at(t).schema.primary_key.is_empty())
    {
        return None;
    }

    if !plan.grouped {
        return Some(classify_spj(plan, &tables));
    }

    // Aggregate shape exclusions.
    if plan.having.is_some() || plan.aggregates.iter().any(|a| a.distinct) {
        return None;
    }
    Some(classify_agg(plan, &tables))
}

/// The catalog table of every relation, or `None` if one is derived.
fn base_tables(plan: &ResolvedSelect) -> Option<Vec<usize>> {
    plan.relations
        .iter()
        .map(|rel| match rel {
            PRelation::Base { table, .. } => Some(*table),
            PRelation::Derived { .. } => None,
        })
        .collect()
}

fn all_distinct<'a>(tables: impl Iterator<Item = &'a usize>) -> bool {
    let mut sorted: Vec<usize> = tables.copied().collect();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// A conjunct `[NOT] EXISTS (inner)` as `(inner, negated)`, else the
/// conjunct back. The parser spells `NOT EXISTS` as `NOT` over `EXISTS`;
/// `EXISTS` never yields NULL, so the two forms filter alike.
fn exists_conjunct(c: PExpr) -> Result<(ResolvedSelect, bool), PExpr> {
    match c {
        PExpr::Exists { plan, negated } => Ok((*plan, negated)),
        PExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => match *expr {
            PExpr::Exists { plan, negated } => Ok((*plan, !negated)),
            other => Err(PExpr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(other),
            }),
        },
        other => Err(other),
    }
}

/// An aggregate block whose `WHERE` holds top-level `[NOT] EXISTS`
/// conjuncts: `Agg` with one [`SemiJoin`] per conjunct, when
///
/// * each conjunct decorrelates by the executor's own rule
///   ([`decorrelate`]) over an SPJ inner block — no grouping, `DISTINCT`,
///   `LIMIT`, derived table or nested subquery;
/// * the plan without those conjuncts classifies as `Agg` by itself;
/// * no catalog table appears twice across the outer and inner blocks, so
///   a neighbor moves either the outer rows or one inner block's counts,
///   never both.
///
/// `None` for every other plan with a subquery: `IN`, scalar subqueries,
/// subqueries outside `WHERE`'s top-level conjuncts, SPJ blocks.
fn semi_join_agg(db: &Database, plan: &ResolvedSelect) -> Option<Shape> {
    if !plan.grouped {
        return None;
    }
    let mut stripped = plan.clone();
    let mut inners = Vec::new();
    let mut kept = Vec::new();
    for c in plan.filter.clone()?.conjuncts() {
        match exists_conjunct(c) {
            Ok(inner) => inners.push(inner),
            Err(other) => kept.push(other),
        }
    }
    stripped.filter = PExpr::conjoin(kept);
    if inners.is_empty() || stripped.has_subquery() {
        return None;
    }
    let Some(Shape::Agg(mut shape)) = normal_form(db, &stripped) else {
        return None;
    };
    for (inner, negated) in inners {
        let spj = !inner.grouped && inner.having.is_none() && !inner.distinct;
        if !spj || inner.relations.is_empty() || inner.has_subquery() {
            return None;
        }
        let dec = decorrelate(&inner)?;
        let mut keys = dec.inner;
        keys.projections = vec![Projection {
            expr: dec.inner_key,
            name: "k".into(),
        }];
        keys.order_by.clear();
        let tables = base_tables(&keys)?;
        let mut read_slots = Vec::new();
        for e in keys
            .filter
            .iter()
            .chain(keys.projections.iter().map(|p| &p.expr))
        {
            e.collect_slots(&mut read_slots);
        }
        let relations = rel_shapes(&keys, &tables, &read_slots);
        // The correlation column decides membership: it joins the outer
        // relation's footprint.
        let outer = shape
            .relations
            .iter_mut()
            .rfind(|r| r.offset <= dec.outer_slot)?;
        outer.referenced_cols.insert(dec.outer_slot - outer.offset);
        shape.semi_joins.push(SemiJoin {
            negated,
            outer_slot: dec.outer_slot,
            keys,
            relations,
        });
    }
    if !all_distinct(shape.footprints().map(|r| &r.table)) {
        return None;
    }
    Some(Shape::Agg(shape))
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

/// Per-relation shapes of `plan`; `read_slots` are the global slots the
/// query reads, each relation's share of which is its `referenced_cols`.
fn rel_shapes(plan: &ResolvedSelect, tables: &[usize], read_slots: &[usize]) -> Vec<RelShape> {
    tables
        .iter()
        .enumerate()
        .map(|(rel_idx, &table)| {
            let offset = plan.offsets[rel_idx];
            let arity = plan.relations[rel_idx].arity();
            let referenced_cols: HashSet<usize> = read_slots
                .iter()
                .filter(|&&s| s >= offset && s < offset + arity)
                .map(|&s| s - offset)
                .collect();
            RelShape {
                rel_idx,
                table,
                offset,
                arity,
                referenced_cols,
            }
        })
        .collect()
}

fn classify_spj(plan: &ResolvedSelect, tables: &[usize]) -> Shape {
    let mut read_slots = Vec::new();
    for e in plan
        .filter
        .iter()
        .chain(plan.projections.iter().map(|p| &p.expr))
    {
        e.collect_slots(&mut read_slots);
    }
    Shape::Spj(Box::new(SpjShape {
        relations: rel_shapes(plan, tables, &read_slots),
    }))
}

fn classify_agg(plan: &ResolvedSelect, tables: &[usize]) -> Shape {
    // The aggregate footprint: what the core reads (filter, group keys,
    // aggregate arguments) and the raw slots the output and sort
    // expressions read off a group's representative row — a change there
    // moves no accumulator and still shows (`delta::build`'s `watched`).
    let exprs = plan
        .filter
        .iter()
        .chain(plan.group_by.iter())
        .chain(plan.aggregates.iter().filter_map(|a| a.arg.as_ref()))
        .chain(plan.projections.iter().map(|p| &p.expr))
        .chain(plan.order_by.iter().map(|(e, _)| e));
    let mut read_slots = Vec::new();
    for e in exprs {
        e.collect_slots(&mut read_slots);
    }
    Shape::Agg(Box::new(AggShape {
        relations: rel_shapes(plan, tables, &read_slots),
        semi_joins: Vec::new(),
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
        assert_eq!((s.relations[0].table, s.relations[1].table), (0, 1));
        // User: uid (join), gender (output), age (filter); Tweet: uid
        // (join), location (filter) — tid is unread.
        assert_eq!(sorted(&s.relations[0].referenced_cols), [0, 1, 2]);
        assert_eq!(sorted(&s.relations[1].referenced_cols), [1, 2]);
    }

    #[test]
    fn agg_classification() {
        let db = db();
        let footprints = |sql: &str| -> Vec<Vec<usize>> {
            let p = prepare_query(&db, sql).unwrap();
            let Shape::Agg(a) = &p.shape else {
                panic!("expected Agg, got {:?}", p.shape)
            };
            a.relations
                .iter()
                .map(|r| sorted(&r.referenced_cols))
                .collect()
        };
        // Group key (gender) and aggregate argument (age); uid is unread.
        assert_eq!(
            footprints("select gender, count(*), avg(age) from User group by gender"),
            [[1, 2]]
        );
        // Regression: raw slots the output and the sort read off the
        // representative row belong to the footprint too.
        assert_eq!(
            footprints("select age, count(*) from User group by gender order by uid"),
            [[0, 1, 2]]
        );
        // A join: each relation gets its own share, join columns included.
        assert_eq!(
            footprints(
                "select U.gender, count(*) from User U, Tweet T \
                 where U.uid = T.uid and T.location = 'CA' group by U.age"
            ),
            [vec![0, 1, 2], vec![1, 2]]
        );
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

    fn sorted(cols: &HashSet<usize>) -> Vec<usize> {
        let mut v: Vec<usize> = cols.iter().copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn exists_conjuncts_of_an_aggregate_are_semi_joins() {
        let db = db();
        for (sql, negated) in [
            (
                "select gender, count(*) from User U where age > 3 and exists \
                 (select 1 from Tweet T where T.uid = U.uid and T.location = 'CA') group by gender",
                false,
            ),
            (
                "select gender, count(*) from User U where age > 3 and not exists \
                 (select 1 from Tweet T where T.location = 'CA' and U.uid = T.uid) group by gender",
                true,
            ),
        ] {
            let p = prepare_query(&db, sql).unwrap();
            let Shape::Agg(a) = &p.shape else {
                panic!("expected Agg, got {:?}", p.shape)
            };
            // The outer footprint gains the correlation column (uid).
            assert_eq!(a.relations.len(), 1);
            assert_eq!(sorted(&a.relations[0].referenced_cols), [0, 1, 2]);
            let [sj] = a.semi_joins.as_slice() else {
                panic!("one semi-join expected")
            };
            assert_eq!((sj.negated, sj.outer_slot), (negated, 0));
            // The inner footprint: the key (uid) and the filter (location).
            assert_eq!(sj.relations.len(), 1);
            assert_eq!(sj.relations[0].table, 1);
            assert_eq!(sorted(&sj.relations[0].referenced_cols), [1, 2]);
            assert!(!sj.keys.has_subquery() && !sj.keys.distinct);
            assert_eq!(sj.keys.projections.len(), 1);
            let refs = p.referenced_tables();
            assert!(refs.contains(&0) && refs.contains(&1));
        }
    }

    #[test]
    fn subqueries_outside_the_semi_join_form_stay_opaque() {
        let db = db();
        for sql in [
            // A table shared across levels.
            "select count(*) from User U where exists (select 1 from User V where V.uid = U.uid)",
            // An SPJ block.
            "select gender from User U where exists (select 1 from Tweet T where T.uid = U.uid)",
            // Not a top-level conjunct.
            "select count(*) from User U where age > 3 or exists \
             (select 1 from Tweet T where T.uid = U.uid)",
            // Uncorrelated, and correlated other than by one equality.
            "select count(*) from User U where exists (select 1 from Tweet T)",
            "select count(*) from User U where exists (select 1 from Tweet T where T.uid < U.uid)",
            // A grouped or limited inner block, and `IN`.
            "select count(*) from User U where exists \
             (select T.uid from Tweet T where T.uid = U.uid group by T.uid)",
            "select count(*) from User U where exists \
             (select 1 from Tweet T where T.uid = U.uid limit 1)",
            "select count(*) from User where uid in (select uid from Tweet)",
            // The stripped plan is no aggregate shape (`HAVING`).
            "select gender, count(*) as c from User U where exists \
             (select 1 from Tweet T where T.uid = U.uid) group by gender having c > 1",
        ] {
            let p = prepare_query(&db, sql).unwrap();
            assert!(
                matches!(p.shape, Shape::Opaque { .. }),
                "{sql} should be opaque, got {:?}",
                p.shape
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
        assert!(matches!(p.shape, Shape::Spj(_)));
        // User and Tweet both have 3 columns; widening User (rel 0) shifts
        // Tweet's slots by 1.
        let probe = widened(&p.plan, 0);
        assert_eq!(probe.offsets, vec![0, 4]);
        assert_eq!(probe.width, 7);
        // location was global slot 5, now 6.
        assert_eq!(probe.projections[0].expr, PExpr::Slot(6));
        // upid occupies User's new trailing slot 3.
        assert_eq!(probe.projections[1].expr, PExpr::Slot(3));
    }
}
