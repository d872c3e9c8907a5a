//! Pricing-engine orchestration: one sweep per query, and the one place an
//! evaluation path is chosen.
//!
//! Every pricing function is a function of the partition a query induces
//! on the support instances and the stored database, so one sweep serves
//! both families: the query's output fingerprint on every support instance
//! (the question Algorithms 1 and 2 ask of each instance). Two primitives
//! read it:
//!
//! * [`query_bits`] — for the coverage-family functions: one bit per
//!   support instance, "does the query's output change on `Dᵢ`?"
//!   (Algorithm 1 / 3), read as fingerprint ≠ base.
//! * [`query_fps`] — for the entropy-family functions: the fingerprints
//!   themselves (Algorithm 2's dictionary keys). This inherently requires
//!   the outputs per instance — the paper's reason weighted coverage is the
//!   recommended default.
//!
//! The sweep picks its evaluation path with one `match`, on what it can
//! observe — support kind, [`Prepared::shape`], whether a budget is set —
//! per the routing table in DESIGN.md §9; no user-set switch takes part
//! ([`Strategy::Naive`] exists for the paper's baseline and the
//! differential suites only). In front of every path sits one
//! update-visibility test ([`visibility`]). A bundle is always derived from
//! its members' full per-query results: the OR of their bitmaps
//! ([`bundle_disagreements`]), respectively the per-instance
//! [`combine_bundle`] fold (`fold_partition`).

use crate::cache::Kind;
use crate::delta;
use crate::fault;
use crate::naive;
use crate::normal_form::{Prepared, Shape};
use crate::support::SupportSet;
use crate::telemetry::{SpanGuard, Stage, Telemetry};
use crate::update::SupportUpdate;
use qirana_sqlengine::{
    execute_with_input, Database, EngineError, ExecBudget, ExecContext, Fingerprint, QueryOutput,
    ResolvedSelect, Row, SweepScans,
};
use std::borrow::Borrow;

/// How a sweep is evaluated — the ablation axis of the paper's Figure 5.
///
/// Both values produce bitwise-identical bits and fingerprints; only the
/// cost differs. Production code leaves the default: `Naive` exists solely
/// so `fig5`, the criterion ablation and the differential suites can pin
/// the per-instance path. Appendix A's instance reduction is not a value
/// here but a direct call, [`naive::reduced_disagreements`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Route by plan shape (DESIGN.md §9): the incremental evaluator
    /// ([`crate::delta`]) for unbudgeted sweeps over SPJ and aggregate
    /// shapes, per-instance execution everywhere else.
    #[default]
    Auto,
    /// The unoptimized baseline (Algorithms 1–2 verbatim): execute the
    /// query on every instance the visibility test lets through. The
    /// reference `Auto` is tested against.
    Naive,
}

/// Engine configuration: the evaluation strategy plus the execution
/// budget and telemetry every pricing query runs under.
///
/// Carries the [`Telemetry`] handle, so the struct is `Clone` (an `Arc`
/// bump) but not `Copy`; engine entry points take it by reference.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Evaluation strategy; see [`Strategy`]. Results are bitwise
    /// identical for every value.
    pub strategy: Strategy,
    /// Execution budget applied to every query the pricing engine runs
    /// (base executions, per-instance re-executions, batched probes).
    /// Trips surface as [`EngineError::BudgetExceeded`]. Unlimited by
    /// default.
    pub budget: ExecBudget,
    /// Observability hooks (spans + metrics). Disabled by default; the
    /// disabled path is a single branch on a null sink, and prices are
    /// bitwise identical with telemetry on or off (see
    /// [`crate::telemetry`]).
    pub telemetry: Telemetry,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategy: Strategy::Auto,
            budget: ExecBudget::UNLIMITED,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl EngineOptions {
    /// The unoptimized baseline: run the query per support instance.
    pub fn naive() -> Self {
        EngineOptions {
            strategy: Strategy::Naive,
            ..Default::default()
        }
    }

    /// Replaces the execution budget.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// The engine's failpoint. Every sweep passes it, so every public entry
/// point ([`query_bits`], [`query_fps`] and the bundles) does before any
/// execution; the broker also checks it at the head of every quote and
/// buy, so an armed fault aborts a warm (all-hit) request like a cold one.
pub(crate) fn failpoint() -> Result<(), EngineError> {
    fault::check(fault::ENGINE_EXECUTE)
        .map_err(|f| EngineError::Eval(format!("injected fault: {f}")))
}

/// Forwards an engine result, counting budget trips in the telemetry
/// registry on the way through.
fn meter_trips<T>(t: &Telemetry, r: Result<T, EngineError>) -> Result<T, EngineError> {
    if t.is_enabled() {
        if let Err(e) = &r {
            if e.is_budget_exceeded() {
                t.counter_add("budget_trips_total", 1);
            }
        }
    }
    r
}

/// Every plan execution the pricing engine issues goes through here. It
/// adds one to the `plan_executions_total` counter and to the `execs`
/// count of the innermost open span, then executes `plan` and hands back
/// its output and its input rows ([`execute_with_input`]).
pub(crate) fn run_plan_with_input(
    tel: &Telemetry,
    plan: &ResolvedSelect,
    ctx: &ExecContext<'_>,
) -> Result<(QueryOutput, Vec<Row>), EngineError> {
    if tel.is_enabled() {
        tel.counter_add("plan_executions_total", 1);
        tel.count_innermost("execs", 1);
    }
    execute_with_input(plan, ctx)
}

/// [`run_plan_with_input`], output only.
pub(crate) fn run_plan(
    tel: &Telemetry,
    plan: &ResolvedSelect,
    ctx: &ExecContext<'_>,
) -> Result<QueryOutput, EngineError> {
    run_plan_with_input(tel, plan, ctx).map(|(out, _)| out)
}

/// Bag fingerprint of an output: display order ignored (see
/// [`crate::normal_form`] for why agreement is bag-based). Takes the
/// output by value or by reference.
pub fn bag_fp(out: impl Borrow<QueryOutput>) -> Fingerprint {
    qirana_sqlengine::bag_fingerprint(out.borrow())
}

/// Combines per-query fingerprints into a bundle fingerprint
/// (order-sensitive: a bundle is a vector of queries).
pub fn combine_bundle(fps: &[Fingerprint]) -> Fingerprint {
    let mut acc: u128 = 0x5153_4cb9;
    for fp in fps {
        acc = acc.rotate_left(5) ^ fp.0.wrapping_mul(3);
    }
    Fingerprint(acc)
}

/// The update-visibility test, in front of every evaluation path: per
/// support instance, whether any path evaluates it. An instance needs
/// evaluation only if its update touches a table the query references and
/// — for SPJ/aggregate shapes, which record it — at least one
/// *effectively* changed column lies in that relation's footprint
/// (`RelShape::referenced_cols`). This is the column-level form of
/// Algorithm 4's irrelevant-update check; opaque shapes get the
/// table-level form, and every uniform world is visible. Every other
/// instance agrees with the base.
///
/// Effective, not declared: [`crate::Qirana::commit_update`] keeps the
/// support set while stored cells change, so an update may write a value
/// back (in some or all of its columns), and only the columns that really
/// differ count.
pub fn visibility(db: &Database, q: &Prepared, support: &SupportSet) -> Vec<bool> {
    let SupportSet::Neighborhood(updates) = support else {
        return vec![true; support.len()];
    };
    let refs = q.referenced_tables();
    let sees = |up: &SupportUpdate| -> bool {
        if !refs.contains(&up.table()) {
            return false;
        }
        let changed = up.effective_changed_columns(db);
        let footprint = match &q.shape {
            Shape::Spj(s) => s.relations.iter().find(|r| r.table == up.table()),
            Shape::Agg(s) => s.footprints().find(|r| r.table == up.table()),
            Shape::Opaque { .. } => None,
        };
        match footprint {
            Some(rel) => changed.iter().any(|c| rel.referenced_cols.contains(c)),
            None => !changed.is_empty(),
        }
    };
    updates.iter().map(sees).collect()
}

/// Opens a sweep's `Disagreement` span, labelled `<family>/<path>`, and
/// records the sweep's deterministic work measures (identical on every
/// path): the span counts the `n` support instances going in, the
/// `neighbors_evaluated_total` counter adds them — once per sweep, so once
/// per member query of a bundle.
fn sweep_span(tel: &Telemetry, family: &str, path: &str, n: usize) -> SpanGuard {
    if !tel.is_enabled() {
        return tel.span(Stage::Disagreement);
    }
    let span = tel.span_with(Stage::Disagreement, format!("{family}/{path}"));
    span.count("neighbors", n as u64);
    tel.counter_add("neighbors_evaluated_total", n as u64);
    span
}

/// What a sweep yields: the query's output on the stored database, its bag
/// fingerprint, and the query's fingerprint on every support instance.
pub(crate) struct Swept {
    pub(crate) out: QueryOutput,
    pub(crate) base: Fingerprint,
    pub(crate) fps: Vec<Fingerprint>,
}

impl Swept {
    /// The coverage reading: instance `i` disagrees iff its fingerprint
    /// differs from the base.
    pub(crate) fn bits(&self) -> Vec<bool> {
        self.fps.iter().map(|fp| *fp != self.base).collect()
    }
}

/// Per-instance execution (Algorithms 1–2 verbatim): the base output —
/// `base` when the caller already executed it, else executed here — and
/// the query's fingerprint on every instance, executed where visible, the
/// base elsewhere.
fn per_instance(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    visible: &[bool],
    opts: &EngineOptions,
    scans: Option<&SweepScans<'_>>,
    base: Option<QueryOutput>,
) -> Result<Swept, EngineError> {
    let out = match base {
        Some(out) => out,
        None => {
            let ctx = ExecContext::new(db)
                .with_budget(opts.budget)
                .with_scans(scans);
            run_plan(&opts.telemetry, &q.plan, &ctx)?
        }
    };
    let base = bag_fp(&out);
    let idxs: Vec<usize> = (0..visible.len()).filter(|&i| visible[i]).collect();
    let executed = match support {
        SupportSet::Neighborhood(updates) => {
            naive::neighbor_fps(db, &q.plan, updates, &idxs, opts, scans)?
        }
        SupportSet::Uniform(worlds) => naive::world_fps(&q.plan, worlds, &idxs, opts)?,
    };
    let mut fps = vec![base; visible.len()];
    for (i, fp) in idxs.into_iter().zip(executed) {
        fps[i] = fp;
    }
    Ok(Swept { out, base, fps })
}

/// The incremental path (DESIGN.md §9) of [`sweep`] over neighborhood
/// supports: `q`'s fingerprints from one [`delta::build`] plus
/// one batched probe per relation, and how many neighbors the fold left to
/// full execution. A declined build (failed self-check, unsupported
/// detail) leaves the whole sweep to per-instance execution, like any
/// other guard, which reuses the build's base output.
fn delta_sweep(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    updates: &[SupportUpdate],
    visible: &[bool],
    opts: &EngineOptions,
    scans: &SweepScans<'_>,
) -> Result<(Swept, u64), EngineError> {
    let tel = &opts.telemetry;
    // Build errors are base-execution errors, which every full path
    // reproduces.
    let build_span = tel.span(Stage::DeltaBuild);
    let (state, out) = delta::build(db, q, tel, Some(scans))?;
    drop(build_span);
    tel.counter_add("delta_builds_total", 1);
    let Some(base) = state.base_fp() else {
        return per_instance(db, q, support, visible, opts, Some(scans), Some(out))
            .map(|swept| (swept, 0));
    };
    let probe_span = tel.span(Stage::DeltaProbe);
    let (fps, stats) = delta::query_fps_nbrs(db, q, &state, updates, visible, opts, Some(scans))?;
    if tel.is_enabled() {
        probe_span.count("probes", stats.probes);
        probe_span.count("short_circuits", stats.short_circuits);
        probe_span.count("fallbacks", stats.fallbacks);
        tel.counter_add("delta_probes_total", stats.probes);
        tel.counter_add("delta_short_circuits_total", stats.short_circuits);
        tel.counter_add("delta_fallbacks_total", stats.fallbacks);
        tel.counter_add("delta_probe_execs_total", stats.execs);
        tel.counter_add("delta_probe_rows_total", stats.rows);
    }
    Ok((Swept { out, base, fps }, stats.fallbacks))
}

/// The one sweep: `q`'s fingerprint on every support instance, by the
/// path the routing table (DESIGN.md §9) picks. `kind` names the pricing
/// family the sweep serves; it only labels the span (`coverage/<path>`,
/// `entropy/<path>`) and picks the counters — a coverage sweep also
/// counts its disagreements and its delta fallbacks.
pub(crate) fn sweep(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    kind: Kind,
    opts: &EngineOptions,
) -> Result<Swept, EngineError> {
    use {Shape::*, Strategy::*, SupportSet::*};
    failpoint()?;
    let tel = &opts.telemetry;
    let coverage = kind == Kind::Bits;
    let family = if coverage { "coverage" } else { "entropy" };
    let visible = visibility(db, q, support);
    // Every execution of an unbudgeted `Auto` sweep on the stored database
    // shares one scan memo. Skipped scans would move where a budget trips,
    // and `Naive` stays the memo-free reference. A uniform world is
    // another database, which the memo never answers.
    let scans = SweepScans::new(db);
    let shared = (opts.strategy == Auto && opts.budget.is_unlimited()).then_some(&scans);
    let span;
    // The routing table (DESIGN.md §9).
    let swept = match (support, opts.strategy, &q.shape) {
        // Delta probes skip whole executions, so under a budget — whose
        // trips must fire exactly where per-instance execution trips —
        // they do not apply.
        (Neighborhood(ups), Auto, Spj(_) | Agg(_)) if opts.budget.is_unlimited() => {
            span = sweep_span(tel, family, "delta", support.len());
            delta_sweep(db, q, support, ups, &visible, opts, &scans).map(|(swept, fallbacks)| {
                if coverage {
                    span.count("fallbacks", fallbacks);
                    tel.counter_add("coverage_fallbacks_total", fallbacks);
                }
                swept
            })
        }
        // Uniform worlds, opaque shapes, sweeps under a budget, `Naive`.
        (Uniform(_), ..) | (Neighborhood(_), ..) => {
            span = sweep_span(tel, family, "per-instance", support.len());
            per_instance(db, q, support, &visible, opts, shared, None)
        }
    };
    tel.counter_add("sweep_scan_reuses_total", scans.reuses());
    let swept = meter_trips(tel, swept)?;
    if coverage && tel.is_enabled() {
        let found = swept.fps.iter().filter(|&&fp| fp != swept.base).count() as u64;
        span.count("disagreements", found);
        tel.counter_add("disagreements_found_total", found);
    }
    Ok(swept)
}

/// The coverage primitive: for every support instance, whether `q`'s
/// output on it differs from the output on the stored database.
pub fn query_bits(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    opts: &EngineOptions,
) -> Result<Vec<bool>, EngineError> {
    sweep(db, q, support, Kind::Bits, opts).map(|swept| swept.bits())
}

/// Computes, for every support instance, whether the bundle's output on it
/// differs from the output on the stored database: the OR of the members'
/// full [`query_bits`], which is what [`crate::Qirana::quote_bundle`]
/// prices. A member that errs on any instance errs the bundle.
pub fn bundle_disagreements(
    db: &Database,
    bundle: &[&Prepared],
    support: &SupportSet,
    opts: &EngineOptions,
) -> Result<Vec<bool>, EngineError> {
    if bundle.is_empty() {
        failpoint()?; // no member sweep will pass it
    }
    let mut disagree = vec![false; support.len()];
    for q in bundle {
        for (d, b) in disagree.iter_mut().zip(query_bits(db, q, support, opts)?) {
            *d |= b;
        }
    }
    Ok(disagree)
}

/// The entropy primitive: `q`'s output fingerprint on every support
/// instance (Algorithm 2's dictionary keys, per query).
pub fn query_fps(
    db: &Database,
    q: &Prepared,
    support: &SupportSet,
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    sweep(db, q, support, Kind::Blocks, opts).map(|swept| swept.fps)
}

/// A bundle's partition from its members' per-query fingerprint vectors
/// (each of length `n`, in bundle order): per instance, the
/// order-sensitive [`combine_bundle`] of the members' fingerprints there.
/// Shared by [`bundle_partition`] and the broker, which reads members from
/// its memo.
pub(crate) fn fold_partition(per_query: &[&[Fingerprint]], n: usize) -> Vec<Fingerprint> {
    let mut row = vec![Fingerprint(0); per_query.len()];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        for (slot, fps) in row.iter_mut().zip(per_query) {
            *slot = fps[i];
        }
        out.push(combine_bundle(&row));
    }
    out
}

/// Computes the bundle output fingerprint on every support instance
/// (Algorithm 2's dictionary keys): the `fold_partition` of the members'
/// [`query_fps`].
pub fn bundle_partition(
    db: &Database,
    bundle: &[&Prepared],
    support: &SupportSet,
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    if bundle.is_empty() {
        failpoint()?; // no member sweep will pass it
    }
    let per_query = bundle
        .iter()
        .map(|q| query_fps(db, q, support, opts))
        .collect::<Result<Vec<_>, _>>()?;
    let members: Vec<&[Fingerprint]> = per_query.iter().map(Vec::as_slice).collect();
    Ok(fold_partition(&members, support.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal_form::prepare_query;
    use crate::support::{generate_support, SupportConfig};
    use qirana_sqlengine::{execute, ColumnDef, DataType, TableSchema, Value};
    use std::sync::Arc;

    const STRATEGIES: [Strategy; 2] = [Strategy::Auto, Strategy::Naive];

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
                vec![3.into(), "m".into(), 45.into()],
                vec![4.into(), "f".into(), 19.into()],
            ],
        );
        db
    }

    fn support(db: &Database, size: usize) -> SupportSet {
        SupportSet::Neighborhood(generate_support(
            db,
            &SupportConfig {
                size,
                ..Default::default()
            },
        ))
    }

    fn with_strategy(strategy: Strategy) -> EngineOptions {
        EngineOptions {
            strategy,
            ..Default::default()
        }
    }

    /// The core cross-check: every strategy, bundle-wise and member-wise
    /// (the full per-member artifacts the broker memoizes), must reproduce
    /// `Strategy::Naive` bitwise for both primitives — SPJ, aggregate and
    /// opaque members alike.
    #[test]
    fn every_strategy_matches_naive_bitwise() {
        let database = db();
        let support = support(&database, 300);
        let queries = [
            "select count(*) from User where gender = 'f'",
            "select gender from User where age > 18",
            "select gender, avg(age) from User group by gender",
            "select distinct gender from User", // opaque: per-instance path
        ];
        let prepared: Vec<_> = queries
            .iter()
            .map(|q| prepare_query(&database, q).unwrap())
            .collect();
        let bundle: Vec<&Prepared> = prepared.iter().collect();

        let naive = EngineOptions::naive();
        let bits_ref = bundle_disagreements(&database, &bundle, &support, &naive).unwrap();
        let part_ref = bundle_partition(&database, &bundle, &support, &naive).unwrap();

        for strategy in STRATEGIES {
            let opts = with_strategy(strategy);
            let bits = bundle_disagreements(&database, &bundle, &support, &opts).unwrap();
            assert_eq!(bits, bits_ref, "coverage mismatch under {strategy:?}");
            let part = bundle_partition(&database, &bundle, &support, &opts).unwrap();
            assert_eq!(part, part_ref, "entropy mismatch under {strategy:?}");

            // Member-wise, as the broker prices a bundle from its memo:
            // the OR of the members' full bitmaps.
            let mut ored = vec![false; support.len()];
            for q in &bundle {
                let bits = query_bits(&database, q, &support, &opts).unwrap();
                for (o, b) in ored.iter_mut().zip(bits) {
                    *o |= b;
                }
            }
            assert_eq!(ored, bits_ref, "member-wise coverage under {strategy:?}");
        }
    }

    /// Regression: the support set outlives seller updates, so a neighbor
    /// can write back the stored value in some or all of its columns. The
    /// §4 checks used to read the *declared* changed columns and charge
    /// such neighbors.
    #[test]
    fn write_back_neighbors_agree_under_every_strategy() {
        let mut database = Database::new();
        database.add_table(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("grp", DataType::Str),
                    ColumnDef::new("v", DataType::Int),
                ],
                &["id"],
            ),
            vec![
                vec![0.into(), "a".into(), 99.into()],
                vec![1.into(), "a".into(), 3.into()],
            ],
        );
        let support = SupportSet::Neighborhood(vec![
            // Full write-back: v[0] is already 99.
            SupportUpdate::Row {
                table: 0,
                row: 0,
                changes: vec![(2, Value::Int(99))],
            },
            // Partial write-back: grp[1] is already 'a', v really changes.
            SupportUpdate::Row {
                table: 0,
                row: 1,
                changes: vec![(1, "a".into()), (2, Value::Int(7))],
            },
        ]);
        for sql in [
            "select v from T",
            "select grp, sum(v) from T group by grp",
            "select distinct v from T",
        ] {
            let q = prepare_query(&database, sql).unwrap();
            let base = bag_fp(execute(&q.plan, &ExecContext::new(&database)).unwrap());
            for strategy in STRATEGIES {
                let opts = with_strategy(strategy);
                let bits = bundle_disagreements(&database, &[&q], &support, &opts);
                assert_eq!(bits.unwrap(), [false, true], "{sql} under {strategy:?}");
                let fps = query_fps(&database, &q, &support, &opts).unwrap();
                assert_eq!(fps[0], base, "{sql} under {strategy:?}");
                assert_ne!(fps[1], base, "{sql} under {strategy:?}");
            }
        }
    }

    #[test]
    fn database_unchanged_after_pricing() {
        let database = db();
        let before = database.table("User").unwrap().rows.clone();
        let support = support(&database, 100);
        let q = prepare_query(&database, "select avg(age) from User").unwrap();
        for strategy in STRATEGIES {
            let opts = with_strategy(strategy);
            bundle_disagreements(&database, &[&q], &support, &opts).unwrap();
            bundle_partition(&database, &[&q], &support, &opts).unwrap();
            assert_eq!(database.table("User").unwrap().rows, before);
        }
    }

    /// A bundle errs wherever any member errs, also on an instance an
    /// earlier member already disagrees on: the engine's bundle is the OR
    /// of full member sweeps, as the broker's. The second member's scalar
    /// subquery returns two rows on every neighbor that writes a second
    /// `age = 45`, and the first member disagrees there.
    #[test]
    fn a_bundle_errs_like_the_brokers_where_a_later_member_errs() {
        use crate::broker::{BrokerError, Qirana, QiranaConfig};
        let database = db();
        let sqls = [
            "select uid, age from User",
            "select gender from User where uid = (select uid from User where age = 45)",
        ];
        let config = QiranaConfig {
            support: SupportConfig {
                size: 100,
                ..Default::default()
            },
            ..Default::default()
        };
        let broker = Qirana::new(database.clone(), config).unwrap();
        let quoted = broker.quote_bundle(&sqls).unwrap_err();
        let BrokerError::Engine(expected) = quoted else {
            panic!("expected an engine error, got {quoted:?}");
        };
        let prepared: Vec<Prepared> = sqls
            .iter()
            .map(|sql| prepare_query(&database, sql).unwrap())
            .collect();
        let bundle: Vec<&Prepared> = prepared.iter().collect();
        // The broker's support set: same config, first attempt.
        let support = support(&database, 100);
        for strategy in STRATEGIES {
            let opts = with_strategy(strategy);
            let got = bundle_disagreements(&database, &bundle, &support, &opts).unwrap_err();
            assert_eq!(got, expected, "under {strategy:?}");
        }
    }

    #[test]
    fn full_dataset_query_disagrees_everywhere() {
        let database = db();
        let support = support(&database, 200);
        let q = prepare_query(&database, "select * from User").unwrap();
        let bits =
            bundle_disagreements(&database, &[&q], &support, &EngineOptions::default()).unwrap();
        assert!(
            bits.iter().all(|&b| b),
            "every neighbor differs from D, so Q_all must disagree everywhere"
        );
    }

    #[test]
    fn untouched_relation_never_disagrees() {
        let mut database = db();
        database.add_table(
            TableSchema::new(
                "Other",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                &["id"],
            ),
            vec![vec![1.into(), 2.into()]],
        );
        let support = support(&database, 100);
        let q = prepare_query(&database, "select 1 from Other where v = 2").unwrap();
        let bits =
            bundle_disagreements(&database, &[&q], &support, &EngineOptions::default()).unwrap();
        // Only updates touching Other can flip bits; verify against which
        // updates touch table index 1.
        let SupportSet::Neighborhood(updates) = &support else {
            unreachable!()
        };
        for (i, up) in updates.iter().enumerate() {
            if up.table() == 0 {
                assert!(!bits[i], "User update cannot change a query on Other");
            }
        }
    }

    /// For an SPJ plan the delta telemetry counters move once per sweep of
    /// either primitive: delta state lives for one sweep.
    #[test]
    fn delta_counters_move_once_per_sweep() {
        let database = db();
        let support = support(&database, 120);
        let q = prepare_query(&database, "select gender from User where age > 18").unwrap();
        let opts = EngineOptions::default().with_telemetry(Telemetry::enabled());
        let sink = opts.telemetry.sink().map(Arc::clone).unwrap();

        query_bits(&database, &q, &support, &opts).unwrap();
        assert_eq!(sink.counter("delta_builds_total"), 1);
        assert_eq!(sink.counter("delta_probes_total"), 120);
        assert_eq!(sink.counter("delta_probe_execs_total"), 1, "one relation");
        assert!(
            sink.counter("delta_short_circuits_total") + sink.counter("delta_fallbacks_total")
                <= sink.counter("delta_probes_total")
        );

        query_fps(&database, &q, &support, &opts).unwrap();
        assert_eq!(sink.counter("delta_builds_total"), 2);
        assert_eq!(sink.counter("delta_probes_total"), 240);
    }

    /// A build that declines leaves the sweep to per-instance execution,
    /// which takes the build's base output instead of executing it again:
    /// one base execution, then one per visible neighbor.
    #[test]
    fn a_declined_build_hands_its_output_to_the_per_instance_sweep() {
        let database = db();
        let support = support(&database, 60);
        let SupportSet::Neighborhood(ups) = &support else {
            unreachable!()
        };
        // Opaque, so the build declines.
        let q = prepare_query(&database, "select distinct gender from User").unwrap();
        let visible = visibility(&database, &q, &support);
        let live = visible.iter().filter(|&&v| v).count() as u64;
        assert!(live > 0, "some neighbor must be visible");
        let opts = EngineOptions::default().with_telemetry(Telemetry::enabled());
        let scans = SweepScans::new(&database);
        let (swept, fallbacks) =
            delta_sweep(&database, &q, &support, ups, &visible, &opts, &scans).unwrap();
        let sink = opts.telemetry.sink().unwrap();
        assert_eq!(sink.counter("plan_executions_total"), 1 + live);
        assert_eq!(fallbacks, 0);
        let alone = execute(&q.plan, &ExecContext::new(&database)).unwrap();
        assert_eq!(swept.out, alone);
        assert_eq!(
            swept.fps,
            query_fps(&database, &q, &support, &EngineOptions::naive()).unwrap()
        );
    }

    #[test]
    fn combine_bundle_is_order_sensitive() {
        let a = Fingerprint(1);
        let b = Fingerprint(2);
        assert_ne!(combine_bundle(&[a, b]), combine_bundle(&[b, a]));
        assert_eq!(combine_bundle(&[a, b]), combine_bundle(&[a, b]));
    }
}
