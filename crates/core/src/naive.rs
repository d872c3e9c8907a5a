//! Per-instance evaluation: run the query on each support instance
//! (Algorithms 1 and 2 verbatim), plus Appendix A's *instance reduction*
//! optimization of that baseline.
//!
//! The loops are the reference every other evaluation path is held
//! bitwise equal to, and the path [`crate::engine`] routes to whenever no
//! faster one applies (uniform supports, opaque shapes, budget-limited
//! sweeps). Each loop runs in index order on the caller's thread and stops
//! at the first error. Nothing here writes: a neighbor is the stored
//! database read through its update's row patch.
//!
//! Instance reduction ([`reduced_disagreements`]) is not a path the engine
//! routes to: it yields coverage bits only, never the fingerprints both
//! pricing families share, and the delta evaluator prices SPJ coverage
//! faster. It stays as a direct call for the paper's §4 ladder (the
//! middle row of the criterion group `spj_coverage_S2000`) and its tests.

use crate::engine::{bag_fp, run_plan, EngineOptions};
use crate::normal_form::{Prepared, Shape};
use crate::update::SupportUpdate;
use qirana_sqlengine::{
    Database, EngineError, ExecContext, Fingerprint, ResolvedSelect, Row, SweepScans,
};
use std::collections::{BTreeMap, HashMap};

/// The plan's output fingerprint on each neighbor `updates[idxs[j]]`:
/// execute under `opts.budget` with the update's row patch. The tables a
/// neighbor leaves unpatched are read through `scans`, when the sweep
/// shares one.
pub(crate) fn neighbor_fps(
    db: &Database,
    plan: &ResolvedSelect,
    updates: &[SupportUpdate],
    idxs: &[usize],
    opts: &EngineOptions,
    scans: Option<&SweepScans<'_>>,
) -> Result<Vec<Fingerprint>, EngineError> {
    idxs.iter()
        .map(|&i| {
            let up = &updates[i];
            let patch = up.patch(db);
            let ctx = ExecContext::new(db)
                .with_patch(up.table(), &patch)
                .with_budget(opts.budget)
                .with_scans(scans);
            run_plan(&opts.telemetry, plan, &ctx).map(bag_fp)
        })
        .collect()
}

/// The plan's output fingerprint on each uniform world `worlds[idxs[j]]`.
pub(crate) fn world_fps(
    plan: &ResolvedSelect,
    worlds: &[Database],
    idxs: &[usize],
    opts: &EngineOptions,
) -> Result<Vec<Fingerprint>, EngineError> {
    idxs.iter()
        .map(|&i| {
            let ctx = ExecContext::new(&worlds[i]).with_budget(opts.budget);
            run_plan(&opts.telemetry, plan, &ctx).map(bag_fp)
        })
        .collect()
}

/// Instance reduction (Appendix A, Lemma A.3): for an SPJ query, the
/// disagreement verdict of an update touching relation `R` is unchanged if
/// `R` is first restricted to just the tuples the support set touches. The
/// naive loop then runs over a much smaller relation.
///
/// Implemented with a table override plus each update's row patch — no
/// copy of the full database is made; only the touched rows of each
/// relation are materialized.
pub fn reduced_disagreements(
    db: &Database,
    q: &Prepared,
    updates: &[SupportUpdate],
    visible: &[bool],
    opts: &EngineOptions,
) -> Result<Vec<bool>, EngineError> {
    // The reduction holds for SPJ shapes only (Lemma A.3); any other
    // shape is a typed error, never a crash.
    let Shape::Spj(_) = &q.shape else {
        return Err(EngineError::Eval(
            "instance reduction requires an SPJ shape".into(),
        ));
    };
    let mut bits = vec![false; updates.len()];

    // Group the visible updates by touched relation (the rest agree).
    // BTreeMap: iterated below; process relations in table order so
    // the probe sequence (and any budget cutoff) is deterministic.
    let mut by_rel: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, up) in updates.iter().enumerate() {
        if visible[i] {
            by_rel.entry(up.table()).or_default().push(i);
        }
    }

    for (table, idxs) in by_rel {
        // The touched rows of this relation, in order, are the reduced
        // instance; each update's patch is remapped onto it.
        let mut touched: Vec<usize> = idxs.iter().flat_map(|&i| updates[i].rows()).collect();
        touched.sort_unstable();
        touched.dedup();
        let remap: HashMap<usize, usize> = touched
            .iter()
            .enumerate()
            .map(|(new, &orig)| (orig, new))
            .collect();
        let reduced: Vec<Row> = touched
            .iter()
            .map(|&r| db.table_at(table).rows[r].clone())
            .collect();
        let run = |patch: &[(usize, Row)]| {
            let ctx = ExecContext::with_override(db, table, &reduced)
                .with_patch(table, patch)
                .with_budget(opts.budget);
            run_plan(&opts.telemetry, &q.plan, &ctx).map(bag_fp)
        };
        let base = run(&[])?;
        for &i in &idxs {
            // `remap` is monotone, so the patch stays sorted.
            let patch: Vec<(usize, Row)> = updates[i]
                .patch(db)
                .into_iter()
                .map(|(r, row)| (remap[&r], row))
                .collect();
            bits[i] = run(&patch)? != base;
        }
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        bundle_disagreements, bundle_partition, combine_bundle, query_fps, visibility,
    };
    use crate::normal_form::prepare_query;
    use crate::support::{generate_support, generate_uniform_worlds, SupportConfig, SupportSet};
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
            (0..20i64)
                .map(|i| {
                    vec![
                        i.into(),
                        if i % 2 == 0 { "a" } else { "b" }.into(),
                        (i * 3).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        db
    }

    /// `db()` plus an unrelated table `U(id, w)`.
    fn db_with_u() -> Database {
        let mut database = db();
        database.add_table(
            TableSchema::new(
                "U",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("w", DataType::Int),
                ],
                &["id"],
            ),
            (0..10i64)
                .map(|i| vec![i.into(), (i * 7).into()])
                .collect::<Vec<_>>(),
        );
        database
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

    #[test]
    fn reduction_matches_plain_naive() {
        let database = db();
        let support = support(&database, 200);
        let SupportSet::Neighborhood(updates) = &support else {
            unreachable!()
        };
        for sql in [
            "select v from T where grp = 'a'",
            "select id, grp from T where v > 12",
            "select * from T",
        ] {
            let q = prepare_query(&database, sql).unwrap();
            let plain =
                bundle_disagreements(&database, &[&q], &support, &EngineOptions::naive()).unwrap();
            let visible = visibility(&database, &q, &support);
            let opts = EngineOptions::default();
            let reduced = reduced_disagreements(&database, &q, updates, &visible, &opts).unwrap();
            assert_eq!(plain, reduced, "reduction changed verdicts for {sql}");
        }
    }

    #[test]
    fn reduction_on_non_spj_shape_is_a_typed_error() {
        // Routing an aggregate (non-SPJ) query here used to panic; it must
        // surface as a recoverable EngineError instead.
        let database = db();
        let support = support(&database, 10);
        let SupportSet::Neighborhood(updates) = &support else {
            unreachable!()
        };
        let visible = vec![true; updates.len()];
        let q = prepare_query(&database, "select grp, sum(v) from T group by grp").unwrap();
        let opts = EngineOptions::default();
        let err = reduced_disagreements(&database, &q, updates, &visible, &opts).unwrap_err();
        assert!(matches!(err, EngineError::Eval(_)), "got {err:?}");
    }

    #[test]
    fn uniform_worlds_mostly_disagree_on_touching_queries() {
        let database = db();
        let support = SupportSet::Uniform(generate_uniform_worlds(&database, 20, 3));
        let q = prepare_query(&database, "select grp, v from T").unwrap();
        let bits =
            bundle_disagreements(&database, &[&q], &support, &EngineOptions::naive()).unwrap();
        let frac = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        assert!(
            frac > 0.9,
            "a uniformly random world almost surely differs: {frac}"
        );
    }

    #[test]
    fn invisible_updates_fingerprint_as_brute_force_says() {
        // A query over T only; updates touch both T and an unrelated
        // table U. Instances the sweep never executes must fingerprint
        // exactly as executing every neighbor, unfiltered, says (the
        // base).
        let database = db_with_u();
        let support = support(&database, 120);
        let SupportSet::Neighborhood(updates) = &support else {
            unreachable!()
        };
        assert!(
            updates.iter().any(|u| u.table() == 1),
            "support must touch U for this test to bite"
        );
        let q = prepare_query(&database, "select grp, v from T where v > 9").unwrap();
        let fast = query_fps(&database, &q, &support, &EngineOptions::naive()).unwrap();
        let every: Vec<usize> = (0..updates.len()).collect();
        let brute = neighbor_fps(
            &database,
            &q.plan,
            updates,
            &every,
            &EngineOptions::naive(),
            None,
        )
        .unwrap();
        assert_eq!(fast, brute, "skip path changed partition fingerprints");
    }

    #[test]
    fn bundle_partition_is_the_fold_of_per_query_fps() {
        // A bundle's partition is *defined* as the per-instance fold of its
        // members' fingerprint vectors — including instances whose update
        // touches a table only one member (or no member) references.
        let database = db_with_u();
        let support = support(&database, 150);
        let q1 = prepare_query(&database, "select count(*) from T where v > 30").unwrap();
        let q2 = prepare_query(&database, "select w from U where w > 14").unwrap();
        let opts = EngineOptions::naive();
        let whole = bundle_partition(&database, &[&q1, &q2], &support, &opts).unwrap();
        let f1 = query_fps(&database, &q1, &support, &opts).unwrap();
        let f2 = query_fps(&database, &q2, &support, &opts).unwrap();
        let folded: Vec<Fingerprint> = (0..support.len())
            .map(|i| combine_bundle(&[f1[i], f2[i]]))
            .collect();
        assert_eq!(whole, folded, "bundle partition diverged from the fold");
    }

    #[test]
    fn partition_refines_disagreements() {
        let database = db();
        let support = support(&database, 100);
        let q = prepare_query(&database, "select count(*) from T where v > 30").unwrap();
        let opts = EngineOptions::naive();
        let bits = bundle_disagreements(&database, &[&q], &support, &opts).unwrap();
        let fps = query_fps(&database, &q, &support, &opts).unwrap();
        let base = bag_fp(execute(&q.plan, &ExecContext::new(&database)).unwrap());
        for i in 0..bits.len() {
            assert_eq!(
                bits[i],
                fps[i] != base,
                "bit {i} inconsistent with partition"
            );
        }
    }
}
