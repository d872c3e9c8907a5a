//! Empirical query determinacy (§2.1).
//!
//! `Q1` *determines* `Q2` under the database (`D ⊢ Q1 ↠ Q2`) when every
//! possible world that agrees with `D` on `Q1` also agrees on `Q2` — i.e.
//! `Q2`'s answer is computable from `Q1`'s. Exact determinacy is undecidable
//! in general; this module tests it **over a support set**: `Q1` determines
//! `Q2` relative to `S ∪ {D}` iff the partition of `S` induced by `Q1`
//! refines the partition induced by `Q2`.
//!
//! This is precisely the granularity at which QIRANA's pricing functions
//! see the world, which gives the checker its use: for any
//! support-relative determinacy, strong information-arbitrage-freeness of
//! the coverage-family prices is *guaranteed* (a refinement can only
//! disagree on more instances), so `tests/arbitrage.rs` and the Table 1
//! harness lean on it.

use crate::engine::{bundle_disagreements, bundle_partition, EngineOptions};
use crate::normal_form::{prepare_query, Prepared};
use crate::support::SupportSet;
use qirana_sqlengine::{Database, EngineError};
use std::collections::HashMap;

/// Outcome of a relative-determinacy test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinacy {
    /// `Q1`'s partition refines `Q2`'s on every sampled instance.
    Determines,
    /// Some pair of instances agrees on `Q1` but disagrees on `Q2` —
    /// a certificate that `Q1` does *not* determine `Q2`.
    Refuted,
}

/// Tests `Q1 ↠ Q2` relative to the support set: does `Q1`'s induced
/// partition refine `Q2`'s?
///
/// `Determines` is relative to the sample (a witness of non-determinacy may
/// exist outside `S`); `Refuted` is definitive — the two differing worlds
/// are real members of `I`.
pub fn determines(
    db: &Database,
    support: &SupportSet,
    q1: &str,
    q2: &str,
) -> Result<Determinacy, EngineError> {
    let p1 = prepare_query(db, q1)?;
    let p2 = prepare_query(db, q2)?;
    determines_prepared(db, support, &p1, &p2)
}

/// [`determines`] over already-prepared queries.
pub fn determines_prepared(
    db: &Database,
    support: &SupportSet,
    q1: &Prepared,
    q2: &Prepared,
) -> Result<Determinacy, EngineError> {
    let opts = EngineOptions::default();
    let part1 = bundle_partition(db, &[q1], support, &opts)?;
    let part2 = bundle_partition(db, &[q2], support, &opts)?;

    // Include agreement-with-D: an instance agreeing with D on Q1 must
    // agree on Q2 too, which partitions alone don't capture (the D-block
    // matters). Disagreement bits give exactly that.
    let d1 = bundle_disagreements(db, &[q1], support, &opts, None)?;
    let d2 = bundle_disagreements(db, &[q2], support, &opts, None)?;

    // Q1-agreeing instances (the D-block) must also be Q2-agreeing.
    for i in 0..support.len() {
        if !d1[i] && d2[i] {
            return Ok(Determinacy::Refuted);
        }
    }
    // Every Q1 block must map into a single Q2 block.
    let mut block_map: HashMap<_, _> = HashMap::new();
    for i in 0..support.len() {
        if !d1[i] {
            continue; // D-block, handled above
        }
        match block_map.insert(part1[i], part2[i]) {
            Some(prev) if prev != part2[i] => return Ok(Determinacy::Refuted),
            _ => {}
        }
    }
    Ok(Determinacy::Determines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{generate_support, SupportConfig};
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
            (1..=10i64)
                .map(|i| {
                    vec![
                        i.into(),
                        if i % 2 == 0 { "f" } else { "m" }.into(),
                        (10 + i * 3).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        db
    }

    fn support(db: &Database) -> SupportSet {
        SupportSet::Neighborhood(generate_support(
            db,
            &SupportConfig {
                size: 400,
                ..Default::default()
            },
        ))
    }

    #[test]
    fn projection_determines_subprojection() {
        let db = db();
        let s = support(&db);
        assert_eq!(
            determines(
                &db,
                &s,
                "select gender, age from User",
                "select age from User"
            )
            .unwrap(),
            Determinacy::Determines
        );
    }

    #[test]
    fn subprojection_does_not_determine_projection() {
        let db = db();
        let s = support(&db);
        assert_eq!(
            determines(
                &db,
                &s,
                "select age from User",
                "select gender, age from User"
            )
            .unwrap(),
            Determinacy::Refuted
        );
    }

    #[test]
    fn group_counts_determine_filtered_count() {
        let db = db();
        let s = support(&db);
        assert_eq!(
            determines(
                &db,
                &s,
                "select gender, count(*) from User group by gender",
                "select count(*) from User where gender = 'f'",
            )
            .unwrap(),
            Determinacy::Determines
        );
    }

    #[test]
    fn raw_column_determines_aggregates() {
        let db = db();
        let s = support(&db);
        for agg in ["avg(age)", "sum(age)", "min(age)", "max(age)"] {
            assert_eq!(
                determines(
                    &db,
                    &s,
                    "select uid, age from User",
                    &format!("select {agg} from User"),
                )
                .unwrap(),
                Determinacy::Determines,
                "{agg}"
            );
        }
    }

    #[test]
    fn aggregate_does_not_determine_column() {
        let db = db();
        let s = support(&db);
        assert_eq!(
            determines(
                &db,
                &s,
                "select avg(age) from User",
                "select uid, age from User"
            )
            .unwrap(),
            Determinacy::Refuted
        );
    }

    #[test]
    fn everything_determines_a_constant() {
        let db = db();
        let s = support(&db);
        assert_eq!(
            determines(&db, &s, "select age from User", "select count(*) from User").unwrap(),
            Determinacy::Determines,
            "cardinality is constant over I"
        );
    }

    #[test]
    fn determinacy_implies_coverage_price_order() {
        // The module-level claim: support-relative determinacy forces
        // p_wc(Q2) <= p_wc(Q1).
        use crate::pricing::weighted_coverage;
        let db = db();
        let s = support(&db);
        let pairs = [
            ("select gender, age from User", "select gender from User"),
            (
                "select * from User",
                "select count(*) from User where age > 20",
            ),
        ];
        let w = vec![1.0; s.len()];
        for (q1, q2) in pairs {
            let p1 = prepare_query(&db, q1).unwrap();
            let p2 = prepare_query(&db, q2).unwrap();
            assert_eq!(
                determines_prepared(&db, &s, &p1, &p2).unwrap(),
                Determinacy::Determines
            );
            let d1 =
                bundle_disagreements(&db, &[&p1], &s, &EngineOptions::default(), None).unwrap();
            let d2 =
                bundle_disagreements(&db, &[&p2], &s, &EngineOptions::default(), None).unwrap();
            assert!(weighted_coverage(&w, &d2) <= weighted_coverage(&w, &d1));
        }
    }
}
