//! Empirical verification of the arbitrage-freeness guarantees of Table 1.
//!
//! These tests exercise the broker on concrete determinacy pairs
//! (`Q1 ↠ Q2` instances built from projection/selection/aggregation
//! containment) and on bundle decompositions, checking:
//!
//! * **information arbitrage-freeness**: `Q1 ↠ Q2 ⇒ p(Q2) ≤ p(Q1)` for all
//!   four functions under the `nbrs` support set;
//! * **bundle arbitrage-freeness**: `p(Q1∥Q2) ≤ p(Q1) + p(Q2)` for weighted
//!   coverage, Shannon, and q-entropy (the paper's Table 1 shows uniform
//!   entropy gain exhibits bundle arbitrage, so it is excluded);
//! * **monotonicity**: extending a bundle never lowers its price.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana::datagen::world;
use qirana::{PricingFunction, Qirana, QiranaConfig, SupportConfig};

fn broker(f: PricingFunction, size: usize) -> Qirana {
    Qirana::new(
        world::generate(1234),
        QiranaConfig {
            total_price: 100.0,
            function: f,
            support: SupportConfig {
                size,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("broker")
}

/// Determinacy pairs `(finer, coarser)`: the first query's answer computes
/// the second's (`Q1 ↠ Q2`), so `p(Q2) ≤ p(Q1)` is required.
fn determinacy_pairs() -> Vec<(&'static str, &'static str)> {
    vec![
        // Wider projection determines narrower projection.
        (
            "SELECT ID, Name, Continent, Population FROM Country",
            "SELECT ID, Name FROM Country",
        ),
        // Full table determines any projection of it.
        ("SELECT * FROM Country", "SELECT Region FROM Country"),
        // Full table determines any selection over it.
        (
            "SELECT * FROM Country",
            "SELECT * FROM Country WHERE Continent = 'Asia'",
        ),
        // Wider selection range determines narrower one.
        (
            "SELECT * FROM Country WHERE ID < 200",
            "SELECT * FROM Country WHERE ID < 100",
        ),
        // Group-by counts determine a filtered count.
        (
            "SELECT Continent, count(*) FROM Country GROUP BY Continent",
            "SELECT count(*) FROM Country WHERE Continent = 'Asia'",
        ),
        // Raw column determines its aggregates.
        (
            "SELECT ID, Population FROM Country",
            "SELECT AVG(Population) FROM Country",
        ),
        (
            "SELECT ID, Population FROM Country",
            "SELECT MAX(Population) FROM Country",
        ),
        // Counts by a finer grouping determine the coarser aggregate.
        (
            "SELECT Continent, Region, count(*) FROM Country GROUP BY Continent, Region",
            "SELECT Continent, count(*) FROM Country GROUP BY Continent",
        ),
    ]
}

#[test]
fn information_arbitrage_free_all_functions() {
    for f in PricingFunction::ALL {
        // Entropy partitions are priced naively; keep the support modest.
        let size = if f.needs_partition() { 300 } else { 1500 };
        let q = broker(f, size);
        for (finer, coarser) in determinacy_pairs() {
            let p_fine = q.quote(finer).unwrap();
            let p_coarse = q.quote(coarser).unwrap();
            assert!(
                p_coarse <= p_fine + 1e-9,
                "{f:?}: information arbitrage — p({coarser}) = {p_coarse} > \
                 p({finer}) = {p_fine}"
            );
        }
    }
}

#[test]
fn bundle_arbitrage_free_functions() {
    let bundles = [
        (
            "SELECT Name FROM Country WHERE Continent = 'Asia'",
            "SELECT Name FROM Country WHERE Continent = 'Europe'",
        ),
        (
            "SELECT Region, AVG(LifeExpectancy) FROM Country GROUP BY Region",
            "SELECT * FROM CountryLanguage",
        ),
        (
            "SELECT ID, Population FROM Country",
            "SELECT ID, GNP FROM Country",
        ),
    ];
    for f in [
        PricingFunction::WeightedCoverage,
        PricingFunction::ShannonEntropy,
        PricingFunction::QEntropy,
    ] {
        let size = if f.needs_partition() { 250 } else { 1500 };
        let q = broker(f, size);
        for (q1, q2) in bundles {
            let p1 = q.quote(q1).unwrap();
            let p2 = q.quote(q2).unwrap();
            let pb = q.quote_bundle(&[q1, q2]).unwrap();
            assert!(
                pb <= p1 + p2 + 1e-6,
                "{f:?}: bundle arbitrage — p(Q1∥Q2) = {pb} > {p1} + {p2}"
            );
        }
    }
}

#[test]
fn bundle_monotone_for_coverage() {
    let q = broker(PricingFunction::WeightedCoverage, 1500);
    let base = "SELECT Name FROM Country WHERE Continent = 'Asia'";
    let extra = "SELECT * FROM City WHERE Population > 1000000";
    let p_base = q.quote(base).unwrap();
    let p_both = q.quote_bundle(&[base, extra]).unwrap();
    assert!(
        p_both + 1e-9 >= p_base,
        "monotonicity violated: {p_both} < {p_base}"
    );
}

#[test]
fn uniform_entropy_gain_has_bundle_arbitrage_room() {
    // Table 1 marks pueg as NOT bundle-arbitrage-free. We don't assert a
    // violation exists for this workload (it depends on the sample), but we
    // do check the function is at least well-behaved on the ends.
    let q = broker(PricingFunction::UniformEntropyGain, 1500);
    let all = q
        .quote_bundle(&[
            "SELECT * FROM Country",
            "SELECT * FROM City",
            "SELECT * FROM CountryLanguage",
        ])
        .unwrap();
    assert!((all - 100.0).abs() < 1e-6, "Q_all must price at P: {all}");
    let tiny = q.quote("SELECT Name FROM Country WHERE ID = 1").unwrap();
    assert!(tiny < all);
}

#[test]
fn constant_queries_are_free() {
    // Queries whose answers are fixed by public knowledge (cardinalities)
    // must cost nothing under every function.
    for f in PricingFunction::ALL {
        let size = if f.needs_partition() { 200 } else { 800 };
        let q = broker(f, size);
        for sql in [
            "SELECT count(*) FROM Country",
            "SELECT count(*) FROM City",
            "SELECT 1",
        ] {
            let p = q.quote(sql).unwrap();
            assert!(p.abs() < 1e-9, "{f:?}: constant query {sql} priced at {p}");
        }
    }
}

#[test]
fn price_scales_with_selectivity() {
    // The Figure 2 sanity property: Qσ_u prices grow with u.
    let q = broker(PricingFunction::WeightedCoverage, 2000);
    let mut last = -1.0;
    for u in [1, 60, 120, 180, 240] {
        let p = q
            .quote(&format!("SELECT * FROM Country WHERE ID < {u}"))
            .unwrap();
        assert!(
            p + 1e-9 >= last,
            "price not monotone in selectivity at u={u}: {p} < {last}"
        );
        last = p;
    }
    assert!(last > 20.0, "the widest selection should carry real price");
}

#[test]
fn uniform_entropy_gain_bundle_arbitrage_witness() {
    // Table 1 marks pueg as NOT bundle-arbitrage-free. Constructive
    // witness: craft a support set where Q1 and Q2 each rule out exactly
    // ONE instance, disjointly. Then p(Q1) = p(Q2) = P·ln(1)/ln(S) = 0,
    // while the bundle rules out two instances and prices
    // P·ln(2)/ln(S) > 0 — strictly more than buying the parts.
    use qirana::core::pricing::uniform_entropy_gain;
    use qirana::core::{
        bundle_disagreements, prepare_query, EngineOptions, SupportSet, SupportUpdate,
    };
    use qirana::sqlengine::{ColumnDef, DataType, Database, TableSchema};

    let mut db = Database::new();
    db.add_table(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
                ColumnDef::new("w", DataType::Int),
            ],
            &["id"],
        ),
        (0..50i64)
            .map(|i| vec![i.into(), (i * 2).into(), (i * 3).into()])
            .collect::<Vec<_>>(),
    );
    // One v-update on row 0, one on row 1, and 98 w-updates elsewhere.
    let mut updates = vec![
        SupportUpdate::Row {
            table: 0,
            row: 0,
            changes: vec![(1, 999.into())],
        },
        SupportUpdate::Row {
            table: 0,
            row: 1,
            changes: vec![(1, 998.into())],
        },
    ];
    for i in 0..98usize {
        updates.push(SupportUpdate::Row {
            table: 0,
            row: 2 + i % 48,
            changes: vec![(2, (1000 + i as i64).into())],
        });
    }
    let support = SupportSet::Neighborhood(updates);

    let q1 = prepare_query(&db, "select v from T where id = 0").unwrap();
    let q2 = prepare_query(&db, "select v from T where id = 1").unwrap();
    let b1 = bundle_disagreements(&db, &[&q1], &support, &EngineOptions::default(), None).unwrap();
    let b2 = bundle_disagreements(&db, &[&q2], &support, &EngineOptions::default(), None).unwrap();
    assert_eq!(b1.iter().filter(|&&b| b).count(), 1, "Q1 hits exactly one");
    assert_eq!(b2.iter().filter(|&&b| b).count(), 1, "Q2 hits exactly one");
    assert!(b1.iter().zip(&b2).all(|(a, b)| !(a & b)), "disjoint hits");

    let both: Vec<bool> = b1.iter().zip(&b2).map(|(a, b)| a | b).collect();
    let p1 = uniform_entropy_gain(100.0, &b1);
    let p2 = uniform_entropy_gain(100.0, &b2);
    let pb = uniform_entropy_gain(100.0, &both);
    assert_eq!(p1, 0.0);
    assert_eq!(p2, 0.0);
    assert!(
        pb > p1 + p2 + 1e-9,
        "bundle arbitrage witnessed: pb = {pb} vs {p1} + {p2}"
    );

    // Weighted coverage on the same configuration stays subadditive.
    use qirana::core::pricing::weighted_coverage;
    let w = vec![1.0; 100];
    assert!(
        weighted_coverage(&w, &both)
            <= weighted_coverage(&w, &b1) + weighted_coverage(&w, &b2) + 1e-12
    );
}
