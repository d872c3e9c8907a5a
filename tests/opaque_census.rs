//! Which plans of the five query corpora have no normal form.
//!
//! An `Opaque` plan is priced by executing it once per visible support
//! instance; every other plan reaches the batched delta evaluator or §4's
//! checks (DESIGN.md §9). This census pins, by name, the opaque plans of
//! `WORLD_QUERIES`, the DBLP and car-crash workloads, the SSB flight and the
//! TPC-H subset, so a plan that gains or loses its shape shows up here, and
//! DESIGN.md §9's before/after table says why each remaining one is opaque.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana::core::{prepare_query, Shape};
use qirana::datagen::queries::{
    dblp_queries, ssb_queries, tpch_queries, CARCRASH_QUERIES, WORLD_QUERIES,
};
use qirana::datagen::{carcrash, dblp, ssb, tpch, world};
use qirana::Database;

/// The names of `corpus`'s plans that classify `Opaque` over `db`.
fn opaque<N: ToString, Q: AsRef<str>>(
    db: &Database,
    corpus: impl IntoIterator<Item = (N, Q)>,
) -> Vec<String> {
    corpus
        .into_iter()
        .filter(|(_, sql)| {
            let sql = sql.as_ref();
            let q = prepare_query(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            matches!(q.shape, Shape::Opaque { .. })
        })
        .map(|(name, _)| name.to_string())
        .collect()
}

/// Names a workload's queries `<prefix>1`, `<prefix>2`, … as Appendix B does.
fn numbered<Q>(
    prefix: &'static str,
    queries: impl IntoIterator<Item = Q>,
) -> impl Iterator<Item = (String, Q)> {
    (1..).map(move |i| format!("{prefix}{i}")).zip(queries)
}

#[test]
fn opaque_plans_of_every_corpus() {
    let nodes = 2000;
    let census = [
        (
            "world",
            opaque(&world::generate(7), numbered("Qw", WORLD_QUERIES)),
        ),
        (
            "dblp",
            opaque(
                &dblp::generate(nodes, 2),
                numbered("Qd", dblp_queries(nodes)),
            ),
        ),
        (
            "carcrash",
            opaque(
                &carcrash::generate(2000, 3),
                numbered("Qc", CARCRASH_QUERIES),
            ),
        ),
        ("ssb", opaque(&ssb::generate(0.0005, 5), ssb_queries())),
        (
            "tpch",
            opaque(&tpch::generate(0.0005, 5), tpch_queries(0.0005)),
        ),
    ];
    // Reasons, per DESIGN.md §9: Qw2 a `DISTINCT` aggregate, Qw16 `LIMIT`,
    // Qw19/21/28 `DISTINCT`; Qd1/Qd6 `HAVING`, Qd2 a derived table, Qd4 `IN`
    // over its own table; Q2 a correlated scalar `MIN` and `LIMIT`, Q11
    // `HAVING` over a scalar subquery, Q17 a correlated scalar `AVG` — all
    // three reading a table again inside the subquery.
    let pinned: [(&str, &[&str]); 5] = [
        ("world", &["Qw2", "Qw16", "Qw19", "Qw21", "Qw28"]),
        ("dblp", &["Qd1", "Qd2", "Qd4", "Qd6"]),
        ("carcrash", &[]),
        ("ssb", &[]),
        ("tpch", &["Q2", "Q11", "Q17"]),
    ];
    let pinned = pinned.map(|(corpus, names)| {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        (corpus, names)
    });
    assert_eq!(census, pinned);
}
