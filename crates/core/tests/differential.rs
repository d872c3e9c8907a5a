//! Differential tests of the engine's evaluation strategies and of the
//! broker's pricing memo.
//!
//! The engine has two ways to compute the same semantics: per-instance
//! re-execution ([`Strategy::Naive`], the reference) and the incremental
//! delta evaluator. On randomized databases, support sets, seller updates
//! and SPJ/aggregate queries, every [`Strategy`] must produce *identical*
//! disagreement bits and partition fingerprints — and therefore
//! bitwise-identical prices. The reference in turn is held to an
//! unfiltered apply/execute/undo oracle that shares no code with it: sweeps
//! read each neighbor through a row patch, the oracle writes it.
//!
//! The broker's memo (`qirana_core::cache`) is held to a reference that
//! reads no memo by construction: at every step of a purchase session,
//! under every strategy and all four pricing functions, a broker charges
//! what sweeping the buyer's whole bundle afresh charges.

use proptest::prelude::*;
use qirana_core::engine::{bag_fp, query_bits, query_fps};
use qirana_core::{
    bundle_disagreements, bundle_partition, generate_support, prepare_query,
    pricing::{coverage_price, shannon_entropy, weighted_coverage},
    uniform_weights, EngineOptions, PricingFunction, Qirana, QiranaConfig, Shape, Strategy,
    SupportConfig, SupportSet, SupportUpdate, Telemetry, TestClock,
};
use qirana_sqlengine::update::{apply_writes, CellWrite};
use qirana_sqlengine::{
    execute, ColumnDef, DataType, Database, EngineError, ExecBudget, ExecContext, Fingerprint,
    TableSchema, Value,
};
use std::time::Duration;

const GROUPS: [&str; 3] = ["a", "b", "c"];

/// Builds the two-table database under test: `T(id, grp, v)` and a child
/// relation `U(uid, t_id, w)` for join-shaped queries.
fn build_db(t_rows: &[(u8, i16)], u_rows: &[(u8, i16)]) -> Database {
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
        t_rows
            .iter()
            .enumerate()
            .map(|(i, (g, v))| {
                vec![
                    (i as i64).into(),
                    GROUPS[*g as usize % GROUPS.len()].into(),
                    (*v as i64).into(),
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
        u_rows
            .iter()
            .enumerate()
            .map(|(i, (t, w))| {
                vec![
                    (i as i64).into(),
                    (*t as i64 % t_rows.len().max(1) as i64).into(),
                    (*w as i64).into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    db
}

/// The query pool: SPJ, join, and aggregate shapes, parameterized by a
/// random constant so predicates land on both sides of the data.
fn query_pool(c: i16) -> Vec<String> {
    vec![
        format!("SELECT v FROM T WHERE v > {c}"),
        "SELECT grp FROM T".to_string(),
        format!("SELECT count(*) FROM T WHERE v <= {c}"),
        "SELECT grp, count(*), sum(v) FROM T GROUP BY grp".to_string(),
        "SELECT min(v), max(v), avg(v) FROM T".to_string(),
        format!("SELECT T.grp, U.w FROM T, U WHERE T.id = U.t_id AND U.w > {c}"),
        "SELECT T.grp, sum(U.w) FROM T, U WHERE T.id = U.t_id GROUP BY T.grp".to_string(),
    ]
}

const STRATEGIES: [Strategy; 2] = [Strategy::Auto, Strategy::Naive];

const FUNCTIONS: [PricingFunction; 2] = [
    PricingFunction::WeightedCoverage,
    PricingFunction::ShannonEntropy,
];

const ALL_FUNCTIONS: [PricingFunction; 4] = [
    PricingFunction::WeightedCoverage,
    PricingFunction::UniformEntropyGain,
    PricingFunction::ShannonEntropy,
    PricingFunction::QEntropy,
];

/// The engine under `strategy`; `Naive` is the reference.
fn engine(strategy: Strategy) -> EngineOptions {
    EngineOptions {
        strategy,
        ..Default::default()
    }
}

fn support_config(seed: u64) -> SupportConfig {
    SupportConfig {
        size: 96,
        seed,
        ..Default::default()
    }
}

/// The seller-update step: one cell write per pick, landing on a value the
/// support set itself writes — a row update's own new value, or (for a
/// swap) the partner row's value. The picked neighbors thereby become
/// write-backs, fully or in part, which is what `commit_update` does to a
/// live market's support set over time.
fn seller_writes(db: &Database, updates: &[SupportUpdate], picks: &[usize]) -> Vec<CellWrite> {
    picks
        .iter()
        .map(|&p| match &updates[p % updates.len()] {
            SupportUpdate::Row {
                table,
                row,
                changes,
            } => CellWrite {
                table: *table,
                row: *row,
                col: changes[0].0,
                value: changes[0].1.clone(),
            },
            SupportUpdate::Swap {
                table,
                row_a,
                row_b,
                cols,
            } => CellWrite {
                table: *table,
                row: *row_a,
                col: cols[0],
                value: db.tables()[*table].rows[*row_b][cols[0]].clone(),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The reference has an oracle of its own. `Strategy::Naive` runs behind
    /// the same visibility test as every path compared against it, so a
    /// defect there (a column a clause reads missing from the footprint, a
    /// wrong effective-column diff) would make every cell of the matrix
    /// wrong the same way. The oracle shares none of that: apply, execute,
    /// undo on *every* instance, nothing filtered — over the whole pool
    /// (column-miss, join and aggregate shapes) plus an opaque query, after
    /// the seller update.
    #[test]
    fn naive_reference_matches_unfiltered_brute_force(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..20),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..12),
        c in -40i16..40,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let mut db = build_db(&t_rows, &u_rows);
        let updates = generate_support(&db, &support_config(seed));
        let writes = seller_writes(&db, &updates, &picks);
        apply_writes(&mut db, &writes);
        let support = SupportSet::Neighborhood(updates.clone());
        let reference = EngineOptions::naive();
        let mut pool = query_pool(c);
        pool.push("SELECT DISTINCT grp FROM T".to_string());
        // Both bindings of a self-join, and a correlated subquery, read the
        // updated relation.
        pool.push("SELECT a.v, b.v FROM T a, T b WHERE a.grp = b.grp AND a.id < b.id".to_string());
        pool.push("SELECT id FROM T x WHERE v > (SELECT avg(v) FROM T y WHERE y.grp = x.grp)".to_string());
        for sql in &pool {
            let q = prepare_query(&db, sql).unwrap();
            let base = bag_fp(execute(&q.plan, &ExecContext::new(&db)).unwrap());
            let brute: Vec<Fingerprint> = updates
                .iter()
                .map(|up| {
                    let undo = up.apply(&mut db);
                    let fp = bag_fp(execute(&q.plan, &ExecContext::new(&db)).unwrap());
                    apply_writes(&mut db, &undo);
                    fp
                })
                .collect();
            let fps = query_fps(&db, &q, &support, &reference).unwrap();
            prop_assert_eq!(&fps, &brute, "reference fingerprints diverge for {}", sql);
            let bits = query_bits(&db, &q, &support, &reference).unwrap();
            let brute_bits: Vec<bool> = brute.iter().map(|fp| *fp != base).collect();
            prop_assert_eq!(bits, brute_bits, "reference bits diverge for {}", sql);
        }
    }

    /// Every strategy yields the reference disagreement bits and partition
    /// fingerprints — and identical coverage and entropy prices, to the
    /// last bit of the f64 — on a database the seller has updated since the
    /// support set was drawn.
    #[test]
    fn all_strategies_agree_on_bits_and_fingerprints(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..20),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..12),
        c in -40i16..40,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<usize>(), 1..4),
        query_idx in 0usize..7,
    ) {
        let mut db = build_db(&t_rows, &u_rows);
        let updates = generate_support(&db, &support_config(seed));
        let writes = seller_writes(&db, &updates, &picks);
        apply_writes(&mut db, &writes);
        let support = SupportSet::Neighborhood(updates);
        let sql = &query_pool(c)[query_idx];
        let q = prepare_query(&db, sql).unwrap();

        let reference = EngineOptions::naive();
        let ref_bits = bundle_disagreements(&db, &[&q], &support, &reference).unwrap();
        let ref_fps = bundle_partition(&db, &[&q], &support, &reference).unwrap();
        let weights = uniform_weights(support.len(), 100.0);
        for strategy in STRATEGIES {
            let opts = engine(strategy);
            let bits = bundle_disagreements(&db, &[&q], &support, &opts).unwrap();
            prop_assert_eq!(&bits, &ref_bits, "bits diverge for {} under {:?}", sql, opts);
            prop_assert_eq!(
                weighted_coverage(&weights, &bits).to_bits(),
                weighted_coverage(&weights, &ref_bits).to_bits(),
                "coverage price diverges for {}", sql
            );
            let fps = bundle_partition(&db, &[&q], &support, &opts).unwrap();
            prop_assert_eq!(&fps, &ref_fps, "partition diverges for {} under {:?}", sql, opts);
            prop_assert_eq!(
                shannon_entropy(100.0, &weights, &fps).to_bits(),
                shannon_entropy(100.0, &weights, &ref_fps).to_bits(),
                "entropy price diverges for {}", sql
            );
        }
    }

    /// The memo, through the broker: after a seller update, over a random
    /// purchase session (repeats included), a broker under every strategy
    /// charges what a memo-free reference charges, bit for bit, at every
    /// step, for all four pricing functions. The reference reads no memo by
    /// construction. Entropy family: a broker that never buys, so its LRU
    /// stays empty and it never reads the handoff; its quote of the buyer's
    /// bundle (history ++ [q]) sweeps every member. Coverage family: the
    /// query's `bundle_disagreements` under `EngineOptions::naive()`,
    /// masked with the bits the buyer was charged and priced by
    /// `coverage_price` over the broker's weights. The brokers must
    /// actually exercise the memo (hits > 0 whenever the session repeats a
    /// query).
    #[test]
    fn sessions_match_the_memo_free_reference(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..16),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..10),
        c in -40i16..40,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<usize>(), 1..4),
        session in prop::collection::vec(0usize..7, 1..6),
    ) {
        let pool = query_pool(c);
        let db = build_db(&t_rows, &u_rows);
        let updates = generate_support(&db, &support_config(seed));
        let writes = seller_writes(&db, &updates, &picks);
        let support = SupportSet::Neighborhood(updates);
        let repeats = session.len()
            != session.iter().collect::<std::collections::HashSet<_>>().len();
        for function in ALL_FUNCTIONS {
            let broker = |strategy: Strategy| {
                let mut b = Qirana::new(
                    db.clone(),
                    QiranaConfig {
                        function,
                        support: support_config(seed),
                        engine: engine(strategy),
                        ..Default::default()
                    },
                )
                .unwrap();
                b.commit_writes(&writes).unwrap();
                b
            };
            let reference = broker(Strategy::Naive);
            let mut cells: Vec<Qirana> = STRATEGIES.into_iter().map(broker).collect();
            let (mut history, mut charged) = (Vec::new(), vec![false; support.len()]);
            let mut paid = 0.0;
            for &idx in &session {
                let sql = pool[idx].as_str();
                // The entropy family anchors the account at the priced
                // bundle; the coverage family adds each charge.
                let (delta, anchor) = if function.needs_partition() {
                    history.push(sql);
                    let total = reference.quote_bundle(&history).unwrap();
                    (total - paid, Some(total))
                } else {
                    let live = reference.db();
                    let q = prepare_query(live, sql).unwrap();
                    let full = bundle_disagreements(live, &[&q], &support, &EngineOptions::naive())
                        .unwrap();
                    let bits: Vec<bool> =
                        full.iter().zip(&charged).map(|(&b, &c)| b && !c).collect();
                    for (c, b) in charged.iter_mut().zip(&bits) {
                        *c |= b;
                    }
                    let price = coverage_price(function, 100.0, reference.weights(), &bits);
                    (price.unwrap(), None)
                };
                let price = if delta <= 0.0 { 0.0 } else { delta };
                paid = match anchor {
                    Some(total) if price > 0.0 => total,
                    _ => paid + price,
                };
                for (k, cell) in cells.iter_mut().enumerate() {
                    let got = cell.buy("p", sql).unwrap();
                    prop_assert_eq!(
                        got.price.to_bits(),
                        price.to_bits(),
                        "{:?} diverges on {} ({:?})", STRATEGIES[k], sql, function
                    );
                    prop_assert_eq!(got.total_paid.to_bits(), paid.to_bits());
                }
            }
            prop_assert_eq!(reference.cache_len(), 0, "the reference memoised nothing");
            if repeats {
                for cell in &cells {
                    prop_assert!(cell.cache_stats().hits > 0, "repeat session must hit");
                }
            }
        }
    }

    /// Telemetry is observationally free: with tracing and metrics enabled
    /// versus disabled, a purchase session charges bitwise-identical prices
    /// for both pricing families.
    #[test]
    fn telemetry_on_off_sessions_are_bitwise_identical(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..16),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..10),
        c in -40i16..40,
        seed in any::<u64>(),
        session in prop::collection::vec(0usize..7, 1..5),
        entropy in any::<bool>(),
    ) {
        let function = if entropy {
            PricingFunction::ShannonEntropy
        } else {
            PricingFunction::WeightedCoverage
        };
        let pool = query_pool(c);
        let broker = |telemetry: Telemetry| {
            Qirana::new(
                build_db(&t_rows, &u_rows),
                QiranaConfig {
                    function,
                    support: support_config(seed),
                    engine: EngineOptions::default().with_telemetry(telemetry),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let tel = Telemetry::with_clock(Box::new(TestClock::stepping(10)));
        let mut variants = [broker(Telemetry::disabled()), broker(tel.clone())];
        for &idx in &session {
            let sql = &pool[idx];
            let reference = variants[0].buy("p", sql).unwrap();
            for (v, variant) in variants.iter_mut().enumerate().skip(1) {
                let got = variant.buy("p", sql).unwrap();
                prop_assert_eq!(
                    got.price.to_bits(),
                    reference.price.to_bits(),
                    "variant {} diverges on {} ({:?})", v, sql, function
                );
                prop_assert_eq!(got.total_paid.to_bits(), reference.total_paid.to_bits());
            }
        }
        // The instrumented run recorded real work.
        let sink = tel.sink().unwrap();
        prop_assert_eq!(sink.counter("purchases_total"), session.len() as u64);
        prop_assert!(!sink.spans().is_empty(), "enabled run must record spans");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The quote path is `&self`: N sessions quoting the same broker
    /// concurrently (shared reference, no external locking) must price
    /// bitwise-identically to quoting sequentially — for both pricing
    /// families, with the pricing memo warmed by buys. Memoised quotes run
    /// as generation-checked peeks and misses sweep the shared database
    /// read-only, so any shared mutable state leaking between concurrent
    /// sessions shows up here as a flipped bit. Quotes must also leave no
    /// trace: the memo's entry count is unchanged after the concurrent
    /// burst.
    #[test]
    fn concurrent_quote_sessions_match_sequential_bitwise(
        t_rows in prop::collection::vec((0u8..3, -40i16..40), 8..16),
        u_rows in prop::collection::vec((any::<u8>(), -40i16..40), 4..10),
        c in -40i16..40,
        seed in any::<u64>(),
        entropy in any::<bool>(),
    ) {
        let function = if entropy {
            PricingFunction::ShannonEntropy
        } else {
            PricingFunction::WeightedCoverage
        };
        let pool = query_pool(c);
        let mut broker = Qirana::new(
            build_db(&t_rows, &u_rows),
            QiranaConfig {
                function,
                support: support_config(seed),
                ..Default::default()
            },
        )
        .unwrap();
        // Warm the memo through buys (quotes are peek-only and never
        // insert), so the sessions exercise concurrent hits as well as
        // concurrent misses.
        for sql in pool.iter().step_by(2) {
            broker.buy("warm", sql).unwrap();
        }
        let broker = broker; // frozen: everything below is `&self`

        let sequential: Vec<u64> = pool
            .iter()
            .map(|sql| broker.quote(sql).unwrap().to_bits())
            .collect();
        let entries_before = broker.cache_len();

        const SESSIONS: usize = 4;
        let concurrent: Vec<Vec<(usize, u64)>> = std::thread::scope(|scope| {
            let broker = &broker;
            let pool = &pool;
            let handles: Vec<_> = (0..SESSIONS)
                .map(|t| {
                    scope.spawn(move || {
                        // Each session walks the pool from its own
                        // offset, so hits and misses interleave across
                        // sessions instead of marching in lockstep.
                        (0..pool.len())
                            .map(|j| {
                                let idx = (t + j) % pool.len();
                                (idx, broker.quote(&pool[idx]).unwrap().to_bits())
                            })
                            .collect::<Vec<(usize, u64)>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (session, results) in concurrent.iter().enumerate() {
            for &(idx, bits) in results {
                prop_assert_eq!(
                    bits,
                    sequential[idx],
                    "session {} diverged from sequential on {} ({:?})",
                    session, pool[idx], function
                );
            }
        }
        prop_assert_eq!(
            broker.cache_len(),
            entries_before,
            "concurrent quotes must not populate or evict the memo"
        );
    }
}

// ---------------------------------------------------------------------------
// Regressions
// ---------------------------------------------------------------------------

/// Regression: integers beyond 2^53 used to be fingerprinted through a
/// lossy f64 cast, so a support update swapping `2^53` for `2^53 + 1`
/// produced an identical result fingerprint — the engine saw no
/// disagreement and the buyer got that bit of information for free.
#[test]
fn pricing_detects_update_between_adjacent_large_ints() {
    const BIG: i64 = 1 << 53;
    let mut db = Database::new();
    db.add_table(
        TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            &["id"],
        ),
        (0..4i64)
            .map(|i| vec![i.into(), BIG.into()])
            .collect::<Vec<_>>(),
    );
    let q = prepare_query(&db, "SELECT v FROM T").unwrap();
    let support = SupportSet::Neighborhood(vec![SupportUpdate::Row {
        table: 0,
        row: 1,
        changes: vec![(1, Value::Int(BIG + 1))],
    }]);
    for strategy in STRATEGIES {
        let opts = engine(strategy);
        let bits = bundle_disagreements(&db, &[&q], &support, &opts).unwrap();
        assert_eq!(
            bits,
            vec![true],
            "2^53 -> 2^53+1 must be a visible disagreement ({opts:?})"
        );
    }
}

/// Regression: `commit_update` keeps the support set while stored cells
/// change, so a seller update can land exactly on a value some neighbor
/// writes. That neighbor is then the stored database — it must cost
/// nothing — but the §4 checks read its *declared* changed columns and
/// charged it. Quotes and purchases must match the reference bit for bit
/// under every strategy, for both families.
#[test]
fn commit_update_landing_on_a_support_value_prices_identically() {
    let t_rows: Vec<(u8, i16)> = (0..12).map(|i| (i as u8, 3 * i as i16)).collect();
    let u_rows: Vec<(u8, i16)> = (0..8).map(|i| (i as u8, 5 * i as i16 - 9)).collect();
    let db = build_db(&t_rows, &u_rows);
    // Some neighbor rewrites a `T.v` cell; the seller commits that value.
    let (row, value) = generate_support(&db, &support_config(7))
        .iter()
        .find_map(|u| match u {
            SupportUpdate::Row {
                table: 0,
                row,
                changes,
            } => changes
                .iter()
                .find(|(col, _)| *col == 2)
                .map(|(_, v)| (*row, v.clone())),
            _ => None,
        })
        .expect("a row update of T.v in the support set");
    let seller_update = format!("UPDATE T SET v = {value} WHERE id = {row}");
    // c = -41: every tuple contributes, so the write-back neighbor is one
    // the visibility test reasons about.
    let pool = query_pool(-41);

    for function in FUNCTIONS {
        let broker = |strategy: Strategy| {
            let mut b = Qirana::new(
                db.clone(),
                QiranaConfig {
                    function,
                    support: support_config(7),
                    engine: engine(strategy),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(b.commit_update(&seller_update).unwrap(), 1);
            b
        };
        let mut reference = broker(Strategy::Naive);
        let quotes: Vec<u64> = pool
            .iter()
            .map(|sql| reference.quote(sql).unwrap().to_bits())
            .collect();
        let buys: Vec<u64> = pool
            .iter()
            .map(|sql| reference.buy("p", sql).unwrap().price.to_bits())
            .collect();
        for strategy in STRATEGIES {
            let mut b = broker(strategy);
            for (sql, want) in pool.iter().zip(&quotes) {
                let got = b.quote(sql).unwrap().to_bits();
                assert_eq!(
                    got, *want,
                    "quote of {sql} under {strategy:?} ({function:?})"
                );
            }
            for (sql, want) in pool.iter().zip(&buys) {
                let got = b.buy("p", sql).unwrap().price.to_bits();
                assert_eq!(got, *want, "buy of {sql} under {strategy:?} ({function:?})");
            }
        }
    }
}

/// Regression: TPC-H Q1 at the benchmark's own size. Instance 51 swaps two
/// `lineitem` rows inside one group. The group's bag is unchanged, so its
/// exact sums are too and the instance agrees — under brute force and under
/// every strategy.
#[test]
fn tpch_q1_default_path_matches_naive_and_brute_force() {
    let mut db = qirana_datagen::tpch::generate(0.001, 5);
    let (_, sql) = &qirana_datagen::queries::tpch_queries(0.001)[0];
    let q = prepare_query(&db, sql).unwrap();
    let updates = generate_support(
        &db,
        &SupportConfig {
            size: 256,
            seed: 1,
            ..Default::default()
        },
    );
    assert!(matches!(updates[51], SupportUpdate::Swap { .. }));
    let base = bag_fp(execute(&q.plan, &ExecContext::new(&db)).unwrap());
    let brute: Vec<Fingerprint> = updates
        .iter()
        .map(|up| {
            let undo = up.apply(&mut db);
            let fp = bag_fp(execute(&q.plan, &ExecContext::new(&db)).unwrap());
            apply_writes(&mut db, &undo);
            fp
        })
        .collect();
    let brute_bits: Vec<bool> = brute.iter().map(|fp| *fp != base).collect();
    assert!(!brute_bits[51], "an in-group swap keeps every sum");
    let support = SupportSet::Neighborhood(updates);
    for strategy in [Strategy::Auto, Strategy::Naive] {
        let opts = engine(strategy);
        let bits = query_bits(&db, &q, &support, &opts).unwrap();
        assert_eq!(bits, brute_bits, "Q1 bits under {strategy:?}");
        let fps = query_fps(&db, &q, &support, &opts).unwrap();
        assert_eq!(fps, brute, "Q1 fingerprints under {strategy:?}");
    }
}

/// The float-aggregate queries of the TPC-H flight fold every visible
/// neighbor in the delta accumulators: no neighbor re-executes, in either
/// family, at the benchmark's own size.
#[test]
fn tpch_float_aggregates_never_fall_back() {
    let db = qirana_datagen::tpch::generate(0.001, 5);
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 256,
            seed: 1,
            ..Default::default()
        },
    ));
    for (name, sql) in qirana_datagen::queries::tpch_queries(0.001) {
        if !["Q1", "Q5", "Q6"].contains(&name) {
            continue;
        }
        let q = prepare_query(&db, &sql).unwrap();
        let tel = Telemetry::enabled();
        let opts = EngineOptions::default().with_telemetry(tel.clone());
        query_bits(&db, &q, &support, &opts).unwrap();
        query_fps(&db, &q, &support, &opts).unwrap();
        let sink = tel.sink().unwrap();
        assert_eq!(sink.counter("delta_builds_total"), 2, "{name}");
        assert_eq!(sink.counter("delta_fallbacks_total"), 0, "{name}");
    }
}

/// A float `SUM` and `AVG` over a group whose two rows trade values: the
/// bag is unchanged, so the instance agrees with the base — under brute
/// force, every strategy and both families — although a left fold of the
/// group's values in the two row orders gives two different doubles.
#[test]
fn an_in_group_float_swap_agrees_everywhere() {
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
    assert_ne!(
        (0.1f64 + 0.2 + 0.3).to_bits(),
        (0.3f64 + 0.2 + 0.1).to_bits()
    );
    let swap = SupportUpdate::Swap {
        table: 0,
        row_a: 0,
        row_b: 2,
        cols: vec![2],
    };
    let q = prepare_query(&db, "SELECT grp, sum(x), avg(x) FROM F GROUP BY grp").unwrap();
    let base = bag_fp(execute(&q.plan, &ExecContext::new(&db)).unwrap());
    let undo = swap.apply(&mut db);
    assert_eq!(
        bag_fp(execute(&q.plan, &ExecContext::new(&db)).unwrap()),
        base
    );
    apply_writes(&mut db, &undo);

    let support = SupportSet::Neighborhood(vec![swap]);
    for strategy in STRATEGIES {
        let opts = engine(strategy);
        let bits = query_bits(&db, &q, &support, &opts).unwrap();
        assert_eq!(bits, [false], "coverage under {strategy:?}");
        let fps = query_fps(&db, &q, &support, &opts).unwrap();
        assert_eq!(fps, [base], "entropy under {strategy:?}");
    }
}

/// An expired execution budget must surface as `BudgetExceeded` through
/// `Strategy::Naive`'s per-instance loop, which stops at the first trip —
/// not hang, panic, or report partial bits.
#[test]
fn budget_trip_propagates_through_per_instance_path() {
    let t_rows: Vec<(u8, i16)> = (0..16).map(|i| (i as u8, i as i16)).collect();
    let db = build_db(&t_rows, &[]);
    let q = prepare_query(&db, "SELECT grp, sum(v) FROM T GROUP BY grp").unwrap();
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 200,
            ..Default::default()
        },
    ));
    let opts =
        EngineOptions::naive().with_budget(ExecBudget::default().with_timeout(Duration::ZERO));
    let err = bundle_disagreements(&db, &[&q], &support, &opts).unwrap_err();
    assert!(
        matches!(err, EngineError::BudgetExceeded { .. }),
        "expected BudgetExceeded, got {err:?}"
    );
}

/// Every neighbor of a support that updates `U` only: `T` is read
/// unpatched by every execution of a sweep, so `Auto` serves it from the
/// sweep's scan memo.
#[allow(clippy::unwrap_used)] // test fixture: a missing table is a broken test
fn u_only_support(db: &Database, size: usize) -> SupportSet {
    let u = db.table_index("U").unwrap();
    let updates: Vec<SupportUpdate> = generate_support(db, &support_config(3))
        .into_iter()
        .filter(|up| up.table() == u)
        .take(size)
        .collect();
    assert!(updates.len() >= 8, "too few `U` neighbors");
    SupportSet::Neighborhood(updates)
}

/// `Auto`'s fingerprints and bits equal `Naive`'s bitwise, for both
/// pricing families.
#[allow(clippy::unwrap_used)] // test helper: an error fails the test
fn assert_auto_is_naive(db: &Database, sql: &str, support: &SupportSet) {
    let q = prepare_query(db, sql).unwrap();
    let [auto, naive] = STRATEGIES.map(|s| query_fps(db, &q, support, &engine(s)).unwrap());
    assert_eq!(auto, naive, "fingerprints of {sql}");
    let [auto, naive] = STRATEGIES.map(|s| query_bits(db, &q, support, &engine(s)).unwrap());
    assert_eq!(auto, naive, "bits of {sql}");
}

/// The scan memo's keys compare literals bitwise. The outer block filters
/// `T` with `v * 4 > 0`, the `EXISTS` block with `v * 4.0 > 0`: equal
/// under `PExpr`'s derived `PartialEq`, yet `v = 2^62` wraps to 0 under
/// the first and passes the second. Keys that conflated them would hand
/// the inner block the outer block's rows.
#[test]
fn scan_memo_keys_tell_int_and_float_literals_apart() {
    let t_rows: Vec<(u8, i16)> = (0..8).map(|i| (i as u8, 1 + i as i16)).collect();
    let u_rows: Vec<(u8, i16)> = (0..24).map(|i| (i as u8, ((i + 1) % 8) as i16)).collect();
    let mut db = build_db(&t_rows, &u_rows);
    db.table_at_mut(0).rows[3][2] = Value::Int(1 << 62);
    let sql = "SELECT DISTINCT U.uid FROM T, U \
               WHERE T.id = U.t_id AND T.v * 4 > 0 \
               AND EXISTS (SELECT 1 FROM T t2 WHERE t2.id = U.w AND t2.v * 4.0 > 0)";
    let q = prepare_query(&db, sql).unwrap();
    assert!(matches!(q.shape, Shape::Opaque { .. }));
    // The big row is in play: it decides the `EXISTS` of some `U` rows
    // the outer filter keeps.
    let out = execute(&q.plan, &ExecContext::new(&db)).unwrap();
    assert_eq!(out.rows.len(), 21, "{out:?}");
    assert_auto_is_naive(&db, sql, &u_only_support(&db, 64));
}

/// A stored row whose `v` is a string fails `v + 1` wherever `T` is
/// scanned. The base execution never reaches the uncorrelated `EXISTS`
/// (no `U` row passes `w > 100`); a neighbor that lifts some `w` past 100
/// does, and errs there. `Auto`, reading `T` through the scan memo, errs
/// exactly like `Naive`, on every route.
#[test]
fn an_unpatched_poisoned_row_errs_like_naive() {
    let t_rows: Vec<(u8, i16)> = (0..8).map(|i| (i as u8, i as i16)).collect();
    let u_rows: Vec<(u8, i16)> = (0..12).map(|i| (i as u8, i as i16)).collect();
    let mut db = build_db(&t_rows, &u_rows);
    db.table_at_mut(0).rows[5][2] = Value::str("boom");
    let u = db.table_index("U").unwrap();
    let lift = |row, w: i64| SupportUpdate::Row {
        table: u,
        row,
        changes: vec![(2, Value::Int(w))],
    };
    let support = SupportSet::Neighborhood(vec![lift(0, 7), lift(1, 9), lift(2, 500), lift(3, 8)]);
    for sql in [
        // Opaque: per-instance; the third neighbor errs.
        "SELECT DISTINCT U.w FROM U WHERE U.w > 100 \
         AND EXISTS (SELECT 1 FROM T WHERE T.v + 1 > 0)",
        // Delta shapes: the base execution errs.
        "SELECT U.w FROM T, U WHERE T.id = U.t_id AND T.v + 1 > 0",
        "SELECT T.grp, sum(U.w) FROM T, U WHERE T.id = U.t_id AND T.v + 1 > 0 GROUP BY T.grp",
    ] {
        let q = prepare_query(&db, sql).unwrap();
        for bits in [false, true] {
            let [auto, naive] = STRATEGIES.map(|s| {
                let opts = engine(s);
                let err = match bits {
                    true => query_bits(&db, &q, &support, &opts).map(|_| ()),
                    false => query_fps(&db, &q, &support, &opts).map(|_| ()),
                };
                format!("{:?}", err.unwrap_err())
            });
            assert_eq!(auto, naive, "{sql}");
        }
    }
}

/// The opaque TPC-H plans run per instance, reading every relation a
/// neighbor leaves unpatched through the scan memo: their fingerprints
/// and bits are `Naive`'s.
#[test]
fn opaque_tpch_plans_match_naive_through_the_scan_memo() {
    let db = qirana_datagen::tpch::generate(0.0005, 5);
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 64,
            seed: 1,
            ..Default::default()
        },
    ));
    for (name, sql) in qirana_datagen::queries::tpch_queries(0.0005) {
        if !["Q2", "Q11", "Q17"].contains(&name) {
            continue;
        }
        let q = prepare_query(&db, &sql).unwrap();
        assert!(matches!(q.shape, Shape::Opaque { .. }), "{name}");
        assert_auto_is_naive(&db, &sql, &support);
    }
}
