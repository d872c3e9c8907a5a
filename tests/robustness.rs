//! End-to-end robustness: execution budgets, solver deadlines, and
//! injected faults must surface as structured errors — never panics, never
//! unbounded runtime — and the broker must degrade or recover exactly as
//! documented (README "Robustness & degradation").
//!
//! Every test holds the [`fault::serialize_tests`] guard — those that arm
//! a failpoint and those that merely build or drive a broker: the fault
//! registry is process-global, `cargo test` runs tests concurrently, and
//! every broker call passes failpoints, so an unguarded test would consume
//! (and fail on) a one-shot fault another test armed for itself.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana::core::engine::{query_bits, query_fps};
use qirana::core::{
    fault, generate_support, prepare_query, SupportSet, SupportUpdate, WeightError,
};
use qirana::solver::AbortCause;
use qirana::sqlengine::{
    execute, BudgetResource, ColumnDef, DataType, EngineError, ExecContext, TableSchema,
};
use qirana::{
    BrokerError, Database, EngineOptions, ExecBudget, PricePoint, PricingFunction, Qirana,
    QiranaConfig, RetryPolicy, SupportConfig,
};
use std::time::{Duration, Instant};

fn twitter_db() -> Database {
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
        (1..=8i64)
            .map(|i| {
                vec![
                    i.into(),
                    if i % 2 == 0 { "f" } else { "m" }.into(),
                    (10 + i * 3).into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    db.add_table(
        TableSchema::new(
            "Tweet",
            vec![
                ColumnDef::new("tid", DataType::Int),
                ColumnDef::new("uid", DataType::Int),
            ],
            &["tid"],
        ),
        (1..=10i64)
            .map(|i| vec![i.into(), (i % 8 + 1).into()])
            .collect::<Vec<_>>(),
    );
    db
}

fn small_support() -> SupportConfig {
    SupportConfig {
        size: 60,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Failure mode 1: execution budget trips mid-join
// ---------------------------------------------------------------------------

#[test]
fn row_budget_trips_mid_join_as_structured_error() {
    let _guard = fault::serialize_tests();
    let broker = Qirana::new(
        twitter_db(),
        QiranaConfig {
            support: small_support(),
            engine: EngineOptions::default().with_budget(ExecBudget::UNLIMITED.with_max_rows(3)),
            ..Default::default()
        },
    )
    .unwrap();
    // The join materializes more than 3 rows, so pricing must stop
    // cooperatively with the typed budget error — not garbage, not a panic.
    let err = broker
        .quote("SELECT gender FROM User, Tweet WHERE User.uid = Tweet.uid")
        .unwrap_err();
    match err {
        BrokerError::Engine(EngineError::BudgetExceeded { resource, limit }) => {
            assert_eq!(resource, BudgetResource::Rows);
            assert_eq!(limit, 3);
        }
        other => panic!("expected a rows budget trip, got {other}"),
    }
    // A trip is per-call, not a poisoned state: the same quote fails the
    // same way again (budgets reset per context), no panic, no wedging.
    let again = broker
        .quote("SELECT gender FROM User, Tweet WHERE User.uid = Tweet.uid")
        .unwrap_err();
    assert!(
        matches!(again, BrokerError::Engine(e) if e.is_budget_exceeded()),
        "deterministic repeat trip expected"
    );
    // An aggregate over the same join trips the same way: under a budget
    // every sweep, SPJ or aggregate, leaves the delta evaluator for
    // per-instance execution, whose base execution trips here.
    let agg = broker
        .quote(
            "SELECT gender, count(*) FROM User, Tweet WHERE User.uid = Tweet.uid GROUP BY gender",
        )
        .unwrap_err();
    assert!(
        matches!(
            agg,
            BrokerError::Engine(EngineError::BudgetExceeded {
                resource: BudgetResource::Rows,
                limit: 3
            })
        ),
        "got {agg}"
    );
}

/// Budget parity for an SPJ join: the default path must return exactly the
/// `Result` per-instance execution returns — the same `BudgetExceeded` under
/// a row budget the base execution passes but some neighbor's execution
/// exceeds, the same bits and fingerprints under one every execution
/// passes.
#[test]
fn spj_sweeps_under_a_row_budget_match_naive() {
    let _guard = fault::serialize_tests();
    let db = twitter_db();
    let q = prepare_query(
        &db,
        "SELECT gender FROM User, Tweet WHERE User.uid = Tweet.uid AND age > 25",
    )
    .unwrap();
    let updates = generate_support(&db, &small_support());
    // Rows one execution charges, the stored database patched by `update`.
    let charged = |update: Option<&SupportUpdate>| {
        let patch = update.map(|up| up.patch(&db)).unwrap_or_default();
        let table = update.map_or(0, SupportUpdate::table);
        let ctx = ExecContext::new(&db)
            .with_patch(table, &patch)
            .with_budget(ExecBudget::UNLIMITED.with_max_rows(u64::MAX));
        execute(&q.plan, &ctx).unwrap();
        ctx.rows_charged()
    };
    let base = charged(None);
    let worst = updates.iter().map(|up| charged(Some(up))).max().unwrap();
    assert!(
        worst > base,
        "some neighbor must charge more rows than the base"
    );
    let support = SupportSet::Neighborhood(updates);

    for max_rows in [base, worst] {
        let budget = ExecBudget::UNLIMITED.with_max_rows(max_rows);
        let naive = EngineOptions::naive().with_budget(budget);
        let auto = EngineOptions::default().with_budget(budget);
        let bits = query_bits(&db, &q, &support, &naive);
        let tripped = bits.as_ref().is_err_and(EngineError::is_budget_exceeded);
        assert_eq!(tripped, max_rows == base, "{bits:?} at {max_rows} rows");
        assert_eq!(query_bits(&db, &q, &support, &auto), bits);
        assert_eq!(
            query_fps(&db, &q, &support, &auto),
            query_fps(&db, &q, &support, &naive)
        );
    }
}

#[test]
fn expired_deadline_trips_immediately_and_is_bounded() {
    let _guard = fault::serialize_tests();
    let broker = Qirana::new(
        twitter_db(),
        QiranaConfig {
            support: small_support(),
            engine: EngineOptions::default()
                .with_budget(ExecBudget::UNLIMITED.with_timeout(Duration::ZERO)),
            ..Default::default()
        },
    )
    .unwrap();
    let start = Instant::now();
    let err = broker.quote("SELECT * FROM User").unwrap_err();
    assert!(
        matches!(
            err,
            BrokerError::Engine(EngineError::BudgetExceeded {
                resource: BudgetResource::WallClock,
                ..
            })
        ),
        "got {err}"
    );
    assert!(start.elapsed() < Duration::from_secs(5), "must fail fast");
}

#[test]
fn failed_purchase_does_not_charge_the_buyer() {
    let _guard = fault::serialize_tests();
    let mut broker = Qirana::new(
        twitter_db(),
        QiranaConfig {
            support: small_support(),
            engine: EngineOptions::default().with_budget(ExecBudget::UNLIMITED.with_max_rows(2)),
            ..Default::default()
        },
    )
    .unwrap();
    let err = broker.buy("alice", "SELECT * FROM User").unwrap_err();
    assert!(
        matches!(err, BrokerError::Engine(e) if e.is_budget_exceeded()),
        "budget trip expected"
    );
    assert_eq!(
        broker.buyer_paid("alice"),
        None,
        "no account is opened on failure"
    );
    assert_eq!(broker.buyer_coverage("alice"), None);
}

// ---------------------------------------------------------------------------
// Failure mode 2: solver deadline mid-quote → graceful degradation
// ---------------------------------------------------------------------------

#[test]
fn solver_timeout_degrades_to_uniform_weights() {
    let _guard = fault::serialize_tests();
    let cfg = QiranaConfig {
        support: small_support(),
        price_points: vec![PricePoint::new("SELECT * FROM User", 70.0)],
        solver: qirana::solver::SolverOptions::default().with_time_limit(Duration::ZERO),
        ..Default::default()
    };
    let start = Instant::now();
    let mut broker = Qirana::new(twitter_db(), cfg).unwrap();
    assert!(
        broker.is_degraded(),
        "every solve attempt hits the zero deadline, so the broker must \
         fall back to uniform weights"
    );
    // Quotes carry the flag and stay arbitrage-free: Q_all still prices at P.
    let q = broker
        .quote_bundle_ex(&["SELECT * FROM User", "SELECT * FROM Tweet"])
        .unwrap();
    assert!(q.degraded);
    assert!((q.price - 100.0).abs() < 1e-9, "Q_all = P even degraded");
    // Purchases carry it too.
    let p = broker
        .buy("bob", "SELECT count(*) FROM User WHERE gender = 'f'")
        .unwrap();
    assert!(p.degraded);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "retries are bounded"
    );
}

#[test]
fn solver_timeout_without_fallback_is_a_typed_error() {
    let _guard = fault::serialize_tests();
    let cfg = QiranaConfig {
        support: small_support(),
        price_points: vec![PricePoint::new("SELECT * FROM User", 70.0)],
        solver: qirana::solver::SolverOptions::default().with_time_limit(Duration::ZERO),
        retry: RetryPolicy {
            max_attempts: 2,
            fallback_to_uniform: false,
        },
        ..Default::default()
    };
    let err = Qirana::new(twitter_db(), cfg).unwrap_err();
    match err {
        BrokerError::Weights(WeightError::SolverAborted { cause, .. }) => {
            assert_eq!(cause, AbortCause::TimeLimit);
        }
        other => panic!("expected SolverAborted, got {other}"),
    }
}

#[test]
fn infeasible_price_points_degrade_with_flag() {
    let _guard = fault::serialize_tests();
    // A subset priced above the whole dataset: infeasible on every support
    // set, so after the retry/backoff ladder the broker must degrade.
    let cfg = QiranaConfig {
        support: small_support(),
        price_points: vec![PricePoint::new("SELECT * FROM User", 170.0)],
        ..Default::default()
    };
    let broker = Qirana::new(twitter_db(), cfg).unwrap();
    assert!(broker.is_degraded());
    let q = broker.quote_ex("SELECT * FROM User").unwrap();
    assert!(q.degraded);
    assert!(q.price > 0.0 && q.price <= 100.0 + 1e-9);
}

// ---------------------------------------------------------------------------
// Failure mode 3: injected support-generation failure
// ---------------------------------------------------------------------------

#[test]
fn injected_support_failure_exhausts_retries_as_typed_error() {
    let _guard = fault::serialize_tests();
    fault::reset();
    fault::arm(fault::SUPPORT_GENERATE, fault::Trigger::Always);
    let start = Instant::now();
    let err = Qirana::new(
        twitter_db(),
        QiranaConfig {
            support: small_support(),
            ..Default::default()
        },
    )
    .unwrap_err();
    fault::reset();
    assert!(
        matches!(err, BrokerError::Support(_)),
        "support failure must surface typed, got {err}"
    );
    assert!(start.elapsed() < Duration::from_secs(5), "retries bounded");
}

#[test]
fn injected_support_failure_recovers_on_retry() {
    let _guard = fault::serialize_tests();
    fault::reset();
    // First generation attempt fails; the reseeded retry succeeds — the
    // §3.3 reaction loop absorbs a transient failure.
    fault::arm(fault::SUPPORT_GENERATE, fault::Trigger::Once);
    let broker = Qirana::new(
        twitter_db(),
        QiranaConfig {
            support: small_support(),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(fault::fired_count(fault::SUPPORT_GENERATE), 1);
    fault::reset();
    assert!(!broker.is_degraded(), "a clean retry is not a degradation");
    let p = broker.quote("SELECT * FROM User").unwrap();
    assert!(p > 0.0);
}

// ---------------------------------------------------------------------------
// Failure mode 4: injected engine failure mid-quote
// ---------------------------------------------------------------------------

#[test]
fn injected_engine_failure_fails_one_quote_then_recovers() {
    let _guard = fault::serialize_tests();
    fault::reset();
    let broker = Qirana::new(
        twitter_db(),
        QiranaConfig {
            support: small_support(),
            ..Default::default()
        },
    )
    .unwrap();
    fault::arm(fault::ENGINE_EXECUTE, fault::Trigger::Once);
    let err = broker.quote("SELECT * FROM User").unwrap_err();
    assert!(
        err.to_string().contains("injected fault"),
        "engine fault must carry its provenance: {err}"
    );
    let p = broker.quote("SELECT * FROM User").unwrap();
    fault::reset();
    assert!(p > 0.0, "the failpoint disarmed; pricing works again");
}

// ---------------------------------------------------------------------------
// Failure mode 5: injected fault during buy
// ---------------------------------------------------------------------------

#[test]
fn injected_buy_failure_charges_nothing_then_recovers() {
    let _guard = fault::serialize_tests();
    fault::reset();
    let mut broker = Qirana::new(
        twitter_db(),
        QiranaConfig {
            support: small_support(),
            ..Default::default()
        },
    )
    .unwrap();
    fault::arm(fault::BROKER_BUY, fault::Trigger::Once);
    let sql = "SELECT gender, count(*) FROM User GROUP BY gender";
    let err = broker.buy("carol", sql).unwrap_err();
    assert!(matches!(err, BrokerError::Injected(_)), "got {err}");
    assert_eq!(
        broker.buyer_paid("carol"),
        None,
        "failed buy opens no account"
    );
    // The retry goes through and history-aware accounting is intact.
    let first = broker.buy("carol", sql).unwrap();
    assert!(first.price > 0.0);
    let second = broker.buy("carol", sql).unwrap();
    fault::reset();
    assert_eq!(second.price, 0.0, "repeat purchase still free after fault");
}

// ---------------------------------------------------------------------------
// Failure mode 6: failed purchases are atomic for BOTH pricing families
// ---------------------------------------------------------------------------

/// A purchase that fails partway must leave the buyer's account, history,
/// and charged bitmap exactly as they were — for the coverage family and
/// the entropy family alike, whether the fault fires at the broker entry
/// point (`BROKER_BUY`) or inside pricing itself (`ENGINE_EXECUTE`; the
/// broker checks the same failpoint at the head of every buy, so an armed
/// fault aborts a warm buy exactly like a cold one). Solver weights are
/// fixed at broker construction and cannot abort mid-buy, so the engine
/// abort stands in for every mid-purchase failure source.
///
/// Atomicity is verified two ways: the visible account is unchanged after
/// the fault, and every subsequent buy prices bitwise-identically to a
/// never-faulted control broker — a corrupted history vector, entropy
/// `paid` accumulator, or charged bitmap would diverge here.
#[test]
fn failed_purchase_is_atomic_for_both_families() {
    let _guard = fault::serialize_tests();
    for function in [
        PricingFunction::WeightedCoverage,
        PricingFunction::ShannonEntropy,
    ] {
        for failpoint in [fault::BROKER_BUY, fault::ENGINE_EXECUTE] {
            fault::reset();
            let make = || {
                Qirana::new(
                    twitter_db(),
                    QiranaConfig {
                        function,
                        support: small_support(),
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let mut broker = make();
            let mut control = make();
            let q1 = "SELECT gender, count(*) FROM User GROUP BY gender";
            let q2 = "SELECT count(*) FROM Tweet WHERE uid = 3";

            let first = broker.buy("carol", q1).unwrap();
            let first_control = control.buy("carol", q1).unwrap();
            assert_eq!(first.price.to_bits(), first_control.price.to_bits());
            let paid_before = broker.buyer_paid("carol").unwrap();
            let coverage_before = broker.buyer_coverage("carol").unwrap();

            fault::arm(failpoint, fault::Trigger::Once);
            let err = broker.buy("carol", q2).unwrap_err();
            assert_eq!(
                fault::fired_count(failpoint),
                1,
                "{failpoint}: the armed failpoint must be the failure cause"
            );
            assert!(
                err.to_string().contains("injected fault")
                    || matches!(err, BrokerError::Injected(_)),
                "{failpoint}: fault provenance lost: {err}"
            );
            assert_eq!(
                broker.buyer_paid("carol").unwrap().to_bits(),
                paid_before.to_bits(),
                "{failpoint}/{function:?}: failed buy must not charge"
            );
            assert_eq!(
                broker.buyer_coverage("carol").unwrap().to_bits(),
                coverage_before.to_bits(),
                "{failpoint}/{function:?}: failed buy must not mark coverage"
            );

            // Recovery: the faulted broker now tracks the control broker
            // bit-for-bit, including the free repeat of q1.
            for sql in [q2, q1, q2] {
                let got = broker.buy("carol", sql).unwrap();
                let want = control.buy("carol", sql).unwrap();
                assert_eq!(
                    got.price.to_bits(),
                    want.price.to_bits(),
                    "{failpoint}/{function:?}: post-fault price diverges on {sql}"
                );
                assert_eq!(
                    got.total_paid.to_bits(),
                    want.total_paid.to_bits(),
                    "{failpoint}/{function:?}: post-fault account diverges"
                );
            }
            fault::reset();
        }
    }
}
