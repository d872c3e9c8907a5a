//! Criterion microbenchmarks for QIRANA's hot paths and the design-choice
//! ablations DESIGN.md calls out:
//!
//! * support-set generation;
//! * SPJ coverage sweeps — one rung per `Strategy` value: `Naive` vs.
//!   `NaiveReduced` (instance reduction) vs. `Auto` (the batched delta
//!   evaluator) — the §4 ladder;
//! * SPJ entropy sweeps on the same join: `Naive` vs. `Auto` (the batched
//!   delta evaluator);
//! * aggregate coverage sweeps (Algorithm 5's job, done by the delta
//!   evaluator);
//! * entropy-family partition pricing (Algorithm 2);
//! * history-aware repricing (the shrinking-support effect of §5.3);
//! * a quote followed by the buy of the same query, with and without the
//!   broker's quote-to-buy handoff;
//! * weight assignment with price points (the max-entropy solve).

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qirana_core::engine::query_fps;
use qirana_core::{
    bundle_disagreements, bundle_partition, generate_support, prepare_query, EngineOptions,
    Prepared, PricePoint, PricingFunction, Qirana, QiranaConfig, Strategy, SupportConfig,
    SupportSet,
};
use qirana_datagen::queries::ssb_q11_instance;
use qirana_datagen::{ssb, world};
use qirana_solver::{solve, MaxEntProblem};
use qirana_sqlengine::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn support_generation(c: &mut Criterion) {
    let db = world::generate(7);
    let mut g = c.benchmark_group("support_generation");
    for size in [100usize, 1000, 5000] {
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                generate_support(
                    &db,
                    &SupportConfig {
                        size,
                        ..Default::default()
                    },
                )
            })
        });
    }
    g.finish();
}

/// `world`, S = 2000 and one Country ⋈ CountryLanguage join: the fixture
/// of both SPJ groups.
fn spj_fixture() -> (Database, SupportSet, Prepared) {
    let db = world::generate(7);
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 2000,
            ..Default::default()
        },
    ));
    let q = prepare_query(
        &db,
        "SELECT Name, Population FROM Country C, CountryLanguage L \
         WHERE C.Code = L.CountryCode AND L.Percentage < 30 AND C.Population > 1000000",
    )
    .unwrap();
    (db, support, q)
}

fn spj_engine_ladder(c: &mut Criterion) {
    let (db, support, q) = spj_fixture();
    let mut g = c.benchmark_group("spj_coverage_S2000");
    // The §4 ladder, one rung per `Strategy` value.
    for strategy in [Strategy::Naive, Strategy::NaiveReduced, Strategy::Auto] {
        let opts = EngineOptions {
            strategy,
            ..Default::default()
        };
        g.bench_function(format!("{strategy:?}"), |b| {
            b.iter(|| bundle_disagreements(&db, &[&q], &support, &opts, None).unwrap())
        });
    }
    g.finish();
}

/// The entropy primitive on the same join: per-instance execution against
/// the batched delta evaluator.
fn spj_entropy(c: &mut Criterion) {
    let (db, support, q) = spj_fixture();
    let mut g = c.benchmark_group("query_fps_S2000");
    for (name, opts) in [
        ("Naive", EngineOptions::naive()),
        ("Auto", EngineOptions::default()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| query_fps(&db, &q, &support, &opts).unwrap())
        });
    }
    g.finish();
}

fn agg_engine(c: &mut Criterion) {
    let db = world::generate(7);
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 2000,
            ..Default::default()
        },
    ));
    let q = prepare_query(
        &db,
        "SELECT Region, AVG(LifeExpectancy), COUNT(*) FROM Country GROUP BY Region",
    )
    .unwrap();
    let mut g = c.benchmark_group("agg_coverage_S2000");
    for (name, opts) in [
        ("Naive", EngineOptions::naive()),
        ("Auto", EngineOptions::default()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| bundle_disagreements(&db, &[&q], &support, &opts, None).unwrap())
        });
    }
    g.finish();
}

fn entropy_partition(c: &mut Criterion) {
    let db = world::generate(7);
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 300,
            ..Default::default()
        },
    ));
    let q = prepare_query(
        &db,
        "SELECT Continent, COUNT(*) FROM Country GROUP BY Continent",
    )
    .unwrap();
    c.bench_function("bundle_partition_S300", |b| {
        b.iter(|| bundle_partition(&db, &[&q], &support, &EngineOptions::default()).unwrap())
    });
}

fn history_shrinks_work(c: &mut Criterion) {
    let db = world::generate(7);
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 2000,
            ..Default::default()
        },
    ));
    let q = prepare_query(&db, "SELECT * FROM Country WHERE ID < 120").unwrap();
    // A buyer who already paid for 90% of the support set.
    let charged: Vec<bool> = (0..2000).map(|i| i % 10 != 0).collect();
    let mut g = c.benchmark_group("history_aware_S2000");
    g.bench_function("fresh_buyer", |b| {
        b.iter(|| {
            bundle_disagreements(&db, &[&q], &support, &EngineOptions::default(), None).unwrap()
        })
    });
    g.bench_function("buyer_with_90pct_history", |b| {
        b.iter(|| {
            bundle_disagreements(
                &db,
                &[&q],
                &support,
                &EngineOptions::default(),
                Some(&charged),
            )
            .unwrap()
        })
    });
    g.finish();
}

/// `history_entropy`'s market (SSB sf 0.001, Shannon, S = 256, support
/// seed 11) pricing a fresh SSB Q1.1 instance per iteration, quote then
/// buy. `handoff`: one broker, whose buy takes the quote's sweep. `parent
/// shape`: the quote on one broker and the buy on a twin that never saw
/// it — two sweeps, what every quote-then-buy cost before the handoff.
fn quote_then_buy(c: &mut Criterion) {
    let market = || {
        let config = QiranaConfig {
            function: PricingFunction::ShannonEntropy,
            support: SupportConfig {
                size: 256,
                seed: 11,
                ..Default::default()
            },
            ..Default::default()
        };
        Qirana::new(ssb::generate(0.001, 5), config).unwrap()
    };
    let mut g = c.benchmark_group("quote_then_buy_S256");
    for arm in ["parent_shape", "handoff"] {
        let quoter = market();
        let mut seller = market();
        let mut rng = StdRng::seed_from_u64(3);
        let mut buyer = 0u32;
        g.bench_function(arm, |b| {
            b.iter(|| {
                let sql = ssb_q11_instance(&mut rng);
                buyer += 1;
                let name = format!("b{buyer}");
                if arm == "handoff" {
                    seller.quote(&sql).unwrap();
                } else {
                    quoter.quote(&sql).unwrap();
                }
                seller.buy(&name, &sql).unwrap()
            })
        });
    }
    g.finish();
}

fn weight_assignment(c: &mut Criterion) {
    let db = world::generate(7);
    let support = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: 2000,
            ..Default::default()
        },
    ));
    let points = vec![
        PricePoint::new("SELECT * FROM Country", 60.0),
        PricePoint::new("SELECT ID, Population FROM Country", 20.0),
        PricePoint::new("SELECT * FROM City", 25.0),
    ];
    c.bench_function("assign_weights_3_points_S2000", |b| {
        b.iter(|| {
            qirana_core::assign_weights(&db, &support, 100.0, &points, &EngineOptions::default())
                .unwrap()
        })
    });
}

fn maxent_solver(c: &mut Criterion) {
    let n = 10_000;
    let mut a = vec![vec![1.0; n]];
    let mut b = vec![100.0];
    for j in 1..=8usize {
        let cut = n * j / 10;
        let mut row = vec![0.0; n];
        row[..cut].iter_mut().for_each(|x| *x = 1.0);
        a.push(row);
        b.push(100.0 * cut as f64 / n as f64 * 0.9);
    }
    let p = MaxEntProblem { a, b, n };
    c.bench_function("maxent_8_constraints_10k_vars", |bch| {
        bch.iter(|| {
            let r = solve(&p);
            assert!(r.is_optimal());
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = support_generation, spj_engine_ladder, spj_entropy, agg_engine,
              entropy_partition, history_shrinks_work, quote_then_buy,
              weight_assignment, maxent_solver
}
criterion_main!(benches);
