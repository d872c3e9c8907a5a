//! A purchase returns the query's answer bit for bit, whichever way its
//! pricing artifact was read: a quote's sweep taken from the handoff, the
//! buy's own cold sweep, or a memo hit. The answer may come from the sweep
//! that priced the query, or (after a memo hit) from executing the plan,
//! so each of these is held against `Qirana::answer` — columns, order
//! flag, row order and every float's bits — over the three benchmark query
//! families, under both pricing families.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana::datagen::{queries, ssb, tpch, world};
use qirana::{
    BrokerError, Database, EngineOptions, ExecBudget, PricingFunction, Qirana, QiranaConfig,
    QueryOutput, SupportConfig, Value,
};

const S: usize = 16;

const FUNCTIONS: [PricingFunction; 2] = [
    PricingFunction::WeightedCoverage,
    PricingFunction::ShannonEntropy,
];

fn broker(db: Database, function: PricingFunction, engine: EngineOptions) -> Qirana {
    let config = QiranaConfig {
        function,
        support: SupportConfig {
            size: S,
            ..Default::default()
        },
        engine,
        ..Default::default()
    };
    Qirana::new(db, config).unwrap()
}

/// An output as its columns, order flag and rows, each value as its
/// variant and exact bits: `Int(3)` and `Float(3.0)` compare equal as
/// values but not here, and neither do two floats one rounding apart.
type Image = (Vec<String>, bool, Vec<Vec<String>>);

fn image(out: &QueryOutput) -> Image {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        other => format!("{other:?}"),
    };
    let rows = out
        .rows
        .iter()
        .map(|r| r.iter().map(cell).collect())
        .collect();
    (out.columns.clone(), out.ordered, rows)
}

/// The three query families on small instances of their data sets.
fn markets() -> Vec<(&'static str, Database, Vec<String>)> {
    let sf = 0.0005;
    vec![
        (
            "world",
            world::generate(7),
            queries::WORLD_QUERIES.map(String::from).to_vec(),
        ),
        (
            "ssb",
            ssb::generate(sf, 5),
            queries::ssb_queries()
                .into_iter()
                .map(|(_, sql)| sql.to_string())
                .collect(),
        ),
        (
            "tpch",
            tpch::generate(sf, 11),
            queries::tpch_queries(sf)
                .into_iter()
                .map(|(_, sql)| sql)
                .collect(),
        ),
    ]
}

#[test]
fn every_kind_of_buy_returns_the_answer_bit_for_bit() {
    for (market, db, sqls) in markets() {
        for function in FUNCTIONS {
            let mut quoted = broker(db.clone(), function, EngineOptions::default());
            let mut cold = broker(db.clone(), function, EngineOptions::default());
            for (i, sql) in sqls.iter().enumerate() {
                let want = image(&quoted.answer(sql).unwrap());
                quoted.quote(sql).unwrap();
                let bought = [
                    ("quote then buy", quoted.buy(&format!("q{i}"), sql)),
                    ("memo-hit buy", quoted.buy(&format!("m{i}"), sql)),
                    ("cold buy", cold.buy(&format!("c{i}"), sql)),
                ];
                for (how, purchase) in bought {
                    let got = image(&purchase.unwrap().output);
                    assert_eq!(got, want, "{how} of {market} {sql} under {function:?}");
                }
            }
        }
    }
}

/// A commit between a quote and a buy empties the handoff, so the buy
/// answers from the database it is charged on, not the one quoted.
#[test]
fn a_commit_between_quote_and_buy_answers_from_the_new_database() {
    let sqls = [
        "SELECT Continent, COUNT(*), SUM(Population) FROM Country GROUP BY Continent",
        "SELECT Name, Population FROM Country WHERE Population > 1000",
        "SELECT DISTINCT Population FROM Country",
    ];
    for function in FUNCTIONS {
        for sql in sqls {
            let mut b = broker(world::generate(7), function, EngineOptions::default());
            let before = image(&b.answer(sql).unwrap());
            b.quote(sql).unwrap();
            let changed = b
                .commit_update("UPDATE Country SET Population = 987654321 WHERE ID = 1")
                .unwrap();
            assert_eq!(changed, 1);
            let after = image(&b.answer(sql).unwrap());
            assert_ne!(before, after, "{sql}: the update must show");
            let bought = b.buy("buyer", sql).unwrap();
            assert_eq!(image(&bought.output), after, "{sql} under {function:?}");
        }
    }
}

/// Answering from the sweep must not change which error a budget raises:
/// a buy whose answer trips the budget fails as the answer alone does.
#[test]
fn a_budget_the_answer_trips_fails_the_buy_with_the_same_error() {
    let sqls = [
        "SELECT C.Name, T.Name FROM Country C, City T WHERE C.Code = T.CountryCode",
        "SELECT Continent, COUNT(*) FROM Country GROUP BY Continent",
        "SELECT DISTINCT Continent FROM Country",
    ];
    for function in FUNCTIONS {
        for sql in sqls {
            let engine =
                EngineOptions::default().with_budget(ExecBudget::UNLIMITED.with_max_rows(3));
            let mut b = broker(world::generate(7), function, engine);
            let Err(BrokerError::Engine(want)) = b.answer(sql) else {
                panic!("{sql}: the answer must trip the budget");
            };
            for quote_first in [false, true] {
                if quote_first {
                    assert!(b.quote(sql).is_err(), "{sql}: the quote trips too");
                }
                match b.buy("buyer", sql) {
                    Err(BrokerError::Engine(got)) => {
                        assert_eq!(got, want, "{sql} under {function:?}")
                    }
                    other => panic!("{sql} under {function:?}: {other:?}"),
                }
                assert_eq!(b.buyer_paid("buyer"), None, "{sql}: nothing charged");
            }
        }
    }
}
