//! Golden test of the sweep routing table (DESIGN.md §9): which evaluation
//! path prices which query, and how much work it does.
//!
//! A fixed session — `world` and a tiny SSB, S = 64, default engine
//! options, telemetry on a deterministic clock — prices one SPJ, one
//! aggregate and one opaque query per pricing family and asserts, per
//! request, the path label on the sweep's `Disagreement` span and the
//! exact, machine-independent work counters. A change that silently
//! reroutes the default path (a coverage sweep through the delta
//! evaluator, say) or does more sweeps per purchase fails here, in tier-1,
//! instead of in a benchmark three changes later.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana::core::{prepare_query, Shape, Stage, TestClock};
use qirana::datagen::{ssb, world};
use qirana::{
    Database, EngineOptions, PricingFunction, Qirana, QiranaConfig, SupportConfig, Telemetry,
    TelemetrySink,
};
use std::sync::Arc;

const S: u64 = 64;

/// The counters the routing table pins.
const COUNTERS: [&str; 3] = [
    "neighbors_evaluated_total",
    "delta_builds_total",
    "delta_probes_total",
];

/// The counter increments a request with the given sweep must show: one
/// sweep looks at all `S` neighbors; only the entropy family's delta path
/// builds delta state (once) and probes it (once per neighbor).
fn golden_counters(sweep: Option<&str>) -> [u64; 3] {
    match sweep {
        None => [0, 0, 0],
        Some("entropy/delta") => [S, 1, S],
        Some(_) => [S, 0, 0],
    }
}

/// Reads what the sink recorded since the last call.
struct Tape {
    sink: Arc<TelemetrySink>,
    spans_seen: usize,
    counters_seen: [u64; 3],
}

impl Tape {
    /// The sweep labels and counter increments since the previous call.
    fn advance(&mut self) -> (Vec<String>, [u64; 3]) {
        let spans = self.sink.spans();
        let sweeps = spans[self.spans_seen..]
            .iter()
            .filter(|s| s.stage == Stage::Disagreement)
            .map(|s| s.detail.clone())
            .collect();
        self.spans_seen = spans.len();
        let now = COUNTERS.map(|c| self.sink.counter(c));
        let added = [0, 1, 2].map(|k| now[k] - self.counters_seen[k]);
        self.counters_seen = now;
        (sweeps, added)
    }

    /// Asserts the request just made ran exactly `sweep` (or none).
    fn expect(&mut self, what: &str, sweep: Option<&str>) {
        let (sweeps, added) = self.advance();
        assert_eq!(sweeps, Vec::from_iter(sweep), "sweep paths of {what}");
        assert_eq!(
            added,
            golden_counters(sweep),
            "{COUNTERS:?} added by {what}"
        );
    }
}

/// One query of the session: its shape, and the path that must price it
/// under each family.
struct Case {
    shape: &'static str,
    sql: &'static str,
    coverage: &'static str,
    entropy: &'static str,
}

const WORLD: [Case; 3] = [
    Case {
        shape: "spj",
        sql: "SELECT C.Name, T.Name FROM Country C, City T \
              WHERE C.Code = T.CountryCode AND T.Population > 1000000",
        coverage: "coverage/batched",
        entropy: "entropy/delta",
    },
    Case {
        shape: "agg",
        sql: "SELECT Continent, COUNT(*), SUM(Population) FROM Country GROUP BY Continent",
        coverage: "coverage/batched",
        entropy: "entropy/delta",
    },
    Case {
        shape: "opaque",
        sql: "SELECT DISTINCT Continent FROM Country",
        coverage: "coverage/per-instance",
        entropy: "entropy/per-instance",
    },
];

const SSB: [Case; 3] = [
    Case {
        shape: "spj",
        sql: "SELECT lo_orderkey, lo_revenue FROM lineorder, dwdate \
              WHERE lo_orderdate = d_datekey AND d_year = 1993 AND lo_quantity < 5",
        coverage: "coverage/batched",
        entropy: "entropy/delta",
    },
    Case {
        shape: "agg",
        sql: "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, dwdate \
              WHERE lo_orderdate = d_datekey AND d_year = 1993 \
              AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
        coverage: "coverage/batched",
        entropy: "entropy/delta",
    },
    Case {
        shape: "opaque",
        sql: "SELECT DISTINCT lo_shipmode FROM lineorder",
        coverage: "coverage/per-instance",
        entropy: "entropy/per-instance",
    },
];

/// Prices the session under `function`: a quote is one cold sweep (quotes
/// never fill the cache), the purchase one more, and a repeat quote is
/// answered from the memo with no sweep at all.
fn drive(db: Database, session: &[Case; 3], function: PricingFunction) {
    let telemetry = Telemetry::with_clock(Box::new(TestClock::stepping(10)));
    let mut tape = Tape {
        sink: Arc::clone(telemetry.sink().unwrap()),
        spans_seen: 0,
        counters_seen: [0; 3],
    };
    let mut broker = Qirana::new(
        db,
        QiranaConfig {
            function,
            support: SupportConfig {
                size: S as usize,
                ..Default::default()
            },
            engine: EngineOptions::default().with_telemetry(telemetry),
            ..Default::default()
        },
    )
    .unwrap();
    for case in session {
        let shape = match prepare_query(broker.db(), case.sql).unwrap().shape {
            Shape::Spj(_) => "spj",
            Shape::Agg(_) => "agg",
            Shape::Opaque { .. } => "opaque",
        };
        assert_eq!(shape, case.shape, "fixture drifted: {}", case.sql);
        let path = match function {
            PricingFunction::ShannonEntropy => case.entropy,
            _ => case.coverage,
        };
        tape.advance(); // set-up and the shape check are not requests
        broker.quote(case.sql).unwrap();
        tape.expect(&format!("quote of {}", case.sql), Some(path));
        broker.buy("golden", case.sql).unwrap();
        tape.expect(&format!("buy of {}", case.sql), Some(path));
        broker.quote(case.sql).unwrap();
        tape.expect(&format!("repeat quote of {}", case.sql), None);
    }
}

#[test]
fn coverage_sweeps_take_the_papers_paths_and_never_touch_delta() {
    drive(
        world::generate(7),
        &WORLD,
        PricingFunction::WeightedCoverage,
    );
    drive(
        ssb::generate(0.0005, 5),
        &SSB,
        PricingFunction::WeightedCoverage,
    );
}

#[test]
fn entropy_sweeps_take_delta_for_normal_forms_and_execute_opaque_plans() {
    drive(world::generate(7), &WORLD, PricingFunction::ShannonEntropy);
    drive(
        ssb::generate(0.0005, 5),
        &SSB,
        PricingFunction::ShannonEntropy,
    );
}
