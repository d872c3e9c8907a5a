//! Golden test of the sweep routing table (DESIGN.md §9): which evaluation
//! path prices which query, and how much work it does.
//!
//! A fixed session — `world`, a tiny SSB and a tiny TPC-H, S = 64, default
//! engine options, telemetry on a deterministic clock — prices one SPJ (an
//! `EXISTS` aggregate for TPC-H), one aggregate and one opaque query per
//! pricing family and asserts, per request, the path label on the sweep's
//! `Disagreement` span and the exact, machine-independent work counters. A
//! change that silently reroutes the default path (an SPJ coverage sweep
//! off the delta evaluator, say), does more sweeps per purchase or executes
//! an answer a sweep already computed fails here, in tier-1, instead of in
//! a benchmark three changes later.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana::core::engine::query_fps;
use qirana::core::{
    generate_support, prepare_query, Shape, Stage, SupportSet, SupportUpdate, TestClock,
};
use qirana::datagen::queries::{ssb_queries, tpch_queries};
use qirana::datagen::{ssb, tpch, world};
use qirana::sqlengine::ExecBudget;
use qirana::{
    Database, EngineOptions, PricingFunction, Qirana, QiranaConfig, SupportConfig, Telemetry,
    TelemetrySink,
};
use std::sync::Arc;

const S: u64 = 64;

/// The counters the routing table pins. The fifth and sixth count
/// neighbors the delta fold declined and re-executed in full:
/// `delta_fallbacks_total` for both families, `coverage_fallbacks_total`
/// on coverage sweeps only. The last counts every plan execution.
const COUNTERS: [&str; 7] = [
    "neighbors_evaluated_total",
    "delta_builds_total",
    "delta_probes_total",
    "delta_probe_execs_total",
    "delta_fallbacks_total",
    "coverage_fallbacks_total",
    "plan_executions_total",
];

/// The counter increments a request that ran `case`'s sweep under `path`
/// (or none) and executed `answers` answers outside any sweep must show:
/// one sweep looks at all `S` neighbors; only a delta path — either
/// family's — builds delta state (once), probes it (once per neighbor) and
/// issues batched executions; no query of the session trips a guard of
/// the fold. A delta sweep executes what its
/// build needs — the plan, plus for semi-joins the stripped core and the
/// inner keys — and once per batch, no more.
fn golden_counters(sweep: Option<(&Case, &str)>, answers: u64) -> [u64; 7] {
    let mut golden = match sweep {
        None => [0; 7],
        Some((case, path @ ("entropy/delta" | "coverage/delta"))) => {
            assert!((1..=3).contains(&case.build_execs), "{}", case.sql);
            let execs = case.build_execs + case.probe_execs;
            assert_eq!(case.execs(path), execs, "{}", case.sql);
            [S, 1, S, case.probe_execs, 0, 0, case.execs(path)]
        }
        Some((case, path)) => [S, 0, 0, 0, 0, 0, case.execs(path)],
    };
    golden[6] += answers;
    golden
}

/// Reads what the sink recorded since the last call.
struct Tape {
    sink: Arc<TelemetrySink>,
    spans_seen: usize,
    counters_seen: [u64; 7],
}

impl Tape {
    fn new(sink: Arc<TelemetrySink>) -> Self {
        Tape {
            sink,
            spans_seen: 0,
            counters_seen: [0; 7],
        }
    }

    /// The sweep labels, the `fallbacks` count their spans carry, and the
    /// counter increments since the previous call.
    fn advance(&mut self) -> (Vec<String>, u64, [u64; 7]) {
        let spans = self.sink.spans();
        let sweeps = spans[self.spans_seen..]
            .iter()
            .filter(|s| s.stage == Stage::Disagreement);
        let on_spans = sweeps
            .clone()
            .filter_map(|s| s.counts.get("fallbacks"))
            .sum();
        let sweeps = sweeps.map(|s| s.detail.clone()).collect();
        self.spans_seen = spans.len();
        let now = COUNTERS.map(|c| self.sink.counter(c));
        let added = std::array::from_fn(|k| now[k] - self.counters_seen[k]);
        self.counters_seen = now;
        (sweeps, on_spans, added)
    }

    /// Asserts the request just made ran exactly `case`'s sweep under
    /// `path` (or none) and executed `answers` answers besides.
    fn expect(&mut self, what: &str, sweep: Option<(&Case, &str)>, answers: u64) {
        let (sweeps, on_spans, added) = self.advance();
        let path = sweep.map(|(_, path)| path);
        assert_eq!(sweeps, Vec::from_iter(path), "sweep paths of {what}");
        assert_eq!(
            added,
            golden_counters(sweep, answers),
            "{COUNTERS:?} added by {what}"
        );
        assert_eq!(
            on_spans, added[5],
            "coverage fallbacks on the span of {what}"
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
    /// Relations of the plan, a semi-join's inner ones included (0 for the
    /// opaque one, which has no shape).
    relations: u64,
    /// Plan executions of a delta build: 1, or 3 for one `EXISTS`.
    build_execs: u64,
    /// `delta_probe_execs_total` per delta sweep: one batched execution
    /// per relation that has a visible neighbor.
    probe_execs: u64,
    /// `plan_executions_total` of one cold sweep under each family,
    /// coverage then entropy.
    sweep_execs: [u64; 2],
}

impl Case {
    fn execs(&self, path: &str) -> u64 {
        self.sweep_execs[usize::from(path.starts_with("entropy/"))]
    }
}

const WORLD: [Case; 3] = [
    Case {
        shape: "spj",
        sql: "SELECT C.Name, T.Name FROM Country C, City T \
              WHERE C.Code = T.CountryCode AND T.Population > 1000000",
        coverage: "coverage/delta",
        entropy: "entropy/delta",
        relations: 2,
        build_execs: 1,
        probe_execs: 2,
        sweep_execs: [3, 3],
    },
    Case {
        shape: "agg",
        sql: "SELECT Continent, COUNT(*), SUM(Population) FROM Country GROUP BY Continent",
        coverage: "coverage/delta",
        entropy: "entropy/delta",
        relations: 1,
        build_execs: 1,
        probe_execs: 1,
        sweep_execs: [2, 2],
    },
    Case {
        shape: "opaque",
        sql: "SELECT DISTINCT Continent FROM Country",
        coverage: "coverage/per-instance",
        entropy: "entropy/per-instance",
        relations: 0,
        build_execs: 0,
        probe_execs: 0,
        sweep_execs: [24, 24],
    },
];

const SSB: [Case; 3] = [
    Case {
        shape: "spj",
        sql: "SELECT lo_orderkey, lo_revenue FROM lineorder, dwdate \
              WHERE lo_orderdate = d_datekey AND d_year = 1993 AND lo_quantity < 5",
        coverage: "coverage/delta",
        entropy: "entropy/delta",
        relations: 2,
        build_execs: 1,
        probe_execs: 2,
        sweep_execs: [3, 3],
    },
    Case {
        shape: "agg",
        sql: "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, dwdate \
              WHERE lo_orderdate = d_datekey AND d_year = 1993 \
              AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
        coverage: "coverage/delta",
        entropy: "entropy/delta",
        relations: 2,
        build_execs: 1,
        probe_execs: 2,
        sweep_execs: [3, 3],
    },
    Case {
        shape: "opaque",
        sql: "SELECT DISTINCT lo_shipmode FROM lineorder",
        coverage: "coverage/per-instance",
        entropy: "entropy/per-instance",
        relations: 0,
        build_execs: 0,
        probe_execs: 0,
        sweep_execs: [9, 9],
    },
];

/// TPC-H at sf [`TPCH_SF`]: Q4's correlated `EXISTS` folds as a semi-join
/// (3 build executions: the plan, its stripped core, the inner keys; then
/// one batch for `orders` and one for `lineitem`), Q6 is a plain
/// aggregate, and Q17's correlated scalar subquery stays opaque.
const TPCH: [Case; 3] = [
    Case {
        shape: "agg",
        sql: "select o_orderpriority, count(*) as order_count from orders \
              where o_orderdate >= date '1993-07-01' \
              and o_orderdate < date '1993-07-01' + interval '3' month \
              and exists (select 1 from lineitem where l_orderkey = o_orderkey \
              and l_commitdate < l_receiptdate) \
              group by o_orderpriority order by o_orderpriority",
        coverage: "coverage/delta",
        entropy: "entropy/delta",
        relations: 2,
        build_execs: 3,
        probe_execs: 2,
        sweep_execs: [5, 5],
    },
    Case {
        shape: "agg",
        sql: "select sum(l_extendedprice * l_discount) as revenue from lineitem \
              where l_shipdate >= date '1994-01-01' \
              and l_shipdate < date '1994-01-01' + interval '1' year \
              and l_discount between 0.05 and 0.07 and l_quantity < 24",
        coverage: "coverage/delta",
        entropy: "entropy/delta",
        relations: 1,
        build_execs: 1,
        probe_execs: 1,
        sweep_execs: [2, 2],
    },
    Case {
        shape: "opaque",
        sql: "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part \
              where p_partkey = l_partkey and p_brand = 'Brand#23' and p_container = 'MED BOX' \
              and l_quantity < (select 0.2 * avg(l2.l_quantity) from lineitem l2 \
              where l2.l_partkey = p_partkey)",
        coverage: "coverage/per-instance",
        entropy: "entropy/per-instance",
        relations: 0,
        build_execs: 0,
        probe_execs: 0,
        sweep_execs: [16, 16],
    },
];

const TPCH_SF: f64 = 0.0005;

/// The TPC-H session prices the flight's own query text.
#[test]
fn tpch_cases_are_flight_queries() {
    let flight = tpch_queries(TPCH_SF);
    for case in &TPCH {
        assert!(
            flight.iter().any(|(_, sql)| sql == case.sql),
            "not a flight query: {}",
            case.sql
        );
    }
}

/// A broker over `db` with `size` support instances, default engine options
/// and telemetry on a deterministic clock, plus the sink it records into.
fn broker(db: Database, function: PricingFunction, size: u64) -> (Qirana, Arc<TelemetrySink>) {
    let telemetry = Telemetry::with_clock(Box::new(TestClock::stepping(10)));
    let sink = Arc::clone(telemetry.sink().unwrap());
    let config = QiranaConfig {
        function,
        support: SupportConfig {
            size: size as usize,
            ..Default::default()
        },
        engine: EngineOptions::default().with_telemetry(telemetry),
        ..Default::default()
    };
    (Qirana::new(db, config).unwrap(), sink)
}

/// Prices the session under `function`: a quote is one cold sweep (quotes
/// never fill the cache), the purchase that follows takes that sweep and
/// its answer from the handoff and executes nothing, a repeat quote is
/// answered from the memo with no sweep at all, and a second buyer's buy
/// reads the memo and executes only its answer. On a second market built
/// the same way, a buyer's cold buy of a query nobody quoted sweeps once on
/// the same path and answers from that sweep, so the buy's own read path
/// stays pinned.
fn drive(db: Database, session: &[Case; 3], function: PricingFunction) {
    let (mut unquoted, unquoted_sink) = broker(db.clone(), function, S);
    let (mut broker, sink) = broker(db, function, S);
    let mut tape = Tape::new(sink);
    let mut unquoted_tape = Tape::new(unquoted_sink);
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
        tape.expect(&format!("quote of {}", case.sql), Some((case, path)), 0);
        broker.buy("golden", case.sql).unwrap();
        tape.expect(&format!("buy after quote of {}", case.sql), None, 0);
        broker.quote(case.sql).unwrap();
        tape.expect(&format!("repeat quote of {}", case.sql), None, 0);
        broker.buy("memo", case.sql).unwrap();
        tape.expect(&format!("memo-hit buy of {}", case.sql), None, 1);

        // A cold buy — SPJ included — runs exactly one sweep's executions
        // and no separate answer execution: every sweep path of the
        // session executes the plan itself, and that output is the answer.
        unquoted_tape.advance();
        unquoted.buy("second", case.sql).unwrap();
        unquoted_tape.expect(
            &format!("unquoted buy of {}", case.sql),
            Some((case, path)),
            0,
        );
    }
}

#[test]
fn coverage_sweeps_take_delta_for_normal_forms_and_execute_opaque_plans() {
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
    drive(
        tpch::generate(TPCH_SF, 5),
        &TPCH,
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
    drive(
        tpch::generate(TPCH_SF, 5),
        &TPCH,
        PricingFunction::ShannonEntropy,
    );
}

/// §4.2's claim, for every sweep the delta evaluator serves: it issues one
/// batched execution per relation with a visible neighbor, so its
/// executions are bounded by the plan's relations whatever the support size.
#[test]
fn delta_probe_executions_do_not_grow_with_the_support() {
    for size in [S, 8 * S] {
        for function in [
            PricingFunction::ShannonEntropy,
            PricingFunction::WeightedCoverage,
        ] {
            for (db, session) in [
                (world::generate(7), &WORLD),
                (ssb::generate(0.0005, 5), &SSB),
                (tpch::generate(TPCH_SF, 5), &TPCH),
            ] {
                let (broker, sink) = broker(db, function, size);
                let on_delta = |c: &&Case| match function {
                    PricingFunction::ShannonEntropy => c.entropy == "entropy/delta",
                    _ => c.coverage == "coverage/delta",
                };
                for case in session.iter().filter(on_delta) {
                    let before = sink.counter("delta_probe_execs_total");
                    broker.quote(case.sql).unwrap();
                    let execs = sink.counter("delta_probe_execs_total") - before;
                    assert!(
                        (1..=case.relations).contains(&execs),
                        "{execs} executions at S = {size} under {function:?} for {}",
                        case.sql
                    );
                }
            }
        }
    }
}

/// What one sweep of `sql` over `updates` adds to the scan-reuse and the
/// probe-row counters.
fn scan_and_probe_rows(
    db: &Database,
    sql: &str,
    updates: &[SupportUpdate],
    opts: EngineOptions,
) -> (u64, u64) {
    let telemetry = Telemetry::enabled();
    let sink = Arc::clone(telemetry.sink().unwrap());
    let q = prepare_query(db, sql).unwrap();
    let support = SupportSet::Neighborhood(updates.to_vec());
    query_fps(db, &q, &support, &opts.with_telemetry(telemetry)).unwrap();
    (
        sink.counter("sweep_scan_reuses_total"),
        sink.counter("delta_probe_rows_total"),
    )
}

/// The sweep's scan memo and its probe-row counter on SSB Q1.1. A delta
/// sweep borrows the base run's filtered `lineorder` and its join index in
/// the `dwdate` probe; `Naive` (the memo-free reference) and a budgeted
/// sweep reuse nothing. A batch carries each member's own u⁻ and u⁺ rows
/// and nothing else, so the probe rows of a support are the sum of its
/// halves': how members share a batch does not grow them.
#[test]
fn delta_sweeps_share_scans_and_probe_rows_are_per_member() {
    let db = ssb::generate(0.0005, 5);
    let (_, q11) = ssb_queries()[0];
    let updates = generate_support(
        &db,
        &SupportConfig {
            size: 8 * S as usize,
            ..Default::default()
        },
    );
    let (reuses, rows) = scan_and_probe_rows(&db, q11, &updates, EngineOptions::default());
    assert!(reuses >= 1, "no scan reused");
    assert!(rows > 0, "no probe produced a row");
    let budgeted =
        EngineOptions::default().with_budget(ExecBudget::default().with_max_rows(1 << 40));
    for opts in [EngineOptions::naive(), budgeted] {
        assert_eq!(
            scan_and_probe_rows(&db, q11, &updates, opts.clone()),
            (0, 0),
            "{:?}",
            opts.strategy
        );
    }
    let (front, back) = updates.split_at(updates.len() / 2);
    let halves =
        [front, back].map(|half| scan_and_probe_rows(&db, q11, half, EngineOptions::default()).1);
    assert_eq!(halves[0] + halves[1], rows);
}
