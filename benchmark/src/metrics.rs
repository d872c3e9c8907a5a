//! The metric tables, and the end-to-end numbers of one run.
//!
//! `BENCHMARK.json` at the repository root is the contract; the tables
//! here are what the program emits, and a self-test keeps the two equal.
//! Every metric is reported on every workload. A quote or a buy means the
//! same thing everywhere (a price asked, a query bought), whether it went
//! over a socket or through a function call, so their medians compare
//! across runs of one workload and are never compared across workloads.

use std::collections::BTreeMap;

use crate::check;
use crate::json::{self, Json};
use crate::measure::Measurement;
use crate::plan::Op;
use crate::stats::{geometric_mean, median_f64, median_ns};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's value by which the metric may get worse.
    pub bound: f64,
}

/// Every bound is a quarter, the widest the driver accepts: on the shared
/// two-core sandbox whole runs drift by a tenth and more for a minute at
/// a time (README, "What the cap did to the design").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "quote_mean_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "buy_mean_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric this one should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SWEEP: &str = "throughput_rps, quote_mean_ms, price_over_exec on flight_cold; \
    buy_mean_ms, throughput_rps on serve_churn and history_entropy; none on serve_warm";
const WARM_BUY: &str = "buy_mean_ms, throughput_rps on serve_warm";

pub const PER_LAYER: [PerLayer; 56] = [
    layer("datagen.generate_s", "s", "lower", "setup_s, all"),
    layer("support.generate_s", "s", "lower", "setup_s, all"),
    layer("solver.solve_s", "s", "lower", "setup_s on serve_warm"),
    layer("broker.warmup_s", "s", "lower", "setup_s on serve_warm"),
    layer("server.start_ms", "ms", "lower", "setup_s on serve_*"),
    layer(
        "server.quote_p50_ms",
        "ms",
        "lower",
        "quote_mean_ms (the typical request, without its tail)",
    ),
    layer(
        "server.buy_p50_ms",
        "ms",
        "lower",
        "buy_mean_ms (the typical request, without its tail)",
    ),
    layer(
        "server.quote_p99_ms",
        "ms",
        "lower",
        "tail of quote_mean_ms on serve_*",
    ),
    layer(
        "server.buy_p99_ms",
        "ms",
        "lower",
        "tail of buy_mean_ms on serve_*",
    ),
    layer(
        "server.quote_stall_ms",
        "ms",
        "lower",
        "throughput_rps on serve_churn",
    ),
    layer(
        "server.quote_overhead_us",
        "us",
        "lower",
        "quote_mean_ms, throughput_rps on serve_warm",
    ),
    layer("server.buy_overhead_us", "us", "lower", WARM_BUY),
    layer(
        "server.request_s",
        "s",
        "lower",
        "throughput_rps on serve_*",
    ),
    layer(
        "server.requests",
        "count",
        "higher",
        "throughput_rps on serve_*",
    ),
    layer(
        "server.rejected",
        "count",
        "lower",
        "failed operations on serve_*",
    ),
    layer(
        "sqlengine.parse_plan_us",
        "us",
        "lower",
        "quote_mean_ms on serve_warm",
    ),
    layer(
        "sqlengine.exec_ms",
        "ms",
        "lower",
        "buy_mean_ms on serve_warm; denominator of price_over_exec",
    ),
    layer(
        "sqlengine.rows_out",
        "count",
        "lower",
        "buy_mean_ms on serve_warm",
    ),
    layer(
        "normal_form.prepare_us",
        "us",
        "lower",
        "quote_mean_ms on serve_warm",
    ),
    layer(
        "normal_form.prepare_s",
        "s",
        "lower",
        "quote_mean_ms on serve_warm",
    ),
    layer("engine.sweep_s", "s", "lower", SWEEP),
    layer("engine.sweeps", "count", "lower", SWEEP),
    layer("engine.neighbors_evaluated", "count", "lower", SWEEP),
    layer("engine.disagreements_found", "count", "lower", SWEEP),
    layer("delta.build_s", "s", "lower", SWEEP),
    layer("delta.probe_s", "s", "lower", SWEEP),
    layer("delta.builds", "count", "lower", SWEEP),
    layer("delta.probes", "count", "lower", SWEEP),
    layer("delta.short_circuits", "count", "higher", SWEEP),
    layer("delta.fallbacks", "count", "lower", SWEEP),
    layer("delta.useful_ratio", "ratio", "higher", SWEEP),
    layer(
        "cache.hit_ratio",
        "ratio",
        "higher",
        "buy_mean_ms; about 1 on serve_warm, low on serve_churn",
    ),
    layer(
        "cache.evictions",
        "count",
        "lower",
        "buy_mean_ms on serve_churn",
    ),
    layer(
        "cache.invalidations",
        "count",
        "lower",
        "buy_mean_ms on serve_churn",
    ),
    layer(
        "cache.lookup_s",
        "s",
        "lower",
        "buy_mean_ms on history_entropy",
    ),
    layer("broker.quote_us", "us", "lower", "quote_mean_ms, all"),
    layer("broker.buy_ms", "ms", "lower", "buy_mean_ms, all"),
    layer(
        "broker.update_ms",
        "ms",
        "lower",
        "throughput_rps on serve_churn",
    ),
    layer("broker.commit_s", "s", "lower", WARM_BUY),
    layer("ledger.commit_us", "us", "lower", WARM_BUY),
    layer("ledger.append_s", "s", "lower", WARM_BUY),
    layer("ledger.fsync_s", "s", "lower", WARM_BUY),
    layer(
        "ledger.appends",
        "count",
        "lower",
        "zero on the library workloads",
    ),
    layer("ledger.fsyncs", "count", "lower", WARM_BUY),
    layer("ledger.fsyncs_per_buy", "ratio", "lower", WARM_BUY),
    layer(
        "ledger.snapshots",
        "count",
        "lower",
        "tail of buy_mean_ms on serve_*",
    ),
    layer(
        "ledger.compactions",
        "count",
        "lower",
        "tail of buy_mean_ms on serve_*",
    ),
    layer("ledger.dir_bytes_end", "B", "lower", "none (space)"),
    layer("ledger.bytes_per_buy", "B", "lower", "none (space)"),
    layer("ledger.recover_ms", "ms", "lower", "none (restart time)"),
    layer(
        "ledger.replayed_buys",
        "count",
        "lower",
        "ledger.recover_ms",
    ),
    layer(
        "engine.price_over_exec",
        "ratio",
        "lower",
        "none (the paper's Fig. 5 yardstick; read it on flight_cold)",
    ),
    layer(
        "process.peak_rss_mb",
        "MB",
        "lower",
        "none (memory; inflated by the telemetry sink's spans)",
    ),
    layer(
        "trace.request_wall_s",
        "s",
        "lower",
        "none (what the layer seconds are shares of)",
    ),
    layer(
        "trace.throughput_rps",
        "1/s",
        "higher",
        "none (overhead of tracing, against throughput_rps)",
    ),
    layer(
        "trace.residual_share",
        "ratio",
        "lower",
        "none (what no layer accounts for)",
    ),
];

/// Requests per second: the median over slices (rounds, epochs, or runs
/// of equal request count) of the slice's own rate, times the number of
/// lanes. A stall of the machine slows a few slices, not the median.
pub fn throughput_rps(m: &Measurement) -> f64 {
    let rates: Vec<f64> = m.run.lanes.iter().flat_map(|l| l.slice_rates()).collect();
    median_f64(&rates).unwrap_or(f64::NAN) * m.run.lanes.len() as f64
}

/// Pricing time over the query's own execution time (the paper's Figure 5
/// yardstick): one ratio per sampled query, equal weights.
pub fn price_over_exec(m: &Measurement) -> f64 {
    let mut by_query: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for lane in &m.run.lanes {
        for (op, s) in lane.ops.iter().zip(&lane.samples) {
            if let Op::Quote { q } | Op::Buy { q, .. } = *op {
                by_query.entry(q).or_default().push(s.latency_ns);
            }
        }
    }
    let ratios: Vec<f64> = m
        .costs
        .iter()
        .filter_map(|c| {
            let priced = median_ns(by_query.get(&c.q)?)?;
            Some(priced as f64 / c.exec_ns.max(1) as f64)
        })
        .collect();
    geometric_mean(&ratios).unwrap_or(0.0)
}

/// The end-to-end numbers of a run, in [`END_TO_END`] order, each with the
/// sample count behind it.
pub fn end_to_end(m: &Measurement) -> [(f64, usize); 4] {
    let quotes = check::latencies(&m.run, |op| matches!(op, Op::Quote { .. }));
    let buys = check::latencies(&m.run, |op| matches!(op, Op::Buy { .. }));
    // Means, not medians: flight_cold prices 21 queries of fixed and very
    // different cost, and a median over so few distinct values jumps from
    // one query's cost to its neighbour's when the machine breathes. The
    // mean moves with every request, dear ones and stalled ones included.
    let mean_ms = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e6;
    [
        (median_f64(&m.setup_s).unwrap_or(f64::NAN), m.setup_s.len()),
        (throughput_rps(m), m.run.requests()),
        (mean_ms(&quotes), quotes.len()),
        (mean_ms(&buys), buys.len()),
    ]
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    json::render(&json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            (*name).to_string(),
                            json::obj(vec![
                                ("value", Json::Num(*value)),
                                ("unit", Json::Str((*unit).into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}
