//! Per-layer metrics of a traced run. A layer is a module of the program.
//!
//! Two sources only. Spans the benchmark records itself around public
//! calls (set-up phases, each request, direct replays of the same
//! requests with and without a ledger, to subtract). And the keys the
//! program's telemetry registry already exports, read from
//! `TelemetrySink::metrics_json` after set-up and after the timed phase;
//! the difference is what the timed phase did. A key the registry does not
//! have reads as zero and never fails the run.

use std::collections::BTreeMap;

use crate::check;
use crate::json::{self, Json};
use crate::measure::Measurement;
use crate::metrics;
use crate::plan::Op;
use crate::spans;
use crate::stats::{median_ns, percentile, tail_percentile};

/// Counters and `(count, sum)` of histograms from one `metrics_json`.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<String, f64>,
    histograms: BTreeMap<String, (f64, f64)>,
}

impl Registry {
    pub fn parse(metrics_json: &str) -> Registry {
        let mut reg = Registry::default();
        let Ok(doc) = json::parse(metrics_json) else {
            return reg;
        };
        for (name, v) in doc.get("counters").and_then(Json::obj).unwrap_or(&[]) {
            reg.counters.insert(name.clone(), v.num().unwrap_or(0.0));
        }
        for (name, h) in doc.get("histograms").and_then(Json::obj).unwrap_or(&[]) {
            let field = |k| h.get(k).and_then(Json::num).unwrap_or(0.0);
            reg.histograms
                .insert(name.clone(), (field("count"), field("sum")));
        }
        reg
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// How many times stage `name` ran.
    pub fn stage_count(&self, name: &str) -> f64 {
        self.histograms
            .get(&format!("stage_{name}_ns"))
            .map_or(0.0, |h| h.0)
    }

    /// Total seconds in stage `name`.
    pub fn stage_s(&self, name: &str) -> f64 {
        self.histograms
            .get(&format!("stage_{name}_ns"))
            .map_or(0.0, |h| h.1 / 1e9)
    }

    /// Total seconds observed under histogram `name`.
    pub fn histogram_s(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| h.1 / 1e9)
    }

    /// `self - earlier`, key by key.
    pub fn since(&self, earlier: &Registry) -> Registry {
        Registry {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.counter(k)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, (n, s))| {
                    let (n0, s0) = earlier.histograms.get(k).copied().unwrap_or((0.0, 0.0));
                    (k.clone(), (n - n0, s - s0))
                })
                .collect(),
        }
    }
}

/// The registry after set-up, after the timed phase, and their difference
/// (all empty in an untraced run).
fn timed_registry(m: &Measurement) -> (Registry, Registry, Registry) {
    let (before, after) = m.registry.clone().unwrap_or_default();
    let timed = after.since(&before);
    (before, after, timed)
}

/// Wall time of the timed phase's requests, attributed to layers. Each
/// row is `(layer, self seconds)`; the rows and the residual sum to the
/// total.
pub struct Attribution {
    pub request_wall_s: f64,
    pub layers: Vec<(&'static str, f64)>,
    pub residual_s: f64,
}

impl Attribution {
    pub fn residual_share(&self) -> f64 {
        self.residual_s / self.request_wall_s
    }
}

/// Self time per layer from the registry's stage totals. The stages nest
/// the way the program opens them today: a server request contains
/// prepare, cache lookup, the disagreement sweep and the broker commit;
/// the sweep contains delta build and probe; the commit contains the
/// ledger append, which contains the fsync. What the request wall holds
/// beyond the outermost stage is the residual: for a service, time
/// outside the handler (socket, HTTP framing, scheduling); for a library
/// workload, broker time no stage covers.
pub fn attribute(m: &Measurement) -> Attribution {
    let timed = &timed_registry(m).2;
    let request_wall_s = m
        .run
        .lanes
        .iter()
        .flat_map(|l| &l.samples)
        .chain(&m.run.updates)
        .map(|s| s.latency_ns as f64 / 1e9)
        .sum();
    let delta = timed.stage_s("delta_build") + timed.stage_s("delta_probe");
    let fsync = timed.stage_s("ledger_fsync");
    let append = timed.stage_s("ledger_append");
    let commit = timed.stage_s("broker_commit");
    let sweep = timed.stage_s("disagreement");
    let prepare = timed.stage_s("prepare");
    let lookup = timed.stage_s("cache_lookup");
    let inner = prepare + lookup + sweep + commit;
    let handler = timed.histogram_s("server_request_ns");
    let own = |whole: f64, parts: f64| (whole - parts).max(0.0);
    let mut layers = vec![
        ("normal_form", prepare),
        ("cache", lookup),
        ("engine", own(sweep, delta)),
        ("delta", delta),
        ("broker", own(commit, append)),
        ("ledger", append),
    ];
    if m.spec.service {
        layers.insert(0, ("server", own(handler, inner)));
    }
    let accounted: f64 = layers.iter().map(|l| l.1).sum();
    layers.push(("ledger.fsync (within ledger)", fsync));
    Attribution {
        request_wall_s,
        layers,
        residual_s: request_wall_s - accounted,
    }
}

fn ms(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e6)
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, by name. Not applicable reads as zero.
pub fn per_layer(m: &Measurement, attribution: &Attribution) -> BTreeMap<&'static str, f64> {
    let (before, after, timed) = timed_registry(m);
    let mut out = BTreeMap::new();

    // Set-up, from the last repetition's spans and registry.
    let spans = m.recorder.spans();
    let last_setup = spans
        .iter()
        .rposition(|s| s.name == "setup")
        .unwrap_or_default();
    let in_last_setup = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(last_setup))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    };
    out.insert("datagen.generate_s", in_last_setup("datagen.generate"));
    out.insert("support.generate_s", before.stage_s("support_gen"));
    out.insert("solver.solve_s", before.stage_s("solve"));
    out.insert("broker.warmup_s", in_last_setup("broker.warmup"));
    out.insert("server.start_ms", in_last_setup("server.start") * 1e3);

    // The service as its clients saw it.
    let quotes = check::latencies(&m.run, |op| matches!(op, Op::Quote { .. }));
    let buys = check::latencies(&m.run, |op| matches!(op, Op::Buy { .. }));
    let direct_quote = median_ns(&m.replayed.direct.quote_ns);
    let direct_buy = median_ns(&m.replayed.direct.buy_ns);
    let svc = m.service.as_ref();
    let if_service = |v: f64| if svc.is_some() { v } else { 0.0 };
    let quote_p50 = ms(percentile(&quotes, 50.0));
    let quote_p99 = ms(tail_percentile(&quotes, 99.0));
    out.insert("server.quote_p50_ms", if_service(quote_p50));
    out.insert("server.buy_p50_ms", if_service(ms(percentile(&buys, 50.0))));
    out.insert("server.quote_p99_ms", if_service(quote_p99));
    out.insert(
        "server.buy_p99_ms",
        if_service(ms(tail_percentile(&buys, 99.0))),
    );
    out.insert(
        "server.quote_stall_ms",
        if_service((quote_p99 - quote_p50).max(0.0)),
    );
    out.insert(
        "server.quote_overhead_us",
        if_service(us(percentile(&quotes, 50.0)) - us(direct_quote)),
    );
    out.insert(
        "server.buy_overhead_us",
        if_service(us(percentile(&buys, 50.0)) - us(direct_buy)),
    );
    out.insert("server.request_s", timed.histogram_s("server_request_ns"));
    out.insert("server.requests", svc.map_or(0.0, |s| s.requests_total));
    out.insert("server.rejected", svc.map_or(0.0, |s| s.rejected_total));

    // Parse, plan, normal form and execution of the sampled queries.
    let over_sample = |f: fn(&crate::measure::QueryCost) -> u64| {
        median_ns(&m.costs.iter().map(f).collect::<Vec<_>>())
    };
    out.insert(
        "sqlengine.parse_plan_us",
        us(over_sample(|c| c.parse_plan_ns)),
    );
    out.insert("sqlengine.exec_ms", ms(over_sample(|c| c.exec_ns)));
    out.insert(
        "sqlengine.rows_out",
        m.costs.iter().map(|c| c.rows_out as f64).sum(),
    );
    out.insert(
        "normal_form.prepare_us",
        us(over_sample(|c| c.normal_form_ns)),
    );
    out.insert("normal_form.prepare_s", timed.stage_s("prepare"));

    // The support sweep and its delta kernel, timed phase only.
    out.insert("engine.sweep_s", timed.stage_s("disagreement"));
    out.insert("engine.sweeps", timed.stage_count("disagreement"));
    out.insert(
        "engine.neighbors_evaluated",
        timed.counter("neighbors_evaluated_total"),
    );
    out.insert(
        "engine.disagreements_found",
        timed.counter("disagreements_found_total"),
    );
    let probes = timed.counter("delta_probes_total");
    let fallbacks = timed.counter("delta_fallbacks_total");
    out.insert("delta.build_s", timed.stage_s("delta_build"));
    out.insert("delta.probe_s", timed.stage_s("delta_probe"));
    out.insert("delta.builds", timed.counter("delta_builds_total"));
    out.insert("delta.probes", probes);
    out.insert(
        "delta.short_circuits",
        timed.counter("delta_short_circuits_total"),
    );
    out.insert("delta.fallbacks", fallbacks);
    out.insert("delta.useful_ratio", ratio(probes - fallbacks, probes));

    // The pricing cache (counted on buys; quotes only peek).
    let hits = (m.cache_after.hits - m.cache_before.hits) as f64;
    let misses = (m.cache_after.misses - m.cache_before.misses) as f64;
    out.insert("cache.hit_ratio", ratio(hits, hits + misses));
    out.insert(
        "cache.evictions",
        (m.cache_after.evictions - m.cache_before.evictions) as f64,
    );
    out.insert(
        "cache.invalidations",
        (m.cache_after.invalidations - m.cache_before.invalidations) as f64,
    );
    out.insert("cache.lookup_s", timed.stage_s("cache_lookup"));

    // The broker called directly, in memory, with the same requests.
    let update_ns: Vec<u64> = m.run.updates.iter().map(|u| u.latency_ns).collect();
    out.insert("broker.quote_us", us(direct_quote));
    out.insert("broker.buy_ms", ms(direct_buy));
    out.insert("broker.update_ms", ms(median_ns(&update_ns)));
    out.insert("broker.commit_s", timed.stage_s("broker_commit"));

    // The ledger.
    let buys_done = timed.counter("purchases_total");
    let ledger_buy = svc.and_then(|s| median_ns(&s.ledger_buy_ns));
    out.insert(
        "ledger.commit_us",
        ledger_buy.map_or(0.0, |_| us(ledger_buy) - us(direct_buy)),
    );
    out.insert("ledger.append_s", timed.stage_s("ledger_append"));
    out.insert("ledger.fsync_s", timed.stage_s("ledger_fsync"));
    out.insert("ledger.appends", timed.counter("ledger_appends_total"));
    out.insert("ledger.fsyncs", timed.counter("ledger_fsyncs_total"));
    out.insert(
        "ledger.fsyncs_per_buy",
        ratio(timed.counter("ledger_fsyncs_total"), buys_done),
    );
    out.insert("ledger.snapshots", timed.counter("ledger_snapshots_total"));
    out.insert(
        "ledger.compactions",
        timed.counter("ledger_compactions_total"),
    );
    let dir_bytes = svc.map_or(0.0, |s| s.ledger_bytes as f64);
    out.insert("ledger.dir_bytes_end", dir_bytes);
    out.insert(
        "ledger.bytes_per_buy",
        ratio(dir_bytes, after.counter("purchases_total")),
    );
    out.insert(
        "ledger.recover_ms",
        svc.map_or(0.0, |s| ms(median_ns(&s.recover_ns))),
    );
    out.insert(
        "ledger.replayed_buys",
        svc.and_then(|s| s.replayed_buys).unwrap_or(0.0),
    );

    // Whole-run numbers that do not repeat well enough to carry a bound.
    out.insert("engine.price_over_exec", metrics::price_over_exec(m));
    out.insert("process.peak_rss_mb", m.peak_rss_mb);

    // The traced run itself.
    out.insert("trace.request_wall_s", attribution.request_wall_s);
    out.insert("trace.throughput_rps", metrics::throughput_rps(m));
    out.insert("trace.residual_share", attribution.residual_share());
    // An empty float sum is -0.0; report plain zero.
    out.values_mut().for_each(|v| *v += 0.0);
    out
}

/// The trace file: provenance aside, the layer table, the attribution,
/// per-query latencies and the benchmark's own spans with self times.
pub fn trace_document(
    m: &Measurement,
    metrics: &BTreeMap<&'static str, f64>,
    attribution: &Attribution,
) -> Json {
    let mut per_query: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for lane in &m.run.lanes {
        for (op, s) in lane.ops.iter().zip(&lane.samples) {
            if let Op::Quote { q } | Op::Buy { q, .. } = *op {
                per_query
                    .entry(m.plan.pool[q as usize].label.as_str())
                    .or_default()
                    .push(s.latency_ns);
            }
        }
    }
    // Request spans join the phase spans only here, so the timed phase
    // itself never pays for recording them.
    let mut all = m.recorder.spans().to_vec();
    for (c, lane) in m.run.lanes.iter().enumerate() {
        for (i, s) in lane.samples.iter().enumerate() {
            all.push(spans::Span {
                name: "request",
                start_ns: s.start_ns,
                end_ns: s.start_ns + s.latency_ns,
                parent: Some(m.timed_span),
                request: Some(((c as u64) << 32) | i as u64),
            });
        }
    }
    let num = Json::Num;
    json::obj(vec![
        (
            "layers",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), num(*v)))
                    .collect(),
            ),
        ),
        (
            "attribution",
            json::obj(vec![
                ("request_wall_s", num(attribution.request_wall_s)),
                (
                    "self_s",
                    Json::Obj(
                        attribution
                            .layers
                            .iter()
                            .map(|(k, v)| ((*k).to_string(), num(*v)))
                            .collect(),
                    ),
                ),
                ("residual_s", num(attribution.residual_s)),
                ("residual_share", num(attribution.residual_share())),
            ]),
        ),
        (
            "per_query_latency_ms",
            Json::Obj(
                per_query
                    .iter()
                    .take(64)
                    .map(|(label, ns)| {
                        (
                            (*label).to_string(),
                            json::obj(vec![
                                ("count", num(ns.len() as f64)),
                                ("median", num(ms(median_ns(ns)))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "span_totals",
            Json::Arr(
                spans::by_name(&all)
                    .into_iter()
                    .map(|(name, count, total, own)| {
                        json::obj(vec![
                            ("name", Json::Str(name.into())),
                            ("count", num(count as f64)),
                            ("total_s", num(total as f64 / 1e9)),
                            ("self_s", num(own as f64 / 1e9)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spans", spans::to_json(&all)),
    ])
}
