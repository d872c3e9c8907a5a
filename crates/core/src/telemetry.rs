//! # Deterministic observability: spans, metrics, exporters.
//!
//! The pricing pipeline is instrumented with **typed stage spans** (where
//! does a quote's time go: prepare → support generation → disagreement
//! evaluation → solve → broker commit → ledger fsync) and a **metrics
//! registry** (counters, gauges, log₂-bucketed latency histograms). Both
//! hang off a single [`TelemetrySink`] shared through the pipeline as a
//! cheap-clone [`Telemetry`] handle.
//!
//! Three design rules govern this module:
//!
//! 1. **No ambient clock** (QL004). Time comes from an injectable
//!    [`Clock`]; production uses [`MonotonicClock`] (the one sanctioned
//!    `Instant::now` site outside the execution-budget meter), tests use
//!    the deterministic [`TestClock`], so exporter output is golden-testable
//!    byte for byte.
//! 2. **Near-zero overhead when disabled.** A disabled [`Telemetry`] is
//!    `None` inside; every hook is one branch on that option and no
//!    allocation, lock, or clock read happens. Prices are bitwise-identical
//!    with telemetry on or off — enforced by differential proptests.
//! 3. **Deterministic export.** All registries are `BTreeMap`s (QL001), so
//!    Prometheus text, JSON snapshots, and collapsed stacks are stable
//!    across runs given the same events.
//!
//! ## Exporters
//!
//! * [`TelemetrySink::prometheus_text`] — Prometheus exposition format.
//! * [`TelemetrySink::metrics_json`] — JSON snapshot of the registry.
//! * [`TelemetrySink::spans_json`] — the span tree as a JSON array.
//! * [`TelemetrySink::collapsed_stacks`] — flamegraph-compatible collapsed
//!   stack lines (`Prepare;Disagreement 1234`), weights in nanoseconds of
//!   self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// Injectable time source. The only way telemetry reads time.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) epoch. Must be monotone
    /// non-decreasing.
    fn now_ns(&self) -> u64;
}

/// Production clock: nanoseconds since sink construction.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock {
            // qirana-lint::allow(QL004): MonotonicClock IS the sanctioned
            origin: Instant::now(), // wall-time source for telemetry spans
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Deterministic test clock: every `now_ns` call advances by a fixed step,
/// so span durations depend only on the *number* of clock reads — stable
/// input for golden exporter tests.
pub struct TestClock {
    now: AtomicU64,
    step: u64,
}

impl TestClock {
    /// A clock starting at 0 that advances `step_ns` per read.
    pub fn stepping(step_ns: u64) -> Self {
        TestClock {
            now: AtomicU64::new(0),
            step: step_ns,
        }
    }

    /// Manually advance the clock (useful with `stepping(0)`).
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for TestClock {
    fn now_ns(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// The typed stages of the pricing pipeline. Every span names one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// SQL parse + normal-form analysis.
    Prepare,
    /// Support-set generation (neighborhoods or uniform worlds).
    SupportGen,
    /// Disagreement evaluation (coverage family) or partition
    /// fingerprinting (entropy family); `detail` carries the family.
    Disagreement,
    /// Delta-state construction: base execution + per-operator
    /// intermediate state for the incremental evaluator.
    DeltaBuild,
    /// The batched delta probes over a built delta state, their fold and
    /// the per-neighbor fallbacks; `detail` carries the family.
    DeltaProbe,
    /// One batched probe execution inside [`Stage::DeltaProbe`]; `detail`
    /// is `<table>:<members>`, the span's `rows` count what it produced.
    DeltaBatch,
    /// Weight assignment / entropy-maximization solve.
    Solve,
    /// Pricing-cache probe.
    CacheLookup,
    /// Broker-side commit of a purchase/update to buyer accounts.
    BrokerCommit,
    /// Ledger event append (serialization + write).
    LedgerAppend,
    /// Ledger fsync.
    LedgerFsync,
    /// Full market recovery from a ledger directory.
    Recovery,
    /// Replay + bitwise re-verification of one logged event.
    Replay,
    /// One HTTP request handled by the pricing service, from parsed
    /// request line to flushed response; `detail` carries the route.
    ServerRequest,
}

impl Stage {
    /// Stable lower-snake name used in metric keys and exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Prepare => "prepare",
            Stage::SupportGen => "support_gen",
            Stage::Disagreement => "disagreement",
            Stage::DeltaBuild => "delta_build",
            Stage::DeltaProbe => "delta_probe",
            Stage::DeltaBatch => "delta_batch",
            Stage::Solve => "solve",
            Stage::CacheLookup => "cache_lookup",
            Stage::BrokerCommit => "broker_commit",
            Stage::LedgerAppend => "ledger_append",
            Stage::LedgerFsync => "ledger_fsync",
            Stage::Recovery => "recovery",
            Stage::Replay => "replay",
            Stage::ServerRequest => "server_request",
        }
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of log₂ buckets: bucket 0 holds exactly the value 0; bucket
/// `i ≥ 1` holds values with bit length `i`, i.e. `[2^(i-1), 2^i - 1]`;
/// bucket 64 therefore ends at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Index of the log₂ bucket for `v`. `0 → 0`, `1 → 1`, `2..=3 → 2`,
/// `u64::MAX → 64`.
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`le` label in Prometheus text).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-shape log₂ histogram of `u64` observations.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    /// Sum of observations; u128 so `u64::MAX` observations cannot wrap.
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Per-bucket counts (not cumulative).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Index of the highest non-empty bucket, if any observation exists.
    fn max_bucket(&self) -> Option<usize> {
        (0..HISTOGRAM_BUCKETS).rev().find(|&i| self.buckets[i] > 0)
    }
}

// ---------------------------------------------------------------------------
// Span records
// ---------------------------------------------------------------------------

/// One finished (or still-open) span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub stage: Stage,
    /// Free-form qualifier — pricing family, neighbor-chunk id, event kind.
    pub detail: String,
    /// Index of the parent span in the sink's span table.
    pub parent: Option<usize>,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    /// Attached counts (rows scanned, neighbors evaluated, …).
    pub counts: BTreeMap<&'static str, u64>,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns
            .unwrap_or(self.start_ns)
            .saturating_sub(self.start_ns)
    }

    /// `stage` or `stage:detail` — the frame name used in collapsed stacks.
    fn frame(&self) -> String {
        if self.detail.is_empty() {
            self.stage.name().to_string()
        } else {
            format!("{}:{}", self.stage.name(), self.detail)
        }
    }
}

#[derive(Default)]
struct TraceState {
    spans: Vec<SpanRecord>,
    /// Indices of currently-open spans per thread, innermost last. A span's
    /// parent is the innermost span open on its own thread, so concurrent
    /// request handlers never parent each other's spans. A thread's entry
    /// goes when its last open span closes.
    stacks: Vec<(ThreadId, Vec<usize>)>,
}

impl TraceState {
    /// The calling thread's open spans, if it has any.
    fn own_stack(&mut self) -> Option<&mut Vec<usize>> {
        let me = thread::current().id();
        self.stacks
            .iter_mut()
            .find(|(id, _)| *id == me)
            .map(|(_, stack)| stack)
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

// ---------------------------------------------------------------------------
// Sink + handle
// ---------------------------------------------------------------------------

/// The shared collection point for spans and metrics.
pub struct TelemetrySink {
    clock: Box<dyn Clock>,
    trace: Mutex<TraceState>,
    registry: Mutex<Registry>,
}

/// Poison-tolerant lock: telemetry must never panic the pricing pipeline,
/// so a poisoned mutex (a panicking thread mid-record) degrades to using
/// whatever state was left behind.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl TelemetrySink {
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        TelemetrySink {
            clock,
            trace: Mutex::new(TraceState::default()),
            registry: Mutex::new(Registry::default()),
        }
    }

    // -- recording ---------------------------------------------------------

    fn open_span(&self, stage: Stage, detail: String) -> usize {
        let now = self.clock.now_ns();
        let mut t = lock(&self.trace);
        let parent = t.own_stack().and_then(|s| s.last().copied());
        let idx = t.spans.len();
        t.spans.push(SpanRecord {
            stage,
            detail,
            parent,
            start_ns: now,
            end_ns: None,
            counts: BTreeMap::new(),
        });
        match t.own_stack() {
            Some(stack) => stack.push(idx),
            None => t.stacks.push((thread::current().id(), vec![idx])),
        }
        idx
    }

    fn close_span(&self, idx: usize) {
        let now = self.clock.now_ns();
        let mut t = lock(&self.trace);
        // Searched by index, not thread: a guard may drop on another thread.
        if let Some(k) = t.stacks.iter().position(|(_, s)| s.contains(&idx)) {
            let stack = &mut t.stacks[k].1;
            stack.retain(|&i| i != idx);
            if stack.is_empty() {
                t.stacks.swap_remove(k);
            }
        }
        let (dur, stage) = if let Some(span) = t.spans.get_mut(idx) {
            span.end_ns = Some(now);
            (span.duration_ns(), span.stage)
        } else {
            return;
        };
        drop(t);
        let mut r = lock(&self.registry);
        r.histograms
            .entry(format!("stage_{}_ns", stage.name()))
            .or_default()
            .observe(dur);
    }

    fn span_count(&self, idx: usize, key: &'static str, delta: u64) {
        let mut t = lock(&self.trace);
        if let Some(span) = t.spans.get_mut(idx) {
            *span.counts.entry(key).or_insert(0) += delta;
        }
    }

    fn innermost_count(&self, key: &'static str, delta: u64) {
        let mut t = lock(&self.trace);
        if let Some(idx) = t.own_stack().and_then(|s| s.last().copied()) {
            if let Some(span) = t.spans.get_mut(idx) {
                *span.counts.entry(key).or_insert(0) += delta;
            }
        }
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut r = lock(&self.registry);
        if let Some(c) = r.counters.get_mut(name) {
            *c += delta;
        } else {
            r.counters.insert(name.to_string(), delta);
        }
    }

    pub fn gauge_set(&self, name: &str, value: u64) {
        let mut r = lock(&self.registry);
        r.gauges.insert(name.to_string(), value);
    }

    pub fn observe(&self, name: &str, value: u64) {
        let mut r = lock(&self.registry);
        if let Some(h) = r.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            r.histograms.insert(name.to_string(), h);
        }
    }

    /// Reads the clock — for callers measuring an interval they will report
    /// via [`TelemetrySink::observe`] (e.g. ledger fsync latency).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    // -- snapshot accessors (tests, differential assertions) ---------------

    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.registry)
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<u64> {
        lock(&self.registry).gauges.get(name).copied()
    }

    pub fn histogram_count(&self, name: &str) -> u64 {
        lock(&self.registry)
            .histograms
            .get(name)
            .map(Histogram::count)
            .unwrap_or(0)
    }

    /// All counters, sorted by name (deterministic).
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock(&self.registry)
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Finished + open spans, in open order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.trace).spans.clone()
    }

    // -- exporters ---------------------------------------------------------

    /// Prometheus exposition-format dump of the registry. All metric names
    /// are prefixed `qirana_`; histograms emit cumulative `_bucket{le=…}`
    /// lines up to the highest non-empty bucket plus `+Inf`.
    pub fn prometheus_text(&self) -> String {
        let r = lock(&self.registry);
        let mut out = String::new();
        for (name, v) in &r.counters {
            let _ = writeln!(out, "# TYPE qirana_{name} counter");
            let _ = writeln!(out, "qirana_{name} {v}");
        }
        for (name, v) in &r.gauges {
            let _ = writeln!(out, "# TYPE qirana_{name} gauge");
            let _ = writeln!(out, "qirana_{name} {v}");
        }
        for (name, h) in &r.histograms {
            let _ = writeln!(out, "# TYPE qirana_{name} histogram");
            let mut cumulative = 0u64;
            let top = h.max_bucket().unwrap_or(0);
            for i in 0..=top {
                cumulative += h.buckets()[i];
                let _ = writeln!(
                    out,
                    "qirana_{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "qirana_{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "qirana_{name}_sum {}", h.sum());
            let _ = writeln!(out, "qirana_{name}_count {}", h.count());
        }
        out
    }

    /// JSON snapshot of the registry:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,buckets:[[le,count],…]}}}`.
    pub fn metrics_json(&self) -> String {
        let r = lock(&self.registry);
        let mut out = String::from("{\"counters\":{");
        push_map(&mut out, &r.counters);
        out.push_str("},\"gauges\":{");
        push_map(&mut out, &r.gauges);
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, h) in &r.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json_string(name),
                h.count(),
                h.sum()
            );
            let top = h.max_bucket().unwrap_or(0);
            for i in 0..=top {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", bucket_upper_bound(i), h.buckets()[i]);
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// The span table as a JSON array (open order; `parent` is an index).
    pub fn spans_json(&self) -> String {
        let t = lock(&self.trace);
        let mut out = String::from("[");
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"detail\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                json_string(s.stage.name()),
                json_string(&s.detail),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns.map_or("null".to_string(), |e| e.to_string()),
            );
            let mut first = true;
            for (k, v) in &s.counts {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{}:{v}", json_string(k));
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }

    /// Collapsed-stack (flamegraph) text: one line per distinct stack path,
    /// `frame;frame;frame weight`, weight = summed **self** time in ns
    /// (children's time excluded), lines sorted lexicographically.
    pub fn collapsed_stacks(&self) -> String {
        let t = lock(&self.trace);
        // Self time = duration − direct children's durations.
        let mut child_time = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_time[p] = child_time[p].saturating_add(s.duration_ns());
            }
        }
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for (i, s) in t.spans.iter().enumerate() {
            let self_ns = s.duration_ns().saturating_sub(child_time[i]);
            if self_ns == 0 {
                continue;
            }
            let mut frames = vec![s.frame()];
            let mut cur = s.parent;
            while let Some(p) = cur {
                frames.push(t.spans[p].frame());
                cur = t.spans[p].parent;
            }
            frames.reverse();
            *agg.entry(frames.join(";")).or_insert(0) += self_ns;
        }
        let mut out = String::new();
        for (stack, ns) in agg {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = lock(&self.trace);
        let r = lock(&self.registry);
        f.debug_struct("TelemetrySink")
            .field("spans", &t.spans.len())
            .field("counters", &r.counters.len())
            .field("gauges", &r.gauges.len())
            .field("histograms", &r.histograms.len())
            .finish()
    }
}

fn push_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{v}", json_string(k));
    }
}

/// Minimal JSON string escaping (metric names and details are ASCII-ish,
/// but stay correct for arbitrary input).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The cheap-clone handle threaded through `EngineOptions` and broker
/// config. `Telemetry::disabled()` (the default) is a `None` inside: every
/// hook is a single branch, no locks, no clock reads.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<TelemetrySink>>,
}

impl Telemetry {
    /// The null handle: all hooks are no-ops.
    pub fn disabled() -> Self {
        Telemetry { sink: None }
    }

    /// An enabled handle on a fresh sink with the production clock.
    pub fn enabled() -> Self {
        Telemetry {
            sink: Some(Arc::new(TelemetrySink::with_clock(Box::new(
                MonotonicClock::new(),
            )))),
        }
    }

    /// An enabled handle with an injected clock (deterministic tests).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Telemetry {
            sink: Some(Arc::new(TelemetrySink::with_clock(clock))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The underlying sink, if enabled (exporters live there).
    pub fn sink(&self) -> Option<&Arc<TelemetrySink>> {
        self.sink.as_ref()
    }

    /// Opens a stage span; the returned guard closes it on drop and feeds
    /// the stage's duration histogram. Returns an inert guard when disabled.
    pub fn span(&self, stage: Stage) -> SpanGuard {
        self.span_with(stage, String::new())
    }

    /// [`Telemetry::span`] with a qualifier (family name, chunk id, …).
    /// `detail` is only materialized by callers on the enabled path; pass
    /// `String::new()` when there is nothing to say.
    pub fn span_with(&self, stage: Stage, detail: String) -> SpanGuard {
        match &self.sink {
            None => SpanGuard { inner: None },
            Some(sink) => {
                let idx = sink.open_span(stage, detail);
                SpanGuard {
                    inner: Some((Arc::clone(sink), idx)),
                }
            }
        }
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter_add(name, delta);
        }
    }

    /// Bumps a named count on the innermost open span, whichever stage it
    /// is — for work counted where it happens, by code that holds no span
    /// guard (plan executions). The count lands on the innermost span open
    /// on the calling thread. No-op when disabled or when the calling
    /// thread has no span open.
    pub fn count_innermost(&self, key: &'static str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.innermost_count(key, delta);
        }
    }

    pub fn gauge_set(&self, name: &str, value: u64) {
        if let Some(sink) = &self.sink {
            sink.gauge_set(name, value);
        }
    }

    pub fn observe(&self, name: &str, value: u64) {
        if let Some(sink) = &self.sink {
            sink.observe(name, value);
        }
    }

    /// Clock read for interval measurements; `None` when disabled so
    /// callers skip the math entirely.
    pub fn now_ns(&self) -> Option<u64> {
        self.sink.as_ref().map(|s| s.now_ns())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

/// RAII span guard: closes its span (recording end time and the stage
/// duration histogram) on drop. Inert — a single `None` — when telemetry
/// is disabled.
pub struct SpanGuard {
    inner: Option<(Arc<TelemetrySink>, usize)>,
}

impl SpanGuard {
    /// Attaches/bumps a named count on the span (rows scanned, neighbors
    /// evaluated, …). No-op when inert.
    pub fn count(&self, key: &'static str, delta: u64) {
        if let Some((sink, idx)) = &self.inner {
            sink.span_count(*idx, key, delta);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((sink, idx)) = self.inner.take() {
            sink.close_span(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- histogram bucketing edge cases ------------------------------------

    #[test]
    fn bucket_zero_holds_exactly_zero() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_upper_bound(0), 0);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket i covers [2^(i-1), 2^i - 1].
        for i in 1..64usize {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high edge of bucket {i}");
            assert_eq!(bucket_upper_bound(i), hi);
        }
    }

    #[test]
    fn bucket_max_holds_u64_max() {
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.buckets()[64], 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2 * u128::from(u64::MAX));
    }

    #[test]
    fn histogram_sum_does_not_wrap() {
        let mut h = Histogram::default();
        for _ in 0..4 {
            h.observe(u64::MAX);
        }
        assert_eq!(h.sum(), 4 * u128::from(u64::MAX));
    }

    #[test]
    fn adjacent_boundary_values_split_buckets() {
        // 2^k - 1 and 2^k land in different buckets for every k.
        for k in 1..64usize {
            let below = (1u64 << k) - 1;
            let at = 1u64 << k;
            assert_eq!(bucket_index(below) + 1, bucket_index(at), "k = {k}");
        }
    }

    // -- clocks ------------------------------------------------------------

    #[test]
    fn test_clock_is_deterministic() {
        let c = TestClock::stepping(10);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 10);
        c.advance(100);
        assert_eq!(c.now_ns(), 120);
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    // -- spans -------------------------------------------------------------

    #[test]
    fn spans_nest_and_record_durations() {
        let t = Telemetry::with_clock(Box::new(TestClock::stepping(100)));
        {
            let outer = t.span(Stage::Prepare);
            outer.count("rows", 7);
            {
                let inner = t.span_with(Stage::Disagreement, "coverage".into());
                inner.count("neighbors", 42);
            }
        }
        let sink = t.sink().map(Arc::clone);
        let sink = match sink {
            Some(s) => s,
            None => unreachable!("enabled telemetry has a sink"),
        };
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Prepare);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].stage, Stage::Disagreement);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].detail, "coverage");
        assert_eq!(spans[0].counts.get("rows"), Some(&7));
        assert_eq!(spans[1].counts.get("neighbors"), Some(&42));
        // TestClock(100): open@0, open@100, close@200, close@300.
        assert_eq!(spans[1].start_ns, 100);
        assert_eq!(spans[1].end_ns, Some(200));
        assert_eq!(spans[0].end_ns, Some(300));
        assert_eq!(sink.histogram_count("stage_prepare_ns"), 1);
        assert_eq!(sink.histogram_count("stage_disagreement_ns"), 1);
    }

    #[test]
    fn innermost_counts_land_on_the_open_leaf() {
        let t = Telemetry::with_clock(Box::new(TestClock::stepping(1)));
        t.count_innermost("execs", 1); // no span open: dropped
        {
            let _outer = t.span(Stage::Disagreement);
            {
                let _inner = t.span(Stage::DeltaBuild);
                t.count_innermost("execs", 1);
            }
            t.count_innermost("execs", 2);
        }
        let sink = match t.sink() {
            Some(s) => Arc::clone(s),
            None => unreachable!("enabled telemetry has a sink"),
        };
        let execs: Vec<_> = sink
            .spans()
            .iter()
            .map(|s| s.counts.get("execs").copied())
            .collect();
        assert_eq!(execs, [Some(2), Some(1)]);
    }

    #[test]
    fn concurrent_threads_keep_their_own_span_stacks() {
        let t = Telemetry::with_clock(Box::new(TestClock::stepping(1)));
        let both_open = std::sync::Barrier::new(2);
        let both_counted = std::sync::Barrier::new(2);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _request = t.span(Stage::ServerRequest);
                    both_open.wait();
                    t.count_innermost("execs", 1);
                    both_counted.wait();
                });
            }
        });
        let sink = match t.sink() {
            Some(s) => Arc::clone(s),
            None => unreachable!("enabled telemetry has a sink"),
        };
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        for span in &spans {
            assert_eq!(span.parent, None, "a request span parents no other");
            assert_eq!(span.counts.get("execs"), Some(&1));
            assert!(span.end_ns.is_some());
        }
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        {
            let g = t.span(Stage::Solve);
            g.count("rows", 5);
        }
        t.counter_add("x", 1);
        t.gauge_set("y", 2);
        t.observe("z", 3);
        assert!(t.now_ns().is_none());
        assert!(t.sink().is_none());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let t = Telemetry::with_clock(Box::new(TestClock::stepping(1)));
        t.counter_add("hits", 2);
        t.counter_add("hits", 3);
        t.gauge_set("depth", 9);
        t.gauge_set("depth", 4);
        let sink = match t.sink() {
            Some(s) => Arc::clone(s),
            None => unreachable!("enabled telemetry has a sink"),
        };
        assert_eq!(sink.counter("hits"), 5);
        assert_eq!(sink.gauge("depth"), Some(4));
    }

    #[test]
    fn collapsed_stacks_use_self_time() {
        let t = Telemetry::with_clock(Box::new(TestClock::stepping(100)));
        {
            let _outer = t.span(Stage::Prepare);
            let _inner = t.span_with(Stage::Disagreement, "coverage".into());
        }
        let sink = match t.sink() {
            Some(s) => Arc::clone(s),
            None => unreachable!("enabled telemetry has a sink"),
        };
        // outer: open@0 close@300 → 300 total; inner: open@100 close@200 →
        // 100. Outer self time = 200.
        let collapsed = sink.collapsed_stacks();
        assert_eq!(
            collapsed,
            "prepare 200\nprepare;disagreement:coverage 100\n"
        );
    }

    #[test]
    fn prometheus_text_is_deterministic_and_cumulative() {
        let t = Telemetry::with_clock(Box::new(TestClock::stepping(0)));
        t.counter_add("cache_hits", 3);
        t.gauge_set("support_size", 200);
        t.observe("append_ns", 0);
        t.observe("append_ns", 1);
        t.observe("append_ns", 3);
        let sink = match t.sink() {
            Some(s) => Arc::clone(s),
            None => unreachable!("enabled telemetry has a sink"),
        };
        let text = sink.prometheus_text();
        let expected = "\
# TYPE qirana_cache_hits counter
qirana_cache_hits 3
# TYPE qirana_support_size gauge
qirana_support_size 200
# TYPE qirana_append_ns histogram
qirana_append_ns_bucket{le=\"0\"} 1
qirana_append_ns_bucket{le=\"1\"} 2
qirana_append_ns_bucket{le=\"3\"} 3
qirana_append_ns_bucket{le=\"+Inf\"} 3
qirana_append_ns_sum 4
qirana_append_ns_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn metrics_json_shape() {
        let t = Telemetry::with_clock(Box::new(TestClock::stepping(0)));
        t.counter_add("c", 1);
        t.gauge_set("g", 2);
        t.observe("h", 4);
        let sink = match t.sink() {
            Some(s) => Arc::clone(s),
            None => unreachable!("enabled telemetry has a sink"),
        };
        assert_eq!(
            sink.metrics_json(),
            "{\"counters\":{\"c\":1},\"gauges\":{\"g\":2},\
             \"histograms\":{\"h\":{\"count\":1,\"sum\":4,\
             \"buckets\":[[0,0],[1,0],[3,0],[7,1]]}}}"
        );
    }

    #[test]
    fn spans_json_shape() {
        let t = Telemetry::with_clock(Box::new(TestClock::stepping(50)));
        {
            let g = t.span_with(Stage::Solve, "shannon".into());
            g.count("vars", 3);
        }
        let sink = match t.sink() {
            Some(s) => Arc::clone(s),
            None => unreachable!("enabled telemetry has a sink"),
        };
        assert_eq!(
            sink.spans_json(),
            "[{\"stage\":\"solve\",\"detail\":\"shannon\",\"parent\":null,\
             \"start_ns\":0,\"end_ns\":50,\"counts\":{\"vars\":3}}]"
        );
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
