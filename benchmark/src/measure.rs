//! One run of one workload: set up, time, observe, check.
//!
//! The order matters. Set-up is repeated and timed; the last system built
//! is the one measured. The timed phase runs in segments; between them the
//! checker replays what the segment did, on its own brokers, and nothing
//! is judged until the last segment is over. Peak memory is read after the
//! first segment, before the checker builds those brokers in this process.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use qirana_core::{prepare_query, CacheStats, LedgerConfig, Qirana, Telemetry};
use qirana_sqlengine::{prepare, query};

use crate::check::{self, Replayed, Replayer, Verdict};
use crate::drive::{self, Clients, Executed};
use crate::http::{self, Conn};
use crate::json::{self, Json};
use crate::layers::Registry;
use crate::plan::{buyer_name, Op, Plan, CLIENTS, SEGMENTS};
use crate::spans::Recorder;
use crate::stats::median_ns;
use crate::workloads::{self, Spec, Sut};

/// Distinct queries whose own execution time is measured after a traced run.
const EXEC_SAMPLE: usize = 48;
/// Executions per sampled query: at least this many, and more of a cheap
/// query until [`EXEC_BUDGET_NS`] is spent; the median is kept.
const EXEC_REPS: usize = 5;
const EXEC_MAX_REPS: usize = 201;
const EXEC_BUDGET_NS: u64 = 20_000_000;
/// Set-ups per run: at least the minimum, more of a cheap set-up until
/// the budget is spent; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// A traced run measures for this share of `--seconds`: the program's
/// telemetry sink keeps every span it ever opened, and slows as they pile up.
const TRACE_SHARE: f64 = 0.25;
/// `Qirana::recover` calls in a traced run; the median is kept.
const RECOVER_REPS: usize = 3;
/// Requests of client 0 replayed on a WAL-backed broker in a traced run.
const LEDGER_REPLAY_OPS: usize = 4000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    /// A fresh sink for a traced run, the disabled handle otherwise.
    fn telemetry(&self) -> Telemetry {
        if self.trace {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }
}

/// Own execution and planning times of one sampled query (medians, ns):
/// `qirana_sqlengine::query`, `qirana_sqlengine::prepare`, `prepare_query`.
pub struct QueryCost {
    pub q: u32,
    pub exec_ns: u64,
    pub rows_out: u64,
    pub parse_plan_ns: u64,
    pub normal_form_ns: u64,
}

/// What the service said and left behind, read before and after shutdown.
#[derive(Default)]
pub struct ServiceFacts {
    pub requests_total: f64,
    pub rejected_total: f64,
    pub ledger_bytes: u64,
    pub recover_ns: Vec<u64>,
    pub replayed_buys: Option<f64>,
    /// Direct buy latencies on a WAL-backed broker (traced runs only).
    pub ledger_buy_ns: Vec<u64>,
}

pub struct Measurement {
    pub spec: Spec,
    pub plan: Plan,
    pub run: Executed,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
    /// Own costs of the sampled queries (traced runs only).
    pub costs: Vec<QueryCost>,
    pub replayed: Replayed,
    pub verdict: Verdict,
    pub service: Option<ServiceFacts>,
    /// Registry after set-up and after the timed phase (traced runs only).
    pub registry: Option<(Registry, Registry)>,
    pub recorder: Recorder,
    /// Index of the `timed` span in the recorder.
    pub timed_span: usize,
}

fn peak_rss() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn snapshot(telemetry: &Telemetry) -> Option<Registry> {
    telemetry.sink().map(|s| Registry::parse(&s.metrics_json()))
}

fn cache_total(brokers: &[Qirana]) -> CacheStats {
    let mut total = CacheStats::default();
    for b in brokers {
        let s = b.cache_stats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
        total.invalidations += s.invalidations;
    }
    total
}

/// `/v1/stats`: cache counters plus the server's own request counters.
fn service_stats(conn: &mut Conn) -> io::Result<(CacheStats, f64, f64)> {
    conn.get("/v1/stats")?;
    let doc = conn
        .body_json()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let n = |keys: &[&str]| doc.path(keys).and_then(|v| v.num()).unwrap_or(f64::NAN);
    Ok((
        CacheStats {
            hits: n(&["cache", "hits"]) as u64,
            misses: n(&["cache", "misses"]) as u64,
            evictions: n(&["cache", "evictions"]) as u64,
            invalidations: n(&["cache", "invalidations"]) as u64,
        },
        n(&["requests_total"]),
        n(&["rejected_total"]),
    ))
}

/// Prices `sqls` over HTTP: one query through `/v1/quote`, several through
/// `/v1/bundle-quote`.
fn http_price(conn: &mut Conn, sqls: &[&str]) -> Option<f64> {
    let status = match sqls {
        [sql] => conn.post("/v1/quote", &http::quote_body(sql)),
        _ => {
            let items = sqls.iter().map(|s| Json::Str((*s).into())).collect();
            let body = json::render(&json::obj(vec![("sqls", Json::Arr(items))]));
            conn.post("/v1/bundle-quote", &body)
        }
    };
    http::number_field(&conn.body, "price").filter(|_| matches!(status, Ok(200)))
}

/// Copies the ledger directory as it stands (every file but the writer's
/// lock) and returns the bytes copied. Taken while the service is up and
/// idle: with fsync on every append, every acknowledged byte is flushed by
/// then, and recovery from the copy can read nothing written later.
fn copy_ledger(from: &Path, to: &Path) -> io::Result<u64> {
    std::fs::create_dir_all(to)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        if entry.file_type()?.is_file() && !name.to_string_lossy().ends_with(".lock") {
            bytes += std::fs::copy(entry.path(), to.join(name))?;
        }
    }
    Ok(bytes)
}

/// Own cost of the first [`EXEC_SAMPLE`] distinct queries the run priced.
fn query_costs(spec: &Spec, plan: &Plan, run: &Executed) -> Vec<QueryCost> {
    let mut sample: Vec<u32> = Vec::new();
    for op in run.lanes.iter().flat_map(|l| &l.ops) {
        if let Op::Quote { q } | Op::Buy { q, .. } = *op {
            if !sample.contains(&q) {
                sample.push(q);
                if sample.len() == EXEC_SAMPLE {
                    break;
                }
            }
        }
    }
    let dbs: Vec<_> = spec.markets.iter().map(|m| m.data.generate()).collect();
    let median_of = |f: &mut dyn FnMut()| {
        let mut ns: Vec<u64> = Vec::new();
        let mut spent = 0;
        while ns.len() < EXEC_REPS || (spent < EXEC_BUDGET_NS && ns.len() < EXEC_MAX_REPS) {
            let t0 = Instant::now();
            f();
            ns.push(t0.elapsed().as_nanos() as u64);
            spent += ns[ns.len() - 1];
        }
        median_ns(&ns).unwrap_or(0)
    };
    sample
        .into_iter()
        .map(|q| {
            let query_ = &plan.pool[q as usize];
            let (db, sql) = (&dbs[query_.market], query_.sql.as_str());
            let mut rows_out = 0;
            let exec_ns = median_of(&mut || {
                let out = query(db, sql).unwrap_or_else(|e| panic!("{}: {e}", query_.label));
                rows_out = std::hint::black_box(out).rows.len() as u64;
            });
            let parse_plan_ns = median_of(&mut || {
                std::hint::black_box(prepare(db, sql)).ok();
            });
            let normal_form_ns = median_of(&mut || {
                std::hint::black_box(prepare_query(db, sql)).ok();
            });
            QueryCost {
                q,
                exec_ns,
                rows_out,
                parse_plan_ns,
                normal_form_ns,
            }
        })
        .collect()
}

/// Reads every buyer's account, checks bundles and price points over HTTP,
/// copies the ledger, shuts the service down and recovers from the copy.
#[allow(clippy::too_many_arguments)]
fn finish_service(
    args: &Args,
    spec: &Spec,
    plan: &Plan,
    run: &Executed,
    server: qirana_server::PricingServer,
    ledger_dir: &Path,
    work: &Path,
    verdict: &mut Verdict,
    rec: &mut Recorder,
) -> io::Result<(CacheStats, ServiceFacts, BTreeMap<u32, Option<f64>>)> {
    let mut conn = Conn::open(server.addr())?;
    let (cache_after, requests_total, rejected_total) = service_stats(&mut conn)?;

    let mut accounts = BTreeMap::new();
    for buyer in check::charged(run).into_keys() {
        let status = conn.get(&format!("/v1/account/{}", buyer_name(buyer)))?;
        let paid = http::number_field(&conn.body, "paid").filter(|_| status == 200);
        accounts.insert(buyer, paid);
    }
    let mut price = |_: usize, sqls: &[&str]| http_price(&mut conn, sqls);
    check::check_bundles(spec, plan, args.seed, &mut price, verdict);
    check::check_price_points(spec, &mut price, verdict);

    let reps = if args.trace { RECOVER_REPS } else { 1 };
    let copies: Vec<PathBuf> = (0..reps)
        .map(|i| work.join(format!("recover-{i}")))
        .collect();
    let mut ledger_bytes = 0;
    for copy in &copies {
        ledger_bytes = copy_ledger(ledger_dir, copy)?;
    }
    drop(conn);
    server.shutdown();

    let observed: BTreeMap<u32, u64> = accounts
        .iter()
        .map(|(&b, p)| (b, p.unwrap_or(f64::NAN).to_bits()))
        .collect();
    let mut facts = ServiceFacts {
        requests_total,
        rejected_total,
        ledger_bytes,
        ..Default::default()
    };
    let id = rec.enter("recover");
    for copy in &copies {
        let db = spec.markets[0].data.generate();
        let telemetry = args.telemetry();
        let cfg = spec.markets[0].config(telemetry.clone());
        let t0 = Instant::now();
        let recovered = Qirana::recover(db, cfg, LedgerConfig::new(copy));
        facts.recover_ns.push(t0.elapsed().as_nanos() as u64);
        match recovered {
            Ok(broker) => check::check_recovered(&broker, &observed, verdict),
            Err(e) => verdict.check(false, || format!("recovery failed: {e}")),
        }
        facts.replayed_buys = snapshot(&telemetry).map(|r| r.counter("purchases_total"));
    }
    rec.exit(id);
    Ok((cache_after, facts, accounts))
}

pub fn measure(args: &Args) -> io::Result<Measurement> {
    let spec = workloads::spec(&args.workload, args.smoke).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {:?}; known: {:?}",
                args.workload,
                workloads::NAMES
            ),
        )
    })?;
    let plan = workloads::plan_for(&spec, args.seed);
    let work = workloads::work_dir();
    let seconds = if args.trace {
        args.seconds * TRACE_SHARE
    } else {
        args.seconds
    };
    let mut rec = Recorder::new();
    let mut verdict = Verdict::default();

    // Set-up, several times; the last one is measured.
    let mut setup_s = Vec::new();
    let mut telemetry = Telemetry::disabled();
    let mut sut = None;
    let mut spent = 0.0;
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && (args.smoke || spent >= SETUP_BUDGET_S) {
            break;
        }
        drop(sut.take());
        telemetry = args.telemetry();
        let id = rec.enter("setup");
        sut = Some(workloads::set_up(
            &spec,
            &plan,
            &telemetry,
            &work.join(format!("ledger-{rep}")),
            &mut rec,
        )?);
        setup_s.push(rec.exit(id));
        spent += setup_s[rep];
    }
    let mut sut = sut.expect("at least one set-up");
    let registry_before = snapshot(&telemetry);

    // Timed phase, in segments, the checker's replay of each in between.
    let timed_span = rec.enter("timed");
    let lanes = if spec.service { CLIENTS } else { 1 };
    let mut run = Executed::new(lanes);
    let mut replayer = Replayer::new(lanes);
    let mut clients = match &sut {
        Sut::Service { server, .. } => Some(Clients::open(server.addr(), &plan)?),
        Sut::Library(_) => None,
    };
    let cache_before = match &sut {
        Sut::Service { server, .. } => service_stats(&mut Conn::open(server.addr())?)?.0,
        Sut::Library(brokers) => cache_total(brokers),
    };
    let mut peak_rss_mb = f64::NAN;
    let share = seconds / SEGMENTS as f64;
    for segment in 0..SEGMENTS {
        let id = rec.enter("segment");
        match (&mut sut, &mut clients) {
            (Sut::Library(brokers), _) => {
                drive::library_segment(brokers, &plan, &mut run, segment, share, rec.epoch());
            }
            (Sut::Service { .. }, Some(clients)) => {
                drive::service_segment(clients, &plan, &mut run, share, rec.epoch());
            }
            (Sut::Service { .. }, None) => unreachable!("a service run has clients"),
        }
        rec.exit(id);
        if segment == 0 {
            // Before the checker builds its own brokers in this process.
            peak_rss_mb = peak_rss();
        }
        let id = rec.enter("verify");
        replayer.advance(&spec, &plan, &run);
        rec.exit(id);
    }
    drop(clients);
    rec.exit(timed_span);
    let registry_after = snapshot(&telemetry);

    // Observe the system under test, then let it go.
    let (cache_after, mut service, accounts) = match sut {
        Sut::Service { server, ledger_dir } => {
            let (cache, facts, accounts) = finish_service(
                args,
                &spec,
                &plan,
                &run,
                server,
                &ledger_dir,
                &work,
                &mut verdict,
                &mut rec,
            )?;
            (cache, Some(facts), accounts)
        }
        Sut::Library(brokers) => {
            let cache = cache_total(&brokers);
            let accounts = check::charged(&run)
                .into_keys()
                .map(|b| {
                    let paid = brokers.iter().find_map(|br| br.buyer_paid(&buyer_name(b)));
                    (b, paid)
                })
                .collect();
            let price = |m: usize, sqls: &[&str]| match sqls {
                [sql] => brokers[m].quote(sql).ok(),
                _ => brokers[m].quote_bundle(sqls).ok(),
            };
            check::check_bundles(&spec, &plan, args.seed, price, &mut verdict);
            (cache, None, accounts)
        }
    };

    // Judge.
    let id = rec.enter("judge");
    let replayed = replayer.judge(&plan, &run, &mut verdict);
    check::check_accounts(
        &run,
        &replayed,
        |b| accounts.get(&b).copied().flatten(),
        &mut verdict,
    );
    rec.exit(id);

    if let (true, Some(facts), Some(lane)) = (args.trace, service.as_mut(), run.lanes.first()) {
        // The same requests, directly, on a WAL-backed broker: what the
        // ledger adds to a buy is this median minus the in-memory one.
        let dir = work.join("ledger-direct");
        let mut broker = vec![workloads::reference_broker(&spec, 0, &plan, Some(&dir))];
        let prefix = drive::Lane::of(lane.ops[..lane.ops.len().min(LEDGER_REPLAY_OPS)].to_vec());
        let mut direct = check::Direct::default();
        check::replay_lane(
            &mut broker,
            &plan,
            &prefix,
            0,
            run.updates.len(),
            &mut direct,
        );
        facts.ledger_buy_ns = direct.buy_ns;
    }

    let costs = if args.trace {
        query_costs(&spec, &plan, &run)
    } else {
        Vec::new()
    };

    if verdict.failed == 0 && work.exists() {
        std::fs::remove_dir_all(&work)?;
    }
    Ok(Measurement {
        spec,
        plan,
        run,
        setup_s,
        peak_rss_mb,
        cache_before,
        cache_after,
        costs,
        replayed,
        verdict,
        service,
        registry: registry_before.zip(registry_after),
        recorder: rec,
        timed_span,
    })
}
