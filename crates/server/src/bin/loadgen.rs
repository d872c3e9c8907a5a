//! Concurrent-session load generator and determinism check for the
//! pricing service.
//!
//! `cargo run -p qirana-server --bin loadgen --release -- [--sessions N]
//! [--requests N] [--support N] [--seed N] [--client-threads N]
//! [--json PATH]`
//!
//! Two phases against two identically-constructed servers:
//!
//! 1. **Concurrent**: N buyer sessions (default 1000), each a live
//!    keep-alive HTTP connection with its own buyer account, all open
//!    simultaneously and multiplexed over a handful of client threads.
//!    Every session issues the same deterministic mix of quotes and
//!    buys; per-request latency is measured client-side.
//! 2. **Sequential replay**: a fresh server from the same database,
//!    config, and cache warm-up serves the identical request log one
//!    session at a time, one request at a time.
//!
//! The load-bearing assertion is bitwise: every (session, request)
//! price from the concurrent phase must equal the sequential phase's
//! price down to the last mantissa bit. Quotes run concurrently on the
//! broker's read lock and buys serialize on the write lock, so any
//! interleaving sensitivity — a torn cache probe, a sweep reading
//! a database a commit is writing, an account update racing a quote — shows up here as a
//! flipped bit. Prices travel as JSON numbers; the emitter is
//! shortest-round-trip, so the wire does not quantize.
//!
//! Writes a `qirana-bench/v1` artifact (default `BENCH_10.json`) with
//! throughput and p50/p99 latency. `--validate PATH` schema-checks an
//! existing artifact and exits.

// CLI/bench target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the
// library crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use qirana_bench::json::{self, Json};
use qirana_bench::{validate_bench_json, Args, Harness};
use qirana_core::{EngineOptions, PricingFunction, Qirana, QiranaConfig, SupportConfig, Telemetry};
use qirana_datagen::world;
use qirana_server::{PricingServer, ServerConfig};

/// The query pool sessions draw from (world dataset: Country,
/// CountryLanguage, City). Mixed shapes so cache hits, misses, and
/// history-aware repricing all occur under load.
const POOL: &[&str] = &[
    "SELECT * FROM Country WHERE ID < 100",
    "SELECT Name FROM Country WHERE Continent = 'Asia'",
    "SELECT Name FROM Country WHERE Continent = 'Europe'",
    "SELECT Name FROM Country WHERE Population > 10000000",
    "SELECT ID, GNP FROM Country",
    "SELECT Continent, count(*) FROM Country GROUP BY Continent",
    "SELECT AVG(Population) FROM Country",
    "SELECT Region FROM Country",
    "SELECT * FROM CountryLanguage",
    "SELECT ID, Name, Continent, Population FROM Country",
    "SELECT Name, Population FROM City WHERE Population > 200000",
    "SELECT CountryCode, count(*), sum(Population) FROM City GROUP BY CountryCode",
];

/// One session's j-th request: mostly quotes, every 4th a buy. The
/// (session, request) pair fully determines the query, so the
/// concurrent and sequential phases replay the same log by construction.
fn request_for(session: usize, request: usize) -> (&'static str, &'static str) {
    let sql = POOL[(session.wrapping_mul(31).wrapping_add(request * 7)) % POOL.len()];
    let verb = if request % 4 == 3 { "buy" } else { "quote" };
    (verb, sql)
}

fn build_server(support: usize, seed: u64, telemetry: Telemetry) -> PricingServer {
    let mut broker = Qirana::new(
        world::generate(7),
        QiranaConfig {
            total_price: 100.0,
            function: PricingFunction::WeightedCoverage,
            support: SupportConfig {
                size: support,
                seed,
                ..Default::default()
            },
            engine: EngineOptions::default().with_telemetry(telemetry.clone()),
            ..Default::default()
        },
    )
    .expect("broker construction");
    // Warm the pricing cache identically on every server instance: buys
    // populate the memo (quotes are peek-only and never insert), so a
    // fleet of quoting sessions alone would never share work. One
    // warm-up buyer purchasing the whole pool puts every plan's bitmap
    // in cache before either phase starts.
    for sql in POOL {
        broker.buy("warm", sql).expect("cache warm-up buy");
    }
    PricingServer::start(
        broker,
        ServerConfig {
            max_connections: 8192,
            max_inflight: 8192,
        },
        telemetry,
    )
    .expect("server boot")
}

/// One keep-alive session: a connection plus its buyer name.
struct Session {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buyer: String,
}

impl Session {
    fn open(addr: std::net::SocketAddr, index: usize) -> Session {
        let stream = TcpStream::connect(addr).expect("session connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("socket clone"));
        Session {
            stream,
            reader,
            buyer: format!("s{index}"),
        }
    }

    /// Sends request `j` of this session and returns (price bits,
    /// latency in ns).
    fn issue(&mut self, request: usize, session: usize) -> (u64, u64) {
        let (verb, sql) = request_for(session, request);
        let (path, body) = match verb {
            "buy" => (
                "/v1/buy",
                json::render(&Json::Obj(vec![
                    ("buyer".to_string(), Json::Str(self.buyer.clone())),
                    ("sql".to_string(), Json::Str(sql.to_string())),
                ])),
            ),
            _ => (
                "/v1/quote",
                json::render(&Json::Obj(vec![(
                    "sql".to_string(),
                    Json::Str(sql.to_string()),
                )])),
            ),
        };
        // qirana-lint::allow(QL004): client-side latency is the bench observable
        let t0 = Instant::now();
        write!(
            self.stream,
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let (status, doc) = read_response(&mut self.reader);
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(
            status, 200,
            "session {session} request {request} ({verb} {sql}) failed: {doc:?}"
        );
        let price = doc
            .get("price")
            .and_then(Json::as_num)
            .expect("price field");
        (price.to_bits(), ns)
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Json) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("malformed status line: {line:?}"))
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("response body");
    let text = String::from_utf8(body).expect("utf8 body");
    (status, json::parse(&text).expect("json body"))
}

/// Runs all sessions concurrently: every session's connection is opened
/// before any request is sent, so the server genuinely holds `sessions`
/// live keep-alive connections at once. Returns price bits indexed by
/// `[session][request]` plus all client-side latencies in ns.
fn concurrent_phase(
    addr: std::net::SocketAddr,
    sessions: usize,
    requests: usize,
    client_threads: usize,
) -> (Vec<Vec<u64>>, Vec<u64>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..client_threads)
            .map(|t| {
                scope.spawn(move || {
                    let mine: Vec<usize> =
                        (0..sessions).filter(|i| i % client_threads == t).collect();
                    let mut open: Vec<Session> =
                        mine.iter().map(|&i| Session::open(addr, i)).collect();
                    let mut prices: Vec<Vec<u64>> =
                        mine.iter().map(|_| Vec::with_capacity(requests)).collect();
                    let mut latencies = Vec::with_capacity(mine.len() * requests);
                    // Round-robin: request j across all of this thread's
                    // sessions before request j+1, so the server sees
                    // interleaved traffic, not one session at a time.
                    for j in 0..requests {
                        for (slot, &i) in mine.iter().enumerate() {
                            let (bits, ns) = open[slot].issue(j, i);
                            prices[slot].push(bits);
                            latencies.push(ns);
                        }
                    }
                    (mine, prices, latencies)
                })
            })
            .collect();
        let mut by_session = vec![Vec::new(); sessions];
        let mut all_latencies = Vec::with_capacity(sessions * requests);
        for handle in handles {
            let (mine, prices, latencies) = handle.join().expect("client thread");
            for (i, session_prices) in mine.into_iter().zip(prices) {
                by_session[i] = session_prices;
            }
            all_latencies.extend(latencies);
        }
        (by_session, all_latencies)
    })
}

/// Replays the identical request log one session at a time on a fresh
/// server.
fn sequential_phase(addr: std::net::SocketAddr, sessions: usize, requests: usize) -> Vec<Vec<u64>> {
    (0..sessions)
        .map(|i| {
            let mut session = Session::open(addr, i);
            (0..requests).map(|j| session.issue(j, i).0).collect()
        })
        .collect()
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() * p / 100).min(sorted.len() - 1);
    sorted[idx]
}

fn main() {
    let args = Args::parse();
    let validate: String = args.get("validate", String::new());
    if !validate.is_empty() {
        let text = std::fs::read_to_string(&validate)
            .unwrap_or_else(|e| panic!("reading {validate}: {e}"));
        match validate_bench_json(&text) {
            Ok(()) => {
                println!("{validate}: schema-valid ({})", qirana_bench::SCHEMA);
                return;
            }
            Err(e) => {
                eprintln!("{validate}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }

    let sessions: usize = args.get("sessions", 1000);
    let requests: usize = args.get("requests", 4);
    let support: usize = args.get("support", 64);
    let seed: u64 = args.get("seed", 1);
    let client_threads: usize = args.get("client-threads", 8).max(1);

    let mut h = Harness::from_args("loadgen", &args, Some("BENCH_10.json"));
    h.param("sessions", sessions);
    h.param("requests", requests);
    h.param("support", support);
    h.param("seed", seed);
    h.param("client_threads", client_threads);

    println!("== Concurrent pricing service (S={sessions} sessions × R={requests} requests) ==");

    let concurrent_server = build_server(support, seed, h.telemetry());
    let addr = concurrent_server.addr();
    // qirana-lint::allow(QL004): wall-clock throughput is the bench metric
    let t0 = Instant::now();
    let (concurrent_prices, mut latencies) =
        concurrent_phase(addr, sessions, requests, client_threads);
    let wall = t0.elapsed().as_secs_f64();
    concurrent_server.shutdown();

    let total = sessions * requests;
    // qirana-lint::allow(QL002): request counts stay exact below 2^53
    let throughput = total as f64 / wall;
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 50);
    let p99 = percentile(&latencies, 99);
    println!(
        "concurrent: {total} requests in {wall:.3}s — {throughput:.0} req/s, \
         p50 {:.3}ms, p99 {:.3}ms",
        // qirana-lint::allow(QL002): ns latencies stay exact below 2^53
        p50 as f64 / 1e6,
        // qirana-lint::allow(QL002): ns latencies stay exact below 2^53
        p99 as f64 / 1e6,
    );
    h.record("throughput_rps", "concurrent", throughput);
    // qirana-lint::allow(QL002): ns latencies stay exact below 2^53
    h.record("latency_p50_ms", "concurrent", p50 as f64 / 1e6);
    // qirana-lint::allow(QL002): ns latencies stay exact below 2^53
    h.record("latency_p99_ms", "concurrent", p99 as f64 / 1e6);

    let sequential_server = build_server(support, seed, h.telemetry());
    let (sequential_prices, secs) = h.time("sequential_replay", "all-sessions", || {
        sequential_phase(sequential_server.addr(), sessions, requests)
    });
    sequential_server.shutdown();
    println!("sequential replay: {total} requests in {secs:.3}s");

    let mut mismatches = 0usize;
    for i in 0..sessions {
        for j in 0..requests {
            if concurrent_prices[i][j] != sequential_prices[i][j] {
                if mismatches == 0 {
                    let (verb, sql) = request_for(i, j);
                    eprintln!(
                        "MISMATCH session {i} request {j} ({verb} {sql}): \
                         concurrent {:?} != sequential {:?}",
                        f64::from_bits(concurrent_prices[i][j]),
                        f64::from_bits(sequential_prices[i][j]),
                    );
                }
                mismatches += 1;
            }
        }
    }
    // qirana-lint::allow(QL002): mismatch counts stay exact below 2^53
    let mismatches_metric = mismatches as f64;
    h.record(
        "price_mismatches",
        "concurrent-vs-sequential",
        mismatches_metric,
    );
    assert_eq!(
        mismatches, 0,
        "{mismatches}/{total} prices diverged between concurrent and sequential replay"
    );
    println!("determinism: all {total} prices bitwise-identical across phases");

    if let Some(path) = h.finish().expect("bench artifact") {
        println!("wrote {}", path.display());
    }
}
