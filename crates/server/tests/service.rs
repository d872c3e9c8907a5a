//! End-to-end tests of the pricing service over real sockets.
//!
//! Every test boots a [`PricingServer`] on a kernel-assigned loopback
//! port and talks plain HTTP/1.1 to it. The load-bearing assertions are
//! bitwise: a price served over the wire must equal the price the same
//! broker computes in-process, down to the last mantissa bit — the JSON
//! layer uses shortest-round-trip formatting, so `f64 -> text -> f64` is
//! the identity on finite values.

// Test binary: panicking on a broken fixture is the intended failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{BufReader, Write};
use std::net::TcpStream;

use qirana_bench::json::{self, Json};
use qirana_core::{PricingFunction, Qirana, QiranaConfig, SupportConfig, SupportType, Telemetry};
use qirana_server::http::{read_request, write_response};
use qirana_server::{PricingServer, ServerConfig};
use qirana_sqlengine::{ColumnDef, DataType, Database, TableSchema};

fn small_db() -> Database {
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
        vec![
            vec![1.into(), "m".into(), 25.into()],
            vec![2.into(), "f".into(), 13.into()],
            vec![3.into(), "m".into(), 45.into()],
            vec![4.into(), "f".into(), 19.into()],
        ],
    );
    db
}

fn config(function: PricingFunction) -> QiranaConfig {
    QiranaConfig {
        total_price: 100.0,
        function,
        support: SupportConfig {
            size: 120,
            seed: 11,
            ..Default::default()
        },
        support_type: SupportType::Neighborhood,
        ..Default::default()
    }
}

fn broker(function: PricingFunction) -> Qirana {
    Qirana::new(small_db(), config(function)).expect("broker construction")
}

fn serve(function: PricingFunction) -> PricingServer {
    PricingServer::start(
        broker(function),
        ServerConfig::default(),
        Telemetry::disabled(),
    )
    .expect("server boot")
}

/// A tiny blocking HTTP client over one keep-alive connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &PricingServer) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, Json) {
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        self.read_response()
    }

    /// Reads one response without having sent a request (for the
    /// accept-time 503).
    fn read_response(&mut self) -> (u16, Json) {
        // Responses are valid request-shaped frames except for the
        // status line, so read the raw line then reuse the header/body
        // logic by hand.
        use std::io::{BufRead, Read};
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("header");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("length");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        let text = String::from_utf8(body).expect("utf8");
        (status, json::parse(&text).expect("json body"))
    }
}

fn quote_req(sql: &str) -> String {
    json::render(&Json::Obj(vec![(
        "sql".to_string(),
        Json::Str(sql.to_string()),
    )]))
}

fn buy_req(buyer: &str, sql: &str) -> String {
    json::render(&Json::Obj(vec![
        ("buyer".to_string(), Json::Str(buyer.to_string())),
        ("sql".to_string(), Json::Str(sql.to_string())),
    ]))
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_num).expect("number field")
}

#[test]
fn served_quotes_match_the_direct_broker_bitwise() {
    for function in [
        PricingFunction::WeightedCoverage,
        PricingFunction::ShannonEntropy,
    ] {
        let direct = broker(function);
        let server = serve(function);
        let mut client = Client::connect(&server);
        for sql in [
            "SELECT * FROM User",
            "SELECT count(*) FROM User WHERE gender = 'f'",
            "SELECT age FROM User WHERE uid = 3",
        ] {
            let (status, doc) = client.request("POST", "/v1/quote", &quote_req(sql));
            assert_eq!(status, 200, "{function:?} {sql}: {doc:?}");
            let wire = num(&doc, "price");
            let local = direct.quote(sql).expect("direct quote");
            assert_eq!(
                wire.to_bits(),
                local.to_bits(),
                "{function:?}: served price diverged for {sql}"
            );
        }
        // Bundle quote too: subadditive price, same bits as in-process.
        let bundle = json::render(&Json::Obj(vec![(
            "sqls".to_string(),
            Json::Arr(vec![
                Json::Str("SELECT * FROM User".to_string()),
                Json::Str("SELECT age FROM User WHERE uid = 3".to_string()),
            ]),
        )]));
        let (status, doc) = client.request("POST", "/v1/bundle-quote", &bundle);
        assert_eq!(status, 200);
        let local = direct
            .quote_bundle(&["SELECT * FROM User", "SELECT age FROM User WHERE uid = 3"])
            .expect("direct bundle");
        assert_eq!(num(&doc, "price").to_bits(), local.to_bits());
        server.shutdown();
    }
}

#[test]
fn buys_charge_accounts_and_history_reports_them() {
    // Entropy family: it keeps the per-query history bundle the
    // `/v1/history` route reports (coverage charges through a bitmap and
    // records no SQL texts).
    let server = serve(PricingFunction::ShannonEntropy);
    let mut client = Client::connect(&server);

    let sql = "SELECT count(*) FROM User WHERE gender = 'f'";
    let (status, first) = client.request("POST", "/v1/buy", &buy_req("alice", sql));
    assert_eq!(status, 200, "{first:?}");
    assert!(num(&first, "price") > 0.0);
    assert_eq!(
        num(&first, "price").to_bits(),
        num(&first, "total_paid").to_bits()
    );
    assert_eq!(num(&first, "row_count"), 1.0);
    assert_eq!(
        first
            .get("rows")
            .and_then(Json::as_arr)
            .expect("rows")
            .len(),
        1
    );

    // History-aware: the identical repurchase is free.
    let (_, again) = client.request("POST", "/v1/buy", &buy_req("alice", sql));
    assert_eq!(num(&again, "price"), 0.0);
    assert_eq!(
        num(&again, "total_paid").to_bits(),
        num(&first, "total_paid").to_bits()
    );

    let (status, account) = client.request("GET", "/v1/account/alice", "");
    assert_eq!(status, 200);
    assert_eq!(
        num(&account, "paid").to_bits(),
        num(&first, "total_paid").to_bits()
    );
    assert_eq!(num(&account, "purchases"), 2.0);

    let (status, history) = client.request("GET", "/v1/history/alice", "");
    assert_eq!(status, 200);
    let queries = history
        .get("queries")
        .and_then(Json::as_arr)
        .expect("queries");
    assert_eq!(queries.len(), 2);
    assert_eq!(queries[0].as_str(), Some(sql));

    // Unknown buyers are 404, not empty accounts.
    let (status, _) = client.request("GET", "/v1/account/nobody", "");
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn admin_update_changes_served_prices_like_the_direct_broker() {
    let mut direct = broker(PricingFunction::WeightedCoverage);
    let server = serve(PricingFunction::WeightedCoverage);
    let mut client = Client::connect(&server);

    let probe = "SELECT count(*) FROM User WHERE age > 20";
    let update = "UPDATE User SET age = 50 WHERE uid = 2";

    let (_, before) = client.request("POST", "/v1/quote", &quote_req(probe));
    let direct_before = direct.quote(probe).expect("quote");
    assert_eq!(num(&before, "price").to_bits(), direct_before.to_bits());

    let update_body = quote_req(update);
    let (status, updated) = client.request("POST", "/v1/admin/update", &update_body);
    assert_eq!(status, 200, "{updated:?}");
    let direct_cells = direct.commit_update(update).expect("update");
    assert_eq!(num(&updated, "updated") as usize, direct_cells);

    let (_, after) = client.request("POST", "/v1/quote", &quote_req(probe));
    let direct_after = direct.quote(probe).expect("quote after");
    assert_eq!(
        num(&after, "price").to_bits(),
        direct_after.to_bits(),
        "post-update quotes must track the committed database"
    );
    server.shutdown();
}

#[test]
fn protocol_errors_map_to_the_documented_statuses() {
    let server = serve(PricingFunction::WeightedCoverage);
    let mut client = Client::connect(&server);

    // Unpriceable SQL: parse failure is 400 with a parse kind.
    let (status, doc) = client.request("POST", "/v1/quote", &quote_req("SELEKT nope"));
    assert_eq!(status, 400);
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("parse"));

    // Unknown table: plan failure, still 400.
    let (status, _) = client.request("POST", "/v1/quote", &quote_req("SELECT * FROM Missing"));
    assert_eq!(status, 400);

    // A FROM list past the executor's 64-relation limit: a plan failure
    // too, not a panicked connection thread.
    let from: Vec<String> = (0..65).map(|i| format!("User u{i}")).collect();
    let wide = format!("SELECT count(*) FROM {}", from.join(", "));
    let (status, doc) = client.request("POST", "/v1/quote", &quote_req(&wide));
    assert_eq!(status, 400);
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("plan"));
    let (status, _) = client.request("GET", "/v1/healthz", "");
    assert_eq!(status, 200);

    // Non-JSON body.
    let (status, doc) = client.request("POST", "/v1/quote", "not json");
    assert_eq!(status, 400);
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("body"));

    // Missing field.
    let (status, _) = client.request("POST", "/v1/quote", "{}");
    assert_eq!(status, 400);

    // Unknown route vs known route with the wrong method.
    let (status, _) = client.request("GET", "/v2/nope", "");
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/v1/quote", "");
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn inflight_cap_of_zero_rejects_every_request_with_backpressure() {
    let cfg = ServerConfig {
        max_inflight: 0,
        ..ServerConfig::default()
    };
    let server = PricingServer::start(
        broker(PricingFunction::WeightedCoverage),
        cfg,
        Telemetry::disabled(),
    )
    .expect("server boot");
    let mut client = Client::connect(&server);
    let (status, doc) = client.request("GET", "/v1/healthz", "");
    assert_eq!(status, 503);
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("backpressure"));
    // The connection survives backpressure: the next request still gets
    // answered (and still rejected) on the same socket.
    let (status, _) = client.request("GET", "/v1/healthz", "");
    assert_eq!(status, 503);
    server.shutdown();
}

#[test]
fn connection_cap_rejects_excess_sessions_at_accept() {
    let cfg = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = PricingServer::start(
        broker(PricingFunction::WeightedCoverage),
        cfg,
        Telemetry::disabled(),
    )
    .expect("server boot");

    // Saturate the cap with two live sessions (a served request proves
    // each connection's thread is up and counted).
    let mut first = Client::connect(&server);
    let mut second = Client::connect(&server);
    assert_eq!(first.request("GET", "/v1/healthz", "").0, 200);
    assert_eq!(second.request("GET", "/v1/healthz", "").0, 200);

    // The third session is refused at accept time, before any request.
    let mut third = Client::connect(&server);
    let (status, doc) = third.read_response();
    assert_eq!(status, 503);
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("backpressure"));
    server.shutdown();
}

/// The query pool of the concurrency test's request log.
const POOL: [&str; 5] = [
    "SELECT * FROM User",
    "SELECT count(*) FROM User WHERE gender = 'f'",
    "SELECT age FROM User WHERE uid = 3",
    "SELECT uid FROM User WHERE age > 18",
    "SELECT gender, count(*) FROM User GROUP BY gender",
];

/// Request `j` of session `s`: `(is_buy, sql)`. Every 4th request is a buy;
/// the pair alone fixes the query, so any replay issues the same log.
fn logged_request(s: usize, j: usize) -> (bool, &'static str) {
    (j % 4 == 3, POOL[(s * 31 + j * 7) % POOL.len()])
}

#[test]
fn concurrent_sessions_price_identically_to_a_sequential_broker() {
    const SESSIONS: usize = 8;
    const REQUESTS: usize = 8;
    for function in [
        PricingFunction::WeightedCoverage,
        PricingFunction::ShannonEntropy,
    ] {
        // Quotes share the read lock while buys, each under its session's
        // own buyer id, commit through the write lock between them. Every
        // session connects before any sends, so all of them overlap.
        let server = serve(function);
        let start = std::sync::Barrier::new(SESSIONS);
        let wire_prices: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|s| {
                    let (server, start) = (&server, &start);
                    scope.spawn(move || {
                        let mut client = Client::connect(server);
                        start.wait();
                        (0..REQUESTS)
                            .map(|j| {
                                let (buy, sql) = logged_request(s, j);
                                let (status, doc) = if buy {
                                    client.request(
                                        "POST",
                                        "/v1/buy",
                                        &buy_req(&format!("s{s}"), sql),
                                    )
                                } else {
                                    client.request("POST", "/v1/quote", &quote_req(sql))
                                };
                                assert_eq!(status, 200, "{function:?} s{s} request {j}: {doc:?}");
                                num(&doc, "price").to_bits()
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session"))
                .collect()
        });
        server.shutdown();

        // The same log, one session and one request at a time.
        let mut direct = broker(function);
        for (s, session) in wire_prices.iter().enumerate() {
            let replay: Vec<u64> = (0..REQUESTS)
                .map(|j| match logged_request(s, j) {
                    (true, sql) => direct.buy(&format!("s{s}"), sql).expect("direct buy").price,
                    (false, sql) => direct.quote(sql).expect("direct quote"),
                })
                .map(f64::to_bits)
                .collect();
            assert_eq!(
                session, &replay,
                "{function:?}: concurrent session s{s} drifted from the sequential replay"
            );
        }
    }
}

#[test]
fn http_helpers_round_trip_a_request() {
    // Frame a request with the server's writer conventions, read it back
    // with the server's reader: the two halves agree on the protocol.
    let raw = "POST /v1/buy HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
    let req = read_request(&mut BufReader::new(raw.as_bytes()))
        .expect("parse")
        .expect("one request");
    assert_eq!(
        (req.method.as_str(), req.path.as_str()),
        ("POST", "/v1/buy")
    );

    let mut out = Vec::new();
    write_response(&mut out, 404, "{}", false).expect("write");
    let text = String::from_utf8(out).expect("utf8");
    assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
    assert!(text.contains("Connection: close\r\n"));
}
