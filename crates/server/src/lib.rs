//! # qirana-server
//!
//! A multi-tenant HTTP/JSON pricing service in front of the QIRANA
//! broker.
//!
//! ## The read/commit split
//!
//! The broker's read path is `&self` (peek-only pricing-cache probes,
//! sweeps that only read the stored database), so the service wraps one
//! [`Qirana`] in an [`RwLock`] and runs every quote — and the sweep half
//! of every buy — under the *read* lock: any number of buyer sessions
//! price concurrently without serializing on each other. State changes —
//! the charge half of a purchase and seller-side updates — go through
//! [`commit`], which takes the *write* lock and preserves the broker's
//! append-then-apply WAL discipline as one atomic step. A quote therefore
//! observes the market either entirely before or entirely after any
//! commit, and prices are bitwise independent of how concurrent sessions
//! interleave.
//!
//! ## Backpressure
//!
//! Two caps guard the single broker: a connection cap (excess TCP
//! accepts get an immediate 503 and a close) and an in-flight request
//! cap (accepted connections whose request would oversubscribe the
//! broker get a 503 with `"kind":"backpressure"` and keep their
//! connection). Budget trips inside the engine
//! ([`EngineError::BudgetExceeded`]) surface as 503 too: the request was
//! well-formed, the service is just out of the resources the seller
//! provisioned.
//!
//! ## API
//!
//! | Route | Body | Returns |
//! |---|---|---|
//! | `POST /v1/quote` | `{"sql"}` | `{"price","degraded"}` |
//! | `POST /v1/bundle-quote` | `{"sqls":[…]}` | `{"price","degraded"}` |
//! | `POST /v1/buy` | `{"buyer","sql"}` | price, totals, and the answer |
//! | `POST /v1/admin/update` | `{"sql"}` | `{"updated"}` |
//! | `GET /v1/account/<buyer>` | — | `{"paid","coverage","purchases"}` |
//! | `GET /v1/history/<buyer>` | — | `{"queries":[…]}` |
//! | `GET /v1/healthz` | — | `{"ok","degraded"}` |
//! | `GET /v1/stats` | — | counters + cache stats |
//!
//! Errors are `{"error": <message>, "kind": <slug>}` with 400 for
//! malformed requests and unpriceable SQL, 404 for unknown routes and
//! buyers, 503 for backpressure/budget/ledger trouble, 500 for broken
//! invariants.
//!
//! Bodies are read and written with `qirana_bench::json`: the frozen
//! `benchmark/Cargo.lock` records this crate's dependency on
//! `qirana-bench`, so the JSON module stays where it is.

pub mod commit;
pub mod http;

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::thread::{self, JoinHandle};

use qirana_bench::json::{self, Json};
use qirana_core::{BrokerError, Purchase, Qirana, Stage, Telemetry};
use qirana_sqlengine::EngineError;

use http::Request;

/// Service limits. Both caps defend the one shared broker, not the OS.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent TCP connections (buyer sessions). Accepts beyond this
    /// are answered 503 and closed without spawning a thread.
    pub max_connections: usize,
    /// Concurrent requests actually executing against the broker.
    /// Requests beyond this are answered 503 (`"kind":"backpressure"`)
    /// but keep their connection: the session retries, it does not
    /// re-handshake.
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 2048,
            max_inflight: 256,
        }
    }
}

/// Everything the accept loop and connection threads share.
struct Shared {
    broker: RwLock<Qirana>,
    cfg: ServerConfig,
    tel: Telemetry,
    connections: AtomicUsize,
    inflight: AtomicUsize,
    requests_total: AtomicU64,
    rejected_total: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn read_broker(&self) -> RwLockReadGuard<'_, Qirana> {
        self.broker.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running pricing service bound to a loopback port.
pub struct PricingServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl PricingServer {
    /// Boots the service on `127.0.0.1:0` (kernel-assigned port) and
    /// returns once the listener is live.
    pub fn start(broker: Qirana, cfg: ServerConfig, tel: Telemetry) -> io::Result<PricingServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            broker: RwLock::new(broker),
            cfg,
            tel,
            connections: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            requests_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let loop_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("qirana-accept".into())
            .spawn(move || accept_loop(&listener, &loop_shared))?;
        Ok(PricingServer {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    /// Connection threads drain as their clients hang up.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; poke it awake so it can
        // observe the flag. A failed connect means it is already gone.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for PricingServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        if shared.connections.load(Ordering::Acquire) >= shared.cfg.max_connections {
            shared.rejected_total.fetch_add(1, Ordering::Relaxed);
            let body = error_body("connection limit reached; retry later", "backpressure");
            let _ = http::write_response(&mut stream, 503, &body, false);
            continue;
        }
        shared.connections.fetch_add(1, Ordering::AcqRel);
        let conn_shared = Arc::clone(shared);
        // Sessions are thread-per-connection with small stacks: request
        // handling recurses nowhere, so 128 KiB keeps a thousand idle
        // keep-alive sessions cheap.
        let spawned = thread::Builder::new()
            .name("qirana-conn".into())
            .stack_size(128 * 1024)
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                conn_shared.connections.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            shared.connections.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Serves one keep-alive session until the client hangs up, sends
/// `Connection: close`, or breaks the protocol.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(http::HttpError::Malformed(why)) => {
                let _ = http::write_response(&mut stream, 400, &error_body(why, "http"), false);
                return;
            }
            Err(http::HttpError::Io(_)) => return,
        };
        let keep_alive = req.keep_alive;
        let (status, body) = respond(shared, &req);
        if http::write_response(&mut stream, status, &body, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Decrements the in-flight gauge on every exit path.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Admission control + telemetry around one routed request.
fn respond(shared: &Shared, req: &Request) -> (u16, String) {
    shared.requests_total.fetch_add(1, Ordering::Relaxed);
    let inflight = shared.inflight.fetch_add(1, Ordering::AcqRel) + 1;
    let _guard = InflightGuard(&shared.inflight);
    if inflight > shared.cfg.max_inflight {
        shared.rejected_total.fetch_add(1, Ordering::Relaxed);
        return (
            503,
            error_body("server is at capacity; retry", "backpressure"),
        );
    }
    let route = format!("{} {}", req.method, req.path);
    let t0 = shared.tel.now_ns();
    let out = {
        let _span = shared.tel.span_with(Stage::ServerRequest, route);
        route_request(shared, req)
    };
    if let (Some(t0), Some(t1)) = (t0, shared.tel.now_ns()) {
        shared
            .tel
            .observe("server_request_ns", t1.saturating_sub(t0));
    }
    out
}

fn route_request(shared: &Shared, req: &Request) -> (u16, String) {
    let (method, path) = (req.method.as_str(), req.path.as_str());
    match (method, path) {
        ("POST", "/v1/quote") => post_quote(shared, &req.body),
        ("POST", "/v1/bundle-quote") => post_bundle_quote(shared, &req.body),
        ("POST", "/v1/buy") => post_buy(shared, &req.body),
        ("POST", "/v1/admin/update") => post_update(shared, &req.body),
        ("GET", "/v1/healthz") => get_healthz(shared),
        ("GET", "/v1/stats") => get_stats(shared),
        ("GET", _) if path.starts_with("/v1/account/") => {
            get_account(shared, &path["/v1/account/".len()..])
        }
        ("GET", _) if path.starts_with("/v1/history/") => {
            get_history(shared, &path["/v1/history/".len()..])
        }
        _ if known_path(path) => (405, error_body("method not allowed for route", "method")),
        _ => (404, error_body("no such route", "route")),
    }
}

/// True for routes that exist under *some* method (drives 405 vs 404).
fn known_path(path: &str) -> bool {
    matches!(
        path,
        "/v1/quote"
            | "/v1/bundle-quote"
            | "/v1/buy"
            | "/v1/admin/update"
            | "/v1/healthz"
            | "/v1/stats"
    ) || path.starts_with("/v1/account/")
        || path.starts_with("/v1/history/")
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

fn post_quote(shared: &Shared, body: &str) -> (u16, String) {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(out) => return out,
    };
    let sql = match str_field(&doc, "sql") {
        Ok(sql) => sql,
        Err(out) => return out,
    };
    let broker = shared.read_broker();
    price_response(broker.quote(sql), broker.is_degraded())
}

fn post_bundle_quote(shared: &Shared, body: &str) -> (u16, String) {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(out) => return out,
    };
    let Some(items) = doc.get("sqls").and_then(Json::as_arr) else {
        return (400, error_body("body needs an array field `sqls`", "body"));
    };
    let mut sqls = Vec::with_capacity(items.len());
    for item in items {
        match item.as_str() {
            Some(sql) => sqls.push(sql),
            None => return (400, error_body("`sqls` must contain only strings", "body")),
        }
    }
    let broker = shared.read_broker();
    price_response(broker.quote_bundle(&sqls), broker.is_degraded())
}

/// The `{"price","degraded"}` body of both quote endpoints.
fn price_response(price: Result<f64, BrokerError>, degraded: bool) -> (u16, String) {
    match price {
        Ok(price) => (
            200,
            render_obj(vec![
                ("price", Json::Num(price)),
                ("degraded", Json::Bool(degraded)),
            ]),
        ),
        Err(e) => error_response(&e),
    }
}

fn post_buy(shared: &Shared, body: &str) -> (u16, String) {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(out) => return out,
    };
    let (buyer, sql) = match (str_field(&doc, "buyer"), str_field(&doc, "sql")) {
        (Ok(buyer), Ok(sql)) => (buyer, sql),
        (Err(out), _) | (_, Err(out)) => return out,
    };
    match commit::commit_buy(&shared.broker, buyer, sql) {
        Ok(p) => (200, purchase_body(&p)),
        Err(e) => error_response(&e),
    }
}

fn purchase_body(p: &Purchase) -> String {
    let columns = p
        .output
        .columns
        .iter()
        .map(|c| Json::Str(c.clone()))
        .collect();
    // Cell values are rendered through the engine's canonical `Display`
    // (the same text the agreement checks hash), as strings: the JSON
    // layer must not re-quantize an i64 key through f64.
    let rows = p
        .output
        .rows
        .iter()
        .map(|row| Json::Arr(row.iter().map(|v| Json::Str(v.to_string())).collect()))
        .collect::<Vec<_>>();
    render_obj(vec![
        ("price", Json::Num(p.price)),
        ("total_paid", Json::Num(p.total_paid)),
        ("degraded", Json::Bool(p.degraded)),
        ("row_count", count(p.output.rows.len() as u64)),
        ("columns", Json::Arr(columns)),
        ("rows", Json::Arr(rows)),
    ])
}

fn post_update(shared: &Shared, body: &str) -> (u16, String) {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(out) => return out,
    };
    let sql = match str_field(&doc, "sql") {
        Ok(sql) => sql,
        Err(out) => return out,
    };
    match commit::commit_update(&shared.broker, sql) {
        Ok(cells) => (200, render_obj(vec![("updated", count(cells as u64))])),
        Err(e) => error_response(&e),
    }
}

fn get_account(shared: &Shared, buyer: &str) -> (u16, String) {
    let broker = shared.read_broker();
    let Some(paid) = broker.buyer_paid(buyer) else {
        return (404, error_body("unknown buyer", "buyer"));
    };
    let coverage = broker.buyer_coverage(buyer).map_or(Json::Null, Json::Num);
    let purchases = broker.buyer_history(buyer).map_or(0, |h| h.len());
    (
        200,
        render_obj(vec![
            ("buyer", Json::Str(buyer.to_string())),
            ("paid", Json::Num(paid)),
            ("coverage", coverage),
            ("purchases", count(purchases as u64)),
        ]),
    )
}

fn get_history(shared: &Shared, buyer: &str) -> (u16, String) {
    let Some(history) = shared.read_broker().buyer_history(buyer) else {
        return (404, error_body("unknown buyer", "buyer"));
    };
    let queries = history.into_iter().map(Json::Str).collect();
    (
        200,
        render_obj(vec![
            ("buyer", Json::Str(buyer.to_string())),
            ("queries", Json::Arr(queries)),
        ]),
    )
}

fn get_healthz(shared: &Shared) -> (u16, String) {
    let degraded = shared.read_broker().is_degraded();
    (
        200,
        render_obj(vec![
            ("ok", Json::Bool(true)),
            ("degraded", Json::Bool(degraded)),
        ]),
    )
}

fn get_stats(shared: &Shared) -> (u16, String) {
    let (stats, entries, generation) = {
        let broker = shared.read_broker();
        (
            broker.cache_stats(),
            broker.cache_len(),
            broker.cache_generation(),
        )
    };
    let cache = Json::Obj(vec![
        ("hits".to_string(), count(stats.hits)),
        ("misses".to_string(), count(stats.misses)),
        ("evictions".to_string(), count(stats.evictions)),
        ("invalidations".to_string(), count(stats.invalidations)),
        ("entries".to_string(), count(entries as u64)),
        ("generation".to_string(), count(generation)),
    ]);
    (
        200,
        render_obj(vec![
            (
                "requests_total",
                count(shared.requests_total.load(Ordering::Relaxed)),
            ),
            (
                "rejected_total",
                count(shared.rejected_total.load(Ordering::Relaxed)),
            ),
            (
                "inflight",
                count(shared.inflight.load(Ordering::Acquire) as u64),
            ),
            (
                "connections",
                count(shared.connections.load(Ordering::Acquire) as u64),
            ),
            ("cache", cache),
        ]),
    )
}

// ---------------------------------------------------------------------------
// JSON plumbing
// ---------------------------------------------------------------------------

fn parse_body(body: &str) -> Result<Json, (u16, String)> {
    json::parse(body).map_err(|e| (400, error_body(&format!("invalid JSON body: {e}"), "body")))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, (u16, String)> {
    doc.get(key).and_then(Json::as_str).ok_or_else(|| {
        (
            400,
            error_body(&format!("body needs a string field `{key}`"), "body"),
        )
    })
}

fn render_obj(fields: Vec<(&str, Json)>) -> String {
    json::render(&Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    ))
}

/// Counter → JSON number.
fn count(n: u64) -> Json {
    // qirana-lint::allow(QL002): counters stay exact below 2^53
    Json::Num(n as f64)
}

fn error_body(message: &str, kind: &str) -> String {
    render_obj(vec![
        ("error", Json::Str(message.to_string())),
        ("kind", Json::Str(kind.to_string())),
    ])
}

/// Maps a broker failure onto an HTTP status + error document.
///
/// 400 means "your request can never succeed as written" (unparseable,
/// unplannable, or unevaluable SQL); 503 means "the service is out of
/// resources or durability, retry later"; 500 means a broken internal
/// invariant.
fn error_response(e: &BrokerError) -> (u16, String) {
    let (status, kind) = match e {
        BrokerError::Engine(engine) => match engine {
            EngineError::Parse { .. } => (400, "parse"),
            EngineError::Plan(_) => (400, "plan"),
            EngineError::Eval(_) => (400, "eval"),
            EngineError::Schema(_) => (400, "schema"),
            EngineError::BudgetExceeded { .. } => (503, "budget"),
            EngineError::Internal(_) => (500, "internal"),
        },
        BrokerError::Ledger(_) => (503, "ledger"),
        BrokerError::Weights(_) => (500, "weights"),
        BrokerError::Support(_) => (500, "support"),
        BrokerError::Pricing(_) => (500, "pricing"),
        BrokerError::BitmapLength { .. } => (500, "bitmap"),
        BrokerError::Injected(_) => (500, "injected"),
    };
    (status, error_body(&e.to_string(), kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_and_parse_map_to_distinct_statuses() {
        let budget = BrokerError::Engine(EngineError::BudgetExceeded {
            resource: qirana_sqlengine::BudgetResource::Rows,
            limit: 10,
        });
        let parse = BrokerError::Engine(EngineError::Parse {
            offset: 0,
            message: "x".into(),
        });
        assert_eq!(error_response(&budget).0, 503);
        assert_eq!(error_response(&parse).0, 400);
        assert!(error_response(&budget).1.contains("\"kind\":\"budget\""));
    }

    #[test]
    fn known_paths_drive_405_not_404() {
        assert!(known_path("/v1/quote"));
        assert!(known_path("/v1/account/alice"));
        assert!(!known_path("/v2/quote"));
    }
}
