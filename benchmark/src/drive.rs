//! The timed phase.
//!
//! Service workloads are a closed loop: each of the [`CLIENTS`] keep-alive
//! connections sends its next request only when the previous response has
//! arrived, because a buyer cannot buy before it has seen the price.
//! Library workloads call the broker from one thread. Latency is measured
//! on the caller's side, request write to last response byte; only the
//! price is read during the run, and nothing is judged until it is over.

use std::borrow::Cow;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use qirana_core::Qirana;

use crate::http::{self, Conn};
use crate::plan::{buyer_name, Epochs, Op, Plan, Query, Shape, CLIENTS};

/// What one request returned. `value` holds the bits of the price (quote,
/// buy) or of `paid` (account read); `rows` the answer's row count (buy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub start_ns: u64,
    pub latency_ns: u64,
    pub ok: bool,
    pub value: u64,
    pub rows: u64,
}

/// A stretch of one lane's requests of equal planned work: a round, an
/// epoch, or [`SLICE`] requests. Equal work makes slice rates comparable,
/// so the median can be taken.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub requests: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's share of the run: the ops it executed, in order, and what
/// each returned.
#[derive(Debug, Default)]
pub struct Lane {
    pub ops: Vec<Op>,
    pub samples: Vec<Sample>,
    pub slices: Vec<Slice>,
    /// Where the open slice began: `(index of its first op, start)`.
    open: Option<(usize, u64)>,
}

/// Requests per slice of a client without epochs.
const SLICE: usize = 544;

impl Lane {
    /// A lane that has executed `ops` and nothing else yet (for replays).
    pub fn of(ops: Vec<Op>) -> Lane {
        Lane {
            ops,
            ..Default::default()
        }
    }

    fn push(&mut self, op: Op, sample: Sample) {
        self.ops.push(op);
        self.samples.push(sample);
    }

    fn open_slice(&mut self, now_ns: u64) {
        self.open = Some((self.ops.len(), now_ns));
    }

    fn close_slice(&mut self, now_ns: u64) {
        if let Some((from, start_ns)) = self.open.take() {
            if self.ops.len() > from && now_ns > start_ns {
                self.slices.push(Slice {
                    requests: self.ops.len() - from,
                    start_ns,
                    end_ns: now_ns,
                });
            }
        }
    }

    /// Requests per second of every slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.requests as f64 * 1e9 / (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Everything executed so far. The timed phase runs in segments with the
/// checker's replay in between, so one run samples a longer stretch of
/// wall-clock time than it measures: the sandbox's speed changes for
/// seconds at a time, and a run that measured one contiguous window would
/// report whichever speed that window happened to get.
#[derive(Debug)]
pub struct Executed {
    pub lanes: Vec<Lane>,
    /// Seller updates posted, in order: update `i` ran after both clients
    /// had finished `(i + 1) * epoch` requests.
    pub updates: Vec<Sample>,
    /// Seconds spent in timed segments.
    pub wall_s: f64,
}

impl Executed {
    pub fn new(lanes: usize) -> Self {
        Executed {
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            updates: Vec::new(),
            wall_s: 0.0,
        }
    }

    pub fn requests(&self) -> usize {
        self.lanes.iter().map(|l| l.ops.len()).sum::<usize>() + self.updates.len()
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The client side of a service run: one keep-alive connection per lane,
/// kept across segments, and request bodies rendered once, so a client
/// spends its time waiting for the server and not formatting JSON.
pub struct Clients {
    conns: Vec<Conn>,
    quote_bodies: Vec<String>,
}

impl Clients {
    pub fn open(addr: SocketAddr, plan: &Plan) -> std::io::Result<Clients> {
        Ok(Clients {
            conns: (0..CLIENTS)
                .map(|_| Conn::open(addr))
                .collect::<Result<_, _>>()?,
            quote_bodies: plan.pool.iter().map(|q| http::quote_body(&q.sql)).collect(),
        })
    }
}

fn issue(conn: &mut Conn, bodies: &[String], pool: &[Query], op: Op, epoch0: Instant) -> Sample {
    let (method, path, body, key): (_, Cow<'_, str>, Cow<'_, str>, _) = match op {
        Op::Quote { q } => (
            "POST",
            "/v1/quote".into(),
            bodies[q as usize].as_str().into(),
            "price",
        ),
        Op::Buy { buyer, q } => (
            "POST",
            "/v1/buy".into(),
            http::buy_body(&buyer_name(buyer), &pool[q as usize].sql).into(),
            "price",
        ),
        Op::Account { buyer } => (
            "GET",
            format!("/v1/account/{}", buyer_name(buyer)).into(),
            "".into(),
            "paid",
        ),
    };
    let start_ns = elapsed_ns(epoch0);
    let t0 = Instant::now();
    let status = conn.call(method, &path, &body);
    let latency_ns = elapsed_ns(t0);
    let value = http::number_field(&conn.body, key);
    let rows = match op {
        Op::Buy { .. } => http::number_field(&conn.body, "row_count"),
        _ => Some(0.0),
    };
    Sample {
        start_ns,
        latency_ns,
        ok: matches!(status, Ok(200)) && value.is_some() && rows.is_some(),
        value: value.unwrap_or(f64::NAN).to_bits(),
        rows: rows.unwrap_or(0.0) as u64,
    }
}

fn post_update(conn: &mut Conn, sql: &str, epoch0: Instant) -> Sample {
    let start_ns = elapsed_ns(epoch0);
    let t0 = Instant::now();
    let status = conn.post("/v1/admin/update", &http::quote_body(sql));
    let latency_ns = elapsed_ns(t0);
    let changed = http::number_field(&conn.body, "updated").unwrap_or(0.0);
    Sample {
        start_ns,
        latency_ns,
        ok: matches!(status, Ok(200)) && changed >= 1.0,
        value: 0,
        rows: changed as u64,
    }
}

/// One segment of a service run: every client resumes its list where it
/// stopped. Without epochs each client stops on its own at the deadline;
/// with epochs both stop at the same barrier, so the checker can replay
/// the run exactly.
pub fn service_segment(
    clients: &mut Clients,
    plan: &Plan,
    run: &mut Executed,
    seconds: f64,
    epoch0: Instant,
) {
    let Shape::Service {
        clients: lists,
        epoch,
    } = &plan.shape
    else {
        unreachable!("service workloads have service plans");
    };
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut updates = Some(&mut run.updates);
    let bodies = &clients.quote_bodies;
    std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .zip(clients.conns.iter_mut())
            .zip(run.lanes.iter_mut())
            .map(|((ops, conn), lane)| {
                // Lane 0 leads: it alone posts the seller's updates.
                let updates = updates.take();
                let (barrier, stop, pool) = (&barrier, &stop, &plan.pool);
                scope.spawn(move || match epoch {
                    None => {
                        for (i, &op) in ops.iter().enumerate().skip(lane.ops.len()) {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            if i % SLICE == 0 || lane.open.is_none() {
                                let now_ns = elapsed_ns(epoch0);
                                lane.close_slice(now_ns);
                                lane.open_slice(now_ns);
                            }
                            lane.push(op, issue(conn, bodies, pool, op, epoch0));
                        }
                        lane.close_slice(elapsed_ns(epoch0));
                    }
                    Some(epochs) => epoch_segment(
                        conn, bodies, pool, ops, epochs, lane, updates, barrier, stop, deadline,
                        epoch0,
                    ),
                })
            })
            .collect();
        for handle in handles {
            handle
                .join()
                .unwrap_or_else(|_| panic!("client thread panicked"));
        }
    });
    run.wall_s += t0.elapsed().as_secs_f64();
}

/// Epochs of `epochs.len` requests. Before every epoch but the very first
/// the leader posts the seller update that follows the previous epoch,
/// while the other client waits; after every epoch both meet, the leader
/// decides whether the segment is over, and both act on it.
#[allow(clippy::too_many_arguments)]
fn epoch_segment(
    conn: &mut Conn,
    bodies: &[String],
    pool: &[Query],
    ops: &[Op],
    epochs: &Epochs,
    lane: &mut Lane,
    mut updates: Option<&mut Vec<Sample>>,
    barrier: &Barrier,
    stop: &AtomicBool,
    deadline: Instant,
    epoch0: Instant,
) {
    let done = lane.ops.len() / epochs.len;
    for (e, chunk) in ops.chunks_exact(epochs.len).enumerate().skip(done) {
        lane.open_slice(elapsed_ns(epoch0));
        if e > 0 {
            if let (Some(posted), Some(sql)) = (updates.as_deref_mut(), epochs.updates.get(e - 1)) {
                posted.push(post_update(conn, sql, epoch0));
            }
            barrier.wait();
        }
        for &op in chunk {
            lane.push(op, issue(conn, bodies, pool, op, epoch0));
        }
        barrier.wait();
        if updates.is_some() && Instant::now() >= deadline {
            stop.store(true, Ordering::SeqCst);
        }
        // The second wait orders the leader's store before every load.
        barrier.wait();
        lane.close_slice(elapsed_ns(epoch0));
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

fn call(brokers: &mut [Qirana], pool: &[Query], op: Op, epoch0: Instant) -> Sample {
    let start_ns = elapsed_ns(epoch0);
    let t0 = Instant::now();
    let out = match op {
        Op::Quote { q } => {
            let query = &pool[q as usize];
            brokers[query.market].quote(&query.sql).map(|p| (p, 0))
        }
        Op::Buy { buyer, q } => {
            let query = &pool[q as usize];
            brokers[query.market]
                .buy(&buyer_name(buyer), &query.sql)
                .map(|p| (p.price, p.output.rows.len() as u64))
        }
        Op::Account { .. } => unreachable!("library plans hold no account reads"),
    };
    let latency_ns = elapsed_ns(t0);
    let (price, rows) = *out.as_ref().unwrap_or(&(f64::NAN, 0));
    Sample {
        start_ns,
        latency_ns,
        ok: out.is_ok(),
        value: std::hint::black_box(price).to_bits(),
        rows,
    }
}

/// Segment `index` of a library run: whole rounds, at least one, while the
/// next is expected to fit in `seconds`; then the segment's finale.
pub fn library_segment(
    brokers: &mut [Qirana],
    plan: &Plan,
    run: &mut Executed,
    index: usize,
    seconds: f64,
    epoch0: Instant,
) {
    let Shape::Library { segments } = &plan.shape else {
        unreachable!("library workloads have library plans");
    };
    let segment = &segments[index];
    let t0 = Instant::now();
    for (done, round) in segment.rounds.iter().enumerate() {
        let elapsed = t0.elapsed().as_secs_f64();
        if done > 0 && elapsed + elapsed / done as f64 > seconds {
            break;
        }
        run_round(brokers, plan, &mut run.lanes[0], round, epoch0);
    }
    run_round(brokers, plan, &mut run.lanes[0], &segment.finale, epoch0);
    run.wall_s += t0.elapsed().as_secs_f64();
}

fn run_round(brokers: &mut [Qirana], plan: &Plan, lane: &mut Lane, round: &[Op], epoch0: Instant) {
    lane.open_slice(elapsed_ns(epoch0));
    for &op in round {
        lane.push(op, call(brokers, &plan.pool, op, epoch0));
    }
    lane.close_slice(elapsed_ns(epoch0));
}
