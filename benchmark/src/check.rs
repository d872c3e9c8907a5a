//! Output checks. None of them pins the implementation: there is no file
//! of golden prices. The oracle is the program itself, run the slow and
//! simple way — an independently built broker replaying the executed
//! requests one at a time — plus properties every arbitrage-free price
//! must have (Deep & Koutris, *The Design of Arbitrage-Free Data Pricing
//! Schemes*): prices lie in `[0, total]`, a bundle costs at least as much
//! as each of its members, and a buyer's account equals what it was
//! charged.

use std::collections::BTreeMap;
use std::time::Instant;

use qirana_core::Qirana;

use crate::drive::{Executed, Lane, Sample};
use crate::plan::{buyer_name, Epochs, Op, Plan, Shape};
use crate::workloads::{reference_broker, Spec, TOTAL_PRICE};

/// Slack for sums that the broker may legitimately compute in another
/// order than the checker (entropy accounts are anchored, not summed).
const SUM_TOLERANCE: f64 = 1e-9 * TOTAL_PRICE;

/// Failed checks, counted against the number attempted; the first few are
/// kept as text for the report.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Direct-call latencies of a replay, by kind (trace mode reads them).
#[derive(Debug, Default)]
pub struct Direct {
    pub quote_ns: Vec<u64>,
    pub buy_ns: Vec<u64>,
}

fn epochs_of(plan: &Plan) -> Option<&Epochs> {
    match &plan.shape {
        Shape::Service { epoch, .. } => epoch.as_ref(),
        Shape::Library { .. } => None,
    }
}

/// Replays `lane.ops[from..]` on `brokers` and returns what each op should
/// have returned. Seller update `i` is applied after `(i + 1) * epoch` ops,
/// as in the run; `updates_done` of them have been posted so far.
pub fn replay_lane(
    brokers: &mut [Qirana],
    plan: &Plan,
    lane: &Lane,
    from: usize,
    updates_done: usize,
    direct: &mut Direct,
) -> Vec<(u64, u64)> {
    let epochs = epochs_of(plan);
    let mut expected = Vec::with_capacity(lane.ops.len() - from);
    for (i, &op) in lane.ops.iter().enumerate().skip(from) {
        if let Some(e) = epochs {
            if i > 0 && i % e.len == 0 && i / e.len <= updates_done {
                let sql = &e.updates[i / e.len - 1];
                if let Err(err) = brokers[0].commit_update(sql) {
                    panic!("replaying update {sql:?}: {err}");
                }
            }
        }
        let t0 = Instant::now();
        let out = match op {
            Op::Quote { q } => {
                let query = &plan.pool[q as usize];
                let price = brokers[query.market].quote(&query.sql);
                direct.quote_ns.push(t0.elapsed().as_nanos() as u64);
                price.map(|p| (p.to_bits(), 0))
            }
            Op::Buy { buyer, q } => {
                let query = &plan.pool[q as usize];
                let bought = brokers[query.market].buy(&buyer_name(buyer), &query.sql);
                direct.buy_ns.push(t0.elapsed().as_nanos() as u64);
                bought.map(|p| (p.price.to_bits(), p.output.rows.len() as u64))
            }
            Op::Account { buyer } => Ok((
                brokers[0]
                    .buyer_paid(&buyer_name(buyer))
                    .unwrap_or(f64::NAN)
                    .to_bits(),
                0,
            )),
        };
        expected.push(out.unwrap_or((f64::NAN.to_bits(), u64::MAX)));
    }
    expected
}

/// What the checker knows after replaying a run.
pub struct Replayed {
    /// Final `paid` per buyer, from the reference brokers.
    pub paid: BTreeMap<u32, u64>,
    pub direct: Direct,
}

/// One lane's reference brokers, what they said each op should return,
/// and how long the direct calls took.
#[derive(Default)]
struct LaneReplay {
    brokers: Vec<Qirana>,
    expected: Vec<(u64, u64)>,
    direct: Direct,
}

/// The sequential oracle: every lane is replayed on its own independently
/// built reference broker(s), lanes in parallel (they share no buyer, and
/// a price never depends on another buyer's account). It follows the run
/// segment by segment and judges at the end.
pub struct Replayer {
    lanes: Vec<LaneReplay>,
}

impl Replayer {
    pub fn new(lanes: usize) -> Self {
        Replayer {
            lanes: (0..lanes).map(|_| LaneReplay::default()).collect(),
        }
    }

    /// Replays whatever `run` has executed since the last call. The
    /// reference brokers are built on the first.
    pub fn advance(&mut self, spec: &Spec, plan: &Plan, run: &Executed) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .zip(&run.lanes)
                .map(|(replay, lane)| {
                    scope.spawn(move || {
                        if replay.brokers.is_empty() {
                            replay.brokers = (0..spec.markets.len())
                                .map(|m| reference_broker(spec, m, plan, None))
                                .collect();
                        }
                        let more = replay_lane(
                            &mut replay.brokers,
                            plan,
                            lane,
                            replay.expected.len(),
                            run.updates.len(),
                            &mut replay.direct,
                        );
                        replay.expected.extend(more);
                    })
                })
                .collect();
            for handle in handles {
                handle
                    .join()
                    .unwrap_or_else(|_| panic!("replay thread panicked"));
            }
        });
    }

    /// Compares every sample of the run with the replay, bitwise.
    pub fn judge(self, plan: &Plan, run: &Executed, verdict: &mut Verdict) -> Replayed {
        let mut replayed = Replayed {
            paid: BTreeMap::new(),
            direct: Direct::default(),
        };
        for (c, (lane, replay)) in run.lanes.iter().zip(self.lanes).enumerate() {
            verdict.check(replay.expected.len() == lane.ops.len(), || {
                format!(
                    "lane {c}: {} of {} requests replayed",
                    replay.expected.len(),
                    lane.ops.len()
                )
            });
            for (i, ((op, s), (value, rows))) in lane
                .ops
                .iter()
                .zip(&lane.samples)
                .zip(replay.expected)
                .enumerate()
            {
                let in_range = matches!(op, Op::Account { .. })
                    || (0.0..=TOTAL_PRICE).contains(&f64::from_bits(s.value));
                verdict.check(
                    s.ok && in_range && s.value == value && s.rows == rows,
                    || {
                        format!(
                            "lane {c} request {i} {op:?} ({}): got ok={} value={:e} rows={}, \
                             replay says value={:e} rows={}",
                            label_of(plan, *op),
                            s.ok,
                            f64::from_bits(s.value),
                            s.rows,
                            f64::from_bits(value),
                            rows
                        )
                    },
                );
            }
            for op in &lane.ops {
                if let Op::Buy { buyer, q } = *op {
                    let market = plan.pool[q as usize].market;
                    let paid = replay.brokers[market].buyer_paid(&buyer_name(buyer));
                    replayed
                        .paid
                        .insert(buyer, paid.unwrap_or(f64::NAN).to_bits());
                }
            }
            replayed.direct.quote_ns.extend(replay.direct.quote_ns);
            replayed.direct.buy_ns.extend(replay.direct.buy_ns);
        }
        for (i, u) in run.updates.iter().enumerate() {
            verdict.check(u.ok, || {
                format!("seller update {i} failed or changed no cell")
            });
        }
        replayed
    }
}

fn label_of(plan: &Plan, op: Op) -> &str {
    match op {
        Op::Quote { q } | Op::Buy { q, .. } => &plan.pool[q as usize].label,
        Op::Account { .. } => "account",
    }
}

/// Σ of the buy prices each buyer was charged in the run, in order.
pub fn charged(run: &Executed) -> BTreeMap<u32, f64> {
    let mut sums = BTreeMap::new();
    for lane in &run.lanes {
        for (op, s) in lane.ops.iter().zip(&lane.samples) {
            if let Op::Buy { buyer, .. } = *op {
                *sums.entry(buyer).or_insert(0.0) += f64::from_bits(s.value);
            }
        }
    }
    sums
}

/// Accounts: what the system under test says each buyer paid must equal
/// the sum of that buyer's prices, and the reference broker's account
/// bitwise. `paid_of` reads the system under test.
pub fn check_accounts(
    run: &Executed,
    replayed: &Replayed,
    mut paid_of: impl FnMut(u32) -> Option<f64>,
    verdict: &mut Verdict,
) {
    for (buyer, sum) in charged(run) {
        let paid = paid_of(buyer);
        let reference = replayed.paid.get(&buyer).copied();
        verdict.check(
            paid.is_some_and(|p| (p - sum).abs() <= SUM_TOLERANCE)
                && paid.map(f64::to_bits) == reference,
            || {
                format!(
                    "buyer {}: account says {paid:?}, charged {sum:e}, reference {:?}",
                    buyer_name(buyer),
                    reference.map(f64::from_bits)
                )
            },
        );
    }
}

/// A seeded three-query bundle from each distinct market must cost at
/// least as much as each member. `price` prices a bundle (of one: a plain
/// quote) on the system under test.
pub fn check_bundles(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    mut price: impl FnMut(usize, &[&str]) -> Option<f64>,
    verdict: &mut Verdict,
) {
    for market in 0..spec.distinct_markets {
        let members: Vec<&str> = plan
            .pool
            .iter()
            .filter(|q| q.market == market)
            .map(|q| q.sql.as_str())
            .collect();
        // Three distinct members picked by the seed (pools hold ≥ 8).
        let n = members.len();
        let first = (seed as usize).wrapping_mul(7) % n;
        let picked = [
            members[first],
            members[(first + 1) % n],
            members[(first + 3) % n],
        ];
        let whole = price(market, &picked);
        for sql in picked {
            let alone = price(market, &[sql]);
            verdict.check(
                matches!((whole, alone), (Some(w), Some(a))
                    if (0.0..=TOTAL_PRICE).contains(&w) && w >= a - SUM_TOLERANCE),
                || format!("bundle {whole:?} is cheaper than its member {alone:?} ({sql})"),
            );
        }
    }
}

/// Seller price points: each must cost what the seller said, within the
/// weight solver's tolerance.
pub fn check_price_points(
    spec: &Spec,
    mut price: impl FnMut(usize, &[&str]) -> Option<f64>,
    verdict: &mut Verdict,
) {
    for (m, market) in spec.markets.iter().enumerate() {
        for point in market.price_points() {
            let got = price(m, &[&point.sql]);
            verdict.check(
                got.is_some_and(|p| (p - point.price).abs() <= 1e-3 * TOTAL_PRICE),
                || {
                    format!(
                        "price point {} should cost {}, costs {got:?}",
                        point.sql, point.price
                    )
                },
            );
        }
    }
}

/// After recovery from the flushed bytes, every account has the bits it
/// had while the service was up, and no account appeared or vanished.
pub fn check_recovered(recovered: &Qirana, observed: &BTreeMap<u32, u64>, verdict: &mut Verdict) {
    for (&buyer, &bits) in observed {
        let paid = recovered.buyer_paid(&buyer_name(buyer));
        verdict.check(paid.map(f64::to_bits) == Some(bits), || {
            format!(
                "buyer {} recovered as {paid:?}, had paid {:e}",
                buyer_name(buyer),
                f64::from_bits(bits)
            )
        });
    }
    let known = recovered
        .buyer_names()
        .iter()
        .filter(|n| !crate::workloads::is_warmup_buyer(n))
        .count();
    verdict.check(known == observed.len(), || {
        format!("{known} accounts recovered, {} had bought", observed.len())
    });
}

/// Samples of one kind, for the latency metrics.
pub fn latencies(run: &Executed, want: fn(&Op) -> bool) -> Vec<u64> {
    let mut out: Vec<u64> = run
        .lanes
        .iter()
        .flat_map(|l| l.ops.iter().zip(&l.samples))
        .filter(|(op, _)| want(op))
        .map(|(_, s): (_, &Sample)| s.latency_ns)
        .collect();
    out.sort_unstable();
    out
}
