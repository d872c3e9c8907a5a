//! Request lists, made from `--seed` and nothing else.
//!
//! The program under test sees only what is generated here: SQL text,
//! buyer names and HTTP requests. Lists are far longer than any run
//! consumes; a run stops at its deadline, and the checker replays exactly
//! the prefix that was executed. Datasets are fixed (their generator seeds
//! are constants in `workloads.rs`): the seed varies the traffic, not the
//! data, so two seeds measure the same market.

use std::collections::HashMap;

use qirana_datagen::queries::{ssb_q11_instance, ssb_queries, tpch_queries, WORLD_QUERIES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Closed-loop client connections of a service workload. The sandbox has
/// two cores: two clients and the server's two connection threads are
/// all that can run.
pub const CLIENTS: usize = 2;

/// One distinct query of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Which of the workload's markets prices it.
    pub market: usize,
    /// Short name for tables (`Q1.1`, `w07`, `q11#3`).
    pub label: String,
    pub sql: String,
}

/// One request; `q` indexes [`Plan::pool`], buyers are numbered and named
/// by [`buyer_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Quote {
        q: u32,
    },
    Buy {
        buyer: u32,
        q: u32,
    },
    /// `GET /v1/account/<buyer>`; only issued for a buyer that has bought.
    Account {
        buyer: u32,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// One list per client connection. With `epoch`, both clients meet at
    /// a barrier every `len` requests and client 0 posts `updates[i]`
    /// before either continues, which keeps the run replayable.
    Service {
        clients: Vec<Vec<Op>>,
        epoch: Option<Epochs>,
    },
    /// Single-threaded, one entry per timed segment.
    Library { segments: Vec<LibrarySegment> },
}

/// Timed segments per run; the checker replays each before the next starts
/// (see `drive::Executed`).
pub const SEGMENTS: usize = 3;

/// What a library workload does in one segment: whole rounds while they
/// fit, then the finale.
#[derive(Debug, Clone, PartialEq)]
pub struct LibrarySegment {
    pub rounds: Vec<Vec<Op>>,
    pub finale: Vec<Op>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Epochs {
    pub len: usize,
    pub updates: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub pool: Vec<Query>,
    pub shape: Shape,
}

pub fn buyer_name(buyer: u32) -> String {
    format!("b{buyer}")
}

/// Interns SQL text into the pool.
struct Pool {
    queries: Vec<Query>,
    index: HashMap<(usize, String), u32>,
}

impl Pool {
    fn new() -> Self {
        Pool {
            queries: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn intern(&mut self, market: usize, label: impl FnOnce(usize) -> String, sql: String) -> u32 {
        let key = (market, sql);
        if let Some(&q) = self.index.get(&key) {
            return q;
        }
        let q = self.queries.len() as u32;
        let sql = key.1.clone();
        self.index.insert(key, q);
        self.queries.push(Query {
            market,
            label: label(q as usize),
            sql,
        });
        q
    }
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Draws without replacement and reshuffles when empty, so every run of
/// `items.len()` draws holds each item exactly once. Independent draws
/// would let one seed price the dear queries more often than another;
/// decks keep the mix of every seed the same and vary only its order.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        let next = items.len();
        Deck { items, next }
    }

    fn draw(&mut self, rng: &mut StdRng) -> T {
        if self.next == self.items.len() {
            shuffle(&mut self.items, rng);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// `serve_warm`: over the 34 world queries, every block of 136 requests
/// quotes each query three times and buys it once (75 % quote / 25 % buy);
/// 1 024 buyers per client (buyer `b` belongs to client `b % CLIENTS`).
pub fn serve_warm(seed: u64) -> Plan {
    const OPS_PER_CLIENT: usize = 200_000;
    const BUYERS_PER_CLIENT: u32 = 1024;
    let mut pool = Pool::new();
    for (i, sql) in WORLD_QUERIES.iter().enumerate() {
        pool.intern(0, |_| format!("w{:02}", i + 1), (*sql).to_string());
    }
    let n = pool.queries.len() as u32;
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rng = rng_for(seed, c as u64 + 1);
            let mut deck = Deck::new((0..4 * n).collect());
            (0..OPS_PER_CLIENT)
                .map(|_| {
                    let slot = deck.draw(&mut rng);
                    let q = slot % n;
                    if slot / n == 0 {
                        let buyer = rng.gen_range(0..BUYERS_PER_CLIENT) * CLIENTS as u32 + c as u32;
                        Op::Buy { buyer, q }
                    } else {
                        Op::Quote { q }
                    }
                })
                .collect()
        })
        .collect();
    Plan {
        pool: pool.queries,
        shape: Shape::Service {
            clients,
            epoch: None,
        },
    }
}

/// What one `serve_churn` request does and where its query comes from.
#[derive(Clone, Copy)]
enum Slot {
    Quote { flight: bool },
    Buy { flight: bool },
    Account,
}

/// `serve_churn`: 80 % random SSB Q1.1 instances (2 268 distinct plans,
/// more than the pricing cache holds), 20 % the 13-query flight; 70 %
/// quote / 25 % buy / 5 % account read, exactly so in every block of 100
/// requests; one seller update per epoch.
pub fn serve_churn(seed: u64) -> Plan {
    const OPS_PER_CLIENT: usize = 24_000;
    const BUYERS_PER_CLIENT: u32 = 256;
    const EPOCH: usize = 40;
    let mut pool = Pool::new();
    let flight: Vec<u32> = ssb_queries()
        .into_iter()
        .map(|(name, sql)| pool.intern(0, |_| name.to_string(), sql.to_string()))
        .collect();
    let clients = (0..CLIENTS)
        .map(|c| {
            let mut rng = rng_for(seed, c as u64 + 1);
            let mut bought: Vec<u32> = Vec::new();
            let mut slots = Deck::new(
                [
                    (Slot::Quote { flight: true }, 14),
                    (Slot::Quote { flight: false }, 56),
                    (Slot::Buy { flight: true }, 5),
                    (Slot::Buy { flight: false }, 20),
                    (Slot::Account, 5),
                ]
                .iter()
                .flat_map(|&(slot, n)| std::iter::repeat_n(slot, n))
                .collect(),
            );
            let mut quoted = Deck::new(flight.clone());
            let mut sold = Deck::new(flight.clone());
            (0..OPS_PER_CLIENT)
                .map(|_| {
                    let mut instance = |rng: &mut StdRng| {
                        pool.intern(0, |i| format!("q11#{i}"), ssb_q11_instance(rng))
                    };
                    match slots.draw(&mut rng) {
                        Slot::Quote { flight: true } => Op::Quote {
                            q: quoted.draw(&mut rng),
                        },
                        Slot::Buy { flight } => {
                            let q = if flight {
                                sold.draw(&mut rng)
                            } else {
                                instance(&mut rng)
                            };
                            let buyer =
                                rng.gen_range(0..BUYERS_PER_CLIENT) * CLIENTS as u32 + c as u32;
                            bought.push(buyer);
                            Op::Buy { buyer, q }
                        }
                        Slot::Account if !bought.is_empty() => Op::Account {
                            buyer: bought[rng.gen_range(0..bought.len())],
                        },
                        Slot::Quote { flight: false } | Slot::Account => Op::Quote {
                            q: instance(&mut rng),
                        },
                    }
                })
                .collect()
        })
        .collect();
    // Each update writes a value no earlier one wrote, so it always changes
    // at least one cell and always bumps the cache generation. Order keys
    // 1..=150 exist at every scale factor.
    let mut rng = rng_for(seed, 0);
    let updates = (0..OPS_PER_CLIENT / EPOCH)
        .map(|e| {
            format!(
                "UPDATE lineorder SET lo_supplycost = {} WHERE lo_orderkey = {}",
                1_000_000 + e,
                rng.gen_range(1..=150)
            )
        })
        .collect();
    Plan {
        pool: pool.queries,
        shape: Shape::Service {
            clients,
            epoch: Some(Epochs {
                len: EPOCH,
                updates,
            }),
        },
    }
}

/// `flight_cold`: every segment has its own pair of cold markets (SSB in
/// market `2k`, TPC-H in `2k + 1`). A round quotes the 13 + 8 flight
/// queries once, in a seeded order; the finale buys each once. Quotes
/// never fill the pricing cache, so every quote of every round is a full
/// sweep; the buys come last because they do fill it, and the next
/// segment starts on markets nothing has been bought from. Each buy is a
/// new buyer's first: a buyer is never charged twice for a support
/// instance, so a second purchase would sweep less of the support the more
/// the first covered, and the cost of the finale would depend on its order.
pub fn flight_cold(seed: u64, tpch_sf: f64) -> Plan {
    const ROUNDS: usize = 24;
    let mut pool = Pool::new();
    let mut rng = rng_for(seed, 1);
    let segments = (0..SEGMENTS)
        .map(|k| {
            // The same SQL is a distinct pool entry per segment: a distinct
            // market prices it.
            let mut mine: Vec<u32> = Vec::new();
            for (name, sql) in ssb_queries() {
                mine.push(pool.intern(2 * k, |_| format!("ssb.{name}"), sql.to_string()));
            }
            for (name, sql) in tpch_queries(tpch_sf) {
                mine.push(pool.intern(2 * k + 1, |_| format!("tpch.{name}"), sql));
            }
            let pass = |rng: &mut StdRng| -> Vec<u32> {
                let mut order = mine.clone();
                shuffle(&mut order, rng);
                order
            };
            let rounds = (0..ROUNDS)
                .map(|_| {
                    pass(&mut rng)
                        .into_iter()
                        .map(|q| Op::Quote { q })
                        .collect()
                })
                .collect();
            let finale = pass(&mut rng)
                .into_iter()
                .map(|q| Op::Buy { buyer: q, q })
                .collect();
            LibrarySegment { rounds, finale }
        })
        .collect();
    Plan {
        pool: pool.queries,
        shape: Shape::Library { segments },
    }
}

/// Leading pool entries of `history_entropy` that set-up buys once (the
/// SSB flight), so that every timed round does the same kind of work.
pub const HISTORY_WARM: usize = 13;

/// `history_entropy`: one round per buyer. A buyer asks the price of, then
/// buys, an alternating half of the SSB flight followed by 12 random Q1.1
/// instances, so its history grows to about 19 queries; the flight is
/// already memoised (shared across buyers), the instances are not.
pub fn history_entropy(seed: u64) -> Plan {
    const ROUNDS: u32 = 96;
    const INSTANCES: usize = 12;
    let mut pool = Pool::new();
    let flight: Vec<u32> = ssb_queries()
        .into_iter()
        .map(|(name, sql)| pool.intern(0, |_| name.to_string(), sql.to_string()))
        .collect();
    let mut rng = rng_for(seed, 1);
    let segments = (0..SEGMENTS as u32)
        .map(|k| {
            let rounds = (k * ROUNDS..(k + 1) * ROUNDS)
                .map(|buyer| {
                    let half = flight.iter().skip(buyer as usize % 2).step_by(2).copied();
                    let instances: Vec<u32> = (0..INSTANCES)
                        .map(|_| pool.intern(0, |i| format!("q11#{i}"), ssb_q11_instance(&mut rng)))
                        .collect();
                    let basket: Vec<u32> = half.chain(instances).collect();
                    let quotes = basket.iter().map(|&q| Op::Quote { q });
                    let buys = basket.iter().map(|&q| Op::Buy { buyer, q });
                    quotes.chain(buys).collect()
                })
                .collect();
            LibrarySegment {
                rounds,
                finale: Vec::new(),
            }
        })
        .collect();
    Plan {
        pool: pool.queries,
        shape: Shape::Library { segments },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(seed: u64) -> Vec<Plan> {
        vec![
            serve_warm(seed),
            serve_churn(seed),
            flight_cold(seed, 0.002),
            history_entropy(seed),
        ]
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_list() {
        for ((a, b), c) in all(1).into_iter().zip(all(1)).zip(all(2)) {
            assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
            assert_ne!(a, c);
        }
    }

    #[test]
    fn buyers_stay_with_their_client_and_accounts_follow_a_buy() {
        for plan in [serve_warm(3), serve_churn(3)] {
            let Shape::Service { clients, epoch } = &plan.shape else {
                panic!("service plan expected");
            };
            assert_eq!(clients.len(), CLIENTS);
            for (c, ops) in clients.iter().enumerate() {
                let mut bought = std::collections::HashSet::new();
                for op in ops {
                    match *op {
                        Op::Buy { buyer, .. } => {
                            assert_eq!(buyer as usize % CLIENTS, c);
                            bought.insert(buyer);
                        }
                        Op::Account { buyer } => assert!(bought.contains(&buyer)),
                        Op::Quote { .. } => {}
                    }
                }
            }
            if let Some(e) = epoch {
                assert!(e.updates.len() * e.len >= clients[0].len());
            }
        }
    }

    #[test]
    fn churn_pool_is_larger_than_the_default_cache() {
        assert!(serve_churn(1).pool.len() > 1024);
    }
}
