//! The four workloads: what market each builds and how it is set up.
//!
//! Every broker is built with default `EngineOptions`; the only field
//! ever set is `telemetry`, and only in the traced run. A benchmark that
//! tuned the engine would measure a configuration no user gets.

use std::io;
use std::path::{Path, PathBuf};

use qirana_core::{
    EngineOptions, LedgerConfig, PricePoint, PricingFunction, Qirana, QiranaConfig, SupportConfig,
    Telemetry,
};
use qirana_datagen::queries::WORLD_QUERIES;
use qirana_datagen::{ssb, tpch, world};
use qirana_server::{PricingServer, ServerConfig};
use qirana_sqlengine::Database;

use crate::plan::{self, Plan};
use crate::spans::Recorder;

/// Price of the whole dataset (the `QiranaConfig` default, restated
/// because every price is checked against it).
pub const TOTAL_PRICE: f64 = 100.0;
const SUPPORT_SEED: u64 = 11;
const DATA_SEED: u64 = 5;
/// Buyer that fills the pricing cache during set-up.
const WARMUP_BUYER: &str = "warmup";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    World,
    Ssb(f64),
    Tpch(f64),
}

impl Data {
    pub fn generate(self) -> Database {
        match self {
            Data::World => world::generate(7),
            Data::Ssb(sf) => ssb::generate(sf, DATA_SEED),
            Data::Tpch(sf) => tpch::generate(sf, DATA_SEED),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Market {
    pub data: Data,
    pub function: PricingFunction,
    pub support: usize,
    /// Three seller price points, so the weight solver runs in set-up.
    pub price_points: bool,
}

impl Market {
    pub fn price_points(&self) -> Vec<PricePoint> {
        if !self.price_points {
            return Vec::new();
        }
        vec![
            PricePoint::new("SELECT * FROM Country", 60.0),
            PricePoint::new("SELECT ID, Population FROM Country", 20.0),
            PricePoint::new("SELECT * FROM City", 25.0),
        ]
    }

    pub fn config(&self, telemetry: Telemetry) -> QiranaConfig {
        QiranaConfig {
            total_price: TOTAL_PRICE,
            function: self.function,
            support: SupportConfig {
                size: self.support,
                seed: SUPPORT_SEED,
                ..Default::default()
            },
            price_points: self.price_points(),
            engine: EngineOptions::default().with_telemetry(telemetry),
            ..Default::default()
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Served over HTTP from a WAL-backed broker; otherwise library calls
    /// on in-memory brokers.
    pub service: bool,
    pub markets: Vec<Market>,
    /// Leading markets that differ from each other; the rest repeat them.
    pub distinct_markets: usize,
    /// Leading pool queries a warm-up buyer buys once during set-up.
    pub warm: usize,
}

pub const NAMES: [&str; 4] = [
    "serve_warm",
    "serve_churn",
    "flight_cold",
    "history_entropy",
];

/// The workload called `name`. `smoke` shrinks data and support to about a
/// fiftieth of the work so the self-test finishes in seconds; every check
/// still runs.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let coverage = PricingFunction::WeightedCoverage;
    let size = |full: usize, small: usize| if smoke { small } else { full };
    let sf = |full: f64| if smoke { 0.0005 } else { full };
    Some(match name {
        "serve_warm" => Spec {
            name: "serve_warm",
            service: true,
            markets: vec![Market {
                data: Data::World,
                function: coverage,
                support: size(64, 16),
                price_points: true,
            }],
            distinct_markets: 1,
            warm: WORLD_QUERIES.len(),
        },
        "serve_churn" => Spec {
            name: "serve_churn",
            service: true,
            markets: vec![Market {
                data: Data::Ssb(sf(0.001)),
                function: coverage,
                support: size(64, 16),
                price_points: false,
            }],
            distinct_markets: 1,
            warm: 0,
        },
        "flight_cold" => {
            let market = |data| Market {
                data,
                function: coverage,
                support: size(FLIGHT_SUPPORT, 16),
                price_points: false,
            };
            Spec {
                name: "flight_cold",
                service: false,
                // A fresh SSB and TPC-H market for every timed segment.
                markets: (0..plan::SEGMENTS)
                    .flat_map(|_| {
                        [
                            market(Data::Ssb(sf(FLIGHT_SF))),
                            market(Data::Tpch(sf(FLIGHT_SF))),
                        ]
                    })
                    .collect(),
                distinct_markets: 2,
                warm: 0,
            }
        }
        "history_entropy" => Spec {
            name: "history_entropy",
            service: false,
            markets: vec![Market {
                data: Data::Ssb(sf(0.001)),
                function: PricingFunction::ShannonEntropy,
                support: size(256, 16),
                price_points: false,
            }],
            distinct_markets: 1,
            warm: plan::HISTORY_WARM,
        },
        _ => return None,
    })
}

const FLIGHT_SF: f64 = 0.001;
const FLIGHT_SUPPORT: usize = 256;

pub fn plan_for(spec: &Spec, seed: u64) -> Plan {
    match spec.name {
        "serve_warm" => plan::serve_warm(seed),
        "serve_churn" => plan::serve_churn(seed),
        "flight_cold" => {
            let Data::Tpch(sf) = spec.markets[1].data else {
                unreachable!("flight_cold prices TPC-H in its second market");
            };
            plan::flight_cold(seed, sf)
        }
        _ => plan::history_entropy(seed),
    }
}

/// Where a run keeps its ledger directories: under the benchmark's own
/// `target/`, on the checkout's file system and not a tmpfs, so an fsync
/// reaches whatever the checkout is stored on.
pub fn work_dir() -> PathBuf {
    benchmark_dir()
        .join("target")
        .join("work")
        .join(std::process::id().to_string())
}

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was when this binary was built.
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// A market ready to be measured.
pub enum Sut {
    Service {
        server: PricingServer,
        ledger_dir: PathBuf,
    },
    Library(Vec<Qirana>),
}

/// Builds one broker: datagen, support generation, weights, and (with a
/// ledger) a fresh write-ahead log under the default policy — fsync on
/// every append, snapshot every 256 events.
pub fn build_broker(
    market: &Market,
    telemetry: Telemetry,
    ledger_dir: Option<&Path>,
    rec: &mut Recorder,
) -> Qirana {
    let db = rec.time("datagen.generate", |_| market.data.generate());
    let cfg = market.config(telemetry);
    let broker = rec.time("broker.build", |_| match ledger_dir {
        Some(dir) => Qirana::open(db, cfg, LedgerConfig::new(dir)),
        None => Qirana::new(db, cfg),
    });
    broker.unwrap_or_else(|e| panic!("broker construction failed: {e}"))
}

fn warm_up(broker: &mut Qirana, spec: &Spec, plan: &Plan, rec: &mut Recorder) {
    if spec.warm == 0 {
        return;
    }
    rec.time("broker.warmup", |_| {
        for q in &plan.pool[..spec.warm] {
            if let Err(e) = broker.buy(WARMUP_BUYER, &q.sql) {
                panic!("warm-up buy of {} failed: {e}", q.label);
            }
        }
    });
}

/// One full set-up, as a user starting the system pays it.
pub fn set_up(
    spec: &Spec,
    plan: &Plan,
    telemetry: &Telemetry,
    ledger_dir: &Path,
    rec: &mut Recorder,
) -> io::Result<Sut> {
    if !spec.service {
        let mut brokers: Vec<Qirana> = spec
            .markets
            .iter()
            .map(|m| build_broker(m, telemetry.clone(), None, rec))
            .collect();
        warm_up(&mut brokers[0], spec, plan, rec);
        return Ok(Sut::Library(brokers));
    }
    // `Qirana::open` truncates a previous market in the directory, but a
    // stale snapshot would survive it: start from an empty directory.
    if ledger_dir.exists() {
        std::fs::remove_dir_all(ledger_dir)?;
    }
    std::fs::create_dir_all(ledger_dir)?;
    let mut broker = build_broker(&spec.markets[0], telemetry.clone(), Some(ledger_dir), rec);
    warm_up(&mut broker, spec, plan, rec);
    let server = rec.time("server.start", |_| {
        PricingServer::start(broker, ServerConfig::default(), telemetry.clone())
    });
    Ok(Sut::Service {
        server: server?,
        ledger_dir: ledger_dir.to_path_buf(),
    })
}

/// An independently built broker for the checker: same data, same
/// configuration, same warm-up, no telemetry; in memory unless given a
/// ledger directory.
pub fn reference_broker(
    spec: &Spec,
    market: usize,
    plan: &Plan,
    ledger_dir: Option<&Path>,
) -> Qirana {
    let mut rec = Recorder::new();
    let telemetry = Telemetry::disabled();
    let mut broker = build_broker(&spec.markets[market], telemetry, ledger_dir, &mut rec);
    if market == 0 {
        warm_up(&mut broker, spec, plan, &mut rec);
    }
    broker
}

pub fn is_warmup_buyer(name: &str) -> bool {
    name == WARMUP_BUYER
}
