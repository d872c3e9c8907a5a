//! # qirana
//!
//! A complete Rust implementation of **QIRANA: A Framework for Scalable
//! Query Pricing** (Shaleen Deep & Paraschos Koutris, SIGMOD 2017) — an
//! arbitrage-free, query-based data-pricing broker, together with every
//! substrate it runs on:
//!
//! * [`sqlengine`] — a from-scratch in-memory SQL engine (the paper's MySQL
//!   substrate) with pricing-specific table overrides and open plans;
//! * [`solver`] — a max-entropy convex solver (the paper's CVXPY + SCS);
//! * [`datagen`] — deterministic generators for the five evaluation
//!   datasets (world, US car crash, DBLP, TPC-H, SSB) and their query
//!   workloads;
//! * [`core`] — the pricing framework itself: support sets, four
//!   arbitrage-free pricing functions, seller price points, history-aware
//!   accounts, and the §4 disagreement optimizer.
//!
//! The most common entry points are re-exported at the crate root:
//!
//! ```
//! use qirana::{Qirana, QiranaConfig, SupportConfig};
//!
//! let db = qirana::datagen::world::generate(42);
//! let mut broker = Qirana::new(
//!     db,
//!     QiranaConfig {
//!         total_price: 100.0,
//!         support: SupportConfig { size: 200, ..Default::default() },
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//! let price = broker
//!     .quote("SELECT Name FROM Country WHERE Continent = 'Asia'")
//!     .unwrap();
//! assert!(price > 0.0 && price < 100.0);
//! ```
//!
//! See `README.md` for an architecture overview, `DESIGN.md` for the
//! paper-to-module map, and `EXPERIMENTS.md` for the reproduced evaluation.

pub use qirana_core as core;
pub use qirana_datagen as datagen;
pub use qirana_solver as solver;
pub use qirana_sqlengine as sqlengine;

pub use qirana_core::{
    BrokerError, CacheStats, EngineOptions, Ledger, LedgerConfig, LedgerError, LedgerEvent,
    PricePoint, PricingFunction, Purchase, Qirana, QiranaConfig, RetryPolicy, SupportConfig,
    SupportType, Telemetry, TelemetrySink,
};
pub use qirana_sqlengine::{Database, ExecBudget, QueryOutput, Value};
