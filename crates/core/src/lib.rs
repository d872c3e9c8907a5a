//! # qirana-core
//!
//! A self-contained Rust implementation of **QIRANA** (Deep & Koutris,
//! SIGMOD 2017): a query-based data-pricing broker that sits between a
//! buyer and a DBMS and charges for SQL queries according to the
//! information they disclose, with formal arbitrage-freeness guarantees.
//!
//! ## How it works
//!
//! From the buyer's viewpoint there is a set `I` of *possible databases*
//! consistent with the public schema, keys, domains, and cardinalities.
//! Answering a query rules out every `D' ∈ I` with `Q(D') ≠ Q(D)`; the
//! price measures how much of `I` the answer eliminates. Tracking all of
//! `I` is hopeless, so QIRANA tracks a small **support set** of neighboring
//! databases represented as row/swap updates ([`support`]), weights them
//! ([`weights`] — uniformly, or by entropy maximization honoring seller
//! price points), and prices with one of four arbitrage-free functions
//! ([`pricing`]). Per-buyer history makes repeated information free
//! ([`broker`], §3.5).
//!
//! ## One sweep, routed by what it can observe
//!
//! Every price comes from a *sweep*: per support instance, does the
//! query's output change ([`engine::query_bits`], coverage family) or what
//! does it become ([`engine::query_fps`], entropy family). [`engine`] is
//! the one place an evaluation path is chosen, from the support kind, the
//! plan's [`normal_form::Shape`], the primitive and whether a budget is
//! set — never from a user-set switch: the incremental evaluator
//! ([`delta`]) for unbudgeted sweeps of either family over SPJ and
//! aggregate plans, which carries §4.2's batching, per-instance execution
//! ([`naive`]) everywhere else. One update-visibility test — Algorithm 4's
//! irrelevant-update check — sits in front of every path, and every
//! per-instance loop runs in index order on the caller's thread.
//! [`Strategy::Naive`] pins per-instance execution for the paper's
//! baseline and for the differential tests, which hold both paths bitwise
//! equal.
//!
//! ## Quick start
//!
//! ```
//! use qirana_core::{Qirana, QiranaConfig, SupportConfig};
//! use qirana_sqlengine::{ColumnDef, DataType, Database, TableSchema};
//!
//! let mut db = Database::new();
//! db.add_table(
//!     TableSchema::new(
//!         "User",
//!         vec![
//!             ColumnDef::new("uid", DataType::Int),
//!             ColumnDef::new("gender", DataType::Str),
//!             ColumnDef::new("age", DataType::Int),
//!         ],
//!         &["uid"],
//!     ),
//!     vec![
//!         vec![1.into(), "m".into(), 25.into()],
//!         vec![2.into(), "f".into(), 13.into()],
//!         vec![3.into(), "m".into(), 45.into()],
//!         vec![4.into(), "f".into(), 19.into()],
//!     ],
//! );
//!
//! let mut broker = Qirana::new(
//!     db,
//!     QiranaConfig {
//!         total_price: 100.0,
//!         support: SupportConfig { size: 300, ..Default::default() },
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//!
//! let full = broker.quote("SELECT * FROM User").unwrap();
//! let narrow = broker.quote("SELECT count(*) FROM User WHERE gender = 'f'").unwrap();
//! assert!(narrow <= full);
//! ```

pub mod broker;
pub mod cache;
pub mod delta;
pub mod engine;
pub mod fault;
pub mod ledger;
pub mod naive;
pub mod normal_form;
pub mod pricing;
pub mod support;
pub mod telemetry;
pub mod update;
pub mod weights;

pub use broker::{
    BrokerError, Purchase, Qirana, QiranaConfig, RetryPolicy, StagedBuy, SupportType,
};
pub use cache::{CacheStats, PricingCache};
pub use delta::DeltaState;
pub use engine::{bundle_disagreements, bundle_partition, EngineOptions, Strategy};
pub use ledger::{Ledger, LedgerConfig, LedgerError, LedgerEvent, SnapshotState};
pub use normal_form::{prepare_query, Prepared, Shape};
pub use pricing::{PricingError, PricingFunction};
pub use support::{
    generate_support, generate_uniform_worlds, try_generate_support, SupportConfig, SupportError,
    SupportSet,
};
pub use telemetry::{Clock, MonotonicClock, Stage, Telemetry, TelemetrySink, TestClock};
pub use update::SupportUpdate;
pub use weights::{assign_weights, assign_weights_with, uniform_weights, PricePoint, WeightError};
