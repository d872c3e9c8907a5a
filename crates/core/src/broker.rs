//! The QIRANA broker: the system facade of Figure 3.
//!
//! [`Qirana`] sits between the buyer and the database. The seller
//! configures a total price, optional price points, the support-set
//! parameters, and a pricing function; buyers then [`Qirana::quote`]
//! prices, [`Qirana::answer`] queries, or [`Qirana::buy`] with
//! history-aware accounting (§3.5): each account tracks which support
//! instances it has already paid for (the bitmap of Algorithm 3 for the
//! coverage family, the accumulated bundle for the entropy family), so
//! repeated information is never charged twice and a buyer who has paid for
//! everything gets all further queries free.

use crate::cache::{Artifact, CacheStats, Kind, PricingCache, LRU_CAPACITY};
use crate::engine::{failpoint, fold_partition, run_plan, sweep, EngineOptions};
use crate::fault;
use crate::ledger::{
    self, BuyerSnapshot, Ledger, LedgerConfig, LedgerError, LedgerEvent, SnapshotState,
};
use crate::normal_form::{prepare_query, Prepared};
use crate::pricing::{coverage_price, partition_price, PricingError, PricingFunction};
use crate::support::{
    generate_uniform_worlds, try_generate_support, SupportConfig, SupportError, SupportSet,
};
use crate::telemetry::Stage;
use crate::weights::{assign_weights_with, uniform_weights, PricePoint, WeightError};
use qirana_solver::SolverOptions;
use qirana_sqlengine::update::{apply_writes, check_writes, plan_update, CellWrite};
use qirana_sqlengine::{Database, EngineError, ExecContext, Fingerprint, QueryOutput};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which support-set construction the broker uses (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupportType {
    /// Random neighborhood of `D` (the recommended choice).
    Neighborhood,
    /// Uniform random instances from `I` (benchmarked in §2.4 / Figure 6;
    /// poorly behaved and memory-hungry — kept for the comparison).
    Uniform,
}

/// How broker construction reacts when support generation or weight
/// assignment fails (the §3.3 reaction loop, made configurable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts at generating a support set and solving for weights.
    /// Each attempt reseeds the support generator, and attempts beyond the
    /// second double the support size (backoff), capped at 8× the
    /// configured size; treated as 1 when 0.
    pub max_attempts: u32,
    /// After every attempt fails on a *retryable* error (infeasible price
    /// points, solver deadline, numerical divergence), degrade gracefully:
    /// drop the price points, assign uniform weights, and mark the broker
    /// ([`Qirana::is_degraded`]) and every purchase it makes
    /// ([`Purchase::degraded`]) as degraded. Prices stay arbitrage-free;
    /// only the seller's price points are no longer honored. Off, the
    /// construction error is returned instead.
    pub fallback_to_uniform: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            fallback_to_uniform: true,
        }
    }
}

/// Broker configuration.
#[derive(Debug, Clone)]
pub struct QiranaConfig {
    /// Price of the whole dataset (`p(Q_all, D) = P`).
    pub total_price: f64,
    /// Support-set parameters.
    pub support: SupportConfig,
    /// Support-set construction.
    pub support_type: SupportType,
    /// Pricing function (weighted coverage is the paper's default).
    pub function: PricingFunction,
    /// Seller price points, enforced via entropy maximization.
    pub price_points: Vec<PricePoint>,
    /// Disagreement-engine options, including the execution budget every
    /// pricing query runs under.
    pub engine: EngineOptions,
    /// Weight-solver options (tolerance, iteration cap, wall-clock
    /// deadline per solve attempt).
    pub solver: SolverOptions,
    /// Construction retry/degradation policy.
    pub retry: RetryPolicy,
}

impl Default for QiranaConfig {
    fn default() -> Self {
        QiranaConfig {
            total_price: 100.0,
            support: SupportConfig::default(),
            support_type: SupportType::Neighborhood,
            function: PricingFunction::WeightedCoverage,
            price_points: Vec::new(),
            engine: EngineOptions::default(),
            solver: SolverOptions::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Broker errors.
#[derive(Debug)]
pub enum BrokerError {
    /// SQL failed to parse, plan, or execute (including execution-budget
    /// trips, see [`EngineError::BudgetExceeded`]).
    Engine(EngineError),
    /// Weight assignment failed even after resampling/growing the support.
    Weights(WeightError),
    /// Support-set generation failed even after retries.
    Support(SupportError),
    /// The configured pricing function was dispatched against the wrong
    /// evaluation primitive (a broker misconfiguration).
    Pricing(PricingError),
    /// A buyer's charged bitmap and a freshly priced disagreement bitmap
    /// disagree on length, so the account cannot be charged safely:
    /// silently zip-truncating the two would drop trailing bits and
    /// under-charge every later purchase.
    BitmapLength {
        /// Support-set size the broker prices against.
        expected: usize,
        /// Length of the offending bitmap.
        actual: usize,
    },
    /// The durable ledger failed: an append did not reach disk (the
    /// event was not applied), recovery found corruption, or replay
    /// diverged from the logged prices.
    Ledger(LedgerError),
    /// A fault-injection failpoint fired (tests only; never in production).
    Injected(fault::InjectedFault),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::Engine(e) => write!(f, "{e}"),
            BrokerError::Weights(e) => write!(f, "{e}"),
            BrokerError::Support(e) => write!(f, "{e}"),
            BrokerError::Pricing(e) => write!(f, "{e}"),
            BrokerError::BitmapLength { expected, actual } => write!(
                f,
                "disagreement bitmap length {actual} does not match the \
                 support-set size {expected}; refusing to charge"
            ),
            BrokerError::Ledger(e) => write!(f, "{e}"),
            BrokerError::Injected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BrokerError {}

impl From<EngineError> for BrokerError {
    fn from(e: EngineError) -> Self {
        BrokerError::Engine(e)
    }
}

impl From<WeightError> for BrokerError {
    fn from(e: WeightError) -> Self {
        BrokerError::Weights(e)
    }
}

impl From<SupportError> for BrokerError {
    fn from(e: SupportError) -> Self {
        BrokerError::Support(e)
    }
}

impl From<PricingError> for BrokerError {
    fn from(e: PricingError) -> Self {
        BrokerError::Pricing(e)
    }
}

impl From<LedgerError> for BrokerError {
    fn from(e: LedgerError) -> Self {
        BrokerError::Ledger(e)
    }
}

/// Result of a history-aware purchase.
#[derive(Debug, Clone)]
pub struct Purchase {
    /// Amount newly charged for this query.
    pub price: f64,
    /// The buyer's cumulative spend after this purchase.
    pub total_paid: f64,
    /// The query answer.
    pub output: QueryOutput,
    /// True when priced under degraded uniform weights (see
    /// [`RetryPolicy::fallback_to_uniform`]).
    pub degraded: bool,
}

/// Per-buyer history state.
#[derive(Debug, Clone, Default)]
struct BuyerState {
    /// Coverage family: support instances already paid for (Algorithm 3's
    /// bitmap `b`).
    charged: Vec<bool>,
    /// Entropy family: the accumulated bundle of past purchases. Plans are
    /// `Arc`-shared so re-pricing the bundle never deep-copies them.
    history: Vec<Arc<Prepared>>,
    /// Cumulative spend.
    paid: f64,
}

/// The account mutation a purchase will apply, computed before anything
/// (ledger or memory) is touched so the event can be logged first
/// (append-then-apply).
enum AccountUpdate {
    /// Entropy family: re-anchor the stored total at the freshly priced
    /// bundle (`None` when the purchase was free and the anchor stands).
    Entropy { anchor: Option<f64> },
    /// Coverage family: the merged charged bitmap after this purchase.
    Coverage { charged: Vec<bool> },
}

/// Which side of the market reads a pricing artifact (see
/// `Qirana::artifact`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reader {
    /// Leaves a missed sweep, answer included, in the handoff memo; never
    /// reads it.
    Quote,
    /// Takes what a quote left before sweeping.
    Buy,
}

/// Phase 1 of a purchase ([`Qirana::stage_buy`]): the new query prepared,
/// answered and swept — everything that does not depend on the buyer —
/// plus the cache generation it describes. [`Qirana::commit_staged`]
/// charges it.
#[derive(Debug)]
pub struct StagedBuy {
    prepared: Arc<Prepared>,
    output: QueryOutput,
    artifact: Artifact,
    generation: u64,
}

/// The QIRANA pricing broker.
pub struct Qirana {
    db: Database,
    cfg: QiranaConfig,
    support: SupportSet,
    weights: Vec<f64>,
    buyers: HashMap<String, BuyerState>,
    /// Multiplicative corrections anchoring the entropy-family prices at
    /// `p(Q_all) = P`. The raw formulas normalize by `log S` (resp.
    /// `1 − 1/S`), which assumes all support instances are pairwise
    /// distinguishable by `Q_all`; sampled support sets may contain
    /// duplicate neighbors, so the broker rescales by the entropy the
    /// *actual* `Q_all` partition achieves.
    shannon_factor: f64,
    tsallis_factor: f64,
    /// True when the broker fell back to uniform weights because the
    /// seller's price points could not be honored after every retry.
    degraded: bool,
    /// Shared memo of per-query pricing artifacts (disagreement bitmaps
    /// and partition blocks), keyed by plan fingerprint and invalidated by
    /// the database generation counter on every committed update. Shared
    /// across buyers: the artifacts depend only on the query and the
    /// support set, never on the account.
    ///
    /// Behind a `Mutex` so the `&self` read path can peek (no recency
    /// ticks, no counters — see [`PricingCache::peek`]) and use the
    /// handoff concurrently; every `&mut self` commit path goes through
    /// `Mutex::get_mut`, which is lock-free by the aliasing rules.
    cache: Mutex<PricingCache>,
    /// Durable write-ahead log of market events. `None` for an in-memory
    /// broker ([`Qirana::new`]); set by [`Qirana::open`] and
    /// [`Qirana::recover`]. Every purchase and commit is appended and
    /// synced *before* it mutates broker state.
    ledger: Option<Ledger>,
}

impl fmt::Debug for Qirana {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Qirana")
            .field("support_size", &self.support.len())
            .field("function", &self.cfg.function)
            .field("degraded", &self.degraded)
            .finish_non_exhaustive()
    }
}

/// Builds one support set from a (possibly reseeded/grown) config.
fn build_support(
    db: &Database,
    support_cfg: &SupportConfig,
    support_type: SupportType,
) -> Result<SupportSet, SupportError> {
    Ok(match support_type {
        SupportType::Neighborhood => {
            SupportSet::Neighborhood(try_generate_support(db, support_cfg)?)
        }
        SupportType::Uniform => SupportSet::Uniform(generate_uniform_worlds(
            db,
            support_cfg.size,
            support_cfg.seed,
        )),
    })
}

impl Qirana {
    /// Builds a broker over a database: generates the support set and
    /// assigns weights. If the seller's price points are infeasible for the
    /// sampled support set — or the solve hits its deadline — the broker
    /// retries per [`QiranaConfig::retry`]: each attempt reseeds the
    /// support generator and grows the support set, the
    /// reaction loop of §3.3. When every attempt fails on a retryable
    /// error and [`RetryPolicy::fallback_to_uniform`] is set, the broker
    /// degrades to uniform weights and flags itself
    /// ([`Qirana::is_degraded`]).
    pub fn new(db: Database, cfg: QiranaConfig) -> Result<Self, BrokerError> {
        let attempts = cfg.retry.max_attempts.max(1);
        let mut last_err: Option<BrokerError> = None;
        for attempt in 0..attempts {
            let mut support_cfg = cfg.support.clone();
            support_cfg.seed = cfg.support.seed.wrapping_add(attempt as u64);
            // Backoff: resample at the configured size first, then double
            // per attempt, capped at 8×.
            support_cfg.size = cfg.support.size << attempt.saturating_sub(1).min(3);
            let support = {
                let span = cfg.engine.telemetry.span(Stage::SupportGen);
                match build_support(&db, &support_cfg, cfg.support_type) {
                    Ok(s) => {
                        span.count("instances", s.len() as u64);
                        s
                    }
                    Err(e) => {
                        last_err = Some(e.into());
                        continue;
                    }
                }
            };
            let _solve = cfg.engine.telemetry.span(Stage::Solve);
            match assign_weights_with(
                &db,
                &support,
                cfg.total_price,
                &cfg.price_points,
                &cfg.engine,
                &cfg.solver,
            ) {
                Ok(weights) => return Ok(Self::assemble(db, cfg, support, weights, false)),
                Err(e @ WeightError::BadPricePoint { .. }) => return Err(e.into()),
                Err(e) => last_err = Some(e.into()),
            }
        }

        // Every attempt failed on a retryable error. Degrade if permitted:
        // uniform weights are always feasible and keep every arbitrage-
        // freeness guarantee — only the seller's price points are dropped.
        if cfg.retry.fallback_to_uniform {
            if let Ok(support) = build_support(&db, &cfg.support, cfg.support_type) {
                let weights = uniform_weights(support.len(), cfg.total_price);
                return Ok(Self::assemble(db, cfg, support, weights, true));
            }
        }
        Err(last_err.unwrap_or_else(|| {
            BrokerError::Weights(WeightError::Infeasible {
                reason: "broker construction made no attempts".into(),
            })
        }))
    }

    fn assemble(
        db: Database,
        cfg: QiranaConfig,
        support: SupportSet,
        weights: Vec<f64>,
        degraded: bool,
    ) -> Self {
        let (shannon_factor, tsallis_factor) =
            entropy_factors(&db, &support, &weights, cfg.total_price);
        Qirana {
            db,
            cfg,
            support,
            weights,
            buyers: HashMap::new(),
            shannon_factor,
            tsallis_factor,
            degraded,
            cache: Mutex::new(PricingCache::new(LRU_CAPACITY)),
            ledger: None,
        }
    }

    /// Locks the pricing cache for the read path. Contention is bounded:
    /// its critical sections are a `BTreeMap` lookup, a handoff scan of at
    /// most 32 entries and an `Arc` clone, never an engine evaluation. A poisoned mutex is
    /// recovered — the cache is a memo whose worst corruption is a wrong
    /// recency tick, never a wrong price.
    fn cache_guard(&self) -> MutexGuard<'_, PricingCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Builds a broker like [`Qirana::new`] and starts a **fresh** durable
    /// ledger in `ledger_cfg.dir` (truncating any previous market there).
    /// Every purchase and committed update is appended to the write-ahead
    /// log before it is applied, so the market can be rebuilt after a
    /// crash with [`Qirana::recover`].
    pub fn open(
        db: Database,
        cfg: QiranaConfig,
        ledger_cfg: LedgerConfig,
    ) -> Result<Self, BrokerError> {
        let mut broker = Self::new(db, cfg)?;
        let mut led = Ledger::create(ledger_cfg)?;
        led.set_telemetry(broker.cfg.engine.telemetry.clone());
        broker.ledger = Some(led);
        Ok(broker)
    }

    /// Rebuilds a crashed market from its ledger directory.
    ///
    /// `db` must be the same **genesis** database the market was
    /// [`Qirana::open`]ed with and `cfg` the same configuration: support
    /// generation and weight assignment are deterministic in `(db, cfg)`,
    /// so the rebuilt broker prices exactly like the original. Recovery
    /// then loads the last snapshot (restoring table rows, buyer
    /// accounts, and the cache generation), replays every logged event
    /// after it, and **re-prices each logged purchase**, verifying the
    /// recomputed price is bitwise-identical to the logged one — the
    /// determinism of the pricing pipeline doubles as a recovery
    /// invariant. A torn tail (crash mid-append) is truncated; corruption
    /// a crash cannot explain surfaces as
    /// [`BrokerError::Ledger`]`(`[`LedgerError::Corrupt`]`)`, and a price
    /// mismatch as [`LedgerError::ReplayDiverged`].
    pub fn recover(
        db: Database,
        cfg: QiranaConfig,
        ledger_cfg: LedgerConfig,
    ) -> Result<Self, BrokerError> {
        let mut broker = Self::new(db, cfg)?;
        let tel = broker.cfg.engine.telemetry.clone();
        let recovery = tel.span(Stage::Recovery);
        let (mut led, recovered) = ledger::recover_dir(&ledger_cfg)?;
        led.set_telemetry(tel.clone());
        if let Some(snap) = &recovered.snapshot {
            recovery.count("snapshot_buyers", snap.buyers.len() as u64);
            broker.restore_snapshot(snap)?;
        }
        {
            let replay = tel.span(Stage::Replay);
            replay.count("events", recovered.events.len() as u64);
            for (seq, ev) in &recovered.events {
                broker.replay_event(*seq, ev)?;
            }
        }
        tel.counter_add(
            "recovery_events_replayed_total",
            recovered.events.len() as u64,
        );
        broker.ledger = Some(led);
        Ok(broker)
    }

    /// Restores broker state from a snapshot: table rows, buyer accounts
    /// (histories re-prepared from their SQL), the cache generation, and
    /// the entropy anchors recomputed against the restored database.
    fn restore_snapshot(&mut self, snap: &SnapshotState) -> Result<(), BrokerError> {
        let mismatch = |detail: String| BrokerError::Ledger(LedgerError::StateMismatch { detail });
        if snap.tables.len() != self.db.tables().len() {
            return Err(mismatch(format!(
                "snapshot has {} tables, database has {}",
                snap.tables.len(),
                self.db.tables().len()
            )));
        }
        for (ti, rows) in snap.tables.iter().enumerate() {
            if rows.len() != self.db.table_at(ti).rows.len() {
                return Err(mismatch(format!(
                    "table {ti}: snapshot has {} rows, database has {} \
                     (updates are cell-level, so row counts never change)",
                    rows.len(),
                    self.db.table_at(ti).rows.len()
                )));
            }
            for (ri, row) in rows.iter().enumerate() {
                if row.len() != self.db.table_at(ti).rows[ri].len() {
                    return Err(mismatch(format!(
                        "table {ti} row {ri}: snapshot has {} cells, database has {}",
                        row.len(),
                        self.db.table_at(ti).rows[ri].len()
                    )));
                }
                for (ci, v) in row.iter().enumerate() {
                    // `set_cell` keeps the lazy key index coherent; only
                    // differing cells are written.
                    if self.db.table_at(ti).rows[ri][ci] != *v {
                        self.db.table_at_mut(ti).set_cell(ri, ci, v.clone());
                    }
                }
            }
        }
        self.buyers.clear();
        for b in &snap.buyers {
            // An account charged under another support size would fail its
            // next buy as `BitmapLength`; refuse the snapshot instead.
            if !b.charged.is_empty() && b.charged.len() != self.support.len() {
                return Err(mismatch(format!(
                    "buyer {}: charged bitmap has {} bits, support set has {}",
                    b.name,
                    b.charged.len(),
                    self.support.len()
                )));
            }
            let mut history = Vec::with_capacity(b.history.len());
            for sql in &b.history {
                let prepared = prepare_query(&self.db, sql).map_err(|e| {
                    mismatch(format!(
                        "buyer {}: logged history query no longer prepares: {e}",
                        b.name
                    ))
                })?;
                history.push(Arc::new(prepared));
            }
            self.buyers.insert(
                b.name.clone(),
                BuyerState {
                    charged: b.charged.clone(),
                    history,
                    paid: b.paid,
                },
            );
        }
        // Post-snapshot cache keys must never collide with pre-crash ones,
        // and the entropy anchors are a function of the restored rows.
        self.cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .restore_generation(snap.generation);
        let (shannon, tsallis) =
            entropy_factors(&self.db, &self.support, &self.weights, self.cfg.total_price);
        self.shannon_factor = shannon;
        self.tsallis_factor = tsallis;
        Ok(())
    }

    /// Replays one logged event against live state, without re-logging.
    /// Purchases are re-priced and verified bitwise against the log.
    fn replay_event(&mut self, seq: u64, ev: &LedgerEvent) -> Result<(), BrokerError> {
        let diverged =
            |detail: String| BrokerError::Ledger(LedgerError::ReplayDiverged { seq, detail });
        match ev {
            LedgerEvent::PurchaseCommitted {
                buyer,
                sql,
                price,
                total_paid,
            } => {
                let purchase = self
                    .buy_inner(buyer, sql, false)
                    .map_err(|e| diverged(format!("re-pricing failed: {e}")))?;
                if purchase.price.to_bits() != price.to_bits() {
                    return Err(diverged(format!(
                        "logged price {price} != replayed price {} for buyer {buyer}",
                        purchase.price
                    )));
                }
                if purchase.total_paid.to_bits() != total_paid.to_bits() {
                    return Err(diverged(format!(
                        "logged balance {total_paid} != replayed balance {} for buyer {buyer}",
                        purchase.total_paid
                    )));
                }
                Ok(())
            }
            LedgerEvent::WritesCommitted { writes } => {
                check_writes(&self.db, writes)
                    .map_err(|e| diverged(format!("logged writes do not fit: {e}")))?;
                self.apply_committed(writes);
                Ok(())
            }
            LedgerEvent::SnapshotTaken { .. } => Ok(()),
        }
    }

    /// The durable ledger, when this broker has one.
    pub fn ledger(&self) -> Option<&Ledger> {
        self.ledger.as_ref()
    }

    /// True when the broker runs on degraded uniform weights (price points
    /// dropped after exhausting [`QiranaConfig::retry`]).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The support-set size actually in use.
    pub fn support_size(&self) -> usize {
        self.support.len()
    }

    /// The instance weights (after any price-point solve).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Executes a query without pricing it (under the configured execution
    /// budget).
    pub fn answer(&self, sql: &str) -> Result<QueryOutput, BrokerError> {
        let plan = qirana_sqlengine::prepare(&self.db, sql)?;
        Ok(self.execute(&plan)?)
    }

    /// Executes `plan` on the stored database under the configured
    /// execution budget, counted like every engine execution.
    fn execute(&self, plan: &qirana_sqlengine::ResolvedSelect) -> Result<QueryOutput, EngineError> {
        let ctx = ExecContext::new(&self.db).with_budget(self.cfg.engine.budget);
        run_plan(&self.cfg.engine.telemetry, plan, &ctx)
    }

    /// History-oblivious price of a single query.
    ///
    /// Quoting is a *read*: it takes `&self`, never moves the pricing
    /// cache's LRU state or counters (not even recency ticks — see
    /// [`PricingCache::peek`]), and therefore any number of quote sessions
    /// may run concurrently with each other. An abandoned quote leaves
    /// prices, LRU state and counters identical to a quote that never
    /// happened; only the bounded handoff memo differs (a missed sweep is
    /// left there for a following buy, see [`crate::cache`]).
    pub fn quote(&self, sql: &str) -> Result<f64, BrokerError> {
        self.quote_bundle(&[sql])
    }

    /// History-oblivious price of a query bundle `Q = (Q₁, …, Qₙ)`.
    /// `&self`, like [`Qirana::quote`].
    pub fn quote_bundle(&self, sqls: &[&str]) -> Result<f64, BrokerError> {
        let prepared: Vec<Prepared> = {
            let span = self.cfg.engine.telemetry.span(Stage::Prepare);
            span.count("queries", sqls.len() as u64);
            sqls.iter()
                .map(|s| prepare_query(&self.db, s))
                .collect::<Result<_, _>>()?
        };
        let bundle: Vec<&Prepared> = prepared.iter().collect();
        let price = self.price_bundle_readonly(&bundle)?;
        self.publish_gauges();
        Ok(price)
    }

    fn entropy_factor(&self) -> f64 {
        match self.cfg.function {
            PricingFunction::ShannonEntropy => self.shannon_factor,
            PricingFunction::QEntropy => self.tsallis_factor,
            _ => 1.0,
        }
    }

    /// The read-only pricing kernel behind the quote family: every member's
    /// artifact from the one read path ([`Self::artifact`]), priced as a
    /// bundle ([`Self::bundle_price`]). The failpoint at its head makes a
    /// warm (all-hit) quote abortable like a cold one.
    fn price_bundle_readonly(&self, bundle: &[&Prepared]) -> Result<f64, BrokerError> {
        failpoint()?;
        let members = bundle
            .iter()
            .map(|q| {
                self.artifact(q, Reader::Quote)
                    .map(|(artifact, _)| artifact)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.bundle_price(&members)
    }

    /// The one read path to the pricing memo, for quotes and buys alike:
    /// `q`'s artifact — full disagreement bitmap or per-instance
    /// fingerprints, per the pricing family — from an LRU peek, else (buys
    /// only) the handoff a quote left, else a sweep of the stored database
    /// (the caller's read lock keeps it still), which a quote then leaves
    /// in the handoff. Next to the artifact comes `q`'s answer on the
    /// stored database, which every sweep computes: a buy gets it from its
    /// own sweep or from the handoff, and only an LRU hit returns none; a
    /// quote hands its answer off instead of returning it. Never moves LRU
    /// state or [`CacheStats`]; only a buy's commit step does
    /// ([`PricingCache::touch_or_insert`]).
    fn artifact(
        &self,
        q: &Prepared,
        reader: Reader,
    ) -> Result<(Artifact, Option<QueryOutput>), BrokerError> {
        let kind = if self.cfg.function.needs_partition() {
            Kind::Blocks
        } else {
            Kind::Bits
        };
        let lookup = self
            .cfg
            .engine
            .telemetry
            .span_with(Stage::CacheLookup, String::new());
        let mut cache = self.cache_guard();
        if let Some(hit) = cache.peek(q.plan_fp, kind) {
            lookup.count("hit", 1);
            return Ok((hit, None));
        }
        if reader == Reader::Buy {
            if let Some((artifact, answer)) = cache.take_handoff(q.plan_fp, kind) {
                lookup.count("handoff", 1);
                return Ok((artifact, Some(answer)));
            }
        }
        lookup.count("miss", 1);
        // The sweep runs outside the lock and the lookup span.
        drop((cache, lookup));
        let swept = sweep(&self.db, q, &self.support, kind, &self.cfg.engine)?;
        let artifact = match kind {
            Kind::Bits => Artifact::Bits(Arc::new(swept.bits())),
            Kind::Blocks => Artifact::Blocks(Arc::new(swept.fps)),
        };
        if reader == Reader::Quote {
            self.cache_guard()
                .hand_off(q.plan_fp, (artifact.clone(), swept.out));
            return Ok((artifact, None));
        }
        Ok((artifact, Some(swept.out)))
    }

    /// The history-oblivious price of a bundle from its members' artifacts.
    fn bundle_price(&self, members: &[Artifact]) -> Result<f64, BrokerError> {
        let (function, total, weights) = (self.cfg.function, self.cfg.total_price, &self.weights);
        Ok(if function.needs_partition() {
            partition_price(function, total, weights, &self.partition(members)?)?
                * self.entropy_factor()
        } else {
            coverage_price(function, total, weights, &self.union_bits(members)?)?
        })
    }

    /// The OR of the members' full bitmaps, as the engine's
    /// [`crate::bundle_disagreements`] computes it.
    fn union_bits(&self, members: &[Artifact]) -> Result<Vec<bool>, BrokerError> {
        let mut disagree = vec![false; self.support.len()];
        for m in members {
            let Artifact::Bits(bits) = m else {
                return Err(self.wrong_family());
            };
            self.check_len(bits.len())?;
            for (d, &b) in disagree.iter_mut().zip(bits.iter()) {
                *d |= b;
            }
        }
        Ok(disagree)
    }

    /// The [`fold_partition`] of the members' fingerprint vectors, which
    /// *is* the bundle partition.
    fn partition(&self, members: &[Artifact]) -> Result<Vec<Fingerprint>, BrokerError> {
        let per_query = members
            .iter()
            .map(|m| match m {
                Artifact::Blocks(fps) => self.check_len(fps.len()).map(|()| fps.as_slice()),
                Artifact::Bits(_) => Err(self.wrong_family()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(fold_partition(&per_query, self.support.len()))
    }

    /// Never zip-truncate a per-instance vector: dropping trailing entries
    /// would silently under-charge every later purchase.
    fn check_len(&self, actual: usize) -> Result<(), BrokerError> {
        let expected = self.support.len();
        if actual == expected {
            Ok(())
        } else {
            Err(BrokerError::BitmapLength { expected, actual })
        }
    }

    /// An artifact of the other family reached pricing (a broker bug).
    fn wrong_family(&self) -> BrokerError {
        BrokerError::Pricing(PricingError {
            function: self.cfg.function,
            needs_partition: self.cfg.function.needs_partition(),
        })
    }

    /// History-aware purchase: prices the query against the buyer's
    /// account, charges only for new information, and returns the answer.
    ///
    /// Only the one new query is evaluated against the support set — O(S),
    /// and not at all when a quote of it just left its sweep in the
    /// handoff — while every history entry's disagreement bitmap or
    /// partition blocks come from the shared memo ([`crate::cache`]).
    /// Prices are bitwise those of re-evaluating the whole accumulated
    /// bundle (O(H·S)), which the differential suite checks.
    ///
    /// [`Qirana::stage_buy`] followed by [`Qirana::commit_staged`]; a
    /// service runs the first under its read lock.
    pub fn buy(&mut self, buyer: &str, sql: &str) -> Result<Purchase, BrokerError> {
        self.buy_inner(buyer, sql, true)
    }

    fn buy_inner(&mut self, buyer: &str, sql: &str, log: bool) -> Result<Purchase, BrokerError> {
        let staged = self.stage_buy(sql)?;
        self.settle(buyer, staged, log)
    }

    /// Phase 1 of a purchase, under `&self`: prepares `sql`, reads its
    /// pricing artifact through the one read path and answers it —
    /// everything about the new query that does not depend on the buyer.
    /// The answer is the one the artifact's sweep computed, whether this
    /// buy's own sweep or a quote's taken from the handoff; only after an
    /// LRU hit, which swept nothing, is the plan executed here. Touches no
    /// account, ledger or LRU state; [`Qirana::commit_staged`] charges it.
    pub fn stage_buy(&self, sql: &str) -> Result<StagedBuy, BrokerError> {
        fault::check(fault::BROKER_BUY).map_err(BrokerError::Injected)?;
        let prepared = {
            let _span = self.cfg.engine.telemetry.span(Stage::Prepare);
            Arc::new(prepare_query(&self.db, sql)?)
        };
        failpoint()?;
        let (artifact, answer) = self.artifact(&prepared, Reader::Buy)?;
        let output = match answer {
            Some(out) => out,
            None => self.execute(&prepared.plan)?,
        };
        Ok(StagedBuy {
            artifact,
            generation: self.cache_guard().generation(),
            prepared,
            output,
        })
    }

    /// Phase 2 of a purchase, under `&mut self`: charges `buyer` for a
    /// staged query. A commit that moved the cache generation since
    /// [`Qirana::stage_buy`] makes it restage in place first.
    pub fn commit_staged(
        &mut self,
        buyer: &str,
        staged: StagedBuy,
    ) -> Result<Purchase, BrokerError> {
        self.settle(buyer, staged, true)
    }

    /// The charging pipeline. Step 1 reads the buyer's history artifacts
    /// (entropy family), passes every member of the purchase through the
    /// commit step in bundle order, and computes the price and the account
    /// mutation without touching any account state; step 2 appends the
    /// event to the ledger (when `log` and one is attached); step 3 applies
    /// the mutation. A crash between steps 2 and 3 is healed by replay —
    /// the logged price is authoritative. `log = false` is the recovery
    /// replay path itself.
    fn settle(
        &mut self,
        buyer: &str,
        mut staged: StagedBuy,
        log: bool,
    ) -> Result<Purchase, BrokerError> {
        if staged.generation != self.cache_generation() {
            // The answer and the artifact describe a database a commit has
            // since replaced.
            staged = self.stage_buy(&staged.prepared.sql)?;
        }
        let StagedBuy {
            prepared,
            output,
            artifact,
            ..
        } = staged;
        let s = self.support.len();
        let entropy = self.cfg.function.needs_partition();

        // Step 1: price, mutating no account state. A failed purchase
        // (budget trip, injected fault, ledger append failure) must not
        // charge the buyer or corrupt their history. The pricing cache may
        // retain artifacts committed before a later failure — that is
        // safe: they are buyer-independent facts about query × support
        // set, not account state.
        //
        // Entropy family: the bundle is the buyer's history plus the new
        // query (§2.2's bundle formulation of history-aware pricing);
        // coverage keeps no per-query history.
        let history: Vec<Arc<Prepared>> = match self.buyers.get(buyer) {
            Some(st) if entropy => st.history.clone(),
            _ => Vec::new(),
        };
        let mut members = history
            .iter()
            .map(|h| self.artifact(h, Reader::Buy).map(|(artifact, _)| artifact))
            .collect::<Result<Vec<_>, _>>()?;
        members.push(artifact);
        let commit = self.cfg.engine.telemetry.span(Stage::BrokerCommit);
        // The commit step, in bundle order: the counters, ticks and
        // evictions a get-then-insert per member always produced.
        let cache = self.cache.get_mut().unwrap_or_else(PoisonError::into_inner);
        let plans = history.iter().chain([&prepared]);
        for (q, member) in plans.zip(&mut members) {
            *member = cache.touch_or_insert(q.plan_fp, member.clone());
        }
        let old_paid = self.buyers.get(buyer).map(|b| b.paid).unwrap_or(0.0);
        let (price, total_after, update) = if entropy {
            let total_now = self.bundle_price(&members)?;
            let mut delta = total_now - old_paid;
            let anchor = if delta <= 0.0 {
                delta = 0.0; // also normalizes -0.0 from float cancellation
                None
            } else {
                // Anchor the stored total at the freshly priced bundle
                // instead of accumulating `paid += delta`: the two are
                // equal in exact arithmetic, but the accumulation drifts
                // by one rounding error per purchase over a long session.
                Some(total_now)
            };
            (
                delta,
                anchor.unwrap_or(old_paid),
                AccountUpdate::Entropy { anchor },
            )
        } else {
            // Coverage family: Algorithm 3's bitmap. The memo holds the
            // query's *full* bitmap (shared across buyers); masking it with
            // the charged bits is Algorithm 3's skip of charged instances,
            // since per-instance verdicts are independent.
            let full = self.union_bits(&members)?;
            let charged = match self.buyers.get(buyer) {
                Some(st) if !st.charged.is_empty() => st.charged.clone(),
                _ => vec![false; s],
            };
            self.check_len(charged.len())?;
            let bits: Vec<bool> = full.iter().zip(&charged).map(|(&b, &c)| b && !c).collect();
            let mut delta = coverage_price(
                self.cfg.function,
                self.cfg.total_price,
                &self.weights,
                &bits,
            )?;
            if delta <= 0.0 {
                delta = 0.0; // normalize -0.0
            }
            let mut merged = charged;
            for (c, b) in merged.iter_mut().zip(&bits) {
                *c |= b;
            }
            (
                delta,
                old_paid + delta,
                AccountUpdate::Coverage { charged: merged },
            )
        };

        // Step 2: append-then-apply. The event must be durable before the
        // account mutates, so a crash can never leave a charged buyer the
        // log knows nothing about. On append failure nothing was applied.
        if log {
            if let Some(led) = self.ledger.as_mut() {
                led.append(&LedgerEvent::PurchaseCommitted {
                    buyer: buyer.to_string(),
                    sql: prepared.sql.clone(),
                    price,
                    total_paid: total_after,
                })?;
            }
        }

        // Step 3: apply the planned mutation.
        let state = self.buyers.entry(buyer.to_string()).or_default();
        match update {
            AccountUpdate::Entropy { anchor } => {
                if let Some(total) = anchor {
                    state.paid = total;
                }
                state.history.push(prepared);
            }
            AccountUpdate::Coverage { charged } => {
                state.charged = charged;
                state.paid = total_after;
            }
        }

        let purchase = Purchase {
            price,
            total_paid: total_after,
            output,
            degraded: self.degraded,
        };
        if log {
            self.maybe_snapshot()?;
        }
        drop(commit);
        self.cfg.engine.telemetry.counter_add("purchases_total", 1);
        self.publish_gauges();
        Ok(purchase)
    }

    /// A buyer's cumulative spend, or `None` for a buyer the broker has
    /// never seen — distinguishable from a real zero balance.
    pub fn buyer_paid(&self, buyer: &str) -> Option<f64> {
        self.buyers.get(buyer).map(|b| b.paid)
    }

    /// Fraction of the support set a buyer has already paid for (coverage
    /// family; 1.0 means all further queries are free), or `None` for a
    /// buyer the broker has never seen.
    pub fn buyer_coverage(&self, buyer: &str) -> Option<f64> {
        self.buyers.get(buyer).map(|b| {
            if b.charged.is_empty() {
                0.0
            } else {
                // qirana-lint::allow(QL002): support-set counts, far below 2^53
                b.charged.iter().filter(|&&c| c).count() as f64 / b.charged.len() as f64
            }
        })
    }

    /// The SQL texts of a buyer's purchased queries, oldest first (entropy
    /// family; the coverage family charges through the bitmap and keeps no
    /// per-query history), or `None` for a buyer the broker has never
    /// seen.
    pub fn buyer_history(&self, buyer: &str) -> Option<Vec<String>> {
        self.buyers
            .get(buyer)
            .map(|b| b.history.iter().map(|p| p.sql.clone()).collect())
    }

    /// Every buyer with an account, sorted by name.
    pub fn buyer_names(&self) -> Vec<String> {
        // qirana-lint::allow(QL001): keys are collected and sorted before use
        let mut names: Vec<String> = self.buyers.keys().cloned().collect();
        names.sort();
        names
    }

    /// Commits a SQL `UPDATE` statement to the stored database and returns
    /// the number of cells changed. The statement is planned read-only
    /// into its cell writes, which then take the [`Qirana::commit_writes`]
    /// path: the ledger logs exactly the writes applied.
    ///
    /// Committing bumps the database generation, which invalidates every
    /// memoized pricing artifact at once (a cached bitmap describes the old
    /// `Q(D)`, so serving it would misprice), and re-anchors the
    /// entropy-family normalization factors against the updated database.
    /// Support set, weights, and buyer accounts are kept: the support
    /// updates are cell-level edits that remain valid neighbors of the new
    /// database, and history-aware accounting still never re-charges an
    /// instance a buyer has paid for.
    pub fn commit_update(&mut self, sql: &str) -> Result<usize, BrokerError> {
        let span = self
            .cfg
            .engine
            .telemetry
            .span_with(Stage::BrokerCommit, "update".into());
        let writes = plan_update(&self.db, sql)?;
        span.count("cells_changed", writes.len() as u64);
        self.commit_cells(&writes)?;
        Ok(writes.len())
    }

    /// Commits a batch of cell writes to the stored database, with the
    /// invalidation semantics of [`Qirana::commit_update`]. A write outside
    /// the database fails the batch as [`BrokerError::Engine`], and a
    /// failed ledger append fails it too; either way nothing is applied
    /// (append-then-apply).
    pub fn commit_writes(&mut self, writes: &[CellWrite]) -> Result<(), BrokerError> {
        let span = self
            .cfg
            .engine
            .telemetry
            .span_with(Stage::BrokerCommit, "writes".into());
        span.count("cells_changed", writes.len() as u64);
        self.commit_cells(writes)
    }

    /// The one seller commit path: check, append, apply, then the
    /// snapshot cadence.
    fn commit_cells(&mut self, writes: &[CellWrite]) -> Result<(), BrokerError> {
        if writes.is_empty() {
            return Ok(());
        }
        check_writes(&self.db, writes)?;
        if let Some(led) = self.ledger.as_mut() {
            led.append(&LedgerEvent::WritesCommitted {
                writes: writes.to_vec(),
            })?;
        }
        self.apply_committed(writes);
        self.maybe_snapshot()?;
        self.publish_gauges();
        Ok(())
    }

    /// Applies logged writes, bumps the cache generation and re-anchors the
    /// entropy factors: shared by the live commit and replay.
    fn apply_committed(&mut self, writes: &[CellWrite]) {
        apply_writes(&mut self.db, writes);
        self.cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .bump_generation();
        let (shannon, tsallis) =
            entropy_factors(&self.db, &self.support, &self.weights, self.cfg.total_price);
        self.shannon_factor = shannon;
        self.tsallis_factor = tsallis;
    }

    /// Takes a snapshot and compacts the log when the configured cadence
    /// is due. Called after every applied event; a no-op without a ledger
    /// or before the cadence.
    fn maybe_snapshot(&mut self) -> Result<(), BrokerError> {
        if !self.ledger.as_ref().is_some_and(Ledger::should_snapshot) {
            return Ok(());
        }
        let snap = self.snapshot_state();
        if let Some(led) = self.ledger.as_mut() {
            led.snapshot_and_compact(&snap)?;
        }
        Ok(())
    }

    /// Serializes the broker's durable state: table rows, buyer accounts
    /// (balances bit-exact, histories as SQL), and the cache generation.
    /// Entropy anchors are recomputed on restore, not stored.
    fn snapshot_state(&self) -> SnapshotState {
        // qirana-lint::allow(QL001): keys are collected and sorted before use
        let mut names: Vec<&String> = self.buyers.keys().collect();
        names.sort();
        let buyers = names
            .into_iter()
            .filter_map(|name| {
                self.buyers.get(name).map(|st| BuyerSnapshot {
                    name: name.clone(),
                    paid: st.paid,
                    charged: st.charged.clone(),
                    history: st.history.iter().map(|p| p.sql.clone()).collect(),
                })
            })
            .collect();
        SnapshotState {
            seq: self.ledger.as_ref().map_or(0, Ledger::last_seq),
            generation: self.cache_guard().generation(),
            tables: self.db.tables().iter().map(|t| t.rows.clone()).collect(),
            buyers,
        }
    }

    /// Publishes cumulative cache counters and fault-injection trip counts
    /// into the telemetry registry as gauges (they are monotone snapshots
    /// of broker-owned state, not deltas, so gauges — set, never added —
    /// keep re-publication idempotent). No-op when telemetry is disabled.
    fn publish_gauges(&self) {
        let tel = &self.cfg.engine.telemetry;
        if !tel.is_enabled() {
            return;
        }
        let (s, entries, handoffs) = {
            let cache = self.cache_guard();
            (cache.stats(), cache.len(), cache.handoffs_taken())
        };
        tel.gauge_set("cache_hits", s.hits);
        tel.gauge_set("cache_misses", s.misses);
        tel.gauge_set("cache_evictions", s.evictions);
        tel.gauge_set("cache_invalidations", s.invalidations);
        tel.gauge_set("cache_entries", entries as u64);
        tel.gauge_set("cache_handoffs_total", handoffs);
        for fp in [
            fault::SUPPORT_GENERATE,
            fault::WEIGHTS_ASSIGN,
            fault::ENGINE_EXECUTE,
            fault::BROKER_BUY,
            fault::LEDGER_APPEND,
            fault::LEDGER_SNAPSHOT,
        ] {
            let fired = fault::fired_count(fp);
            if fired > 0 {
                tel.gauge_set(&format!("fault_fired_{}", fp.replace("::", "_")), fired);
            }
        }
    }

    /// Cumulative pricing-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_guard().stats()
    }

    /// Number of memoized pricing artifacts currently held.
    pub fn cache_len(&self) -> usize {
        self.cache_guard().len()
    }

    /// The database generation the cache keys against (bumped by every
    /// committed update).
    pub fn cache_generation(&self) -> u64 {
        self.cache_guard().generation()
    }

    /// A deterministic image of the cache's eviction order — every entry's
    /// key, kind, and recency tick — for regression tests that assert a
    /// read left eviction state bit-identical.
    pub fn cache_recency_snapshot(&self) -> Vec<(u128, u8, u64)> {
        self.cache_guard().recency_snapshot()
    }
}

/// Computes the entropy-anchoring factors: the raw entropy prices of the
/// finest partition `Q_all` actually induces on the (possibly duplicated)
/// support set, inverted so the broker can rescale to exactly `P`.
fn entropy_factors(
    db: &Database,
    support: &SupportSet,
    weights: &[f64],
    total_price: f64,
) -> (f64, f64) {
    use qirana_sqlengine::Fingerprint;
    let partition: Vec<Fingerprint> = match support {
        SupportSet::Neighborhood(updates) => updates
            .iter()
            .map(|u| Fingerprint(u.signature(db) as u128))
            .collect(),
        SupportSet::Uniform(worlds) => worlds.iter().map(world_fingerprint).collect(),
    };
    let raw_shannon = crate::pricing::shannon_entropy(total_price, weights, &partition);
    let raw_tsallis = crate::pricing::q_entropy(total_price, weights, &partition);
    let factor = |raw: f64| if raw > 0.0 { total_price / raw } else { 1.0 };
    (factor(raw_shannon), factor(raw_tsallis))
}

/// Content fingerprint of a whole database (bag of rows per table).
fn world_fingerprint(db: &Database) -> qirana_sqlengine::Fingerprint {
    let fps: Vec<qirana_sqlengine::Fingerprint> = db
        .tables()
        .iter()
        .map(|t| {
            crate::engine::bag_fp(QueryOutput {
                columns: t.schema.columns.iter().map(|c| c.name.clone()).collect(),
                rows: t.rows.clone(),
                ordered: false,
            })
        })
        .collect();
    crate::engine::combine_bundle(&fps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HANDOFF_CAPACITY;
    use qirana_sqlengine::{ColumnDef, DataType, TableSchema};

    fn twitter_db() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "User",
                vec![
                    ColumnDef::new("uid", DataType::Int),
                    ColumnDef::new("name", DataType::Str),
                    ColumnDef::new("gender", DataType::Str),
                    ColumnDef::new("age", DataType::Int),
                ],
                &["uid"],
            ),
            vec![
                vec![1.into(), "John".into(), "m".into(), 25.into()],
                vec![2.into(), "Alice".into(), "f".into(), 13.into()],
                vec![3.into(), "Bob".into(), "m".into(), 45.into()],
                vec![4.into(), "Anna".into(), "f".into(), 19.into()],
            ],
        );
        db.add_table(
            TableSchema::new(
                "Tweet",
                vec![
                    ColumnDef::new("tid", DataType::Int),
                    ColumnDef::new("uid", DataType::Int),
                    ColumnDef::new("location", DataType::Str),
                ],
                &["tid"],
            ),
            vec![
                vec![1.into(), 3.into(), "CA".into()],
                vec![2.into(), 3.into(), "WA".into()],
                vec![3.into(), 1.into(), "OR".into()],
                vec![4.into(), 2.into(), "CA".into()],
            ],
        );
        db
    }

    fn broker() -> Qirana {
        Qirana::new(
            twitter_db(),
            QiranaConfig {
                support: SupportConfig {
                    size: 500,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn full_dataset_costs_total_price() {
        let q = broker();
        let p = q
            .quote_bundle(&["SELECT * FROM User", "SELECT * FROM Tweet"])
            .unwrap();
        assert!((p - 100.0).abs() < 1e-9, "Q_all must price at P, got {p}");
    }

    #[test]
    fn running_example_no_arbitrage() {
        // §1's motivating example: Q2 (group counts) determines Q1 (count of
        // females), so p(Q1) ≤ p(Q2) must hold.
        let q = broker();
        let p1 = q
            .quote("SELECT count(*) FROM User WHERE gender = 'f'")
            .unwrap();
        let p2 = q
            .quote("SELECT gender, count(*) FROM User GROUP BY gender")
            .unwrap();
        assert!(
            p1 <= p2 + 1e-9,
            "information arbitrage: p(Q1)={p1} > p(Q2)={p2}"
        );
        // And AVG(age) is determined by (SUM(age), COUNT via Q2): bundle
        // subadditivity must make p(Q3) ≤ p(Q2) + p(Q4).
        let p3 = q.quote("SELECT AVG(age) FROM User").unwrap();
        let p4 = q.quote("SELECT SUM(age) FROM User").unwrap();
        assert!(p3 <= p2 + p4 + 1e-9, "p3={p3} p2={p2} p4={p4}");
    }

    #[test]
    fn history_aware_repeat_is_free() {
        let mut q = broker();
        let sql = "SELECT gender, count(*) FROM User GROUP BY gender";
        let first = q.buy("alice", sql).unwrap();
        assert!(first.price > 0.0);
        let second = q.buy("alice", sql).unwrap();
        assert_eq!(second.price, 0.0, "repeat purchase must be free");
        assert_eq!(second.total_paid, first.total_paid);
    }

    #[test]
    fn history_aware_overlap_discounted() {
        // Q5 (male count) is determined by Q2 (group counts): after buying
        // Q2, Q5 must be free — the §1 example's last step.
        let mut q = broker();
        q.buy("alice", "SELECT gender, count(*) FROM User GROUP BY gender")
            .unwrap();
        let q5 = q
            .buy("alice", "SELECT count(*) FROM User WHERE gender = 'm'")
            .unwrap();
        assert_eq!(q5.price, 0.0, "determined query after purchase is free");
    }

    #[test]
    fn history_aware_total_le_oblivious_sum() {
        let q = broker();
        let queries = [
            "SELECT count(*) FROM User WHERE gender = 'f'",
            "SELECT gender, count(*) FROM User GROUP BY gender",
            "SELECT AVG(age) FROM User",
            "SELECT SUM(age) FROM User",
        ];
        let mut oblivious = 0.0;
        for sql in queries {
            oblivious += q.quote(sql).unwrap();
        }
        let mut q2 = broker();
        let mut aware = 0.0;
        for sql in queries {
            aware += q2.buy("bob", sql).unwrap().price;
        }
        assert!(
            aware <= oblivious + 1e-9,
            "history-aware {aware} must not exceed oblivious {oblivious}"
        );
        assert!(aware > 0.0);
    }

    #[test]
    fn buying_everything_makes_rest_free() {
        let mut q = broker();
        q.buy("carol", "SELECT * FROM User").unwrap();
        q.buy("carol", "SELECT * FROM Tweet").unwrap();
        assert!((q.buyer_paid("carol").unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(q.buyer_coverage("carol"), Some(1.0));
        assert_eq!(q.buyer_paid("nobody"), None, "unknown buyer is None");
        assert_eq!(q.buyer_coverage("nobody"), None);
        assert_eq!(q.buyer_names(), vec!["carol".to_string()]);
        let p = q.buy("carol", "SELECT count(*) FROM User").unwrap();
        assert_eq!(p.price, 0.0);
    }

    #[test]
    fn per_buyer_isolation() {
        let mut q = broker();
        q.buy("alice", "SELECT * FROM User").unwrap();
        let bob = q
            .buy("bob", "SELECT count(*) FROM User WHERE gender = 'f'")
            .unwrap();
        assert!(bob.price > 0.0, "bob has no history; he pays");
    }

    #[test]
    fn cardinality_is_public_knowledge() {
        // COUNT(*) with no predicate is constant over I (relation sizes are
        // fixed), so it discloses nothing and must be free.
        let q = broker();
        let p = q.quote("SELECT count(*) FROM User").unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn price_points_flow_through() {
        let mut cfg = QiranaConfig {
            support: SupportConfig {
                size: 400,
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.price_points = vec![PricePoint::new("SELECT * FROM User", 70.0)];
        let q = Qirana::new(twitter_db(), cfg).unwrap();
        let p = q.quote("SELECT * FROM User").unwrap();
        assert!((p - 70.0).abs() < 1e-4, "price point must bind: {p}");
        let all = q
            .quote_bundle(&["SELECT * FROM User", "SELECT * FROM Tweet"])
            .unwrap();
        assert!((all - 100.0).abs() < 1e-4);
    }

    #[test]
    fn entropy_function_brokers_work() {
        for f in [PricingFunction::ShannonEntropy, PricingFunction::QEntropy] {
            let mut q = Qirana::new(
                twitter_db(),
                QiranaConfig {
                    function: f,
                    support: SupportConfig {
                        size: 200,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap();
            let p_small = q
                .quote("SELECT count(*) FROM User WHERE gender='f'")
                .unwrap();
            let p_all = q
                .quote_bundle(&["SELECT * FROM User", "SELECT * FROM Tweet"])
                .unwrap();
            assert!(p_small >= 0.0 && p_small <= p_all + 1e-9);
            assert!((p_all - 100.0).abs() < 1e-6, "{f:?}: Q_all = {p_all}");
            // History-aware repeats stay free.
            let sql = "SELECT gender, count(*) FROM User GROUP BY gender";
            let a = q.buy("zed", sql).unwrap();
            let b = q.buy("zed", sql).unwrap();
            assert!(a.price >= 0.0);
            assert!(b.price.abs() < 1e-9);
        }
    }

    #[test]
    fn repeat_buys_hit_the_cache() {
        let mut q = broker();
        let sql = "SELECT gender, count(*) FROM User GROUP BY gender";
        q.buy("alice", sql).unwrap();
        let first = q.cache_stats();
        assert_eq!(first.hits, 0);
        assert!(first.misses >= 1, "cold buy must miss");
        q.buy("alice", sql).unwrap();
        let second = q.cache_stats();
        assert!(second.hits > first.hits, "repeat must hit");
        assert_eq!(
            second.misses, first.misses,
            "repeat does no new engine work"
        );
    }

    #[test]
    fn cache_is_shared_across_buyers() {
        let mut q = broker();
        let sql = "SELECT gender FROM User WHERE age > 18";
        q.buy("alice", sql).unwrap();
        let before = q.cache_stats();
        let bob = q.buy("bob", sql).unwrap();
        let after = q.cache_stats();
        assert_eq!(after.misses, before.misses, "bob reuses alice's artifact");
        assert_eq!(after.hits, before.hits + 1);
        assert!(
            bob.price > 0.0,
            "shared artifact, separate account: bob still pays"
        );
    }

    /// Regression for the mutable-quote bug: quoting used to demand
    /// `&mut Qirana` because cache hits bumped LRU recency, so a rejected
    /// or abandoned quote perturbed eviction order for every other buyer.
    /// Quotes are now peek-only: served, missed, and rejected quotes must
    /// all leave the cache's eviction state bit-identical.
    #[test]
    fn abandoned_quote_leaves_eviction_state_bit_identical() {
        for function in [
            PricingFunction::WeightedCoverage,
            PricingFunction::ShannonEntropy,
        ] {
            let mut q = Qirana::new(
                twitter_db(),
                QiranaConfig {
                    function,
                    support: SupportConfig {
                        size: 200,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap();
            // Purchases are the only memo write path.
            q.buy("alice", "SELECT * FROM User WHERE age > 20").unwrap();
            q.buy("alice", "SELECT location FROM Tweet").unwrap();
            let recency0 = q.cache_recency_snapshot();
            let stats0 = q.cache_stats();
            assert!(!recency0.is_empty(), "{function:?}: buys populate the memo");

            // A quote served from the memo, a quote that misses it, and a
            // rejected quote (the abandoned session).
            q.quote("SELECT * FROM User WHERE age > 20").unwrap();
            q.quote("SELECT name FROM User WHERE gender = 'f'").unwrap();
            assert!(q.quote("SELECT nope FROM Missing").is_err());

            assert_eq!(
                q.cache_recency_snapshot(),
                recency0,
                "{function:?}: quotes must not move recency ticks"
            );
            assert_eq!(
                q.cache_stats(),
                stats0,
                "{function:?}: quotes must be counter-quiet"
            );
        }
    }

    fn broker_with(function: PricingFunction) -> Qirana {
        Qirana::new(
            twitter_db(),
            QiranaConfig {
                function,
                support: SupportConfig {
                    size: 200,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// The handoff changes time, nothing else: `quote q; buy q` leaves the
    /// prices, counters, eviction state and generation of a bare `buy q`,
    /// for both families — with a warm memo and a buyer history in place,
    /// so the commit step's member order is exercised too.
    #[test]
    fn quote_then_buy_equals_a_bare_buy() {
        for function in [
            PricingFunction::WeightedCoverage,
            PricingFunction::ShannonEntropy,
        ] {
            let make = || {
                let mut b = broker_with(function);
                b.buy("alice", "SELECT * FROM User WHERE age > 20").unwrap();
                b
            };
            let (mut quoted, mut bare) = (make(), make());
            for sql in [
                "SELECT name FROM User WHERE gender = 'f'",
                "SELECT location FROM Tweet",
                "SELECT * FROM User WHERE age > 20",
            ] {
                quoted.quote(sql).unwrap();
                let got = quoted.buy("alice", sql).unwrap();
                let want = bare.buy("alice", sql).unwrap();
                assert_eq!(got.price.to_bits(), want.price.to_bits(), "{function:?}");
                assert_eq!(got.total_paid.to_bits(), want.total_paid.to_bits());
                assert_eq!(quoted.cache_stats(), bare.cache_stats(), "{function:?}");
                assert_eq!(
                    quoted.cache_recency_snapshot(),
                    bare.cache_recency_snapshot(),
                    "{function:?}: {sql}"
                );
                assert_eq!(quoted.cache_generation(), bare.cache_generation());
            }
            // The memoized third query's quote hit the LRU instead.
            assert_eq!(quoted.cache_guard().handoffs_taken(), 2, "{function:?}");
            assert_eq!(bare.cache_guard().handoffs_taken(), 0);
        }
    }

    /// Phase 1, a commit, then phase 2: the charge sees the generation
    /// move, restages, and prices bitwise like a fresh buy on the updated
    /// database.
    #[test]
    fn a_commit_between_the_phases_restages_the_buy() {
        let sql = "SELECT age FROM User WHERE uid = 1";
        let update = "UPDATE User SET age = 26 WHERE uid = 1";
        for function in [
            PricingFunction::WeightedCoverage,
            PricingFunction::ShannonEntropy,
        ] {
            let mut split = broker_with(function);
            let mut fresh = broker_with(function);
            split.quote(sql).unwrap(); // a handoff the commit must discard
            let staged = split.stage_buy(sql).unwrap();
            split.commit_update(update).unwrap();
            fresh.commit_update(update).unwrap();
            let got = split.commit_staged("erin", staged).unwrap();
            let want = fresh.buy("erin", sql).unwrap();
            assert_eq!(got.output.rows, vec![vec![26i64.into()]], "{function:?}");
            assert_eq!(got.price.to_bits(), want.price.to_bits(), "{function:?}");
            assert_eq!(got.total_paid.to_bits(), want.total_paid.to_bits());
            assert_eq!(split.cache_stats(), fresh.cache_stats(), "{function:?}");
        }
    }

    #[test]
    fn the_handoff_keeps_the_latest_quotes_of_one_generation() {
        let mut q = broker();
        let sqls: Vec<String> = (0..=HANDOFF_CAPACITY)
            .map(|k| format!("SELECT uid FROM User WHERE age > {k}"))
            .collect();
        for sql in &sqls {
            q.quote(sql).unwrap();
        }
        assert_eq!(q.cache_guard().handoff_len(), HANDOFF_CAPACITY);
        assert_eq!(q.cache_len(), 0, "quotes fill the handoff, not the LRU");
        q.buy("bob", &sqls[0]).unwrap();
        assert_eq!(q.cache_guard().handoffs_taken(), 0, "the oldest left first");
        q.buy("bob", &sqls[HANDOFF_CAPACITY]).unwrap();
        assert_eq!(q.cache_guard().handoffs_taken(), 1);
        q.commit_update("UPDATE User SET age = 26 WHERE uid = 1")
            .unwrap();
        assert_eq!(
            q.cache_guard().handoff_len(),
            0,
            "a generation bump empties it"
        );
    }

    /// The concurrent-session design rests on `&self` quotes being safe to
    /// share across threads.
    #[test]
    fn broker_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Qirana>();
    }

    #[test]
    fn committed_update_invalidates_cache_and_reprices() {
        let mut q = broker();
        let sql = "SELECT age FROM User WHERE uid = 1";
        let p0 = q.quote(sql).unwrap();
        assert!(p0 > 0.0);
        // Quotes are peek-only reads; buys populate the shared memo.
        assert_eq!(q.cache_len(), 0, "a quote must not populate the memo");
        q.buy("erin", sql).unwrap();
        assert!(q.cache_len() > 0, "buy populates the memo");
        let gen0 = q.cache_generation();

        // A write matching nothing commits nothing and invalidates nothing.
        let noop = q
            .commit_update("UPDATE User SET age = 99 WHERE uid = 999")
            .unwrap();
        assert_eq!(noop, 0);
        assert_eq!(q.cache_generation(), gen0);

        let changed = q
            .commit_update("UPDATE User SET age = 26 WHERE uid = 1")
            .unwrap();
        assert_eq!(changed, 1);
        assert_eq!(q.cache_generation(), gen0 + 1);
        assert_eq!(q.cache_len(), 0, "commit purges every artifact");
        assert!(q.cache_stats().invalidations >= 1);
        // The answer reflects the committed write…
        let out = q.answer(sql).unwrap();
        assert_eq!(out.rows[0][0], 26i64.into());
        // …and the next purchase is recomputed against the new database,
        // not served from a stale artifact.
        let misses0 = q.cache_stats().misses;
        q.buy("erin", sql).unwrap();
        assert!(
            q.cache_stats().misses > misses0,
            "post-commit purchase must re-evaluate"
        );
    }

    #[test]
    fn uniform_support_overprices_selective_queries() {
        let q = Qirana::new(
            twitter_db(),
            QiranaConfig {
                support_type: SupportType::Uniform,
                support: SupportConfig {
                    size: 60,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // §2.4's observation: a uniformly random database is almost surely
        // far from D, so even a query touching one cell prices at a large
        // fraction of P — far above its neighborhood price.
        let narrow = "SELECT age FROM User WHERE uid = 1";
        let p_uniform = q.quote(narrow).unwrap();
        let q_nbrs = broker();
        let p_nbrs = q_nbrs.quote(narrow).unwrap();
        assert!(
            p_uniform > 2.0 * p_nbrs,
            "uniform ({p_uniform}) should far exceed nbrs ({p_nbrs})"
        );
    }

    #[test]
    fn answers_are_correct() {
        let q = broker();
        let out = q
            .answer("SELECT count(*) FROM User WHERE gender = 'f'")
            .unwrap();
        assert_eq!(out.rows[0][0], 2i64.into());
    }
}
