//! The service's serialized commit path.
//!
//! Every state-changing request — a purchase or a seller-side update —
//! funnels through this module and nowhere else. A purchase is split the
//! way the broker splits it: the buyer-independent half
//! ([`Qirana::stage_buy`]: prepare, answer, sweep) runs under the *read*
//! lock beside every quote, and only the charge
//! ([`Qirana::commit_staged`]: memo commit step, pricing against the
//! buyer's history, WAL append, apply) takes the *write* lock. Commits are
//! therefore totally ordered with respect to each other and to every
//! in-flight quote: a quote observes the market either entirely before or
//! entirely after a commit, never a torn middle. A commit that lands
//! between a buy's two halves moves the cache generation, and the charge
//! restages under the write lock. The broker's own append-then-apply
//! discipline (WAL first, memory second) runs unchanged under the lock;
//! this module adds ordering, not durability.
//!
//! Quotes deliberately do NOT come through here — they run on the read
//! lock against `&Qirana` (see the crate docs for the split).

use std::sync::{PoisonError, RwLock};

use qirana_core::{BrokerError, Purchase, Qirana};

/// Commits one history-aware purchase for `buyer`.
///
/// The sweep runs under the read lock; the write lock is held only for
/// the charge, which covers the WAL append, the fsync (per the ledger's
/// policy), and the in-memory account mutation as one atomic step from
/// any reader's point of view.
pub fn commit_buy(
    broker: &RwLock<Qirana>,
    buyer: &str,
    sql: &str,
) -> Result<Purchase, BrokerError> {
    let staged = broker
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .stage_buy(sql)?;
    let mut b = broker.write().unwrap_or_else(PoisonError::into_inner);
    b.commit_staged(buyer, staged)
}

/// Commits one seller-side UPDATE, returning the number of changed cells.
///
/// Serialized on the write lock; additionally invalidates the pricing
/// cache (generation bump inside the broker) so no later quote can serve
/// a price computed against the pre-update database.
pub fn commit_update(broker: &RwLock<Qirana>, sql: &str) -> Result<usize, BrokerError> {
    let mut b = broker.write().unwrap_or_else(PoisonError::into_inner);
    b.commit_update(sql)
}
