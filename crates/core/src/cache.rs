//! Shared per-query pricing-artifact memo (incremental history-aware
//! pricing).
//!
//! History-aware pricing (§2.2 / §3.5) used to re-derive the *entire*
//! accumulated bundle's evidence on every purchase: every past query was
//! re-executed over every support neighbor, an O(H·S) engine sweep per
//! `buy` and O(H²·S) per session. But per-query information content is
//! fixed once computed — the disagreement bitmap and the per-instance
//! output fingerprints depend only on the query plan, the support set, and
//! the stored database, never on the buyer — so the broker memoizes them
//! here and a purchase only evaluates the one *new* query (O(S)).
//!
//! Two artifact families are cached, mirroring the engine's two pricing
//! primitives:
//!
//! * **disagreement bitmaps** (coverage family): the full, unmasked
//!   `Q(Dᵢ) ≠ Q(D)` bit per support instance. Per-buyer charging masks the
//!   shared bitmap with the account's charged bits *after* lookup, so one
//!   entry serves every buyer.
//! * **partition blocks** (entropy family): the query's own output
//!   fingerprint per support instance. A bundle's partition is recovered by
//!   folding the members' vectors per instance with the same
//!   order-sensitive combiner the engine uses — bitwise-identical prices by
//!   construction.
//!
//! **One read path, one commit step.** The broker reaches the memo in
//! exactly two places. Its read function (`&self`, quotes and buys alike)
//! [`PricingCache::peek`]s the LRU — no recency tick, no counter — and on a
//! miss sweeps the stored database, read-only. Its commit step (`&mut self`, buys
//! only) hands every member artifact of the purchase to
//! [`PricingCache::touch_or_insert`]: a `get` on a hit, otherwise a counted
//! miss and an insert — the member order, ticks, counters and evictions a
//! get-then-insert buy always produced. Quotes therefore never move LRU
//! state.
//!
//! **The handoff.** A quote's missed sweep is not thrown away: the read
//! function leaves it in a small first-in-first-out side memo
//! ([`PricingCache::hand_off`], [`HANDOFF_CAPACITY`] entries), and only a
//! buy's read may [`PricingCache::take_handoff`] it — so quote-then-buy
//! sweeps once. An entry carries the artifact and the query's answer on
//! the stored database, which every sweep computes, so such a buy
//! executes nothing at all. Quotes never read the handoff (a
//! repeated cold quote still sweeps in full), it is not part of
//! [`CacheStats`], [`PricingCache::len`] or the recency snapshot, and a
//! generation change empties it: prices, answers, LRU state and counters
//! are identical with or without it; only time differs. The LRU keeps
//! artifacts only: an answer is O(output), and the handoff's cap bounds
//! how many wait.
//!
//! **Keying and invalidation.** Entries are keyed by the query's structural
//! plan fingerprint ([`crate::normal_form::Prepared::plan_fp`]) and the
//! artifact [`Kind`], *plus* a database generation counter. The broker
//! bumps the generation on every committed update to the stored database
//! ([`crate::Qirana::commit_update`]), which atomically invalidates every
//! memoized artifact: a stale entry can never satisfy a lookup because its
//! recorded generation no longer matches. (The bump also purges eagerly,
//! so stale artifacts do not occupy capacity.)
//!
//! **Bounding.** The cache holds at most [`CacheConfig::capacity`]
//! artifacts; inserting beyond that evicts the least-recently-used entry.
//! Recency is a monotone touch tick, so eviction order is deterministic.
//! Hit/miss/eviction/invalidation counters are exposed via [`CacheStats`]
//! and surfaced on every [`crate::Purchase`].

use qirana_sqlengine::{Fingerprint, QueryOutput};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Pricing-cache knobs, threaded through [`crate::EngineOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch. Off, the broker prices exactly as the pre-cache
    /// engine did (the differential suite holds the two paths bitwise
    /// equal, so this is a performance switch, not a semantic one).
    pub enabled: bool,
    /// Maximum number of memoized artifacts (LRU-evicted beyond this).
    /// Each artifact is O(S): one bit — or one 128-bit fingerprint — per
    /// support instance. A capacity of 0 disables storage entirely.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            capacity: 1024,
        }
    }
}

impl CacheConfig {
    /// Caching off (the pre-cache engine behavior).
    pub fn disabled() -> Self {
        CacheConfig {
            enabled: false,
            capacity: 0,
        }
    }

    /// Caching on with an explicit LRU capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            enabled: true,
            capacity,
        }
    }
}

/// Cumulative cache counters (monotone over a broker's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// Entries dropped because the database generation advanced.
    pub invalidations: u64,
}

/// Artifacts the quote path leaves for a following buy. Fixed: the
/// handoff only has to bridge one quote-to-buy gap per concurrent buyer.
pub const HANDOFF_CAPACITY: usize = 32;

/// A handoff entry: a quote's artifact, and the query's answer on the
/// stored database that the quote's sweep computed.
pub type Handed = (Artifact, QueryOutput);

/// The two artifact families, part of the cache key: a query's bitmap and
/// its partition blocks are distinct entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Coverage family: full disagreement bitmap.
    Bits,
    /// Entropy family: per-instance output fingerprints.
    Blocks,
}

/// A memoized artifact. `Arc`-shared: lookups hand out cheap clones, so a
/// hit never copies the O(S) payload and concurrent consumers (multiple
/// buyers' charges, a quote's handoff and the buy that takes it) alias one
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Artifact {
    /// A query's full disagreement bitmap.
    Bits(Arc<Vec<bool>>),
    /// A query's output fingerprint per support instance.
    Blocks(Arc<Vec<Fingerprint>>),
}

impl Artifact {
    /// The family this artifact belongs to (its half of the cache key).
    pub fn kind(&self) -> Kind {
        match self {
            Artifact::Bits(_) => Kind::Bits,
            Artifact::Blocks(_) => Kind::Blocks,
        }
    }
}

#[derive(Debug)]
struct Entry {
    artifact: Artifact,
    /// Database generation this artifact was computed under.
    generation: u64,
    /// Monotone touch tick (unique per touch) — the LRU recency order.
    last_used: u64,
}

/// The broker-owned pricing-artifact memo. See the module docs for the
/// keying, sharing, and invalidation contract.
#[derive(Debug)]
pub struct PricingCache {
    capacity: usize,
    generation: u64,
    tick: u64,
    // BTreeMap, not HashMap: the LRU eviction scan below iterates the map,
    // and iteration order must be deterministic (qirana-lint QL001).
    entries: BTreeMap<(u128, Kind), Entry>,
    stats: CacheStats,
    /// Current-generation artifacts quotes computed, with the answers
    /// their sweeps computed, oldest first.
    handoff: VecDeque<((u128, Kind), Handed)>,
    /// Artifacts buys took from the handoff (monotone).
    handoffs: u64,
}

impl PricingCache {
    /// An empty cache bounded to `capacity` artifacts.
    pub fn new(capacity: usize) -> Self {
        PricingCache {
            capacity,
            generation: 0,
            tick: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
            handoff: VecDeque::new(),
            handoffs: 0,
        }
    }

    /// The current database generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the database generation, invalidating (and purging) every
    /// memoized artifact and the handoff. Called by the broker when an
    /// update is committed to the stored database.
    pub fn bump_generation(&mut self) {
        self.restore_generation(self.generation + 1);
    }

    /// Re-anchors the generation counter after crash recovery so cache
    /// keys minted before the crash can never collide with post-recovery
    /// entries. Purges everything, like [`Self::bump_generation`].
    pub fn restore_generation(&mut self, generation: u64) {
        self.generation = generation;
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.handoff.clear();
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Artifacts currently held by the LRU (the handoff is not counted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the LRU holds no artifact.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Read-only lookup: honors the generation check but moves
    /// **nothing** — no recency tick, no hit/miss counters, no purge of a
    /// stale entry — so a read that is abandoned or rejected leaves the
    /// shared eviction order bit-identical for every other buyer; only a
    /// committed buy ([`Self::touch_or_insert`]) touches recency.
    pub fn peek(&self, plan_fp: Fingerprint, kind: Kind) -> Option<Artifact> {
        match self.entries.get(&(plan_fp.0, kind)) {
            Some(e) if e.generation == self.generation => Some(e.artifact.clone()),
            _ => None,
        }
    }

    /// The commit step of a buy: a counted `get` (hit, recency touch) when
    /// the memo holds `plan_fp`'s artifact of the same kind, otherwise a
    /// counted miss and an insert of `artifact` under the current
    /// generation. Returns the memoized artifact (on a miss, `artifact`).
    pub fn touch_or_insert(&mut self, plan_fp: Fingerprint, artifact: Artifact) -> Artifact {
        let key = (plan_fp.0, artifact.kind());
        if let Some(hit) = self.get(key) {
            return hit;
        }
        self.insert(key, artifact.clone());
        artifact
    }

    /// Leaves a quote's freshly swept artifact, and the answer its sweep
    /// computed, for a following buy. A key already waiting is
    /// kept; beyond [`HANDOFF_CAPACITY`] the oldest entry goes. Stores
    /// nothing when the cache has no capacity (disabled).
    pub fn hand_off(&mut self, plan_fp: Fingerprint, (artifact, answer): Handed) {
        let key = (plan_fp.0, artifact.kind());
        if self.capacity == 0 || self.handoff.iter().any(|(k, _)| *k == key) {
            return;
        }
        if self.handoff.len() == HANDOFF_CAPACITY {
            self.handoff.pop_front();
        }
        self.handoff.push_back((key, (artifact, answer)));
    }

    /// Removes and returns what a quote left for `plan_fp`, if anything
    /// (the buy side of [`Self::hand_off`]).
    pub fn take_handoff(&mut self, plan_fp: Fingerprint, kind: Kind) -> Option<Handed> {
        let at = self
            .handoff
            .iter()
            .position(|(k, _)| *k == (plan_fp.0, kind))?;
        self.handoffs += 1;
        self.handoff.remove(at).map(|(_, handed)| handed)
    }

    /// Artifacts waiting in the handoff.
    pub fn handoff_len(&self) -> usize {
        self.handoff.len()
    }

    /// How many artifacts buys have taken from the handoff (monotone).
    pub fn handoffs_taken(&self) -> u64 {
        self.handoffs
    }

    /// The current touch tick (monotone; advances on every counted hit
    /// and insert). Exposed so tests can pin that read-only paths leave
    /// recency untouched.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// A stable image of the eviction-relevant state: one
    /// `(plan fingerprint, kind discriminant, last-used tick)` triple per
    /// entry, in key order. Two caches with equal snapshots (and equal
    /// [`Self::tick`]) evict identically forever after, so the regression
    /// suite compares snapshots around operations that must not perturb
    /// recency.
    pub fn recency_snapshot(&self) -> Vec<(u128, u8, u64)> {
        self.entries
            .iter()
            .map(|(&(fp, kind), e)| (fp, kind as u8, e.last_used))
            .collect()
    }

    fn get(&mut self, key: (u128, Kind)) -> Option<Artifact> {
        match self.entries.get_mut(&key) {
            Some(e) if e.generation == self.generation => {
                self.tick += 1;
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some(e.artifact.clone())
            }
            Some(_) => {
                // Stale generation (defense in depth: bump purges eagerly,
                // but a stale entry must never satisfy a lookup).
                self.entries.remove(&key);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: (u128, Kind), artifact: Artifact) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                artifact,
                generation: self.generation,
                last_used: self.tick,
            },
        );
        while self.entries.len() > self.capacity {
            // Ticks are unique, so the minimum is unambiguous and the
            // eviction order deterministic.
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(x: u128) -> Fingerprint {
        Fingerprint(x)
    }

    fn bits(b: &[bool]) -> Artifact {
        Artifact::Bits(Arc::new(b.to_vec()))
    }

    fn blocks(b: &[u128]) -> Artifact {
        Artifact::Blocks(Arc::new(b.iter().map(|&x| fp(x)).collect()))
    }

    fn answer(n: i64) -> QueryOutput {
        QueryOutput {
            columns: vec!["n".into()],
            rows: vec![vec![n.into()]],
            ordered: false,
        }
    }

    #[test]
    fn touch_or_insert_counts_a_miss_then_hits() {
        let mut c = PricingCache::new(8);
        assert_eq!(
            c.touch_or_insert(fp(1), bits(&[true, false])),
            bits(&[true, false])
        );
        // A hit returns the memoized artifact, not the one offered.
        assert_eq!(
            c.touch_or_insert(fp(1), bits(&[false])),
            bits(&[true, false])
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(c.tick(), 2, "one insert tick, one touch tick");
    }

    #[test]
    fn kinds_do_not_collide() {
        let mut c = PricingCache::new(8);
        c.touch_or_insert(fp(1), bits(&[true]));
        assert!(
            c.peek(fp(1), Kind::Blocks).is_none(),
            "bits must not answer blocks"
        );
        c.touch_or_insert(fp(1), blocks(&[9]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(fp(1), Kind::Blocks), Some(blocks(&[9])));
        assert_eq!(c.peek(fp(1), Kind::Bits), Some(bits(&[true])));
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = PricingCache::new(2);
        c.touch_or_insert(fp(1), bits(&[true]));
        c.touch_or_insert(fp(2), bits(&[false]));
        // Touch 1 so 2 becomes the LRU victim.
        c.touch_or_insert(fp(1), bits(&[true]));
        c.touch_or_insert(fp(3), bits(&[true]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(
            c.peek(fp(1), Kind::Bits).is_some(),
            "recently touched survives"
        );
        assert!(c.peek(fp(2), Kind::Bits).is_none(), "LRU entry evicted");
        assert!(c.peek(fp(3), Kind::Bits).is_some());
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let mut c = PricingCache::new(8);
        c.touch_or_insert(fp(1), bits(&[true]));
        c.touch_or_insert(fp(2), blocks(&[5]));
        c.hand_off(fp(3), (bits(&[true]), answer(3)));
        c.bump_generation();
        assert_eq!(c.generation(), 1);
        assert!(c.is_empty());
        assert_eq!(c.handoff_len(), 0, "the handoff is per generation");
        assert_eq!(c.stats().invalidations, 2);
        assert!(c.peek(fp(1), Kind::Bits).is_none());
        // Re-inserted artifacts live under the new generation.
        c.touch_or_insert(fp(1), bits(&[false]));
        assert_eq!(c.peek(fp(1), Kind::Bits), Some(bits(&[false])));
        c.hand_off(fp(3), (bits(&[true]), answer(3)));
        c.restore_generation(7);
        assert_eq!(c.handoff_len(), 0, "a restore empties the handoff too");
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = PricingCache::new(0);
        c.touch_or_insert(fp(1), bits(&[true]));
        c.hand_off(fp(2), (bits(&[true]), answer(2)));
        assert!(c.is_empty());
        assert_eq!(c.handoff_len(), 0);
        assert!(c.peek(fp(1), Kind::Bits).is_none());
        assert!(c.take_handoff(fp(2), Kind::Bits).is_none());
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn peeks_move_nothing() {
        let mut c = PricingCache::new(4);
        c.touch_or_insert(fp(1), bits(&[true]));
        c.touch_or_insert(fp(2), blocks(&[9]));
        let stats = c.stats();
        let tick = c.tick();
        let recency = c.recency_snapshot();
        assert_eq!(c.peek(fp(1), Kind::Bits), Some(bits(&[true])));
        assert_eq!(c.peek(fp(2), Kind::Blocks), Some(blocks(&[9])));
        assert!(c.peek(fp(99), Kind::Bits).is_none());
        assert_eq!(c.stats(), stats, "peeks never count");
        assert_eq!(c.tick(), tick, "peeks never tick");
        assert_eq!(c.recency_snapshot(), recency, "peeks never touch recency");
        // A stale-generation entry is invisible to peeks but NOT purged.
        c.bump_generation();
        c.touch_or_insert(fp(3), bits(&[false]));
        assert!(c.peek(fp(1), Kind::Bits).is_none());
        assert!(c.peek(fp(2), Kind::Blocks).is_none());
        assert!(c.peek(fp(3), Kind::Bits).is_some());
    }

    #[test]
    fn handoff_is_fifo_bounded_and_moves_no_lru_state() {
        let mut c = PricingCache::new(4);
        c.touch_or_insert(fp(0), bits(&[true]));
        let (stats, tick, recency) = (c.stats(), c.tick(), c.recency_snapshot());
        for k in 1..=HANDOFF_CAPACITY as u128 + 1 {
            c.hand_off(fp(k), (bits(&[k % 2 == 0]), answer(k as i64)));
        }
        c.hand_off(fp(5), (bits(&[true]), answer(0))); // already waiting: kept once
        assert_eq!(c.handoff_len(), HANDOFF_CAPACITY);
        assert!(
            c.take_handoff(fp(1), Kind::Bits).is_none(),
            "oldest left first"
        );
        assert!(
            c.take_handoff(fp(5), Kind::Blocks).is_none(),
            "kind is keyed"
        );
        assert_eq!(
            c.take_handoff(fp(5), Kind::Bits),
            Some((bits(&[false]), answer(5))),
            "the first entry for a key stays"
        );
        assert!(c.take_handoff(fp(5), Kind::Bits).is_none(), "taken once");
        assert_eq!(c.handoffs_taken(), 1);
        assert_eq!(c.handoff_len(), HANDOFF_CAPACITY - 1);
        assert_eq!(
            (c.stats(), c.tick(), c.recency_snapshot(), c.len()),
            (stats, tick, recency, 1),
            "the handoff is invisible to the LRU"
        );
    }

    #[test]
    fn handoff_carries_the_answer_next_to_the_artifact() {
        let mut c = PricingCache::new(4);
        c.hand_off(fp(1), (blocks(&[9]), answer(7)));
        assert_eq!(
            c.take_handoff(fp(1), Kind::Blocks),
            Some((blocks(&[9]), answer(7)))
        );
        assert!(c.is_empty(), "the LRU never holds an answer");
    }

    #[test]
    fn lookups_share_one_allocation() {
        let mut c = PricingCache::new(4);
        let stored = Arc::new(vec![true; 3]);
        c.touch_or_insert(fp(7), Artifact::Bits(Arc::clone(&stored)));
        let (Some(Artifact::Bits(a)), Artifact::Bits(b)) = (
            c.peek(fp(7), Kind::Bits),
            c.touch_or_insert(fp(7), bits(&[true; 3])),
        ) else {
            panic!("bits expected");
        };
        assert!(Arc::ptr_eq(&a, &b), "hits alias the stored allocation");
        assert!(Arc::ptr_eq(&a, &stored));
    }
}
