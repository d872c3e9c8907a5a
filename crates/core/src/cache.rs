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
//!   folding the members' cached vectors per instance with the same
//!   order-sensitive combiner the uncached path uses — bitwise-identical
//!   prices by construction.
//!
//! **Keying and invalidation.** Entries are keyed by the query's structural
//! plan fingerprint ([`crate::normal_form::Prepared::plan_fp`]) *plus* a
//! database generation counter. The broker bumps the generation on every
//! committed update to the stored database ([`crate::Qirana::commit_update`]),
//! which atomically invalidates every memoized artifact: a stale entry can
//! never satisfy a lookup because its recorded generation no longer matches.
//! (The bump also purges eagerly, so stale artifacts do not occupy
//! capacity.)
//!
//! **Bounding.** The cache holds at most [`CacheConfig::capacity`]
//! artifacts; inserting beyond that evicts the least-recently-used entry.
//! Recency is a monotone touch tick, so eviction order is deterministic.
//! Hit/miss/eviction/invalidation counters are exposed via [`CacheStats`]
//! and surfaced on every [`crate::Purchase`].

use qirana_sqlengine::Fingerprint;
use std::collections::BTreeMap;
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

/// The two artifact families, part of the cache key: a query's bitmap and
/// its partition blocks are distinct entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    /// Coverage family: full disagreement bitmap.
    Bits,
    /// Entropy family: per-instance output fingerprints.
    Blocks,
}

/// A memoized artifact. `Arc`-shared: lookups hand out cheap clones, so a
/// hit never copies the O(S) payload and concurrent consumers (the
/// parallel executor's merge results, multiple buyers' charges) alias one
/// allocation.
#[derive(Debug, Clone)]
enum Artifact {
    Bits(Arc<Vec<bool>>),
    Blocks(Arc<Vec<Fingerprint>>),
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
        }
    }

    /// The current database generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the database generation, invalidating (and purging) every
    /// memoized artifact. Called by the broker when an update is committed
    /// to the stored database.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Re-anchors the generation counter after crash recovery so cache
    /// keys minted before the crash can never collide with post-recovery
    /// entries. Purges everything, like [`Self::bump_generation`].
    pub fn restore_generation(&mut self, generation: u64) {
        self.generation = generation;
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Artifacts currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no artifact is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Read-only lookup of a query's full disagreement bitmap: honors the
    /// generation check but moves **nothing** — no recency tick, no
    /// hit/miss counters, no purge of a stale entry. The broker's `&self`
    /// quote path peeks so that an abandoned or rejected quote leaves the
    /// shared eviction order bit-identical for every other buyer; only
    /// committed work ([`crate::Qirana::buy`]) touches recency.
    pub fn peek_bits(&self, plan_fp: Fingerprint) -> Option<Arc<Vec<bool>>> {
        match self.peek(plan_fp, Kind::Bits) {
            Some(Artifact::Bits(b)) => Some(b),
            _ => None,
        }
    }

    /// Read-only lookup of a query's partition fingerprints (see
    /// [`Self::peek_bits`] for the no-mutation contract).
    pub fn peek_blocks(&self, plan_fp: Fingerprint) -> Option<Arc<Vec<Fingerprint>>> {
        match self.peek(plan_fp, Kind::Blocks) {
            Some(Artifact::Blocks(b)) => Some(b),
            _ => None,
        }
    }

    fn peek(&self, plan_fp: Fingerprint, kind: Kind) -> Option<Artifact> {
        match self.entries.get(&(plan_fp.0, kind)) {
            Some(e) if e.generation == self.generation => Some(e.artifact.clone()),
            _ => None,
        }
    }

    /// The current touch tick (monotone; advances on every counted lookup
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

    /// Looks up a query's full disagreement bitmap.
    pub fn get_bits(&mut self, plan_fp: Fingerprint) -> Option<Arc<Vec<bool>>> {
        match self.get(plan_fp, Kind::Bits) {
            Some(Artifact::Bits(b)) => Some(b),
            _ => None,
        }
    }

    /// Memoizes a query's full disagreement bitmap under the current
    /// generation.
    pub fn insert_bits(&mut self, plan_fp: Fingerprint, bits: Arc<Vec<bool>>) {
        self.insert(plan_fp, Kind::Bits, Artifact::Bits(bits));
    }

    /// Looks up a query's per-instance partition fingerprints.
    pub fn get_blocks(&mut self, plan_fp: Fingerprint) -> Option<Arc<Vec<Fingerprint>>> {
        match self.get(plan_fp, Kind::Blocks) {
            Some(Artifact::Blocks(b)) => Some(b),
            _ => None,
        }
    }

    /// Memoizes a query's per-instance partition fingerprints under the
    /// current generation.
    pub fn insert_blocks(&mut self, plan_fp: Fingerprint, blocks: Arc<Vec<Fingerprint>>) {
        self.insert(plan_fp, Kind::Blocks, Artifact::Blocks(blocks));
    }

    fn get(&mut self, plan_fp: Fingerprint, kind: Kind) -> Option<Artifact> {
        let key = (plan_fp.0, kind);
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

    fn insert(&mut self, plan_fp: Fingerprint, kind: Kind, artifact: Artifact) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.entries.insert(
            (plan_fp.0, kind),
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

    #[test]
    fn hit_and_miss_counting() {
        let mut c = PricingCache::new(8);
        assert!(c.get_bits(fp(1)).is_none());
        c.insert_bits(fp(1), Arc::new(vec![true, false]));
        let got = c.get_bits(fp(1)).unwrap();
        assert_eq!(*got, vec![true, false]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn kinds_do_not_collide() {
        let mut c = PricingCache::new(8);
        c.insert_bits(fp(1), Arc::new(vec![true]));
        assert!(c.get_blocks(fp(1)).is_none(), "bits must not answer blocks");
        c.insert_blocks(fp(1), Arc::new(vec![fp(9)]));
        assert_eq!(c.len(), 2);
        assert_eq!(*c.get_blocks(fp(1)).unwrap(), vec![fp(9)]);
        assert_eq!(*c.get_bits(fp(1)).unwrap(), vec![true]);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = PricingCache::new(2);
        c.insert_bits(fp(1), Arc::new(vec![true]));
        c.insert_bits(fp(2), Arc::new(vec![false]));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get_bits(fp(1)).is_some());
        c.insert_bits(fp(3), Arc::new(vec![true]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get_bits(fp(1)).is_some(), "recently touched survives");
        assert!(c.get_bits(fp(2)).is_none(), "LRU entry evicted");
        assert!(c.get_bits(fp(3)).is_some());
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let mut c = PricingCache::new(8);
        c.insert_bits(fp(1), Arc::new(vec![true]));
        c.insert_blocks(fp(2), Arc::new(vec![fp(5)]));
        c.bump_generation();
        assert_eq!(c.generation(), 1);
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 2);
        assert!(c.get_bits(fp(1)).is_none());
        // Re-inserted artifacts live under the new generation.
        c.insert_bits(fp(1), Arc::new(vec![false]));
        assert_eq!(*c.get_bits(fp(1)).unwrap(), vec![false]);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = PricingCache::new(0);
        c.insert_bits(fp(1), Arc::new(vec![true]));
        assert!(c.is_empty());
        assert!(c.get_bits(fp(1)).is_none());
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn peeks_move_nothing() {
        let mut c = PricingCache::new(4);
        c.insert_bits(fp(1), Arc::new(vec![true]));
        c.insert_blocks(fp(2), Arc::new(vec![fp(9)]));
        let stats = c.stats();
        let tick = c.tick();
        let recency = c.recency_snapshot();
        assert_eq!(*c.peek_bits(fp(1)).unwrap(), vec![true]);
        assert_eq!(*c.peek_blocks(fp(2)).unwrap(), vec![fp(9)]);
        assert!(c.peek_bits(fp(99)).is_none());
        assert_eq!(c.stats(), stats, "peeks never count");
        assert_eq!(c.tick(), tick, "peeks never tick");
        assert_eq!(c.recency_snapshot(), recency, "peeks never touch recency");
        // A stale-generation entry is invisible to peeks but NOT purged.
        c.bump_generation();
        c.insert_bits(fp(3), Arc::new(vec![false]));
        assert!(c.peek_bits(fp(1)).is_none());
        assert!(c.peek_blocks(fp(2)).is_none());
        assert!(c.peek_bits(fp(3)).is_some());
    }

    #[test]
    fn lookups_share_one_allocation() {
        let mut c = PricingCache::new(4);
        let bits = Arc::new(vec![true; 3]);
        c.insert_bits(fp(7), Arc::clone(&bits));
        let a = c.get_bits(fp(7)).unwrap();
        let b = c.get_bits(fp(7)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits alias the stored allocation");
        assert!(Arc::ptr_eq(&a, &bits));
    }
}
