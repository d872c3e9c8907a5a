//! Deterministic fault injection for robustness testing.
//!
//! Named **failpoints** are placed on the broker's critical paths (support
//! generation, weight assignment, query execution, ledger appends and
//! snapshots). In production nothing
//! is armed and every check is a single relaxed atomic load of a global
//! counter — effectively free. Tests arm failpoints through
//! [`arm`]/[`reset`] and drive the degradation machinery end to end:
//!
//! ```
//! use qirana_core::fault;
//!
//! let _guard = fault::serialize_tests(); // registry is process-global
//! fault::arm(fault::WEIGHTS_ASSIGN, fault::Trigger::Once);
//! assert!(fault::check(fault::WEIGHTS_ASSIGN).is_err()); // fires
//! assert!(fault::check(fault::WEIGHTS_ASSIGN).is_ok());  // disarmed
//! fault::reset();
//! ```
//!
//! Triggers are deterministic — [`Trigger::Always`], [`Trigger::Once`],
//! [`Trigger::Nth`] (fire on the n-th hit), and [`Trigger::SeededRatio`]
//! (a seeded counter-hash; the same arm always fires on the same hit
//! sequence) — so failing runs replay exactly.
//!
//! The ledger additionally supports a **byte-granular crash budget**
//! ([`arm_ledger_crash`]): once the armed number of append-stream bytes
//! has reached disk, the write in flight is cut short at exactly that
//! byte, simulating a torn write from a crash mid-`write(2)`. The crash
//! matrix in `tests/crash_matrix.rs` sweeps this budget over every byte
//! offset of a recorded session.

use qirana_sqlengine::fingerprint::mix64;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Failpoint in [`crate::support::generate_support`] / uniform-world
/// generation, before any sampling work.
pub const SUPPORT_GENERATE: &str = "support::generate";
/// Failpoint at the head of weight assignment (the solver call).
pub const WEIGHTS_ASSIGN: &str = "weights::assign";
/// Failpoint at the head of disagreement/partition evaluation — every
/// quote's engine work passes through it.
pub const ENGINE_EXECUTE: &str = "engine::execute";
/// Failpoint in the broker's `buy` path, before the purchased query runs.
pub const BROKER_BUY: &str = "broker::buy";
/// Failpoint at the head of a ledger record append, before any bytes reach
/// the log — a record-granular crash point (abort between records).
pub const LEDGER_APPEND: &str = "ledger::append";
/// Failpoint at the head of a ledger snapshot, before the snapshot file is
/// written.
pub const LEDGER_SNAPSHOT: &str = "ledger::snapshot";

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every hit fires.
    Always,
    /// The first hit fires, then the failpoint disarms itself.
    Once,
    /// Hit number `n` fires (1-based), once.
    Nth(u64),
    /// Fires on roughly `num`-in-`den` hits, chosen by a seeded hash of the
    /// hit counter — deterministic for a given `(seed, hit sequence)`.
    SeededRatio { seed: u64, num: u64, den: u64 },
}

/// An injected failure, carrying the failpoint that fired and its hit
/// number at the time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    pub failpoint: &'static str,
    pub hit: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failpoint {} fired on hit {}", self.failpoint, self.hit)
    }
}

impl std::error::Error for InjectedFault {}

struct Armed {
    trigger: Trigger,
    hits: u64,
    fired: u64,
}

struct Registry {
    points: HashMap<&'static str, Armed>,
}

/// Count of armed failpoints; the `check` fast path is a single relaxed
/// load of this, skipping the registry mutex entirely when zero.
static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            points: HashMap::new(),
        })
    })
}

fn lock() -> MutexGuard<'static, Registry> {
    // A panic while holding the registry lock (e.g. a test assertion in a
    // failure-path test) must not poison fault injection for every later
    // test in the process.
    registry().lock().unwrap_or_else(|p| p.into_inner())
}

/// Arms `failpoint` with `trigger`, replacing any previous arming.
pub fn arm(failpoint: &'static str, trigger: Trigger) {
    let mut reg = lock();
    if reg
        .points
        .insert(
            failpoint,
            Armed {
                trigger,
                hits: 0,
                fired: 0,
            },
        )
        .is_none()
    {
        ARMED_COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarms a single failpoint.
pub fn disarm(failpoint: &'static str) {
    let mut reg = lock();
    if reg.points.remove(failpoint).is_some() {
        ARMED_COUNT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Disarms everything, including any armed ledger crash budget.
pub fn reset() {
    let mut reg = lock();
    let n = reg.points.len();
    reg.points.clear();
    ARMED_COUNT.fetch_sub(n, Ordering::Relaxed);
    disarm_ledger_crash();
}

/// Remaining byte budget for ledger append writes; `u64::MAX` means the
/// crash point is disarmed and appends are unrestricted.
static LEDGER_CRASH_BUDGET: AtomicU64 = AtomicU64::new(u64::MAX);

/// Arms the ledger crash point: exactly `bytes` more bytes of the ledger's
/// append stream reach disk, then the write in flight is cut short — the
/// deterministic analogue of the process dying mid-`write(2)` at that byte.
pub fn arm_ledger_crash(bytes: u64) {
    LEDGER_CRASH_BUDGET.store(bytes, Ordering::SeqCst);
}

/// Disarms the ledger crash point.
pub fn disarm_ledger_crash() {
    LEDGER_CRASH_BUDGET.store(u64::MAX, Ordering::SeqCst);
}

/// Whether a ledger crash budget is currently armed.
pub fn ledger_crash_armed() -> bool {
    LEDGER_CRASH_BUDGET.load(Ordering::SeqCst) != u64::MAX
}

/// Consumes ledger crash budget for a `len`-byte append. `None` means the
/// crash point is disarmed: write everything. `Some(n)` means only the
/// first `n` bytes may be written (`n < len` simulates a torn write; the
/// caller must then treat the ledger as crashed).
pub fn ledger_write_quota(len: usize) -> Option<usize> {
    let res = LEDGER_CRASH_BUDGET.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
        if cur == u64::MAX {
            None
        } else {
            Some(cur.saturating_sub(len as u64))
        }
    });
    match res {
        Err(_) => None,
        Ok(prev) => Some(prev.min(len as u64) as usize),
    }
}

/// Times `failpoint` fired since it was last armed (0 if not armed).
pub fn fired_count(failpoint: &str) -> u64 {
    lock().points.get(failpoint).map_or(0, |a| a.fired)
}

/// Times `failpoint` was hit (checked) since it was last armed.
pub fn hit_count(failpoint: &str) -> u64 {
    lock().points.get(failpoint).map_or(0, |a| a.hits)
}

/// splitmix64: the golden-ratio step, then [`mix64`].
fn splitmix(z: u64) -> u64 {
    mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Checks a failpoint: `Err(InjectedFault)` when armed and its trigger
/// fires, `Ok(())` otherwise. With nothing armed anywhere this is one
/// relaxed atomic load.
pub fn check(failpoint: &'static str) -> Result<(), InjectedFault> {
    if ARMED_COUNT.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    let mut reg = lock();
    let Some(armed) = reg.points.get_mut(failpoint) else {
        return Ok(());
    };
    armed.hits += 1;
    let hit = armed.hits;
    let fires = match armed.trigger {
        Trigger::Always => true,
        Trigger::Once => hit == 1,
        Trigger::Nth(n) => hit == n,
        Trigger::SeededRatio { seed, num, den } => den > 0 && splitmix(seed ^ hit) % den < num,
    };
    if !fires {
        return Ok(());
    }
    armed.fired += 1;
    if matches!(armed.trigger, Trigger::Once | Trigger::Nth(_)) {
        // One-shot triggers disarm after firing but stay registered so hit
        // and fired counters remain observable.
        armed.trigger = Trigger::Nth(0); // never fires again (hits are 1-based)
    }
    Err(InjectedFault { failpoint, hit })
}

/// Serializes tests that arm failpoints: the registry is process-global,
/// so concurrent tests would otherwise see each other's faults. Hold the
/// returned guard for the duration of the test.
pub fn serialize_tests() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_checks_are_ok() {
        let _guard = serialize_tests();
        reset();
        assert!(check(SUPPORT_GENERATE).is_ok());
        assert!(check(WEIGHTS_ASSIGN).is_ok());
    }

    #[test]
    fn once_fires_exactly_once() {
        let _guard = serialize_tests();
        reset();
        arm(ENGINE_EXECUTE, Trigger::Once);
        assert!(check(ENGINE_EXECUTE).is_err());
        assert!(check(ENGINE_EXECUTE).is_ok());
        assert!(check(ENGINE_EXECUTE).is_ok());
        assert_eq!(fired_count(ENGINE_EXECUTE), 1);
        assert_eq!(hit_count(ENGINE_EXECUTE), 3);
        reset();
    }

    #[test]
    fn nth_fires_on_exact_hit() {
        let _guard = serialize_tests();
        reset();
        arm(BROKER_BUY, Trigger::Nth(3));
        assert!(check(BROKER_BUY).is_ok());
        assert!(check(BROKER_BUY).is_ok());
        let err = check(BROKER_BUY).unwrap_err();
        assert_eq!(err.hit, 3);
        assert!(check(BROKER_BUY).is_ok());
        reset();
    }

    #[test]
    fn always_fires_until_disarmed() {
        let _guard = serialize_tests();
        reset();
        arm(SUPPORT_GENERATE, Trigger::Always);
        for _ in 0..5 {
            assert!(check(SUPPORT_GENERATE).is_err());
        }
        disarm(SUPPORT_GENERATE);
        assert!(check(SUPPORT_GENERATE).is_ok());
        reset();
    }

    #[test]
    fn seeded_ratio_is_deterministic() {
        let _guard = serialize_tests();
        reset();
        let trigger = Trigger::SeededRatio {
            seed: 42,
            num: 1,
            den: 3,
        };
        let run = |trigger| {
            reset();
            arm(WEIGHTS_ASSIGN, trigger);
            (0..30)
                .map(|_| check(WEIGHTS_ASSIGN).is_err())
                .collect::<Vec<_>>()
        };
        let a = run(trigger);
        let b = run(trigger);
        assert_eq!(a, b, "same seed must replay identically");
        assert!(a.iter().any(|&f| f), "ratio 1/3 over 30 hits should fire");
        assert!(!a.iter().all(|&f| f), "ratio 1/3 should not always fire");
        reset();
    }

    #[test]
    fn ledger_crash_budget_cuts_at_exact_byte() {
        let _guard = serialize_tests();
        reset();
        assert!(!ledger_crash_armed());
        assert_eq!(ledger_write_quota(100), None, "disarmed: unrestricted");

        arm_ledger_crash(25);
        assert!(ledger_crash_armed());
        assert_eq!(ledger_write_quota(10), Some(10), "fits in budget");
        assert_eq!(ledger_write_quota(10), Some(10), "still fits");
        assert_eq!(ledger_write_quota(10), Some(5), "cut mid-record at byte 25");
        assert_eq!(ledger_write_quota(10), Some(0), "budget exhausted");
        disarm_ledger_crash();
        assert_eq!(ledger_write_quota(10), None);
        reset();
    }

    #[test]
    fn reset_disarms_ledger_crash() {
        let _guard = serialize_tests();
        arm_ledger_crash(7);
        reset();
        assert!(!ledger_crash_armed());
    }

    #[test]
    fn arming_is_per_failpoint() {
        let _guard = serialize_tests();
        reset();
        arm(WEIGHTS_ASSIGN, Trigger::Always);
        assert!(check(ENGINE_EXECUTE).is_ok(), "other failpoints unaffected");
        assert!(check(WEIGHTS_ASSIGN).is_err());
        reset();
    }
}
