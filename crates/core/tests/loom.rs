//! Concurrency models for the work-distribution protocol of
//! `qirana_core::parallel::fan_out`'s worker pool, run under the vendored loom
//! stand-in's schedule perturbation (see `vendor/loom` for what that does
//! and does not guarantee).
//!
//! The models restate the executor's protocol — a chunked atomic steal
//! counter, a cooperative stop flag, index-addressed result slots, and
//! lowest-index-error selection — with loom's instrumented primitives, and
//! assert the three invariants the pricing layer's determinism rests on:
//!
//! 1. every index in `0..n` is claimed by exactly one worker;
//! 2. the merged result is index-ordered and complete, no matter which
//!    worker computed which slot or in what order;
//! 3. when several workers fail, the error carrying the lowest index wins,
//!    and an error in the very first chunk always beats any later one.
//!
//! Build-gated: `cargo test -p qirana-core --features loom --test loom`.
#![cfg(feature = "loom")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};

/// Mirrors `parallel::CHUNK`, scaled down so a model run has several
/// steals per worker.
const CHUNK: usize = 4;

/// One worker of the steal loop. `fail` marks indices whose "execution"
/// errors; the worker records claims, raises `stop`, and reports its first
/// error exactly as `fan_out`'s closure loop does.
#[allow(clippy::type_complexity)]
fn worker(
    n: usize,
    next: &AtomicUsize,
    stop: &AtomicBool,
    claims: &[AtomicUsize],
    fail: &dyn Fn(usize) -> bool,
) -> (Vec<(usize, usize)>, Option<usize>) {
    let mut out = Vec::new();
    let mut err = None;
    'steal: while !stop.load(Ordering::Relaxed) {
        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for i in start..(start + CHUNK).min(n) {
            claims[i].fetch_add(1, Ordering::Relaxed);
            if fail(i) {
                stop.store(true, Ordering::Relaxed);
                err = Some(i);
                break 'steal;
            }
            out.push((i, i * 10 + 1)); // a value recomputable from i
        }
    }
    (out, err)
}

/// Spawns `workers` threads over `0..n` and merges their results the way
/// `fan_out` does: slots by index, lowest-index error wins.
#[allow(clippy::type_complexity)]
fn run_model(
    n: usize,
    workers: usize,
    fail: fn(usize) -> bool,
) -> (Vec<AtomicUsize>, Vec<Option<usize>>, Option<usize>) {
    let next = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let claims: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
    let results = Arc::new(Mutex::new(Vec::new()));

    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let (next, stop, claims, results) = (
                Arc::clone(&next),
                Arc::clone(&stop),
                Arc::clone(&claims),
                Arc::clone(&results),
            );
            loom::thread::spawn(move || {
                let r = worker(n, &next, &stop, &claims, &fail);
                results.lock().unwrap().push(r);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("model worker panicked");
    }

    let mut slots: Vec<Option<usize>> = vec![None; n];
    let mut first_err: Option<usize> = None;
    for (out, err) in results.lock().unwrap().drain(..) {
        for (i, v) in out {
            assert!(slots[i].is_none(), "slot {i} written twice");
            slots[i] = Some(v);
        }
        if let Some(i) = err {
            if first_err.is_none_or(|j| i < j) {
                first_err = Some(i);
            }
        }
    }
    let claims = Arc::try_unwrap(claims).expect("all workers joined");
    (claims, slots, first_err)
}

#[test]
fn every_index_claimed_exactly_once() {
    loom::model(|| {
        // 23 indices, 3 workers: a non-multiple of CHUNK forces a partial
        // final chunk, and more steals than workers forces interleaving.
        let (claims, _, err) = run_model(23, 3, |_| false);
        assert_eq!(err, None);
        for (i, c) in claims.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} claim count");
        }
    });
}

#[test]
fn merge_is_index_ordered_and_complete() {
    loom::model(|| {
        let (_, slots, err) = run_model(29, 4, |_| false);
        assert_eq!(err, None);
        for (i, s) in slots.iter().enumerate() {
            // The slot holds i's own value: results cannot land in another
            // index's slot whatever the steal order was.
            assert_eq!(*s, Some(i * 10 + 1), "slot {i}");
        }
    });
}

#[test]
fn lowest_index_error_wins() {
    loom::model(|| {
        // Indices 2 and 17 fail. Index 2 sits in the first chunk, which is
        // always claimed (the first fetch_add returns 0 before any stop
        // can be raised), so the merged error must be 2 even when another
        // worker reaches 17 first and stops the pool.
        let (claims, _, err) = run_model(23, 3, |i| i == 2 || i == 17);
        assert_eq!(err, Some(2));
        assert_eq!(claims[2].load(Ordering::Relaxed), 1, "index 2 claimed");
    });
}

#[test]
fn stop_flag_halts_the_pool_without_losing_the_error() {
    loom::model(|| {
        // Every index from 8 on fails: whichever worker first leaves the
        // initial two chunks raises stop. The reported error must be the
        // minimum failing index actually claimed — and the claim counts
        // must stay exactly-once even while the pool is being torn down.
        let (claims, slots, err) = run_model(40, 4, |i| i >= 8);
        let e = err.expect("some failing index was claimed");
        assert!(e >= 8, "reported error {e} is a failing index");
        for (i, c) in claims.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            assert!(n <= 1, "index {i} claimed {n} times");
            // A claimed non-failing index must have produced its slot.
            if n == 1 && i < 8 {
                assert_eq!(slots[i], Some(i * 10 + 1), "slot {i}");
            }
        }
        // The minimum failing claim is what the merge reported.
        let min_failed = claims
            .iter()
            .enumerate()
            .filter(|(i, c)| *i >= 8 && c.load(Ordering::Relaxed) == 1)
            .map(|(i, _)| i)
            .min()
            .expect("at least one failing index claimed");
        assert_eq!(e, min_failed);
    });
}
