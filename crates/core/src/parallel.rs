//! The per-support-instance fan-out: one helper, [`fan_out`], that every
//! per-instance loop in the engine is written against.
//!
//! The support loop is the system's single hottest path — O(|support| ×
//! query cost), and every iteration is independent of the others. Each
//! such loop ([`crate::naive`]'s patched executions, [`crate::delta`]'s
//! fallbacks) is a
//! closure `f(i)` handed to [`fan_out`], which alone decides how it runs:
//! **inline** on the caller's thread when one worker suffices (the
//! default — no thread), or on a scoped worker pool. Either way three
//! guarantees hold:
//!
//! * **Determinism.** Results are collected *index-ordered*: each support
//!   instance's verdict lands in its own slot regardless of which worker
//!   computed it or when, so disagreement bits — and therefore prices —
//!   are bitwise identical for any worker count.
//! * **Budget enforcement.** Every per-instance execution runs under the
//!   same [`qirana_sqlengine::ExecBudget`] as sequentially (one fresh
//!   meter per execution, deadline measured from that execution's start).
//!   The first [`EngineError::BudgetExceeded`] — or any other error —
//!   raises a cooperative stop flag; workers abandon their queues at the
//!   next instance boundary and the lowest-index error is returned.
//! * **Shared `&Database`.** No loop writes: a neighborhood instance is
//!   the stored database read through its update's row patch
//!   ([`qirana_sqlengine::ExecContext::with_patch`]), so every worker
//!   shares the caller's data by reference — `Database` is `Sync`
//!   (asserted at compile time in `qirana-sqlengine`), and all
//!   interior-mutable execution state lives in per-execution
//!   `ExecContext`s.
//!
//! Work is distributed by chunked atomic stealing: workers grab
//! [`CHUNK`]-sized index ranges from a shared counter, which balances load
//! when per-instance cost is skewed (e.g. a handful of updates hit a large
//! joining relation) without affecting determinism — only *who* computes a
//! slot varies, never *what* lands in it.

use crate::telemetry::Telemetry;
use qirana_sqlengine::EngineError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How many support instances a worker claims per steal. Large enough to
/// amortize the atomic, small enough to load-balance skewed instances.
const CHUNK: usize = 16;

/// Below this many instances per worker the pool's overhead (thread spawn
/// and join) outweighs the win; [`fan_out`] then runs inline.
const MIN_ITEMS_PER_WORKER: usize = 32;

/// Degree of parallelism for the pricing executor, threaded through
/// [`crate::EngineOptions`] and honored by every [`fan_out`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded (the default): every loop runs inline on the
    /// caller's thread.
    #[default]
    Sequential,
    /// A fixed worker-pool size (values 0 and 1 mean sequential).
    Threads(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// Worker count for a support loop of `items` instances: the
    /// configured cap, shrunk so each worker has at least
    /// [`MIN_ITEMS_PER_WORKER`] instances (1 = run inline).
    pub fn workers(&self, items: usize) -> usize {
        let cap = match self {
            Parallelism::Sequential => return 1,
            Parallelism::Threads(n) => (*n).max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        cap.min(items / MIN_ITEMS_PER_WORKER).max(1)
    }
}

/// Runs `f(i)` for every `i in 0..n` and returns the results
/// index-ordered — the one place that chooses between running inline and
/// starting the worker pool.
///
/// With one worker (`parallelism` is sequential, or `n` is too small to
/// pay for a pool) the loop runs inline and stops at the first error.
/// Otherwise scoped workers steal chunks of indices; any error raises the
/// stop flag — remaining workers abandon their queues at the next chunk
/// boundary — and the error with the lowest index wins deterministically
/// among those raised.
pub(crate) fn fan_out<T, F>(
    n: usize,
    parallelism: Parallelism,
    tel: &Telemetry,
    f: F,
) -> Result<Vec<T>, EngineError>
where
    T: Send,
    F: Fn(usize) -> Result<T, EngineError> + Sync,
{
    let workers = parallelism.workers(n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    if tel.is_enabled() {
        tel.counter_add("parallel_fanouts_total", 1);
        tel.gauge_set("parallel_workers", workers as u64);
    }

    let per_worker: Vec<WorkerResult<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out: Vec<(usize, T)> = Vec::with_capacity(n / workers + CHUNK);
                    let mut err: Option<(usize, EngineError)> = None;
                    let mut chunks = 0u64;
                    'steal: while !stop.load(Ordering::Relaxed) {
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        chunks += 1;
                        for i in start..(start + CHUNK).min(n) {
                            match f(i) {
                                Ok(v) => out.push((i, v)),
                                Err(e) => {
                                    stop.store(true, Ordering::Relaxed);
                                    err = Some((i, e));
                                    break 'steal;
                                }
                            }
                        }
                    }
                    if tel.is_enabled() {
                        // Error-free pools claim exactly ceil(n / CHUNK)
                        // chunks in total; the per-worker split is the
                        // load-balance picture.
                        tel.counter_add("parallel_chunks_claimed_total", chunks);
                        tel.observe("parallel_worker_chunks", chunks);
                    }
                    (out, err)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise the worker's own panic payload on the caller
                // thread instead of replacing it with a generic message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut first_err: Option<(usize, EngineError)> = None;
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (out, err) in per_worker {
        for (i, v) in out {
            slots[i] = Some(v);
        }
        if let Some((i, e)) = err {
            if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                first_err = Some((i, e));
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    // Every index in 0..n is claimed exactly once by the chunked atomic
    // counter (the loom model in crates/core/tests/loom.rs exercises this
    // invariant under perturbed schedules), so every slot is filled — and
    // if that invariant ever breaks, the broker degrades instead of
    // aborting mid-purchase.
    slots
        .into_iter()
        .map(|s| s.ok_or_else(|| EngineError::internal("worker pool left a result slot unfilled")))
        .collect()
}

type WorkerResult<T> = (Vec<(usize, T)>, Option<(usize, EngineError)>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{bundle_disagreements, bundle_partition, EngineOptions};
    use crate::normal_form::prepare_query;
    use crate::support::{generate_support, generate_uniform_worlds, SupportConfig, SupportSet};
    use qirana_sqlengine::{ColumnDef, DataType, Database, ExecBudget, TableSchema, Value};
    use std::time::Duration;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("grp", DataType::Str),
                    ColumnDef::new("v", DataType::Int),
                ],
                &["id"],
            ),
            (0..30i64)
                .map(|i| {
                    vec![
                        i.into(),
                        if i % 3 == 0 { "a" } else { "b" }.into(),
                        (i * 5).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        db
    }

    fn neighborhood(db: &Database, size: usize) -> SupportSet {
        SupportSet::Neighborhood(generate_support(
            db,
            &SupportConfig {
                size,
                ..Default::default()
            },
        ))
    }

    /// The per-instance (`Naive`) strategy with a fixed worker-pool size.
    fn naive(workers: usize) -> EngineOptions {
        EngineOptions::naive().with_parallelism(Parallelism::Threads(workers))
    }

    #[test]
    fn workers_respects_caps() {
        assert_eq!(Parallelism::Sequential.workers(1_000_000), 1);
        assert_eq!(Parallelism::Threads(0).workers(10_000), 1);
        assert_eq!(Parallelism::Threads(4).workers(10_000), 4);
        assert_eq!(Parallelism::Threads(4).workers(40), 1);
        assert_eq!(Parallelism::Threads(4).workers(64), 2);
        assert!(Parallelism::Auto.workers(1_000_000) >= 1);
    }

    #[test]
    fn inline_and_pooled_runs_share_the_callers_database() {
        let database = db();
        let tel = Telemetry::disabled();
        let read = |i: usize| Ok(database.table_at(0).rows[i % 30][2].clone());
        let want: Vec<Value> = (0..200).map(|i| Value::Int((i % 30) * 5)).collect();
        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let got = fan_out(200, par, &tel, read).unwrap();
            assert_eq!(got, want, "index-ordered under {par:?}");
        }
    }

    #[test]
    fn pooled_neighborhood_sweeps_match_inline() {
        let database = db();
        let support = neighborhood(&database, 400);
        let q1 = prepare_query(&database, "select v from T where grp = 'a'").unwrap();
        let q2 = prepare_query(&database, "select grp, sum(v) from T group by grp").unwrap();
        let bundle = [&q1, &q2];
        let seq_opts = EngineOptions::naive();
        let bits = bundle_disagreements(&database, &bundle, &support, &seq_opts, None).unwrap();
        let fps = bundle_partition(&database, &bundle, &support, &seq_opts).unwrap();
        for workers in [2, 3, 8] {
            let opts = naive(workers);
            let par = bundle_disagreements(&database, &bundle, &support, &opts, None).unwrap();
            assert_eq!(bits, par, "worker count {workers} changed bits");
            let par = bundle_partition(&database, &bundle, &support, &opts).unwrap();
            assert_eq!(fps, par, "worker count {workers} changed fingerprints");
        }
    }

    #[test]
    fn pooled_uniform_sweeps_match_inline() {
        let database = db();
        let support = SupportSet::Uniform(generate_uniform_worlds(&database, 64, 9));
        let q = prepare_query(&database, "select grp, v from T").unwrap();
        let seq_opts = EngineOptions::naive();
        let bits = bundle_disagreements(&database, &[&q], &support, &seq_opts, None).unwrap();
        let fps = bundle_partition(&database, &[&q], &support, &seq_opts).unwrap();
        let opts = naive(4);
        assert_eq!(
            bits,
            bundle_disagreements(&database, &[&q], &support, &opts, None).unwrap()
        );
        assert_eq!(
            fps,
            bundle_partition(&database, &[&q], &support, &opts).unwrap()
        );
    }

    #[test]
    fn budget_trip_aborts_fan_out() {
        let database = db();
        let support = neighborhood(&database, 300);
        let q = prepare_query(&database, "select * from T").unwrap();
        // An already-expired deadline trips on the first execution of
        // whichever worker gets there first; the pool must abort promptly
        // and surface BudgetExceeded rather than hang or panic.
        let opts = naive(4).with_budget(ExecBudget::default().with_timeout(Duration::ZERO));
        let err = bundle_disagreements(&database, &[&q], &support, &opts, None).unwrap_err();
        assert!(
            matches!(err, EngineError::BudgetExceeded { .. }),
            "expected BudgetExceeded, got {err:?}"
        );
    }

    #[test]
    fn fan_out_returns_lowest_index_error() {
        // Deterministic error selection: index 7 and 200 both fail; the
        // lowest must win no matter which worker hits which first.
        for _ in 0..8 {
            let err = fan_out(256, Parallelism::Threads(4), &Telemetry::disabled(), |i| {
                if i == 7 || i == 200 {
                    Err(EngineError::Eval(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            // Index 7 is in the very first chunk, claimed before any
            // worker can reach 200 and stop the pool.
            assert!(err.to_string().ends_with("boom 7"), "{err}");
        }
    }
}
