//! Figure 5: scalability — time to price each SSB / TPC-H query with the
//! per-update optimizer ("no batching", `Strategy::NoBatching`), the
//! batched optimizer ("with batching" — `Strategy::Auto`, the default
//! path), and, for reference, the plain query execution time; `--naive 1`
//! adds `Strategy::Naive`. The last column counts the neighbors the
//! default path re-executed in full (`coverage_fallbacks_total`,
//! respectively `delta_fallbacks_total` under `--function shannon`).
//!
//! `cargo run -p qirana-bench --bin fig5 --release -- <ssb|tpch|world> [--function coverage|shannon] [--sf F] [--support N] [--naive 1] [--threads N]`
//!
//! Both flights are aggregates, which have no unbatched static checks: for
//! them `NoBatching` is per-instance execution behind the visibility test
//! and `Auto` the batched delta evaluator, whichever primitive is timed —
//! the coverage bitmap, or with `--function shannon` the entropy
//! primitive's per-instance output fingerprints. The `world` arm prices
//! the join queries of `WORLD_QUERIES` (`--sf` does not apply) — the SPJ
//! joins the SSB/TPC-H flights lack, for which coverage's two columns are
//! §4.1's checks with one dynamic query per update and §4.2's batches.
//!
//! The paper runs SF = 1 with S = 100 000; defaults here are scaled down
//! (see EXPERIMENTS.md) — the *ratios* between the three columns are the
//! result.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::{time, usage_error, Args};
use qirana_core::generate_support;
use qirana_core::{
    bundle_disagreements, bundle_partition, prepare_query, EngineOptions, Parallelism, Prepared,
    SupportConfig, SupportSet, Telemetry,
};
use qirana_datagen::queries::{ssb_queries, tpch_queries, WORLD_QUERIES};
use qirana_datagen::{ssb, tpch, world};
use qirana_sqlengine::{execute, Database, ExecContext};

fn main() {
    let args = Args::parse();
    let which = args
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "ssb".to_string());
    let sf: f64 = args.get("sf", 0.01);
    let support: usize = args.get("support", 2000);
    let include_naive: usize = args.get("naive", 0);
    let function: String = args.get("function", "coverage".to_string());
    let shannon = match function.as_str() {
        "coverage" => false,
        "shannon" => true,
        other => usage_error(&format!(
            "--function: unknown `{other}`; use coverage or shannon"
        )),
    };
    let threads: usize = args.get("threads", 1);
    let par = if threads > 1 {
        Parallelism::Threads(threads)
    } else {
        Parallelism::Sequential
    };

    let (db, queries): (_, Vec<(String, String)>) = match which.as_str() {
        "ssb" => (
            ssb::generate(sf, 5),
            ssb_queries()
                .into_iter()
                .map(|(n, q)| (n.to_string(), q.to_string()))
                .collect(),
        ),
        "tpch" => (
            tpch::generate(sf, 5),
            tpch_queries(sf)
                .into_iter()
                .map(|(n, q)| (n.to_string(), q))
                .collect(),
        ),
        "world" => {
            let db = world::generate(7);
            let joins = WORLD_QUERIES
                .iter()
                .enumerate()
                .filter(|(_, q)| prepare_query(&db, q).is_ok_and(|p| p.plan.relations.len() > 1))
                .map(|(i, q)| (format!("Qw{}", i + 1), q.to_string()))
                .collect();
            (db, joins)
        }
        other => usage_error(&format!("unknown dataset {other}; use ssb, tpch or world")),
    };
    // One sweep of the timed primitive: the coverage bitmap, or the
    // per-instance fingerprints an entropy price is a function of. The
    // sweeps report to an enabled sink, which the fallbacks column reads.
    let tel = Telemetry::enabled();
    let sweep = |db: &Database, q: &Prepared, support: &SupportSet, opts: EngineOptions| {
        let opts = opts.with_parallelism(par).with_telemetry(tel.clone());
        if shannon {
            bundle_partition(db, &[q], support, &opts).unwrap().len()
        } else {
            bundle_disagreements(db, &[q], support, &opts, None)
                .unwrap()
                .len()
        }
    };

    let fallbacks_counter = if shannon {
        "delta_fallbacks_total"
    } else {
        "coverage_fallbacks_total"
    };
    let fallbacks = || tel.sink().map_or(0, |sink| sink.counter(fallbacks_counter));

    println!(
        "== Figure 5 ({which}, {function}, sf={sf}, S={support}, threads={threads}): pricing time in seconds =="
    );
    let support_set = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: support,
            seed: args.get("seed", 1),
            ..Default::default()
        },
    ));

    print!(
        "{:<6} {:>14} {:>14} {:>14}",
        "query", "no batching", "with batching", "query exec"
    );
    if include_naive == 1 {
        print!(" {:>14}", "naive");
    }
    println!(" {:>10}", "fallbacks");

    for (name, sql) in queries {
        let q = match prepare_query(&db, &sql) {
            Ok(q) => q,
            Err(e) => {
                println!("{name:<6} failed to prepare: {e}");
                continue;
            }
        };
        let (_, t_exec) = time(|| execute(&q.plan, &ExecContext::new(&db)).unwrap());
        let (_, t_nobatch) = time(|| sweep(&db, &q, &support_set, EngineOptions::no_batching()));
        let fell_back = fallbacks();
        let (_, t_batch) = time(|| sweep(&db, &q, &support_set, EngineOptions::default()));
        let fell_back = fallbacks() - fell_back;
        print!("{name:<6} {t_nobatch:>14.4} {t_batch:>14.4} {t_exec:>14.4}");
        if include_naive == 1 {
            let (_, t_naive) = time(|| sweep(&db, &q, &support_set, EngineOptions::naive()));
            print!(" {t_naive:>14.4}");
        }
        println!(" {fell_back:>10}");
    }
}
