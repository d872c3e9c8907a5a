//! Figure 5: scalability — time to price each SSB / TPC-H query with the
//! per-update optimizer ("no batching", `Strategy::NoBatching`), the
//! batched optimizer ("with batching" — `Strategy::Auto`, the default
//! coverage path), and, for reference, the plain query execution time;
//! `--naive 1` adds `Strategy::Naive`.
//!
//! `cargo run -p qirana-bench --bin fig5 --release -- <ssb|tpch> [--sf F] [--support N] [--naive 1] [--threads N]`
//!
//! The paper runs SF = 1 with S = 100 000; defaults here are scaled down
//! (see EXPERIMENTS.md) — the *ratios* between the three columns are the
//! result.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::{Args, Harness};
use qirana_core::generate_support;
use qirana_core::{
    bundle_disagreements, prepare_query, EngineOptions, Parallelism, SupportConfig, SupportSet,
};
use qirana_datagen::queries::{ssb_queries, tpch_queries};
use qirana_datagen::{ssb, tpch};
use qirana_sqlengine::{execute, ExecContext};

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
    let threads: usize = args.get("threads", 1);
    let par = if threads > 1 {
        Parallelism::Threads(threads)
    } else {
        Parallelism::Sequential
    };

    let (mut db, queries): (_, Vec<(String, String)>) = match which.as_str() {
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
        other => {
            eprintln!("unknown dataset {other}; use ssb or tpch");
            return;
        }
    };

    let mut h = Harness::from_args("fig5", &args, None);
    h.param("dataset", &which);
    h.param("sf", sf);
    h.param("support", support);
    h.param("threads", threads);

    println!(
        "== Figure 5 ({which}, sf={sf}, S={support}, threads={threads}): pricing time in seconds =="
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
    println!();

    for (name, sql) in queries {
        let q = match prepare_query(&db, &sql) {
            Ok(q) => q,
            Err(e) => {
                println!("{name:<6} failed to prepare: {e}");
                continue;
            }
        };
        let (_, t_exec) = h.time("query_exec", &name, || {
            execute(&q.plan, &ExecContext::new(&db)).unwrap()
        });
        let (_, t_nobatch) = h.time("no_batching", &name, || {
            bundle_disagreements(
                &mut db,
                &[&q],
                &support_set,
                &EngineOptions::no_batching().with_parallelism(par),
                None,
            )
            .unwrap()
        });
        let (_, t_batch) = h.time("with_batching", &name, || {
            bundle_disagreements(
                &mut db,
                &[&q],
                &support_set,
                &EngineOptions::default().with_parallelism(par),
                None,
            )
            .unwrap()
        });
        print!("{name:<6} {t_nobatch:>14.4} {t_batch:>14.4} {t_exec:>14.4}");
        if include_naive == 1 {
            let (_, t_naive) = h.time("naive", &name, || {
                bundle_disagreements(
                    &mut db,
                    &[&q],
                    &support_set,
                    &EngineOptions::naive().with_parallelism(par),
                    None,
                )
                .unwrap()
            });
            print!(" {t_naive:>14.4}");
        }
        println!();
    }
    if let Some(path) = h.finish().expect("bench artifact") {
        println!("wrote {}", path.display());
    }
}
