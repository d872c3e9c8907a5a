//! Figure 5: scalability — time to price each SSB / TPC-H query without
//! batching ("no batching", `Strategy::Naive`: one execution per support
//! instance the visibility test lets through), with batching ("with
//! batching" — `Strategy::Auto`, the default path, the batched delta
//! evaluator), and, for reference, the plain query execution time. The last
//! column counts the neighbors the default path re-executed in full
//! (`coverage_fallbacks_total`, respectively `delta_fallbacks_total` under
//! `--function shannon`).
//!
//! `cargo run -p qirana-bench --bin fig5 --release -- <ssb|tpch|world> [--function coverage|shannon] [--sf F] [--support N]`
//!
//! The timed primitive is the coverage bitmap, or with `--function
//! shannon` the entropy primitive's per-instance output fingerprints. The
//! `world` arm prices the join queries of `WORLD_QUERIES` (`--sf` does not
//! apply) — the SPJ joins the SSB/TPC-H flights lack.
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
    bundle_disagreements, bundle_partition, prepare_query, EngineOptions, Prepared, SupportConfig,
    SupportSet, Telemetry,
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
    let function: String = args.get("function", "coverage".to_string());
    let shannon = match function.as_str() {
        "coverage" => false,
        "shannon" => true,
        other => usage_error(&format!(
            "--function: unknown `{other}`; use coverage or shannon"
        )),
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
        let opts = opts.with_telemetry(tel.clone());
        if shannon {
            bundle_partition(db, &[q], support, &opts).unwrap().len()
        } else {
            bundle_disagreements(db, &[q], support, &opts)
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

    println!("== Figure 5 ({which}, {function}, sf={sf}, S={support}): pricing time in seconds ==");
    let support_set = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: support,
            seed: args.get("seed", 1),
            ..Default::default()
        },
    ));

    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>10}",
        "query", "no batching", "with batching", "query exec", "fallbacks"
    );

    for (name, sql) in queries {
        let q = match prepare_query(&db, &sql) {
            Ok(q) => q,
            Err(e) => {
                println!("{name:<6} failed to prepare: {e}");
                continue;
            }
        };
        let (_, t_exec) = time(|| execute(&q.plan, &ExecContext::new(&db)).unwrap());
        let (_, t_naive) = time(|| sweep(&db, &q, &support_set, EngineOptions::naive()));
        let fell_back = fallbacks();
        let (_, t_batch) = time(|| sweep(&db, &q, &support_set, EngineOptions::default()));
        let fell_back = fallbacks() - fell_back;
        println!("{name:<6} {t_naive:>14.4} {t_batch:>14.4} {t_exec:>14.4} {fell_back:>10}");
    }
}
