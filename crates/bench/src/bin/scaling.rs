//! Thread-scaling of the per-instance fan-out (`core::parallel::fan_out`):
//! wall-clock time of a coverage sweep (disagreement bits) and an entropy
//! sweep (partition fingerprints) over a large support set, at increasing
//! worker counts. Both pin `Strategy::Naive` — one patched execution per
//! support instance — so the rows time the fan-out, not the §4 checks or
//! the delta evaluator that `Strategy::Auto` would route these shapes to.
//!
//! `cargo run -p qirana-bench --bin scaling --release -- [--support N] [--seed N] [--max-threads N]`
//!
//! Each row prints the sequential baseline, the parallel time, and the
//! speedup; the disagreement bits / partition fingerprints are asserted
//! identical across all worker counts (the executor's determinism
//! guarantee), so the speedup is free of semantic drift.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::{Args, Harness};
use qirana_core::{
    bundle_disagreements, bundle_partition, generate_support, prepare_query, EngineOptions,
    Parallelism, SupportConfig, SupportSet,
};
use qirana_datagen::world;

fn main() {
    let args = Args::parse();
    let support: usize = args.get("support", 10_000);
    let seed: u64 = args.get("seed", 1);
    let max_threads: usize = args.get("max-threads", 8);

    let mut h = Harness::from_args("scaling", &args, None);
    h.param("support", support);
    h.param("seed", seed);
    h.param("max-threads", max_threads);

    let db = world::generate(7);
    let support_set = SupportSet::Neighborhood(generate_support(
        &db,
        &SupportConfig {
            size: support,
            seed,
            ..Default::default()
        },
    ));

    let queries = [
        (
            "agg",
            "SELECT Continent, COUNT(*), SUM(Population) FROM Country GROUP BY Continent",
        ),
        (
            "spj",
            "SELECT Name FROM Country WHERE Population > 10000000",
        ),
    ];

    let mut threads = vec![1usize];
    let mut t = 2;
    while t <= max_threads {
        threads.push(t);
        t *= 2;
    }

    println!("== Thread scaling (world dataset, S={support}) ==");
    println!(
        "{:<6} {:<10} {:>8} {:>12} {:>9}",
        "query", "path", "threads", "seconds", "speedup"
    );

    for (name, sql) in queries {
        let q = prepare_query(&db, sql).unwrap();

        // Naive disagreement loop: one re-execution per support instance.
        let mut baseline = 0.0;
        let mut reference_bits = Vec::new();
        for &n in &threads {
            let opts = EngineOptions::naive()
                .with_parallelism(Parallelism::Threads(n))
                .with_telemetry(h.telemetry());
            let (bits, secs) = h.time(&format!("{name}_naive"), &format!("threads={n}"), || {
                bundle_disagreements(&db, &[&q], &support_set, &opts, None).unwrap()
            });
            if n == 1 {
                baseline = secs;
                reference_bits = bits;
            } else {
                assert_eq!(
                    bits, reference_bits,
                    "parallel bits diverged at {n} threads"
                );
            }
            println!(
                "{:<6} {:<10} {:>8} {:>12.4} {:>8.2}x",
                name,
                "naive",
                n,
                secs,
                baseline / secs
            );
        }

        // Partition loop: one output fingerprint per support instance.
        let mut baseline = 0.0;
        let mut reference_fps = Vec::new();
        for &n in &threads {
            let opts = EngineOptions::naive()
                .with_parallelism(Parallelism::Threads(n))
                .with_telemetry(h.telemetry());
            let (fps, secs) = h.time(
                &format!("{name}_partition"),
                &format!("threads={n}"),
                || bundle_partition(&db, &[&q], &support_set, &opts).unwrap(),
            );
            if n == 1 {
                baseline = secs;
                reference_fps = fps;
            } else {
                assert_eq!(
                    fps, reference_fps,
                    "parallel partition diverged at {n} threads"
                );
            }
            println!(
                "{:<6} {:<10} {:>8} {:>12.4} {:>8.2}x",
                name,
                "partition",
                n,
                secs,
                baseline / secs
            );
        }
    }
    if let Some(path) = h.finish().expect("bench artifact") {
        println!("wrote {}", path.display());
    }
}
