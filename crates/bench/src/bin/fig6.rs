//! Figure 6: additional benchmarking — the distribution of prices the 34
//! world queries (Appendix B) receive under every pricing function and
//! support-set choice.
//!
//! `cargo run -p qirana-bench --bin fig6 --release [-- --support 1000 --uniform-support 150]`

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::{broker, Args};
use qirana_core::{PricingFunction, SupportType};
use qirana_datagen::queries::WORLD_QUERIES;
use qirana_datagen::world;

fn main() {
    let args = Args::parse();
    let support: usize = args.get("support", 1000);
    let uniform_support: usize = args.get("uniform-support", 150);
    let seed: u64 = args.get("seed", 4);
    let db = world::generate(7);

    // 6a: weighted coverage across support types.
    println!("== Figure 6a: weighted coverage, price distribution by support type ==");
    for (ty, label, size) in [
        (SupportType::Neighborhood, "nbrs", support),
        (SupportType::Uniform, "uniform", uniform_support),
    ] {
        let b = broker(
            db.clone(),
            PricingFunction::WeightedCoverage,
            ty,
            size,
            seed,
        );
        let prices: Vec<f64> = WORLD_QUERIES
            .iter()
            .map(|q| b.quote(q).expect("price"))
            .collect();
        summarize(label, &prices);
    }

    // 6b: all four functions with the nbrs support set.
    println!("\n== Figure 6b: nbrs support set, all pricing functions ==");
    for f in PricingFunction::ALL {
        let size = if f.needs_partition() {
            support.min(400)
        } else {
            support
        };
        let b = broker(db.clone(), f, SupportType::Neighborhood, size, seed);
        let prices: Vec<f64> = WORLD_QUERIES
            .iter()
            .map(|q| b.quote(q).expect("price"))
            .collect();
        summarize(f.name(), &prices);
    }

    // 6c: all four functions with the uniform support set.
    println!("\n== Figure 6c: uniform support set, all pricing functions ==");
    for f in PricingFunction::ALL {
        let b = broker(db.clone(), f, SupportType::Uniform, uniform_support, seed);
        let prices: Vec<f64> = WORLD_QUERIES
            .iter()
            .map(|q| b.quote(q).expect("price"))
            .collect();
        summarize(f.name(), &prices);
    }

    // Full per-query dump for the appendix-style table.
    println!("\n== per-query prices (weighted coverage + nbrs) ==");
    let b = broker(
        db,
        PricingFunction::WeightedCoverage,
        SupportType::Neighborhood,
        support,
        seed,
    );
    for (i, q) in WORLD_QUERIES.iter().enumerate() {
        let p = b.quote(q).unwrap();
        println!("Qw{:<3} {p:>8.2}  {q}", i + 1);
    }
}

fn summarize(label: &str, prices: &[f64]) {
    let mut sorted = prices.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    // qirana-lint::allow(QL002): sample counts, far below 2^53
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f) as usize];
    // qirana-lint::allow(QL002): sample counts, far below 2^53
    let mean = prices.iter().sum::<f64>() / prices.len() as f64;
    println!(
        "{label:<22} min {:>6.1}  p25 {:>6.1}  median {:>6.1}  p75 {:>6.1}  max {:>6.1}  mean {:>6.1}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        mean
    );
}
