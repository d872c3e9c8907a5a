//! Table 3: history-oblivious prices for the DBLP (`Qd1..Qd7`) and US car
//! crash (`Qc1..Qc4`) workloads under weighted coverage and Shannon
//! entropy, both with the `nbrs` support set.
//!
//! `cargo run -p qirana-bench --bin table3 --release [-- --nodes 31708 --rows 71115 --support 1000]`

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::{broker, Args};
use qirana_core::{PricingFunction, SupportType};
use qirana_datagen::queries::{dblp_queries, CARCRASH_QUERIES};
use qirana_datagen::{carcrash, dblp};

fn main() {
    let args = Args::parse();
    let nodes: usize = args.get("nodes", 10_000);
    let rows: usize = args.get("rows", 20_000);
    let support: usize = args.get("support", 1000);
    let entropy_support: usize = args.get("entropy-support", 400);
    let seed: u64 = args.get("seed", 3);

    println!("Table 3: prices for DBLP (Qd) and US car crash (Qc)");
    println!(
        "paper (pwc+nbrs): Qd = [2.07, 0, 4.29, 0.29, 0.045, 58.82, 0.035], Qc = [8.00, 0.60, 0.70, 0]\n"
    );

    // ---- DBLP ----
    let dblp_db = dblp::generate(nodes, seed);
    let dqs = dblp_queries(nodes);
    let wc = broker(
        dblp_db.clone(),
        PricingFunction::WeightedCoverage,
        SupportType::Neighborhood,
        support,
        seed,
    );
    let sh = broker(
        dblp_db,
        PricingFunction::ShannonEntropy,
        SupportType::Neighborhood,
        entropy_support,
        seed,
    );
    println!("{:<10} {:>10} {:>10}", "query", "pwc+nbrs", "pH+nbrs");
    for (i, sql) in dqs.iter().enumerate() {
        let p_wc = wc.quote(sql).unwrap_or(f64::NAN);
        let p_sh = sh.quote(sql).unwrap_or(f64::NAN);
        println!("Qd{:<9} {:>10.3} {:>10.3}", i + 1, p_wc, p_sh);
    }

    // ---- US car crash ----
    let crash_db = carcrash::generate(rows, seed);
    let wc = broker(
        crash_db.clone(),
        PricingFunction::WeightedCoverage,
        SupportType::Neighborhood,
        support,
        seed,
    );
    let sh = broker(
        crash_db,
        PricingFunction::ShannonEntropy,
        SupportType::Neighborhood,
        entropy_support,
        seed,
    );
    println!();
    for (i, sql) in CARCRASH_QUERIES.iter().enumerate() {
        let p_wc = wc.quote(sql).unwrap_or(f64::NAN);
        let p_sh = sh.quote(sql).unwrap_or(f64::NAN);
        println!("Qc{:<9} {:>10.3} {:>10.3}", i + 1, p_wc, p_sh);
    }
    println!("\n(DBLP at --nodes {nodes}, car crash at --rows {rows}, S = {support})");
}
