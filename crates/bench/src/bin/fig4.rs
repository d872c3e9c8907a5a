//! Figure 4: framework-parameter and history experiments.
//!
//! `cargo run -p qirana-bench --bin fig4 --release -- <a|b|c|d|e|f|g|all> [--support N] [--sf F]`
//!
//! * `a` — σ-price vs. selectivity for S ∈ {10, 100, 1000} + ideal line
//! * `b` — π-price vs. #attributes for the same sizes + ideal line
//! * `c` — price vs. fraction of swap updates (Qr1 = AVG, Qr2 = selective)
//! * `d` — pricing time vs. support size (Qσ80, Qπ4, Q⋈80, Qγ20)
//! * `e` — history-aware vs. oblivious *prices*, 13 SSB queries
//! * `f` — history-aware vs. oblivious *runtimes*, 13 SSB queries
//! * `g` — 25 parameterized SSB Q1.1 instances, cumulative price

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::{broker, subset_db, time, usage_error, Args};
use qirana_core::{PricingFunction, Qirana, QiranaConfig, SupportConfig, SupportType};
use qirana_datagen::queries::{
    q_gamma, q_join, q_pi, q_sigma, ssb_q11_instance, ssb_queries, QR1, QR2,
};
use qirana_datagen::{ssb, world};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The §2.4 benchmark instance: Country + CountryLanguage, $100/relation.
fn bench_world() -> qirana_sqlengine::Database {
    subset_db(&world::generate(7), &["Country", "CountryLanguage"])
}

/// Broker over the benchmark instance with $100 per relation.
fn bench_broker(db: qirana_sqlengine::Database, size: usize, seed: u64) -> Qirana {
    Qirana::new(
        db,
        QiranaConfig {
            total_price: 200.0,
            support: SupportConfig {
                size,
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("broker")
}

fn main() {
    let args = Args::parse();
    let which = args
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "a" => fig4a(&args),
        "b" => fig4b(&args),
        "c" => fig4c(&args),
        "d" => fig4d(&args),
        "e" => fig4ef(&args, false),
        "f" => fig4ef(&args, true),
        "g" => fig4g(&args),
        "all" => {
            fig4a(&args);
            fig4b(&args);
            fig4c(&args);
            fig4d(&args);
            fig4ef(&args, false);
            fig4ef(&args, true);
            fig4g(&args);
        }
        other => usage_error(&format!("unknown sub-figure {other}; use a..g or all")),
    }
}

/// 4a: σ-price vs. selectivity for varying support sizes. The ideal price
/// is linear: selecting `u-1` of 239 uniformly-valued Country tuples is
/// worth `(u-1)/239` of the Country relation's share.
fn fig4a(args: &Args) {
    println!("== Figure 4a: sigma-price vs selectivity ==");
    let db = bench_world();
    let country_rows = 239.0;
    // Country holds its proportional share of the $100 under uniform
    // weights: approximately (relation updates)/(all updates) = 1/3 of
    // relations → the ideal line the paper draws is 0..100 against the
    // relation's own full price; we report both the raw prices and u/239.
    let us = [1i64, 32, 64, 128, 192, 239];
    print!("{:<10}", "S \\ u");
    for u in us {
        print!("{u:>9}");
    }
    println!();
    for size in [10usize, 100, 1000] {
        let b = bench_broker(db.clone(), size, args.get("seed", 1));
        print!("{size:<10}");
        for u in us {
            let p = b.quote(&q_sigma(u)).unwrap();
            print!("{p:>9.2}");
        }
        println!();
    }
    // Scale-free ideal: price proportional to selected fraction, anchored
    // at Qσ_240 = full Country price measured at the largest S.
    let b = bench_broker(db, 1000, args.get("seed", 1));
    let full = b.quote(&q_sigma(240)).unwrap();
    print!("{:<10}", "ideal");
    for u in us {
        // qirana-lint::allow(QL002): u is a small buyer count
        print!("{:>9.2}", full * (u as f64 - 1.0) / country_rows);
    }
    println!("\n");
}

/// 4b: π-price vs. number of projected attributes + linear ideal.
fn fig4b(args: &Args) {
    println!("== Figure 4b: pi-price vs #attributes ==");
    let db = bench_world();
    let us: Vec<usize> = (1..=13).collect();
    print!("{:<10}", "S \\ u");
    for u in &us {
        print!("{u:>8}");
    }
    println!();
    let mut full13 = 0.0;
    for size in [10usize, 100, 1000] {
        let b = bench_broker(db.clone(), size, args.get("seed", 1));
        print!("{size:<10}");
        for &u in &us {
            let p = b.quote(&q_pi(u)).unwrap();
            if size == 1000 && u == 13 {
                full13 = p;
            }
            print!("{p:>8.2}");
        }
        println!();
    }
    print!("{:<10}", "ideal");
    for &u in &us {
        // qirana-lint::allow(QL002): u is a small buyer count
        print!("{:>8.2}", full13 * u as f64 / 13.0);
    }
    println!("\n");
}

/// 4c: price vs. fraction of swap updates for Qr1 (AVG — swaps never
/// disagree) and Qr2 (selective threshold — likewise swap-invariant given
/// the max).
fn fig4c(args: &Args) {
    println!("== Figure 4c: price vs fraction of swap updates ==");
    // Same benchmark instance as Figures 2/4a/4b ($100 per relation): the
    // paper's $17 anchor for Qr1 is the AVG(Population) price against
    // Country's own $100 share.
    let mut db = bench_world();
    // §5.1's premise: the buyer does NOT know the Population domain, so a
    // row update may introduce values beyond the active domain (including
    // ones above Qr2's 2B threshold). Model it as a wide declared range.
    let country = db.table_mut("Country").unwrap();
    let pop = country.schema.column_index("Population").unwrap();
    country.schema.columns[pop].domain = qirana_sqlengine::Domain::IntRange(10_000, 2_500_000_000);
    let support: usize = args.get("support", 1000);
    println!("{:<8} {:>8} {:>8}", "swap%", "Qr1", "Qr2");
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let b = Qirana::new(
            db.clone(),
            QiranaConfig {
                total_price: 200.0,
                support: SupportConfig {
                    size: support,
                    swap_fraction: frac,
                    seed: args.get("seed", 1),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let p1 = b.quote(QR1).unwrap();
        let p2 = b.quote(QR2).unwrap();
        println!("{frac:<8} {p1:>8.2} {p2:>8.2}");
    }
    println!();
}

/// 4d: pricing time vs. support size for the four benchmark queries.
fn fig4d(args: &Args) {
    println!("== Figure 4d: pricing time (s) vs support size ==");
    let db = world::generate(7);
    let queries = [
        ("Qs80", q_sigma(80)),
        ("Qp4", q_pi(4)),
        ("Qj80", q_join(80.0)),
        ("Qg20", q_gamma(20)),
    ];
    print!("{:<10}", "S \\ query");
    for (n, _) in &queries {
        print!("{n:>10}");
    }
    println!();
    for size in [10usize, 200, 400, 1000] {
        let b = broker(
            db.clone(),
            PricingFunction::WeightedCoverage,
            SupportType::Neighborhood,
            size,
            args.get("seed", 1),
        );
        print!("{size:<10}");
        for (_, sql) in &queries {
            // Warm once, then time.
            b.quote(sql).unwrap();
            let (_, t) = time(|| b.quote(sql).unwrap());
            print!("{t:>10.4}");
        }
        println!();
    }
    println!();
}

/// 4e (prices) and 4f (runtimes): the 13 SSB queries priced in sequence,
/// history-oblivious vs. history-aware.
fn fig4ef(args: &Args, runtimes: bool) {
    let sf: f64 = args.get("sf", 0.002);
    let support: usize = args.get("support", 1000);
    let seed: u64 = args.get("seed", 1);
    println!(
        "== Figure 4{}: history-aware vs oblivious {} (SSB sf={sf}, S={support}) ==",
        if runtimes { 'f' } else { 'e' },
        if runtimes { "runtime (s)" } else { "price ($)" },
    );
    let db = ssb::generate(sf, 9);
    let oblivious = broker(
        db.clone(),
        PricingFunction::WeightedCoverage,
        SupportType::Neighborhood,
        support,
        seed,
    );
    let mut aware = broker(
        db,
        PricingFunction::WeightedCoverage,
        SupportType::Neighborhood,
        support,
        seed,
    );
    println!("{:<6} {:>12} {:>12}", "query", "oblivious", "aware");
    let (mut sum_o, mut sum_a) = (0.0, 0.0);
    for (name, sql) in ssb_queries() {
        let (po, to) = time(|| oblivious.quote(sql).unwrap());
        let (pa, ta) = time(|| aware.buy("buyer", sql).unwrap().price);
        if runtimes {
            println!("{name:<6} {to:>12.4} {ta:>12.4}");
            sum_o += to;
            sum_a += ta;
        } else {
            println!("{name:<6} {po:>12.2} {pa:>12.2}");
            sum_o += po;
            sum_a += pa;
        }
    }
    println!("{:<6} {sum_o:>12.2} {sum_a:>12.2}\n", "total");
}

/// 4g: 25 random parameterizations of SSB Q1.1, oblivious vs. aware.
fn fig4g(args: &Args) {
    let sf: f64 = args.get("sf", 0.002);
    let support: usize = args.get("support", 1000);
    println!("== Figure 4g: 25 parameterized Q1.1 instances (SSB sf={sf}) ==");
    let db = ssb::generate(sf, 9);
    let oblivious = broker(
        db.clone(),
        PricingFunction::WeightedCoverage,
        SupportType::Neighborhood,
        support,
        args.get("seed", 1),
    );
    let mut aware = broker(
        db,
        PricingFunction::WeightedCoverage,
        SupportType::Neighborhood,
        support,
        args.get("seed", 1),
    );
    let mut rng = StdRng::seed_from_u64(args.get("seed", 1));
    println!("{:<6} {:>14} {:>14}", "i", "oblivious-cum", "aware-cum");
    let (mut sum_o, mut sum_a) = (0.0, 0.0);
    for i in 0..25 {
        let sql = ssb_q11_instance(&mut rng);
        sum_o += oblivious.quote(&sql).unwrap();
        sum_a += aware.buy("buyer", &sql).unwrap().price;
        if i % 4 == 0 || i == 24 {
            println!("{i:<6} {sum_o:>14.2} {sum_a:>14.2}");
        }
    }
    println!();
}
