//! Figure 2: price behavior of the benchmark queries `Qσ_u`, `Qπ_u`,
//! `Q⋈_u`, `Qγ_u` on the world dataset, for all 8 pricing-function ×
//! support-set combinations, S = 1000.
//!
//! `cargo run -p qirana-bench --bin fig2 --release [-- --support 1000 --uniform-support 200]`
//!
//! The uniform support set materializes whole databases (its memory cost is
//! part of the paper's argument against it), so its default size is
//! smaller; raise `--uniform-support` to match the paper exactly.

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::{combos, subset_db, Args};
use qirana_core::{Qirana, QiranaConfig, SupportConfig, SupportType};
use qirana_datagen::queries::{q_gamma, q_join, q_pi, q_sigma};
use qirana_datagen::world;

fn main() {
    let args = Args::parse();
    let support: usize = args.get("support", 1000);
    let uniform_support: usize = args.get("uniform-support", 200);
    let seed: u64 = args.get("seed", 42);
    // The paper's §2.4 benchmark instance: Country (+ CountryLanguage for
    // Q⋈) with uniformly valued attributes — $100 per relation, so the
    // Qσ/Qπ sweeps span 0..100 as in the figure.
    let db = subset_db(&world::generate(7), &["Country", "CountryLanguage"]);

    let sigma_us = [1i64, 32, 64, 128, 239];
    let pi_us: Vec<usize> = (1..=13).collect();
    let join_us = [0.01f64, 0.1, 1.0, 10.0, 100.0];
    let gamma_us = [1usize, 5, 10, 15, 20, 25];

    for (function, ty, label) in combos() {
        let size = if ty == SupportType::Uniform {
            uniform_support
        } else {
            support
        };
        let mut b = Qirana::new(
            db.clone(),
            QiranaConfig {
                total_price: 200.0,
                function,
                support_type: ty,
                support: SupportConfig {
                    size,
                    seed,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("broker");

        let series = |b: &mut qirana_core::Qirana, sqls: Vec<String>| -> Vec<f64> {
            sqls.iter().map(|q| b.quote(q).expect("price")).collect()
        };

        println!("== {label} (S = {size}) ==");
        let p = series(&mut b, sigma_us.iter().map(|&u| q_sigma(u)).collect());
        let labels = sigma_us.map(|u| u.to_string());
        print_series("Qs (u=1,32,64,128,239)", &labels, &p);
        let p = series(&mut b, pi_us.iter().map(|&u| q_pi(u)).collect());
        let labels: Vec<String> = pi_us.iter().map(|u| u.to_string()).collect();
        print_series("Qp (u=1..13)", &labels, &p);
        let p = series(&mut b, join_us.iter().map(|&u| q_join(u)).collect());
        let labels = join_us.map(|u| u.to_string());
        print_series("Qj (u=.01,.1,1,10,100)", &labels, &p);
        let p = series(&mut b, gamma_us.iter().map(|&u| q_gamma(u)).collect());
        let labels: Vec<String> = gamma_us.iter().map(|u| u.to_string()).collect();
        print_series("Qg (u=1..25)", &labels, &p);
        println!();
    }
}

fn print_series(name: &str, us: &[String], prices: &[f64]) {
    print!("{name:<24}");
    for (u, p) in us.iter().zip(prices) {
        print!("  {u}:{p:.1}");
    }
    println!();
}
