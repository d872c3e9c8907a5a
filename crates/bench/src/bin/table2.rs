//! Table 2: dataset characteristics (#relations, #tuples, #attributes).
//!
//! `cargo run -p qirana-bench --bin table2 --release [-- --sf 0.01 --rows 71115 --nodes 317080]`

// CLI/bench/demo target: aborting with a clear message on bad input or a
// broken fixture is the intended failure mode here, unlike in the library
// crates where the workspace lints deny panicking calls.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use qirana_bench::Args;
use qirana_datagen::{carcrash, dblp, ssb, tpch, world};

fn main() {
    let args = Args::parse();
    let sf: f64 = args.get("sf", 0.01);
    let rows: usize = args.get("rows", 71_115);
    let nodes: usize = args.get("nodes", 31_708);

    println!("Table 2: dataset characteristics (generated)");
    println!("paper values: world 3/5302/21, car crash 1/71115/14, DBLP 1/1049866/2,");
    println!("              TPC-H 8/SF=1/61, SSB (5 spec relations)/SF=1/57\n");
    println!(
        "{:<12} {:>10} {:>12} {:>12}",
        "dataset", "#relations", "#tuples", "#attributes"
    );

    let datasets: Vec<(&str, qirana_sqlengine::Database)> = vec![
        ("world", world::generate(1)),
        ("US car crash", carcrash::generate(rows, 1)),
        ("DBLP", dblp::generate(nodes, 1)),
        ("TPC-H", tpch::generate(sf, 1)),
        ("SSB", ssb::generate(sf, 1)),
    ];
    for (name, db) in datasets {
        println!(
            "{:<12} {:>10} {:>12} {:>12}",
            name,
            db.num_tables(),
            db.total_rows(),
            db.total_attributes()
        );
    }
    println!("\n(TPC-H/SSB at --sf {sf}; DBLP at --nodes {nodes}; car crash at --rows {rows})");
}
