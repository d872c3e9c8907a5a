//! # qirana-bench
//!
//! Printers that regenerate every table and figure of the QIRANA paper's
//! evaluation (§2.4 and §5). Each binary prints the same rows/series the
//! paper plots; `EXPERIMENTS.md` at the repository root records a
//! paper-vs-measured comparison for each. End-to-end and per-layer
//! performance is measured by the frozen repository benchmark
//! (`benchmark/`), not here.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — pricing-function properties, verified empirically |
//! | `fig2`   | Figure 2 — price behavior of 8 function×support combos |
//! | `table2` | Table 2 — dataset characteristics |
//! | `fig4 a..g` | Figure 4 — support-size, swap-ratio, runtime, history |
//! | `fig5 ssb\|tpch` | Figure 5 — scalability with/without batching |
//! | `fig6`   | Figure 6 — additional world-workload benchmarking |
//! | `table3` | Table 3 — DBLP and car-crash query prices |
//!
//! Every binary accepts `--support N` and `--seed N`, and (where
//! applicable) `--sf F` / `--rows N` / `--nodes N` to scale up toward the
//! paper's exact parameters. A flag value that does not parse stops the
//! run. Only `fig4` and `fig5` time anything, through [`time`].
//!
//! [`json`] is the JSON reader/writer of `qirana-server`'s wire format.

pub mod json;

use qirana_core::{PricingFunction, Qirana, QiranaConfig, SupportConfig, SupportType};
use qirana_sqlengine::Database;

/// Minimal flag parser: positional args plus `--name value` pairs. A flag
/// followed by another flag, or last, is a switch: its value is empty.
pub struct Args {
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    #[cfg(test)]
    fn from_parts(positional: Vec<String>, flags: Vec<(String, String)>) -> Args {
        Args { positional, flags }
    }

    /// Parses `std::env::args`.
    pub fn parse() -> Args {
        Args::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl Iterator<Item = String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next_if(|v| !v.starts_with("--")).unwrap_or_default();
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    /// True iff `--name` was given, with or without a value.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Typed flag lookup with a default. A value that does not parse as
    /// `T` stops the run through [`usage_error`].
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default)
            .unwrap_or_else(|msg| usage_error(&msg))
    }

    /// [`Args::get`] without the exit: the error names the flag.
    fn try_get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

/// Reports a bad command line on stderr and exits with status 2.
pub fn usage_error(msg: &str) -> ! {
    // qirana-lint::allow(QL006): a usage error is the printer's own output
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Runs `f` once and returns its output with the wall-clock seconds it
/// took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // qirana-lint::allow(QL004): wall-clock time is what the timed figures print
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Builds a broker with the common experiment defaults ($100 dataset).
#[allow(clippy::expect_used)] // printer setup: failure is fatal
pub fn broker(
    db: Database,
    function: PricingFunction,
    support_type: SupportType,
    size: usize,
    seed: u64,
) -> Qirana {
    Qirana::new(
        db,
        QiranaConfig {
            total_price: 100.0,
            function,
            support_type,
            support: SupportConfig {
                size,
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("broker construction") // qirana-lint::allow(QL007): the printers construct known-good brokers
}

/// Builds a database containing only the named tables of `db` (used by the
/// Figure 2/4a/4b printers, whose benchmark instance is Country +
/// CountryLanguage priced at $100 per relation).
pub fn subset_db(db: &Database, names: &[&str]) -> Database {
    let mut out = Database::new();
    for name in names {
        #[allow(clippy::expect_used)] // callers pass known table names
        let t = db.table(name).expect("table exists"); // qirana-lint::allow(QL007): callers pass known table names
        out.add_table(t.schema.clone(), t.rows.iter().cloned());
    }
    out
}

/// The 8 function × support combinations of Figure 2 / Figure 6, labeled
/// as in the paper's legends.
pub fn combos() -> Vec<(PricingFunction, SupportType, String)> {
    let mut out = Vec::new();
    for ty in [SupportType::Neighborhood, SupportType::Uniform] {
        let label = if ty == SupportType::Neighborhood {
            "nbrs"
        } else {
            "uniform"
        };
        for f in PricingFunction::ALL {
            out.push((f, ty, format!("{} - {}", f.name(), label)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qirana_datagen::world;

    #[test]
    fn broker_helper_builds() {
        let b = broker(
            world::generate(1),
            PricingFunction::WeightedCoverage,
            SupportType::Neighborhood,
            100,
            7,
        );
        assert!(b.quote("SELECT * FROM Country").unwrap() > 0.0);
    }

    #[test]
    fn combos_cover_all_eight() {
        assert_eq!(combos().len(), 8);
    }

    #[test]
    fn a_switch_takes_no_value() {
        let words = "ssb --profile --sf 0.5 --verbose";
        let args = Args::from_args(words.split(' ').map(String::from));
        assert_eq!(args.positional, ["ssb"]);
        assert!(args.switch("profile") && args.switch("verbose"));
        assert!(!args.switch("support"));
        assert_eq!(args.try_get("sf", 0.01), Ok(0.5));
    }

    #[test]
    fn a_flag_value_that_does_not_parse_is_an_error_naming_the_flag() {
        let args = Args::from_parts(
            Vec::new(),
            vec![
                ("support".to_string(), "1e5".to_string()),
                ("sf".to_string(), "0.5".to_string()),
            ],
        );
        assert_eq!(
            args.try_get("support", 2000usize),
            Err("--support: cannot parse `1e5`".to_string())
        );
        assert_eq!(args.try_get("sf", 0.01), Ok(0.5));
        assert_eq!(
            args.try_get("seed", 7u64),
            Ok(7),
            "an absent flag is its default"
        );
    }
}
