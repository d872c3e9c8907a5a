//! The repository benchmark.
//!
//! ```text
//! qirana-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! qirana-benchmark run   [--seed N] [--seconds S] [--runs N] [--out PATH]   all four, end-to-end metrics
//! qirana-benchmark trace [--seed N] [--seconds S] [--out PATH]      all four, per-layer table
//! qirana-benchmark compare A.json B.json                            B against A, within bounds?
//! ```
//!
//! `--smoke` (any mode but `compare`) shrinks every workload to about a
//! fiftieth of the work; all output checks still run. See `README.md`.

mod check;
mod drive;
mod http;
mod json;
mod layers;
mod measure;
mod metrics;
mod plan;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use measure::Args;
use metrics::{END_TO_END, PER_LAYER};

/// `--key value` pairs and the bare `--smoke` flag, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        self.0
            .get(at + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{key} needs a value"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// One workload, measured in this process; prints every metric by name
/// with its unit, then the result line.
fn one_workload(flags: &Flags) -> Result<bool, String> {
    let args = Args {
        workload: flags.value("--workload")?.ok_or("--workload is required")?,
        seed: flags.value("--seed")?.unwrap_or(report::DEFAULT_SEED),
        seconds: flags.value("--seconds")?.unwrap_or(report::DEFAULT_SECONDS),
        trace: flags.value::<u8>("--trace")?.unwrap_or(0) != 0,
        smoke: flags.has("--smoke"),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let m = measure::measure(&args).map_err(|e| format!("{}: {e}", args.workload))?;

    for note in &m.verdict.notes {
        println!("FAILED CHECK: {note}");
    }
    println!(
        "{}: {} requests in {:.3} s timed, {} of {} checks failed",
        args.workload,
        m.run.requests(),
        m.run.wall_s,
        m.verdict.failed,
        m.verdict.attempted
    );
    let rows: Vec<(&str, f64, &str)> = if args.trace {
        let attribution = layers::attribute(&m);
        let values = layers::per_layer(&m, &attribution);
        let doc = layers::trace_document(&m, &values, &attribution);
        let dir = workloads::benchmark_dir().join("results");
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, json::render(&doc) + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        print!("{}", report::layer_table(&values));
        println!(
            "request wall {:.3} s, by layer self time:",
            attribution.request_wall_s
        );
        for (layer, seconds) in &attribution.layers {
            println!(
                "  {layer:<30} {seconds:>10.4} s  {:>6.2} %",
                100.0 * seconds / attribution.request_wall_s
            );
        }
        println!(
            "  {:<30} {:>10.4} s  {:>6.2} %  (trace.residual_share)",
            "no layer accounts for",
            attribution.residual_s,
            100.0 * attribution.residual_share()
        );
        println!("spans written to {}", path.display());
        PER_LAYER
            .iter()
            .map(|d| (d.name, values.get(d.name).copied().unwrap_or(0.0), d.unit))
            .collect()
    } else {
        let values = metrics::end_to_end(&m);
        let mut samples = Vec::new();
        for (d, (value, count)) in END_TO_END.iter().zip(&values) {
            println!(
                "{:<18} {value:>14.6} {:<6} ({count} samples)",
                d.name, d.unit
            );
            samples.push((d.name.to_string(), json::Json::Num(*count as f64)));
        }
        samples.push(("peak_rss_mb".into(), json::Json::Num(m.peak_rss_mb)));
        println!(
            "peak_rss_mb {:.3} MB (not bounded; see README)",
            m.peak_rss_mb
        );
        println!("samples {}", json::render(&json::Json::Obj(samples)));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(d, (value, _))| (d.name, value, d.unit))
            .collect()
    };
    // A metric that could not be computed is a failure, not a number.
    let missing = rows.iter().filter(|r| !r.1.is_finite()).count() as u64;
    println!(
        "{}",
        metrics::result_line(
            m.verdict.attempted + missing,
            m.verdict.failed + missing,
            &rows
        )
    );
    Ok(m.verdict.failed + missing == 0)
}

fn dispatch(argv: Vec<String>) -> Result<bool, String> {
    let command = argv.first().cloned().unwrap_or_default();
    let flags = Flags(argv);
    let options = || -> Result<report::Options, String> {
        Ok(report::Options {
            seed: flags.value("--seed")?.unwrap_or(report::DEFAULT_SEED),
            seconds: flags.value("--seconds")?.unwrap_or(report::DEFAULT_SECONDS),
            smoke: flags.has("--smoke"),
            runs: flags.value("--runs")?.unwrap_or(1),
            out: flags.value("--out")?,
        })
    };
    match command.as_str() {
        "run" => report::run(&options()?),
        "trace" => report::trace(&options()?),
        "compare" => {
            let read = |i: usize| -> Result<json::Json, String> {
                let path = flags.0.get(i).ok_or("usage: compare A.json B.json")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let (table, ok) = report::compare(&read(1)?, &read(2)?)?;
            print!("{table}");
            println!(
                "\n{}",
                if ok {
                    "B is within every bound of A."
                } else {
                    "B is beyond a bound of A, or fails more operations."
                }
            );
            Ok(ok)
        }
        _ if flags.has("--workload") => one_workload(&flags),
        _ => Err(
            "usage: --workload W --seed N --seconds S --trace 0|1 | run | trace | compare A B"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("qirana-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
