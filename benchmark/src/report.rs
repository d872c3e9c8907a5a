//! `run`, `trace` and `compare`: the commands a person types.
//!
//! `run` and `trace` start every workload in a fresh child process (so one
//! workload's allocator state, page cache use and peak memory cannot leak
//! into the next) and collect the result line each child prints.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::plan::CLIENTS;
use crate::stats::{median_f64, quartile_spread};
use crate::workloads::{benchmark_dir, NAMES};

pub const SCHEMA: &str = "qirana-benchmark/v1";
/// Default `--seed` and `--seconds` of `run` and `trace`; `BENCHMARK.json`
/// states the same `run_seconds`.
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: f64 = 12.0;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// `run` only: repetitions per workload, seeds `seed..seed + runs`;
    /// the median of each metric is kept.
    pub runs: u64,
    pub out: Option<PathBuf>,
}

/// One child run; returns its result document (the last stdout line) with
/// the `samples` line folded in. Everything the child prints is echoed.
fn child(workload: &str, o: &Options, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let last = text.lines().last().unwrap_or("");
    let Json::Obj(mut fields) =
        json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?
    else {
        return Err(format!("{workload}: result line is not an object"));
    };
    if let Some(samples) = text
        .lines()
        .find_map(|l| l.strip_prefix("samples "))
        .and_then(|l| json::parse(l).ok())
    {
        fields.push(("samples".into(), samples));
    }
    fields.push((
        "exit_code".into(),
        Json::Num(f64::from(output.status.code().unwrap_or(-1))),
    ));
    Ok(Json::Obj(fields))
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(benchmark_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn provenance(o: &Options, traced: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::obj(vec![
        ("seed", Json::Num(o.seed as f64)),
        ("runs_per_workload", Json::Num(o.runs as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("smoke", Json::Bool(o.smoke)),
        ("traced", Json::Bool(traced)),
        ("nproc", Json::Num(nproc as f64)),
        ("service_clients", Json::Num(CLIENTS as f64)),
        ("load", Json::Str("closed loop, one process".into())),
        (
            "flush_policy",
            Json::Str(
                "LedgerConfig::new default: fsync on every append, snapshot every 256 events"
                    .into(),
            ),
        ),
        ("git_commit", Json::Str(git_commit())),
        ("os", Json::Str(std::env::consts::OS.into())),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
        (
            "caveat",
            Json::Str(
                "measured in a sandbox where fsync is cheap and reads come from the page cache: \
                 latencies are this machine's, not a storage device's"
                    .into(),
            ),
        ),
    ])
}

fn write_results(doc: &Json, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json::render(doc) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn all_correct(workloads: &[(String, Json)]) -> bool {
    workloads.iter().all(|(_, w)| {
        w.get("correct") == Some(&Json::Bool(true)) && w.get("exit_code") == Some(&Json::Num(0.0))
    })
}

/// Folds the result documents of several runs of one workload into one:
/// each metric's median (with every value and their quartile spread when
/// there are several), operations summed, correct only if all were.
fn fold(runs: &[Json]) -> Json {
    let sum = |key: &str| runs.iter().filter_map(|r| r.get(key)?.num()).sum::<f64>();
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.path(&["metrics", m.name, "value"])?.num())
                .collect();
            let mut fields = vec![
                ("value", Json::Num(median_f64(&values).unwrap_or(f64::NAN))),
                ("unit", Json::Str(m.unit.into())),
            ];
            if let Some(spread) = quartile_spread(&values) {
                fields.push(("quartile_spread", Json::Num(spread)));
                fields.push((
                    "runs",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ));
            }
            (m.name.to_string(), json::obj(fields))
        })
        .collect();
    let all = |key: &str, want: &Json| runs.iter().all(|r| r.get(key) == Some(want));
    json::obj(vec![
        ("correct", Json::Bool(all("correct", &Json::Bool(true)))),
        ("attempted", Json::Num(sum("attempted"))),
        ("failed", Json::Num(sum("failed"))),
        ("metrics", Json::Obj(metrics)),
        (
            "samples",
            runs.first()
                .and_then(|r| r.get("samples"))
                .cloned()
                .unwrap_or(Json::Null),
        ),
        (
            "exit_code",
            Json::Num(if all("exit_code", &Json::Num(0.0)) {
                0.0
            } else {
                1.0
            }),
        ),
    ])
}

/// `run`: every workload, untraced; end-to-end metrics by name. With
/// `--runs N`, each workload runs N times on consecutive seeds and the
/// medians are kept: one 12 s run of a noisy sandbox is an anecdote.
pub fn run(o: &Options) -> Result<bool, String> {
    let mut workloads = Vec::new();
    for name in NAMES {
        let mut runs = Vec::new();
        for seed in o.seed..o.seed + o.runs.max(1) {
            println!("== {name} (seed {seed}, {} s) ==", o.seconds);
            runs.push(child(name, o, seed, false)?);
        }
        let folded = fold(&runs);
        if runs.len() > 1 {
            for m in &END_TO_END {
                let field = |key| {
                    folded
                        .path(&["metrics", m.name, key])
                        .and_then(Json::num)
                        .unwrap_or(f64::NAN)
                };
                println!(
                    "{name}: median of {} runs: {:<16} {:>14.6} {:<4} quartiles {:.1} % of it apart",
                    runs.len(),
                    m.name,
                    field("value"),
                    m.unit,
                    100.0 * field("quartile_spread")
                );
            }
        }
        workloads.push((name.to_string(), folded));
    }
    let ok = all_correct(&workloads);
    let doc = json::obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("provenance", provenance(o, false)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = o.out.clone().unwrap_or_else(|| {
        benchmark_dir()
            .join("results")
            .join(format!("run-{}.json", o.seed))
    });
    write_results(&doc, &path)?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// What the traced numbers must show if the workloads still separate the
/// layers the way they were designed to: `(claim, holds)`.
fn separation(workload: &str, value: impl Fn(&str) -> f64) -> Vec<(String, bool)> {
    let claim = |text: &str, holds: bool| (text.to_string(), holds);
    match workload {
        "serve_warm" => vec![
            claim(
                "no sweep in the timed phase (engine.neighbors_evaluated = 0)",
                value("engine.neighbors_evaluated") == 0.0,
            ),
            claim("cache.hit_ratio >= 0.95", value("cache.hit_ratio") >= 0.95),
        ],
        "serve_churn" => vec![claim(
            "cache.hit_ratio <= 0.5",
            value("cache.hit_ratio") <= 0.5,
        )],
        _ => {
            let mut claims = vec![claim("ledger.appends = 0", value("ledger.appends") == 0.0)];
            if workload == "flight_cold" {
                claims.push(claim(
                    "engine.sweep_s >= 0.8 x trace.request_wall_s",
                    value("engine.sweep_s") >= 0.8 * value("trace.request_wall_s"),
                ));
            }
            claims
        }
    }
}

/// `trace`: every workload untraced, then traced; the per-layer table and
/// what tracing cost.
pub fn trace(o: &Options) -> Result<bool, String> {
    let mut workloads = Vec::new();
    for name in NAMES {
        println!(
            "== {name}: untraced reference (seed {}, {} s) ==",
            o.seed, o.seconds
        );
        let plain = child(name, o, o.seed, false)?;
        println!("== {name}: traced ==");
        let Json::Obj(mut traced) = child(name, o, o.seed, true)? else {
            unreachable!("child returns an object");
        };
        let value = |doc: &Json, metric: &str| doc.path(&["metrics", metric, "value"])?.num();
        let untraced = value(&plain, "throughput_rps");
        let with_tracing = value(&Json::Obj(traced.clone()), "trace.throughput_rps");
        let ratio = match (with_tracing, untraced) {
            (Some(t), Some(u)) if u > 0.0 => t / u,
            _ => f64::NAN,
        };
        println!(
            "trace.overhead_ratio = {ratio:.4} (traced ÷ untraced throughput_rps, {} ÷ {})",
            with_tracing.unwrap_or(f64::NAN),
            untraced.unwrap_or(f64::NAN)
        );
        let doc = Json::Obj(traced.clone());
        for (text, holds) in separation(name, |metric| value(&doc, metric).unwrap_or(f64::NAN)) {
            println!(
                "layer separation: {text}: {}",
                if holds { "holds" } else { "DOES NOT HOLD" }
            );
        }
        traced.push(("trace.overhead_ratio".into(), Json::Num(ratio)));
        traced.push(("untraced".into(), plain));
        workloads.push((name.to_string(), Json::Obj(traced)));
    }
    let ok = all_correct(&workloads);
    let doc = json::obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("provenance", provenance(o, true)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = o.out.clone().unwrap_or_else(|| {
        benchmark_dir()
            .join("results")
            .join(format!("trace-{}.json", o.seed))
    });
    write_results(&doc, &path)?;
    println!(
        "wrote {} (spans: results/trace-<workload>.json)",
        path.display()
    );
    Ok(ok)
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative: better).
pub fn worse_by(better: &str, base: f64, candidate: f64) -> f64 {
    if better == "higher" {
        (base - candidate) / base
    } else {
        (candidate - base) / base
    }
}

/// `compare`: B against A, metric by metric and workload by workload,
/// each against its own bound. Returns the markdown table and whether B
/// stayed within every bound without failing more operations.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut table = String::from(
        "| workload | metric | unit | A | B | worse by | bound | verdict |\n|---|---|---|---|---|---|---|---|\n",
    );
    let mut ok = true;
    for name in NAMES {
        let side = |doc: &Json, keys: &[&str]| -> Result<f64, String> {
            let mut path = vec!["workloads", name];
            path.extend_from_slice(keys);
            doc.path(&path)
                .and_then(|v| v.num())
                .ok_or_else(|| format!("{} is missing", path.join(".")))
        };
        for m in &END_TO_END {
            let (va, vb) = (
                side(a, &["metrics", m.name, "value"])?,
                side(b, &["metrics", m.name, "value"])?,
            );
            let worse = worse_by(m.better, va, vb);
            // NaN (a metric that could not be computed) is never within.
            let within = worse <= m.bound;
            ok &= within;
            table.push_str(&format!(
                "| {name} | {} | {} | {va:.4} | {vb:.4} | {:+.1} % | {:.0} % | {} |\n",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "REGRESSION" }
            ));
        }
        let share = |doc: &Json| -> Result<f64, String> {
            Ok(side(doc, &["failed"])? / side(doc, &["attempted"])?)
        };
        let (fa, fb) = (share(a)?, share(b)?);
        let within = fb <= fa;
        ok &= within;
        table.push_str(&format!(
            "| {name} | failed_ops_share | ratio | {fa} | {fb} | | 0 | {} |\n",
            if within { "ok" } else { "REGRESSION" }
        ));
    }
    Ok((table, ok))
}

/// The per-layer table of one traced child, as text.
pub fn layer_table(values: &std::collections::BTreeMap<&'static str, f64>) -> String {
    let mut out = String::new();
    for d in &PER_LAYER {
        out.push_str(&format!(
            "{:<28} {:>16.6} {:<6} {:<6} -> {}\n",
            d.name,
            values.get(d.name).copied().unwrap_or(0.0),
            d.unit,
            d.better,
            d.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(throughput: f64, failed: f64) -> Json {
        let workloads = NAMES
            .iter()
            .map(|name| {
                let metrics = END_TO_END
                    .iter()
                    .map(|m| {
                        let v = if m.name == "throughput_rps" {
                            throughput
                        } else {
                            2.0
                        };
                        (m.name.to_string(), json::obj(vec![("value", Json::Num(v))]))
                    })
                    .collect();
                (
                    name.to_string(),
                    json::obj(vec![
                        ("attempted", Json::Num(100.0)),
                        ("failed", Json::Num(failed)),
                        ("metrics", Json::Obj(metrics)),
                    ]),
                )
            })
            .collect();
        json::obj(vec![("workloads", Json::Obj(workloads))])
    }

    #[test]
    fn compare_applies_direction_bound_and_failures() {
        assert!((worse_by("higher", 100.0, 89.0) - 0.11).abs() < 1e-12);
        assert!((worse_by("lower", 100.0, 105.0) - 0.05).abs() < 1e-12);
        let bound = END_TO_END[1].bound * 100.0;
        let base = results(100.0, 0.0);
        assert!(
            compare(&base, &results(100.0 - bound + 1.0, 0.0))
                .unwrap()
                .1
        );
        assert!(compare(&base, &results(500.0, 0.0)).unwrap().1);
        let (table, ok) = compare(&base, &results(100.0 - bound - 1.0, 0.0)).unwrap();
        assert!(!ok && table.contains("REGRESSION"));
        assert!(!compare(&base, &results(100.0, 1.0)).unwrap().1);
        assert!(!compare(&base, &results(f64::NAN, 0.0)).unwrap().1);
        assert!(compare(&base, &json::obj(vec![("workloads", Json::Null)])).is_err());
    }

    #[test]
    fn program_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::str).unwrap().to_string();
        let listed: Vec<_> = doc.get("end_to_end").unwrap().arr().unwrap().to_vec();
        assert_eq!(listed.len(), END_TO_END.len());
        for (l, m) in listed.iter().zip(&END_TO_END) {
            assert_eq!(field(l, "name"), m.name);
            assert_eq!(field(l, "unit"), m.unit);
            assert_eq!(field(l, "better"), m.better);
            assert_eq!(l.get("bound").unwrap().num(), Some(m.bound));
        }
        let listed: Vec<_> = doc.get("per_layer").unwrap().arr().unwrap().to_vec();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (l, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(l, "name"), m.name);
            assert_eq!(field(l, "unit"), m.unit);
            assert_eq!(field(l, "better"), m.better);
        }
        let names: Vec<_> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(names, NAMES);
        assert_eq!(doc.get("run_seconds").unwrap().num(), Some(DEFAULT_SECONDS));
    }
}
