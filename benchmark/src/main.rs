//! End-to-end + per-layer benchmark for the EveryWare stack.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! benchmark all [--seed N] [--seconds S]                       every workload, timed then traced
//! benchmark --check                                            self-checks on shrunk worlds
//! benchmark compare A.json B.json                              verdict per (workload, metric)
//! ```
//!
//! Everything is single-threaded and measured from outside the crates:
//! by timing calls into their public functions and by reading the
//! deterministic registry counters a run leaves behind. See README.md.

mod check;
mod compare;
mod json;
mod measure;
mod metrics;
mod probes;
mod shares;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use workloads::{Sizes, Workload};

const DEFAULT_SEED: u64 = 1998;
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1
  benchmark all [--seed N] [--seconds S]
  benchmark --check
  benchmark compare A.json B.json
workloads: mega_rpc sc98_12h chaos_sweep bulk_flow real_search";

/// Where traces and result files go: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

/// One run of one workload, as the driver invokes it.
fn run_one(args: &RunArgs) -> std::io::Result<()> {
    let w = args.workload.expect("caller checked the workload");
    let sizes = Sizes::FULL;
    let result = if args.trace {
        let (result, tracer) = measure::traced_run(w, args.seed, &sizes);
        std::fs::create_dir_all(out_dir())?;
        std::fs::write(
            out_dir().join(format!("trace.{}.jsonl", w.name())),
            tracer.to_jsonl(w.name()),
        )?;
        result
    } else {
        measure::timed_run(w, args.seed, args.seconds, &sizes)
    };
    for (name, value, unit) in &result.metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    for failure in &result.failures {
        println!("FAILED CHECK {failure}");
    }
    println!("# info {}", result.info.render());
    println!("{}", result.result_line());
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn header(seed: u64, seconds: f64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_revision",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("loadavg1", Json::Num(measure::loadavg1())),
    ])
}

/// Run one workload in a child process, echo its report (every metric by
/// name and unit, failed checks, the info line) and return the section it
/// contributes to `results.json`: its result object with the info folded in.
fn child_section(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}:\n{stdout}",
            w.name(),
            out.status
        ));
    }
    let (report, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or("child printed no report")?;
    let info = report
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("# info "))
        .ok_or("child printed no info line")?;
    println!("{report}");
    let mut pairs = vec![("info".to_string(), Json::parse(info)?)];
    pairs.extend(Json::parse(result)?.entries().iter().cloned());
    Ok(Json::Obj(pairs))
}

/// Every workload in its own sequential child process (so peak RSS is
/// attributable), timed then traced; prints every metric by name and
/// unit and writes `out/results.json` and `out/trace.jsonl`.
fn run_all(seed: u64, seconds: f64) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let head = header(seed, seconds);
    println!("# {}", head.render());
    println!("# host time is host; counts and simulated seconds are simulated");
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut trace = String::new();
    for w in Workload::ALL {
        println!("\n== {}: end to end (tracing off)", w.name());
        let timed = child_section(w, seed, seconds, false)?;
        println!("\n== {}: per layer (traced run)", w.name());
        let traced = child_section(w, seed, seconds, true)?;
        for section in [&timed, &traced] {
            all_correct &= section.get("correct").and_then(Json::as_bool) == Some(true);
        }
        trace.push_str(
            &std::fs::read_to_string(out_dir().join(format!("trace.{}.jsonl", w.name())))
                .map_err(|e| e.to_string())?,
        );
        workloads.push((w.name(), Json::obj([("timed", timed), ("traced", traced)])));
    }
    let results = Json::obj([
        ("header", head),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(out_dir().join("results.json"), results.render_pretty())
        .and_then(|()| std::fs::write(out_dir().join("trace.jsonl"), trace))
        .map_err(|e| e.to_string())?;
    println!("\nwrote {}", out_dir().join("results.json").display());
    Ok(all_correct)
}

fn read_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") if args.len() == 1 => {
            let bad = check::run();
            for b in &bad {
                println!("FAILED CHECK {b}");
            }
            println!("check: {}", if bad.is_empty() { "ok" } else { "FAILED" });
            Ok(bad.is_empty())
        }
        Some("compare") if args.len() == 3 => {
            let worse = compare::compare(&read_results(&args[1])?, &read_results(&args[2])?)?;
            println!("\n{worse} worse");
            Ok(worse == 0)
        }
        Some("all") => {
            let run = parse_run_args(&args[1..])?;
            if run.workload.is_some() || run.trace {
                return Err("`all` takes only --seed and --seconds".into());
            }
            run_all(run.seed, run.seconds)
        }
        Some(flag) if flag.starts_with("--") => {
            let run = parse_run_args(&args)?;
            if run.workload.is_none() {
                return Err("--workload is required".into());
            }
            // The result line carries `correct`; the exit code only says
            // that a result was printed.
            run_one(&run).map(|()| true).map_err(|e| e.to_string())
        }
        _ => Err("no command".into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
