//! The repo's benchmark: per-party CPU, round latency and bytes per email on
//! six paper-scale mailroom workloads, with per-layer probes and a
//! channel-boundary trace. `README.md` beside `Cargo.toml` is the manual;
//! `BENCHMARK.json` at the repo root is the contract later PRs claim against.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark [--seed N] [--traced] [--repeat K] [--out FILE]    every workload, each in a child process
//! benchmark --smoke                                            the same at test scale, seconds in all
//! benchmark --probes                                           the per-layer probes alone
//! benchmark --compare A.json B.json                            better / same / worse / unresolved
//! benchmark --describe                                         BENCHMARK.json, from the catalogue
//! ```

mod catalogue;
mod compare;
mod model;
mod oracle;
mod probes;
mod procfs;
mod report;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use pretzel_bench::{arg_value, JsonValue};

use report::Record;
pub use report::{metric, Metric};
use runner::{RunOptions, RunResult};
use workloads::{Scale, Workload};

/// Length of one measured window, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 10;
/// Set-ups per untraced run: one cold throw-away, then three whose median is
/// `setup_s`.
const SETUPS: usize = 4;
/// Distinct emails per classification session (replayed in a cycle).
const EMAILS_PER_SESSION: usize = 512;
/// Search scripts cannot cycle, so they are sized for the window: ops per
/// second per session, well above the ~5000 this box serves.
const SEARCH_OPS_PER_SECOND: f64 = 12_000.0;
/// Calls per generator (cycles, for churn) of a `--smoke` run.
const SMOKE_CALLS: usize = 6;

struct Args {
    seed: u64,
    seconds: f64,
    smoke: bool,
}

impl Args {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Paper
        }
    }

    fn inputs(&self, w: &Workload) -> workloads::Inputs {
        let search_ops = (self.seconds * SEARCH_OPS_PER_SECOND) as usize + 64;
        workloads::generate(w, self.scale(), self.seed, EMAILS_PER_SESSION, search_ops)
    }

    /// `--smoke` swaps the deadline for a call count (one cycle for churn,
    /// which is already eight sessions) and makes a single set-up.
    fn options(&self, w: &Workload, seconds: f64, setups: usize, traced: bool) -> RunOptions {
        let churn = matches!(w.flow, workloads::Flow::Churn { .. });
        RunOptions {
            seconds,
            setups: if self.smoke { 1 } else { setups },
            traced,
            calls: self.smoke.then_some(if churn { 1 } else { SMOKE_CALLS }),
        }
    }
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn number<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_value(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("benchmark: {name} takes a number, got {v:?}");
            std::process::exit(2);
        }),
    }
}

/// One untraced run: the end-to-end metrics.
fn run_end_to_end(w: &Workload, args: &Args) -> Record {
    let inputs = args.inputs(w);
    let options = args.options(w, args.seconds, SETUPS, false);
    let run = runner::run(w, &inputs, &options);
    Record::new(w, args.seed, false, &run, &report::end_to_end(&run))
}

/// One `--trace 1` run: half the window untraced, half traced, then the
/// probes; reports every per-layer metric.
fn run_per_layer(w: &Workload, args: &Args, spans_out: Option<&str>) -> Record {
    let inputs = args.inputs(w);
    let half = args.seconds / 2.0;
    let untraced = runner::run(w, &inputs, &args.options(w, half, 1, false));
    let traced = runner::run(w, &inputs, &args.options(w, half, 1, true));
    let probes = probes::run(w, args.scale());
    let metrics = report::per_layer(w, &untraced, &traced, &probes);
    if let Some(path) = spans_out {
        write_spans(path, &traced);
    }
    let mut record = Record::new(w, args.seed, true, &traced, &metrics);
    record.attempted += untraced.window.attempted;
    record.failed += untraced.window.failed;
    record.correct &= untraced.window.failed == 0;
    record
}

/// Rounds per session a spans file keeps (a search session makes tens of
/// thousands; the aggregate metrics always cover all of them).
const SPAN_ROUNDS_PER_SESSION: usize = 256;

fn write_spans(path: &str, traced: &RunResult) {
    let spans: Vec<JsonValue> = traced
        .window
        .traces
        .iter()
        .map(|session| {
            let mut session = session.clone();
            session.rounds.truncate(SPAN_ROUNDS_PER_SESSION);
            trace::spans_json(&trace::build_spans(&session))
        })
        .collect();
    if let Err(e) = std::fs::write(path, JsonValue::Arr(spans).to_json()) {
        eprintln!("benchmark: cannot write {path}: {e}");
    }
}

/// Re-runs this executable for one workload, so peak RSS and allocator state
/// are the workload's own, and parses the result line it prints last.
fn run_child(w: &Workload, args: &Args, traced: bool) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: the run printed nothing ({})", w.name, output.status))?;
    let json = JsonValue::parse(line).map_err(|e| format!("{}: {e}", w.name))?;
    Record::from_json(&json, w.name, args.seed, traced)
        .ok_or_else(|| format!("{}: malformed result line", w.name))
}

fn print_record(record: &Record) {
    println!(
        "== {} seed {} {} ({} emails, {} failed)",
        record.workload,
        record.seed,
        if record.traced {
            "per-layer"
        } else {
            "end-to-end"
        },
        record.attempted,
        record.failed
    );
    print!("{}", record.lines());
}

fn run_all(args: &Args) -> ExitCode {
    let repeat: u64 = number("--repeat", 1);
    let passes: &[bool] = if flag("--traced") {
        &[false, true]
    } else {
        &[false]
    };
    let loadavg = procfs::loadavg_1m();
    let mut records = Vec::new();
    let mut ok = true;
    for rep in 0..repeat {
        let args = Args {
            seed: args.seed + rep,
            ..*args
        };
        for w in workloads::all() {
            for &traced in passes {
                match run_child(&w, &args, traced) {
                    Ok(record) => {
                        ok &= record.correct;
                        print_record(&record);
                        records.push(record);
                    }
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        ok = false;
                    }
                }
            }
        }
    }
    if let Some(path) = arg_value("--out") {
        let file = report::results_file(
            procfs::host_fingerprint(loadavg),
            args.seconds,
            args.smoke,
            &records,
        );
        match std::fs::write(&path, file.to_json() + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("benchmark: cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == "--compare").expect("checked");
    let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
        eprintln!("benchmark: --compare takes two results files");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| report::parse_results_file(&text))
            .map_err(|e| eprintln!("benchmark: {path}: {e}"))
    };
    let (Ok(a), Ok(b)) = (load(a), load(b)) else {
        return ExitCode::from(2);
    };
    let (text, any_worse) = compare::render(&compare::compare(&a, &b));
    print!("{text}");
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `BENCHMARK.json` as the catalogue and the workload table define it —
/// regenerate the file with this after adding a workload or a counter.
fn describe() -> JsonValue {
    let text = |s: &str| JsonValue::Str(s.into());
    let strings = |items: &[&str]| JsonValue::Arr(items.iter().map(|s| text(s)).collect());
    JsonValue::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", JsonValue::Int(RUN_SECONDS)),
        (
            "workloads",
            JsonValue::Arr(
                workloads::all()
                    .iter()
                    .map(|w| JsonValue::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            JsonValue::Arr(
                catalogue::END_TO_END
                    .iter()
                    .map(|m| {
                        JsonValue::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", JsonValue::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            JsonValue::Arr(
                catalogue::PER_LAYER
                    .iter()
                    .map(|m| {
                        JsonValue::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    if flag("--compare") {
        return run_compare();
    }
    if flag("--describe") {
        println!("{}", describe().to_json());
        return ExitCode::SUCCESS;
    }
    let smoke = flag("--smoke");
    let args = Args {
        seed: number("--seed", 7),
        seconds: number("--seconds", RUN_SECONDS as f64),
        smoke,
    };
    if flag("--probes") {
        let reference = workloads::by_name("spam_short_bank").expect("reference workload");
        for m in probes::run(&reference, args.scale()) {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        return ExitCode::SUCCESS;
    }
    let Some(name) = arg_value("--workload") else {
        return run_all(&args);
    };
    let Some(w) = workloads::by_name(&name) else {
        eprintln!(
            "benchmark: unknown workload {name:?}; known: {}",
            workloads::all().map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    let traced = flag("--traced") || arg_value("--trace").is_some_and(|v| v == "1");
    let record = if traced {
        run_per_layer(&w, &args, arg_value("--spans").as_deref())
    } else {
        run_end_to_end(&w, &args)
    };
    print!("{}", record.lines());
    println!("{}", record.result_json().to_json());
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
