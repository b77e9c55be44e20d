//! End-to-end benchmark of the VELA fine-tuning loop.
//!
//! ```text
//! vela_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `METRICS.md` beside this crate) on the real
//! master–worker runtime and prints a human-readable report followed by
//! one JSON result line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 0 only when every operation
//! succeeded and every output check passed.

mod bench;
mod guard;
mod host;
mod reference;
mod report;
mod setup;

use std::panic::{self, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::Duration;

use report::{render_result, Metric};
use setup::{Workload, WORKLOADS};

/// Wall-clock budget of one invocation; the watchdog fails the run after it.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The program reads many `VELA_*` knobs; a stray one would silently
/// change what is measured, so the benchmark refuses to run under any.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("VELA_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: every VELA_* knob must be at its default",
            set.join(", ")
        ))
    }
}

/// The host and build a result was measured on.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cwd = std::env::current_dir().unwrap_or_default();
    let capture = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let rustc = capture(Command::new("rustc").arg("-V"));
    // Only a repository rooted here counts; never search parent directories.
    let commit = capture(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd)),
    );
    let pool = vela_tensor::parallel::global_pool().threads();
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit} tensor_pool={pool}")
}

/// Prints the result line of a run that ended without a report.
fn print_failed() {
    let (attempted, failed) = guard::counts();
    let line = render_result(false, attempted.max(1), failed.max(1), &[])
        .expect("an empty metric list always renders");
    println!("{line}");
}

fn print_report(args: &Args, metrics: &[Metric], notes: &[String]) {
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    for note in notes {
        println!("# {note}");
    }
    for m in metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_environment().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vela_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    vela_obs::set_mode(vela_obs::TraceMode::Off);
    println!("# host {}", fingerprint());

    let watchdog = guard::Watchdog::arm(args.workload.name, WATCHDOG, print_failed);
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            bench::traced(args.workload, args.seed, args.seconds)
        } else {
            bench::untraced(args.workload, args.seed, args.seconds)
        }
    }));
    let outcome = match run {
        Ok(Ok(outcome)) => Some(outcome),
        Ok(Err(e)) => {
            eprintln!("vela_e2e: {e}");
            None
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            guard::record_failure(format!("panic in workload {}: {msg}", args.workload.name));
            None
        }
    };
    watchdog.disarm();

    let Some(outcome) = outcome else {
        guard::reap_children();
        for e in guard::errors() {
            eprintln!("vela_e2e: failed: {e}");
        }
        print_failed();
        return ExitCode::FAILURE;
    };
    print_report(&args, &outcome.metrics, &outcome.notes);
    let (attempted, failed) = guard::counts();
    let correct = outcome.verdict.is_ok() && failed == 0;
    if let Err(e) = &outcome.verdict {
        eprintln!("vela_e2e: output check failed: {e}");
    }
    match render_result(correct, attempted, failed, &outcome.metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("vela_e2e: {e}");
            print_failed();
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
