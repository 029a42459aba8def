//! `fpfa-perfbench` — the seeded benchmark of the FPFA mapping flow and the
//! `fpfa-serve` daemon.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile_t4 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a stamp line (commit, host, toolchain, seed, pinned daemon
//! configuration), notes with sample counts, and as its last line one JSON
//! record: `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for the workloads and metrics.

mod compile;
mod gen;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

/// The workloads, by their `--workload` name.
const WORKLOADS: [&str; 4] = ["compile_t1", "compile_t4", "serve_warm", "serve_cold"];
/// Set-ups per untraced run; `setup_s` is their median.  The first is the
/// one the measured phase runs on; the others run in fresh child processes
/// (`--setup-only 1`), so they neither depend on the measured phase's
/// leftovers nor raise its memory peak.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

const USAGE: &str = "usage: fpfa-perfbench --workload compile_t1|compile_t4|serve_warm|serve_cold \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                if flag == "--trace" {
                    parsed.trace = on;
                } else {
                    parsed.setup_only = on;
                }
            }
            _ => return Err(format!("unknown option `{flag}`\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", parsed.workload));
    }
    Ok(parsed)
}

/// The first line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut command = std::process::Command::new(program);
    command.args(args).stdin(std::process::Stdio::null());
    // Never look for a repository above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(std::path::Path::to_path_buf))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(|line| line.trim().to_string())
        })
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The inputs that produced a result: commit, host, toolchain, seed and the
/// pinned daemon configuration, as one JSON object.
fn stamp(args: &Args) -> String {
    let quote = |text: &str| {
        let mut out = String::new();
        fpfa_obs::json::escape_into(&mut out, text);
        out
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|release| release.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    format!(
        "{{\"stamp\": {{\"commit\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"server_config\": {}}}}}",
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        quote(&kernel),
        quote(&command_line(&rustc, &["-V"])),
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serve::config_json(),
    )
}

/// Times one set-up of the workload in this process.
fn setup_only(args: &Args) -> Result<f64, String> {
    match args.workload.as_str() {
        "compile_t1" => compile::setup_only(1, args.seed),
        "compile_t4" => compile::setup_only(4, args.seed),
        "serve_warm" => serve::setup_only_warm(args.seed),
        "serve_cold" => serve::setup_only_cold(args.seed),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Times one set-up of the workload in a fresh child process.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--setup-only", "1"])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(seconds)) if output.status.success() => Ok(seconds),
        _ => Err(format!("set-up child failed: {}", output.status)),
    }
}

/// The median of [`SETUP_REPS`] set-ups, the first taken by the run itself.
fn setup_metric(args: &Args, outcome: &mut report::Outcome) -> Result<(), String> {
    let Some(first) = outcome.setup_s else {
        return Ok(());
    };
    let mut setups = vec![first];
    while setups.len() < SETUP_REPS {
        setups.push(setup_in_child(args)?);
    }
    outcome.metrics.set("setup_s", stats::median(&setups));
    outcome.notes.push(format!(
        "setup_s is the median of {} set-ups: {:.4} s (min {:.4}, max {:.4})",
        setups.len(),
        stats::median(&setups),
        stats::quantile(&setups, 0.0),
        stats::quantile(&setups, 1.0)
    ));
    Ok(())
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    match args.workload.as_str() {
        "compile_t1" => compile::run(1, args.seed, args.seconds, args.trace),
        "compile_t4" => compile::run(4, args.seed, args.seconds, args.trace),
        "serve_warm" => serve::run_warm(args.seed, args.seconds, args.trace),
        "serve_cold" => serve::run_cold(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("fpfa-perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    if args.setup_only {
        return match setup_only(&args) {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("fpfa-perfbench: {}: {message}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    println!("{}", stamp(&args));
    let outcome = run(&args).and_then(|mut outcome| {
        setup_metric(&args, &mut outcome)?;
        Ok(outcome)
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("fpfa-perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {}: {note}", args.workload);
    }
    match report::render(&outcome, args.trace) {
        Ok(record) => {
            println!("{record}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("fpfa-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_command_line_arguments_parse() {
        let parsed = args(&[
            "--workload",
            "serve_cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(parsed.workload, "serve_cold");
        assert_eq!(parsed.seed, 7);
        assert!(parsed.trace);
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "compile_t1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "compile_t1", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
        let child = args(&[
            "--workload",
            "compile_t4",
            "--seed",
            "2",
            "--setup-only",
            "1",
        ])
        .expect("set-up child arguments");
        assert!(child.setup_only && !child.trace);
    }
}
