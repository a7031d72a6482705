//! The consume-local benchmark: one program, three workloads, one result
//! line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_large|serve_medium|catchup_medium \
//!     [--seed 2018] [--seconds 10] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it makes the separate traced run that gives the
//! per-layer metrics. Either way every report is checked against a
//! reference computed through a different entry point, and the last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. The run record (`env` block, report digest, facts, layer
//! self times) and the traced run's spans go to `perfbench/out/`. See
//! `perfbench/README.md` for why each workload exists and which metric each
//! layer should move.

#![deny(unsafe_code)]

mod catchup;
mod clock;
mod common;
mod feed;
mod layers;
mod serve;
mod spans;
mod stream;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Args, Outcome};
use spans::Totals;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["stream_large", "serve_medium", "catchup_medium"];

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let mut outcome = match args.workload.as_str() {
        "stream_large" => stream::run(&args),
        "serve_medium" => serve::run(&args, &out_dir),
        "catchup_medium" => catchup::run(&args, &out_dir),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            m.value = 0.0;
            outcome.correct = false;
            outcome.failed += 1;
        }
    }

    if let Err(e) = write_record(&args, &outcome, &out_dir) {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    eprintln!(
        "perfbench: {} seed {} trace {}: correct {} ({} failed of {}), report digest {:#018x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.correct,
        outcome.failed,
        outcome.attempted,
        outcome.digest
    );
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2018,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// The contract's result line.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

/// Writes `<workload>.json` (env block, digest, facts, metrics, layer self
/// times) and, for traced runs, `<workload>.spans.jsonl` into `out_dir`.
fn write_record(args: &Args, outcome: &Outcome, out_dir: &Path) -> std::io::Result<()> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let env = [
        ("nproc", common::nproc().to_string()),
        ("rustc", rustc_version()),
        (
            "commit",
            git_commit(&root).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "snapshot_fs",
            filesystem_of(out_dir).unwrap_or_else(|| "unknown".into()),
        ),
    ];
    let object = |pairs: &mut dyn Iterator<Item = (String, String)>| {
        let body: Vec<String> = pairs.map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    };
    let env = object(&mut env.iter().map(|(k, v)| (k.to_string(), quote(v))));
    let facts = object(&mut outcome.facts.iter().map(|(k, v)| (k.to_string(), quote(v))));
    let metrics = object(&mut outcome.metrics.iter().map(|m| {
        (
            m.name.to_string(),
            format!("{{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit),
        )
    }));
    let self_ms = object(
        &mut Totals::new(&outcome.spans)
            .self_ms()
            .into_iter()
            .map(|(name, ms)| (name.to_string(), format!("{ms:.4}"))),
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"env\": {env}, \
         \"report_digest\": \"{:#018x}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"facts\": {facts}, \"metrics\": {metrics}, \"self_ms\": {self_ms}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        outcome.digest,
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    std::fs::write(out_dir.join(format!("{}.json", args.workload)), record)?;
    if args.trace {
        std::fs::write(
            out_dir.join(format!("{}.spans.jsonl", args.workload)),
            spans::to_json_lines(&outcome.spans),
        )?;
    }
    Ok(())
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `rustc --version` of the toolchain on `PATH`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `root/.git` (absent in an export).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The filesystem type of the mount holding `dir`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir: PathBuf = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), format!("{fs} on {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}
