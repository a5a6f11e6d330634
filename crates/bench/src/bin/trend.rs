//! `trend` — records and evaluates `BENCH_trend.jsonl`, the per-commit
//! history of the repo benchmark's end-to-end metrics.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat 3 \
//!     | cargo run --release -p gossip-bench --bin trend -- record
//! cargo run --release -p gossip-bench --bin trend -- check
//! ```
//!
//! * `record [FILE]` reads the benchmark's output on stdin and appends one
//!   point per workload × end-to-end metric to FILE, stamped with the
//!   checkout's commit (`<hash>+dirty` when a tracked file other than
//!   `BENCH_trend.jsonl` differs from it). Only an all-workloads run
//!   names the workload on its result lines, so that is what must be
//!   piped in;
//! * `check [FILE]` runs the sustained-regression detector
//!   ([`gossip_bench::trend`]) over FILE and exits non-zero if a cell
//!   regressed.
//!
//! FILE defaults to `BENCH_trend.jsonl`. Both modes run from the repository
//! root: the metrics and which way each is better are read from
//! `BENCHMARK.json` there.

use std::io::{Read as _, Write as _};
use std::process::ExitCode;

use gossip_bench::trend::{self, Better, TrendPoint};

fn record(path: &str, directions: &[(String, Better)]) -> Result<(), String> {
    let mut input = String::new();
    std::io::stdin().read_to_string(&mut input).map_err(|e| format!("cannot read stdin: {e}"))?;
    let repo = std::path::Path::new(".");
    let commit = trend::commit_label(&trend::read_git_commit(repo), trend::tree_is_dirty(repo));
    let recorded_unix = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut lines = String::new();
    let mut recorded = 0usize;
    for (workload, values) in input.lines().filter_map(|l| trend::outcome_values(l, directions)) {
        for (metric, value) in values {
            let point = TrendPoint {
                label: workload.clone(),
                metric,
                value,
                commit: commit.clone(),
                recorded_unix,
            };
            lines.push_str(&point.to_line());
            lines.push('\n');
            recorded += 1;
        }
    }
    if recorded == 0 {
        return Err("stdin carries no end-to-end result line that names its workload \
                    (pipe in an untraced `benchmark --workload all` run)"
            .to_string());
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(lines.as_bytes()))
        .map_err(|e| format!("cannot append to {path}: {e}"))?;
    eprintln!("trend: recorded {recorded} points at commit {commit} into {path}");
    Ok(())
}

fn check(path: &str, directions: &[(String, Better)]) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("trend: no {path} yet — nothing to gate on");
        return Ok(());
    };
    let points = trend::parse_jsonl(&text);
    let cells = trend::evaluate(
        &points,
        directions,
        trend::NOISE_FRACTION,
        trend::SUSTAIN,
        trend::MIN_HISTORY,
    );
    eprintln!(
        "trend: {path}, {} points, noise floor {:.0}%, sustain {}:",
        points.len(),
        trend::NOISE_FRACTION * 100.0,
        trend::SUSTAIN,
    );
    for cell in &cells {
        let verdict = if cell.regressed {
            "REGRESSED"
        } else if cell.points < trend::MIN_HISTORY {
            "building history"
        } else {
            "ok"
        };
        eprintln!(
            "  {} [{}]: last {:.4} vs baseline {:.4} ({:+.1}%), {} points — {verdict}",
            cell.label, cell.metric, cell.last, cell.baseline, cell.delta_pct, cell.points,
        );
    }
    match cells.iter().filter(|c| c.regressed).count() {
        0 => Ok(()),
        n => Err(format!("{n} cell(s) sustained a regression")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [mode] => (mode.as_str(), "BENCH_trend.jsonl"),
        [mode, path] => (mode.as_str(), path.as_str()),
        _ => ("", ""),
    };
    let run = match mode {
        "record" => record,
        "check" => check,
        _ => {
            eprintln!("usage: trend record|check [FILE]");
            return ExitCode::from(2);
        }
    };
    let directions = std::fs::read_to_string("BENCHMARK.json")
        .map(|text| trend::metric_directions(&text))
        .unwrap_or_default();
    if directions.is_empty() {
        eprintln!("trend: FAILED: no end_to_end metrics in ./BENCHMARK.json (run from the root)");
        return ExitCode::FAILURE;
    }
    match run(path, &directions) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trend: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
