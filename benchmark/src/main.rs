//! `benchmark` — the repo benchmark: four pinned workloads, eight
//! end-to-end metrics and a per-layer cost ledger with a traced pass.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed S] [--seconds T] [--trace [0|1]]
//!           [--out DIR] [--repeat N] [--check-repeat] [--quick] [--list]
//! ```
//!
//! Every workload runs in a fresh child process of this binary, so CPU
//! time and peak RSS are per workload. The parent only orchestrates: it
//! sleeps in `wait` while a child measures. See `README.md` beside this
//! package for the workloads, the metric tables and how to read the
//! ledger; `../BENCHMARK.json` carries the same names for the driver.

mod json;
mod lags;
mod ledger;
mod live;
mod outcome;
mod procstat;
mod render;
mod runner;
mod sim;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use runner::RunOpts;
use spec::{Workload, DESIGN_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: benchmark [--workload NAME|all] [--seed S] [--seconds T] [--trace [0|1]] \
                     [--out DIR] [--repeat N] [--check-repeat] [--quick] [--list]";

/// Repeat `i` of a set runs with seed `S + i × SEED_STRIDE`: far enough
/// apart that `sim_paper`'s consecutive timed seeds never overlap.
const SEED_STRIDE: u64 = 1000;

#[derive(Debug, Clone)]
struct Cli {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    repeat: u64,
    check_repeat: bool,
    quick: bool,
    list: bool,
    /// Internal: this process *is* the per-workload child.
    child: bool,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: DESIGN_SECONDS,
        trace: false,
        out: PathBuf::from("target/benchmark"),
        repeat: 1,
        check_repeat: false,
        quick: false,
        list: false,
        child: false,
    };
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workloads = if name == "all" {
                    WORKLOADS.iter().collect()
                } else {
                    vec![spec::workload(&name).ok_or(format!("unknown workload {name:?}"))?]
                };
            }
            "--seed" => {
                cli.seed = value("--seed")?.parse().map_err(|_| "--seed must be a whole number")?;
            }
            "--seconds" => {
                cli.seconds =
                    value("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
                if !(cli.seconds >= 1.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must lie in 1..=60".to_string());
                }
            }
            "--trace" => {
                // Both the bare flag and the driver's `--trace 0|1`.
                cli.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--repeat" => {
                cli.repeat = value("--repeat")?.parse().map_err(|_| "--repeat must be a count")?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--check-repeat" => cli.check_repeat = true,
            "--quick" => cli.quick = true,
            "--list" => cli.list = true,
            "--child" => cli.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    if cli.child {
        return child(&cli, started);
    }
    parent(&cli)
}

/// `--list`: the vocabulary, with the interaction map.
fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<10} {}\n             why: {}\n", w.name, w.what, w.why));
    }
    out.push_str("end-to-end metrics (every workload reports every one):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<20} {:<4} {} is better, bound {:.0} %\n      sim:  {}\n      live: {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.on_sim,
            m.on_live
        ));
    }
    out.push_str("per-layer metrics (C count, T timed ns/call, P phase share, D derived) -> what each should move:\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {} {:<36} {:<6} {:<6} -> {}\n",
            m.source.tag(),
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

/// The per-workload child: run, print the report, print the outcome JSON
/// as the last line.
fn child(cli: &Cli, started: Instant) -> ExitCode {
    let [workload] = cli.workloads[..] else {
        eprintln!("benchmark: --child runs exactly one workload");
        return ExitCode::from(2);
    };
    let opts = RunOpts {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        out_dir: cli.out.clone(),
    };
    let outcome = runner::run_workload(&opts, started);
    print!("{}", render::outcome(&outcome, workload.runtime, workload.what, workload.why));
    println!("{}", outcome.to_json().to_line());
    ExitCode::SUCCESS
}

/// Spawns one child, echoes its report and returns its outcome JSON.
fn run_child(cli: &Cli, workload: &Workload, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out);
    if cli.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end; stderr (progress) passes through.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the {} child: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("the {} child exited with {}", workload.name, output.status));
    }
    Json::parse(last).map_err(|e| format!("the {} child printed no result: {e}", workload.name))
}

fn metric_value(outcome: &Json, group: &str, name: &str) -> Option<f64> {
    outcome.get(group)?.get(name)?.get("value")?.as_f64()
}

/// One set = every selected workload × `--repeat` runs.
fn run_set(cli: &Cli, failures: &mut Vec<String>) -> Vec<Json> {
    let mut outcomes = Vec::new();
    for rep in 0..cli.repeat {
        let seed = cli.seed + rep * SEED_STRIDE;
        for workload in &cli.workloads {
            match run_child(cli, workload, seed) {
                Ok(outcome) => {
                    if outcome.get("correct").and_then(Json::as_bool) != Some(true) {
                        failures
                            .push(format!("{} (seed {seed}): output checks failed", workload.name));
                    }
                    outcomes.push(outcome);
                }
                Err(e) => failures.push(e),
            }
        }
    }
    outcomes
}

fn values_of(set: &[Json], workload: &str, group: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|o| o.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|o| metric_value(o, group, metric))
        .collect()
}

/// Prints median and quartiles per (metric, workload) of each set and, for
/// two sets, compares their medians against the metric's bound.
fn summarise(cli: &Cli, sets: &[Vec<Json>], failures: &mut Vec<String>) -> Json {
    let mut summary = Vec::new();
    println!("== summary: median [q1 .. q3] spread over {} run(s) per set ==", cli.repeat);
    for workload in &cli.workloads {
        println!("  {}", workload.name);
        let mut rows = Vec::new();
        for m in &END_TO_END {
            let spreads: Vec<Option<render::Spread>> = sets
                .iter()
                .map(|set| render::spread(&values_of(set, workload.name, "end_to_end", m.name)))
                .collect();
            let mut line = format!("    {:<20} {:<4}", m.name, m.unit);
            let mut row = vec![("metric".to_string(), Json::str(m.name))];
            for (i, s) in spreads.iter().enumerate() {
                match s {
                    Some(s) => {
                        line.push_str(&format!(
                            "  set {}: {:.6} [{:.6} .. {:.6}] n={}{}",
                            i + 1,
                            s.median,
                            s.q1,
                            s.q3,
                            s.n,
                            s.relative
                                .map_or(String::new(), |r| format!(" spread {:.2} %", r * 100.0)),
                        ));
                        row.push((
                            format!("set{}", i + 1),
                            Json::obj([
                                ("median", Json::Num(s.median)),
                                ("q1", Json::Num(s.q1)),
                                ("q3", Json::Num(s.q3)),
                                ("n", Json::Num(s.n as f64)),
                                ("spread", Json::num_or_null(s.relative)),
                            ]),
                        ));
                    }
                    None => line.push_str(&format!("  set {}: null", i + 1)),
                }
            }
            if let [Some(a), Some(b)] = &spreads[..] {
                let worse = render::worsening(m, a.median, b.median);
                let differ = worse.map(f64::abs);
                let verdict = match differ {
                    Some(d) if d > m.bound => {
                        failures.push(format!(
                            "{} on {}: the two sets' medians differ by {:.1} % (bound {:.0} %)",
                            m.name,
                            workload.name,
                            d * 100.0,
                            m.bound * 100.0
                        ));
                        "DIFFER"
                    }
                    Some(_) => "agree",
                    None => "n/a",
                };
                line.push_str(&format!(
                    "  -> {verdict} ({:+.2} % vs bound {:.0} %)",
                    worse.unwrap_or(0.0) * 100.0,
                    m.bound * 100.0
                ));
                row.push(("worsening".to_string(), Json::num_or_null(worse)));
            }
            println!("{line}");
            rows.push(Json::Obj(row));
        }
        summary.push((workload.name.to_string(), Json::Arr(rows)));
    }
    Json::Obj(summary)
}

/// The driver's result line for one workload: the last run's verdict and
/// counts, and the median of every metric over the (last) set's runs.
fn contract_line(cli: &Cli, set: &[Json], workload: &Workload, with_name: bool) -> String {
    let runs: Vec<&Json> = set
        .iter()
        .filter(|o| o.get("workload").and_then(Json::as_str) == Some(workload.name))
        .collect();
    let all =
        |key: &str| runs.iter().filter_map(|o| o.get(key).and_then(Json::as_f64)).sum::<f64>();
    let correct = !runs.is_empty()
        && runs.iter().all(|o| o.get("correct").and_then(Json::as_bool) == Some(true));
    let (group, names): (&str, Vec<(&str, &str)>) = if cli.trace {
        ("per_layer", PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    } else {
        ("end_to_end", END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    };
    let metrics = names
        .into_iter()
        .map(|(name, unit)| {
            let value = stats::median(&values_of(set, workload.name, group, name));
            (name, Json::obj([("value", Json::num_or_null(value)), ("unit", Json::str(unit))]))
        })
        .collect::<Vec<_>>();
    let mut pairs = Vec::new();
    if with_name {
        pairs.push(("workload", Json::str(workload.name)));
    }
    pairs.extend([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(all("attempted"))),
        ("failed", Json::Num(all("failed"))),
        ("metrics", Json::obj(metrics)),
    ]);
    Json::obj(pairs).to_line()
}

fn parent(cli: &Cli) -> ExitCode {
    let environment = runner::environment();
    println!(
        "benchmark: {} workload(s), seed {}, {} s budget, {}{}",
        cli.workloads.len(),
        cli.seed,
        cli.seconds,
        if cli.trace { "traced pass" } else { "tracing off" },
        if cli.quick { ", quick miniatures" } else { "" },
    );
    for (key, value) in &environment {
        println!("  {key}: {}", value.as_str().map_or_else(|| value.to_line(), str::to_string));
    }
    println!(
        "  load: one child process per workload; simulator workloads keep one thread busy, live \
         workloads two shard threads while the main thread sleeps"
    );

    let mut failures = Vec::new();
    let set_count = if cli.check_repeat { 2 } else { 1 };
    let sets: Vec<Vec<Json>> = (0..set_count).map(|_| run_set(cli, &mut failures)).collect();
    let summary = if cli.repeat > 1 || cli.check_repeat {
        summarise(cli, &sets, &mut failures)
    } else {
        Json::Null
    };

    let mut doc = environment;
    doc.extend([
        ("seed".to_string(), Json::Num(cli.seed as f64)),
        ("seconds".to_string(), Json::Num(cli.seconds)),
        ("repeat".to_string(), Json::Num(cli.repeat as f64)),
        ("quick".to_string(), Json::Bool(cli.quick)),
        ("traced".to_string(), Json::Bool(cli.trace)),
        ("sets".to_string(), Json::Arr(sets.iter().map(|s| Json::Arr(s.clone())).collect())),
        ("summary".to_string(), summary),
        (
            "failures".to_string(),
            Json::Arr(failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
    ]);
    let path = cli.out.join("result.json");
    match std::fs::create_dir_all(&cli.out)
        .and_then(|()| std::fs::write(&path, Json::Obj(doc).to_pretty()))
    {
        Ok(()) => println!("benchmark: wrote {}", path.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }

    for f in &failures {
        println!("benchmark: FAILED: {f}");
    }
    let last_set = sets.last().map_or(&[][..], Vec::as_slice);
    let produced = cli
        .workloads
        .iter()
        .all(|w| last_set.iter().any(|o| o.get("workload").and_then(Json::as_str) == Some(w.name)));
    if !produced {
        // No result line without a result: the caller sees the exit code.
        return ExitCode::FAILURE;
    }
    let with_name = cli.workloads.len() > 1;
    for workload in &cli.workloads {
        println!("{}", contract_line(cli, last_set, workload, with_name));
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(args("--workload live_hot --seed 42 --seconds 18 --trace 0")).unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!(cli.workloads[0].name, "live_hot");
        assert_eq!((cli.seed, cli.seconds, cli.trace), (42, 18.0, false));
        let cli = parse_cli(args("--workload sim_paper --seed 1 --seconds 18 --trace 1")).unwrap();
        assert!(cli.trace);
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let cli = parse_cli(args("--trace --quick")).unwrap();
        assert!(cli.trace && cli.quick);
        assert_eq!(cli.workloads.len(), WORKLOADS.len());
        assert_eq!(cli.seconds, DESIGN_SECONDS);
        let cli = parse_cli(args("--trace --workload all --repeat 3 --check-repeat")).unwrap();
        assert!(cli.trace && cli.check_repeat);
        assert_eq!(cli.repeat, 3);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--repeat 0",
            "--frobnicate",
            "--out",
        ] {
            assert!(parse_cli(args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_drivers_keys() {
        let cli = parse_cli(args("--workload sim_paper")).unwrap();
        let outcome = Json::obj([
            ("workload", Json::str("sim_paper")),
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(10.0)),
            ("failed", Json::Num(1.0)),
            (
                "end_to_end",
                Json::obj(END_TO_END.iter().map(|m| {
                    (m.name, Json::obj([("value", Json::Num(1.5)), ("unit", Json::str(m.unit))]))
                })),
            ),
        ]);
        let line = contract_line(&cli, &[outcome], cli.workloads[0], false);
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            parsed.get("metrics").unwrap().get("setup_s").unwrap().get("unit"),
            Some(&Json::str("s"))
        );
    }
}
