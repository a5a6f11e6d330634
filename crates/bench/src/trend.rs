//! The trend gate: an append-only per-commit history of the repo
//! benchmark's end-to-end metrics (`BENCH_trend.jsonl`) and a
//! sustained-regression detector over it.
//!
//! A cell is one `BENCHMARK.json` workload × one of its `end_to_end`
//! metrics; one line per cell per recorded run:
//!
//! ```text
//! {"label": "live_hot", "metric": "cpu_us_per_datagram", "value": 5.41, "commit": "7abc5b9e12aa", "recorded_unix": 1754650000}
//! ```
//!
//! Which way a metric is better comes from its `better` field in
//! `BENCHMARK.json` ([`metric_directions`]), so a lower-is-better cost and
//! a higher-is-better rate are both read the right way round.
//!
//! The detector deliberately does *not* compare against the immediately
//! preceding point — single runs on shared CI boxes are tens of percent
//! noisy. Instead each cell's **baseline** is the median of its history
//! excluding the newest [`SUSTAIN`] points, and a regression is flagged
//! only when every one of those newest points is worse than the baseline
//! by more than the [`NOISE_FRACTION`] floor. A one-off stall never trips
//! the gate; a real slowdown trips it on the second recorded run.

use std::path::Path;

/// Fractional noise floor: a point must be more than this far on the worse
/// side of the baseline to count towards a regression.
pub const NOISE_FRACTION: f64 = 0.15;

/// How many consecutive newest points must all be past the floor.
pub const SUSTAIN: usize = 2;

/// Minimum points a cell needs before the detector will flag it at all
/// (the baseline median needs some history to mean anything).
pub const MIN_HISTORY: usize = 5;

/// One recorded trajectory point of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// The benchmark workload (`sim_paper`, `live_hot`, …).
    pub label: String,
    /// Which end-to-end metric the value is (`cpu_us_per_datagram`, …).
    pub metric: String,
    /// The recorded value, in the metric's `BENCHMARK.json` unit.
    pub value: f64,
    /// The commit the run measured (short hash, `unknown` outside a
    /// checkout).
    pub commit: String,
    /// When the point was recorded, seconds since the Unix epoch.
    pub recorded_unix: u64,
}

impl TrendPoint {
    /// Renders the point as its JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{{\"label\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"commit\": \"{}\", \"recorded_unix\": {}}}",
            self.label, self.metric, self.value, self.commit, self.recorded_unix,
        )
    }
}

/// The text after `"key":` in a JSON line, whatever spacing its writer used.
fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    Some(line.split_once(&format!("\"{key}\":"))?.1.trim_start())
}

/// Pulls one `"key": "string"` field out of a JSON line.
fn field_str(line: &str, key: &str) -> Option<String> {
    after_key(line, key)?.strip_prefix('"')?.split('"').next().map(str::to_string)
}

/// Pulls one `"key": number` field out of a JSON line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let num: String = after_key(line, key)?
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-'))
        .collect();
    num.parse().ok()
}

/// Parses a trend file. Malformed lines are skipped, not fatal: the file
/// is append-only across many commits and one bad merge must not brick
/// the gate.
pub fn parse_jsonl(text: &str) -> Vec<TrendPoint> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() {
                return None;
            }
            Some(TrendPoint {
                label: field_str(line, "label")?,
                metric: field_str(line, "metric")?,
                value: field_num(line, "value")?,
                commit: field_str(line, "commit").unwrap_or_else(|| "unknown".to_string()),
                recorded_unix: field_num(line, "recorded_unix").unwrap_or(0.0) as u64,
            })
        })
        .collect()
}

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A rate or a quality: a sustained fall is the regression.
    Higher,
    /// A cost or a delay: a sustained rise is the regression.
    Lower,
}

/// The `end_to_end` metrics `BENCHMARK.json` declares, in file order, each
/// with the direction its `better` field gives.
pub fn metric_directions(benchmark_json: &str) -> Vec<(String, Better)> {
    let Some(section) = after_key(benchmark_json, "end_to_end") else { return Vec::new() };
    let section = section.split(']').next().unwrap_or(section);
    section
        .split('}')
        .filter_map(|entry| {
            let better = match field_str(entry, "better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                _ => return None,
            };
            Some((field_str(entry, "name")?, better))
        })
        .collect()
}

/// The cells of one result line of `benchmark --workload all`: the line's
/// workload and the value of every declared metric it carries (a metric
/// the platform could not measure is `null` there and is left out). `None`
/// for any other line — the benchmark prints its human-readable report on
/// the same stream.
pub fn outcome_values(
    line: &str,
    metrics: &[(String, Better)],
) -> Option<(String, Vec<(String, f64)>)> {
    let workload = field_str(line, "workload")?;
    let body = after_key(line, "metrics")?;
    let values = metrics
        .iter()
        .filter_map(|(name, _)| Some((name.clone(), field_num(after_key(body, name)?, "value")?)))
        .collect();
    Some((workload, values))
}

/// The short commit hash of the checkout at `repo` (follows `HEAD` one
/// level, searches `packed-refs` for packed branches). `"unknown"` when
/// there is no readable git state — recording still works outside a
/// checkout.
pub fn read_git_commit(repo: &Path) -> String {
    let head = match std::fs::read_to_string(repo.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let hash = if let Some(reference) = head.strip_prefix("ref: ") {
        match std::fs::read_to_string(repo.join(".git").join(reference)) {
            Ok(h) => h.trim().to_string(),
            Err(_) => std::fs::read_to_string(repo.join(".git/packed-refs"))
                .ok()
                .and_then(|packed| {
                    packed.lines().find_map(|l| {
                        let (hash, name) = l.split_once(' ')?;
                        (name == reference).then(|| hash.to_string())
                    })
                })
                .unwrap_or_else(|| "unknown".to_string()),
        }
    } else {
        head
    };
    if hash.len() >= 12 && hash.chars().all(|c| c.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// The detector's verdict on one `(label, metric)` cell.
#[derive(Debug, Clone)]
pub struct CellTrend {
    /// The benchmark workload.
    pub label: String,
    /// Which end-to-end metric the cell tracks.
    pub metric: String,
    /// Points in the cell's history.
    pub points: usize,
    /// Median of the history excluding the newest [`SUSTAIN`] points
    /// (`0.0` with fewer than two points).
    pub baseline: f64,
    /// The newest recorded value.
    pub last: f64,
    /// `last` relative to `baseline`, in percent.
    pub delta_pct: f64,
    /// Whether the newest `sustain` points are *all* worse than the
    /// baseline by more than the noise floor.
    pub regressed: bool,
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs the sustained-regression detector over a parsed trend history.
///
/// Points are grouped by `(label, metric)` in first-seen order; within a
/// group, file order is history order (the file is append-only). A point
/// whose metric `directions` does not declare belongs to no benchmark cell
/// and is ignored.
pub fn evaluate(
    points: &[TrendPoint],
    directions: &[(String, Better)],
    noise_fraction: f64,
    sustain: usize,
    min_history: usize,
) -> Vec<CellTrend> {
    let mut cells: Vec<((String, String), Better, Vec<f64>)> = Vec::new();
    for p in points {
        let Some(&(_, better)) = directions.iter().find(|(name, _)| *name == p.metric) else {
            continue;
        };
        let key = (p.label.clone(), p.metric.clone());
        match cells.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, _, values)) => values.push(p.value),
            None => cells.push((key, better, vec![p.value])),
        }
    }
    cells
        .into_iter()
        .map(|((label, metric), better, values)| {
            let n = values.len();
            let prior = &values[..n.saturating_sub(sustain)];
            let baseline = median(prior);
            let last = *values.last().expect("groups are non-empty");
            let delta_pct = if baseline > 0.0 { (last / baseline - 1.0) * 100.0 } else { 0.0 };
            let newest = &values[n.saturating_sub(sustain)..];
            let regressed = n >= min_history
                && baseline > 0.0
                && newest.len() == sustain
                && newest.iter().all(|&v| match better {
                    Better::Higher => v < baseline * (1.0 - noise_fraction),
                    Better::Lower => v > baseline * (1.0 + noise_fraction),
                });
            CellTrend { label, metric, points: n, baseline, last, delta_pct, regressed }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The directions the detector really runs with.
    fn directions() -> Vec<(String, Better)> {
        metric_directions(include_str!("../../../BENCHMARK.json"))
    }

    fn history_of(label: &str, metric: &str, values: &[f64]) -> Vec<TrendPoint> {
        values
            .iter()
            .enumerate()
            .map(|(i, &value)| TrendPoint {
                label: label.to_string(),
                metric: metric.to_string(),
                value,
                commit: format!("{i:012x}"),
                recorded_unix: 1_700_000_000 + i as u64,
            })
            .collect()
    }

    fn history(label: &str, values: &[f64]) -> Vec<TrendPoint> {
        history_of(label, "events_per_sec", values)
    }

    fn verdicts(points: &[TrendPoint]) -> Vec<CellTrend> {
        evaluate(points, &directions(), NOISE_FRACTION, SUSTAIN, MIN_HISTORY)
    }

    #[test]
    fn points_roundtrip_through_jsonl() {
        let points = history("sim_paper", &[100.0, 110.5, 0.0954]);
        let text: String = points.iter().map(|p| p.to_line() + "\n").collect();
        assert_eq!(parse_jsonl(&text), points);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let text = "garbage\n{\"label\": \"a\", \"metric\": \"m\", \"value\": 5}\n{broken\n";
        let points = parse_jsonl(text);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].label, "a");
        assert_eq!(points[0].commit, "unknown");
    }

    #[test]
    fn benchmark_json_declares_every_direction() {
        let directions = directions();
        assert_eq!(directions.len(), 8, "the eight end-to-end metrics, no per-layer row");
        assert_eq!(directions[0], ("setup_s".to_string(), Better::Lower));
        assert!(directions.contains(&("events_per_sec".to_string(), Better::Higher)));
        assert!(directions.contains(&("quality_pct".to_string(), Better::Higher)));
        assert!(directions.contains(&("cpu_us_per_datagram".to_string(), Better::Lower)));
    }

    #[test]
    fn outcome_lines_yield_one_value_per_measured_metric() {
        let line = r#"{"workload":"live_hot","correct":true,"attempted":9,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"},"events_per_sec":{"value":104000.5,"unit":"1/s"},"cpu_ns_per_event":{"value":null,"unit":"ns"},"quality_pct":{"value":97,"unit":"%"}}}"#;
        let (workload, values) = outcome_values(line, &directions()).expect("a result line");
        assert_eq!(workload, "live_hot");
        assert_eq!(
            values,
            [
                ("setup_s".to_string(), 0.25),
                ("events_per_sec".to_string(), 104000.5),
                ("quality_pct".to_string(), 97.0),
            ],
            "null and absent metrics are left out"
        );
        // A single-workload run names no workload; report text is not JSON.
        assert!(outcome_values(r#"{"correct":true,"metrics":{}}"#, &directions()).is_none());
        assert!(outcome_values("  live_hot   reactor, n=1000", &directions()).is_none());
    }

    #[test]
    fn sustained_regression_is_flagged() {
        let points = history("sim_paper", &[1000.0, 1020.0, 980.0, 1010.0, 700.0, 690.0]);
        let cells = verdicts(&points);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].regressed, "two points ~30% below the median must trip the gate");
        assert!(cells[0].delta_pct < -25.0);
    }

    #[test]
    fn lower_is_better_metrics_regress_on_a_sustained_rise() {
        let rise = history_of("live_hot", "cpu_us_per_datagram", &[5.0, 5.1, 4.9, 5.0, 6.5, 6.6]);
        assert!(verdicts(&rise)[0].regressed, "a cost 30% above the median is the regression");
        let fall = history_of("live_hot", "cpu_us_per_datagram", &[5.0, 5.1, 4.9, 5.0, 3.5, 3.4]);
        assert!(!verdicts(&fall)[0].regressed, "a cost that fell is an improvement");
    }

    #[test]
    fn a_single_dip_does_not_trip_the_gate() {
        let points = history("sim_paper", &[1000.0, 1020.0, 980.0, 1010.0, 990.0, 700.0]);
        assert!(!verdicts(&points)[0].regressed, "one noisy point is not a sustained regression");
    }

    #[test]
    fn noise_inside_the_floor_is_tolerated() {
        let points = history("sim_paper", &[1000.0, 950.0, 1020.0, 980.0, 900.0, 940.0]);
        assert!(!verdicts(&points)[0].regressed, "±15% wobble stays inside the noise floor");
    }

    #[test]
    fn short_history_never_regresses() {
        let points = history("sim_paper", &[1000.0, 500.0, 400.0, 300.0]);
        assert!(!verdicts(&points)[0].regressed, "below MIN_HISTORY the gate stays open");
    }

    #[test]
    fn cells_are_evaluated_independently() {
        let mut points = history("sim_paper", &[1000.0, 1000.0, 1000.0, 1000.0, 600.0, 600.0]);
        points.extend(history("live_hot", &[50.0, 51.0, 49.0, 50.0, 50.0, 51.0]));
        points.extend(history_of("live_hot", "datagrams_per_sec", &[9.0; 6]));
        let cells = verdicts(&points);
        assert_eq!(cells.len(), 2, "a metric BENCHMARK.json does not declare is no cell");
        assert!(cells.iter().find(|c| c.label == "sim_paper").unwrap().regressed);
        assert!(!cells.iter().find(|c| c.label == "live_hot").unwrap().regressed);
    }
}
