//! Human-readable tables: every metric by name with its unit, the ledger,
//! and the repeat comparison.

use std::fmt::Write as _;

use crate::outcome::{Outcome, Samples};
use crate::spec::{EndToEnd, Runtime, END_TO_END, PER_LAYER};
use crate::stats;

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "null".to_string(),
        Some(0.0) => "0".to_string(),
        Some(v) if v.abs() >= 1e6 => format!("{v:.0}"),
        Some(v) if v.abs() >= 100.0 => format!("{v:.1}"),
        Some(v) if v.abs() >= 1.0 => format!("{v:.3}"),
        Some(v) => format!("{v:.5}"),
    }
}

fn sample_line(out: &mut String, samples: &Samples, name: &str, unit: &str, note: &str) {
    let found = samples.0.iter().find(|s| s.name == name);
    let _ = writeln!(
        out,
        "  {name:<36} {:>14} {unit:<6} n={:<7} {note}",
        fmt_value(found.and_then(|s| s.value)),
        found.map_or(0, |s| s.samples),
    );
}

/// The full report of one workload run.
pub fn outcome(o: &Outcome, runtime: Runtime, what: &str, why: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}, {} s budget{}{}) ==",
        o.workload,
        o.seed,
        o.seconds,
        if o.quick { ", quick" } else { "" },
        if o.traced { ", traced pass" } else { "" }
    );
    let _ = writeln!(out, "  what: {what}");
    let _ = writeln!(out, "  why:  {why}");
    let _ = writeln!(
        out,
        "  end-to-end (tracing off{}):",
        if o.traced { "; the traced pass runs each half at half length" } else { "" }
    );
    for m in &END_TO_END {
        let note = format!("{} is better, bound {:.0} %", m.better.as_str(), m.bound * 100.0);
        sample_line(&mut out, &o.e2e, m.name, m.unit, &note);
    }
    let _ = writeln!(
        out,
        "  operations: {} receiver-windows attempted, {} failed",
        o.attempted, o.failed
    );
    if o.traced {
        let _ = writeln!(out, "  per-layer (C = count from the untraced run, T = ns/call from the ledger pass, P = phase share, D = derived):");
        for m in &PER_LAYER {
            sample_line(&mut out, &o.layers, m.name, m.unit, m.source.tag());
        }
    }
    if let Some(ledger) = &o.ledger {
        let unit = ledger.unit;
        let _ = writeln!(out, "  ledger (ns per {unit}; indented rows run inside the row above them and are not summed):");
        let _ = writeln!(
            out,
            "    {:<38} {:>12} {:>14} {:>14}",
            "row",
            "ns/call",
            format!("calls/{unit}"),
            "attributed ns"
        );
        for r in &ledger.rows {
            let label =
                if r.nested_in.is_some() { format!("  {}", r.name) } else { r.name.to_string() };
            let _ = writeln!(
                out,
                "    {label:<38} {:>12.1} {:>14.4} {:>14.1}",
                r.ns_per_call,
                r.per_unit,
                r.attributed_ns()
            );
        }
        let _ = writeln!(
            out,
            "    {:<38} {:>12} {:>14} {:>14.1}",
            "attributed",
            "",
            "",
            ledger.attributed_ns()
        );
        let _ = writeln!(
            out,
            "    {:<38} {:>12} {:>14} {:>14.1}",
            "residual",
            "",
            "",
            ledger.residual_ns()
        );
        if let Some(r) = &ledger.reference {
            let _ = writeln!(
                out,
                "    {:<38} {:>12.1} {:>14.4} {:>14.1}   (reference floor, not summed)",
                format!("  {}", r.name),
                r.ns_per_call,
                r.per_unit,
                r.attributed_ns()
            );
        }
        let _ = writeln!(
            out,
            "    {:<38} {:>12} {:>14} {:>14.1}   ({})",
            "measured end to end",
            "",
            "",
            ledger.measured_ns,
            match runtime {
                Runtime::Sim => "cpu_ns_per_event",
                Runtime::Live => "cpu_us_per_datagram x 1000",
            }
        );
    }
    for trip in &o.rule_trips {
        let _ = writeln!(
            out,
            "  SERVICE RULE TRIPPED (outputs correct, service not delivered): {trip}"
        );
    }
    if o.failures.is_empty() {
        let _ = writeln!(out, "  output checks: ok");
    } else {
        for f in &o.failures {
            let _ = writeln!(out, "  output check FAILED: {f}");
        }
    }
    out
}

/// Median, quartiles and relative spread of one metric over repeated runs.
pub struct Spread {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub relative: Option<f64>,
}

pub fn spread(values: &[f64]) -> Option<Spread> {
    let median = stats::median(values)?;
    let [q1, _, q3] = stats::quartiles(values).unwrap_or([median; 3]);
    Some(Spread { n: values.len(), median, q1, q3, relative: stats::relative_spread(values) })
}

/// How much worse `second` is than `first` for this metric, as a share of
/// `first` (negative = better).
pub fn worsening(metric: &EndToEnd, first: f64, second: f64) -> Option<f64> {
    (first != 0.0).then(|| {
        let change = (second - first) / first.abs();
        match metric.better {
            crate::spec::Better::Lower => change,
            crate::spec::Better::Higher => -change,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let higher = END_TO_END.iter().find(|m| m.name == "events_per_sec").unwrap();
        assert_eq!(worsening(lower, 10.0, 11.0), Some(0.1));
        assert_eq!(worsening(higher, 10.0, 11.0), Some(-0.1));
        assert_eq!(worsening(higher, 10.0, 9.0), Some(0.1));
        assert_eq!(worsening(lower, 0.0, 1.0), None);
    }

    #[test]
    fn spread_of_a_single_run_has_no_relative_part() {
        let s = spread(&[5.0]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3), (1, 5.0, 5.0, 5.0));
        assert!(s.relative.is_none());
        assert!(spread(&[]).is_none());
    }

    #[test]
    fn values_print_with_sensible_precision() {
        assert_eq!(fmt_value(None), "null");
        assert_eq!(fmt_value(Some(0.0)), "0");
        assert_eq!(fmt_value(Some(1234567.8)), "1234568");
        assert_eq!(fmt_value(Some(752.44)), "752.4");
        assert_eq!(fmt_value(Some(14.5123)), "14.512");
        assert_eq!(fmt_value(Some(0.01234)), "0.01234");
    }
}
