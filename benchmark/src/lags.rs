//! Window-lag statistics that survive a stalled box.
//!
//! A neighbour that takes the CPU away for a second delays every window in
//! flight at that moment, on every receiver. Pooled over all
//! receiver-windows, a single such stall owns the 99th percentile (about
//! one live run in three on this box). So the percentiles are taken
//! *across receivers within each window* — "how late is the median / the
//! slowest 1 % of receivers for this window" — and the **median window** is
//! reported: a change to the code moves every window, a stall only a few.

use gossip::stream::NodeQuality;

use crate::json::Json;
use crate::stats;

/// Lag statistics of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LagSummary {
    /// Median over windows of the per-window median lag across receivers.
    pub p50_ms: Option<f64>,
    /// Median over windows of the per-window 99th percentile across receivers.
    pub p99_ms: Option<f64>,
    /// Every decodable receiver-window's lag, ascending (for the pooled
    /// tail in the result details and the decodable count).
    pub pooled_ms: Vec<f64>,
    /// Receiver-windows measured, decodable or not.
    pub attempted: u64,
}

impl LagSummary {
    /// `{"percentile": p, "ms": v}` of the *pooled* lags at the highest
    /// percentile the sample supports (ten samples beyond it), or `null` for
    /// a small sample — the stall-sensitive view, kept in the result details
    /// beside the per-window figures the metrics report.
    pub fn pooled_tail_json(&self) -> Json {
        stats::supported_tail(&self.pooled_ms).map_or(Json::Null, |(p, ms)| {
            Json::obj([("percentile", Json::Num(p)), ("ms", Json::Num(ms))])
        })
    }
}

pub fn summarise(nodes: &[NodeQuality]) -> LagSummary {
    let windows = nodes.iter().map(NodeQuality::window_count).max().unwrap_or(0);
    let mut medians = Vec::with_capacity(windows);
    let mut tails = Vec::with_capacity(windows);
    let mut pooled = Vec::new();
    for w in 0..windows {
        let lags: Vec<f64> = nodes
            .iter()
            .filter_map(|n| n.window_lags().get(w).copied().flatten())
            .map(|d| d.as_micros() as f64 / 1000.0)
            .collect();
        let lags = stats::sorted(lags);
        medians.extend(stats::percentile_sorted(&lags, 50.0));
        tails.extend(stats::percentile_sorted(&lags, 99.0));
        pooled.extend(lags);
    }
    LagSummary {
        p50_ms: stats::median(&medians),
        p99_ms: stats::median(&tails),
        pooled_ms: stats::sorted(pooled),
        attempted: nodes.iter().map(|n| n.window_count() as u64).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip::types::Duration;

    fn node(lags_ms: &[Option<u64>]) -> NodeQuality {
        NodeQuality::from_lags(lags_ms.iter().map(|l| l.map(Duration::from_millis)).collect())
    }

    #[test]
    fn one_stalled_window_does_not_move_the_reported_percentiles() {
        // 100 receivers, 5 windows; every lag is 100 ms except window 2,
        // which a stall delayed to 5 s everywhere.
        let lags: Vec<Option<u64>> =
            (0..5).map(|w| Some(if w == 2 { 5_000 } else { 100 })).collect();
        let nodes: Vec<NodeQuality> = (0..100).map(|_| node(&lags)).collect();
        let s = summarise(&nodes);
        assert_eq!(s.p50_ms, Some(100.0));
        assert_eq!(s.p99_ms, Some(100.0));
        assert_eq!(s.attempted, 500);
        assert_eq!(s.pooled_ms.len(), 500);
        // The pooled view is what the stall owns.
        assert_eq!(stats::percentile_sorted(&s.pooled_ms, 99.0), Some(5_000.0));
    }

    #[test]
    fn undecodable_windows_are_attempted_but_carry_no_lag() {
        let nodes = [node(&[Some(10), None, Some(30)]), node(&[Some(20), None, None])];
        let s = summarise(&nodes);
        assert_eq!(s.attempted, 6);
        assert_eq!(s.pooled_ms, vec![10.0, 20.0, 30.0]);
        // Window 0: {10, 20} → median 15; window 1: nobody; window 2: {30}.
        assert_eq!(s.p50_ms, Some(22.5));
        assert_eq!(summarise(&[]), LagSummary::default());
    }
}
