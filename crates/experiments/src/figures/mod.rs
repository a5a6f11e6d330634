//! One module per figure of the paper's evaluation (Figures 1–8; the paper
//! has no numbered tables).
//!
//! Every module exposes a `run(scale, seed) -> FigureOutput` entry point.
//! `FigureOutput` carries a text [`Table`] with exactly the series the paper
//! plots, ready for printing by the `repro` binary.

pub mod adversity;
pub mod churn;
pub mod extensions;
pub mod fig1_fanout;
pub mod fig2_lag_cdf;
pub mod fig3_caps;
pub mod fig4_bandwidth;
pub mod fig5_refresh;
pub mod fig6_feedme;

use gossip_metrics::Table;
use gossip_types::Duration;

use crate::scenario::Scale;

/// The paper's "offline viewing" lag (`L → ∞`).
pub const OFFLINE: Duration = Duration::MAX;
/// The 20-second lag series.
pub const LAG_20S: Duration = Duration::from_secs(20);
/// The 10-second lag series.
pub const LAG_10S: Duration = Duration::from_secs(10);
/// The paper's jitter threshold: a node "views the stream" if at least 99 %
/// of windows are complete.
pub const MAX_JITTER: f64 = 0.01;

/// The rendered data of one figure.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Figure identifier, e.g. `"fig1"`.
    pub id: &'static str,
    /// Human-readable description (the paper's caption, abridged).
    pub title: String,
    /// The data series as a text table.
    pub table: Table,
    /// Notes on scope/interpretation appended below the table.
    pub notes: Vec<String>,
}

impl std::fmt::Display for FigureOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# {} — {}", self.id, self.title)?;
        write!(f, "{}", self.table)?;
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// The fanout sweep used by Figures 1 and 2, adapted to the deployment
/// size: the paper sweeps 4–80 at n = 230; smaller scales sweep a range
/// with the same coverage relative to ln(n) and n.
pub fn fanout_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![4, 5, 6, 7, 10, 15, 20, 25, 30, 35, 40, 50, 60, 80],
        Scale::Quick => vec![3, 4, 5, 6, 8, 10, 14, 18, 24, 32, 40],
        Scale::Tiny => vec![2, 3, 4, 6, 8, 10, 14],
    }
}

/// The refresh/feed-me sweep of Figures 5 and 6 (`None` = ∞).
pub fn proactiveness_sweep() -> Vec<Option<u32>> {
    vec![Some(1), Some(2), Some(5), Some(10), Some(20), Some(50), Some(100), None]
}

/// Formats a `Some(x)`/`None` knob value the way the paper labels it.
pub fn knob_label(v: Option<u32>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "inf".to_string(),
    }
}

/// Churn percentages swept by Figures 7 and 8.
pub fn churn_percentages() -> Vec<u32> {
    vec![0, 10, 20, 35, 50, 65, 80]
}

/// Convenience: a table with a label column plus one column per lag series.
pub fn series_table(label: &str) -> Table {
    Table::new(vec![label, "offline", "20s_lag", "10s_lag"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_sorted_and_nonempty() {
        for scale in [Scale::Full, Scale::Quick, Scale::Tiny] {
            let sweep = fanout_sweep(scale);
            assert!(!sweep.is_empty());
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
            assert!(*sweep.last().unwrap() < scale.nodes(), "fanout must stay below n");
        }
    }

    #[test]
    fn knob_labels() {
        assert_eq!(knob_label(Some(7)), "7");
        assert_eq!(knob_label(None), "inf");
    }

    #[test]
    fn proactiveness_ends_with_infinity() {
        let sweep = proactiveness_sweep();
        assert_eq!(sweep.first(), Some(&Some(1)));
        assert_eq!(sweep.last(), Some(&None));
    }
}
