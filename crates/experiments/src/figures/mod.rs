//! The paper's evaluation (Figures 1–8; the paper has no numbered tables)
//! and the extensions beyond it, each declared as a [`Grid`].
//!
//! A figure is a sweep: one knob varies across a fixed deployment and the
//! same few quality numbers are read off every run. A figure module
//! declares only that — its sweep values, the [`Scenario`] of every cell,
//! what each run measures and the notes under the table. One runner,
//! [`execute`], fans every cell through [`SweepRunner`], averages the
//! measured values over trials and renders each [`FigureOutput`]; the
//! [`TARGETS`] table names what the `repro` binary can print.

pub mod adversity;
pub mod churn;
pub mod extensions;
pub mod fig1_fanout;
pub mod fig2_lag_cdf;
pub mod fig3_caps;
pub mod fig4_bandwidth;
pub mod fig5_refresh;
pub mod fig6_feedme;
mod table;

use gossip_types::Duration;
pub use table::Table;

use crate::harness::{RunResult, SweepRunner};
use crate::scenario::{Scale, Scenario};

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
    /// The figure's declaration.
    pub figure: Figure,
    /// The data series as a text table.
    pub table: Table,
}

impl std::fmt::Display for FigureOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# {} — {}", self.figure.id, self.figure.title)?;
        write!(f, "{}", self.table)?;
        for note in &self.figure.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// A value column of a rendered table: measured value `index` of the
/// row's cell in column group `group`.
#[derive(Debug, Clone)]
pub struct Column {
    /// The column header.
    pub header: String,
    /// Which of the row's scenarios the value comes from.
    pub group: usize,
    /// Which of that run's measured values it is.
    pub index: usize,
}

impl Column {
    /// A column reading value `index` of group `group`.
    pub fn new(header: impl Into<String>, group: usize, index: usize) -> Self {
        Column { header: header.into(), group, index }
    }

    /// One column per header, reading the single group's values in order.
    pub fn each(headers: &[&str]) -> Vec<Column> {
        headers.iter().enumerate().map(|(i, &h)| Column::new(h, 0, i)).collect()
    }
}

/// One table a grid renders.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure identifier, e.g. `"fig1"`.
    pub id: &'static str,
    /// Human-readable description (the paper's caption, abridged).
    pub title: String,
    /// The value columns after the label columns.
    pub columns: Vec<Column>,
    /// Notes on scope/interpretation appended below the table.
    pub notes: Vec<String>,
}

/// A figure as a declaration: what to run and how to read it.
///
/// Every row holds its label cells and one [`Scenario`] per column group;
/// `measure` turns each run into numbers, and each [`Figure`] picks its
/// columns from them. A *series* grid is transposed: it has one row whose
/// cells each measure a whole series (a CDF, a ranking, a timeline), and
/// the table's rows are the series' points.
#[derive(Debug)]
pub struct Grid {
    /// Headers of the label columns every table row starts with.
    pub labels: Vec<&'static str>,
    /// The swept rows: label cells and one scenario per column group.
    pub rows: Vec<(Vec<String>, Vec<Scenario>)>,
    /// What one run reports, from its scenario and its result.
    pub measure: fn(&Scenario, &RunResult) -> Vec<f64>,
    /// Set for a series grid: the label cells of point `p`, given the
    /// first cell's scenario. Each cell then measures one value per point.
    pub series: Option<fn(&Scenario, usize) -> Vec<String>>,
    /// The tables rendered from one execution of the grid.
    pub figures: Vec<Figure>,
}

impl Grid {
    /// A grid that renders one figure, one table row per grid row.
    pub fn new(
        labels: &[&'static str],
        rows: Vec<(Vec<String>, Vec<Scenario>)>,
        measure: fn(&Scenario, &RunResult) -> Vec<f64>,
        figure: Figure,
    ) -> Grid {
        Grid { labels: labels.to_vec(), rows, measure, series: None, figures: vec![figure] }
    }
}

/// Declares a grid at a scale and seed.
pub type GridFn = fn(Scale, u64) -> Grid;

/// A grid row with one label cell.
pub fn row(label: impl ToString, cells: Vec<Scenario>) -> (Vec<String>, Vec<Scenario>) {
    (vec![label.to_string()], cells)
}

/// What a grid's runs measured, averaged over the trials.
#[derive(Debug)]
pub struct Measured {
    /// The first trial's declaration.
    grid: Grid,
    /// `values[row][group]`: the averaged measure of that cell.
    values: Vec<Vec<Vec<f64>>>,
}

/// Runs every cell of the grid that `build` declares and averages what
/// each measured over `trials` trials.
///
/// Trial `t` declares the grid at seed `seed + t·7919`, so everything a
/// cell draws from its seed (crash victims included) is drawn afresh.
/// Values are summed in trial order and divided once, so one trial
/// reports every value exactly as measured. All trials' cells fan out
/// through `runner` together.
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn execute(
    build: GridFn,
    scale: Scale,
    seed: u64,
    trials: u32,
    runner: &SweepRunner,
) -> Measured {
    assert!(trials >= 1, "at least one trial");
    let grids: Vec<Grid> =
        (0..trials).map(|t| build(scale, seed.wrapping_add(u64::from(t) * 7919))).collect();
    let cells: Vec<(&Grid, &Scenario)> = grids
        .iter()
        .flat_map(|grid| {
            grid.rows.iter().flat_map(move |(_, cells)| cells.iter().map(move |s| (grid, s)))
        })
        .collect();
    let mut runs = runner
        .run(cells, |&(grid, scenario)| (grid.measure)(scenario, &scenario.run()))
        .into_iter();
    let grid = grids.into_iter().next().expect("at least one trial");
    let mut values: Vec<Vec<Vec<f64>>> = grid
        .rows
        .iter()
        .map(|(_, cells)| cells.iter().map(|_| runs.next().expect("one run per cell")).collect())
        .collect();
    for _ in 1..trials {
        for sum in values.iter_mut().flatten() {
            let run = runs.next().expect("every trial declares the same cells");
            assert_eq!(sum.len(), run.len(), "every trial measures the same values");
            sum.iter_mut().zip(run).for_each(|(s, v)| *s += v);
        }
    }
    let n = f64::from(trials);
    values.iter_mut().flatten().flatten().for_each(|v| *v /= n);
    Measured { grid, values }
}

impl Measured {
    /// The table rows every figure of the grid shares: label cells and,
    /// per column group, the measured values (one value per group in a
    /// series grid, whose rows are its points).
    pub fn rows(&self) -> Vec<(Vec<String>, Vec<Vec<f64>>)> {
        let Some(label) = self.grid.series else {
            return self
                .grid
                .rows
                .iter()
                .map(|(labels, _)| labels.clone())
                .zip(self.values.clone())
                .collect();
        };
        let first = &self.grid.rows[0].1[0];
        let series = &self.values[0];
        (0..series[0].len())
            .map(|p| (label(first, p), series.iter().map(|values| vec![values[p]]).collect()))
            .collect()
    }

    /// Renders every figure of the grid, values to one decimal.
    pub fn render(&self) -> Vec<FigureOutput> {
        let rows = self.rows();
        self.grid
            .figures
            .iter()
            .map(|figure| {
                let headers = figure.columns.iter().map(|c| c.header.clone());
                let mut table =
                    Table::new(self.grid.labels.iter().map(|l| l.to_string()).chain(headers));
                for (labels, cells) in &rows {
                    let mut line = labels.clone();
                    line.extend(
                        figure.columns.iter().map(|c| format!("{:.1}", cells[c.group][c.index])),
                    );
                    table.row(line);
                }
                FigureOutput { figure: figure.clone(), table }
            })
            .collect()
    }
}

/// Runs `grids` one after another on the default runner, yielding each
/// figure as soon as its grid has run.
pub fn run_grids(
    grids: &[GridFn],
    scale: Scale,
    seed: u64,
    trials: u32,
) -> impl Iterator<Item = FigureOutput> + '_ {
    grids
        .iter()
        .flat_map(move |&build| execute(build, scale, seed, trials, &SweepRunner::new()).render())
}

/// The grids of `repro all`: the paper's Figures 1–8.
const PAPER: &[GridFn] = &[
    fig1_fanout::grid,
    fig2_lag_cdf::grid,
    fig3_caps::grid,
    fig4_bandwidth::grid,
    fig5_refresh::grid,
    fig6_feedme::grid,
    churn::grid,
];

/// Every `repro` target and the grids it runs, in usage order.
/// `ext-ablations`, `ext-scaling` and `ext-large-n` are in no group: they
/// are slow or off the paper's axes.
pub const TARGETS: &[(&str, &[GridFn])] = &[
    ("fig1", &[fig1_fanout::grid]),
    ("fig2", &[fig2_lag_cdf::grid]),
    ("fig3", &[fig3_caps::grid]),
    ("fig4", &[fig4_bandwidth::grid]),
    ("fig5", &[fig5_refresh::grid]),
    ("fig6", &[fig6_feedme::grid]),
    ("fig7", &[churn::only::<0>]),
    ("fig8", &[churn::only::<1>]),
    ("all", PAPER),
    ("adv", adversity::GRIDS),
    ("adv-poisson", &[adversity::poisson]),
    ("adv-flash-crowd", &[adversity::flash_crowd]),
    ("adv-free-riders", &[adversity::free_riders]),
    ("adv-byzantine", &[adversity::byzantine]),
    ("adv-partition", &[adversity::partition]),
    ("adv-throttle", &[adversity::throttle]),
    ("ext", extensions::GRIDS),
    ("ext-membership", &[extensions::membership]),
    ("ext-heterogeneous", &[extensions::heterogeneous]),
    ("ext-scaling", &[extensions::scaling]),
    ("ext-period", &[extensions::period]),
    ("ext-churn-timeline", &[extensions::churn_timeline]),
    ("ext-ablations", &[extensions::ablations]),
    ("ext-large-n", &[extensions::large_n]),
];

/// The quality numbers most figures read off a run, indexed by
/// [`VIEW_OFF`], [`VIEW_20S`], [`VIEW_10S`] and [`COMPLETE_20S`].
pub fn quality(_: &Scenario, result: &RunResult) -> Vec<f64> {
    let q = &result.quality;
    let viewing = |lag| q.percent_viewing(MAX_JITTER, lag);
    vec![viewing(OFFLINE), viewing(LAG_20S), viewing(LAG_10S), q.average_quality_percent(LAG_20S)]
}
/// [`quality`]'s % of nodes viewing with < 1 % jitter offline.
pub const VIEW_OFF: usize = 0;
/// [`quality`]'s % of nodes viewing with < 1 % jitter at 20 s lag.
pub const VIEW_20S: usize = 1;
/// [`quality`]'s % of nodes viewing with < 1 % jitter at 10 s lag.
pub const VIEW_10S: usize = 2;
/// [`quality`]'s average % of complete windows at 20 s lag.
pub const COMPLETE_20S: usize = 3;

/// The paper's three viewing series of [`quality`].
pub fn viewing_columns() -> Vec<Column> {
    Column::each(&["offline", "20s_lag", "10s_lag"])
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One trial of the grid `build` declares, on the default runner.
    pub(crate) fn execute_once(build: GridFn, scale: Scale, seed: u64) -> Measured {
        execute(build, scale, seed, 1, &SweepRunner::new())
    }

    /// Reads measured values by column header (and row label), the way a
    /// reader of the printed table would.
    impl Measured {
        fn column_named(&self, header: &str) -> &Column {
            self.grid
                .figures
                .iter()
                .flat_map(|figure| &figure.columns)
                .find(|c| c.header == header)
                .unwrap_or_else(|| panic!("no column {header:?}"))
        }

        /// The values of the column headed `header`, top to bottom.
        pub(crate) fn column(&self, header: &str) -> Vec<f64> {
            let c = self.column_named(header);
            self.rows().iter().map(|(_, cells)| cells[c.group][c.index]).collect()
        }

        /// The value in the column headed `header` of the row whose first
        /// label is `label`.
        pub(crate) fn value(&self, label: &str, header: &str) -> f64 {
            let c = self.column_named(header);
            let rows = self.rows();
            let (_, cells) = rows
                .iter()
                .find(|(labels, _)| labels[0] == label)
                .unwrap_or_else(|| panic!("no row {label:?}"));
            cells[c.group][c.index]
        }
    }

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
