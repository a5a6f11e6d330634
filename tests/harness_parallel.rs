//! The parallel harness's determinism contract: fanning independent
//! `(parameter, seed)` runs across OS threads must produce byte-identical
//! results to running them serially on one thread.

use gossip_experiments::figures::{execute, fig1_fanout};
use gossip_experiments::{Scale, Scenario, SweepRunner};

/// `figures::fig1_fanout` through the (parallel) `SweepRunner` produces
/// exactly the numbers of a forced single-thread run.
#[test]
fn fig1_parallel_matches_forced_serial() {
    let seed = 42;
    let parallel = execute(fig1_fanout::grid, Scale::Tiny, seed, 1, &SweepRunner::new()).rows();

    // The same sweep, forced through one thread.
    let serial = execute(fig1_fanout::grid, Scale::Tiny, seed, 1, &SweepRunner::serial()).rows();

    assert_eq!(parallel.len(), serial.len());
    for ((p_labels, p), (labels, cells)) in parallel.iter().zip(serial) {
        let fanout = &labels[0];
        let (offline, lag20, lag10) = (cells[0][0], cells[0][1], cells[0][2]);
        assert_eq!(&p_labels[0], fanout);
        assert_eq!(p[0][0], offline, "offline series differs at fanout {fanout}");
        assert_eq!(p[0][1], lag20, "20 s series differs at fanout {fanout}");
        assert_eq!(p[0][2], lag10, "10 s series differs at fanout {fanout}");
    }
}

/// Full `RunResult`s — not just summary numbers — are identical at 1 and N
/// threads for the same seed list.
#[test]
fn run_results_identical_across_thread_counts() {
    let scenarios: Vec<Scenario> = [(4usize, 7u64), (6, 7), (6, 11), (8, 3)]
        .into_iter()
        .map(|(fanout, seed)| Scenario::tiny(fanout).with_seed(seed))
        .collect();

    let serial = SweepRunner::serial().run_scenarios(scenarios.clone());
    let parallel = SweepRunner::with_threads(4).run_scenarios(scenarios);

    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.upload_kbps, b.upload_kbps);
        assert_eq!(a.source_upload_kbps, b.source_upload_kbps);
        assert_eq!(a.windows_measured, b.windows_measured);
        assert_eq!(a.protocol, b.protocol);
        assert_eq!(a.net, b.net);
        let lags = |r: &gossip_experiments::RunResult| -> Vec<f64> {
            (0..6)
                .map(|s| r.quality.percent_viewing(0.01, gossip_types::Duration::from_secs(s * 5)))
                .collect()
        };
        assert_eq!(lags(a), lags(b));
    }
}

/// Oversubscribing threads (more workers than parameters) is harmless.
#[test]
fn more_threads_than_params_is_fine() {
    let out = SweepRunner::with_threads(32)
        .run(vec![1u64, 2], |&seed| Scenario::tiny(5).with_seed(seed).run().events_processed);
    assert_eq!(out.len(), 2);
    assert_ne!(out[0], out[1], "different seeds differ");
}
