//! `repro` — regenerate the paper's figures from the simulated deployment.
//!
//! ```text
//! repro <fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|all> [--scale full|quick|tiny] [--seed N] [--trials N]
//! ```
//!
//! Prints each figure's data series as a text table (the README's
//! "Reproducing the figures" section indexes the targets). The default
//! scale is `full` (230 nodes — the paper's deployment; minutes of
//! wall-clock in release mode); use `--scale quick` for a fast,
//! shape-preserving version.

use std::env;
use std::process::ExitCode;

use gossip_experiments::figures::{
    adversity, churn, extensions, fig1_fanout, fig2_lag_cdf, fig3_caps, fig4_bandwidth,
    fig5_refresh, fig6_feedme, FigureOutput,
};
use gossip_experiments::Scale;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <fig1|...|fig8|all|adv|adv-catastrophic|adv-poisson|adv-flash-crowd|adv-free-riders|adv-byzantine|adv-partition|adv-throttle|ext|ext-membership|ext-heterogeneous|ext-scaling|ext-period|ext-churn-timeline> [--scale full|quick|tiny] [--seed N] [--trials N]\n\
         regenerates the figures of 'Stretching Gossip with Live Streaming' (DSN 2009) plus extensions"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut scale = Scale::Full;
    let mut seed = 1u64;
    let mut trials = 1u32;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("full") => Scale::Full,
                    Some("quick") => Scale::Quick,
                    Some("tiny") => Scale::Tiny,
                    _ => return usage(),
                };
            }
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => return usage(),
                };
            }
            "--trials" => {
                i += 1;
                trials = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(t) if t >= 1 => t,
                    _ => return usage(),
                };
            }
            arg if target.is_none() && !arg.starts_with('-') => target = Some(arg.to_string()),
            _ => return usage(),
        }
        i += 1;
    }

    let Some(target) = target else {
        return usage();
    };

    let print = |fig: FigureOutput| {
        println!("{fig}");
    };

    eprintln!("# scale: {scale:?} ({} nodes), seed: {seed}", scale.nodes());
    match target.as_str() {
        "fig1" => print(fig1_fanout::run(scale, seed)),
        "fig2" => print(fig2_lag_cdf::run(scale, seed)),
        "fig3" => print(fig3_caps::run(scale, seed)),
        "fig4" => print(fig4_bandwidth::run(scale, seed)),
        "fig5" => print(fig5_refresh::run(scale, seed)),
        "fig6" => print(fig6_feedme::run(scale, seed)),
        "fig7" => print(churn::fig7_output(&churn::sweep_trials(scale, seed, trials))),
        "fig8" => print(churn::fig8_output(&churn::sweep_trials(scale, seed, trials))),
        "adv" => {
            for fig in adversity::run_all(scale, seed) {
                print(fig);
            }
        }
        "adv-catastrophic" => print(adversity::run_catastrophic(scale, seed)),
        "adv-poisson" => print(adversity::run_poisson(scale, seed)),
        "adv-flash-crowd" => print(adversity::run_flash_crowd(scale, seed)),
        "adv-free-riders" => print(adversity::run_free_riders(scale, seed)),
        "adv-byzantine" => print(adversity::run_byzantine(scale, seed)),
        "adv-partition" => print(adversity::run_partition(scale, seed)),
        "adv-throttle" => print(adversity::run_throttle(scale, seed)),
        "ext-membership" => print(extensions::run_membership(scale, seed)),
        "ext-heterogeneous" => print(extensions::run_heterogeneous(scale, seed)),
        "ext-scaling" => print(extensions::run_scaling(seed)),
        "ext-period" => print(extensions::run_period(scale, seed)),
        "ext-churn-timeline" => print(extensions::run_churn_timeline(scale, seed)),
        "ext" => {
            print(extensions::run_membership(scale, seed));
            print(extensions::run_heterogeneous(scale, seed));
            print(extensions::run_period(scale, seed));
            print(extensions::run_churn_timeline(scale, seed));
        }
        "all" => {
            print(fig1_fanout::run(scale, seed));
            print(fig2_lag_cdf::run(scale, seed));
            print(fig3_caps::run(scale, seed));
            print(fig4_bandwidth::run(scale, seed));
            print(fig5_refresh::run(scale, seed));
            print(fig6_feedme::run(scale, seed));
            // Figures 7 and 8 share their runs.
            let cells = churn::sweep_trials(scale, seed, trials);
            print(churn::fig7_output(&cells));
            print(churn::fig8_output(&cells));
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
