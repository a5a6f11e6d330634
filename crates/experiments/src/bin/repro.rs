//! `repro` — regenerate the paper's figures from the simulated deployment.
//!
//! ```text
//! repro <target> [--scale full|quick|tiny] [--seed N] [--trials N]
//! ```
//!
//! Prints each figure's data series as a text table. The targets are
//! [`gossip_experiments::figures::TARGETS`] (the README's "Reproducing the
//! figures" section indexes them). The default scale is `full` (230 nodes
//! — the paper's deployment; minutes of wall-clock in release mode); use
//! `--scale quick` for a fast, shape-preserving version. `--trials N`
//! averages every value over N seeds.

use std::env;
use std::process::ExitCode;

use gossip_experiments::figures::{run_grids, GridFn, TARGETS};
use gossip_experiments::Scale;

fn usage() -> ExitCode {
    let names: Vec<&str> = TARGETS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: repro <{}> [--scale full|quick|tiny] [--seed N] [--trials N]\n\
         regenerates the figures of 'Stretching Gossip with Live Streaming' (DSN 2009) plus extensions",
        names.join("|")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = env::args().skip(1);
    let mut target: Option<&[GridFn]> = None;
    let mut scale = Scale::Full;
    let mut seed = 1u64;
    let mut trials = 1u32;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("full") => Scale::Full,
                    Some("quick") => Scale::Quick,
                    Some("tiny") => Scale::Tiny,
                    _ => return usage(),
                }
            }
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--trials" => match args.next().and_then(|s| s.parse().ok()) {
                Some(t) if t >= 1 => trials = t,
                _ => return usage(),
            },
            name if target.is_none() && !name.starts_with('-') => {
                match TARGETS.iter().find(|&&(n, _)| n == name) {
                    Some(&(_, grids)) => target = Some(grids),
                    None => return usage(),
                }
            }
            _ => return usage(),
        }
    }

    let Some(grids) = target else {
        return usage();
    };

    eprintln!("# scale: {scale:?} ({} nodes), seed: {seed}", scale.nodes());
    for figure in run_grids(grids, scale, seed, trials) {
        println!("{figure}");
    }
    ExitCode::SUCCESS
}
