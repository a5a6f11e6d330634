//! `gossipd` — one worker process of a deployed gossip cluster.
//!
//! Usage: `gossipd --coord HOST:PORT --index K`
//!
//! Connects to the coordinator, learns its id slice and the deployment
//! config, hosts the slice on the reactor runtime and ships its report
//! back. SIGINT/SIGTERM cut the run short and flush a partial report
//! marked degraded. With a `[telemetry]` section in the deployment file,
//! worker `k` serves its metrics on `port_base + k` while it runs; the
//! coordinator scrapes that endpoint, and its merged report carries the
//! fleet series.

use std::net::SocketAddr;
use std::process::ExitCode;

const USAGE: &str = "usage: gossipd --coord HOST:PORT --index K";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut coord: Option<SocketAddr> = None;
    let mut index: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--coord" => {
                let Some(value) = args.next() else { return usage() };
                match value.parse() {
                    Ok(addr) => coord = Some(addr),
                    Err(_) => {
                        eprintln!("gossipd: `{value}` is not a socket address");
                        return ExitCode::from(2);
                    }
                }
            }
            "--index" => {
                let Some(value) = args.next() else { return usage() };
                match value.parse() {
                    Ok(k) => index = Some(k),
                    Err(_) => {
                        eprintln!("gossipd: `{value}` is not a worker index");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("gossipd: unknown argument `{other}`");
                return usage();
            }
        }
    }
    let (Some(coord), Some(index)) = (coord, index) else { return usage() };

    match gossip_deploy::run_worker(coord, index) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gossipd[{index}]: {e}");
            ExitCode::FAILURE
        }
    }
}
