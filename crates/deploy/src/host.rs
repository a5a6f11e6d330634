//! The `gossipd` worker: host one id-slice of the cluster and report back.
//!
//! Connect (retrying until the coordinator listens), say `Hello`, learn
//! the slice and the deployment file from `Welcome`, bind the slice via
//! [`gossip_reactor::NodeHost::bind`], publish its addresses, wait for
//! `Start`, count down to its wall-clock epoch, run, ship the report.
//! Every wait has an absolute deadline on the `ControlEnv`: a
//! coordinator that dies or goes silent is a typed [`DeployError`], never
//! a hang. The SIGINT/SIGTERM flag is the run's stop flag: raised in the
//! countdown or the run, it yields a partial report marked degraded.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gossip_adversity::WallClockAnchor;
use gossip_reactor::{NodeHost, ReactorOptions};
use gossip_udp::clock::ClusterClock;
use gossip_udp::codec;

use crate::config::DeployConfig;
use crate::env::{ControlEnv, Event, LiveEnv, COORDINATOR};
use crate::proto::Message;
use crate::{signal, DeployError, Peer, Phase};

/// Patience for the coordinator's `Welcome` after `Hello`.
const WELCOME_TIMEOUT: Duration = Duration::from_secs(30);
/// Patience for `Start`: every other worker must bind and publish first.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How often the countdown to the start epoch looks at the stop flag.
const STOP_POLL: Duration = Duration::from_millis(50);

/// Runs one `gossipd` worker to completion: handshake, host the slice,
/// report. Returns once the report (full or degraded) is on the wire.
///
/// `telemetry_json`, when set, makes the worker's sampler rewrite that
/// file with the live snapshot series as JSON — and switches telemetry on
/// (ephemeral scrape port) even when the deployment file has no
/// `[telemetry]` section.
///
/// # Errors
///
/// Returns a [`DeployError`] if the coordinator is unreachable, hangs up
/// or goes silent past a phase deadline, the handshake breaks, the config
/// does not parse, or the slice cannot be bound or run.
pub fn run_worker(
    coord: SocketAddr,
    index: u32,
    telemetry_json: Option<String>,
) -> Result<(), DeployError> {
    let stop = signal::install();
    let mut env = LiveEnv::connect(coord)?;
    env.send(COORDINATOR, &Message::Hello { index })?;
    let (lo, hi, config) = await_welcome(&mut env)?;

    let options = ReactorOptions {
        shards: config.shards_per_process,
        sockets_per_shard: config.sockets_per_shard,
        bind_addr: config.bind,
    };
    // Telemetry: the `[telemetry]` section gives worker k its own scrape
    // port; `--telemetry-json` adds the periodic file dump (and stands
    // alone, on an ephemeral port, when the section is absent).
    let mut cluster = config.cluster.clone();
    cluster.telemetry = match (&config.telemetry, &telemetry_json) {
        (Some(section), json) => {
            let mut tc = section.config_for_worker(index as usize);
            tc.json_path = json.clone();
            Some(tc)
        }
        (None, Some(path)) => Some(gossip_telemetry::TelemetryConfig {
            json_path: Some(path.clone()),
            ..gossip_telemetry::TelemetryConfig::default()
        }),
        (None, None) => None,
    };
    let host = NodeHost::bind(cluster, &options, Some((lo, hi)))?;
    let addrs = host.local_addresses().iter().map(|&(id, addr)| (id.as_u32(), addr)).collect();
    env.send(COORDINATOR, &Message::Addrs { addrs, telemetry: host.telemetry_addr() })?;

    let (anchor, table) = await_start(&mut env, host.total_n(), &stop)?;
    // Anchor the cluster clock on the shared wall-clock epoch: Time::ZERO
    // falls at the same instant in every process, so the compiled fault
    // timelines coincide. (The clock saturates at zero, so residual skew
    // from a late start only shortens the quiet lead-in.)
    let clock = ClusterClock::with_epoch(anchor.epoch_instant());
    let run_for =
        ClusterClock::to_std(config.cluster.stream_duration + config.cluster.drain_duration);
    let outcome = host.run(Arc::new(table), clock, stop, run_for)?;

    let payload = codec::encode_process_reports(&outcome.nodes, &outcome.shard_stats);
    deliver(
        &mut env,
        &Message::Report {
            degraded: outcome.degraded,
            aborted_shards: outcome.aborted_shards as u32,
            payload,
        },
    )
}

/// The coordinator's next message, or its hang-up or silence by
/// `deadline` as the error of `phase`.
fn await_message<E: ControlEnv>(
    env: &mut E,
    phase: Phase,
    deadline: Duration,
) -> Result<Message, DeployError> {
    match env.next(deadline) {
        Event::Frame(_, message) => Ok(message),
        Event::Closed(_) => Err(DeployError::HungUp(Peer::Coordinator, phase)),
        Event::Deadline => Err(DeployError::Silent(Peer::Coordinator, phase)),
    }
}

/// `Welcome` by its deadline: the slice and the parsed deployment file.
fn await_welcome<E: ControlEnv>(env: &mut E) -> Result<(u32, u32, DeployConfig), DeployError> {
    let deadline = env.now() + WELCOME_TIMEOUT;
    match await_message(env, Phase::Welcome, deadline)? {
        Message::Welcome { lo, hi, config_toml } => {
            Ok((lo, hi, DeployConfig::from_toml_str(&config_toml)?))
        }
        other => Err(DeployError::Protocol(format!("expected Welcome, got {other:?}"))),
    }
}

/// `Start` by its deadline, then the countdown to its epoch. A raised
/// `stop` ends the countdown early, so a signal before the start still
/// yields a (mostly empty, degraded) report instead of nothing.
fn await_start<E: ControlEnv>(
    env: &mut E,
    total_n: usize,
    stop: &AtomicBool,
) -> Result<(WallClockAnchor, Vec<SocketAddr>), DeployError> {
    let deadline = env.now() + START_TIMEOUT;
    let (start_unix_micros, table) = match await_message(env, Phase::Start, deadline)? {
        Message::Start { start_unix_micros, table } if table.len() == total_n => {
            (start_unix_micros, table)
        }
        Message::Start { table, .. } => {
            return Err(DeployError::Protocol(format!(
                "address table covers {} nodes, cluster has {total_n}",
                table.len()
            )))
        }
        other => return Err(DeployError::Protocol(format!("expected Start, got {other:?}"))),
    };
    let epoch = Duration::from_micros(start_unix_micros);
    while !stop.load(Ordering::Relaxed) && env.now() < epoch {
        let wake = epoch.min(env.now() + STOP_POLL);
        match env.next(wake) {
            Event::Deadline => {}
            Event::Closed(_) => return Err(DeployError::HungUp(Peer::Coordinator, Phase::Start)),
            Event::Frame(_, other) => {
                return Err(DeployError::Protocol(format!("expected nothing, got {other:?}")))
            }
        }
    }
    Ok((WallClockAnchor::new(start_unix_micros), table))
}

/// Sends the report, unless the coordinator hung up during the run: then
/// the report has nowhere to go, and that is the error.
fn deliver<E: ControlEnv>(env: &mut E, report: &Message) -> Result<(), DeployError> {
    let now = env.now();
    match env.next(now) {
        Event::Deadline => Ok(env.send(COORDINATOR, report)?),
        Event::Closed(_) => Err(DeployError::HungUp(Peer::Coordinator, Phase::Report)),
        Event::Frame(_, other) => {
            Err(DeployError::Protocol(format!("expected nothing, got {other:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::scripted::{at, Scripted, T0};

    const SPEC: &str = "[cluster]\nn = 12\n[deploy]\nprocesses = 3\n";

    fn welcome() -> Message {
        Message::Welcome { lo: 4, hi: 8, config_toml: SPEC.to_string() }
    }

    /// `Start` for a 12-node cluster whose epoch is `epoch_ms` after `T0`.
    fn start(epoch_ms: u64) -> Message {
        let table = (0..12).map(|g| SocketAddr::from(([127, 0, 0, 1], 5000 + g))).collect();
        Message::Start { start_unix_micros: at(epoch_ms).as_micros() as u64, table }
    }

    fn report() -> Message {
        Message::Report { degraded: false, aborted_shards: 0, payload: vec![0; 8] }
    }

    #[test]
    fn a_coordinator_that_dies_before_start_is_an_error_not_a_hang() {
        let calm = AtomicBool::new(false);
        let mut env = Scripted::new();
        let err = await_welcome(&mut env).expect_err("no Welcome ever comes");
        assert!(matches!(err, DeployError::Silent(_, Phase::Welcome)), "{err}");
        assert_eq!(env.now(), T0 + WELCOME_TIMEOUT);

        let mut env =
            Scripted::new().frame(at(1), COORDINATOR, &welcome()).close(at(5), COORDINATOR);
        let (lo, hi, config) = await_welcome(&mut env).expect("Welcome");
        assert_eq!((lo, hi, config.processes), (4, 8, 3));
        let err = await_start(&mut env, 12, &calm).expect_err("the coordinator hung up");
        assert!(matches!(err, DeployError::HungUp(Peer::Coordinator, Phase::Start)), "{err}");
        assert_eq!(env.now(), at(5));

        let mut env = Scripted::new().frame(at(1), COORDINATOR, &welcome());
        await_welcome(&mut env).expect("Welcome");
        let err = await_start(&mut env, 12, &calm).expect_err("no Start ever comes");
        assert!(matches!(err, DeployError::Silent(Peer::Coordinator, Phase::Start)), "{err}");
        assert_eq!(env.now(), at(1) + START_TIMEOUT);

        // Dying during the countdown is the same error, at once.
        let mut env = Scripted::new().frame(at(2), COORDINATOR, &start(400)).close(at(100), 0);
        let err = await_start(&mut env, 12, &calm).expect_err("hung up in the countdown");
        assert!(matches!(err, DeployError::HungUp(_, Phase::Start)), "{err}");
        assert_eq!(env.now(), at(100));
    }

    #[test]
    fn a_coordinator_that_dies_before_the_report_is_an_error_not_a_hang() {
        // It hangs up 1 s into the run; the report has nowhere to go.
        let mut env = Scripted::new().frame(at(2), COORDINATOR, &start(400)).close(at(1400), 0);
        await_start(&mut env, 12, &AtomicBool::new(false)).expect("Start");
        env.advance_to(at(3400));
        let err = deliver(&mut env, &report()).expect_err("the coordinator is gone");
        assert!(matches!(err, DeployError::HungUp(Peer::Coordinator, Phase::Report)), "{err}");
        assert!(env.sent.is_empty(), "no report written into the void");

        let mut env = Scripted::new().frame(at(2), COORDINATOR, &start(400));
        await_start(&mut env, 12, &AtomicBool::new(false)).expect("Start");
        env.advance_to(at(3400));
        deliver(&mut env, &report()).expect("the coordinator is there");
        assert_eq!(env.sent, vec![(at(3400), COORDINATOR, report())]);
    }

    #[test]
    fn the_countdown_ends_at_the_epoch_or_at_the_stop_flag() {
        let mut env = Scripted::new().frame(at(2), COORDINATOR, &start(400));
        let (anchor, table) = await_start(&mut env, 12, &AtomicBool::new(false)).expect("Start");
        assert_eq!(env.now(), at(400), "the countdown runs to the epoch");
        assert_eq!(anchor.start_unix_micros, at(400).as_micros() as u64);
        assert_eq!(table.len(), 12);

        // A signal before the start: run now, and report degraded.
        let mut env = Scripted::new().frame(at(2), COORDINATOR, &start(400));
        await_start(&mut env, 12, &AtomicBool::new(true)).expect("Start");
        assert_eq!(env.now(), at(2), "a raised stop flag skips the countdown");

        let mut env = Scripted::new().frame(at(2), COORDINATOR, &start(400));
        let err = await_start(&mut env, 13, &AtomicBool::new(false)).expect_err("short table");
        assert!(matches!(err, DeployError::Protocol(_)), "{err}");
    }
}
