//! The `gossip-coord` coordinator: launch the workers, run the barrier,
//! merge the reports.
//!
//! On a `ControlEnv` a deployment is three steps. The handshake learns
//! which connection is which worker (`Hello`), hands out slices
//! (`Welcome`), relays the address book (`Addrs`) and broadcasts one
//! wall-clock start epoch (`Start`); its two waits each get
//! `HANDSHAKE_TIMEOUT` from their start. The report phase waits for
//! every report until the run's end plus `REPORT_SLACK`, and fires the
//! optional mid-stream kill at its own deadline inside it. The merge is a
//! plain function of what arrived: a worker that died or stayed silent
//! has its nodes synthesised **dark** — fresh players that received
//! nothing — beside the survivors', and the report is marked degraded.

use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use gossip_core::ProtocolStats;
use gossip_reactor::{monitor_fleet, HostOutcome};
use gossip_stream::StreamPlayer;
use gossip_telemetry::TelemetrySeries;
use gossip_types::NodeId;
use gossip_udp::clock::ClusterClock;
use gossip_udp::cluster::{assemble_report, ClusterReport};
use gossip_udp::codec;
use gossip_udp::report::NodeReport;

use crate::config::DeployConfig;
use crate::env::{Conn, ControlEnv, Event, LiveEnv};
use crate::proto::Message;
use crate::{DeployError, Peer, Phase};

/// Patience for each handshake phase: every worker's `Hello`, then every
/// `Addrs` (binding a slice is fast; remote workers may take a moment to
/// be started by hand).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
/// Slack on top of the scheduled run length before a missing report is
/// declared lost.
const REPORT_SLACK: Duration = Duration::from_secs(120);

fn protocol(message: String) -> DeployError {
    DeployError::Protocol(message)
}

/// How the coordinator runs a deployment.
#[derive(Debug, Clone)]
pub struct CoordOptions {
    /// The deployment file, verbatim (also forwarded to every worker).
    pub config_text: String,
    /// Explicit path to the `gossipd` binary; `None` looks for a sibling
    /// of the current executable (the layout `cargo build` produces).
    pub gossipd: Option<PathBuf>,
    /// `true`: spawn the workers as local child processes. `false`: print
    /// one `gossipd --coord … --index k` command per worker and wait for
    /// them to connect from wherever the operator starts them (the
    /// mid-stream kill needs local children and is rejected otherwise).
    pub spawn_local: bool,
}

/// What happened to one worker process.
#[derive(Debug, Clone, Copy)]
pub struct ProcessOutcome {
    /// The worker's index, `0..processes`.
    pub index: usize,
    /// The id slice `[lo, hi)` the worker hosted.
    pub slice: (u32, u32),
    /// Whether the coordinator hard-killed this worker mid-stream.
    pub killed: bool,
    /// Whether the worker delivered a report at all (a killed or crashed
    /// worker does not; its nodes are synthesised dark).
    pub reported: bool,
    /// Whether the worker's own run was cut short (signal/stop).
    pub degraded: bool,
    /// Shards that aborted inside the worker.
    pub aborted_shards: usize,
}

/// The merged outcome of a deployment: one comparable [`ClusterReport`]
/// plus per-process accounting.
#[derive(Debug)]
pub struct AggregateReport {
    /// The cluster-wide report, assembled by the same
    /// [`assemble_report`] as the in-process runtime — dark nodes of
    /// dead workers included.
    pub report: ClusterReport,
    /// Per-worker outcomes, in index order.
    pub outcomes: Vec<ProcessOutcome>,
}

impl AggregateReport {
    /// Mean fraction of measured windows (`1..=windows_measured`) each
    /// *receiver* in the id slice `[lo, hi)` could decode. `1.0` for an
    /// empty slice of receivers or when nothing was measured — callers
    /// gate on `windows_measured` separately.
    pub fn completeness_of(&self, lo: u32, hi: u32) -> f64 {
        let last = self.report.windows_measured;
        if last < 1 {
            return 1.0;
        }
        let mut nodes = 0usize;
        let mut sum = 0.0;
        for node in &self.report.nodes {
            let g = node.id.as_u32();
            if g == 0 || g < lo || g >= hi {
                continue;
            }
            let decodable =
                (1..=last).filter(|&w| node.player.window_decodable_at(w).is_some()).count();
            sum += decodable as f64 / last as f64;
            nodes += 1;
        }
        if nodes == 0 {
            1.0
        } else {
            sum / nodes as f64
        }
    }
}

fn gossipd_path(opts: &CoordOptions) -> Result<PathBuf, DeployError> {
    if let Some(path) = &opts.gossipd {
        return Ok(path.clone());
    }
    let me = std::env::current_exe()?;
    let sibling = me.with_file_name(if cfg!(windows) { "gossipd.exe" } else { "gossipd" });
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(protocol(format!("no gossipd binary next to {}; pass an explicit path", me.display())))
    }
}

/// A dark node: the synthesised report of a node whose process died
/// before delivering — a fresh player that received nothing.
fn dark_node(config: &DeployConfig, g: u32) -> NodeReport {
    NodeReport {
        id: NodeId::new(g),
        protocol: ProtocolStats::default(),
        player: StreamPlayer::new(config.cluster.stream),
        sent_bytes: 0,
        sent_msgs: 0,
        shaper_drops: 0,
        recv_msgs: 0,
        decode_errors: 0,
    }
}

/// What the handshake leaves behind: each worker's connection (by
/// index), the start epoch as wall time, and every published telemetry
/// endpoint.
#[derive(Debug)]
pub(crate) struct Fleet {
    conns: Vec<Conn>,
    epoch: Duration,
    endpoints: Vec<SocketAddr>,
}

/// The handshake: every worker's `Hello` (which connection is which
/// worker, whatever the connect order), a `Welcome` each, every `Addrs`,
/// then one `Start` epoch for all.
pub(crate) fn handshake<E: ControlEnv>(
    env: &mut E,
    config: &DeployConfig,
    config_toml: &str,
) -> Result<Fleet, DeployError> {
    let total_n = config.cluster.compiled_adversity().total_n;
    let processes = config.processes;
    let mut conns: Vec<Option<Conn>> = vec![None; processes];
    let mut table: Vec<Option<SocketAddr>> = vec![None; total_n];
    // Per worker, once its `Addrs` is in: its telemetry endpoint, if any.
    let mut published: Vec<Option<Option<SocketAddr>>> = vec![None; processes];
    for phase in [Phase::Hello, Phase::Addrs] {
        let deadline = env.now() + HANDSHAKE_TIMEOUT;
        loop {
            let missing = match phase {
                Phase::Hello => conns.iter().position(Option::is_none),
                _ => published.iter().position(Option::is_none),
            };
            let Some(missing) = missing else { break };
            match env.next(deadline) {
                Event::Frame(conn, Message::Hello { index }) if phase == Phase::Hello => {
                    let slot = conns.get_mut(index as usize).ok_or_else(|| {
                        protocol(format!(
                            "worker index {index} out of range ({processes} processes)"
                        ))
                    })?;
                    if slot.replace(conn).is_some() {
                        return Err(protocol(format!("two workers claimed index {index}")));
                    }
                }
                Event::Frame(conn, Message::Addrs { addrs, telemetry })
                    if phase == Phase::Addrs =>
                {
                    let k = conns.iter().position(|&c| c == Some(conn));
                    let Some(k) = k.filter(|&k| published[k].is_none()) else {
                        return Err(protocol(format!("unexpected Addrs on connection {conn}")));
                    };
                    let (lo, hi) = config.slice_of(k, total_n);
                    for (g, addr) in addrs {
                        if !(lo..hi).contains(&g) {
                            return Err(protocol(format!(
                                "worker {k} published node {g} outside its slice [{lo}, {hi})"
                            )));
                        }
                        table[g as usize] = Some(addr);
                    }
                    published[k] = Some(telemetry);
                }
                Event::Frame(_, other) => {
                    return Err(protocol(format!("expected {phase:?}, got {other:?}")))
                }
                // A connection that closes before its `Hello` names no worker.
                Event::Closed(conn) => {
                    if let Some(k) = conns.iter().position(|&c| c == Some(conn)) {
                        return Err(DeployError::HungUp(Peer::Worker(k), phase));
                    }
                }
                Event::Deadline => return Err(DeployError::Silent(Peer::Worker(missing), phase)),
            }
        }
        if phase == Phase::Hello {
            for (k, &conn) in conns.iter().flatten().enumerate() {
                let (lo, hi) = config.slice_of(k, total_n);
                let welcome = Message::Welcome { lo, hi, config_toml: config_toml.to_string() };
                // A broken connection shows as its `Closed` in the next phase.
                env.send(conn, &welcome).ok();
            }
        }
    }
    let table: Vec<SocketAddr> = table
        .into_iter()
        .enumerate()
        .map(|(g, a)| a.ok_or_else(|| protocol(format!("no address for node {g}"))))
        .collect::<Result<_, _>>()?;

    // The start barrier: one wall-clock epoch for everyone.
    let epoch = env.now() + config.start_delay;
    let start = Message::Start { start_unix_micros: epoch.as_micros() as u64, table };
    let conns: Vec<Conn> = conns.into_iter().flatten().collect();
    for &conn in &conns {
        env.send(conn, &start).ok();
    }
    Ok(Fleet { conns, epoch, endpoints: published.into_iter().flatten().flatten().collect() })
}

/// The report phase: every worker's report, by one absolute deadline —
/// the run's end plus `REPORT_SLACK` — with the kill scenario fired at
/// its own deadline inside it. A worker that hangs up, or is still silent
/// at the deadline, delivers nothing.
pub(crate) fn collect<E: ControlEnv>(
    env: &mut E,
    config: &DeployConfig,
    fleet: &Fleet,
) -> Vec<Option<HostOutcome>> {
    let run_len =
        ClusterClock::to_std(config.cluster.stream_duration + config.cluster.drain_duration);
    let deadline = fleet.epoch + run_len + REPORT_SLACK;
    let mut kill = config.kill_process.map(|victim| (fleet.epoch + config.kill_at, victim));
    let mut delivered: Vec<Option<HostOutcome>> = fleet.conns.iter().map(|_| None).collect();
    let mut open = vec![true; fleet.conns.len()];
    while open.contains(&true) {
        let event = env.next(kill.map_or(deadline, |(at, _)| at.min(deadline)));
        let (Event::Frame(conn, _) | Event::Closed(conn)) = event else {
            match kill.take() {
                Some((at, victim)) if env.now() >= at => env.kill(victim),
                _ => break,
            }
            continue;
        };
        let Some(k) = fleet.conns.iter().position(|&c| c == conn).filter(|&k| open[k]) else {
            continue;
        };
        open[k] = false;
        // A hang-up is a dead worker: the kill scenario lands there.
        let Event::Frame(_, message) = event else { continue };
        let Message::Report { degraded, aborted_shards, payload } = message else {
            eprintln!("worker {k}: expected Report, got {message:?}; treating as dark");
            continue;
        };
        match codec::decode_process_reports(&payload, &config.cluster.stream) {
            Ok((nodes, shard_stats)) => {
                let aborted_shards = aborted_shards as usize;
                let outcome =
                    HostOutcome { nodes, shard_stats, aborted_shards, degraded, telemetry: None };
                delivered[k] = Some(outcome);
            }
            Err(e) => eprintln!("worker {k}: undecodable report ({e}); treating as dark"),
        }
    }
    delivered
}

/// Merges what arrived into one report, as a plain function of it: each
/// worker's nodes inside its own slice, a dark node for every id nobody
/// reported (dead workers, aborted shards), and the outcome flags.
pub(crate) fn merge(
    config: &DeployConfig,
    delivered: Vec<Option<HostOutcome>>,
    telemetry: Option<TelemetrySeries>,
) -> AggregateReport {
    let total_n = config.cluster.compiled_adversity().total_n;
    let mut nodes: Vec<NodeReport> = Vec::with_capacity(total_n);
    let mut have = vec![false; total_n];
    let mut shard_stats = Vec::new();
    let mut outcomes = Vec::with_capacity(delivered.len());
    for (k, report) in delivered.into_iter().enumerate() {
        let (lo, hi) = config.slice_of(k, total_n);
        let mut outcome = ProcessOutcome {
            index: k,
            slice: (lo, hi),
            killed: config.kill_process == Some(k),
            reported: report.is_some(),
            degraded: true,
            aborted_shards: 0,
        };
        if let Some(report) = report {
            outcome.degraded = report.degraded;
            outcome.aborted_shards = report.aborted_shards;
            for node in report.nodes.into_iter().filter(|n| (lo..hi).contains(&n.id.as_u32())) {
                have[node.id.index()] = true;
                nodes.push(node);
            }
            shard_stats.extend(report.shard_stats);
        }
        outcomes.push(outcome);
    }
    for g in (0..total_n).filter(|&g| !have[g]) {
        nodes.push(dark_node(config, g as u32));
    }

    let mut report = assemble_report(&config.cluster, nodes);
    report.shard_stats = shard_stats;
    report.aborted_shards = outcomes.iter().map(|o| o.aborted_shards).sum();
    report.telemetry = telemetry;
    report.degraded |= outcomes.iter().any(|o| !o.reported || o.degraded || o.killed);
    AggregateReport { report, outcomes }
}

/// Runs a whole deployment to completion and merges the reports.
///
/// # Errors
///
/// Returns a [`DeployError`] if the file does not parse, the workers
/// cannot be spawned or contacted, or the handshake is violated or not
/// finished by its deadline. A worker dying *mid-run* is not an error —
/// that is a measurement (dark nodes, degraded report).
pub fn run_coordinator(opts: &CoordOptions) -> Result<AggregateReport, DeployError> {
    let config = DeployConfig::from_toml_str(&opts.config_text)?;
    if config.kill_process.is_some() && !opts.spawn_local {
        return Err(protocol("kill_process needs locally spawned workers".to_string()));
    }
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let coord_addr = listener.local_addr()?.to_string();
    let mut env = LiveEnv::listen(listener)?;
    // Launch the fleet — or tell the operator how to.
    if opts.spawn_local {
        let binary = gossipd_path(opts)?;
        for k in 0..config.processes {
            let index = k.to_string();
            let args = ["--coord", coord_addr.as_str(), "--index", index.as_str()];
            env.spawn(Command::new(&binary).args(args).stdin(Stdio::null()))?;
        }
    } else {
        for k in 0..config.processes {
            println!("start worker {k}:  gossipd --coord {coord_addr} --index {k}");
        }
    }

    let fleet = handshake(&mut env, &config, &opts.config_text)?;
    // Live observability: poll every published scrape endpoint at 1 Hz
    // for the duration of the run. A worker whose endpoint stops
    // answering (killed, crashed) drops out of `fleet_workers_live`, its
    // last totals kept — visible well before its report goes missing.
    let monitor = (!fleet.endpoints.is_empty()).then(|| {
        let (stop, stopped) = mpsc::channel();
        let endpoints = fleet.endpoints.clone();
        (stop, std::thread::spawn(move || monitor_fleet(&endpoints, &stopped)))
    });
    let delivered = collect(&mut env, &config, &fleet);
    let telemetry = monitor.and_then(|(stop, handle)| {
        drop(stop);
        handle.join().ok()
    });
    Ok(merge(&config, delivered, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::scripted::{at, Scripted, T0};
    use gossip_stream::PacketId;
    use gossip_types::Time;
    use gossip_udp::report::ShardStats;

    /// Three workers, 12 nodes, a 2 + 1 s run starting 400 ms after the
    /// handshake.
    const SPEC: &str = "[cluster]\nn = 12\nstream_secs = 2\ndrain_secs = 1\n\
                        [deploy]\nprocesses = 3\nstart_delay_ms = 400\n";
    /// The same with worker 2 killed 1.5 s into the stream.
    const KILL: &str = "[cluster]\nn = 12\nstream_secs = 2\ndrain_secs = 1\n\
                        [deploy]\nprocesses = 3\nstart_delay_ms = 400\n\
                        kill_process = 2\nkill_at_secs = 1.5\n";

    fn config(text: &str) -> DeployConfig {
        DeployConfig::from_toml_str(text).expect("the spec parses")
    }

    fn addrs(config: &DeployConfig, k: usize) -> Message {
        let (lo, hi) = config.slice_of(k, config.cluster.n);
        let addrs = (lo..hi).map(|g| (g, SocketAddr::from(([127, 0, 0, 1], 5000 + g as u16))));
        Message::Addrs { addrs: addrs.collect(), telemetry: None }
    }

    /// Worker `k`'s report: every node of its slice holds one packet.
    fn report(config: &DeployConfig, k: usize) -> Message {
        let (lo, hi) = config.slice_of(k, config.cluster.n);
        let nodes: Vec<NodeReport> = (lo..hi)
            .map(|g| {
                let mut node = dark_node(config, g);
                node.player.on_packet(Time::from_millis(10), PacketId::new(0, 0));
                node
            })
            .collect();
        let payload = codec::encode_process_reports(&nodes, &[ShardStats::default()]);
        Message::Report { degraded: false, aborted_shards: 0, payload }
    }

    /// Worker `k` on connection `2 - k` (connect order is not worker
    /// order): `Hello` at `1 + k` ms, `Addrs` at `10 + k` ms. The epoch is
    /// then 12 + 400 ms, and the run ends 3 s later.
    fn handshaken(config: &DeployConfig) -> Scripted {
        (0..3).fold(Scripted::new(), |env, k| {
            env.frame(at(1 + k as u64), 2 - k, &Message::Hello { index: k as u32 }).frame(
                at(10 + k as u64),
                2 - k,
                &addrs(config, k),
            )
        })
    }

    /// Worker `k` on connection `k` says `Hello` at `1 + k` ms.
    fn hellos() -> Scripted {
        (0..3u64).fold(Scripted::new(), |env, k| {
            env.frame(at(1 + k), k as usize, &Message::Hello { index: k as u32 })
        })
    }

    const EPOCH_MS: u64 = 412;
    const RUN_END_MS: u64 = EPOCH_MS + 3000;

    #[test]
    fn every_worker_reporting_merges_an_undegraded_report() {
        let config = config(SPEC);
        let mut env = (0..3).fold(handshaken(&config), |env, k| {
            env.frame(at(RUN_END_MS + 50 + k as u64), 2 - k, &report(&config, k))
        });
        let fleet = handshake(&mut env, &config, SPEC).expect("handshake");
        let starts: Vec<_> =
            env.sent.iter().filter(|(_, _, m)| matches!(m, Message::Start { .. })).collect();
        assert_eq!(starts.len(), 3);
        for (when, _, start) in starts {
            assert_eq!(*when, at(12), "Start goes out when the last Addrs is in");
            let Message::Start { start_unix_micros, table } = start else { unreachable!() };
            assert_eq!(*start_unix_micros, at(EPOCH_MS).as_micros() as u64);
            assert_eq!(table[7], SocketAddr::from(([127, 0, 0, 1], 5007)));
        }
        let delivered = collect(&mut env, &config, &fleet);
        assert_eq!(env.now(), at(RUN_END_MS + 52), "done at the last report, not the deadline");

        let aggregate = merge(&config, delivered, None);
        let report = &aggregate.report;
        assert_eq!(report.nodes.len(), 12, "every node of every process reports");
        assert!(report.nodes.iter().all(|n| n.player.packets_received() == 1), "none is dark");
        assert_eq!(report.shard_stats.len(), 3, "one shard per process, merged");
        assert_eq!(aggregate.outcomes.len(), 3);
        for outcome in &aggregate.outcomes {
            assert!(outcome.reported, "worker {} must deliver a report", outcome.index);
            assert!(!outcome.killed);
            assert_eq!(outcome.aborted_shards, 0);
        }
        assert!(!report.degraded, "an undisturbed deployment is not degraded");
    }

    #[test]
    fn the_kill_fires_at_its_deadline_and_darkens_the_victim() {
        let config = config(KILL);
        // The victim would report with the others, had it survived.
        let mut env = (0..3).fold(handshaken(&config), |env, k| {
            env.frame(at(RUN_END_MS + 50 + k as u64), 2 - k, &report(&config, k))
        });
        let fleet = handshake(&mut env, &config, KILL).expect("handshake");
        let aggregate = merge(&config, collect(&mut env, &config, &fleet), None);
        assert_eq!(env.killed, vec![(at(EPOCH_MS + 1500), 2)], "one kill, at epoch + kill_at");

        let report = &aggregate.report;
        assert_eq!(report.nodes.len(), 12, "dark victims are synthesised into the report");
        assert!(report.degraded, "a killed worker must mark the merged report degraded");
        let victim = &aggregate.outcomes[2];
        assert!(victim.killed && !victim.reported, "worker 2 must die without reporting");
        let (lo, hi) = victim.slice;
        let dark = report.nodes.iter().filter(|n| n.player.packets_received() == 0);
        let dark: Vec<u32> = dark.map(|n| n.id.as_u32()).collect();
        assert_eq!(dark, (lo..hi).collect::<Vec<_>>(), "exactly the victim's slice is dark");
        for survivor in &aggregate.outcomes[..2] {
            assert!(survivor.reported && !survivor.killed, "worker {} survives", survivor.index);
        }
    }

    #[test]
    fn a_worker_that_never_connects_fails_at_the_hello_deadline() {
        let config = config(SPEC);
        let mut env = Scripted::new().frame(at(1), 0, &Message::Hello { index: 0 }).frame(
            at(2),
            1,
            &Message::Hello { index: 2 },
        );
        let err = handshake(&mut env, &config, SPEC).expect_err("worker 1 never says Hello");
        assert!(matches!(err, DeployError::Silent(Peer::Worker(1), Phase::Hello)), "{err}");
        assert_eq!(env.now(), T0 + HANDSHAKE_TIMEOUT);
    }

    #[test]
    fn a_worker_that_hangs_before_addrs_fails_at_the_addrs_deadline() {
        let config = config(SPEC);
        let mut env =
            hellos().frame(at(10), 0, &addrs(&config, 0)).frame(at(12), 2, &addrs(&config, 2));
        let err = handshake(&mut env, &config, SPEC).expect_err("worker 1 never sends Addrs");
        assert!(matches!(err, DeployError::Silent(Peer::Worker(1), Phase::Addrs)), "{err}");
        assert_eq!(env.now(), at(3) + HANDSHAKE_TIMEOUT, "the Addrs deadline counts from Welcome");

        // Hanging up instead fails at once, naming the worker.
        let mut env = hellos().frame(at(10), 0, &addrs(&config, 0)).close(at(11), 1);
        let err = handshake(&mut env, &config, SPEC).expect_err("worker 1 hangs up");
        assert!(matches!(err, DeployError::HungUp(Peer::Worker(1), Phase::Addrs)), "{err}");
        assert_eq!(env.now(), at(11));
    }

    #[test]
    fn workers_that_never_report_are_dark_at_one_absolute_deadline() {
        let config = config(SPEC);
        // Workers 1 and 2 hang after Start; only worker 0 reports.
        let mut env = handshaken(&config).frame(at(RUN_END_MS + 50), 2, &report(&config, 0));
        let fleet = handshake(&mut env, &config, SPEC).expect("handshake");
        let aggregate = merge(&config, collect(&mut env, &config, &fleet), None);
        assert_eq!(
            env.now(),
            at(RUN_END_MS) + REPORT_SLACK,
            "two hung workers cost the report slack once"
        );
        let report = &aggregate.report;
        assert!(report.degraded);
        assert_eq!(report.nodes.len(), 12);
        for silent in &aggregate.outcomes[1..] {
            assert!(!silent.reported && silent.degraded && !silent.killed);
            let (lo, hi) = silent.slice;
            let slice = report.nodes.iter().filter(|n| (lo..hi).contains(&n.id.as_u32()));
            assert!(slice.clone().count() == (hi - lo) as usize);
            assert!(slice.into_iter().all(|n| n.player.packets_received() == 0), "dark");
        }
        assert!(aggregate.outcomes[0].reported);
    }

    /// A peer that sends one byte just inside each 120 s read timeout
    /// would hold a per-read timeout open for ever; the phase deadline
    /// drops it.
    #[test]
    fn a_trickling_peer_is_dropped_at_the_phase_deadline() {
        let config = config(SPEC);
        let trickle = |env: Scripted, start_ms: u64, conn, message: &Message| {
            let frame = message.encode();
            frame.iter().enumerate().fold(env, |env, (i, byte)| {
                env.bytes(at(start_ms) + Duration::from_secs(119) * i as u32, conn, &[*byte])
            })
        };
        let mut env = Scripted::new().frame(at(1), 0, &Message::Hello { index: 0 });
        env = env.frame(at(2), 2, &Message::Hello { index: 2 });
        env = trickle(env, 0, 1, &Message::Hello { index: 1 });
        let err = handshake(&mut env, &config, SPEC).expect_err("the trickle is too slow");
        assert!(matches!(err, DeployError::Silent(Peer::Worker(1), Phase::Hello)), "{err}");
        assert_eq!(env.now(), T0 + HANDSHAKE_TIMEOUT);

        // In the report phase, a trickled report is no report.
        let env = handshaken(&config).frame(at(RUN_END_MS + 50), 2, &report(&config, 0));
        let env = env.frame(at(RUN_END_MS + 51), 0, &report(&config, 2));
        let mut env = trickle(env, RUN_END_MS, 1, &report(&config, 1));
        let fleet = handshake(&mut env, &config, SPEC).expect("handshake");
        let delivered = collect(&mut env, &config, &fleet);
        assert_eq!(env.now(), at(RUN_END_MS) + REPORT_SLACK);
        let reported: Vec<bool> = delivered.iter().map(Option::is_some).collect();
        assert_eq!(reported, [true, false, true]);
    }

    #[test]
    fn a_frame_over_its_kinds_cap_closes_its_connection() {
        let config = config(SPEC);
        let mut oversized = vec![1u8];
        oversized.extend_from_slice(&(64u32 << 20).to_le_bytes());
        oversized.extend_from_slice(&[0; 1024]);
        // A stray peer's 64 MiB Hello costs the handshake nothing.
        let mut env = handshaken(&config).bytes(at(0), 3, &oversized);
        handshake(&mut env, &config, SPEC).expect("the stray connection is dropped");
        assert!(env.send(3, &Message::Hello { index: 0 }).is_err(), "connection 3 is closed");

        // A worker's 64 MiB Addrs ends that worker's handshake.
        oversized[0] = 3;
        let mut env = hellos().bytes(at(10), 1, &oversized);
        let err = handshake(&mut env, &config, SPEC).expect_err("worker 1's Addrs is refused");
        assert!(matches!(err, DeployError::HungUp(Peer::Worker(1), Phase::Addrs)), "{err}");
        assert_eq!(env.now(), at(10));
    }

    #[test]
    fn print_commands_mode_rejects_the_kill_scenario() {
        let config_text = "[cluster]\nn = 8\n[deploy]\nprocesses = 2\nkill_process = 1\n";
        let opts = CoordOptions {
            config_text: config_text.to_string(),
            gossipd: None,
            spawn_local: false,
        };
        let err = run_coordinator(&opts).expect_err("must be rejected");
        assert!(matches!(err, DeployError::Protocol(_)));
    }

    #[test]
    fn a_broken_config_is_a_parse_error() {
        let opts = CoordOptions {
            config_text: "[cluster]\n".to_string(),
            gossipd: None,
            spawn_local: false,
        };
        assert!(matches!(run_coordinator(&opts), Err(DeployError::Parse(_))));
    }
}
