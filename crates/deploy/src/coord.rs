//! The `gossip-coord` coordinator: launch the workers, run the barrier,
//! merge the reports.
//!
//! One coordinator process drives a whole deployment from one TOML file:
//! it computes each worker's contiguous id slice, spawns the `gossipd`
//! processes locally (or prints the commands for remote hosts), plays
//! tracker by relaying every worker's socket addresses to every other,
//! broadcasts one wall-clock start epoch so the compiled fault timelines
//! coincide across processes, optionally hard-kills one worker mid-stream
//! (the first cross-host chaos scenario), and finally merges every
//! process's reports into one [`ClusterReport`] via the same
//! [`assemble_report`] the in-process runtime uses — so a 3-process
//! deployment's numbers sit in the same table as a single-process run's.
//!
//! A worker that dies (killed by the chaos scenario, or crashed) simply
//! never delivers its report; its nodes are synthesised as **dark** —
//! fresh players that received nothing — so the merged report shows the
//! victims' darkness *and* the survivors' quality side by side, and the
//! whole report is marked degraded.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use gossip_telemetry::{in_family, Registry, TelemetrySeries, TelemetrySnapshot};

use gossip_adversity::WallClockAnchor;
use gossip_core::ProtocolStats;
use gossip_stream::StreamPlayer;
use gossip_types::NodeId;
use gossip_udp::cluster::{assemble_report, ClusterError, ClusterReport};
use gossip_udp::codec;
use gossip_udp::report::{NodeReport, ShardStats};

use crate::config::{DeployConfig, DeployParseError};
use crate::proto::{read_message, write_message, Message, ProtoError};

/// Patience for each worker's Hello and Addrs (binding a slice is fast;
/// remote workers may take a moment to be started by hand).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
/// Slack on top of the scheduled run length before a missing report is
/// declared lost.
const REPORT_SLACK: Duration = Duration::from_secs(120);

/// A coordinator-side failure.
#[derive(Debug)]
pub enum DeployError {
    /// Listener, accept or child-process I/O failed.
    Io(std::io::Error),
    /// The deployment file does not parse.
    Parse(DeployParseError),
    /// A worker violated the control protocol.
    Proto(ProtoError),
    /// A worker's handshake content was inconsistent (wrong index,
    /// foreign node ids, gaps in the address book).
    Protocol(String),
    /// Report assembly failed at the cluster layer.
    Cluster(ClusterError),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Io(e) => write!(f, "coordinator i/o: {e}"),
            DeployError::Parse(e) => write!(f, "{e}"),
            DeployError::Proto(e) => write!(f, "{e}"),
            DeployError::Protocol(m) => write!(f, "deployment protocol: {m}"),
            DeployError::Cluster(e) => write!(f, "cluster: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<std::io::Error> for DeployError {
    fn from(e: std::io::Error) -> Self {
        DeployError::Io(e)
    }
}

impl From<ProtoError> for DeployError {
    fn from(e: ProtoError) -> Self {
        DeployError::Proto(e)
    }
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

/// Sums the final value of every sample whose family (name without
/// labels) matches — totalling a per-shard metric across one scrape.
fn family_sum(samples: &[(String, f64)], family: &str) -> f64 {
    samples.iter().filter(|(n, _)| in_family(n, family)).map(|(_, v)| v).sum()
}

/// Mean of every sample of one family, if any are present.
fn family_mean(samples: &[(String, f64)], family: &str) -> Option<f64> {
    let values: Vec<f64> =
        samples.iter().filter(|(n, _)| in_family(n, family)).map(|(_, v)| *v).collect();
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The coordinator's fleet monitor: scrapes every worker's telemetry
/// endpoint once per second, folds the per-shard families into `fleet_*`
/// cells, prints a live status line, and accumulates the snapshots that
/// become the merged report's [`TelemetrySeries`].
fn monitor_fleet(endpoints: Vec<SocketAddr>, stop: Arc<AtomicBool>) -> TelemetrySeries {
    let registry = Registry::new();
    let workers_live = registry.gauge(
        "fleet_workers_live",
        "Workers whose scrape endpoint answered the last fleet poll.",
        &[],
    );
    let sent = registry.counter(
        "fleet_datagrams_sent_total",
        "Protocol datagrams sent, summed across every worker's shards.",
        &[],
    );
    let received = registry.counter(
        "fleet_datagrams_received_total",
        "Protocol datagrams received, summed across every worker's shards.",
        &[],
    );
    let shed = registry.counter(
        "fleet_datagrams_shed_total",
        "Datagrams shed by outbox/retry budgets, summed across the fleet.",
        &[],
    );
    let backoffs = registry.counter(
        "fleet_send_backoffs_total",
        "Backoff intervals entered after transient send failures, fleet-wide.",
        &[],
    );
    let completeness = registry.gauge_f64(
        "fleet_completeness_percent",
        "Mean per-shard stream completeness across the fleet.",
        &[],
    );
    let workers = endpoints.len();
    let mut snapshots = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut live = 0usize;
        let mut fold: Vec<(String, f64)> = Vec::new();
        for &addr in &endpoints {
            if let Ok(mut samples) = gossip_telemetry::scrape(addr) {
                live += 1;
                fold.append(&mut samples);
            }
        }
        workers_live.store(live as u64);
        let sent_now = family_sum(&fold, "gossip_shard_datagrams_sent_total");
        let recv_now = family_sum(&fold, "gossip_shard_datagrams_received_total");
        let shed_now = family_sum(&fold, "gossip_shard_datagrams_shed_total");
        let backoffs_now = family_sum(&fold, "gossip_shard_send_backoffs_total");
        let pct = family_mean(&fold, "gossip_shard_completeness_percent");
        sent.store(sent_now as u64);
        received.store(recv_now as u64);
        shed.store(shed_now as u64);
        backoffs.store(backoffs_now as u64);
        completeness.store_f64(pct.unwrap_or(0.0));
        let at_unix_millis =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64);
        snapshots.push(TelemetrySnapshot { at_unix_millis, values: registry.snapshot_values() });
        if live > 0 {
            println!(
                "fleet: {live}/{workers} workers | sent {} | recv {} | shed {} | backoffs {} | completeness {}",
                sent_now as u64,
                recv_now as u64,
                shed_now as u64,
                backoffs_now as u64,
                pct.map_or_else(|| "n/a".to_string(), |p| format!("{p:.1}%")),
            );
        }
        // Sleep in short slices so the monitor stops promptly once the
        // last report is in.
        let mut left = Duration::from_secs(1);
        while !left.is_zero() && !stop.load(Ordering::Relaxed) {
            let slice = left.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
    TelemetrySeries { names: registry.snapshot_names(), snapshots }
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
        Err(DeployError::Protocol(format!(
            "no gossipd binary next to {}; pass an explicit path",
            me.display()
        )))
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

/// Runs a whole deployment to completion and merges the reports.
///
/// # Errors
///
/// Returns a [`DeployError`] if the file does not parse, the workers
/// cannot be spawned or contacted, or the handshake is violated. A worker
/// dying *mid-run* is not an error — that is a measurement (dark nodes,
/// degraded report).
pub fn run_coordinator(opts: &CoordOptions) -> Result<AggregateReport, DeployError> {
    let config = DeployConfig::from_toml_str(&opts.config_text).map_err(DeployError::Parse)?;
    let total_n = config.cluster.compiled_adversity().total_n;
    let processes = config.processes;
    if config.kill_process.is_some() && !opts.spawn_local {
        return Err(DeployError::Protocol(
            "kill_process needs locally spawned workers".to_string(),
        ));
    }

    let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
    let coord_addr = listener.local_addr()?;

    // Launch the fleet — or tell the operator how to.
    let children: Arc<Mutex<Vec<Option<Child>>>> = Arc::new(Mutex::new(Vec::new()));
    if opts.spawn_local {
        let binary = gossipd_path(opts)?;
        let mut spawned = children.lock().expect("children lock");
        for k in 0..processes {
            let child = Command::new(&binary)
                .arg("--coord")
                .arg(coord_addr.to_string())
                .arg("--index")
                .arg(k.to_string())
                .stdin(Stdio::null())
                .spawn()?;
            spawned.push(Some(child));
        }
    } else {
        for k in 0..processes {
            println!("start worker {k}:  gossipd --coord {coord_addr} --index {k}");
        }
    }

    // Accept one control connection per worker; Hello tells us which is
    // which regardless of connect order.
    let mut control: Vec<Option<TcpStream>> = (0..processes).map(|_| None).collect();
    for _ in 0..processes {
        let (mut stream, _) = listener.accept()?;
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        stream.set_nodelay(true).ok();
        match read_message(&mut stream)? {
            Message::Hello { index } => {
                let slot = control.get_mut(index as usize).ok_or_else(|| {
                    DeployError::Protocol(format!(
                        "worker index {index} out of range ({processes} processes)"
                    ))
                })?;
                if slot.is_some() {
                    return Err(DeployError::Protocol(format!(
                        "two workers claimed index {index}"
                    )));
                }
                *slot = Some(stream);
            }
            other => return Err(DeployError::Protocol(format!("expected Hello, got {other:?}"))),
        }
    }
    let mut control: Vec<TcpStream> =
        control.into_iter().map(|s| s.expect("every index claimed")).collect();

    // Hand out assignments; collect the address book.
    for (k, stream) in control.iter_mut().enumerate() {
        let (lo, hi) = config.slice_of(k, total_n);
        write_message(stream, &Message::Welcome { lo, hi, config_toml: opts.config_text.clone() })?;
    }
    let mut table: Vec<Option<SocketAddr>> = vec![None; total_n];
    let mut scrape_endpoints: Vec<SocketAddr> = Vec::new();
    for (k, stream) in control.iter_mut().enumerate() {
        let (lo, hi) = config.slice_of(k, total_n);
        match read_message(stream)? {
            Message::Addrs { addrs, telemetry } => {
                if let Some(addr) = telemetry {
                    scrape_endpoints.push(addr);
                }
                for (g, addr) in addrs {
                    if g < lo || g >= hi {
                        return Err(DeployError::Protocol(format!(
                            "worker {k} published node {g} outside its slice [{lo}, {hi})"
                        )));
                    }
                    table[g as usize] = Some(addr);
                }
            }
            other => return Err(DeployError::Protocol(format!("expected Addrs, got {other:?}"))),
        }
    }
    let table: Vec<SocketAddr> = table
        .into_iter()
        .enumerate()
        .map(|(g, a)| a.ok_or_else(|| DeployError::Protocol(format!("no address for node {g}"))))
        .collect::<Result<_, _>>()?;

    // The start barrier: one wall-clock epoch for everyone.
    let anchor = WallClockAnchor::starting_in(config.start_delay);
    for stream in control.iter_mut() {
        write_message(
            stream,
            &Message::Start { start_unix_micros: anchor.start_unix_micros, table: table.clone() },
        )?;
    }

    // Live observability: poll every published scrape endpoint at 1 Hz
    // for the duration of the run. A worker whose endpoint stops
    // answering (killed, crashed) simply drops out of `fleet_workers_live`
    // — visible in the time series well before its report goes missing.
    let fleet_stop = Arc::new(AtomicBool::new(false));
    let fleet_handle = if scrape_endpoints.is_empty() {
        None
    } else {
        let stop = Arc::clone(&fleet_stop);
        Some(std::thread::spawn(move || monitor_fleet(scrape_endpoints, stop)))
    };

    // Chaos: hard-kill one worker mid-stream. SIGKILL, not SIGTERM — the
    // point is a process that vanishes without flushing anything.
    let mut kill_handle = None;
    if let Some(victim) = config.kill_process {
        let delay = anchor.until_start() + config.kill_at;
        let children = Arc::clone(&children);
        kill_handle = Some(std::thread::spawn(move || {
            std::thread::sleep(delay);
            if let Some(Some(child)) = children.lock().expect("children lock").get_mut(victim) {
                child.kill().ok();
            }
        }));
    }

    // Collect the reports; a dead worker yields dark nodes, not an error.
    let run_len = std::time::Duration::from_secs_f64(
        (config.cluster.stream_duration + config.cluster.drain_duration).as_secs_f64(),
    );
    let report_timeout = anchor.until_start() + run_len + REPORT_SLACK;
    let mut outcomes = Vec::with_capacity(processes);
    let mut nodes: Vec<NodeReport> = Vec::with_capacity(total_n);
    let mut shard_stats: Vec<ShardStats> = Vec::new();
    let mut aborted_total = 0usize;
    let mut per_process: HashMap<usize, (bool, bool, usize)> = HashMap::new();
    for (k, stream) in control.iter_mut().enumerate() {
        let (lo, hi) = config.slice_of(k, total_n);
        stream.set_read_timeout(Some(report_timeout))?;
        let received = match read_message(stream) {
            Ok(Message::Report { degraded, aborted_shards, payload }) => {
                match codec::decode_process_reports(&payload, &config.cluster.stream) {
                    Ok((mut proc_nodes, proc_stats)) => {
                        proc_nodes.retain(|n| {
                            let g = n.id.as_u32();
                            g >= lo && g < hi
                        });
                        nodes.append(&mut proc_nodes);
                        shard_stats.extend(proc_stats);
                        aborted_total += aborted_shards as usize;
                        per_process.insert(k, (true, degraded, aborted_shards as usize));
                        true
                    }
                    Err(e) => {
                        eprintln!("worker {k}: undecodable report ({e}); treating as dark");
                        false
                    }
                }
            }
            Ok(other) => {
                eprintln!("worker {k}: expected Report, got {other:?}; treating as dark");
                false
            }
            // Connection reset / EOF / timeout: the worker is gone — the
            // kill scenario lands here by design.
            Err(_) => false,
        };
        if !received {
            per_process.insert(k, (false, true, 0));
        }
    }

    // Synthesise dark nodes for every id nobody reported (dead workers,
    // aborted shards).
    let mut have: Vec<bool> = vec![false; total_n];
    for node in &nodes {
        have[node.id.index()] = true;
    }
    for (g, reported) in have.iter().enumerate() {
        if !reported {
            nodes.push(dark_node(&config, g as u32));
        }
    }

    fleet_stop.store(true, Ordering::Relaxed);
    let fleet_series = fleet_handle.and_then(|h| h.join().ok());

    let mut report = assemble_report(&config.cluster, nodes);
    report.shard_stats = shard_stats;
    report.aborted_shards = aborted_total;
    report.telemetry = fleet_series;
    for k in 0..processes {
        let &(reported, degraded, aborted) = per_process.get(&k).expect("every worker recorded");
        let killed = config.kill_process == Some(k);
        report.degraded |= !reported || degraded || killed;
        outcomes.push(ProcessOutcome {
            index: k,
            slice: config.slice_of(k, total_n),
            killed,
            reported,
            degraded,
            aborted_shards: aborted,
        });
    }

    if let Some(handle) = kill_handle {
        handle.join().ok();
    }
    for child in children.lock().expect("children lock").iter_mut().flatten() {
        child.wait().ok();
    }

    Ok(AggregateReport { report, outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

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
