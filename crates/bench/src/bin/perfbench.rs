//! `perfbench` — the tracked hot-path performance benchmark.
//!
//! Runs the *pinned* mid-size scenario (230 nodes, fanout 7, 60 s stream,
//! 20 s drain, seeds 1–3 — the paper's deployment geometry at a shortened
//! stream) whose events/s is the PR-over-PR trajectory number, plus a
//! scenario *matrix* across scales (n ∈ {230, 1000, 4000}, fanout scaled
//! as ⌈ln n⌉ + 2, full and Cyclon membership) so the report also records
//! how throughput holds up at thousands of nodes. All parameters are fixed
//! on purpose: the numbers are only meaningful against earlier runs of the
//! exact same workloads.
//!
//! When the output file already exists, the previous per-scenario numbers
//! are read back and a delta is printed for every scenario; a regression
//! beyond 10 % warns loudly (but does not fail — CI boxes are noisy).
//!
//! Usage:
//!
//! ```text
//! perfbench [--smoke] [--reactor-smoke] [--adversity-smoke] [--byzantine-smoke] [--deploy-smoke] [--telemetry-smoke] [--profile] [--trend] [--trend-record] [--out PATH] [--baseline EVENTS_PER_SEC]
//! ```
//!
//! * `--smoke` — a reduced workload for CI: the ~10× smaller pinned
//!   scenario (60 nodes, 30 s stream, 1 seed) plus one shortened large-n
//!   scenario (n = 1000), and a smaller reactor cell (n = 256);
//! * `--reactor-smoke` — run *only* a gating reactor cell (n = 64 on
//!   loopback, short stream), write its report and exit non-zero if the
//!   run is unhealthy (low quality, malformed datagrams). This is the CI
//!   `reactor-smoke` job;
//! * `--chaos-smoke` — run *only* the gating chaos cell (the n = 64 cell
//!   under a pinned syscall-fault plan: datagram drop/duplicate/reorder,
//!   an ENOBUFS burst, a one-shot socket kill), write its report and exit
//!   non-zero unless every recovery mechanism engaged, no shard aborted
//!   and the cluster still streamed. This is the CI `chaos-smoke` job;
//! * `--adversity-smoke` — run *only* a gating adversity cell (n = 60
//!   simulated, 50 % catastrophic crash plus a flash crowd under `X = 1`),
//!   write its report and exit non-zero unless survivors keep streaming
//!   and joiners catch up. This is the CI `adversity-smoke` job;
//! * `--byzantine-smoke` — run *only* a gating Byzantine cell (n = 60
//!   simulated, 20 % serve-corruptors, validate-before-relay defenses
//!   on), write its report and exit non-zero unless honest receivers keep
//!   streaming and the corruptions were detected and re-requested. This
//!   is the CI `byzantine-smoke` job;
//! * `--deploy-smoke` — run *only* a gating cross-process deployment
//!   cell (3 local `gossipd` child processes hosting n = 48 between
//!   them, coordinated over the control socket), write its report and
//!   exit non-zero unless every worker reported and the merged report
//!   shows a healthy stream. This is the CI `deploy-smoke` job; it needs
//!   a `gossipd` binary next to `perfbench` (or via `GOSSIPD_BIN`);
//! * `--telemetry-smoke` — run *only* a gating telemetry cell (the n = 64
//!   reactor cell with live metrics on), scrape its Prometheus endpoint
//!   twice **mid-run** and exit non-zero unless both scrapes parse, the
//!   datagram counters are non-zero and advancing between them, and the
//!   finished report carries the snapshot series. This is the CI
//!   `telemetry-smoke` job;
//! * `--profile` — run the small reactor cell with the per-phase wall-time
//!   histograms on and write the shard loop's time split as folded stacks
//!   (default `PROFILE_folded.txt`; render with
//!   `flamegraph.pl PROFILE_folded.txt > profile.svg`);
//! * `--trend-record` — append every labelled rate of the report at
//!   `--out` (default `BENCH_hotpath.json`) to the append-only trend
//!   history (default `BENCH_trend.jsonl`, override with `--trend-file`),
//!   one JSONL point per cell stamped with the current commit;
//! * `--trend` — evaluate that history with the sustained-regression
//!   detector (median baseline, ±15 % noise floor, two consecutive bad
//!   points required) and exit non-zero if any cell regressed;
//! * `--reactor-only` — run *only* the tracked reactor cells (no
//!   simulator matrix, nothing written): the iteration mode for runtime
//!   I/O work;
//! * `--deploy-only` — run *only* the tracked deployment cell and print
//!   its JSON line (nothing written): the iteration mode for deploy
//!   work;
//! * `--out PATH` — where to write the JSON (default `BENCH_hotpath.json`
//!   in the current directory; `--reactor-smoke` defaults to
//!   `REACTOR_smoke.json` instead so the gate never clobbers the
//!   trajectory report);
//! * `--baseline X` — a previously recorded pinned `events_per_sec` to
//!   compute the `speedup` field against (typically the number committed
//!   by the last PR that touched the hot path);
//! * `--repeat N` — run each measurement N times and keep the best
//!   (default 1): lowest wall-clock for simulator cells, highest live
//!   datagram rate for reactor cells (their wall-clock is pinned to
//!   stream + drain, so the rate is the noisy number). Shared/noisy boxes
//!   can stall a run by tens of percent; the best over a few repeats is
//!   the standard way (cf. hyperfine's `min`) to estimate what the code
//!   can actually do. The value used is recorded in the report.
//!
//! Report fields: `wall_secs` (wall-clock time of the simulation proper,
//! excluding setup), `events` / `events_per_sec` (simulation events
//! dispatched through the engine), `peak_queue` (high-water mark of the
//! pending-event queue). The `reactor` section records the live runtime's
//! numbers — real datagrams through real shared sockets per wall-clock
//! second — next to the simulator's events/s, so one file tracks both the
//! simulated and the deployed hot path.

use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use gossip_adversity::{AdversitySpec, ByzantineMix, ChaosSpec};
use gossip_bench::trend;
use gossip_core::GossipConfig;
use gossip_deploy::{run_coordinator, CoordOptions};
use gossip_experiments::{MembershipMode, Scale, Scenario};
use gossip_fec::WindowParams;
use gossip_membership::CyclonConfig;
use gossip_reactor::{NodeHost, ReactorCluster, ReactorOptions};
use gossip_stream::StreamConfig;
use gossip_types::Duration;
use gossip_udp::clock::ClusterClock;
use gossip_udp::cluster::{ClusterConfig, RecoveryReport};

/// Regression threshold for the warn-only delta guard.
const REGRESSION_WARN_PCT: f64 = 10.0;

struct RunSample {
    seed: u64,
    wall_secs: f64,
    events: u64,
    peak_queue: usize,
}

/// One matrix entry: a labelled scenario plus its measurement.
struct MatrixResult {
    label: String,
    n: usize,
    fanout: usize,
    membership: &'static str,
    stream_secs: u64,
    drain_secs: u64,
    seed: u64,
    sample: RunSample,
}

fn pinned_scenario(smoke: bool, seed: u64) -> Scenario {
    let scale = if smoke { Scale::Quick } else { Scale::Full };
    let mut s = Scenario::at_scale(scale, 7).with_seed(seed);
    if smoke {
        s.stream_duration = Duration::from_secs(30);
        s.drain_duration = Duration::from_secs(10);
    } else {
        s.stream_duration = Duration::from_secs(60);
        s.drain_duration = Duration::from_secs(20);
    }
    s
}

/// The matrix fanout rule: ⌈ln n⌉ + 2, just above the epidemic threshold.
fn scaled_fanout(n: usize) -> usize {
    (n as f64).ln().ceil() as usize + 2
}

/// A Cyclon configuration big enough to feed the scaled fanout.
fn cyclon_mode() -> MembershipMode {
    MembershipMode::Cyclon {
        config: CyclonConfig { view_size: 32, shuffle_size: 16 },
        shuffle_period: Duration::from_secs(1),
        bootstrap_degree: 16,
    }
}

/// The large-n scenario matrix as `(label, n, membership, stream_secs,
/// drain_secs, churn)`. Stream lengths shrink with n so the whole matrix
/// stays under a minute; what matters is the events/s at each scale, not
/// the stream length. The `churn` cells attach the pinned adversity spec
/// (see [`matrix_churn_spec`]) so the trajectory also tracks the hot path
/// *under fault processing* — mid-run crashes, rejoins and a flash crowd.
fn matrix_entries(smoke: bool) -> Vec<(String, usize, &'static str, u64, u64, bool)> {
    if smoke {
        // The `_smoke` suffix keeps the delta guard like-for-like: a smoke
        // run never compares its shortened workloads against a full
        // report's numbers under the same label.
        return vec![
            ("n1000_f9_full_smoke".into(), 1000, "full", 5, 5, false),
            ("n1000_f9_churn_smoke".into(), 1000, "full", 5, 5, true),
        ];
    }
    let mut entries = Vec::new();
    for &(n, stream, drain) in &[(230usize, 30u64, 10u64), (1000, 20, 10), (4000, 10, 10)] {
        for membership in ["full", "cyclon"] {
            let f = scaled_fanout(n);
            entries.push((format!("n{n}_f{f}_{membership}"), n, membership, stream, drain, false));
        }
    }
    entries.push(("n1000_f9_churn".into(), 1000, "full", 20, 10, true));
    entries
}

/// The pinned churn workload of the matrix `churn` cells: a 30 %
/// catastrophic crash at the stream midpoint, continuous Poisson
/// leave/rejoin churn underneath, and a 10 % flash crowd — all fault
/// processes exercised in one deterministic timeline.
fn matrix_churn_spec(n: usize, stream_secs: u64) -> AdversitySpec {
    AdversitySpec::none()
        .with_catastrophic(Duration::from_secs(stream_secs / 2), 0.3)
        .with_poisson_churn(
            Duration::ZERO,
            Duration::from_secs(stream_secs),
            1.0,
            Some(Duration::from_secs(5)),
        )
        .with_flash_crowd(Duration::from_secs(stream_secs / 4), n / 10, Duration::from_secs(2))
}

/// One reactor cell: a labelled live workload. Geometry is per-cell
/// because the cells probe different regimes: the throughput cell runs a
/// hot gossip geometry the batched I/O path exists for, the scale cell
/// trades stream rate for population — at n = 4000 the *serve* traffic
/// alone is `packet rate × n` datagrams/s, so the stream must thin out
/// for the cell to measure hosting scale rather than guaranteed overload.
struct ReactorCell {
    label: &'static str,
    n: usize,
    fanout: usize,
    period_ms: u64,
    rate_bps: u64,
    payload_bytes: usize,
    /// `(source, repair)` packets per FEC window.
    window: (usize, usize),
    stream_secs: u64,
    drain_secs: u64,
}

/// One reactor (live shared-socket runtime) measurement.
struct ReactorResult {
    label: String,
    n: usize,
    fanout: usize,
    period_ms: u64,
    rate_bps: u64,
    stream_secs: u64,
    drain_secs: u64,
    datagrams_sent: u64,
    datagrams_recv: u64,
    decode_errors: u64,
    /// Malformed kernel datagrams (broken length-delimited framing).
    frame_errors: u64,
    /// Whether the batched `sendmmsg`/`recvmmsg` backend actually ran.
    mmsg: bool,
    send_syscalls: u64,
    recv_syscalls: u64,
    /// Kernel datagrams sent, and protocol datagrams carried per kernel
    /// datagram (the coalescing headline).
    kernel_sent: u64,
    datagrams_per_kernel_datagram: f64,
    /// Send syscalls per protocol datagram (the batching headline).
    syscalls_per_datagram: f64,
    datagrams_per_send_syscall: f64,
    datagrams_per_recv_syscall: f64,
    /// Kernel datagrams received per slot of `recvmmsg` capacity offered.
    recv_batch_occupancy: f64,
    syscalls_per_iteration: f64,
    /// Shard event-loop iterations, summed over `shards` shards.
    iterations: u64,
    shards: usize,
    /// Wall-clock of the whole run including setup and verification.
    wall_secs: f64,
    /// Datagrams received per second of the *live* window (stream +
    /// drain) — the runtime's throughput trajectory number.
    datagrams_per_sec: f64,
    avg_quality_percent: f64,
    /// Fault-injection and self-healing counters (all zero on a run
    /// without chaos and without real kernel trouble).
    recovery: RecoveryReport,
}

/// The reactor workload, shaped entirely by the cell.
fn reactor_config(cell: &ReactorCell) -> ClusterConfig {
    ClusterConfig {
        n: cell.n,
        gossip: GossipConfig::new(cell.fanout)
            .with_gossip_period(Duration::from_millis(cell.period_ms)),
        stream: StreamConfig {
            rate_bps: cell.rate_bps,
            packet_payload_bytes: cell.payload_bytes,
            window: WindowParams::new(cell.window.0, cell.window.1),
        },
        upload_cap_bps: Some(2_000_000),
        source_uncapped: true,
        max_backlog: Duration::from_secs(5),
        stream_duration: Duration::from_secs(cell.stream_secs),
        drain_duration: Duration::from_secs(cell.drain_secs),
        seed: 42,
        inject_loss: 0.0,
        crashes: Vec::new(),
        adversity: gossip_adversity::AdversitySpec::none(),
        joiner_bootstrap: gossip_udp::cluster::JoinerBootstrap::Tracker,
        telemetry: None,
    }
}

/// Runs one reactor cell, `repeat` times, keeping the run with the
/// highest live datagram rate. Unlike the simulator cells this runs in
/// real time: wall-clock ≈ stream + drain regardless of load, and the
/// number that tracks the runtime is datagrams moved per live second.
fn run_reactor(cell: &ReactorCell, repeat: u32) -> ReactorResult {
    run_reactor_config(cell, &reactor_config(cell), repeat)
}

/// [`run_reactor`] with an explicit configuration, so gating modes can
/// attach an adversity spec (e.g. the chaos plan) to the cell's workload.
fn run_reactor_config(cell: &ReactorCell, config: &ClusterConfig, repeat: u32) -> ReactorResult {
    let mut best: Option<ReactorResult> = None;
    for _ in 0..repeat {
        let start = Instant::now();
        let report = ReactorCluster::run(config.clone()).expect("reactor cluster runs");
        let wall_secs = start.elapsed().as_secs_f64();
        let datagrams_sent: u64 = report.nodes.iter().map(|r| r.sent_msgs).sum();
        let datagrams_recv: u64 = report.nodes.iter().map(|r| r.recv_msgs).sum();
        let decode_errors: u64 = report.nodes.iter().map(|r| r.decode_errors).sum();
        let io = report.io_stats().unwrap_or_default();
        let live_secs = (cell.stream_secs + cell.drain_secs) as f64;
        let sample = ReactorResult {
            label: cell.label.to_string(),
            n: cell.n,
            fanout: cell.fanout,
            period_ms: cell.period_ms,
            rate_bps: cell.rate_bps,
            stream_secs: cell.stream_secs,
            drain_secs: cell.drain_secs,
            datagrams_sent,
            datagrams_recv,
            decode_errors,
            frame_errors: io.frame_errors,
            mmsg: gossip_reactor::mmsg_active(),
            send_syscalls: io.send_syscalls,
            recv_syscalls: io.recv_syscalls,
            kernel_sent: io.kernel_sent,
            datagrams_per_kernel_datagram: io.datagrams_per_kernel_datagram().unwrap_or(0.0),
            syscalls_per_datagram: io.syscalls_per_datagram().unwrap_or(0.0),
            datagrams_per_send_syscall: io.datagrams_per_send_syscall().unwrap_or(0.0),
            datagrams_per_recv_syscall: io.datagrams_per_recv_syscall().unwrap_or(0.0),
            recv_batch_occupancy: io.recv_batch_occupancy().unwrap_or(0.0),
            syscalls_per_iteration: io.syscalls_per_iteration().unwrap_or(0.0),
            iterations: io.iterations,
            shards: report.shard_stats.len(),
            wall_secs,
            datagrams_per_sec: datagrams_recv as f64 / live_secs,
            avg_quality_percent: report.quality.average_quality_percent(Duration::MAX),
            recovery: report.recovery(),
        };
        if best.as_ref().is_none_or(|b| sample.datagrams_per_sec > b.datagrams_per_sec) {
            best = Some(sample);
        }
    }
    best.expect("repeat >= 1 produced a sample")
}

fn reactor_json(r: &ReactorResult) -> String {
    format!(
        "{{ \"label\": \"{}\", \"n\": {}, \"fanout\": {}, \"period_ms\": {}, \"rate_bps\": {}, \"stream_secs\": {}, \"drain_secs\": {}, \"mmsg\": {}, \"datagrams_sent\": {}, \"datagrams_recv\": {}, \"decode_errors\": {}, \"frame_errors\": {}, \"send_syscalls\": {}, \"recv_syscalls\": {}, \"kernel_sent\": {}, \"datagrams_per_kernel_datagram\": {:.2}, \"syscalls_per_datagram\": {:.4}, \"datagrams_per_send_syscall\": {:.1}, \"datagrams_per_recv_syscall\": {:.1}, \"recv_batch_occupancy\": {:.3}, \"syscalls_per_iteration\": {:.2}, \"iterations\": {}, \"iterations_per_datagram\": {:.3}, \"wall_secs\": {:.4}, \"datagrams_per_sec\": {:.0}, \"avg_quality_percent\": {:.1}, \"faults_injected\": {}, \"transients_recovered\": {}, \"send_backoffs\": {}, \"datagrams_shed\": {}, \"socket_rebinds\": {}, \"backend_downgrades\": {}, \"encode_errors\": {}, \"aborted_shards\": {} }}",
        r.label,
        r.n,
        r.fanout,
        r.period_ms,
        r.rate_bps,
        r.stream_secs,
        r.drain_secs,
        r.mmsg,
        r.datagrams_sent,
        r.datagrams_recv,
        r.decode_errors,
        r.frame_errors,
        r.send_syscalls,
        r.recv_syscalls,
        r.kernel_sent,
        r.datagrams_per_kernel_datagram,
        r.syscalls_per_datagram,
        r.datagrams_per_send_syscall,
        r.datagrams_per_recv_syscall,
        r.recv_batch_occupancy,
        r.syscalls_per_iteration,
        r.iterations,
        r.iterations as f64 / r.datagrams_recv.max(1) as f64,
        r.wall_secs,
        r.datagrams_per_sec,
        r.avg_quality_percent,
        r.recovery.faults_injected,
        r.recovery.transients_recovered,
        r.recovery.send_backoffs,
        r.recovery.datagrams_shed,
        r.recovery.socket_rebinds,
        r.recovery.backend_downgrades,
        r.recovery.encode_errors,
        r.recovery.aborted_shards,
    )
}

/// The "alive and sane" health checks every reactor cell must clear:
/// traffic flowed, framing stayed intact end to end, the cluster actually
/// streamed, and the shard loops slept between wakes instead of spinning.
/// Shared between the gating `--reactor-smoke` mode and the trajectory
/// run's cells; `coalescing_floor` is the fewest protocol datagrams per
/// kernel datagram the cell's load must reach (`None`: too light to say).
fn reactor_health(r: &ReactorResult, coalescing_floor: Option<f64>) -> Vec<String> {
    let mut failures = Vec::new();
    // Structural too: a wake sends everything it produced as one kernel
    // datagram per destination address, and wakes are a quantum apart at
    // least, so the ratio is set by the cell's offered load over its
    // handful of addresses. A slow box only widens the wakes and raises it.
    if coalescing_floor.is_some_and(|floor| r.datagrams_per_kernel_datagram < floor) {
        failures.push(format!(
            "{:.2} datagrams per kernel datagram: sends are not grouped by destination",
            r.datagrams_per_kernel_datagram
        ));
    }
    // Structural, not a timing threshold: a shard dwells out one wake
    // quantum per iteration unless its last drain left backlog, and every
    // such undwelt re-loop follows a data-bearing receive call. Sleeps only
    // ever overshoot, so a busy box lowers the count; a loop that spins
    // (the pre-`ppoll` cadence ran up to ≈330 k iterations per
    // shard-second) lands 4–17× past the bound on the tracked cells.
    let quantum = gossip_reactor::mmsg::WAKE_QUANTUM.as_secs_f64();
    let wakes = (1.5 * r.shards as f64 * r.wall_secs / quantum) as u64;
    let bound = wakes + r.recv_syscalls + r.recovery.backend_downgrades;
    if r.iterations > bound {
        failures.push(format!(
            "{} loop iterations on {} shards in {:.1} s (bound {bound}): a shard loop is spinning",
            r.iterations, r.shards, r.wall_secs
        ));
    }
    if r.datagrams_recv == 0 {
        failures.push("no datagrams were received".to_string());
    }
    if r.decode_errors > 0 {
        failures.push(format!("{} malformed datagrams on loopback", r.decode_errors));
    }
    if r.frame_errors > 0 {
        failures.push(format!("{} malformed kernel datagrams (broken framing)", r.frame_errors));
    }
    if r.avg_quality_percent < 50.0 {
        failures.push(format!("average quality {:.1}% below 50%", r.avg_quality_percent));
    }
    failures
}

/// Fewest protocol datagrams per kernel datagram a tracked reactor cell
/// may show. Measured 2.7–3.4 on the two trajectory cells and 2.3 on the
/// `--smoke` cell with destination-grouped packing; packing only
/// consecutive same-destination releases read 1.1–1.2 on the same cells.
const TRAJECTORY_COALESCING_FLOOR: f64 = 1.5;

/// The tracked reactor cells. The runs are wall-clock bound (stream +
/// drain), so the cells stay short. Two regimes: `reactor_n1000` runs a
/// *hot* gossip geometry (50 ms rounds, fanout 6 — double the round rate
/// the seed ran) that the kernel-batched I/O path exists to sustain, and
/// `reactor_n4000` trades stream rate for population, checking that 4000
/// live nodes in one process stay healthy.
fn reactor_cells(smoke: bool) -> &'static [ReactorCell] {
    if smoke {
        &[ReactorCell {
            label: "reactor_n256_smoke",
            n: 256,
            fanout: 5,
            period_ms: 100,
            rate_bps: 300_000,
            payload_bytes: 1000,
            window: (20, 4),
            stream_secs: 3,
            drain_secs: 2,
        }]
    } else {
        &[
            ReactorCell {
                label: "reactor_n1000",
                n: 1000,
                fanout: 4,
                period_ms: 150,
                rate_bps: 150_000,
                payload_bytes: 1000,
                window: (20, 4),
                stream_secs: 6,
                drain_secs: 3,
            },
            ReactorCell {
                label: "reactor_n4000",
                n: 4000,
                fanout: 5,
                period_ms: 1000,
                rate_bps: 16_000,
                payload_bytes: 500,
                window: (8, 3),
                stream_secs: 8,
                drain_secs: 4,
            },
        ]
    }
}

/// Runs every cell, printing its measurement, I/O ratios and health
/// verdict. Health failures warn only, like the delta guard: trajectory
/// runs happen on noisy boxes, and the gating mode is `--reactor-smoke`.
fn run_reactor_cells(cells: &[ReactorCell], repeat: u32) -> Vec<ReactorResult> {
    let mut reactors = Vec::with_capacity(cells.len());
    for cell in cells {
        eprintln!(
            "perfbench: reactor {} (n={}, fanout {}, {} ms rounds, {} kbps, {}s stream + {}s \
             drain, real time, {})",
            cell.label,
            cell.n,
            cell.fanout,
            cell.period_ms,
            cell.rate_bps / 1000,
            cell.stream_secs,
            cell.drain_secs,
            if gossip_reactor::mmsg_active() { "sendmmsg/recvmmsg" } else { "portable fallback" },
        );
        let reactor = run_reactor(cell, repeat);
        eprintln!(
            "  {:.3} s wall, {} datagrams received ({:.0}/s live), quality {:.1}%",
            reactor.wall_secs,
            reactor.datagrams_recv,
            reactor.datagrams_per_sec,
            reactor.avg_quality_percent,
        );
        eprintln!(
            "  {:.2} datagrams/kernel datagram, {:.4} send syscalls/datagram ({:.1} \
             datagrams/sendmmsg, {:.1}/recvmmsg, {:.0}% recv occupancy, {:.2} syscalls/iteration)",
            reactor.datagrams_per_kernel_datagram,
            reactor.syscalls_per_datagram,
            reactor.datagrams_per_send_syscall,
            reactor.datagrams_per_recv_syscall,
            reactor.recv_batch_occupancy * 100.0,
            reactor.syscalls_per_iteration,
        );
        let failures = reactor_health(&reactor, Some(TRAJECTORY_COALESCING_FLOOR));
        if failures.is_empty() {
            eprintln!("  health: ok");
        } else {
            for f in &failures {
                eprintln!("  ** WARNING: health check failed: {f} **");
            }
        }
        reactors.push(reactor);
    }
    reactors
}

/// One cross-process deployment cell: `processes` local `gossipd` child
/// processes split n between them, coordinated over the control socket.
/// The workload matches the reactor cells' protocol geometry so the
/// number is comparable — what it adds is real process boundaries: every
/// inter-slice datagram crosses the kernel between two address spaces.
struct DeployCell {
    label: &'static str,
    n: usize,
    processes: usize,
    stream_secs: u64,
    drain_secs: u64,
}

/// One deployment measurement, merged across all worker processes.
struct DeployResult {
    label: String,
    n: usize,
    processes: usize,
    stream_secs: u64,
    drain_secs: u64,
    /// Workers that delivered a report (dead ones synthesise dark nodes).
    reported: usize,
    datagrams_recv: u64,
    /// Wall-clock of the whole deployment including spawn and handshake.
    wall_secs: f64,
    /// Datagrams received per second of the live window (stream + drain)
    /// summed across every process — the deployment trajectory number.
    datagrams_per_sec: f64,
    avg_quality_percent: f64,
    /// Mean decodable-window fraction across every receiver of every
    /// process, from the merged report.
    completeness_percent: f64,
    windows_measured: u32,
    windows_verified: u64,
    degraded: bool,
    aborted_shards: usize,
}

/// Locates the `gossipd` worker binary: `GOSSIPD_BIN` wins, else the
/// sibling of this executable (the layout `cargo build` produces).
fn gossipd_binary() -> Option<std::path::PathBuf> {
    if let Ok(path) = std::env::var("GOSSIPD_BIN") {
        let path = std::path::PathBuf::from(path);
        return path.exists().then_some(path);
    }
    let me = std::env::current_exe().ok()?;
    let sibling = me.with_file_name(if cfg!(windows) { "gossipd.exe" } else { "gossipd" });
    sibling.exists().then_some(sibling)
}

/// The deployment spec a cell compiles to — the same TOML an operator
/// would feed `gossip-coord`.
fn deploy_toml(cell: &DeployCell) -> String {
    format!(
        "[cluster]\nn = {}\nfanout = 6\nperiod_ms = 100\nrate_kbps = 200\npayload_bytes = 500\n\
         data_packets = 10\nparity_packets = 3\nupload_cap_kbps = 0\nstream_secs = {}\n\
         drain_secs = {}\nseed = 42\n\n[deploy]\nprocesses = {}\nshards_per_process = 1\n\
         sockets_per_shard = 2\nstart_delay_ms = 400\n",
        cell.n, cell.stream_secs, cell.drain_secs, cell.processes,
    )
}

/// Runs one deployment cell end to end: spawn the workers, stream, merge.
/// Real child processes in real time — no repeat loop; the run is
/// wall-clock bound like the reactor cells but pays process spawns too.
fn run_deploy(cell: &DeployCell, gossipd: &std::path::Path) -> DeployResult {
    let start = Instant::now();
    let aggregate = run_coordinator(&CoordOptions {
        config_text: deploy_toml(cell),
        gossipd: Some(gossipd.to_path_buf()),
        spawn_local: true,
    })
    .expect("deployment runs");
    let wall_secs = start.elapsed().as_secs_f64();
    let report = &aggregate.report;
    let datagrams_recv: u64 = report.nodes.iter().map(|r| r.recv_msgs).sum();
    let live_secs = (cell.stream_secs + cell.drain_secs) as f64;
    DeployResult {
        label: cell.label.to_string(),
        n: cell.n,
        processes: cell.processes,
        stream_secs: cell.stream_secs,
        drain_secs: cell.drain_secs,
        reported: aggregate.outcomes.iter().filter(|o| o.reported).count(),
        datagrams_recv,
        wall_secs,
        datagrams_per_sec: datagrams_recv as f64 / live_secs,
        avg_quality_percent: report.quality.average_quality_percent(Duration::MAX),
        completeness_percent: 100.0 * aggregate.completeness_of(0, cell.n as u32),
        windows_measured: report.windows_measured,
        windows_verified: report.windows_verified,
        degraded: report.degraded,
        aborted_shards: report.aborted_shards,
    }
}

fn deploy_json(r: &DeployResult) -> String {
    format!(
        "{{ \"label\": \"{}\", \"n\": {}, \"processes\": {}, \"stream_secs\": {}, \"drain_secs\": {}, \"reported\": {}, \"datagrams_recv\": {}, \"wall_secs\": {:.4}, \"datagrams_per_sec\": {:.0}, \"avg_quality_percent\": {:.1}, \"completeness_percent\": {:.1}, \"windows_measured\": {}, \"windows_verified\": {}, \"degraded\": {}, \"aborted_shards\": {} }}",
        r.label,
        r.n,
        r.processes,
        r.stream_secs,
        r.drain_secs,
        r.reported,
        r.datagrams_recv,
        r.wall_secs,
        r.datagrams_per_sec,
        r.avg_quality_percent,
        r.completeness_percent,
        r.windows_measured,
        r.windows_verified,
        r.degraded,
        r.aborted_shards,
    )
}

/// The "every process held its slice" health checks a deployment cell
/// must clear: all workers reported, the merged report is clean, traffic
/// crossed process boundaries, and the stream byte-verified end to end.
fn deploy_health(r: &DeployResult) -> Vec<String> {
    let mut failures = Vec::new();
    if r.reported < r.processes {
        failures.push(format!("only {}/{} workers reported", r.reported, r.processes));
    }
    if r.degraded {
        failures.push("merged report marked degraded".to_string());
    }
    if r.aborted_shards > 0 {
        failures.push(format!("{} shards aborted inside the workers", r.aborted_shards));
    }
    if r.datagrams_recv == 0 {
        failures.push("no datagrams were received".to_string());
    }
    if r.avg_quality_percent < 50.0 {
        failures.push(format!("average quality {:.1}% below 50%", r.avg_quality_percent));
    }
    if r.completeness_percent < 70.0 {
        failures.push(format!("completeness {:.1}% below 70%", r.completeness_percent));
    }
    if r.windows_verified == 0 {
        failures.push("no windows byte-verified in the merged report".to_string());
    }
    failures
}

/// The tracked deployment cell: 3 `gossipd` processes hosting n = 96. The
/// `_smoke` suffix rule matches the reactor cells — a smoke run never
/// compares its smaller workload against a full report's number.
fn deploy_cell(smoke: bool) -> DeployCell {
    if smoke {
        DeployCell {
            label: "gossipd_n3proc_smoke",
            n: 48,
            processes: 3,
            stream_secs: 3,
            drain_secs: 2,
        }
    } else {
        DeployCell { label: "gossipd_n3proc", n: 96, processes: 3, stream_secs: 4, drain_secs: 2 }
    }
}

/// Runs the tracked deployment cell, printing its measurement and health
/// verdict (warn-only, like the reactor cells — the gating mode is
/// `--deploy-smoke`). Returns `None`, with a loud warning, when no
/// `gossipd` binary is available: a partial build must not silently
/// shrink the trajectory report.
fn run_deploy_cell(cell: &DeployCell) -> Option<DeployResult> {
    let Some(gossipd) = gossipd_binary() else {
        eprintln!(
            "perfbench: ** WARNING: no gossipd binary (build gossip-deploy or set GOSSIPD_BIN) \
             — skipping deploy cell {} **",
            cell.label,
        );
        return None;
    };
    eprintln!(
        "perfbench: deploy {} ({} gossipd processes, n={}, {}s stream + {}s drain, real time)",
        cell.label, cell.processes, cell.n, cell.stream_secs, cell.drain_secs,
    );
    let result = run_deploy(cell, &gossipd);
    eprintln!(
        "  {:.3} s wall, {} datagrams received ({:.0}/s live), quality {:.1}%, \
         completeness {:.1}%, {}/{} workers reported",
        result.wall_secs,
        result.datagrams_recv,
        result.datagrams_per_sec,
        result.avg_quality_percent,
        result.completeness_percent,
        result.reported,
        result.processes,
    );
    let failures = deploy_health(&result);
    if failures.is_empty() {
        eprintln!("  health: ok");
    } else {
        for f in &failures {
            eprintln!("  ** WARNING: health check failed: {f} **");
        }
    }
    Some(result)
}

fn run_scenario(s: &Scenario, seed: u64, repeat: u32) -> RunSample {
    let mut best: Option<RunSample> = None;
    for _ in 0..repeat {
        let start = Instant::now();
        let result = s.run();
        let wall_secs = start.elapsed().as_secs_f64();
        let sample = RunSample {
            seed,
            wall_secs,
            events: result.events_processed,
            peak_queue: result.peak_queue,
        };
        if best.as_ref().is_none_or(|b| sample.wall_secs < b.wall_secs) {
            best = Some(sample);
        }
    }
    best.expect("repeat >= 1 produced a sample")
}

/// Pulls labelled per-second rates out of a previous report: every JSON
/// object that carries a `"label"` has its rate recorded under that label
/// (`events_per_sec` for simulator cells — the pinned total is labelled
/// `pinned` — and `datagrams_per_sec` for reactor cells). A real JSON
/// parser would be overkill for a file this binary itself wrote.
fn parse_previous(report: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in report.lines() {
        let line = line.trim();
        let Some(rest) = line.split("\"label\": \"").nth(1) else {
            continue;
        };
        let Some(label) = rest.split('"').next() else {
            continue;
        };
        let Some(tail) = line
            .split("\"events_per_sec\": ")
            .nth(1)
            .or_else(|| line.split("\"datagrams_per_sec\": ").nth(1))
        else {
            continue;
        };
        let num: String = tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((label.to_string(), v));
        }
    }
    out
}

fn delta_line(label: &str, now: f64, previous: &[(String, f64)]) -> String {
    let Some((_, prev)) = previous.iter().find(|(l, _)| l == label) else {
        return format!("  {label}: {now:.0} events/s (no previous record)");
    };
    let delta_pct = (now / prev - 1.0) * 100.0;
    let mut line = format!("  {label}: {now:.0} events/s ({delta_pct:+.1}% vs {prev:.0})");
    if delta_pct < -REGRESSION_WARN_PCT {
        write!(line, "  ** WARNING: regression beyond {REGRESSION_WARN_PCT}% **").unwrap();
    }
    line
}

/// The gating CI mode: one small reactor cell, health-checked.
///
/// Exits non-zero when the run looks broken — a loopback n = 64 cluster
/// that cannot stream, or malformed datagrams on its shared sockets,
/// means the runtime (not the box) is at fault. Thresholds are deliberately
/// lenient: this gates on "alive and sane", not on throughput.
fn reactor_smoke(out: &str) -> ! {
    eprintln!(
        "perfbench: gating reactor smoke (n=64, loopback, {})",
        if gossip_reactor::mmsg_active() { "sendmmsg/recvmmsg" } else { "portable fallback" },
    );
    let cell = ReactorCell {
        label: "reactor_n64_gate",
        n: 64,
        fanout: 5,
        period_ms: 100,
        rate_bps: 300_000,
        payload_bytes: 1000,
        window: (20, 4),
        stream_secs: 3,
        drain_secs: 2,
    };
    let result = run_reactor(&cell, 1);
    eprintln!(
        "  {:.3} s wall, {} datagrams received ({:.0}/s live), quality {:.1}%, {} malformed, \
         {:.3} send syscalls/datagram",
        result.wall_secs,
        result.datagrams_recv,
        result.datagrams_per_sec,
        result.avg_quality_percent,
        result.decode_errors,
        result.syscalls_per_datagram,
    );
    let json = format!(
        "{{\n  \"bench\": \"reactor_smoke\",\n  \"reactor\": {}\n}}\n",
        reactor_json(&result)
    );
    std::fs::write(out, json).expect("write reactor smoke report");
    eprintln!("perfbench: wrote {out}");

    // At n = 64 a wake carries barely more than one datagram per address.
    let failures = reactor_health(&result, None);
    if failures.is_empty() {
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("perfbench: reactor smoke FAILED: {f}");
    }
    std::process::exit(1);
}

/// The `--chaos-smoke` workload: a steady drop/duplicate/reorder mix on
/// every datagram, an ENOBUFS burst through the stream midpoint, a
/// one-shot socket kill shortly after, and the batched syscalls vanishing
/// (`ENOSYS`) later still — every recovery path (backoff, retained retry,
/// re-bind, downgrade to the portable send/receive/wait) must engage in
/// one short run.
fn chaos_smoke_spec() -> AdversitySpec {
    AdversitySpec::none().with_chaos(ChaosSpec {
        drop: 0.02,
        duplicate: 0.02,
        reorder: 0.05,
        enobufs_at: Some(Duration::from_millis(1000)),
        enobufs_for: Duration::from_millis(400),
        kill_socket_at: Some(Duration::from_millis(1600)),
        enosys_at: Some(Duration::from_millis(2200)),
        ..ChaosSpec::default()
    })
}

/// The "hurt but healed" checks of the chaos gate. Deliberately NOT
/// [`reactor_health`]: injected truncation/duplication legitimately
/// produces frame and decode errors on the receive side, so this gate
/// checks instead that faults were actually injected, every recovery
/// mechanism fired, no shard aborted, and the cluster still streamed.
fn chaos_health(r: &ReactorResult) -> Vec<String> {
    let mut failures = Vec::new();
    if r.datagrams_recv == 0 {
        failures.push("no datagrams were received".to_string());
    }
    if r.avg_quality_percent < 50.0 {
        failures.push(format!("average quality {:.1}% below 50%", r.avg_quality_percent));
    }
    if r.recovery.aborted_shards > 0 {
        failures.push(format!("{} shards aborted mid-run", r.recovery.aborted_shards));
    }
    if r.recovery.faults_injected == 0 {
        failures.push("no faults injected (the chaos plan never engaged)".to_string());
    }
    if r.recovery.send_backoffs == 0 {
        failures.push("no send backoffs (the ENOBUFS burst must trigger them)".to_string());
    }
    if r.recovery.socket_rebinds == 0 {
        failures.push("no socket re-binds (the socket kill must force one)".to_string());
    }
    if r.mmsg && r.recovery.backend_downgrades == 0 {
        failures.push("no backend downgrade (the ENOSYS must force one)".to_string());
    }
    failures
}

/// The gating CI mode for the chaos/recovery layer: the n = 64 loopback
/// cell under the pinned chaos plan (see [`chaos_smoke_spec`]),
/// health-checked by [`chaos_health`]. Runs on both I/O backends in CI
/// (the second leg pins the fallback via `GOSSIP_REACTOR_NO_MMSG`).
fn chaos_smoke(out: &str) -> ! {
    eprintln!(
        "perfbench: gating chaos smoke (n=64, loopback, drop+dup+reorder + ENOBUFS burst + \
         socket kill + ENOSYS, {})",
        if gossip_reactor::mmsg_active() { "sendmmsg/recvmmsg" } else { "portable fallback" },
    );
    let cell = ReactorCell {
        label: "reactor_n64_chaos",
        n: 64,
        fanout: 5,
        period_ms: 100,
        rate_bps: 300_000,
        payload_bytes: 1000,
        window: (20, 4),
        stream_secs: 3,
        drain_secs: 2,
    };
    let mut config = reactor_config(&cell);
    config.adversity = chaos_smoke_spec();
    let result = run_reactor_config(&cell, &config, 1);
    eprintln!(
        "  {:.3} s wall, {} datagrams received ({:.0}/s live), quality {:.1}%",
        result.wall_secs,
        result.datagrams_recv,
        result.datagrams_per_sec,
        result.avg_quality_percent,
    );
    eprintln!(
        "  recovery: {} injected, {} transients recovered, {} backoffs, {} shed, {} re-binds, \
         {} downgrades, {} aborted shards",
        result.recovery.faults_injected,
        result.recovery.transients_recovered,
        result.recovery.send_backoffs,
        result.recovery.datagrams_shed,
        result.recovery.socket_rebinds,
        result.recovery.backend_downgrades,
        result.recovery.aborted_shards,
    );
    let json = format!(
        "{{\n  \"bench\": \"chaos_smoke\",\n  \"reactor\": {}\n}}\n",
        reactor_json(&result)
    );
    std::fs::write(out, json).expect("write chaos smoke report");
    eprintln!("perfbench: wrote {out}");

    let failures = chaos_health(&result);
    if failures.is_empty() {
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("perfbench: chaos smoke FAILED: {f}");
    }
    std::process::exit(1);
}

/// The gating CI mode for the adversity subsystem: a small catastrophic +
/// flash-crowd run on the (deterministic) simulator, health-checked.
///
/// n = 60, `X = 1`, half the nodes crash at the stream midpoint and a
/// 15-node flash crowd boots shortly after: the gate asserts the paper's
/// robustness shape — survivors keep streaming — and the new subsystem's
/// headline behaviour — joiners reach non-trivial completeness. Being a
/// simulation, the run is bit-reproducible: a failure means the code
/// changed behaviour, never that the box was busy.
fn adversity_smoke(out: &str) -> ! {
    eprintln!("perfbench: gating adversity smoke (n=60, 50% crash + 15-node flash crowd, X=1)");
    let fanout = 6; // ~ln(60) + 2
    let spec = AdversitySpec::none()
        .with_catastrophic(Duration::from_secs(20), 0.5)
        .with_flash_crowd(Duration::from_secs(25), 15, Duration::from_secs(2));
    let scenario = Scenario::at_scale(Scale::Quick, fanout)
        .with_seed(7)
        .with_gossip(GossipConfig::new(fanout).with_refresh_rounds(Some(1)))
        .with_adversity(spec);
    let start = Instant::now();
    let result = scenario.run();
    let wall_secs = start.elapsed().as_secs_f64();

    let survivor_quality = result.quality.average_quality_percent(Duration::MAX);
    let survivors = result.quality.nodes().len();
    let (joiner_quality, joiners) = result
        .joiner_quality
        .as_ref()
        .map_or((0.0, 0), |j| (j.average_quality_percent(Duration::MAX), j.nodes().len()));
    eprintln!(
        "  {wall_secs:.3} s wall, {} events; {survivors} survivors at {survivor_quality:.1}% \
         complete, {joiners} joiners at {joiner_quality:.1}% catch-up",
        result.events_processed,
    );
    let json = format!(
        "{{\n  \"bench\": \"adversity_smoke\",\n  \"scenario\": {{ \"n\": 60, \"fanout\": {fanout}, \"crash_fraction\": 0.5, \"flash_crowd\": 15, \"x\": 1 }},\n  \"wall_secs\": {wall_secs:.4},\n  \"events\": {},\n  \"survivors\": {survivors},\n  \"survivor_quality_percent\": {survivor_quality:.1},\n  \"joiners\": {joiners},\n  \"joiner_quality_percent\": {joiner_quality:.1}\n}}\n",
        result.events_processed,
    );
    std::fs::write(out, json).expect("write adversity smoke report");
    eprintln!("perfbench: wrote {out}");

    let mut failures = Vec::new();
    if survivor_quality < 60.0 {
        failures.push(format!("survivor quality {survivor_quality:.1}% below 60%"));
    }
    if joiners != 15 {
        failures.push(format!("{joiners} joiners measured, expected the whole 15-node wave"));
    }
    if joiner_quality < 40.0 {
        failures.push(format!("joiner catch-up {joiner_quality:.1}% below 40%"));
    }
    if failures.is_empty() {
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("perfbench: adversity smoke FAILED: {f}");
    }
    std::process::exit(1);
}

/// The gating CI mode for the adversarial-resilience layer: n = 60 on the
/// (deterministic) simulator with 20 % of the receivers serve-corrupting
/// every payload they relay, validate-before-relay defenses on.
///
/// The gate asserts the defense headline — honest receivers keep
/// streaming — and that the defense actually engaged: corruptions were
/// detected and re-requested from alternate proposers. Being a
/// simulation, the run is bit-reproducible: a failure means the code
/// changed behaviour, never that the box was busy.
fn byzantine_smoke(out: &str) -> ! {
    eprintln!("perfbench: gating byzantine smoke (n=60, 20% serve-corruptors, defenses on, X=1)");
    let fanout = 6; // ~ln(60) + 2
    let spec = AdversitySpec::none().with_byzantine(0.2, ByzantineMix::serve_corruptors());
    let scenario = Scenario::at_scale(Scale::Quick, fanout)
        .with_seed(7)
        .with_gossip(GossipConfig::new(fanout).with_refresh_rounds(Some(1)))
        .with_adversity(spec.clone());
    let start = Instant::now();
    let result = scenario.run();
    let wall_secs = start.elapsed().as_secs_f64();

    // No crashes in this spec, so quality index i is node i + 1;
    // recompiling the spec (deterministic) recovers who corrupts.
    let compiled = spec.compile(scenario.n, scenario.seed);
    let honest: Vec<f64> = result
        .quality
        .nodes()
        .iter()
        .enumerate()
        .filter(|(i, _)| compiled.profiles[i + 1].byzantine.is_none())
        .map(|(_, q)| 100.0 * q.complete_fraction())
        .collect();
    let honest_quality = honest.iter().sum::<f64>() / honest.len() as f64;
    let detected = result.protocol.corrupted_events_detected;
    let rerequests = result.protocol.corrupt_rerequests;
    let demoted = result.protocol.peers_demoted;
    eprintln!(
        "  {wall_secs:.3} s wall, {} events; {} honest receivers at {honest_quality:.1}% \
         complete; {detected} corruptions detected, {rerequests} re-requested, {demoted} \
         peers demoted",
        result.events_processed,
        honest.len(),
    );
    let json = format!(
        "{{\n  \"bench\": \"byzantine_smoke\",\n  \"scenario\": {{ \"n\": 60, \"fanout\": {fanout}, \"byzantine_fraction\": 0.2, \"mix\": \"serve_corrupt\", \"x\": 1 }},\n  \"wall_secs\": {wall_secs:.4},\n  \"events\": {},\n  \"honest_receivers\": {},\n  \"honest_quality_percent\": {honest_quality:.1},\n  \"corruptions_detected\": {detected},\n  \"corrupt_rerequests\": {rerequests},\n  \"peers_demoted\": {demoted}\n}}\n",
        result.events_processed,
        honest.len(),
    );
    std::fs::write(out, json).expect("write byzantine smoke report");
    eprintln!("perfbench: wrote {out}");

    let mut failures = Vec::new();
    if honest_quality < 60.0 {
        failures.push(format!("honest quality {honest_quality:.1}% below 60%"));
    }
    if detected == 0 {
        failures.push("no corruptions detected (20% corruptors must trip the checksum)".into());
    }
    if rerequests == 0 {
        failures.push("no corrupt re-requests (detected ids must be re-pulled)".into());
    }
    if failures.is_empty() {
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("perfbench: byzantine smoke FAILED: {f}");
    }
    std::process::exit(1);
}

/// The gating CI mode for the deployment subsystem: 3 local `gossipd`
/// child processes hosting n = 48 between them, coordinated, merged and
/// health-checked by [`deploy_health`].
///
/// Exits non-zero when the deployment looks broken — a worker that never
/// reports, a degraded or unverified merged report, or a cluster that
/// cannot stream across process boundaries on loopback means the deploy
/// layer (not the box) is at fault.
fn deploy_smoke(out: &str) -> ! {
    let cell = DeployCell {
        label: "gossipd_n3proc_gate",
        n: 48,
        processes: 3,
        stream_secs: 3,
        drain_secs: 2,
    };
    eprintln!(
        "perfbench: gating deploy smoke ({} gossipd processes, n={}, loopback)",
        cell.processes, cell.n,
    );
    let Some(gossipd) = gossipd_binary() else {
        eprintln!(
            "perfbench: deploy smoke FAILED: no gossipd binary (build gossip-deploy or set \
             GOSSIPD_BIN)"
        );
        std::process::exit(1);
    };
    let result = run_deploy(&cell, &gossipd);
    eprintln!(
        "  {:.3} s wall, {} datagrams received ({:.0}/s live), quality {:.1}%, \
         completeness {:.1}%, {}/{} workers reported",
        result.wall_secs,
        result.datagrams_recv,
        result.datagrams_per_sec,
        result.avg_quality_percent,
        result.completeness_percent,
        result.reported,
        result.processes,
    );
    let json =
        format!("{{\n  \"bench\": \"deploy_smoke\",\n  \"deploy\": {}\n}}\n", deploy_json(&result));
    std::fs::write(out, json).expect("write deploy smoke report");
    eprintln!("perfbench: wrote {out}");

    let failures = deploy_health(&result);
    if failures.is_empty() {
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("perfbench: deploy smoke FAILED: {f}");
    }
    std::process::exit(1);
}

/// Sums one metric family (name without labels) over a scrape's samples.
fn scrape_family_sum(samples: &[(String, f64)], family: &str) -> f64 {
    let prefix = format!("{family}{{");
    samples
        .iter()
        .filter(|(n, _)| n.as_str() == family || n.starts_with(&prefix))
        .map(|(_, v)| v)
        .sum()
}

/// The gating CI mode for the telemetry layer: an n = 64 reactor run with
/// live metrics on, scraped **mid-stream** — twice, a second apart — over
/// its real TCP endpoint.
///
/// Exits non-zero when observability is broken: the endpoint does not
/// answer or does not parse, the datagram counters are zero or frozen
/// between the two scrapes, or the finished run's report carries no
/// snapshot series.
fn telemetry_smoke(out: &str) -> ! {
    eprintln!("perfbench: gating telemetry smoke (n=64, loopback, live mid-run scrapes)");
    let cell = ReactorCell {
        label: "reactor_n64_telemetry",
        n: 64,
        fanout: 5,
        period_ms: 100,
        rate_bps: 300_000,
        payload_bytes: 1000,
        window: (20, 4),
        stream_secs: 3,
        drain_secs: 2,
    };
    let mut config = reactor_config(&cell);
    config.telemetry = Some(gossip_telemetry::TelemetryConfig {
        sample_period: std::time::Duration::from_millis(100),
        ..gossip_telemetry::TelemetryConfig::default()
    });
    let host =
        NodeHost::bind(config.clone(), &ReactorOptions::default(), None).expect("host binds");
    let scrape_addr = host.telemetry_addr().expect("telemetry is enabled");
    let addresses: Arc<Vec<std::net::SocketAddr>> =
        Arc::new(host.local_addresses().iter().map(|&(_, addr)| addr).collect());
    let run_for = ClusterClock::to_std(config.stream_duration + config.drain_duration);
    let stop = Arc::new(AtomicBool::new(false));
    let runner =
        std::thread::spawn(move || host.run(addresses, ClusterClock::start(), stop, run_for));

    std::thread::sleep(std::time::Duration::from_millis(1200));
    let first = gossip_telemetry::scrape(scrape_addr);
    std::thread::sleep(std::time::Duration::from_millis(1200));
    let second = gossip_telemetry::scrape(scrape_addr);
    let outcome = runner.join().expect("runner thread").expect("reactor run completes");

    let mut failures = Vec::new();
    let recv_family = "gossip_shard_datagrams_received_total";
    let (first_recv, second_recv) = match (&first, &second) {
        (Ok(a), Ok(b)) => (scrape_family_sum(a, recv_family), scrape_family_sum(b, recv_family)),
        (a, b) => {
            if let Err(e) = a {
                failures.push(format!("first mid-run scrape failed: {e}"));
            }
            if let Err(e) = b {
                failures.push(format!("second mid-run scrape failed: {e}"));
            }
            (0.0, 0.0)
        }
    };
    if failures.is_empty() {
        if second_recv <= 0.0 {
            failures.push("mid-run datagram counters are zero".to_string());
        }
        if second_recv <= first_recv {
            failures.push(format!(
                "datagram counters frozen between scrapes ({first_recv} then {second_recv})"
            ));
        }
    }
    let series = outcome.telemetry.as_ref();
    let snapshots = series.map_or(0, |s| s.snapshots.len());
    let final_recv = series.map_or(0.0, |s| s.final_total(recv_family));
    if snapshots < 5 {
        failures.push(format!("only {snapshots} snapshots in the finished series"));
    }
    if final_recv <= 0.0 {
        failures.push("finished series records zero datagrams received".to_string());
    }
    eprintln!(
        "  scraped {scrape_addr} mid-run: {first_recv:.0} then {second_recv:.0} datagrams; \
         final series: {snapshots} snapshots, {final_recv:.0} datagrams"
    );
    let json = format!(
        "{{\n  \"bench\": \"telemetry_smoke\",\n  \"scrape_addr\": \"{scrape_addr}\",\n  \"first_scrape_datagrams\": {first_recv:.0},\n  \"second_scrape_datagrams\": {second_recv:.0},\n  \"series_snapshots\": {snapshots},\n  \"series_datagrams_recv\": {final_recv:.0},\n  \"aborted_shards\": {}\n}}\n",
        outcome.aborted_shards,
    );
    std::fs::write(out, json).expect("write telemetry smoke report");
    eprintln!("perfbench: wrote {out}");

    if failures.is_empty() {
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("perfbench: telemetry smoke FAILED: {f}");
    }
    std::process::exit(1);
}

/// The shard-loop phases, in the order the loop runs them.
const PROFILE_PHASES: [&str; 4] = ["timers", "ingress", "flush", "park"];

/// `--profile`: run the small reactor cell with telemetry on and write the
/// shard loop's phase wall-time as folded stacks (one line per phase,
/// sample unit = 1 µs) — `flamegraph.pl PROFILE_folded.txt > profile.svg`
/// renders where the loop's time actually goes.
fn profile(out: &str) -> ! {
    eprintln!("perfbench: profiling the shard loop (n=256, loopback, phase histograms)");
    let cell = ReactorCell {
        label: "reactor_n256_profile",
        n: 256,
        fanout: 5,
        period_ms: 100,
        rate_bps: 300_000,
        payload_bytes: 1000,
        window: (20, 4),
        stream_secs: 3,
        drain_secs: 2,
    };
    let mut config = reactor_config(&cell);
    config.telemetry = Some(gossip_telemetry::TelemetryConfig {
        sample_period: std::time::Duration::from_millis(100),
        ..gossip_telemetry::TelemetryConfig::default()
    });
    let report = ReactorCluster::run(config).expect("reactor cluster runs");
    let series = report.telemetry.expect("telemetry was enabled");
    let Some(last) = series.snapshots.last() else {
        eprintln!("perfbench: profile FAILED: the series holds no snapshots");
        std::process::exit(1);
    };
    let mut folded = String::new();
    let mut total_us = 0u64;
    for phase in PROFILE_PHASES {
        let needle = format!("phase=\"{phase}\"");
        let seconds: f64 = series
            .names
            .iter()
            .zip(&last.values)
            .filter(|(n, _)| {
                n.starts_with("gossip_shard_phase_seconds_sum{") && n.contains(&needle)
            })
            .map(|(_, &v)| v)
            .sum();
        let us = (seconds * 1e6) as u64;
        total_us += us;
        folded.push_str(&format!("gossip_reactor;shard_loop;{phase} {us}\n"));
    }
    std::fs::write(out, &folded).expect("write folded stacks");
    eprint!("{folded}");
    eprintln!("perfbench: wrote {out} ({:.3} s of shard-loop time)", total_us as f64 / 1e6);
    if total_us == 0 {
        eprintln!("perfbench: profile FAILED: the phase histograms recorded nothing");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `--trend-record`: append every labelled rate of the current report to
/// the append-only trend history, stamped with the checkout's commit.
fn trend_record(report_path: &str, trend_path: &str) -> ! {
    let report = match std::fs::read_to_string(report_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: cannot read {report_path}: {e} (run perfbench first)");
            std::process::exit(1);
        }
    };
    let rates = trend::extract_report_rates(&report);
    if rates.is_empty() {
        eprintln!("perfbench: {report_path} carries no labelled rates");
        std::process::exit(1);
    }
    let commit = trend::read_git_commit(std::path::Path::new("."));
    let recorded_unix = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut lines = String::new();
    for (label, metric, value) in &rates {
        let point = trend::TrendPoint {
            label: label.clone(),
            metric: metric.clone(),
            value: *value,
            commit: commit.clone(),
            recorded_unix,
        };
        lines.push_str(&point.to_line());
        lines.push('\n');
    }
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(trend_path)
        .expect("open trend history");
    file.write_all(lines.as_bytes()).expect("append trend points");
    eprintln!("perfbench: recorded {} points at commit {commit} into {trend_path}", rates.len());
    std::process::exit(0);
}

/// `--trend`: evaluate the recorded history with the sustained-regression
/// detector and exit non-zero if any cell regressed.
fn trend_check(trend_path: &str) -> ! {
    let text = match std::fs::read_to_string(trend_path) {
        Ok(t) => t,
        Err(_) => {
            eprintln!("perfbench: no {trend_path} yet — nothing to gate on");
            std::process::exit(0);
        }
    };
    let points = trend::parse_jsonl(&text);
    let cells = trend::evaluate(&points, trend::NOISE_FRACTION, trend::SUSTAIN, trend::MIN_HISTORY);
    if cells.is_empty() {
        eprintln!("perfbench: {trend_path} holds no parseable points");
        std::process::exit(0);
    }
    eprintln!(
        "perfbench: trend over {trend_path} ({} points, noise floor {:.0}%, sustain {}):",
        points.len(),
        trend::NOISE_FRACTION * 100.0,
        trend::SUSTAIN,
    );
    let mut regressions = 0usize;
    for cell in &cells {
        let verdict = if cell.regressed {
            regressions += 1;
            "REGRESSED"
        } else if cell.points < trend::MIN_HISTORY {
            "building history"
        } else {
            "ok"
        };
        eprintln!(
            "  {} [{}]: last {:.0} vs baseline {:.0} ({:+.1}%), {} points — {verdict}",
            cell.label, cell.metric, cell.last, cell.baseline, cell.delta_pct, cell.points,
        );
    }
    if regressions == 0 {
        std::process::exit(0);
    }
    eprintln!("perfbench: trend gate FAILED: {regressions} cell(s) sustained a regression");
    std::process::exit(1);
}

fn main() {
    let mut smoke = false;
    let mut gate_reactor = false;
    let mut gate_chaos = false;
    let mut gate_adversity = false;
    let mut gate_byzantine = false;
    let mut gate_deploy = false;
    let mut reactor_only = false;
    let mut deploy_only = false;
    let mut gate_telemetry = false;
    let mut profile_mode = false;
    let mut trend_mode = false;
    let mut trend_record_mode = false;
    let mut trend_file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut baseline: Option<f64> = None;
    let mut repeat: u32 = 1;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--reactor-smoke" => gate_reactor = true,
            "--chaos-smoke" => gate_chaos = true,
            "--adversity-smoke" => gate_adversity = true,
            "--byzantine-smoke" => gate_byzantine = true,
            "--deploy-smoke" => gate_deploy = true,
            "--telemetry-smoke" => gate_telemetry = true,
            "--profile" => profile_mode = true,
            "--trend" => trend_mode = true,
            "--trend-record" => trend_record_mode = true,
            "--trend-file" => trend_file = Some(args.next().expect("--trend-file requires a path")),
            "--reactor-only" => reactor_only = true,
            "--deploy-only" => deploy_only = true,
            "--out" => out = Some(args.next().expect("--out requires a path")),
            "--baseline" => {
                let v = args.next().expect("--baseline requires a number");
                baseline = Some(v.parse().expect("--baseline must be a number"));
            }
            "--repeat" => {
                let v = args.next().expect("--repeat requires a count");
                repeat = v.parse().expect("--repeat must be a positive integer");
                assert!(repeat >= 1, "--repeat must be a positive integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perfbench [--smoke] [--reactor-smoke] [--chaos-smoke] [--adversity-smoke] [--byzantine-smoke] [--deploy-smoke] [--telemetry-smoke] [--profile] [--trend] [--trend-record] [--trend-file PATH] [--reactor-only] [--deploy-only] [--out PATH] [--baseline EVENTS_PER_SEC] [--repeat N]"
                );
                std::process::exit(2);
            }
        }
    }

    // The gating smokes get their own default paths: they must never
    // clobber the tracked trajectory report with a smoke-only file.
    if gate_reactor {
        reactor_smoke(out.as_deref().unwrap_or("REACTOR_smoke.json"));
    }
    if gate_chaos {
        chaos_smoke(out.as_deref().unwrap_or("CHAOS_smoke.json"));
    }
    if gate_adversity {
        adversity_smoke(out.as_deref().unwrap_or("ADVERSITY_smoke.json"));
    }
    if gate_byzantine {
        byzantine_smoke(out.as_deref().unwrap_or("BYZANTINE_smoke.json"));
    }
    if gate_deploy {
        deploy_smoke(out.as_deref().unwrap_or("DEPLOY_smoke.json"));
    }
    if gate_telemetry {
        telemetry_smoke(out.as_deref().unwrap_or("TELEMETRY_smoke.json"));
    }
    if profile_mode {
        profile(out.as_deref().unwrap_or("PROFILE_folded.txt"));
    }
    if trend_record_mode {
        trend_record(
            out.as_deref().unwrap_or("BENCH_hotpath.json"),
            trend_file.as_deref().unwrap_or("BENCH_trend.jsonl"),
        );
    }
    if trend_mode {
        trend_check(trend_file.as_deref().unwrap_or("BENCH_trend.jsonl"));
    }
    if reactor_only {
        // Iteration mode for runtime work: just the reactor cells, no
        // simulator matrix, nothing written.
        run_reactor_cells(reactor_cells(smoke), repeat);
        std::process::exit(0);
    }
    if deploy_only {
        // Iteration mode for deploy work: just the tracked deployment
        // cell, its JSON line on stdout, nothing written.
        match run_deploy_cell(&deploy_cell(smoke)) {
            Some(result) => {
                println!("{}", deploy_json(&result));
                std::process::exit(0);
            }
            None => std::process::exit(1),
        }
    }
    let out = out.unwrap_or_else(|| String::from("BENCH_hotpath.json"));

    let previous = std::fs::read_to_string(&out).map(|s| parse_previous(&s)).unwrap_or_default();

    let seeds: &[u64] = if smoke { &[1] } else { &[1, 2, 3] };
    let label = if smoke { "smoke" } else { "full" };
    eprintln!("perfbench: pinned {label} scenario, seeds {seeds:?}");

    // Untimed warm-up at the *measured* geometry (CPU frequency ramp,
    // allocator arena growth, page faults, branch predictors): with a
    // smaller warm-up scenario the first timed seed pays the full-size
    // allocations inside its timed region and reads systematically slow.
    let mut warmup = pinned_scenario(smoke, 1);
    warmup.stream_duration = Duration::from_secs(if smoke { 5 } else { 15 });
    warmup.drain_duration = Duration::from_secs(5);
    let _ = warmup.run();

    let mut samples = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let scenario = pinned_scenario(smoke, seed);
        let sample = run_scenario(&scenario, seed, repeat);
        eprintln!(
            "  seed {seed}: {:.3} s wall, {} events ({:.0} events/s), peak queue {}",
            sample.wall_secs,
            sample.events,
            sample.events as f64 / sample.wall_secs,
            sample.peak_queue,
        );
        samples.push(sample);
    }

    let total_wall: f64 = samples.iter().map(|s| s.wall_secs).sum();
    let total_events: u64 = samples.iter().map(|s| s.events).sum();
    let peak_queue = samples.iter().map(|s| s.peak_queue).max().unwrap_or(0);
    let events_per_sec = total_events as f64 / total_wall;
    eprintln!(
        "perfbench: pinned total {:.3} s wall, {} events, {:.0} events/s",
        total_wall, total_events, events_per_sec
    );

    // The scale matrix: one seed per cell.
    let mut matrix: Vec<MatrixResult> = Vec::new();
    for (mlabel, n, membership, stream_secs, drain_secs, churn) in matrix_entries(smoke) {
        let fanout = scaled_fanout(n);
        let mut scenario = Scenario::at_scale(Scale::Full, fanout).with_seed(1);
        scenario.n = n;
        scenario.stream_duration = Duration::from_secs(stream_secs);
        scenario.drain_duration = Duration::from_secs(drain_secs);
        if membership == "cyclon" {
            scenario = scenario.with_membership(cyclon_mode());
        }
        if churn {
            scenario = scenario.with_adversity(matrix_churn_spec(n, stream_secs));
        }
        eprintln!("perfbench: matrix {mlabel} (n={n}, fanout={fanout}, {membership})");
        let sample = run_scenario(&scenario, 1, repeat);
        eprintln!(
            "  {:.3} s wall, {} events ({:.0} events/s), peak queue {}",
            sample.wall_secs,
            sample.events,
            sample.events as f64 / sample.wall_secs,
            sample.peak_queue,
        );
        matrix.push(MatrixResult {
            label: mlabel,
            n,
            fanout,
            membership,
            stream_secs,
            drain_secs,
            seed: 1,
            sample,
        });
    }

    // The live runtime: real datagrams through shared sockets.
    let reactors = run_reactor_cells(reactor_cells(smoke), repeat);

    // The deployed runtime: real datagrams between real processes.
    let deploys: Vec<DeployResult> = run_deploy_cell(&deploy_cell(smoke)).into_iter().collect();

    // Trajectory guard: per-scenario delta against the previous report.
    let pinned_label = if smoke { "pinned_smoke" } else { "pinned" };
    if previous.is_empty() {
        eprintln!("perfbench: no previous {out} — recording first trajectory point");
    } else {
        eprintln!("perfbench: delta vs previous {out}:");
        eprintln!("{}", delta_line(pinned_label, events_per_sec, &previous));
        for m in &matrix {
            let now = m.sample.events as f64 / m.sample.wall_secs;
            eprintln!("{}", delta_line(&m.label, now, &previous));
        }
        for r in &reactors {
            eprintln!("{}", delta_line(&r.label, r.datagrams_per_sec, &previous));
        }
        for d in &deploys {
            eprintln!("{}", delta_line(&d.label, d.datagrams_per_sec, &previous));
        }
    }

    let scenario = pinned_scenario(smoke, seeds[0]);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"hotpath\",\n");
    json.push_str(&format!(
        "  \"scenario\": {{ \"n\": {}, \"fanout\": {}, \"stream_secs\": {}, \"drain_secs\": {}, \"smoke\": {} }},\n",
        scenario.n,
        scenario.gossip.fanout,
        scenario.stream_duration.as_secs_f64() as u64,
        scenario.drain_duration.as_secs_f64() as u64,
        smoke,
    ));
    json.push_str(&format!("  \"simd\": {},\n", cfg!(feature = "simd")));
    json.push_str(&format!("  \"repeat\": {repeat},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"seed\": {}, \"wall_secs\": {:.4}, \"events\": {}, \"events_per_sec\": {:.0}, \"peak_queue\": {} }}{}\n",
            s.seed,
            s.wall_secs,
            s.events,
            s.events as f64 / s.wall_secs,
            s.peak_queue,
            comma,
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"total\": {{ \"label\": \"{pinned_label}\", \"wall_secs\": {:.4}, \"events\": {}, \"events_per_sec\": {:.0}, \"peak_queue\": {} }},\n",
        total_wall, total_events, events_per_sec, peak_queue,
    ));
    json.push_str("  \"scenarios\": [\n");
    for (i, m) in matrix.iter().enumerate() {
        let comma = if i + 1 < matrix.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"label\": \"{}\", \"n\": {}, \"fanout\": {}, \"membership\": \"{}\", \"stream_secs\": {}, \"drain_secs\": {}, \"seed\": {}, \"wall_secs\": {:.4}, \"events\": {}, \"events_per_sec\": {:.0}, \"peak_queue\": {} }}{}\n",
            m.label,
            m.n,
            m.fanout,
            m.membership,
            m.stream_secs,
            m.drain_secs,
            m.seed,
            m.sample.wall_secs,
            m.sample.events,
            m.sample.events as f64 / m.sample.wall_secs,
            m.sample.peak_queue,
            comma,
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"reactor\": [\n");
    for (i, r) in reactors.iter().enumerate() {
        let comma = if i + 1 < reactors.len() { "," } else { "" };
        json.push_str(&format!("    {}{}\n", reactor_json(r), comma));
    }
    json.push_str("  ],\n");
    json.push_str("  \"deploy\": [\n");
    for (i, d) in deploys.iter().enumerate() {
        let comma = if i + 1 < deploys.len() { "," } else { "" };
        json.push_str(&format!("    {}{}\n", deploy_json(d), comma));
    }
    json.push_str("  ]");
    if let Some(base) = baseline {
        json.push_str(&format!(
            ",\n  \"baseline_events_per_sec\": {:.0},\n  \"speedup\": {:.3}\n",
            base,
            events_per_sec / base,
        ));
    } else {
        json.push('\n');
    }
    json.push_str("}\n");

    std::fs::write(&out, json).expect("write benchmark report");
    eprintln!("perfbench: wrote {out}");
}
