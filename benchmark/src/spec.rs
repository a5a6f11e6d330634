//! The benchmark's fixed vocabulary: the four workloads, the end-to-end
//! metrics with their bounds, and the per-layer metrics with the
//! end-to-end number each one is predicted to move.
//!
//! `BENCHMARK.json` at the repository root carries the same names; a unit
//! test keeps the two in step.

/// The stream + drain wall-clock (live) or timed-run budget (sim) the
/// workload parameters below were sized for. `--seconds` scales every
/// workload uniformly relative to it.
pub const DESIGN_SECONDS: f64 = 18.0;

/// Which of the two hosted runtimes a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The deterministic discrete-event simulator (one busy thread).
    Sim,
    /// The sharded shared-socket reactor on loopback (two busy shards).
    Live,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub runtime: Runtime,
    /// What runs, in one line (printed with every report).
    pub what: &'static str,
    /// Why it was chosen — which layers it loads and which it bypasses.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_paper",
        runtime: Runtime::Sim,
        what: "Scenario::full(7): n=230, 600 kbps in 101+9 windows of 1000 B, 700 kbps caps, \
               full membership, 60 s stream + 20 s drain; one warm-up run then 3 timed seeds",
        why: "The paper's 230-node deployment: ~14k resident events stay in cache, so GossipNode \
              stepping and UploadLink dominate while the event queue, Cyclon and the fault \
              timeline idle.",
    },
    Workload {
        name: "sim_scale",
        runtime: Runtime::Sim,
        what: "n=4000, fanout 11, Cyclon (view 32, shuffle 16, 1 s, bootstrap 16), 30 % crash at \
               midpoint + Poisson leave/rejoin + 10 % flash crowd, 10 s stream + 10 s drain, one \
               timed run",
        why: "n=4000 under Cyclon and churn: ~319k resident events fall out of cache while nodes \
              crash, revive and join, so the event queue, membership and adversity layers do \
              most of their work here.",
    },
    Workload {
        name: "live_hot",
        runtime: Runtime::Live,
        what: "reactor, n=1000, fanout 4, 150 ms rounds, 720 kbps, 1000 B payloads, 20+4 windows, \
               2 Mbps caps, 15 s stream + 3 s drain, 2 shards x 4 sockets, loopback",
        why: "Reactor below the knee with headroom for box noise (~105k datagrams/s, \
              serve-dominated): decode, on_frame, shaper and kernel I/O carry the cost, so \
              per-datagram savings show as lower CPU and lag.",
    },
    Workload {
        name: "live_wide",
        runtime: Runtime::Live,
        what: "reactor, n=4000, fanout 5, 1000 ms rounds, 16 kbps, 500 B payloads, 8+3 windows, \
               2 Mbps caps, 15 s stream + 3 s drain, 2 shards x 4 sockets, loopback",
        why: "Reactor at n=4000 and 16 kbps (~30k datagrams/s, mostly id traffic): timer wheel, \
              per-node state and park/poll overhead dominate; a decode or I/O-batching gain \
              should change nothing here.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. Every workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// What it measures on the simulator workloads / the live workloads.
    pub on_sim: &'static str,
    pub on_live: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        on_sim: "wall of the fastest set-up pass: scenario + adversity build and the warm-up run",
        on_live: "wall of the fastest of three set-up passes: config + adversity build, a 64-node \
                  warm-up cluster, NodeHost::bind",
    },
    EndToEnd {
        name: "events_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        on_sim: "engine events dispatched / wall of Scenario::run (best of the timed runs)",
        on_live: "protocol datagrams received / wall of NodeHost::run (set by the offered load)",
    },
    EndToEnd {
        name: "cpu_ns_per_event",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        on_sim: "process user+sys CPU across Scenario::run / events dispatched (best of the timed \
                 runs)",
        on_live: "process user+sys CPU across NodeHost::run / protocol datagrams received",
    },
    EndToEnd {
        name: "cpu_us_per_datagram",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        on_sim: "process CPU across Scenario::run / simulated protocol messages received",
        on_live: "process CPU across NodeHost::run / protocol datagrams received",
    },
    EndToEnd {
        name: "window_lag_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        on_sim: "median window's median lag across receivers, from the window's scheduled \
                 publication, simulated time (exact for a seed)",
        on_live: "the same on host time",
    },
    EndToEnd {
        name: "window_lag_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        on_sim: "median window's 99th-percentile lag across receivers, simulated time",
        on_live: "median window's 99th-percentile lag across receivers, host time",
    },
    EndToEnd {
        name: "quality_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.03,
        on_sim: "QualityReport::average_quality_percent(Duration::MAX) of surviving receivers",
        on_live: "the same over every base receiver",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        on_sim: "VmHWM of the workload's process",
        on_live: "VmHWM of the workload's process",
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Count or ratio read from the untraced run's public report.
    Count,
    /// ns (or µs/ms) per call from the traced ledger pass.
    Timed,
    /// Phase share from the shard phase histograms of the telemetered run.
    Phase,
    /// Derived: measured end-to-end figure minus attributed rows, or the
    /// traced-vs-untraced difference.
    Derived,
}

impl Source {
    pub fn tag(self) -> &'static str {
        match self {
            Source::Count => "C",
            Source::Timed => "T",
            Source::Phase => "P",
            Source::Derived => "D",
        }
    }
}

/// One per-layer metric (layer = crate; the name's prefix is the layer).
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric and workload this row should move; everywhere
    /// else the prediction is no change.
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, source, moves }
}

use Better::{Higher, Lower};
use Source::{Count, Derived, Phase, Timed};

const SIM_MOVES: &str =
    "cpu_ns_per_event, events_per_sec, peak_rss_mb on sim_scale; ~flat on sim_paper";
const NET_MOVES: &str = "cpu_ns_per_event on sim_paper";
const NET_RATIO_MOVES: &str = "quality_pct, window_lag_* on sim_*";
const CORE_SIM_MOVES: &str = "cpu_ns_per_event on sim_paper and sim_scale";
const CORE_LIVE_MOVES: &str = "cpu_us_per_datagram, window_lag_* on live_hot; small on live_wide";
const CORE_RATIO_MOVES: &str = "quality_pct, window_lag_p99_ms on every workload";
const STREAM_MOVES: &str = "cpu_us_per_datagram on live_hot";
const FEC_MOVES: &str =
    "udp.report_s on live_*, stream.source_poll only; no move of cpu_us_per_datagram or events_per_sec";
const REACTOR_IO_MOVES: &str = "cpu_us_per_datagram, window_lag_* on live_hot";
const REACTOR_TIMER_MOVES: &str = "cpu_us_per_datagram on live_wide";
const REACTOR_DROP_MOVES: &str = "quality_pct on live_*";

pub const PER_LAYER: [LayerMetric; 63] = [
    // sim
    row("sim.events", "count", Higher, Count, SIM_MOVES),
    row("sim.peak_queue", "count", Lower, Count, SIM_MOVES),
    row("sim.queue_push_pop_ns", "ns", Lower, Timed, SIM_MOVES),
    row("sim.queue_cancel_ns", "ns", Lower, Timed, SIM_MOVES),
    row("sim.rng_sample_ns", "ns", Lower, Timed, SIM_MOVES),
    // net
    row("net.link_enqueue_complete_ns", "ns", Lower, Timed, NET_MOVES),
    row("net.latency_sample_ns", "ns", Lower, Timed, NET_MOVES),
    row("net.msgs_sent", "count", Higher, Count, NET_MOVES),
    row("net.drop_ratio", "ratio", Lower, Count, NET_RATIO_MOVES),
    row("net.loss_ratio", "ratio", Lower, Count, NET_RATIO_MOVES),
    // core
    row("core.on_round_ns", "ns", Lower, Timed, CORE_SIM_MOVES),
    row("core.on_timer_ns", "ns", Lower, Timed, CORE_SIM_MOVES),
    row("core.poll_output_ns", "ns", Lower, Timed, CORE_SIM_MOVES),
    row("core.view_select_ns", "ns", Lower, Timed, CORE_SIM_MOVES),
    row("core.on_message_propose_ns", "ns", Lower, Timed, CORE_SIM_MOVES),
    row("core.on_message_request_ns", "ns", Lower, Timed, CORE_SIM_MOVES),
    row("core.on_message_serve_ns", "ns", Lower, Timed, CORE_SIM_MOVES),
    row("core.on_frame_propose_ns", "ns", Lower, Timed, CORE_LIVE_MOVES),
    row("core.on_frame_request_ns", "ns", Lower, Timed, CORE_LIVE_MOVES),
    row("core.on_frame_serve_ns", "ns", Lower, Timed, CORE_LIVE_MOVES),
    row("core.wire_encode_ns", "ns", Lower, Timed, CORE_LIVE_MOVES),
    row("core.wire_decode_frame_ns", "ns", Lower, Timed, CORE_LIVE_MOVES),
    row("core.wire_decode_message_ns", "ns", Lower, Timed, CORE_LIVE_MOVES),
    row("core.rounds", "count", Higher, Count, CORE_RATIO_MOVES),
    row("core.msgs_per_event_delivered", "ratio", Lower, Count, CORE_RATIO_MOVES),
    row("core.retransmit_ratio", "ratio", Lower, Count, CORE_RATIO_MOVES),
    row("core.duplicate_event_ratio", "ratio", Lower, Count, CORE_RATIO_MOVES),
    row("core.duplicate_id_ratio", "ratio", Lower, Count, CORE_RATIO_MOVES),
    // stream
    row("stream.source_poll_ns_per_packet", "ns", Lower, Timed, STREAM_MOVES),
    row("stream.packet_verify_ns", "ns", Lower, Timed, STREAM_MOVES),
    row("stream.player_on_packet_ns", "ns", Lower, Timed, STREAM_MOVES),
    row("stream.quality_from_player_us", "us", Lower, Timed, "udp.report_s on live_*"),
    // fec
    row("fec.gf_mul_acc_ns_per_kb", "ns", Lower, Timed, FEC_MOVES),
    row("fec.window_encode_us", "us", Lower, Timed, FEC_MOVES),
    row("fec.window_reconstruct_us", "us", Lower, Timed, FEC_MOVES),
    // membership
    row("membership.cyclon_shuffle_ns", "ns", Lower, Timed, "cpu_ns_per_event on sim_scale only"),
    row("membership.wire_codec_ns", "ns", Lower, Timed, "cpu_ns_per_event on sim_scale only"),
    // adversity
    row("adversity.compile_ms", "ms", Lower, Timed, "setup_s on sim_scale"),
    row("adversity.timeline_events", "count", Higher, Count, "setup_s on sim_scale"),
    // experiments
    row(
        "experiments.residual_ns_per_event",
        "ns",
        Lower,
        Derived,
        "the drive loop and whatever is unattributed: a one-hosted-node-step refactor must not grow it",
    ),
    // udp
    row("udp.shaper_offer_pop_ns", "ns", Lower, Timed, "cpu_us_per_datagram on live_*"),
    row("udp.windows_verified", "count", Higher, Count, "udp.report_s on live_*"),
    row(
        "udp.report_s",
        "s",
        Lower,
        Count,
        "wall of assemble_report (quality + RS byte-verify of every counted window) on live_*",
    ),
    // reactor
    row("reactor.bind_ms", "ms", Lower, Timed, "setup_s on live_*"),
    row("reactor.datagrams_per_sec", "1/s", Higher, Count, REACTOR_IO_MOVES),
    row("reactor.send_syscalls_per_datagram", "ratio", Lower, Count, REACTOR_IO_MOVES),
    row("reactor.datagrams_per_recv_syscall", "ratio", Higher, Count, REACTOR_IO_MOVES),
    row("reactor.recv_batch_occupancy", "ratio", Higher, Count, REACTOR_IO_MOVES),
    row("reactor.coalescing_ratio", "ratio", Higher, Count, REACTOR_IO_MOVES),
    row("reactor.iterations_per_datagram", "ratio", Lower, Count, REACTOR_TIMER_MOVES),
    row("reactor.send_drop_ratio", "ratio", Lower, Count, REACTOR_DROP_MOVES),
    row("reactor.shed_ratio", "ratio", Lower, Count, REACTOR_DROP_MOVES),
    row("reactor.demux_append_frame_ns", "ns", Lower, Timed, REACTOR_IO_MOVES),
    row("reactor.demux_frames_ns", "ns", Lower, Timed, REACTOR_IO_MOVES),
    row("reactor.phase_timers_share", "ratio", Lower, Phase, REACTOR_TIMER_MOVES),
    row("reactor.phase_ingress_share", "ratio", Lower, Phase, REACTOR_IO_MOVES),
    row("reactor.phase_flush_share", "ratio", Lower, Phase, REACTOR_IO_MOVES),
    row("reactor.phase_park_share", "ratio", Higher, Phase, REACTOR_TIMER_MOVES),
    row(
        "reactor.residual_us_per_datagram",
        "us",
        Lower,
        Derived,
        "the crate-private shard loop, mmsg queues and the kernel: cpu_us_per_datagram on live_*",
    ),
    // telemetry
    row(
        "telemetry.overhead_pct",
        "%",
        Lower,
        Derived,
        "the cost of watching; must not move any untraced metric",
    ),
    row("telemetry.cell_add_ns", "ns", Lower, Timed, "telemetry.overhead_pct"),
    row("telemetry.render_us", "us", Lower, Timed, "telemetry.overhead_pct"),
    // kernel (reference)
    row(
        "kernel.loopback_send_recv_ns",
        "ns",
        Lower,
        Timed,
        "floor under reactor.residual_us_per_datagram",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// Whether `name` is a legal metric/workload name of `BENCHMARK.json`:
    /// starts with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a legal unit: at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_unique_and_within_the_counts() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name} is not a legal name");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(unit), "{unit} is not a legal unit");
        }
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("core.on_frame_serve_ns"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn bounds_and_whys_fit_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound out of range", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{} why too long", w.name);
        }
    }

    #[test]
    fn every_layer_metric_is_prefixed_by_its_layer() {
        const LAYERS: [&str; 12] = [
            "sim",
            "net",
            "core",
            "stream",
            "fec",
            "membership",
            "adversity",
            "experiments",
            "udp",
            "reactor",
            "telemetry",
            "kernel",
        ];
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(LAYERS.contains(&layer), "{} has no known layer prefix", m.name);
        }
        for layer in LAYERS {
            assert!(PER_LAYER.iter().any(|m| m.name.starts_with(layer)), "{layer} has no metric");
        }
    }

    /// `BENCHMARK.json` (one directory up from this package) must carry
    /// exactly the names, units, directions and bounds of the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(DESIGN_SECONDS));

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
            assert_eq!(j.as_obj().unwrap().len(), 2);
        }
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(m.better.as_str()));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
            assert_eq!(j.as_obj().unwrap().len(), 4);
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(m.better.as_str()));
            assert_eq!(j.as_obj().unwrap().len(), 3);
        }
    }
}
