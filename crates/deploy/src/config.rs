//! The deployment config file: one TOML describing cluster, processes and
//! adversity.
//!
//! The build is fully offline, so this file speaks the TOML subset of
//! [`gossip_adversity::toml`] and is read by that module's one loader
//! ([`parse_sections`]): this module takes the `[cluster]`, `[deploy]` and
//! `[telemetry]` sections (numbers, plus one quoted `bind` string) and
//! hands every *other* section to [`AdversitySpec::from_sections`] — so
//! the full adversity grammar (churn, flash crowds, partitions, chaos, …)
//! works unchanged inside a deployment file, and one file drives the whole
//! cluster. One rule covers both: a key its section does not read is an
//! error naming the key and the section.
//!
//! # File format
//!
//! ```toml
//! [cluster]
//! n = 96                 # total nodes including the source (node 0)
//! fanout = 6
//! period_ms = 100
//! rate_kbps = 200        # stream bit-rate
//! payload_bytes = 500
//! data_packets = 10      # FEC window geometry
//! parity_packets = 3
//! upload_cap_kbps = 2000 # 0 = uncapped (source is always uncapped)
//! stream_secs = 5
//! drain_secs = 3
//! seed = 1
//! inject_loss = 0.0      # shorthand for [chaos] drop, combined as independent losses
//! cyclon_degree = 0      # >0: every node keeps a Cyclon view, bootstrapped with this many peers
//!
//! [deploy]
//! processes = 3
//! shards_per_process = 1 # 0 = auto (per-core)
//! sockets_per_shard = 2
//! start_delay_ms = 500   # start barrier: epoch this far in the future
//! bind = "127.0.0.1"     # interface the reactor sockets bind
//! kill_process = 2       # optional: hard-kill this worker mid-stream...
//! kill_at_secs = 2.0     # ...this far into the stream
//!
//! [telemetry]            # optional: live metrics on every worker
//! port_base = 9600       # worker k scrapes on port_base + k (0: ephemeral)
//! sample_ms = 250        # snapshot cadence
//!
//! [catastrophic]         # any gossip-adversity section rides along
//! at_secs = 3.0
//! fraction = 0.2
//! ```

use std::net::Ipv4Addr;

use gossip_adversity::toml::parse_sections;
use gossip_adversity::{AdversitySpec, SpecParseError};
use gossip_core::GossipConfig;
use gossip_fec::WindowParams;
use gossip_stream::StreamConfig;
use gossip_types::Duration;
use gossip_udp::cluster::{ClusterConfig, JoinerBootstrap};

/// A deployment-file parse or validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployParseError(pub String);

impl std::fmt::Display for DeployParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deploy config: {}", self.0)
    }
}

impl std::error::Error for DeployParseError {}

impl From<SpecParseError> for DeployParseError {
    fn from(e: SpecParseError) -> Self {
        DeployParseError(e.0)
    }
}

/// Everything one TOML file says about a deployment: the cluster workload
/// (shared by every process) plus the process topology.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// The runtime-independent cluster description, including the parsed
    /// adversity spec. Identical in every process — workers re-derive the
    /// compiled fault timeline from it.
    pub cluster: ClusterConfig,
    /// Number of `gossipd` processes the cluster splits across.
    pub processes: usize,
    /// Reactor shards per process (`None`: per-core auto).
    pub shards_per_process: Option<usize>,
    /// Sockets per reactor shard.
    pub sockets_per_shard: usize,
    /// How far in the future the coordinator sets the shared start epoch:
    /// long enough for every process to receive it before it fires.
    pub start_delay: std::time::Duration,
    /// Interface the reactor pool sockets bind (loopback for single-host).
    pub bind: Ipv4Addr,
    /// Chaos: hard-kill this worker process (by index) mid-stream.
    pub kill_process: Option<usize>,
    /// When the kill fires, measured from the shared start epoch.
    pub kill_at: std::time::Duration,
    /// Live telemetry for every worker (the `[telemetry]` section; `None`
    /// when the file has no such section).
    pub telemetry: Option<TelemetrySection>,
}

/// The `[telemetry]` section of a deployment file: every worker serves a
/// scrape endpoint, and the coordinator polls them into a fleet view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySection {
    /// Worker `k` binds its scrape endpoint on `port_base + k`
    /// (`0`: each worker takes an ephemeral port and reports it to the
    /// coordinator in its address exchange).
    pub port_base: u16,
    /// Snapshot cadence in milliseconds.
    pub sample_ms: u64,
}

impl TelemetrySection {
    /// The scrape config of worker `k` under this section.
    pub fn config_for_worker(&self, k: usize) -> gossip_telemetry::TelemetryConfig {
        let port = if self.port_base == 0 { 0 } else { self.port_base.saturating_add(k as u16) };
        gossip_telemetry::TelemetryConfig {
            sample_period: std::time::Duration::from_millis(self.sample_ms),
            ..gossip_telemetry::TelemetryConfig::on_port(port)
        }
    }
}

impl DeployConfig {
    /// Parses a deployment file (see the [module docs](self) for the
    /// format).
    ///
    /// # Errors
    ///
    /// Returns a [`DeployParseError`] naming the offending line, missing
    /// key, or invalid combination.
    pub fn from_toml_str(input: &str) -> Result<Self, DeployParseError> {
        let mut sections = parse_sections(input)?;
        let mut take =
            |name: &str| sections.iter().position(|s| s.name() == name).map(|i| sections.remove(i));
        let cluster_keys = take("cluster")
            .ok_or_else(|| DeployParseError("missing [cluster] section".to_string()))?;
        let deploy_keys = take("deploy")
            .ok_or_else(|| DeployParseError("missing [deploy] section".to_string()))?;
        let telemetry_keys = take("telemetry");

        let integer = |v: f64, what: &str| -> Result<usize, DeployParseError> {
            if v >= 0.0 && v.fract() == 0.0 && v.is_finite() {
                Ok(v as usize)
            } else {
                Err(DeployParseError(format!("{what} must be a non-negative integer, got {v}")))
            }
        };
        let secs = |v: f64, what: &str| -> Result<Duration, DeployParseError> {
            if v.is_finite() && v >= 0.0 {
                Ok(Duration::from_secs_f64(v))
            } else {
                Err(DeployParseError(format!("{what} must be non-negative seconds, got {v}")))
            }
        };

        let n = integer(cluster_keys.require("n")?, "n")?;
        if n < 2 {
            return Err(DeployParseError("a cluster needs at least 2 nodes".to_string()));
        }
        let fanout = integer(cluster_keys.get("fanout")?.unwrap_or(6.0), "fanout")?.max(1);
        let period_ms = integer(cluster_keys.get("period_ms")?.unwrap_or(100.0), "period_ms")?;
        let rate_kbps = integer(cluster_keys.get("rate_kbps")?.unwrap_or(200.0), "rate_kbps")?;
        let payload =
            integer(cluster_keys.get("payload_bytes")?.unwrap_or(500.0), "payload_bytes")?;
        let data = integer(cluster_keys.get("data_packets")?.unwrap_or(10.0), "data_packets")?;
        let parity = integer(cluster_keys.get("parity_packets")?.unwrap_or(3.0), "parity_packets")?;
        if data == 0 || payload == 0 || rate_kbps == 0 || period_ms == 0 {
            return Err(DeployParseError(
                "rate_kbps, payload_bytes, data_packets and period_ms must be positive".to_string(),
            ));
        }
        let cap_kbps =
            integer(cluster_keys.get("upload_cap_kbps")?.unwrap_or(2000.0), "upload_cap_kbps")?;
        let stream_secs = cluster_keys.get("stream_secs")?.unwrap_or(5.0);
        let drain_secs = cluster_keys.get("drain_secs")?.unwrap_or(3.0);
        let seed = integer(cluster_keys.get("seed")?.unwrap_or(1.0), "seed")? as u64;
        let inject_loss = cluster_keys.get("inject_loss")?.unwrap_or(0.0);
        if !(0.0..=1.0).contains(&inject_loss) {
            return Err(DeployParseError(format!(
                "inject_loss must be within [0, 1], got {inject_loss}"
            )));
        }
        let cyclon = integer(cluster_keys.get("cyclon_degree")?.unwrap_or(0.0), "cyclon_degree")?;
        cluster_keys.reject_unread()?;

        // Every section this file does not read itself is adversity.
        let adversity = AdversitySpec::from_sections(sections)?;

        let cluster = ClusterConfig {
            n,
            gossip: GossipConfig::new(fanout)
                .with_gossip_period(Duration::from_millis(period_ms as u64)),
            stream: StreamConfig {
                rate_bps: rate_kbps as u64 * 1000,
                packet_payload_bytes: payload,
                window: WindowParams::new(data, parity),
            },
            upload_cap_bps: (cap_kbps > 0).then(|| cap_kbps as u64 * 1000),
            source_uncapped: true,
            max_backlog: Duration::from_secs(5),
            stream_duration: secs(stream_secs, "stream_secs")?,
            drain_duration: secs(drain_secs, "drain_secs")?,
            seed,
            inject_loss,
            crashes: Vec::new(),
            adversity,
            joiner_bootstrap: if cyclon > 0 {
                JoinerBootstrap::Cyclon { degree: cyclon }
            } else {
                JoinerBootstrap::Tracker
            },
            // Per-worker telemetry is attached by the host from the
            // `[telemetry]` section (each worker needs its own port).
            telemetry: None,
        };

        let processes = integer(deploy_keys.require("processes")?, "processes")?;
        let total_n = cluster.compiled_adversity().total_n;
        if processes == 0 || processes > total_n {
            return Err(DeployParseError(format!(
                "processes must be within [1, {total_n}], got {processes}"
            )));
        }
        let shards =
            integer(deploy_keys.get("shards_per_process")?.unwrap_or(0.0), "shards_per_process")?;
        let sockets =
            integer(deploy_keys.get("sockets_per_shard")?.unwrap_or(2.0), "sockets_per_shard")?
                .max(1);
        let start_delay_ms =
            integer(deploy_keys.get("start_delay_ms")?.unwrap_or(500.0), "start_delay_ms")?;
        let kill_process = match deploy_keys.get("kill_process")? {
            Some(v) => {
                let k = integer(v, "kill_process")?;
                if k >= processes {
                    return Err(DeployParseError(format!(
                        "kill_process {k} out of range (processes = {processes})"
                    )));
                }
                Some(k)
            }
            None => None,
        };
        let kill_at = secs(deploy_keys.get("kill_at_secs")?.unwrap_or(0.0), "kill_at_secs")?;
        let bind = match deploy_keys.text("bind")? {
            Some(text) => text
                .parse()
                .map_err(|_| DeployParseError(format!("`{text}` is not an IPv4 address")))?,
            None => Ipv4Addr::LOCALHOST,
        };
        deploy_keys.reject_unread()?;

        let telemetry = if let Some(telemetry) = &telemetry_keys {
            let port_base = integer(telemetry.get("port_base")?.unwrap_or(0.0), "port_base")?;
            if port_base > u16::MAX as usize {
                return Err(DeployParseError(format!("port_base {port_base} exceeds 65535")));
            }
            let sample_ms =
                integer(telemetry.get("sample_ms")?.unwrap_or(250.0), "sample_ms")?.max(10);
            telemetry.reject_unread()?;
            Some(TelemetrySection { port_base: port_base as u16, sample_ms: sample_ms as u64 })
        } else {
            None
        };

        Ok(DeployConfig {
            cluster,
            processes,
            shards_per_process: (shards > 0).then_some(shards),
            sockets_per_shard: sockets,
            start_delay: std::time::Duration::from_millis(start_delay_ms as u64),
            bind,
            kill_process,
            kill_at: std::time::Duration::from_secs_f64(kill_at.as_secs_f64()),
            telemetry,
        })
    }

    /// The id slice worker `k` hosts: an even split of the total
    /// population (base nodes plus joiners) into `processes` contiguous
    /// ranges, node 0 (the source) always in process 0.
    pub fn slice_of(&self, k: usize, total_n: usize) -> (u32, u32) {
        let p = self.processes;
        let lo = (k * total_n / p) as u32;
        let hi = ((k + 1) * total_n / p) as u32;
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a 3-process deployment
[cluster]
n = 96
fanout = 6
period_ms = 100
rate_kbps = 200
payload_bytes = 500
data_packets = 10
parity_packets = 3
upload_cap_kbps = 0
stream_secs = 5
drain_secs = 3
seed = 7

[deploy]
processes = 3
shards_per_process = 1
sockets_per_shard = 2
start_delay_ms = 250
bind = "127.0.0.1"
kill_process = 2
kill_at_secs = 2.0

[telemetry]
port_base = 9600
sample_ms = 100

[catastrophic]
at_secs = 3.0
fraction = 0.1
"#;

    #[test]
    fn sample_file_parses_end_to_end() {
        let config = DeployConfig::from_toml_str(SAMPLE).expect("parses");
        assert_eq!(config.cluster.n, 96);
        assert_eq!(config.cluster.seed, 7);
        assert_eq!(config.cluster.upload_cap_bps, None, "0 kbps means uncapped");
        assert_eq!(config.cluster.stream.rate_bps, 200_000);
        assert_eq!(config.processes, 3);
        assert_eq!(config.shards_per_process, Some(1));
        assert_eq!(config.sockets_per_shard, 2);
        assert_eq!(config.start_delay, std::time::Duration::from_millis(250));
        assert_eq!(config.kill_process, Some(2));
        assert!(config.cluster.adversity.catastrophic.is_some(), "adversity rides along");
        let tel = config.telemetry.expect("telemetry section parses");
        assert_eq!(tel.port_base, 9600);
        assert_eq!(tel.sample_ms, 100);
        let worker2 = tel.config_for_worker(2);
        assert_eq!(worker2.scrape_addr.port(), 9602);
        assert_eq!(worker2.sample_period, std::time::Duration::from_millis(100));
    }

    #[test]
    fn slices_cover_the_population_without_gaps() {
        let config = DeployConfig::from_toml_str(SAMPLE).expect("parses");
        let total = config.cluster.compiled_adversity().total_n;
        let mut covered = 0u32;
        for k in 0..config.processes {
            let (lo, hi) = config.slice_of(k, total);
            assert_eq!(lo, covered, "slices must be contiguous");
            assert!(hi > lo, "every process hosts at least one node");
            covered = hi;
        }
        assert_eq!(covered as usize, total);
        assert_eq!(config.slice_of(0, total).0, 0, "the source lives in process 0");
    }

    #[test]
    fn defaults_fill_in_for_a_minimal_file() {
        let config = DeployConfig::from_toml_str("[cluster]\nn = 8\n[deploy]\nprocesses = 2\n")
            .expect("parses");
        assert_eq!(config.cluster.n, 8);
        assert_eq!(config.processes, 2);
        assert_eq!(config.bind, Ipv4Addr::LOCALHOST);
        assert_eq!(config.kill_process, None);
        assert!(config.cluster.adversity.is_none());
    }

    #[test]
    fn errors_name_the_problem() {
        let e = |s: &str| DeployConfig::from_toml_str(s).unwrap_err().0;
        assert!(e("[deploy]\nprocesses = 2\n").contains("missing [cluster]"));
        assert!(e("[cluster]\nn = 8\n").contains("missing [deploy]"));
        assert!(e("[cluster]\nn = 8\nbogus = 1\n[deploy]\nprocesses = 1\n").contains("bogus"));
        assert!(e("[cluster]\nn = 8\n[deploy]\nprocesses = 9\n").contains("within [1, 8]"));
        assert!(e("[cluster]\nn = 8\n[deploy]\nprocesses = 2\nkill_process = 5\n")
            .contains("out of range"));
        assert!(e("[cluster]\nn = 8\n[deploy]\nprocesses = 2\nbind = 127\n").contains("quoted"));
        assert!(e("[cluster]\nn = 8\n[deploy]\nprocesses = 2\n[nonsense]\nx = 1\n")
            .contains("unknown section"));
        // One unknown-key rule for the file's own sections and adversity's.
        assert!(e("[cluster]\nn = 8\n[deploy]\nprocesses = 2\n[telemetry]\nport = 1\n")
            .contains("unknown key `port` in [telemetry]"));
        assert!(e("[cluster]\nn = 8\n[deploy]\nprocesses = 2\n[chaos]\ndorp = 0.5\n")
            .contains("unknown key `dorp` in [chaos]"));
        assert!(e("[cluster]\nn = 8\n[deploy]\nprocesses = 2\n[cluster]\nn = 9\n")
            .contains("duplicate section [cluster]"));
    }
}
