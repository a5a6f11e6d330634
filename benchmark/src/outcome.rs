//! What one workload run produces: named metric values, the operation
//! counts, the output-check verdict and (after a traced pass) the ledger.

use gossip::core::ProtocolStats;
use gossip::udp::report::ShardStats;

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};

/// One named measurement. `value` is `None` when the platform could not
/// supply it (no `/proc`); `samples` is how many observations the value
/// summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: &'static str,
    pub value: Option<f64>,
    pub samples: u64,
}

/// An ordered set of named measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples(pub Vec<Sample>);

impl Samples {
    pub fn set(&mut self, name: &'static str, value: Option<f64>, samples: u64) {
        match self.0.iter_mut().find(|s| s.name == name) {
            Some(slot) => *slot = Sample { name, value, samples },
            None => self.0.push(Sample { name, value, samples }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|s| s.name == name).and_then(|s| s.value)
    }

    /// `{"name": {"value": v, "unit": u, "samples": n}, ...}` in table order.
    pub fn to_json(&self, unit_of: impl Fn(&str) -> &'static str) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|s| {
                    let entry = Json::obj([
                        ("value", Json::num_or_null(s.value)),
                        ("unit", Json::str(unit_of(s.name))),
                        ("samples", Json::Num(s.samples as f64)),
                    ]);
                    (s.name.to_string(), entry)
                })
                .collect(),
        )
    }
}

pub fn e2e_unit(name: &str) -> &'static str {
    END_TO_END.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

/// The counts a run's public reports expose — the **C** rows and the
/// per-event / per-datagram frequencies the ledger multiplies by.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// The unit the end-to-end CPU figure is divided by: engine events
    /// (sim) or protocol datagrams received (live).
    pub units: u64,
    /// Engine events dispatched (sim only).
    pub events: u64,
    /// Pending-event high-water mark (sim only).
    pub peak_queue: u64,
    /// Protocol messages / datagrams fully sent, and their bytes.
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    /// Dropped by the sender's own shaper or throttling queue.
    pub msgs_dropped: u64,
    /// Protocol messages / datagrams received.
    pub msgs_received: u64,
    /// Lost between a completed send and the receiver.
    pub msgs_lost: u64,
    /// Summed protocol counters of every node.
    pub protocol: ProtocolStats,
    /// Stream packets the source published.
    pub packets_published: u64,
    /// Membership shuffle rounds executed (sim with Cyclon; estimated from
    /// the scenario, the harness does not export the count).
    pub shuffle_rounds: u64,
    /// Events of the compiled fault timeline.
    pub timeline_events: u64,
    /// Receiver-windows byte-verified through the real code.
    pub windows_verified: u64,
    /// Merged shard I/O accounting (live only).
    pub shard: Option<ShardStats>,
    /// Wall seconds of `assemble_report` (live only).
    pub report_s: f64,
    /// Wall seconds of the measured run(s).
    pub wall_s: f64,
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

impl Counts {
    /// Protocol messages sent, by the core's own count.
    pub fn protocol_msgs_sent(&self) -> u64 {
        let p = &self.protocol;
        p.proposes_sent + p.requests_sent + p.serves_sent + p.feedmes_sent
    }

    /// Mean size of a sent message / datagram (64 B when nothing was sent).
    pub fn mean_datagram_bytes(&self) -> usize {
        self.bytes_sent.checked_div(self.msgs_sent).map_or(64, |b| b as usize)
    }

    /// How often the run scheduled each class of event: link completions,
    /// network deliveries, gossip (and shuffle) rounds, retransmission timers.
    pub fn event_mix(&self) -> [f64; 4] {
        [
            (self.msgs_sent + self.msgs_dropped) as f64,
            self.msgs_received as f64,
            (self.protocol.rounds + self.shuffle_rounds) as f64,
            self.protocol.requests_sent as f64,
        ]
    }

    /// Fills every **C** row. Rows of a runtime the workload did not use
    /// read 0 (they are defined, and nothing happened there).
    pub fn fill(&self, out: &mut Samples) {
        let p = &self.protocol;
        let mut c = |name: &'static str, v: Option<f64>| out.set(name, Some(v.unwrap_or(0.0)), 1);
        c("sim.events", Some(self.events as f64));
        c("sim.peak_queue", Some(self.peak_queue as f64));
        c("net.msgs_sent", Some(self.msgs_sent as f64));
        c("net.drop_ratio", ratio(self.msgs_dropped, self.msgs_sent + self.msgs_dropped));
        c("net.loss_ratio", ratio(self.msgs_lost, self.msgs_sent));
        c("core.rounds", Some(p.rounds as f64));
        c("core.msgs_per_event_delivered", ratio(self.protocol_msgs_sent(), p.events_delivered));
        c("core.retransmit_ratio", ratio(p.retransmit_requests, p.requests_sent));
        c(
            "core.duplicate_event_ratio",
            ratio(p.duplicate_events_received, p.events_delivered + p.duplicate_events_received),
        );
        c(
            "core.duplicate_id_ratio",
            ratio(p.duplicate_ids_proposed, p.events_delivered + p.duplicate_ids_proposed),
        );
        c("adversity.timeline_events", Some(self.timeline_events as f64));
        c("udp.windows_verified", Some(self.windows_verified as f64));
        c("udp.report_s", Some(self.report_s));
        let io = self.shard.unwrap_or_default();
        c(
            "reactor.datagrams_per_sec",
            self.shard.map(|s| s.datagrams_received as f64 / self.wall_s),
        );
        c("reactor.send_syscalls_per_datagram", io.syscalls_per_datagram());
        c("reactor.datagrams_per_recv_syscall", io.datagrams_per_recv_syscall());
        c("reactor.recv_batch_occupancy", io.recv_batch_occupancy());
        c("reactor.coalescing_ratio", ratio(io.datagrams_sent, io.kernel_sent));
        c("reactor.iterations_per_datagram", ratio(io.iterations, io.datagrams_received));
        c("reactor.send_drop_ratio", ratio(io.send_drops, io.kernel_sent + io.send_drops));
        c("reactor.shed_ratio", ratio(io.datagrams_shed, io.datagrams_sent + io.datagrams_shed));
    }
}

/// One attributed row of the cost ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// The per-layer metric the row's cost comes from.
    pub name: &'static str,
    /// ns per call, from the traced pass.
    pub ns_per_call: f64,
    /// Calls per unit (event or datagram), from the untraced run's counts.
    pub per_unit: f64,
    /// Nested rows run *inside* another row's span; they are shown for
    /// attribution and left out of the sum.
    pub nested_in: Option<&'static str>,
}

impl LedgerRow {
    pub fn attributed_ns(&self) -> f64 {
        self.ns_per_call * self.per_unit
    }
}

/// The cost ledger of one workload: attributed rows against the measured
/// end-to-end CPU per unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `event` or `datagram`.
    pub unit: &'static str,
    pub rows: Vec<LedgerRow>,
    /// A floor to read the residual against, never part of the sum (live:
    /// the same number of syscall pairs through plain std sockets).
    pub reference: Option<LedgerRow>,
    /// The untraced run's CPU ns per unit.
    pub measured_ns: f64,
}

impl Ledger {
    pub fn attributed_ns(&self) -> f64 {
        self.rows.iter().filter(|r| r.nested_in.is_none()).map(LedgerRow::attributed_ns).sum()
    }

    pub fn residual_ns(&self) -> f64 {
        self.measured_ns - self.attributed_ns()
    }

    pub fn to_json(&self) -> Json {
        let row = |r: &LedgerRow| {
            Json::obj([
                ("name", Json::str(r.name)),
                ("ns_per_call", Json::Num(r.ns_per_call)),
                ("calls_per_unit", Json::Num(r.per_unit)),
                ("attributed_ns", Json::Num(r.attributed_ns())),
                ("nested_in", r.nested_in.map_or(Json::Null, Json::str)),
            ])
        };
        Json::obj([
            ("unit", Json::str(self.unit)),
            ("rows", Json::Arr(self.rows.iter().map(row).collect())),
            ("reference", self.reference.as_ref().map_or(Json::Null, row)),
            ("attributed_ns", Json::Num(self.attributed_ns())),
            ("residual_ns", Json::Num(self.residual_ns())),
            ("measured_ns", Json::Num(self.measured_ns)),
        ])
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub traced: bool,
    /// Receiver-windows attempted / failed (counted decodable but not
    /// verified; all of them when an output check fails). Windows that
    /// never became decodable are lost quality, not failed operations.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; empty means the outputs are correct.
    pub failures: Vec<String>,
    /// Trips of the workload's service rule (lag limit, quality floor):
    /// the outputs are right but the service was not delivered. Reported
    /// beside the results; the lag and quality metrics carry the damage.
    pub rule_trips: Vec<String>,
    /// Every end-to-end metric (in a traced pass: from its untraced half).
    pub e2e: Samples,
    /// Every per-layer metric (traced pass only).
    pub layers: Samples,
    pub ledger: Option<Ledger>,
    /// Free-form details: per-run values, parameters, the trace file.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The metric names the tables promise that this outcome lacks.
    pub fn missing_metrics(&self) -> Vec<&'static str> {
        let mut missing: Vec<&'static str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .filter(|n| !self.e2e.0.iter().any(|s| s.name == *n))
            .collect();
        if self.traced {
            missing.extend(
                PER_LAYER
                    .iter()
                    .map(|m| m.name)
                    .filter(|n| !self.layers.0.iter().any(|s| s.name == *n)),
            );
        }
        missing
    }

    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload".to_string(), Json::str(self.workload)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("seconds".to_string(), Json::Num(self.seconds)),
            ("quick".to_string(), Json::Bool(self.quick)),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().map(|f| Json::str(f.as_str())).collect()),
            ),
            (
                "service_rule_trips".to_string(),
                Json::Arr(self.rule_trips.iter().map(|f| Json::str(f.as_str())).collect()),
            ),
            ("end_to_end".to_string(), self.e2e.to_json(e2e_unit)),
        ];
        if self.traced {
            pairs.push(("per_layer".to_string(), self.layers.to_json(layer_unit)));
        }
        if let Some(ledger) = &self.ledger {
            pairs.push(("ledger".to_string(), ledger.to_json()));
        }
        pairs.extend(self.detail.iter().cloned());
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_sums_top_level_rows_only() {
        let ledger = Ledger {
            unit: "event",
            measured_ns: 1000.0,
            reference: None,
            rows: vec![
                LedgerRow { name: "a", ns_per_call: 100.0, per_unit: 2.0, nested_in: None },
                LedgerRow { name: "b", ns_per_call: 50.0, per_unit: 1.0, nested_in: Some("a") },
                LedgerRow { name: "c", ns_per_call: 300.0, per_unit: 0.5, nested_in: None },
            ],
        };
        assert_eq!(ledger.attributed_ns(), 350.0);
        assert_eq!(ledger.residual_ns(), 650.0);
        let json = ledger.to_json();
        assert_eq!(json.get("rows").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn counts_fill_defines_every_count_row_even_when_idle() {
        let mut out = Samples::default();
        Counts::default().fill(&mut out);
        let count_rows: Vec<_> =
            PER_LAYER.iter().filter(|m| m.source == crate::spec::Source::Count).collect();
        assert!(!count_rows.is_empty());
        for m in count_rows {
            assert_eq!(out.get(m.name), Some(0.0), "{} must read 0 on an idle run", m.name);
        }
    }

    #[test]
    fn samples_overwrite_by_name() {
        let mut s = Samples::default();
        s.set("setup_s", Some(1.0), 1);
        s.set("setup_s", Some(2.0), 3);
        assert_eq!(s.0.len(), 1);
        assert_eq!(s.get("setup_s"), Some(2.0));
        assert_eq!(s.get("nope"), None);
    }
}
