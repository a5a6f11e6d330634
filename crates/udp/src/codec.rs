//! Binary codec for run reports crossing a process boundary.
//!
//! The deploy runtime (`gossip-deploy`) runs one cluster across several
//! processes; each `gossipd` ships its per-node [`NodeReport`]s and
//! per-shard [`crate::report::ShardStats`] to the coordinator over a
//! control socket, and the coordinator feeds the union through
//! [`crate::cluster::assemble_report`] exactly as if one process had hosted
//! everything. This module is the wire form of those reports: hand-rolled
//! little-endian framing (the workspace builds offline, so no serde), with
//! counter blocks count-prefixed so a decoder can skip fields added by a
//! newer encoder.
//!
//! The [`gossip_stream::StreamConfig`] is deliberately *not* part of the
//! encoding: every process of one deployment derives it from the same spec,
//! and the decoder needs it to rebuild each
//! [`gossip_stream::StreamPlayer`] (whose bitmask geometry the snapshot
//! restore validates).

use gossip_stream::{PlayerSnapshot, StreamConfig, StreamPlayer, WindowSnapshot};
use gossip_types::{NodeId, Time};

use crate::report::{NodeReport, ShardStats};

/// Sentinel encoding `None` for an `Option<Time>` field ([`Time::MAX`] is
/// an "infinitely far" deadline, never a reception timestamp).
const TIME_NONE: u64 = u64::MAX;

/// Number of `u64` counters in [`gossip_core::ProtocolStats`].
const PROTOCOL_FIELDS: u32 = 20;
/// Number of `u64` counters in [`ShardStats`]: the rows of its table, in
/// table order.
const SHARD_FIELDS: u32 = ShardStats::COUNTERS.len() as u32;

/// A decode failure: the buffer was truncated, malformed, or produced by an
/// incompatible encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "report codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A read position inside an encoded buffer.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_time(out: &mut Vec<u8>, t: Option<Time>) {
    put_u64(out, t.map_or(TIME_NONE, Time::as_micros));
}

fn read_opt_time(cur: &mut Cursor) -> Result<Option<Time>, CodecError> {
    let raw = cur.u64()?;
    Ok((raw != TIME_NONE).then(|| Time::from_micros(raw)))
}

fn protocol_counters(p: &gossip_core::ProtocolStats) -> [u64; PROTOCOL_FIELDS as usize] {
    [
        p.rounds,
        p.proposes_sent,
        p.proposes_received,
        p.duplicate_ids_proposed,
        p.requests_sent,
        p.requests_received,
        p.unservable_ids,
        p.serves_sent,
        p.serves_received,
        p.events_delivered,
        p.duplicate_events_received,
        p.retransmit_requests,
        p.feedmes_sent,
        p.feedmes_received,
        p.feedmes_adopted,
        p.corrupted_events_detected,
        p.corrupt_rerequests,
        p.peers_demoted,
        p.proposes_from_demoted_ignored,
        p.garbage_ids_rejected,
    ]
}

/// Reads a count-prefixed counter block: exactly `known` fields into the
/// output, skipping any trailing fields a newer encoder appended.
fn read_counters(cur: &mut Cursor, known: u32, what: &str) -> Result<Vec<u64>, CodecError> {
    let count = cur.u32()?;
    if count < known {
        return Err(CodecError(format!("{what}: encoder sent {count} counters, need {known}")));
    }
    let mut fields = Vec::with_capacity(known as usize);
    for _ in 0..known {
        fields.push(cur.u64()?);
    }
    for _ in known..count {
        cur.u64()?;
    }
    Ok(fields)
}

/// Appends the wire form of one [`gossip_core::ProtocolStats`].
pub fn encode_protocol_stats(out: &mut Vec<u8>, p: &gossip_core::ProtocolStats) {
    put_u32(out, PROTOCOL_FIELDS);
    for c in protocol_counters(p) {
        put_u64(out, c);
    }
}

/// Reads one [`gossip_core::ProtocolStats`].
///
/// # Errors
///
/// Fails if the buffer is truncated or carries fewer counters than this
/// decoder knows.
pub fn decode_protocol_stats(cur: &mut Cursor) -> Result<gossip_core::ProtocolStats, CodecError> {
    let f = read_counters(cur, PROTOCOL_FIELDS, "protocol stats")?;
    Ok(gossip_core::ProtocolStats {
        rounds: f[0],
        proposes_sent: f[1],
        proposes_received: f[2],
        duplicate_ids_proposed: f[3],
        requests_sent: f[4],
        requests_received: f[5],
        unservable_ids: f[6],
        serves_sent: f[7],
        serves_received: f[8],
        events_delivered: f[9],
        duplicate_events_received: f[10],
        retransmit_requests: f[11],
        feedmes_sent: f[12],
        feedmes_received: f[13],
        feedmes_adopted: f[14],
        corrupted_events_detected: f[15],
        corrupt_rerequests: f[16],
        peers_demoted: f[17],
        proposes_from_demoted_ignored: f[18],
        garbage_ids_rejected: f[19],
    })
}

/// Appends the wire form of one [`ShardStats`].
pub fn encode_shard_stats(out: &mut Vec<u8>, s: &ShardStats) {
    put_u32(out, SHARD_FIELDS);
    for counter in ShardStats::COUNTERS {
        put_u64(out, (counter.get)(s));
    }
}

/// Reads one [`ShardStats`].
///
/// # Errors
///
/// Fails if the buffer is truncated or carries fewer counters than this
/// decoder knows.
pub fn decode_shard_stats(cur: &mut Cursor) -> Result<ShardStats, CodecError> {
    let fields = read_counters(cur, SHARD_FIELDS, "shard stats")?;
    let mut stats = ShardStats::default();
    for (counter, value) in ShardStats::COUNTERS.iter().zip(fields) {
        *(counter.slot)(&mut stats) = value;
    }
    Ok(stats)
}

/// Appends the wire form of one [`NodeReport`] (identity, protocol
/// counters, the full player snapshot, I/O counters).
pub fn encode_node_report(out: &mut Vec<u8>, r: &NodeReport) {
    put_u32(out, r.id.as_u32());
    encode_protocol_stats(out, &r.protocol);
    let snap = r.player.snapshot();
    put_u64(out, snap.packets_received);
    put_u64(out, snap.duplicate_packets);
    put_u32(out, snap.windows.len() as u32);
    for w in &snap.windows {
        put_u32(out, w.window);
        put_opt_time(out, w.decodable_at);
        put_u16(out, w.count);
        put_u16(out, w.received.len() as u16);
        for word in &w.received {
            put_u64(out, *word);
        }
    }
    put_u64(out, r.sent_bytes);
    put_u64(out, r.sent_msgs);
    put_u64(out, r.shaper_drops);
    put_u64(out, r.recv_msgs);
    put_u64(out, r.decode_errors);
}

/// Reads one [`NodeReport`], rebuilding its player against `config`.
///
/// # Errors
///
/// Fails on truncation, or if a window bitmask does not match `config`'s
/// window geometry (which means the two ends disagree on the spec).
pub fn decode_node_report(
    cur: &mut Cursor,
    config: &StreamConfig,
) -> Result<NodeReport, CodecError> {
    let id = NodeId::new(cur.u32()?);
    let protocol = decode_protocol_stats(cur)?;
    let packets_received = cur.u64()?;
    let duplicate_packets = cur.u64()?;
    let window_count = cur.u32()? as usize;
    let expected_words = config.window.total_packets().div_ceil(64);
    let mut windows = Vec::with_capacity(window_count.min(4096));
    let mut prev: Option<u32> = None;
    for _ in 0..window_count {
        let window = cur.u32()?;
        let decodable_at = read_opt_time(cur)?;
        let count = cur.u16()?;
        let words = cur.u16()? as usize;
        if words != expected_words {
            return Err(CodecError(format!(
                "node {id}: window {window} bitmask has {words} words, geometry needs \
                 {expected_words}"
            )));
        }
        if prev.is_some_and(|p| window <= p) {
            return Err(CodecError(format!("node {id}: windows not strictly sorted")));
        }
        prev = Some(window);
        let mut received = Vec::with_capacity(words);
        for _ in 0..words {
            received.push(cur.u64()?);
        }
        windows.push(WindowSnapshot { window, received, count, decodable_at });
    }
    let player = StreamPlayer::restore(
        *config,
        PlayerSnapshot { packets_received, duplicate_packets, windows },
    );
    Ok(NodeReport {
        id,
        protocol,
        player,
        sent_bytes: cur.u64()?,
        sent_msgs: cur.u64()?,
        shaper_drops: cur.u64()?,
        recv_msgs: cur.u64()?,
        decode_errors: cur.u64()?,
    })
}

/// Encodes a process's full report contribution: every hosted node's
/// [`NodeReport`] plus the per-shard I/O stats.
pub fn encode_process_reports(nodes: &[NodeReport], shards: &[ShardStats]) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 * nodes.len());
    put_u32(&mut out, nodes.len() as u32);
    for n in nodes {
        encode_node_report(&mut out, n);
    }
    put_u32(&mut out, shards.len() as u32);
    for s in shards {
        encode_shard_stats(&mut out, s);
    }
    out
}

/// Decodes a buffer produced by [`encode_process_reports`].
///
/// # Errors
///
/// Fails on truncation, trailing garbage, or geometry mismatch against
/// `config`.
pub fn decode_process_reports(
    bytes: &[u8],
    config: &StreamConfig,
) -> Result<(Vec<NodeReport>, Vec<ShardStats>), CodecError> {
    let mut cur = Cursor::new(bytes);
    let node_count = cur.u32()? as usize;
    let mut nodes = Vec::with_capacity(node_count.min(1 << 20));
    for _ in 0..node_count {
        nodes.push(decode_node_report(&mut cur, config)?);
    }
    let shard_count = cur.u32()? as usize;
    let mut shards = Vec::with_capacity(shard_count.min(4096));
    for _ in 0..shard_count {
        shards.push(decode_shard_stats(&mut cur)?);
    }
    if cur.remaining() != 0 {
        return Err(CodecError(format!("{} trailing bytes after reports", cur.remaining())));
    }
    Ok((nodes, shards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_stream::PacketId;

    fn sample_report(id: u32) -> NodeReport {
        let config = StreamConfig::test_small();
        let mut player = StreamPlayer::new(config);
        for i in 0..20u16 {
            player.on_packet(Time::from_millis(id as u64 * 100 + i as u64), PacketId::new(1, i));
        }
        player.on_packet(Time::from_millis(900), PacketId::new(3, 2));
        player.on_packet(Time::from_millis(900), PacketId::new(3, 2)); // duplicate
        let protocol = gossip_core::ProtocolStats {
            rounds: 7 + id as u64,
            events_delivered: 21,
            garbage_ids_rejected: 2,
            ..Default::default()
        };
        NodeReport {
            id: NodeId::new(id),
            protocol,
            player,
            sent_bytes: 10_000 + id as u64,
            sent_msgs: 55,
            shaper_drops: 1,
            recv_msgs: 60,
            decode_errors: 0,
        }
    }

    #[test]
    fn process_reports_roundtrip() {
        let config = StreamConfig::test_small();
        let nodes = vec![sample_report(0), sample_report(5)];
        let shards = vec![
            ShardStats { datagrams_sent: 9, send_syscalls: 3, ..Default::default() },
            ShardStats { datagrams_received: 4, backend_downgrades: 1, ..Default::default() },
        ];
        let bytes = encode_process_reports(&nodes, &shards);
        let (out_nodes, out_shards) = decode_process_reports(&bytes, &config).expect("decodes");

        assert_eq!(out_nodes.len(), 2);
        assert_eq!(out_shards.len(), 2);
        for (a, b) in nodes.iter().zip(&out_nodes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.player.snapshot(), b.player.snapshot());
            assert_eq!(a.sent_bytes, b.sent_bytes);
            assert_eq!(a.sent_msgs, b.sent_msgs);
            assert_eq!(a.shaper_drops, b.shaper_drops);
            assert_eq!(a.recv_msgs, b.recv_msgs);
            assert_eq!(a.decode_errors, b.decode_errors);
        }
        assert_eq!(out_shards[0].datagrams_sent, 9);
        assert_eq!(out_shards[1].backend_downgrades, 1);
    }

    /// The shard block is the counter table, row for row: as many `u64`s as
    /// the struct has fields (all of them are `u64` counters, so its size
    /// counts them), in table order. A counter added to the struct without
    /// a row — or a row without a field — fails here instead of silently
    /// missing from merged reports and live metrics.
    #[test]
    fn shard_block_is_the_counter_table_row_for_row() {
        let fields = std::mem::size_of::<ShardStats>() / std::mem::size_of::<u64>();
        assert_eq!(ShardStats::COUNTERS.len(), fields);

        let mut stats = ShardStats::default();
        for (i, counter) in ShardStats::COUNTERS.iter().enumerate() {
            *(counter.slot)(&mut stats) = i as u64 + 1;
        }
        let mut bytes = Vec::new();
        encode_shard_stats(&mut bytes, &stats);
        assert_eq!(bytes.len(), 4 + 8 * fields);

        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.u32().expect("count prefix") as usize, fields);
        for i in 0..fields {
            assert_eq!(cur.u64().expect("counter"), i as u64 + 1, "row {i} reads another field");
        }
        // The layout deployed workers already speak: first and last field.
        assert_eq!((stats.datagrams_sent, stats.backend_downgrades), (1, fields as u64));

        let mut doubled = decode_shard_stats(&mut Cursor::new(&bytes)).expect("decodes");
        doubled.merge(&stats);
        for counter in ShardStats::COUNTERS {
            assert_eq!((counter.get)(&doubled), 2 * (counter.get)(&stats), "{}", counter.name);
        }
    }

    #[test]
    fn truncated_buffer_is_an_error_not_a_panic() {
        let bytes = encode_process_reports(&[sample_report(2)], &[]);
        let config = StreamConfig::test_small();
        for cut in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_process_reports(&bytes[..cut], &config).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_process_reports(&[sample_report(1)], &[]);
        bytes.push(0xAB);
        assert!(decode_process_reports(&bytes, &StreamConfig::test_small()).is_err());
    }

    #[test]
    fn geometry_mismatch_is_reported_not_restored() {
        // Encoded against 20+4 (one bitmask word); decoded against a
        // geometry needing two words.
        let bytes = encode_process_reports(&[sample_report(1)], &[]);
        let wide = StreamConfig {
            rate_bps: 200_000,
            packet_payload_bytes: 500,
            window: gossip_fec::WindowParams::new(100, 9),
        };
        let err = decode_process_reports(&bytes, &wide).expect_err("must fail");
        assert!(err.0.contains("geometry"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_future_counters_are_skipped() {
        // A newer encoder appended a 21st protocol counter: bump the count
        // prefix and splice in one extra u64.
        let mut out = Vec::new();
        put_u32(&mut out, PROTOCOL_FIELDS + 1);
        let p = gossip_core::ProtocolStats { rounds: 3, ..Default::default() };
        for c in protocol_counters(&p) {
            put_u64(&mut out, c);
        }
        put_u64(&mut out, 999); // the future field
        put_u64(&mut out, 42); // sentinel following the block
        let mut cur = Cursor::new(&out);
        let decoded = decode_protocol_stats(&mut cur).expect("skips unknown");
        assert_eq!(decoded.rounds, 3);
        assert_eq!(cur.u64().expect("sentinel intact"), 42);
    }
}
