//! Binary codec for run reports crossing a process boundary.
//!
//! The deploy runtime (`gossip-deploy`) runs one cluster across several
//! processes; each `gossipd` ships its per-node [`NodeReport`]s and
//! per-shard [`crate::report::ShardStats`] to the coordinator over a
//! control socket, and the coordinator feeds the union through
//! [`crate::cluster::assemble_report`] exactly as if one process had hosted
//! everything. This module is the wire form of those reports: hand-rolled
//! little-endian framing (the workspace builds offline, so no serde).
//!
//! The protocol and shard counters travel as counter blocks: a row count,
//! then one `u64` per row of the struct's `COUNTERS` table (see
//! [`gossip_types::counters!`]), in table order. The codec names no counter
//! itself — a new field is on the wire as soon as it is declared — and the
//! count prefix lets a decoder skip rows a newer encoder appended.
//!
//! The [`gossip_stream::StreamConfig`] is deliberately *not* part of the
//! encoding: every process of one deployment derives it from the same spec,
//! and the decoder needs it to rebuild each
//! [`gossip_stream::StreamPlayer`] (whose bitmask geometry the snapshot
//! restore validates).

use gossip_core::ProtocolStats;
use gossip_stream::{PlayerSnapshot, StreamConfig, StreamPlayer, WindowSnapshot};
use gossip_types::{Counter, NodeId, Time};

use crate::report::{NodeReport, ShardStats};

/// Sentinel encoding `None` for an `Option<Time>` field ([`Time::MAX`] is
/// an "infinitely far" deadline, never a reception timestamp).
const TIME_NONE: u64 = u64::MAX;

/// The fewest bytes a [`NodeReport`] encodes to (one with no windows): id,
/// protocol counter block, two player counters, window count, five I/O
/// counters.
const NODE_REPORT_MIN_BYTES: usize = 4 + block_bytes(ProtocolStats::COUNTERS) + 8 + 8 + 4 + 5 * 8;
/// The bytes a [`ShardStats`] encodes to.
const SHARD_STATS_BYTES: usize = block_bytes(ShardStats::COUNTERS);

/// The bytes of a counter block: its count prefix, then one `u64` per row.
const fn block_bytes<S>(table: &[Counter<S>]) -> usize {
    4 + 8 * table.len()
}

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

/// A read position inside an encoded buffer (the deploy control protocol
/// reads its frame bodies with it too).
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

    /// Consumes the next `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let Some(bytes) = self.buf[self.pos..].get(..len) else {
            return Err(CodecError(format!(
                "truncated: wanted {len} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        };
        self.pos += len;
        Ok(bytes)
    }

    /// Consumes the next `N` bytes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.take().map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        self.take().map(u16::from_le_bytes)
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.take().map(u32::from_le_bytes)
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.take().map(u64::from_le_bytes)
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

/// Appends a counter block: the row count, then every row of `table`
/// read from `stats`, in table order.
fn put_counters<S>(out: &mut Vec<u8>, table: &[Counter<S>], stats: &S) {
    put_u32(out, table.len() as u32);
    for counter in table {
        put_u64(out, (counter.get)(stats));
    }
}

/// Reads a counter block written by [`put_counters`] against `table`,
/// skipping any trailing counters a newer encoder appended.
fn read_counters<S: Default>(cur: &mut Cursor, table: &[Counter<S>]) -> Result<S, CodecError> {
    let count = cur.u32()? as usize;
    if count < table.len() {
        return Err(CodecError(format!(
            "{}: encoder sent {count} counters, need {}",
            std::any::type_name::<S>(),
            table.len()
        )));
    }
    let mut stats = S::default();
    for counter in table {
        *(counter.slot)(&mut stats) = cur.u64()?;
    }
    for _ in table.len()..count {
        cur.u64()?;
    }
    Ok(stats)
}

/// Appends the wire form of one [`NodeReport`] (identity, protocol
/// counters, the full player snapshot, I/O counters).
pub fn encode_node_report(out: &mut Vec<u8>, r: &NodeReport) {
    put_u32(out, r.id.as_u32());
    put_counters(out, ProtocolStats::COUNTERS, &r.protocol);
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
    let protocol = read_counters(cur, ProtocolStats::COUNTERS)?;
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
        put_counters(&mut out, ShardStats::COUNTERS, s);
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
    // A count is the sender's claim: reserve only what the bytes left can hold.
    let node_count = cur.u32()? as usize;
    let mut nodes = Vec::with_capacity(node_count.min(cur.remaining() / NODE_REPORT_MIN_BYTES));
    for _ in 0..node_count {
        nodes.push(decode_node_report(&mut cur, config)?);
    }
    let shard_count = cur.u32()? as usize;
    let mut shards = Vec::with_capacity(shard_count.min(cur.remaining() / SHARD_STATS_BYTES));
    for _ in 0..shard_count {
        shards.push(read_counters(&mut cur, ShardStats::COUNTERS)?);
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
    fn a_report_without_windows_encodes_to_the_floor() {
        let mut report = sample_report(1);
        report.player = StreamPlayer::new(StreamConfig::test_small());
        let mut bytes = Vec::new();
        encode_node_report(&mut bytes, &report);
        assert_eq!(bytes.len(), NODE_REPORT_MIN_BYTES);
        put_counters(&mut bytes, ShardStats::COUNTERS, &ShardStats::default());
        assert_eq!(bytes.len(), NODE_REPORT_MIN_BYTES + SHARD_STATS_BYTES);
    }

    #[test]
    fn process_reports_roundtrip() {
        let config = StreamConfig::test_small();
        let nodes = vec![sample_report(0), sample_report(5)];
        let shards = vec![
            ShardStats { datagrams_sent: 9, send_syscalls: 3, ..Default::default() },
            ShardStats { datagrams_received: 4, socket_rebinds: 1, ..Default::default() },
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
        assert_eq!(out_shards[1].socket_rebinds, 1);
    }

    /// A counter table is its struct, row for row: one row per field (every
    /// field is a `u64` counter, so the size counts them), row `i` reading
    /// and writing field `i` in declaration order (the order the derived
    /// `Debug` prints), a counter block of the rows in table order, and a
    /// `merge` that adds every row. A field without a row, a row on the
    /// wrong field or a skipped merge fails here instead of going missing
    /// from merged reports, the codec and live metrics.
    fn assert_table_is_the_struct<S: Default + std::fmt::Debug>(
        table: &[Counter<S>],
        merge: fn(&mut S, &S),
    ) {
        let fields = std::mem::size_of::<S>() / std::mem::size_of::<u64>();
        assert_eq!(table.len(), fields, "{}", std::any::type_name::<S>());

        let mut stats = S::default();
        for (i, counter) in table.iter().enumerate() {
            *(counter.slot)(&mut stats) = i as u64 + 1;
        }
        // `Name { field: value, … }`, fields in declaration order.
        let debug = format!("{stats:?}");
        let inner = debug.split_once(" { ").and_then(|(_, rest)| rest.strip_suffix(" }"));
        let printed: Vec<(&str, &str)> = inner
            .expect("a braced struct")
            .split(", ")
            .map(|pair| pair.split_once(": ").expect("field: value"))
            .collect();
        assert_eq!(printed.len(), fields, "{debug}");
        for (i, (counter, (field, value))) in table.iter().zip(printed).enumerate() {
            assert_eq!(value, (i + 1).to_string(), "row {i} ({}) writes `{field}`", counter.name);
            assert_eq!((counter.get)(&stats), i as u64 + 1, "row {i} reads another field");
            if counter.help.is_empty() {
                assert_eq!(counter.name, field, "an unpublished row is named after its field");
            }
        }

        let mut bytes = Vec::new();
        put_counters(&mut bytes, table, &stats);
        assert_eq!(bytes.len(), block_bytes(table));
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.u32().expect("count prefix") as usize, fields);
        for i in 0..fields {
            assert_eq!(cur.u64().expect("counter"), i as u64 + 1, "block slot {i}");
        }

        let mut doubled: S = read_counters(&mut Cursor::new(&bytes), table).expect("decodes");
        merge(&mut doubled, &stats);
        for counter in table {
            assert_eq!((counter.get)(&doubled), 2 * (counter.get)(&stats), "{}", counter.name);
        }
    }

    #[test]
    fn every_counter_table_is_its_struct_row_for_row() {
        assert_table_is_the_struct(ProtocolStats::COUNTERS, ProtocolStats::merge);
        assert_table_is_the_struct(gossip_net::NetStats::COUNTERS, gossip_net::NetStats::merge);
        assert_table_is_the_struct(ShardStats::COUNTERS, ShardStats::merge);
    }

    /// The bytes of a process report, pinned: every counter of the
    /// protocol block, the shard block and the node's I/O block holds a
    /// distinct value (field `i` = `i + 1` in declaration order), and the
    /// player carries windows, so moving, dropping or reordering any field
    /// of the wire form moves the digest.
    #[test]
    fn process_report_bytes_are_pinned() {
        let protocol = gossip_core::ProtocolStats {
            rounds: 1,
            proposes_sent: 2,
            proposes_received: 3,
            duplicate_ids_proposed: 4,
            requests_sent: 5,
            requests_received: 6,
            unservable_ids: 7,
            serves_sent: 8,
            serves_received: 9,
            events_delivered: 10,
            duplicate_events_received: 11,
            retransmit_requests: 12,
            feedmes_sent: 13,
            feedmes_received: 14,
            feedmes_adopted: 15,
            corrupted_events_detected: 16,
            corrupt_rerequests: 17,
            peers_demoted: 18,
            proposes_from_demoted_ignored: 19,
            garbage_ids_rejected: 20,
        };
        let shard = ShardStats {
            datagrams_sent: 1,
            send_syscalls: 2,
            kernel_sent: 3,
            send_drops: 4,
            datagrams_received: 5,
            recv_syscalls: 6,
            kernel_received: 7,
            recv_capacity: 8,
            frame_errors: 9,
            encode_errors: 10,
            iterations: 11,
            faults_injected: 12,
            transients_recovered: 13,
            send_backoffs: 14,
            datagrams_shed: 15,
            socket_rebinds: 16,
        };
        // Window 2 becomes decodable; 0, 1 and 4 stay partial; one duplicate.
        let mut player = StreamPlayer::new(StreamConfig::test_small());
        let packets = [(0, 0), (0, 5), (1, 3), (4, 1), (4, 1)].into_iter();
        for (window, index) in packets.chain((0..20).map(|i| (2, i))) {
            player
                .on_packet(Time::from_millis(40 * u64::from(index)), PacketId::new(window, index));
        }
        let node = NodeReport {
            id: NodeId::new(3),
            protocol,
            player,
            sent_bytes: 1,
            sent_msgs: 2,
            shaper_drops: 3,
            recv_msgs: 4,
            decode_errors: 5,
        };
        let bytes = encode_process_reports(&[node], &[shard]);
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        // Moved from (472, 0x2f6a_f95c_4830_12ca) when `ShardStats` lost its
        // last row, `backend_downgrades`: the shard block's count prefix
        // reads 16, not 17, and its 8-byte value is gone. Every other byte is
        // as it was — restoring the prefix and the row reproduces the old pin.
        assert_eq!((bytes.len(), digest), (464, 0xbe42_7790_aae0_9cea), "digest {digest:#018x}");
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
        // A newer encoder appended one protocol counter: bump the count
        // prefix and splice in one extra u64.
        let p = ProtocolStats { rounds: 3, garbage_ids_rejected: 5, ..Default::default() };
        let mut out = Vec::new();
        put_counters(&mut out, ProtocolStats::COUNTERS, &p);
        out[..4].copy_from_slice(&(ProtocolStats::COUNTERS.len() as u32 + 1).to_le_bytes());
        put_u64(&mut out, 999); // the future field
        put_u64(&mut out, 42); // sentinel following the block
        let mut cur = Cursor::new(&out);
        let decoded: ProtocolStats =
            read_counters(&mut cur, ProtocolStats::COUNTERS).expect("skips unknown");
        assert_eq!(decoded, p);
        assert_eq!(cur.u64().expect("sentinel intact"), 42);
    }
}
