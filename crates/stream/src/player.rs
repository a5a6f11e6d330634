//! Receiver-side window tracking.

use std::cell::Cell;

use gossip_types::Time;

use crate::config::StreamConfig;
use crate::packet::PacketId;

/// Reception state of one window: 16 bytes, its received bits kept apart
/// in the player's bit plane.
#[derive(Debug, Clone, Copy)]
struct WindowRecord {
    /// The window number.
    window: u32,
    /// Distinct packets received.
    count: u16,
    /// When the window first became decodable (count reached `k`);
    /// [`Time::MAX`] while it has not.
    decodable_at: Time,
}

impl WindowRecord {
    /// When the window became decodable, if it has.
    fn decodable_at(&self) -> Option<Time> {
        (self.decodable_at != Time::MAX).then_some(self.decodable_at)
    }
}

/// Tracks, per window, when the stream became decodable at one node.
///
/// The player does not keep payload bytes: decodability is a pure counting
/// property of a maximum-distance-separable code (any `k` of `k + r` packets
/// reconstruct the window — proven against the real Reed–Solomon
/// implementation in `gossip-fec`'s tests). The UDP runtime performs actual
/// reconstruction; the simulation tracks only arrival times, which is what
/// every figure of the paper is computed from.
///
/// A window it has heard of costs two array slots and no allocation of its
/// own: a 16-byte record in one sorted `Vec`, and `total_packets / 64`
/// (rounded up) words of received bits at the same position in one bit
/// plane.
///
/// # Examples
///
/// ```
/// use gossip_stream::{PacketId, StreamConfig, StreamPlayer};
/// use gossip_types::Time;
///
/// let config = StreamConfig::test_small(); // windows of 20 + 4
/// let mut player = StreamPlayer::new(config);
/// for i in 0..20 {
///     player.on_packet(Time::from_millis(i as u64), PacketId::new(0, i));
/// }
/// assert_eq!(player.window_decodable_at(0), Some(Time::from_millis(19)));
/// ```
#[derive(Debug)]
pub struct StreamPlayer {
    config: StreamConfig,
    /// Records sorted by window number. Packet arrivals cluster by window,
    /// so a one-entry cursor cache makes the per-packet lookup two array
    /// indexings (binary-search fallback for jumps) — this runs once per
    /// delivered packet, millions of times per run.
    windows: Vec<WindowRecord>,
    /// Received-packet bits: `words` words per record, in record order.
    received: Vec<u64>,
    /// Words of `received` per window: `total_packets` bits, rounded up.
    words: usize,
    /// Index into `windows` of the most recently accessed window.
    cursor: Cell<usize>,
    packets_received: u64,
    duplicate_packets: u64,
}

impl StreamPlayer {
    /// Creates an empty player for the given stream.
    pub fn new(config: StreamConfig) -> Self {
        StreamPlayer {
            config,
            windows: Vec::new(),
            received: Vec::new(),
            words: config.window.total_packets().div_ceil(64),
            cursor: Cell::new(0),
            packets_received: 0,
            duplicate_packets: 0,
        }
    }

    /// Locates `window`'s record: `Ok(position)` if present, `Err(insertion
    /// point)` otherwise.
    #[inline]
    fn locate(&self, window: u32) -> Result<usize, usize> {
        if let Some(record) = self.windows.get(self.cursor.get()) {
            if record.window == window {
                return Ok(self.cursor.get());
            }
        }
        let found = self.windows.binary_search_by_key(&window, |r| r.window);
        if let Ok(i) = found {
            self.cursor.set(i);
        }
        found
    }

    /// The record of `window`, if any packet of it arrived.
    fn record(&self, window: u32) -> Option<&WindowRecord> {
        self.locate(window).ok().map(|i| &self.windows[i])
    }

    /// Returns the stream configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Records the arrival of a packet at `now`. Returns `true` if the
    /// packet was new.
    ///
    /// # Panics
    ///
    /// Panics if the packet index is outside the configured window geometry.
    pub fn on_packet(&mut self, now: Time, id: PacketId) -> bool {
        let index = id.index as usize;
        assert!(
            index < self.config.window.total_packets(),
            "packet index {id} outside window geometry"
        );
        let i = match self.locate(id.window) {
            Ok(i) => i,
            Err(i) => {
                let record = WindowRecord { window: id.window, count: 0, decodable_at: Time::MAX };
                self.windows.insert(i, record);
                let at = i * self.words;
                self.received.splice(at..at, std::iter::repeat_n(0, self.words));
                self.cursor.set(i);
                i
            }
        };
        let (word, bit) = (&mut self.received[i * self.words + index / 64], 1 << (index % 64));
        if *word & bit != 0 {
            self.duplicate_packets += 1;
            return false;
        }
        *word |= bit;
        self.packets_received += 1;
        let record = &mut self.windows[i];
        record.count += 1;
        if record.decodable_at == Time::MAX
            && self.config.window.is_decodable(record.count as usize)
        {
            record.decodable_at = now;
        }
        true
    }

    /// Returns when `window` became decodable, or `None` if it has not.
    pub fn window_decodable_at(&self, window: u32) -> Option<Time> {
        self.record(window).and_then(WindowRecord::decodable_at)
    }

    /// Returns how many distinct packets of `window` arrived.
    pub fn packets_in_window(&self, window: u32) -> usize {
        self.record(window).map_or(0, |r| r.count as usize)
    }

    /// Returns which packets of `window` arrived — packet index `i` is bit
    /// `i % 64` of word `i / 64` — or `None` if none did.
    pub fn window_bits(&self, window: u32) -> Option<&[u64]> {
        let i = self.locate(window).ok()?;
        Some(&self.received[i * self.words..(i + 1) * self.words])
    }

    /// Returns the total number of distinct packets received.
    pub fn packets_received(&self) -> u64 {
        self.packets_received
    }

    /// Returns the number of duplicate packet receptions.
    pub fn duplicate_packets(&self) -> u64 {
        self.duplicate_packets
    }

    /// Returns the highest window number with any reception.
    pub fn highest_window(&self) -> Option<u32> {
        self.windows.last().map(|r| r.window)
    }

    /// Returns `(decodable, observed)` window counts — the live
    /// completeness gauge of the telemetry layer. One linear pass over
    /// the window records (no per-window lookup), cheap enough to call at
    /// a sampling cadence.
    pub fn windows_decodable(&self) -> (usize, usize) {
        let decodable = self.windows.iter().filter(|r| r.decodable_at != Time::MAX).count();
        (decodable, self.windows.len())
    }

    /// Captures the player's complete reception state as plain data, for
    /// serialization across a process boundary (the deploy runtime ships
    /// per-node reports to its coordinator over a control socket).
    pub fn snapshot(&self) -> PlayerSnapshot {
        PlayerSnapshot {
            packets_received: self.packets_received,
            duplicate_packets: self.duplicate_packets,
            windows: self
                .windows
                .iter()
                .zip(self.received.chunks_exact(self.words))
                .map(|(r, bits)| WindowSnapshot {
                    window: r.window,
                    received: bits.to_vec(),
                    count: r.count,
                    decodable_at: r.decodable_at(),
                })
                .collect(),
        }
    }

    /// Rebuilds a player from a [`StreamPlayer::snapshot`]. The stream
    /// configuration is not part of the snapshot — every process of one
    /// cluster derives it from the same spec — so the caller supplies it.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's windows are not strictly sorted or a
    /// bitmask does not match the configured window geometry: a snapshot
    /// that violates either was corrupted in transit.
    pub fn restore(config: StreamConfig, snapshot: PlayerSnapshot) -> Self {
        let mut player = StreamPlayer::new(config);
        player.windows.reserve_exact(snapshot.windows.len());
        player.received.reserve_exact(snapshot.windows.len() * player.words);
        for ws in snapshot.windows {
            assert_eq!(ws.received.len(), player.words, "bitmask does not match window geometry");
            if let Some(last) = player.highest_window() {
                assert!(ws.window > last, "snapshot windows must be strictly sorted");
            }
            player.windows.push(WindowRecord {
                window: ws.window,
                count: ws.count,
                decodable_at: ws.decodable_at.unwrap_or(Time::MAX),
            });
            player.received.extend_from_slice(&ws.received);
        }
        player.packets_received = snapshot.packets_received;
        player.duplicate_packets = snapshot.duplicate_packets;
        player
    }
}

/// Plain-data image of a [`StreamPlayer`] (see [`StreamPlayer::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlayerSnapshot {
    /// Total distinct packets received.
    pub packets_received: u64,
    /// Duplicate packet receptions.
    pub duplicate_packets: u64,
    /// Per-window reception state, sorted by window number.
    pub windows: Vec<WindowSnapshot>,
}

/// One window's reception state inside a [`PlayerSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// The window number.
    pub window: u32,
    /// Bitmask of received packet indices (`total_packets` bits).
    pub received: Vec<u64>,
    /// Distinct packets received.
    pub count: u16,
    /// When the window first became decodable, if it did.
    pub decodable_at: Option<Time>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_player() -> StreamPlayer {
        StreamPlayer::new(StreamConfig::test_small()) // 20 data + 4 parity
    }

    #[test]
    fn a_window_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<WindowRecord>(), 16);
    }

    #[test]
    fn window_becomes_decodable_at_kth_distinct_packet() {
        let mut p = small_player();
        // 17 data + 2 parity = 19 packets: not decodable yet.
        for i in 0..17u16 {
            p.on_packet(Time::from_millis(i as u64), PacketId::new(0, i));
        }
        p.on_packet(Time::from_millis(100), PacketId::new(0, 20));
        p.on_packet(Time::from_millis(101), PacketId::new(0, 21));
        assert_eq!(p.window_decodable_at(0), None);
        assert_eq!(p.packets_in_window(0), 19);
        // The 20th distinct packet tips it over.
        p.on_packet(Time::from_millis(200), PacketId::new(0, 18));
        assert_eq!(p.window_decodable_at(0), Some(Time::from_millis(200)));
    }

    #[test]
    fn decodable_time_does_not_move_with_later_packets() {
        let mut p = small_player();
        for i in 0..20u16 {
            p.on_packet(Time::from_millis(i as u64), PacketId::new(0, i));
        }
        let first = p.window_decodable_at(0);
        p.on_packet(Time::from_secs(99), PacketId::new(0, 20));
        assert_eq!(p.window_decodable_at(0), first);
    }

    #[test]
    fn duplicates_are_counted_but_ignored() {
        let mut p = small_player();
        assert!(p.on_packet(Time::ZERO, PacketId::new(0, 0)));
        assert!(!p.on_packet(Time::ZERO, PacketId::new(0, 0)));
        assert_eq!(p.packets_received(), 1);
        assert_eq!(p.duplicate_packets(), 1);
        assert_eq!(p.packets_in_window(0), 1);
    }

    #[test]
    fn windows_are_independent() {
        let mut p = small_player();
        for i in 0..20u16 {
            p.on_packet(Time::from_millis(i as u64), PacketId::new(3, i));
        }
        assert_eq!(p.window_decodable_at(3), Some(Time::from_millis(19)));
        assert_eq!(p.window_decodable_at(0), None);
        assert_eq!(p.packets_in_window(2), 0);
        assert_eq!(p.highest_window(), Some(3));
    }

    #[test]
    #[should_panic(expected = "outside window geometry")]
    fn out_of_geometry_index_panics() {
        let mut p = small_player();
        p.on_packet(Time::ZERO, PacketId::new(0, 24));
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let mut p = small_player();
        for i in 0..20u16 {
            p.on_packet(Time::from_millis(i as u64), PacketId::new(0, i));
        }
        p.on_packet(Time::from_millis(30), PacketId::new(2, 3));
        p.on_packet(Time::from_millis(30), PacketId::new(2, 3)); // duplicate
        let snap = p.snapshot();
        let restored = StreamPlayer::restore(StreamConfig::test_small(), snap.clone());
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.window_decodable_at(0), p.window_decodable_at(0));
        assert_eq!(restored.packets_in_window(2), 1);
        assert_eq!(restored.packets_received(), p.packets_received());
        assert_eq!(restored.duplicate_packets(), 1);
        assert_eq!(restored.highest_window(), Some(2));
    }

    #[test]
    #[should_panic(expected = "window geometry")]
    fn snapshot_with_wrong_geometry_is_rejected() {
        let snap = PlayerSnapshot {
            packets_received: 0,
            duplicate_packets: 0,
            windows: vec![WindowSnapshot {
                window: 0,
                received: vec![0u64; 9],
                count: 0,
                decodable_at: None,
            }],
        };
        let _ = StreamPlayer::restore(StreamConfig::test_small(), snap);
    }

    #[test]
    fn parity_packets_count_toward_decodability() {
        let mut p = small_player();
        // 16 data + 4 parity = 20 distinct ≥ k: decodable (MDS property).
        for i in 0..16u16 {
            p.on_packet(Time::from_millis(i as u64), PacketId::new(0, i));
        }
        for i in 20..24u16 {
            p.on_packet(Time::from_millis(50 + i as u64), PacketId::new(0, i));
        }
        assert!(p.window_decodable_at(0).is_some());
    }
}
