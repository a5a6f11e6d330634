//! Datagram framing and node placement for shared sockets.
//!
//! A reactor socket carries traffic for many virtual nodes, and one kernel
//! datagram may carry several protocol datagrams (send coalescing): the
//! payload is a sequence of length-delimited frames, each prefixed with
//! its destination node id:
//!
//! ```text
//! [ dest: u32 LE ][ len: u16 LE ][ standard gossip_core::wire datagram ]  × k
//! ```
//!
//! A sending shard appends every frame a wake produced for the same
//! destination *address* (one per shard, shared by all of its nodes) into
//! one buffer and hands the kernel one datagram for the lot; the receiving
//! shard walks the frames and routes each on its prefix. The framing is
//! runtime overhead, not protocol bytes: the upload link charges only the
//! inner (unframed) wire size, so pacing does not depend on how frames
//! were packed.
//!
//! The placement scheme is striped across shards: node `g` lives on shard
//! `g % shards` at local index `g / shards`, which spreads both the
//! source's neighbours and the aggregate load uniformly, and lets a shard
//! map an incoming destination id to its local slot with two integer
//! divisions — no table. Within a shard every node has one address, its
//! shard's first pool socket: a peer's wake packs everything it has for
//! the shard's nodes into one run of datagrams. The address only says
//! where a frame is *sent*; the shard polls and drains its whole pool and
//! routes every frame on its prefix, whichever socket it landed on.

use gossip_types::NodeId;

/// Byte length of one frame header (destination id + payload length).
pub const HEADER_LEN: usize = 6;

/// Appends one frame (header + wire bytes) onto `buf` without clearing it,
/// so callers can pack several frames into one datagram.
///
/// Returns `false` — leaving `buf` untouched — if `wire` exceeds the
/// `u16::MAX`-byte frame limit. The protocol's MTU-sized serve datagrams
/// sit an order of magnitude below it, so an oversized wire is a bug in
/// the caller; the shard counts it as an encode error instead of
/// panicking mid-run.
#[must_use]
pub fn append_frame(buf: &mut Vec<u8>, dest: NodeId, wire: &[u8]) -> bool {
    let Ok(len) = u16::try_from(wire.len()) else {
        return false;
    };
    buf.extend_from_slice(&dest.as_u32().to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(wire);
    true
}

/// Iterates the frames of a received datagram as `(destination, wire)`
/// pairs. Malformation is salvaged deterministically: every intact leading
/// frame is yielded, and the first truncated or runt tail — a frame header
/// cut short, or a length running past the datagram end — stops the walk
/// and raises [`Frames::malformed`] so the shard can count it. A fully
/// consumed datagram ends the walk with the flag clear.
pub fn frames(datagram: &[u8]) -> Frames<'_> {
    Frames { rest: datagram, malformed: false }
}

/// Iterator over the frames of one datagram (see [`frames`]).
pub struct Frames<'a> {
    rest: &'a [u8],
    malformed: bool,
}

impl Frames<'_> {
    /// Whether the walk hit malformed framing (meaningful once the
    /// iterator is exhausted). The intact frames before the damage were
    /// still yielded.
    pub fn malformed(&self) -> bool {
        self.malformed
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (NodeId, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        if self.rest.len() < HEADER_LEN {
            self.rest = &[];
            self.malformed = true;
            return None; // runt tail: shorter than one frame header
        }
        let (header, body) = self.rest.split_at(HEADER_LEN);
        let dest = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let len = usize::from(u16::from_le_bytes([header[4], header[5]]));
        if body.len() < len {
            self.rest = &[];
            self.malformed = true;
            return None; // truncated final frame: dropped
        }
        let (wire, rest) = body.split_at(len);
        self.rest = rest;
        Some((NodeId::new(dest), wire))
    }
}

/// The contiguous slice of the global id space one process hosts, and how
/// that slice stripes across the process's worker shards.
///
/// A single-process run hosts the whole id space (`lo = 0`, `hi = n`); a
/// deployed `gossipd` hosts `[lo, hi)` while its peers host the rest. The
/// striping arithmetic is the same two integer divisions as the free
/// functions below, applied after rebasing ids to the slice — so placement
/// stays table-free and a shard can route any *hosted* destination id in
/// constant time, while ids outside the slice simply resolve to a remote
/// process's socket address in the global address book.
///
/// # Examples
///
/// ```
/// use gossip_reactor::demux::Placement;
///
/// // The middle third of a 96-node cluster, striped over 2 shards.
/// let p = Placement::slice(32, 64, 2);
/// assert!(p.contains(33) && !p.contains(64));
/// assert_eq!(p.hosted(), 32);
/// assert_eq!(p.global_of(p.shard_of(47), p.local_of(47)), 47);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// First hosted global id (inclusive).
    pub lo: u32,
    /// One past the last hosted global id.
    pub hi: u32,
    /// Worker shards the slice stripes across.
    pub shards: usize,
}

impl Placement {
    /// The whole id space of an `n`-node cluster (single-process hosting).
    pub fn whole(n: usize, shards: usize) -> Self {
        Placement::slice(0, n as u32, shards)
    }

    /// The slice `[lo, hi)`, striped over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or zero shards.
    pub fn slice(lo: u32, hi: u32, shards: usize) -> Self {
        assert!(hi > lo, "a placement must host at least one node");
        assert!(shards >= 1, "a placement needs at least one shard");
        Placement { lo, hi, shards }
    }

    /// Number of nodes this process hosts.
    pub fn hosted(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether global node `g` lives in this process.
    pub fn contains(&self, g: u32) -> bool {
        (self.lo..self.hi).contains(&g)
    }

    /// The shard hosting global node `g` (`g` must be contained).
    pub fn shard_of(&self, g: u32) -> usize {
        shard_of(g - self.lo, self.shards)
    }

    /// The local slot of global node `g` within its shard.
    pub fn local_of(&self, g: u32) -> usize {
        local_of(g - self.lo, self.shards)
    }

    /// The global id of `shard`'s `local`-th hosted node.
    pub fn global_of(&self, shard: usize, local: usize) -> u32 {
        self.lo + global_of(shard, local, self.shards)
    }
}

/// Returns the shard hosting global node `g`.
pub fn shard_of(g: u32, shards: usize) -> usize {
    g as usize % shards
}

/// Returns the local slot of global node `g` within its shard.
pub fn local_of(g: u32, shards: usize) -> usize {
    g as usize / shards
}

/// Returns the global id of a shard's `local`-th node.
pub fn global_of(shard: usize, local: usize, shards: usize) -> u32 {
    (local * shards + shard) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_roundtrip() {
        let mut buf = Vec::new();
        assert!(append_frame(&mut buf, NodeId::new(0xAABBCCDD), b"hello"));
        let mut it = frames(&buf);
        let (dest, wire) = it.next().expect("well-formed");
        assert_eq!(dest, NodeId::new(0xAABBCCDD));
        assert_eq!(wire, b"hello");
        assert!(it.next().is_none());
    }

    #[test]
    fn coalesced_frames_roundtrip_in_order() {
        let mut buf = Vec::new();
        assert!(append_frame(&mut buf, NodeId::new(1), b"first"));
        assert!(append_frame(&mut buf, NodeId::new(2), b""));
        assert!(append_frame(&mut buf, NodeId::new(3), &[7u8; 1400]));
        let got: Vec<(NodeId, usize)> = frames(&buf).map(|(d, w)| (d, w.len())).collect();
        assert_eq!(got, vec![(NodeId::new(1), 5), (NodeId::new(2), 0), (NodeId::new(3), 1400)]);
    }

    #[test]
    fn runt_and_truncated_tails_are_dropped() {
        assert_eq!(frames(&[1, 2, 3]).count(), 0);
        assert_eq!(frames(&[]).count(), 0);
        let mut buf = Vec::new();
        assert!(append_frame(&mut buf, NodeId::new(1), b"ok"));
        assert!(append_frame(&mut buf, NodeId::new(2), b"gone"));
        buf.truncate(buf.len() - 2); // cut the last frame short
        let got: Vec<NodeId> = frames(&buf).map(|(d, _)| d).collect();
        assert_eq!(got, vec![NodeId::new(1)], "only the intact frame survives");
    }

    #[test]
    fn frame_length_boundary_is_exact() {
        // 65535 bytes is the last wire that fits the u16 length field;
        // 65536 must be rejected without touching the buffer.
        let mut buf = Vec::new();
        assert!(append_frame(&mut buf, NodeId::new(1), &vec![0xAA; 65_535]));
        let (dest, wire) = frames(&buf).next().expect("well-formed");
        assert_eq!(dest, NodeId::new(1));
        assert_eq!(wire.len(), 65_535);

        let len_before = buf.len();
        assert!(!append_frame(&mut buf, NodeId::new(2), &vec![0xBB; 65_536]));
        assert_eq!(buf.len(), len_before, "a rejected frame leaves the buffer untouched");
        let got: Vec<NodeId> = frames(&buf).map(|(d, _)| d).collect();
        assert_eq!(got, vec![NodeId::new(1)], "the earlier frame still parses");
    }

    /// Walks a datagram to exhaustion, returning the salvaged frames and
    /// the malformation verdict.
    fn walk(datagram: &[u8]) -> (Vec<(NodeId, Vec<u8>)>, bool) {
        let mut it = frames(datagram);
        let got: Vec<(NodeId, Vec<u8>)> = it.by_ref().map(|(d, w)| (d, w.to_vec())).collect();
        (got, it.malformed())
    }

    #[test]
    fn well_formed_datagrams_clear_the_malformed_flag() {
        let (got, malformed) = walk(&[]);
        assert!(got.is_empty());
        assert!(!malformed, "an empty datagram is vacuously well-formed");

        let mut buf = Vec::new();
        assert!(append_frame(&mut buf, NodeId::new(5), b"payload"));
        assert!(append_frame(&mut buf, NodeId::new(6), b"")); // zero-length frame is legal
        let (got, malformed) = walk(&buf);
        assert_eq!(got.len(), 2);
        assert_eq!(got[1], (NodeId::new(6), Vec::new()));
        assert!(!malformed);
    }

    #[test]
    fn truncated_header_is_malformed_after_salvage() {
        let mut buf = Vec::new();
        assert!(append_frame(&mut buf, NodeId::new(1), b"keep"));
        buf.extend_from_slice(&[9, 9, 9]); // 3 trailing garbage bytes: a runt header
        let (got, malformed) = walk(&buf);
        assert_eq!(got, vec![(NodeId::new(1), b"keep".to_vec())], "intact prefix salvaged");
        assert!(malformed, "the runt tail must be flagged");
    }

    #[test]
    fn length_past_datagram_end_is_malformed() {
        let mut buf = Vec::new();
        assert!(append_frame(&mut buf, NodeId::new(1), b"keep"));
        // Hand-craft a header whose length field overruns the datagram.
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&1000u16.to_le_bytes());
        buf.extend_from_slice(b"short");
        let (got, malformed) = walk(&buf);
        assert_eq!(got, vec![(NodeId::new(1), b"keep".to_vec())]);
        assert!(malformed);
    }

    #[test]
    fn salvage_is_deterministic() {
        // The same damaged datagram walks identically every time: same
        // salvage, same verdict — no state leaks between iterations.
        let mut buf = Vec::new();
        assert!(append_frame(&mut buf, NodeId::new(1), b"a"));
        assert!(append_frame(&mut buf, NodeId::new(2), b"bb"));
        buf.truncate(buf.len() - 1);
        let first = walk(&buf);
        for _ in 0..5 {
            assert_eq!(walk(&buf), first);
        }
        assert!(first.1);
        assert_eq!(first.0.len(), 1);
    }

    #[test]
    fn sliced_placement_is_a_bijection_over_its_slice() {
        let p = Placement::slice(40, 97, 3);
        assert_eq!(p.hosted(), 57);
        assert!(!p.contains(39) && p.contains(40) && p.contains(96) && !p.contains(97));
        let mut seen = std::collections::HashSet::new();
        for g in 40..97u32 {
            let (s, l) = (p.shard_of(g), p.local_of(g));
            assert!(s < 3);
            assert_eq!(p.global_of(s, l), g);
            assert!(seen.insert((s, l)), "slot collision at {g}");
        }
    }

    #[test]
    fn whole_placement_matches_the_free_functions() {
        let p = Placement::whole(1000, 4);
        for g in 0..1000u32 {
            assert_eq!(p.shard_of(g), shard_of(g, 4));
            assert_eq!(p.local_of(g), local_of(g, 4));
        }
    }

    #[test]
    fn placement_is_a_bijection() {
        let (shards, n) = (3usize, 1000u32);
        for g in 0..n {
            let s = shard_of(g, shards);
            let l = local_of(g, shards);
            assert_eq!(global_of(s, l, shards), g);
        }
        // Shard loads differ by at most one node.
        let mut counts = vec![0usize; shards];
        for g in 0..n {
            counts[shard_of(g, shards)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "striping must balance shards: {counts:?}");
    }
}
