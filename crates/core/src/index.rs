//! Dense, window-major storage for per-event protocol state.
//!
//! A node keeps one record for every event id it ever hears of (request
//! state, alternate proposer, the payload while it is retained), keyed by
//! that id. Real stream ids are *dense*: a `PacketId`-style id is a
//! `(window, index)` pair with consecutive windows and indices
//! `0..total_packets` — morally `window * total_packets + index`. Hashing
//! such keys through a `HashMap` pays a hash + probe on every proposed,
//! requested and served id, millions of times per simulated run.
//!
//! [`DenseMap`] exploits the structure instead: ids map to a *window row*
//! (a `Vec` indexed by the minor coordinate), so the hot lookups are two
//! array indexings. Rows are found through a one-entry cursor cache (nearly
//! all consecutive accesses hit the same window) with a binary search
//! fallback, so arbitrary — even adversarially sparse — key spaces stay
//! safe: memory is proportional to the number of *distinct windows
//! touched*, never to the numeric span of the keys.
//!
//! A slot is an `Option<V>` and nothing else: the key is the slot's
//! position, so it is not stored, and a `V` with a niche (the node's record
//! leads with a `NonZeroU64`) makes the `Option` free. What a node pays per
//! id is `size_of::<V>()`.
//!
//! [`EventIndex`] is the small trait an id type implements to opt in:
//! `PacketId` splits into `(window, index)` in `gossip-stream`; plain `u64`
//! test ids get a fallback that treats the high bits as the window.
//!
//! [`TokenSlab`] is the analogous structure for retransmission timers,
//! whose [`TimerToken`](crate::TimerToken)s are issued sequentially: a ring
//! of `Option<T>` slots addressed by `token - base`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// Maps an event id onto dense `(window, offset)` coordinates.
///
/// Requirements: the mapping must be injective (distinct ids map to
/// distinct coordinates), and for storage to actually be dense, ids that
/// are close in stream order should share a window and occupy small
/// offsets. Offsets are memory-proportional: an id mapping to offset `k`
/// makes its window's row grow to `k + 1` entries.
pub trait EventIndex: Copy {
    /// Returns the `(window, offset)` coordinates of this id.
    fn dense_key(&self) -> (u64, u32);
}

/// Fallback for plain integer ids (e.g. [`TestEvent`](crate::TestEvent)):
/// 256 consecutive ids share a window.
impl EventIndex for u64 {
    #[inline]
    fn dense_key(&self) -> (u64, u32) {
        (self >> 8, (self & 0xFF) as u32)
    }
}

/// One window row: the entries of every id sharing a window, each at its
/// id's offset.
type Row<V> = Vec<Option<V>>;

/// A map from event ids to values, stored window-major.
///
/// See the [module documentation](self) for the design rationale. The API
/// mirrors the subset of `HashMap` the protocol needs.
pub struct DenseMap<K, V> {
    /// `(window, row)` pairs sorted by window number.
    rows: Vec<(u64, Row<V>)>,
    /// Index into `rows` of the most recently accessed window (a cache;
    /// interior mutability keeps the read API `&self`).
    cursor: Cell<usize>,
    len: usize,
    /// Longest row length observed so far. New rows pre-allocate this much
    /// capacity: windows have a fixed geometry in practice, so after the
    /// first window has grown organically every later row allocates exactly
    /// once instead of reallocating its way up.
    max_row: usize,
    /// Keys are coordinates, not contents.
    key: PhantomData<fn(K)>,
}

impl<K, V> std::fmt::Debug for DenseMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseMap")
            .field("len", &self.len)
            .field("windows", &self.rows.len())
            .finish()
    }
}

impl<K: EventIndex, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EventIndex, V> DenseMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap { rows: Vec::new(), cursor: Cell::new(0), len: 0, max_row: 0, key: PhantomData }
    }

    /// Returns the number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Locates `window`'s row: `Ok(position)` if present, `Err(insertion
    /// point)` otherwise.
    #[inline]
    fn locate_row(&self, window: u64) -> Result<usize, usize> {
        if let Some(&(w, _)) = self.rows.get(self.cursor.get()) {
            if w == window {
                return Ok(self.cursor.get());
            }
        }
        let found = self.rows.binary_search_by_key(&window, |&(w, _)| w);
        if let Ok(i) = found {
            self.cursor.set(i);
        }
        found
    }

    /// Finds the position of `window`'s row, if present.
    #[inline]
    fn find_row(&self, window: u64) -> Option<usize> {
        self.locate_row(window).ok()
    }

    /// Finds or creates the position of `window`'s row.
    fn find_or_create_row(&mut self, window: u64) -> usize {
        match self.locate_row(window) {
            Ok(i) => i,
            Err(i) => {
                self.rows.insert(i, (window, Vec::with_capacity(self.max_row)));
                self.cursor.set(i);
                i
            }
        }
    }

    /// Returns a reference to the value of `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        let (window, offset) = key.dense_key();
        let i = self.find_row(window)?;
        self.rows[i].1.get(offset as usize)?.as_ref()
    }

    /// Returns a mutable reference to the value of `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (window, offset) = key.dense_key();
        let i = self.find_row(window)?;
        self.rows[i].1.get_mut(offset as usize)?.as_mut()
    }

    /// Finds — creating the row and growing it as needed — the slot of
    /// `key`, and keeps the `max_row` pre-allocation hint current. All
    /// inserting entry points go through here. Returns the entry counter
    /// alongside the slot (disjoint borrows) so callers filling a vacancy
    /// can bump it while still holding the slot.
    fn slot_mut(&mut self, key: &K) -> (&mut usize, &mut Option<V>) {
        let (window, offset) = key.dense_key();
        let i = self.find_or_create_row(window);
        let offset = offset as usize;
        if offset >= self.max_row {
            self.max_row = offset + 1;
        }
        let row = &mut self.rows[i].1;
        if offset >= row.len() {
            // A row that outgrows its allocation takes exactly the longest
            // row seen, not `Vec`'s next doubling: only a map's first rows
            // ever grow, and every map of a deployment has them.
            row.reserve_exact(self.max_row - row.len());
            row.resize_with(offset + 1, || None);
        }
        (&mut self.len, &mut row[offset])
    }

    /// Returns how many slots the rows have allocated, filled or not.
    pub fn capacity(&self) -> usize {
        self.rows.iter().map(|(_, row)| row.capacity()).sum()
    }

    /// Inserts `value` under `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (len, slot) = self.slot_mut(&key);
        let previous = slot.replace(value);
        if previous.is_none() {
            *len += 1;
        }
        previous
    }

    /// Inserts `value` under `key` only if the slot is vacant. Returns
    /// `true` if the insert happened (the hot-path equivalent of a vacant
    /// `HashMap` entry).
    pub fn insert_if_vacant(&mut self, key: K, value: V) -> bool {
        let (len, slot) = self.slot_mut(&key);
        if slot.is_some() {
            return false;
        }
        *slot = Some(value);
        *len += 1;
        true
    }

    /// Returns a mutable reference to the value of `key`, inserting
    /// `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let (len, slot) = self.slot_mut(&key);
        if slot.is_none() {
            *len += 1;
        }
        slot.get_or_insert_with(default)
    }

    /// Keeps only the entries for which `keep` returns `true`, dropping
    /// rows that become empty (so long-running maps shed pruned windows).
    pub fn retain(&mut self, mut keep: impl FnMut(&mut V) -> bool) {
        for (_, row) in &mut self.rows {
            for slot in row.iter_mut() {
                if slot.as_mut().is_some_and(|v| !keep(v)) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
        self.rows.retain(|(_, row)| row.iter().any(Option::is_some));
        self.cursor.set(0);
    }

    /// Visits, in window order, the value of every entry whose window is
    /// `first_window` or later, paired with its window: a walk over the
    /// recent end of a long-lived map costs what that end holds.
    pub fn values_mut_from(&mut self, first_window: u64) -> impl Iterator<Item = (u64, &mut V)> {
        let start = self.rows.partition_point(|&(window, _)| window < first_window);
        self.rows[start..].iter_mut().flat_map(|(window, row)| {
            let window = *window;
            row.iter_mut().flatten().map(move |v| (window, v))
        })
    }
}

/// A slab of values addressed by sequentially issued `u64` tokens.
///
/// Tokens are expected to be handed out by an incrementing counter
/// (`insert` asserts it); values are removed exactly once. Storage is a
/// ring of `Option<T>` slots whose base advances as the oldest tokens are
/// consumed, so memory is bounded by the number of *outstanding* tokens.
pub struct TokenSlab<T> {
    /// Token number of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
    len: usize,
}

impl<T> std::fmt::Debug for TokenSlab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenSlab")
            .field("base", &self.base)
            .field("len", &self.len)
            .field("span", &self.slots.len())
            .finish()
    }
}

impl<T> Default for TokenSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TokenSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        TokenSlab { base: 0, slots: VecDeque::new(), len: 0 }
    }

    /// Returns the number of outstanding values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no values are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value` under `token`, which must be the next sequential
    /// token (the caller's counter and the slab's tail stay in lockstep).
    pub fn insert(&mut self, token: u64, value: T) {
        if self.slots.is_empty() {
            self.base = token;
        }
        debug_assert_eq!(
            token,
            self.base + self.slots.len() as u64,
            "tokens must be issued sequentially"
        );
        self.slots.push_back(Some(value));
        self.len += 1;
    }

    /// Returns a mutable reference to the value stored under `token`, if
    /// any.
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let idx = token.checked_sub(self.base)?;
        self.slots.get_mut(idx as usize)?.as_mut()
    }

    /// Recovers an outstanding token from its low 32 bits: the one token
    /// at or after the oldest outstanding one that ends in them. Exact for
    /// any token still stored (the ring never spans 2³² tokens), which is
    /// what lets a four-byte back-link name a token.
    pub fn widen(&self, low: u32) -> u64 {
        self.base + u64::from(low.wrapping_sub(self.base as u32))
    }

    /// Removes every outstanding value, yielding each with its token.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, T)> + '_ {
        let base = self.base;
        self.len = 0;
        self.slots
            .drain(..)
            .enumerate()
            .filter_map(move |(i, slot)| slot.map(|value| (base + i as u64, value)))
    }

    /// Removes and returns the value stored under `token`, if any.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let idx = token.checked_sub(self.base)?;
        let value = self.slots.get_mut(idx as usize)?.take()?;
        self.len -= 1;
        // Shed consumed slots from the front so the ring stays as small as
        // the outstanding token span.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_fallback_is_injective_over_a_span() {
        let mut seen = std::collections::HashSet::new();
        for id in 0u64..2000 {
            assert!(seen.insert(id.dense_key()), "dense_key must be injective");
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut m: DenseMap<u64, &str> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, "seven"), None);
        assert_eq!(m.insert(300, "three hundred"), None); // different window
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&300), Some(&"three hundred"));
        assert_eq!(m.get(&8), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.insert(7, "SEVEN"), Some("seven"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_if_vacant_only_inserts_once() {
        let mut m: DenseMap<u64, u32> = DenseMap::new();
        assert!(m.insert_if_vacant(42, 1));
        assert!(!m.insert_if_vacant(42, 2));
        assert_eq!(m.get(&42), Some(&1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: DenseMap<u64, u32> = DenseMap::new();
        *m.get_or_insert_with(5, || 10) += 1;
        *m.get_or_insert_with(5, || 99) += 1;
        assert_eq!(m.get(&5), Some(&12));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn retain_prunes_entries_and_empty_rows() {
        let mut m: DenseMap<u64, u64> = DenseMap::new();
        for id in 0..600u64 {
            m.insert(id, id);
        }
        assert_eq!(m.len(), 600);
        m.retain(|v| *v >= 512); // windows 0 and most of 1 emptied
        assert_eq!(m.len(), 88);
        assert_eq!(m.get(&511), None);
        assert_eq!(m.get(&512), Some(&512));
        assert_eq!(m.get(&599), Some(&599));
        // Re-inserting into a pruned window works.
        assert_eq!(m.insert(3, 3), None);
        assert_eq!(m.get(&3), Some(&3));
    }

    #[test]
    fn sparse_keys_do_not_blow_up_memory() {
        let mut m: DenseMap<u64, u8> = DenseMap::new();
        // Keys spanning the whole u64 range: storage must stay proportional
        // to the number of windows touched, not the numeric span.
        for &id in &[0u64, u64::MAX, 1 << 40, (1 << 40) + 1, 1 << 63] {
            m.insert(id, 1);
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m.rows.len(), 4, "two keys share the 1<<40 window");
        assert_eq!(m.get(&u64::MAX), Some(&1));
        assert_eq!(m.get(&((1 << 40) + 1)), Some(&1));
        assert_eq!(m.get(&((1 << 40) + 2)), None);
    }

    #[test]
    fn token_slab_inserts_and_removes_in_any_order() {
        let mut s: TokenSlab<&str> = TokenSlab::new();
        s.insert(0, "a");
        s.insert(1, "b");
        s.insert(2, "c");
        assert_eq!(s.len(), 3);
        assert_eq!(s.remove(1), Some("b"));
        assert_eq!(s.remove(1), None, "double remove is a no-op");
        assert_eq!(s.remove(0), Some("a"));
        // Front slots shed: base advanced past the consumed prefix.
        assert_eq!(s.base, 2);
        assert_eq!(s.remove(2), Some("c"));
        assert!(s.is_empty());
        // Sequential issuance continues after a full drain.
        s.insert(3, "d");
        assert_eq!(s.remove(3), Some("d"));
    }

    #[test]
    fn token_slab_finds_a_token_by_its_low_bits_and_drains() {
        let mut s: TokenSlab<u32> = TokenSlab::new();
        // Straddle a 32-bit boundary: the low bits wrap, the tokens do not.
        let first = (7u64 << 32) - 2;
        for i in 0..5 {
            s.insert(first + i, i as u32);
        }
        assert_eq!(s.remove(first), Some(0));
        for i in 1..5 {
            let token = first + i;
            assert_eq!(s.widen(token as u32), token);
            assert_eq!(s.get_mut(token), Some(&mut (i as u32)));
        }
        assert_eq!(s.get_mut(first), None, "consumed");
        assert_eq!(s.get_mut(first + 5), None, "not issued yet");
        assert_eq!(s.remove(first + 2), Some(2));
        let drained: Vec<_> = s.drain().collect();
        assert_eq!(drained, vec![(first + 1, 1), (first + 3, 3), (first + 4, 4)]);
        assert!(s.is_empty());
        // Sequential issuance continues after a drain.
        s.insert(first + 5, 5);
        assert_eq!(s.remove(first + 5), Some(5));
    }

    #[test]
    fn token_slab_rejects_unknown_tokens() {
        let mut s: TokenSlab<u32> = TokenSlab::new();
        assert_eq!(s.remove(0), None);
        s.insert(0, 1);
        s.insert(1, 2);
        assert_eq!(s.remove(99), None);
        assert_eq!(s.remove(0), Some(1));
        assert_eq!(s.remove(0), None, "token below base after shedding");
    }
}
