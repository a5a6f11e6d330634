//! Dense, window-major storage for per-event protocol state.
//!
//! A node keeps one 8-byte request word for every event id it hears of,
//! keyed by that id, until the id's whole window falls behind the
//! retention horizon; the payload is not in it (a host's
//! [`PacketPool`](crate::pool::PacketPool) keeps one copy per host, the
//! node only what the pool did not hold). A host's pool is a `DenseMap`
//! too, of packets. Real
//! stream ids are *dense*: a `PacketId`-style id is a
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
//! position, so it is not stored, and a `V` with a niche (the node's
//! request word is a `NonZeroU64`) makes the `Option` free. What a node
//! pays per id is `size_of::<V>()`, 8 bytes; what only the ids in flight
//! need lives with their retransmission timers, not in a slot of every id.
//!
//! [`EventIndex`] is the small trait an id type implements to opt in:
//! `PacketId` splits into `(window, index)` in `gossip-stream`; plain `u64`
//! test ids get a fallback that treats the high bits as the window.
//!
//! [`TokenSlab`] is the analogous structure for retransmission timers: a
//! free-list slab whose [`TimerToken`](crate::TimerToken)s are a slot index
//! and a generation, so its memory is the most timers ever armed at once,
//! not the span from the oldest armed one to the newest.

use std::cell::Cell;
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

    /// Returns how many windows have a row.
    pub fn windows(&self) -> usize {
        self.rows.len()
    }

    /// Drops the oldest rows, in window order, as long as `expired` holds
    /// for every value of a row; the first row with a live value stops the
    /// walk. Returns the window after the last row dropped, if one was: no
    /// row is left below it.
    pub fn drop_expired_rows(&mut self, mut expired: impl FnMut(&V) -> bool) -> Option<u64> {
        let dropped =
            self.rows.iter().take_while(|(_, row)| row.iter().flatten().all(&mut expired)).count();
        let last = self.rows[..dropped].last()?.0;
        for (_, row) in self.rows.drain(..dropped) {
            self.len -= row.iter().flatten().count();
        }
        self.cursor.set(0);
        Some(last.saturating_add(1))
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

    /// Returns a mutable reference to the value of `key`, inserting
    /// `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let (len, slot) = self.slot_mut(&key);
        if slot.is_none() {
            *len += 1;
        }
        slot.get_or_insert_with(default)
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

/// One slab slot: the value it holds, if any, and how many times it has
/// been freed.
struct TokenSlot<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab of values addressed by the `u64` tokens it issues.
///
/// A token is a slot index (low 32 bits) and the generation the slot had
/// when the value went in (high 32 bits). Freed slots are reused, most
/// recently freed first, and every free bumps the slot's generation, so a
/// token whose value is gone never names the slot's next occupant. Memory
/// is the high-water mark of values held *at once*: however long one value
/// stays, the values inserted and removed around it reuse the same few
/// slots.
pub struct TokenSlab<T> {
    slots: Vec<TokenSlot<T>>,
    /// Vacant slot indices, the next to reuse last.
    free: Vec<u32>,
}

impl<T> std::fmt::Debug for TokenSlab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenSlab")
            .field("len", &self.len())
            .field("slots", &self.slots.len())
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
        TokenSlab { slots: Vec::new(), free: Vec::new() }
    }

    /// Returns the number of stored values.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Returns `true` if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns how many slots are allocated, occupied or not.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn token(slot: u32, generation: u32) -> u64 {
        (u64::from(generation) << 32) | u64::from(slot)
    }

    /// Stores `value` and returns the token that names it.
    pub fn insert(&mut self, value: T) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.value = Some(value);
                Self::token(slot, s.generation)
            }
            None => {
                // 2³² values held at once would take hundreds of GiB.
                let slot = self.slots.len() as u32;
                self.slots.push(TokenSlot { generation: 0, value: Some(value) });
                Self::token(slot, 0)
            }
        }
    }

    /// Returns a reference to the value stored under `token`, if it is
    /// still there.
    pub fn get(&self, token: u64) -> Option<&T> {
        let s = self.slots.get(token as u32 as usize)?;
        (s.generation == (token >> 32) as u32).then_some(s.value.as_ref()?)
    }

    /// Returns a mutable reference to the value stored under `token`, if
    /// it is still there.
    pub fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let s = self.slots.get_mut(token as u32 as usize)?;
        if s.generation != (token >> 32) as u32 {
            return None;
        }
        s.value.as_mut()
    }

    /// Recovers the token of the value in `slot` — the token's low 32
    /// bits — which is what lets a four-byte back-link name a token. Exact
    /// while the value is stored; a vacant slot's widened token names
    /// nothing.
    pub fn widen(&self, slot: u32) -> u64 {
        let generation = self.slots.get(slot as usize).map_or(0, |s| s.generation);
        Self::token(slot, generation)
    }

    /// Removes and returns the value stored under `token`, if it is still
    /// there.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let slot = token as u32;
        let s = self.slots.get_mut(slot as usize)?;
        if s.generation != (token >> 32) as u32 {
            return None;
        }
        let value = s.value.take()?;
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        Some(value)
    }

    /// Visits every stored value, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.value.as_ref())
    }

    /// Consumes the slab, yielding every stored value.
    pub fn into_values(self) -> impl Iterator<Item = T> {
        self.slots.into_iter().filter_map(|s| s.value)
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
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: DenseMap<u64, u32> = DenseMap::new();
        *m.get_or_insert_with(5, || 10) += 1;
        *m.get_or_insert_with(5, || 99) += 1;
        assert_eq!(m.get(&5), Some(&12));
        assert_eq!(m.len(), 1);
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
    fn drop_expired_rows_takes_the_oldest_rows_up_to_the_first_live_value() {
        let mut m: DenseMap<u64, u64> = DenseMap::new();
        // Windows 0, 1, 2 and 4; the value is the window, except one
        // straggler in window 1 that is still live.
        for id in [0u64, 5, 256, 300, 512, 1024] {
            m.insert(id, id >> 8);
        }
        m.insert(257, 9);
        assert_eq!(m.drop_expired_rows(|&v| v > 5), None, "the first row is live: nothing goes");
        assert_eq!(m.drop_expired_rows(|&v| v < 4), Some(1), "window 1's straggler stops the walk");
        assert_eq!((m.len(), m.windows()), (5, 3));
        assert_eq!(m.get(&5), None);
        assert_eq!(m.get(&257), Some(&9));
        // Everything expired: the floor is past the newest row.
        assert_eq!(m.drop_expired_rows(|_| true), Some(5));
        assert!(m.is_empty() && m.windows() == 0 && m.capacity() == 0);
        assert_eq!(m.drop_expired_rows(|_| true), None, "an empty map drops nothing");
    }

    #[test]
    fn token_slab_inserts_and_removes_in_any_order() {
        let mut s: TokenSlab<&str> = TokenSlab::new();
        let [a, b, c] = ["a", "b", "c"].map(|v| s.insert(v));
        assert_eq!(s.len(), 3);
        assert_eq!(s.remove(b), Some("b"));
        assert_eq!(s.remove(b), None, "double remove is a no-op");
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.remove(c), Some("c"));
        assert!(s.is_empty());

        // One value held for the whole run while 10 000 others come and
        // go, at most two at a time: the slab holds what is live at once,
        // not the span of tokens issued since the oldest.
        let old = s.insert("old");
        let mut previous = s.insert("young");
        for _ in 0..10_000 {
            let next = s.insert("young");
            assert_eq!(s.remove(previous), Some("young"));
            previous = next;
        }
        assert_eq!(s.len(), 2);
        assert!(s.capacity() <= 4, "{} slots for three values at most at once", s.capacity());
        assert_eq!(s.remove(old), Some("old"));
    }

    #[test]
    fn token_slab_finds_a_token_by_its_low_bits_and_drains() {
        let mut s: TokenSlab<u32> = TokenSlab::new();
        let tokens: Vec<u64> = (0..5).map(|i| s.insert(i)).collect();
        // Cycle slot 2 through a few generations: its token's high bits move.
        s.remove(tokens[2]);
        let reused = (0..3).fold(s.insert(20), |token, i| {
            s.remove(token);
            s.insert(21 + i)
        });
        assert_eq!(reused as u32, tokens[2] as u32, "the freed slot was reused");
        assert_ne!(reused, tokens[2]);
        // A back-link keeps only the low 32 bits; widening restores the
        // whole token of whatever is stored in that slot now.
        for (token, value) in [(tokens[0], 0), (tokens[1], 1), (reused, 23), (tokens[4], 4)] {
            assert_eq!(s.widen(token as u32), token);
            assert_eq!(s.get_mut(s.widen(token as u32)), Some(&mut { value }));
        }
        assert_eq!(s.remove(tokens[3]), Some(3));
        assert_eq!(s.get_mut(s.widen(tokens[3] as u32)), None, "a vacant slot widens to nothing");
        assert_eq!(s.get_mut(s.widen(99)), None, "as does one never allocated");
        let mut values: Vec<u32> = s.into_values().collect();
        values.sort_unstable();
        assert_eq!(values, [0, 1, 4, 23]);
    }

    #[test]
    fn token_slab_rejects_unknown_tokens() {
        let mut s: TokenSlab<u32> = TokenSlab::new();
        assert_eq!(s.remove(0), None);
        let first = s.insert(1);
        assert_eq!(s.remove(99), None);
        assert_eq!(s.remove(first), Some(1));
        // The slot is reused; the stale token must not reach its new value.
        let second = s.insert(2);
        assert_eq!(second as u32, first as u32, "same slot");
        assert_eq!(s.get_mut(first), None, "stale after reuse");
        assert_eq!(s.remove(first), None, "stale after reuse");
        assert_eq!(s.remove(second), Some(2));
    }
}
