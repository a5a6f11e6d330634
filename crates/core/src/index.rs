//! Dense, window-major storage for per-event protocol state.
//!
//! A node keeps one request word for every event id it hears of, keyed by
//! that id, until the id's whole window falls behind the retention
//! horizon; the payload is not in it (a host's
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
//! (indexed by the minor coordinate), so the hot lookups are two array
//! indexings. Rows are found through a one-entry cursor cache (nearly all
//! consecutive accesses hit the same window) with a binary search
//! fallback, so arbitrary — even adversarially sparse — key spaces stay
//! safe: memory is proportional to the number of *distinct windows
//! touched*, never to the numeric span of the keys. One locator serves
//! every kind of [`Row`]: the pool's rows are plain `Vec<Option<V>>`s, a
//! node's are [`NarrowRow`]s.
//!
//! A slot is an `Option<V>` and nothing else: the key is the slot's
//! position, so it is not stored, and a `V` with a niche (the node's
//! request word is a `NonZeroU64`) makes the `Option` free. What a node
//! pays per id is 8 bytes while the id's window has an id in flight and 4
//! once it has none: a settled row switches to one 4-byte [`Narrow`] word
//! per id relative to one base time for the whole row, and back whenever a
//! write needs the 8 bytes. What only the ids in flight need lives with
//! their retransmission timers, not in a slot of every id.
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

use gossip_types::Time;

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

/// One window row of a [`DenseMap`]: the entries of every id sharing a
/// window, each at its id's offset, however the row stores them.
pub trait Row {
    /// An empty row with room for `capacity` entries.
    fn with_capacity(capacity: usize) -> Self;
    /// How many of its slots hold an entry.
    fn filled(&self) -> usize;
    /// How many slots it has allocated, filled or not.
    fn allocated(&self) -> usize;
}

/// The plain row: one `Option<V>` per offset.
impl<V> Row for Vec<Option<V>> {
    fn with_capacity(capacity: usize) -> Self {
        Vec::with_capacity(capacity)
    }

    fn filled(&self) -> usize {
        self.iter().flatten().count()
    }

    fn allocated(&self) -> usize {
        self.capacity()
    }
}

/// A map from event ids to values, stored window-major.
///
/// See the [module documentation](self) for the design rationale. The API
/// mirrors the subset of `HashMap` the protocol needs. Rows are plain
/// `Vec<Option<V>>`s unless `R` says otherwise: [`NarrowRow`] is the one
/// other row, whose values are read and written by value.
pub struct DenseMap<K, V, R = Vec<Option<V>>> {
    /// `(window, row)` pairs sorted by window number.
    rows: Vec<(u64, R)>,
    /// Index into `rows` of the most recently accessed window (a cache;
    /// interior mutability keeps the read API `&self`).
    cursor: Cell<usize>,
    len: usize,
    /// Longest row length observed so far. New rows pre-allocate this much
    /// capacity: windows have a fixed geometry in practice, so after the
    /// first window has grown organically every later row allocates exactly
    /// once instead of reallocating its way up.
    max_row: usize,
    /// Where [`DenseMap::narrow_rows`] starts: no row before this one can
    /// narrow until a write lowers it. A plain map never reads it.
    narrow_from: usize,
    /// Keys are coordinates, not contents.
    key: PhantomData<fn(K) -> V>,
}

impl<K, V, R> std::fmt::Debug for DenseMap<K, V, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseMap")
            .field("len", &self.len)
            .field("windows", &self.rows.len())
            .finish()
    }
}

impl<K: EventIndex, V, R: Row> Default for DenseMap<K, V, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EventIndex, V, R: Row> DenseMap<K, V, R> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap {
            rows: Vec::new(),
            cursor: Cell::new(0),
            len: 0,
            max_row: 0,
            narrow_from: 0,
            key: PhantomData,
        }
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

    /// Finds the row of `key`'s window, if present, and `key`'s offset in it.
    #[inline]
    fn find_row(&self, key: &K) -> Option<(&R, usize)> {
        let (window, offset) = key.dense_key();
        let i = self.locate_row(window).ok()?;
        Some((&self.rows[i].1, offset as usize))
    }

    /// Finds or creates the position of `window`'s row.
    fn find_or_create_row(&mut self, window: u64) -> usize {
        match self.locate_row(window) {
            Ok(i) => i,
            Err(i) => {
                self.rows.insert(i, (window, R::with_capacity(self.max_row)));
                self.cursor.set(i);
                i
            }
        }
    }

    /// Returns how many slots the rows have allocated, filled or not.
    pub fn capacity(&self) -> usize {
        self.rows.iter().map(|(_, row)| row.allocated()).sum()
    }

    /// Returns how many windows have a row.
    pub fn windows(&self) -> usize {
        self.rows.len()
    }

    /// Drops the oldest rows, in window order, as long as `expired` holds
    /// for the row; the first row it fails stops the walk. Returns the
    /// window after the last row dropped, if one was: no row is left below
    /// it.
    fn drop_rows(&mut self, mut expired: impl FnMut(&R) -> bool) -> Option<u64> {
        let dropped = self.rows.iter().take_while(|(_, row)| expired(row)).count();
        let last = self.rows[..dropped].last()?.0;
        for (_, row) in self.rows.drain(..dropped) {
            self.len -= row.filled();
        }
        self.cursor.set(0);
        self.narrow_from = self.narrow_from.saturating_sub(dropped);
        Some(last.saturating_add(1))
    }

    /// The position of the first row of window `first_window` or later.
    fn first_row(&self, first_window: u64) -> usize {
        self.rows.partition_point(|&(window, _)| window < first_window)
    }
}

/// The slot at `offset` of a plain `row`, grown to hold it; `max_row` is
/// kept the longest row seen. Every insert into a plain row, a
/// [`NarrowRow`]'s wide one included, goes through here.
fn grow_to<'a, V>(
    row: &'a mut Vec<Option<V>>,
    offset: usize,
    max_row: &mut usize,
) -> &'a mut Option<V> {
    if offset >= *max_row {
        *max_row = offset + 1;
    }
    if offset >= row.len() {
        // A row that outgrows its allocation takes exactly the longest
        // row seen, not `Vec`'s next doubling: only a map's first rows
        // ever grow, and every map of a deployment has them.
        row.reserve_exact(*max_row - row.len());
        row.resize_with(offset + 1, || None);
    }
    &mut row[offset]
}

impl<K: EventIndex, V> DenseMap<K, V> {
    /// Returns a reference to the value of `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        let (row, offset) = self.find_row(key)?;
        row.get(offset)?.as_ref()
    }

    /// Drops the oldest rows, in window order, as long as `expired` holds
    /// for every value of a row; the first row with a live value stops the
    /// walk. Returns the window after the last row dropped, if one was: no
    /// row is left below it.
    pub fn drop_expired_rows(&mut self, mut expired: impl FnMut(&V) -> bool) -> Option<u64> {
        self.drop_rows(|row| row.iter().flatten().all(&mut expired))
    }

    /// Returns a mutable reference to the value of `key`, inserting
    /// `default()` first if absent (creating the row and growing it as
    /// needed). The plain map's one inserting entry point.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let (window, offset) = key.dense_key();
        let i = self.find_or_create_row(window);
        let slot = grow_to(&mut self.rows[i].1, offset as usize, &mut self.max_row);
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(default)
    }
}

/// A value that a row can keep in a narrower word, relative to one time
/// the row keeps once: its *base*, the earliest of its values' times.
///
/// The rule is a round trip: [`Narrow::narrow`] gives a word only if
/// [`Narrow::widen`] of it under the same base gives back exactly the
/// value, so a [`NarrowRow`] reads the same whether it is narrow or not.
pub trait Narrow: Copy {
    /// The narrow form of a value.
    type Word: Copy;
    /// The time this value's word would be relative to, or `None` if it
    /// has no narrow form at all.
    fn base(self) -> Option<Time>;
    /// This value's word relative to `base`, if that word widens back to
    /// exactly this value.
    fn narrow(self, base: Time) -> Option<Self::Word>;
    /// The value `word` stands for, relative to `base`.
    fn widen(word: Self::Word, base: Time) -> Self;
}

/// A window row that keeps narrow words once every value it holds has
/// one: [`DenseMap::narrow_rows`] narrows it, and a write that would not
/// round-trip under its base widens it back first. Either way it reads the
/// same values.
pub struct NarrowRow<V: Narrow>(Repr<V>);

/// How a [`NarrowRow`] holds its values.
enum Repr<V: Narrow> {
    /// One `Option<V>` per offset.
    Wide {
        /// The values, each at its offset.
        slots: Vec<Option<V>>,
        /// How many of them have no narrow form: while one has, the row
        /// stays wide without being looked at.
        pinned: u32,
    },
    /// One narrow word per offset, each relative to `base`.
    Narrow {
        /// The earliest [`Narrow::base`] of the row's values.
        base: Time,
        /// Exactly as many words as the wide row had slots.
        words: Box<[Option<V::Word>]>,
    },
}

impl<V: Narrow> Row for NarrowRow<V> {
    fn with_capacity(capacity: usize) -> Self {
        NarrowRow(Repr::Wide { slots: Vec::with_capacity(capacity), pinned: 0 })
    }

    fn filled(&self) -> usize {
        self.values().count()
    }

    fn allocated(&self) -> usize {
        match &self.0 {
            Repr::Wide { slots, .. } => slots.capacity(),
            Repr::Narrow { words, .. } => words.len(),
        }
    }
}

impl<V: Narrow> NarrowRow<V> {
    fn get(&self, offset: usize) -> Option<V> {
        match &self.0 {
            Repr::Wide { slots, .. } => *slots.get(offset)?,
            Repr::Narrow { base, words } => Some(V::widen((*words.get(offset)?)?, *base)),
        }
    }

    /// Every value of the row, in offset order.
    fn values(&self) -> impl Iterator<Item = V> + '_ {
        let (wide, narrow, base) = match &self.0 {
            Repr::Wide { slots, .. } => (&slots[..], &[][..], Time::ZERO),
            Repr::Narrow { base, words } => (&[][..], &words[..], *base),
        };
        let widened = narrow.iter().flatten().map(move |&word| V::widen(word, base));
        wide.iter().flatten().copied().chain(widened)
    }

    /// Switches a wide row to narrow words, if every value it holds
    /// round-trips under the earliest base among them.
    fn narrow(&mut self) {
        let Repr::Wide { slots, pinned: 0 } = &self.0 else { return };
        let Some(base) = slots.iter().flatten().map(|v| v.base()).min().flatten() else { return };
        let words = slots.iter().map(|slot| slot.map_or(Some(None), |v| v.narrow(base).map(Some)));
        if let Some(words) = words.collect::<Option<Box<[_]>>>() {
            self.0 = Repr::Narrow { base, words };
        }
    }

    /// Switches a narrow row back to wide slots holding the same values,
    /// with room for `capacity`.
    fn widen(&mut self, capacity: usize) {
        if let Repr::Narrow { base, words } = &self.0 {
            let base = *base;
            let mut slots = Vec::with_capacity(capacity.max(words.len()));
            slots.extend(words.iter().map(|word| word.map(|word| V::widen(word, base))));
            self.0 = Repr::Wide { slots, pinned: 0 };
        }
    }
}

/// A map whose settled rows narrow: values are read and written by value,
/// since a narrow row holds none to lend.
impl<K: EventIndex, V: Narrow> DenseMap<K, V, NarrowRow<V>> {
    /// Returns the value of `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        let (row, offset) = self.find_row(key)?;
        row.get(offset)
    }

    /// Inserts `value` under `key`, returning the previous value if any. A
    /// narrow row takes it as a word if it round-trips under the row's
    /// base; otherwise the row widens first.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (window, offset) = key.dense_key();
        let i = self.find_or_create_row(window);
        let offset = offset as usize;
        let row = &mut self.rows[i].1;
        // At most twice round: a write that does not fit widens the row.
        let previous = loop {
            match &mut row.0 {
                Repr::Wide { slots, pinned } => {
                    let previous = grow_to(slots, offset, &mut self.max_row).replace(value);
                    *pinned += u32::from(value.base().is_none());
                    *pinned -= u32::from(previous.is_some_and(|v| v.base().is_none()));
                    break previous;
                }
                Repr::Narrow { base, words } => {
                    let fits = words.get_mut(offset).zip(value.narrow(*base));
                    if let Some((slot, word)) = fits {
                        break slot.replace(word).map(|word| V::widen(word, *base));
                    }
                    row.widen(self.max_row);
                }
            }
        };
        if let Repr::Wide { pinned: 0, .. } = row.0 {
            self.narrow_from = self.narrow_from.min(i);
        }
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Returns the value of `key`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> V {
        self.get(&key).unwrap_or_else(|| {
            let value = default();
            self.insert(key, value);
            value
        })
    }

    /// Drops the oldest rows, in window order, as long as `expired` holds
    /// for every value of a row (see [`DenseMap::drop_expired_rows`]).
    pub fn drop_expired_rows(&mut self, mut expired: impl FnMut(V) -> bool) -> Option<u64> {
        self.drop_rows(|row| row.values().all(&mut expired))
    }

    /// Visits, in window order, every row of window `first_window` or
    /// later as its window and its values — except that a narrow row whose
    /// base is `since` or later yields `None`, unread: every value it holds
    /// has its [`Narrow::base`] at `since` or later.
    pub fn rows_from(
        &self,
        first_window: u64,
        since: Time,
    ) -> impl Iterator<Item = (u64, Option<impl Iterator<Item = V> + '_>)> + '_ {
        let rows = self.rows[self.first_row(first_window)..].iter();
        rows.map(move |(window, row)| {
            let settled = matches!(row.0, Repr::Narrow { base, .. } if base >= since);
            (*window, (!settled).then(|| row.values()))
        })
    }

    /// Narrows every wide row but the newest whose values all round-trip
    /// (see [`Narrow`]). The pass starts at the oldest row a write has
    /// left wide with every value narrowable since the last pass, so it
    /// costs the rows that changed, not the map; a row holding a value with
    /// no narrow form is passed over without reading its values.
    pub fn narrow_rows(&mut self) {
        let newest = self.rows.len().saturating_sub(1);
        for (_, row) in self.rows.get_mut(self.narrow_from..newest).into_iter().flatten() {
            row.narrow();
        }
        self.narrow_from = newest;
    }

    /// The windows whose rows are narrow, in window order.
    pub fn narrow_windows(&self) -> impl Iterator<Item = u64> + '_ {
        let narrow = |(window, row): &(u64, NarrowRow<V>)| {
            matches!(row.0, Repr::Narrow { .. }).then_some(*window)
        };
        self.rows.iter().filter_map(narrow)
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
        assert_eq!(*m.get_or_insert_with(7, || "seven"), "seven");
        assert_eq!(*m.get_or_insert_with(300, || "three hundred"), "three hundred"); // different window
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&300), Some(&"three hundred"));
        assert_eq!(m.get(&8), None);
        assert_eq!(m.len(), 2);
        *m.get_or_insert_with(7, || "unused") = "SEVEN";
        assert_eq!(m.get(&7), Some(&"SEVEN"));
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
            m.get_or_insert_with(id, || 1);
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
            m.get_or_insert_with(id, || id >> 8);
        }
        m.get_or_insert_with(257, || 9);
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
