//! Counter tables: stats structs whose every field is a `u64` counter.
//!
//! [`counters!`](crate::counters) declares such a struct and, from the
//! same lines, its `COUNTERS` table — one [`Counter`] row per field, in
//! field order — plus a `merge` that walks the table. Whatever else lists
//! the counters (a report codec, a live metrics mirror) walks the table
//! too, so a new counter is one documented field in one place.

/// One row of a stats struct's `COUNTERS` table.
#[derive(Debug)]
pub struct Counter<S> {
    /// The counter's live metric name, or its field name when it is not
    /// published as a metric.
    pub name: &'static str,
    /// The live metric's help line (empty when there is no metric).
    pub help: &'static str,
    /// Reads the counter's field.
    pub get: fn(&S) -> u64,
    /// Borrows the counter's field for writing.
    pub slot: fn(&mut S) -> &mut u64,
}

/// Declares a struct of `pub` `u64` counters together with its table.
///
/// Each field is a documented name, optionally followed by `: "metric",
/// "help"` when the counter is published live. The struct gets
/// `COUNTERS: &[Counter<Self>]` (one row per field, in field order) and
/// `merge`, which adds another value's counters row by row.
///
/// # Examples
///
/// ```
/// gossip_types::counters! {
///     /// Two counters.
///     #[derive(Debug, Default)]
///     pub struct Tally {
///         /// Things seen.
///         seen,
///         /// Things kept.
///         kept: "tally_kept_total", "Things kept.",
///     }
/// }
///
/// let mut a = Tally { seen: 1, kept: 2 };
/// a.merge(&Tally { seen: 10, kept: 20 });
/// assert_eq!((a.seen, a.kept), (11, 22));
/// assert_eq!(Tally::COUNTERS[0].name, "seen");
/// assert_eq!(Tally::COUNTERS[1].name, "tally_kept_total");
/// ```
#[macro_export]
macro_rules! counters {
    (@first $value:expr $(, $rest:expr)*) => {
        $value
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $stats:ident {
            $( $(#[$field_attr:meta])* $field:ident $(: $name:literal, $help:literal)? ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $stats {
            $( $(#[$field_attr])* pub $field: u64, )*
        }

        impl $stats {
            /// Every counter of the struct, one row per field in field
            /// order. `merge` walks it, and so does whatever else lists
            /// the counters — a report codec encodes a block in this
            /// order (so append only), a live mirror publishes one cell
            /// per row.
            pub const COUNTERS: &'static [$crate::Counter<$stats>] = &[$(
                $crate::Counter {
                    name: $crate::counters!(@first $($name,)? stringify!($field)),
                    help: $crate::counters!(@first $($help,)? ""),
                    get: |stats| stats.$field,
                    slot: |stats| &mut stats.$field,
                }
            ),*];

            /// Adds every counter of `other` to this one's.
            pub fn merge(&mut self, other: &$stats) {
                for counter in Self::COUNTERS {
                    *(counter.slot)(self) += (counter.get)(other);
                }
            }
        }
    };
}
