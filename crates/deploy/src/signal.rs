//! SIGINT/SIGTERM as a stop flag.
//!
//! A deployed `gossipd` holds minutes of measurement in memory; an
//! operator's Ctrl-C (or the coordinator's kill escalating to SIGTERM)
//! should flush a partial report marked degraded, not drop it on the
//! floor. The handler does the only async-signal-safe thing possible —
//! set an atomic — and the host's stop-poll loop does the rest.
//!
//! The FFI is the raw `signal(2)` libc symbol, declared by hand like the
//! `sendmmsg` wrapper in `gossip-reactor` (the workspace builds offline,
//! without the `libc` crate). `SIG_DFL` remains in place for everything
//! else, and a *second* SIGINT/SIGTERM still kills the process the
//! default way would — the handler is installed once, then restores
//! nothing, relying on the flag being honoured within one stop-poll
//! interval.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler, read by the host's wait loop.
static STOP: AtomicBool = AtomicBool::new(false);

/// `SIGINT` on every unix.
const SIGINT: i32 = 2;
/// `SIGTERM` on every unix.
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    // The only thing that is async-signal-safe here: a relaxed store.
    STOP.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    //! The one FFI call: registering the handler via `signal(2)`.

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub(super) fn register(signum: i32, handler: extern "C" fn(i32)) {
        // Failure returns SIG_ERR; there is nothing useful to do about it
        // at install time, and the stop flag simply stays manual.
        // SAFETY: `signal(2)` takes a signal number and a handler address;
        // `handler` is a live `extern "C" fn(i32)` — the handler ABI — that
        // only does an atomic store, which is async-signal-safe.
        unsafe {
            signal(signum, handler as usize);
        }
    }
}

/// Installs the SIGINT/SIGTERM handler (idempotent; no-op off unix).
pub fn install() {
    #[cfg(unix)]
    {
        sys::register(SIGINT, on_signal);
        sys::register(SIGTERM, on_signal);
    }
}

/// Whether a stop signal has arrived since [`install`].
pub fn stop_requested() -> bool {
    STOP.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_latches() {
        // The handler itself is exercised by the integration test that
        // SIGTERMs a live gossipd; here we only pin the flag semantics.
        install();
        assert!(!stop_requested() || STOP.load(Ordering::Relaxed));
        on_signal(SIGINT);
        assert!(stop_requested());
        STOP.store(false, Ordering::Relaxed);
    }
}
