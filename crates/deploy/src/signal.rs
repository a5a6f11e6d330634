//! SIGINT/SIGTERM as the run's stop flag.
//!
//! A deployed `gossipd` holds minutes of measurement in memory; an
//! operator's Ctrl-C (or a SIGTERM from a process supervisor) should flush
//! a partial report marked degraded, not drop it on the floor. The handler
//! does the only async-signal-safe thing possible — set an atomic — and
//! [`install`] hands that atomic to the worker, which counts down to the
//! start on it and passes it to `NodeHost::run` as the stop flag.
//!
//! The FFI is the raw `signal(2)` libc symbol, declared by hand like the
//! `sendmmsg` wrapper in `gossip-reactor` (the workspace builds offline,
//! without the `libc` crate). `SIG_DFL` remains in place for everything
//! else. The handler stays installed, so a second SIGINT/SIGTERM only
//! raises the flag again; SIGKILL is what ends a worker outright.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The flag the handler raises, set by [`install`] before the handler is
/// registered.
static STOP: OnceLock<Arc<AtomicBool>> = OnceLock::new();

/// `SIGINT` on every unix.
const SIGINT: i32 = 2;
/// `SIGTERM` on every unix.
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: `get` on the set cell is one atomic load, the
    // store a relaxed atomic store; nothing allocates or locks.
    if let Some(stop) = STOP.get() {
        stop.store(true, Ordering::Relaxed);
    }
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
        // only does an atomic load and store, which are async-signal-safe.
        unsafe {
            signal(signum, handler as usize);
        }
    }
}

/// Installs the SIGINT/SIGTERM handler and returns the flag it raises —
/// the same flag on every call (off unix, a flag nothing raises).
pub fn install() -> Arc<AtomicBool> {
    let stop = Arc::clone(STOP.get_or_init(Arc::default));
    #[cfg(unix)]
    {
        sys::register(SIGINT, on_signal);
        sys::register(SIGTERM, on_signal);
    }
    stop
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    #[test]
    #[allow(unsafe_code)]
    fn a_real_sigterm_latches_the_flag_and_the_process_survives() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        let stop = install();
        assert!(Arc::ptr_eq(&stop, &install()), "one flag for every caller");
        assert!(!stop.load(Ordering::Relaxed));
        // SAFETY: `raise(3)` takes a signal number and returns after the
        // handler has run. The handler for SIGTERM is `on_signal`,
        // registered just above: it only stores to an atomic and returns,
        // so the process is still here afterwards. Were it not registered,
        // the default action would end the test binary, and the test with
        // it.
        let sent = unsafe { raise(SIGTERM) };
        assert_eq!(sent, 0, "raise(SIGTERM) failed");
        assert!(stop.load(Ordering::Relaxed), "the handler latched the flag");
    }
}
