//! SIGTERM/SIGINT → graceful-drain flag.
//!
//! The workspace carries no `libc` dependency (offline build), so the
//! handler is installed straight against the C ABI, the same way
//! `fastmon_bench::rss` declares `getrusage`. The handler body is a
//! single atomic store — the only thing that is async-signal-safe here —
//! and the daemon's accept loop polls [`drain_requested`] between
//! accepts.
//!
//! On non-Unix targets installation is a no-op and the flag can only be
//! set programmatically (the in-process test path).

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

/// `SIGINT` signal number.
pub const SIGINT: i32 = 2;
/// `SIGTERM` signal number.
pub const SIGTERM: i32 = 15;

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    DRAIN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Installs the drain handler for `SIGTERM` and `SIGINT`. Idempotent.
pub fn install_drain_handlers() {
    #[cfg(unix)]
    {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` whose body is a
        // single atomic store (async-signal-safe), and SIGTERM/SIGINT are
        // catchable signals.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// True once a drain signal has been delivered (or
/// [`request_drain`] was called).
#[must_use]
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// The drain flag itself, for a [`fastmon_obs::CancelToken::linked`]
/// token that observes a signal at its next check.
#[must_use]
pub fn drain_flag() -> &'static AtomicBool {
    &DRAIN
}

/// Programmatic equivalent of delivering `SIGTERM` — used by in-process
/// tests that cannot signal themselves without killing the test runner.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}
