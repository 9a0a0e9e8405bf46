//! Cooperative cancellation: a cloneable [`CancelToken`] latched by a
//! wall-clock deadline, an external signal (Ctrl-C), or an injected crash.
//!
//! The token is the single stop channel of the whole pipeline: the CLI
//! creates one per run, the execution loops (timing model feeder, DBI block
//! dispatch) poll it at safe boundaries, batch fan-outs check it before
//! starting each task, and whichever cause fires first is latched so every
//! observer agrees on *why* the run stopped. All operations are lock-free atomics; [`CancelToken::cancel`]
//! in particular is async-signal-safe and may be called from a signal
//! handler.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LIVE: u8 = 0;
const DEADLINE: u8 = 1;
const SIGNAL: u8 = 2;
const KILL: u8 = 3;

/// Why a token fired. The first cause to latch wins, except [`Kill`],
/// which models a crash and overrides anything already latched.
///
/// [`Kill`]: CancelCause::Kill
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// The wall-clock deadline passed.
    Deadline,
    /// An external request (Ctrl-C / [`CancelToken::cancel`]).
    Signal,
    /// An injected crash ([`CancelToken::kill`]): the run must stop as if
    /// the process died, skipping graceful finalisation.
    Kill,
}

#[derive(Debug)]
struct Inner {
    state: AtomicU8,
    /// Fixed at construction; read-only afterwards, so plain field access
    /// is safe from any thread.
    deadline: Option<Instant>,
}

/// A cloneable cancellation token with an optional wall-clock deadline.
///
/// Clones share state: cancelling any clone cancels them all. Polling via
/// [`CancelToken::cause`] is one atomic load on the fast path (plus an
/// `Instant::now()` when a deadline is armed), cheap enough to call every
/// few hundred simulated instructions.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that never fires on its own (no deadline).
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: None,
            }),
        }
    }

    /// A token that fires [`CancelCause::Deadline`] once `limit` of
    /// wall-clock time has elapsed from now.
    pub fn with_deadline(limit: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: Some(Instant::now() + limit),
            }),
        }
    }

    /// Requests graceful cancellation ([`CancelCause::Signal`]).
    ///
    /// Async-signal-safe: a single atomic compare-exchange, no locks, no
    /// allocation. A cause that already latched is kept.
    pub fn cancel(&self) {
        let _ =
            self.inner
                .state
                .compare_exchange(LIVE, SIGNAL, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Latches [`CancelCause::Kill`]: the run must stop as if the process
    /// crashed. Overrides any previously latched cause — a crash is not
    /// negotiable.
    pub fn kill(&self) {
        self.inner.state.store(KILL, Ordering::Release);
    }

    /// Returns the latched cause, if the token has fired.
    ///
    /// Checks the deadline lazily: the first call past the deadline latches
    /// [`CancelCause::Deadline`], so later observers see the same cause.
    pub fn cause(&self) -> Option<CancelCause> {
        match self.inner.state.load(Ordering::Acquire) {
            DEADLINE => return Some(CancelCause::Deadline),
            SIGNAL => return Some(CancelCause::Signal),
            KILL => return Some(CancelCause::Kill),
            _ => {}
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                // Latch; if another cause won the race, report that one.
                return match self.inner.state.compare_exchange(
                    LIVE,
                    DEADLINE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => Some(CancelCause::Deadline),
                    Err(SIGNAL) => Some(CancelCause::Signal),
                    Err(KILL) => Some(CancelCause::Kill),
                    Err(_) => Some(CancelCause::Deadline),
                };
            }
        }
        None
    }

    /// True once any cause has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cause().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert_eq!(t.cause(), None);
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_latches_signal_for_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Signal));
        // Repeated cancels keep the original cause.
        t.cancel();
        assert_eq!(c.cause(), Some(CancelCause::Signal));
    }

    #[test]
    fn kill_overrides_signal() {
        let t = CancelToken::new();
        t.cancel();
        t.kill();
        assert_eq!(t.cause(), Some(CancelCause::Kill));
    }

    #[test]
    fn expired_deadline_latches_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.cause(), Some(CancelCause::Deadline));
        // Signal after the deadline latched does not change the cause.
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Deadline));
    }

    #[test]
    fn distant_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.cause(), None);
    }
}
