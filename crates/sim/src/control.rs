//! External controls shared by every profiling pass: the timed driver, the
//! sampler and the DBI engine poll one cancel token the same way, and the
//! two passes take checkpoints on one cadence.

use wiser_par::{CancelCause, CancelToken};

/// How often (in retired instructions) a pass polls its [`CancelToken`]:
/// frequent enough that a deadline lands within a few microseconds of
/// simulated work, rare enough to stay off the hot path.
pub const CANCEL_POLL_INSNS: u64 = 1024;

/// The cause of a fired `cancel` token, polled once `retired` reaches
/// `*next_poll`; the next poll then falls [`CANCEL_POLL_INSNS`] later.
#[inline]
pub fn poll_cancel(
    cancel: Option<&CancelToken>,
    retired: u64,
    next_poll: &mut u64,
) -> Option<CancelCause> {
    if retired < *next_poll {
        return None;
    }
    *next_poll = retired + CANCEL_POLL_INSNS;
    cancel.and_then(CancelToken::cause)
}

/// External controls for one profiling pass: cooperative cancellation and
/// periodic checkpoint snapshots of the pass's profile type `P`. The
/// default controls nothing.
pub struct PassControl<'a, P> {
    /// Cancellation token polled at instruction (or block) boundaries; a
    /// fired token truncates the profile as `Cancelled`, or kills the pass
    /// for a [`CancelCause::Kill`].
    pub cancel: Option<&'a CancelToken>,
    /// Checkpoint cadence in retired instructions; 0 disables snapshots.
    pub checkpoint_every: u64,
    /// Receives `(retired, snapshot)` at each checkpoint boundary.
    pub sink: Option<&'a mut dyn FnMut(u64, P)>,
}

impl<P> Default for PassControl<'_, P> {
    fn default() -> Self {
        PassControl {
            cancel: None,
            checkpoint_every: 0,
            sink: None,
        }
    }
}

impl<P> PassControl<'_, P> {
    /// The retired-instruction count at which the first checkpoint falls
    /// due: the cadence, or never (`u64::MAX`) without a sink or cadence.
    pub fn first_checkpoint(&self) -> u64 {
        match self.sink {
            Some(_) if self.checkpoint_every > 0 => self.checkpoint_every,
            _ => u64::MAX,
        }
    }

    /// Hands the sink `snapshot`, taken once `retired` reached a due
    /// checkpoint, and returns when the next one falls due: the first
    /// multiple of the cadence past `retired`.
    pub fn checkpoint(&mut self, retired: u64, snapshot: P) -> u64 {
        if let Some(sink) = self.sink.as_mut() {
            sink(retired, snapshot);
        }
        (retired / self.checkpoint_every + 1) * self.checkpoint_every
    }
}
