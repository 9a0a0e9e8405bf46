//! High-level driver: functional execution and timing model in lockstep.

use wiser_par::{CancelCause, CancelToken};

use crate::error::SimError;
use crate::fault::TruncationReason;
use crate::interp::{Interp, Step};
use crate::loader::ProcessImage;
use crate::uarch::config::CoreConfig;
use crate::uarch::core::{CoreStats, OoOCore, Prober};

/// How often (in retired instructions) the execution loop polls its
/// [`CancelToken`]: frequent enough that a deadline lands within a few
/// microseconds of simulated work, rare enough to stay off the hot path.
const CANCEL_POLL_INSNS: u64 = 1024;

/// External controls for one timed execution: cooperative cancellation and
/// the injected crash-style kill. The default controls nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunControl<'a> {
    /// Cancellation token polled at instruction boundaries. A fired token
    /// stops feeding the pipeline; the run surfaces as
    /// [`TruncationReason::Cancelled`] (or [`SimError::Killed`] for a
    /// [`CancelCause::Kill`]).
    pub cancel: Option<&'a CancelToken>,
    /// Injected crash: terminate the run abruptly once this many
    /// instructions have retired (`FaultPlan::kill_after_insns`).
    pub kill_after: Option<u64>,
}

/// Result of a timed run.
#[derive(Clone, Debug)]
pub struct TimedRun {
    /// Pipeline statistics (cycles, mispredicts, cache behaviour).
    pub stats: CoreStats,
    /// Program exit code, if it exited (rather than hitting the limit).
    pub exit_code: Option<i64>,
    /// Program output.
    pub output: String,
}

/// Runs a process through the out-of-order timing model.
///
/// The functional interpreter feeds retired instructions straight into the
/// pipeline model; `prober` observes the pipeline each cycle (this is where
/// the sampling profiler attaches).
///
/// # Errors
///
/// Returns [`SimError`] for execution faults or when `max_insns` is
/// exhausted before the program exits.
///
/// # Examples
///
/// ```
/// use wiser_isa::assemble;
/// use wiser_sim::{run_timed, CoreConfig, NoProbes, ProcessImage};
///
/// let module = assemble(
///     "loop",
///     r#"
///     .func _start global
///         li x1, 100
///         li x2, 0
///     loop:
///         addi x2, x2, 1
///         bne x2, x1, loop
///         li x1, 0
///         li x0, 0
///         syscall
///     .endfunc
///     .entry _start
///     "#,
/// )?;
/// let image = ProcessImage::load_single(&module)?;
/// let run = run_timed(&image, 0, CoreConfig::xeon_like(), &mut NoProbes, 1_000_000)?;
/// assert!(run.stats.cycles > 0);
/// assert_eq!(run.exit_code, Some(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_timed<P: Prober>(
    image: &ProcessImage,
    rand_seed: u64,
    config: CoreConfig,
    prober: &mut P,
    max_insns: u64,
) -> Result<TimedRun, SimError> {
    let ctl = RunControl::default();
    match run_timed_partial_ctl(image, rand_seed, config, prober, max_insns, ctl)? {
        (run, None) => Ok(run),
        (_, Some(TruncationReason::InsnLimit(limit))) => Err(SimError::InsnLimit(limit)),
        (_, Some(TruncationReason::Injected(limit))) => Err(SimError::InsnLimit(limit)),
        // Unreachable without a RunControl token, but kept total: a
        // cancelled run is budget-like (stopped early, no fault).
        (_, Some(TruncationReason::Cancelled(n))) => Err(SimError::InsnLimit(n)),
        (_, Some(TruncationReason::ExecFault { pc, message })) => {
            Err(SimError::Exec { pc, message })
        }
    }
}

/// Like [`run_timed`], but a run that stops early still yields its partial
/// statistics: the second tuple element says why the run was cut short
/// (`None` for a clean program exit). This is the recovery-oriented entry
/// point: the sampler builds a partial profile from whatever retired before
/// the fault instead of discarding the whole pass.
///
/// External [`RunControl`] (use `RunControl::default()` for none): a fired
/// cancellation token stops feeding the pipeline at the next instruction
/// boundary (the in-flight window still drains, so committed state is
/// consistent) and surfaces as [`TruncationReason::Cancelled`]; an injected
/// kill aborts the run as [`SimError::Killed`], discarding the partial run
/// like a real crash would.
///
/// # Errors
///
/// [`SimError::Load`]-class failures from constructing the interpreter, and
/// [`SimError::Killed`] for the injected crash. Execution faults, budget
/// exhaustion and cancellation are *not* errors here — they surface as a
/// [`TruncationReason`] alongside the partial run.
pub fn run_timed_partial_ctl<P: Prober>(
    image: &ProcessImage,
    rand_seed: u64,
    config: CoreConfig,
    prober: &mut P,
    max_insns: u64,
    ctl: RunControl<'_>,
) -> Result<(TimedRun, Option<TruncationReason>), SimError> {
    let mut interp = Interp::new(image, rand_seed)?;
    let mut core = OoOCore::new(config);
    let mut error: Option<SimError> = None;
    let mut limit_hit = false;
    let mut killed: Option<u64> = None;
    let mut cancelled: Option<u64> = None;
    let mut next_cancel_poll = 0u64;
    let stats = core.run(
        || {
            let retired = interp.retired();
            if let Some(k) = ctl.kill_after {
                if retired >= k {
                    killed = Some(retired);
                    return None;
                }
            }
            if retired >= next_cancel_poll {
                next_cancel_poll = retired + CANCEL_POLL_INSNS;
                if let Some(token) = ctl.cancel {
                    match token.cause() {
                        Some(CancelCause::Kill) => {
                            killed = Some(retired);
                            return None;
                        }
                        Some(_) => {
                            cancelled = Some(retired);
                            return None;
                        }
                        None => {}
                    }
                }
            }
            if retired >= max_insns {
                limit_hit = true;
                return None;
            }
            match interp.step() {
                Ok(Step::Retired(rec)) => Some(rec),
                Ok(Step::Exited(_)) => None,
                Err(e) => {
                    error = Some(e);
                    None
                }
            }
        },
        prober,
    );
    if let Some(n) = killed {
        // Crash semantics: no partial profile, no graceful truncation.
        return Err(SimError::Killed(n));
    }
    let truncated = match error {
        Some(SimError::Exec { pc, message }) => Some(TruncationReason::ExecFault { pc, message }),
        Some(SimError::InsnLimit(n)) => Some(TruncationReason::InsnLimit(n)),
        Some(e) => return Err(e),
        None if cancelled.is_some() && interp.exit_code().is_none() => {
            Some(TruncationReason::Cancelled(cancelled.unwrap_or(0)))
        }
        None if limit_hit && interp.exit_code().is_none() => {
            Some(TruncationReason::InsnLimit(max_insns))
        }
        None => None,
    };
    Ok((
        TimedRun {
            stats,
            exit_code: interp.exit_code(),
            output: interp.output_string(),
        },
        truncated,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uarch::core::NoProbes;
    use wiser_isa::assemble;

    #[test]
    fn timed_run_matches_functional_exit() {
        let m = assemble(
            "t",
            r#"
            .func _start global
                li x1, 9
                li x2, 9
                mul x1, x1, x2
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        let run = run_timed(&image, 0, CoreConfig::xeon_like(), &mut NoProbes, 1000).unwrap();
        assert_eq!(run.exit_code, Some(81));
        assert!(run.stats.cycles >= 5);
        assert_eq!(run.stats.retired, 5);
    }

    #[test]
    fn limit_propagates() {
        let m = assemble(
            "spin",
            ".func _start global\nspin: jmp spin\n.endfunc\n.entry _start",
        )
        .unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        let err = run_timed(&image, 0, CoreConfig::tiny(), &mut NoProbes, 1000);
        assert!(matches!(err, Err(SimError::InsnLimit(1000))));
    }

    #[test]
    fn partial_run_keeps_stats_at_limit() {
        let m = assemble(
            "spin",
            ".func _start global\nspin: jmp spin\n.endfunc\n.entry _start",
        )
        .unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        let ctl = RunControl::default();
        let (run, truncated) =
            run_timed_partial_ctl(&image, 0, CoreConfig::tiny(), &mut NoProbes, 1000, ctl).unwrap();
        assert_eq!(truncated, Some(TruncationReason::InsnLimit(1000)));
        assert!(run.stats.retired >= 1000);
        assert!(run.stats.cycles > 0);
        assert_eq!(run.exit_code, None);
    }

    #[test]
    fn partial_run_clean_exit_has_no_truncation() {
        let m = assemble(
            "t",
            ".func _start global\nli x1, 0\nli x0, 0\nsyscall\n.endfunc\n.entry _start",
        )
        .unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        let ctl = RunControl::default();
        let (run, truncated) =
            run_timed_partial_ctl(&image, 0, CoreConfig::tiny(), &mut NoProbes, 1000, ctl).unwrap();
        assert_eq!(truncated, None);
        assert_eq!(run.exit_code, Some(0));
    }
}
