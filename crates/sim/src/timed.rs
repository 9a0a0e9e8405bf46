//! High-level driver: functional execution and timing model in lockstep.

use wiser_par::{CancelCause, CancelToken};

use crate::control::poll_cancel;
use crate::error::SimError;
use crate::fault::{FaultPlan, TruncationReason};
use crate::interp::{Interp, Step};
use crate::loader::ProcessImage;
use crate::uarch::config::CoreConfig;
use crate::uarch::core::{CoreStats, OoOCore, Prober};

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
/// Returns [`SimError`] for execution faults, when `max_insns` is
/// exhausted before the program exits, or when the timing model is stuck
/// ([`SimError::ModelStuck`]).
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
    let fault = FaultPlan::default();
    match run_timed_partial_ctl(image, rand_seed, config, prober, max_insns, fault, None)? {
        (run, None) => Ok(run),
        (_, Some(TruncationReason::ExecFault { pc, message })) => {
            Err(SimError::Exec { pc, message })
        }
        // With no fault plan and no cancel token, only the budget is left.
        (_, Some(_)) => Err(SimError::InsnLimit(max_insns)),
    }
}

/// Like [`run_timed`], but a run that stops early still yields its partial
/// statistics: the second tuple element says why the run was cut short
/// (`None` for a clean program exit). This is the recovery-oriented entry
/// point: the sampler builds a partial profile from whatever retired before
/// the fault instead of discarding the whole pass.
///
/// The fault plan's `abort_sample_at` lowers the budget, and a cut there
/// is labelled [`TruncationReason::Injected`]. A fired `cancel` token stops
/// feeding the pipeline at the next instruction boundary (the in-flight
/// window still drains, so committed state is consistent) and surfaces as
/// [`TruncationReason::Cancelled`]; the injected kill (`kill_after_insns`,
/// or a [`CancelCause::Kill`] token) aborts the run as
/// [`SimError::Killed`], discarding the partial run like a real crash would.
///
/// # Errors
///
/// [`SimError::Load`]-class failures from constructing the interpreter,
/// [`SimError::Killed`] for the injected crash, and
/// [`SimError::ModelStuck`] when the timing model cannot go on. Execution
/// faults, budget exhaustion and cancellation are *not* errors here — they
/// surface as a [`TruncationReason`] alongside the partial run.
pub fn run_timed_partial_ctl<P: Prober>(
    image: &ProcessImage,
    rand_seed: u64,
    config: CoreConfig,
    prober: &mut P,
    max_insns: u64,
    fault: FaultPlan,
    cancel: Option<&CancelToken>,
) -> Result<(TimedRun, Option<TruncationReason>), SimError> {
    let max_insns = max_insns.min(fault.abort_sample_at.unwrap_or(u64::MAX));
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
            if let Some(k) = fault.kill_after_insns {
                if retired >= k {
                    killed = Some(retired);
                    return None;
                }
            }
            match poll_cancel(cancel, retired, &mut next_cancel_poll) {
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
    let stats = stats?;
    let truncated = match error {
        Some(SimError::Exec { pc, message }) => Some(TruncationReason::ExecFault { pc, message }),
        Some(SimError::InsnLimit(n)) => Some(TruncationReason::InsnLimit(n)),
        Some(e) => return Err(e),
        None if cancelled.is_some() && interp.exit_code().is_none() => {
            Some(TruncationReason::Cancelled(cancelled.unwrap_or(0)))
        }
        None if limit_hit && interp.exit_code().is_none() => {
            Some(TruncationReason::at_limit(max_insns, fault.abort_sample_at))
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
        let (fault, tiny) = (FaultPlan::default(), CoreConfig::tiny());
        let (run, truncated) =
            run_timed_partial_ctl(&image, 0, tiny, &mut NoProbes, 1000, fault, None).unwrap();
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
        let (fault, tiny) = (FaultPlan::default(), CoreConfig::tiny());
        let (run, truncated) =
            run_timed_partial_ctl(&image, 0, tiny, &mut NoProbes, 1000, fault, None).unwrap();
        assert_eq!(truncated, None);
        assert_eq!(run.exit_code, Some(0));
    }

    #[test]
    fn stuck_model_is_a_typed_error() {
        // A syscall latency past the 5M-cycle deadlock window, which only a
        // config that skipped `CoreConfig::validate` can hold.
        let m = assemble(
            "t",
            ".func _start global\nli x0, 0\nsyscall\n.endfunc\n.entry _start",
        )
        .unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        let stuck = CoreConfig {
            syscall_latency: 6_000_000,
            ..CoreConfig::tiny()
        };
        assert!(stuck.validate().is_err());
        let err = run_timed(&image, 0, stuck, &mut NoProbes, 1000);
        assert!(
            matches!(err, Err(SimError::ModelStuck { cycle, .. }) if cycle >= 5_000_000),
            "{err:?}"
        );
    }
}
