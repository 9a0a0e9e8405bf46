//! One-call pipeline: the equivalent of `optiwise run -- <binary>`.
//!
//! Loads the program twice with different ASLR layouts, performs the
//! sampling run on the timing model and the instrumentation run on the DBI
//! engine, then fuses both profiles into an [`Analysis`] (figure 3's five
//! components end to end).
//!
//! The runner is fault-tolerant: a pass cut short by its instruction budget
//! is retried with an escalated budget (bounded by [`RetryPolicy`]); an
//! instrumentation pass that stays unusable degrades the analysis to
//! sampling-only instead of discarding the run; and the post-join
//! divergence check can fail the pipeline in strict mode.
//!
//! The two passes are *independent executions* of the same program (§III):
//! they share no state beyond the module list and the config, so by default
//! the runner overlaps them on two threads ([`OptiwiseConfig::concurrent_passes`]).
//! Each pass keeps its own budget-escalation retry loop, and the fused
//! analysis is built from the joined results exactly as in the sequential
//! order — output is bit-identical either way.

use std::collections::{HashMap, HashSet};

use wiser_dbi::{instrument_run_ctl, CountsPassControl, CountsProfile, DbiConfig};
use wiser_isa::Module;
use wiser_sampler::{sample_run_ctl, SamplePassControl, SampleProfile, SamplerConfig};
use wiser_sim::{
    CancelCause, CancelToken, CoreConfig, CoreStats, FaultPlan, LoadConfig, ModuleId,
    ProcessImage, TimedRun, TruncationReason,
};

use crate::analysis::{Analysis, AnalysisOptions, DEFAULT_DIVERGENCE_THRESHOLD};
use crate::error::{OptiwiseError, Pass};

/// Bounded re-run policy for passes cut short by their instruction budget.
///
/// Only budget exhaustion is retried — execution faults and injected aborts
/// are deterministic and would recur.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-runs allowed per pass after the first attempt.
    pub max_retries: u32,
    /// Budget multiplier applied on each retry.
    pub budget_multiplier: u64,
    /// Aggregate instruction cap across every attempt of one pass. Each
    /// retry replays from instruction zero, so escalation multiplies total
    /// work; an escalated budget that would push the pass's cumulative
    /// spend past this cap is not taken, and the final budget truncation
    /// stands as if it were non-retryable (the usual degradation path
    /// applies).
    pub max_total_insns: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            budget_multiplier: 4,
            max_total_insns: 8_000_000_000,
        }
    }
}

impl RetryPolicy {
    /// Whether a pass truncated by `reason` after `attempts` attempts may
    /// be re-run with `next_budget`, having already spent `spent`
    /// instructions across its previous attempts.
    fn may_retry(
        &self,
        attempts: u32,
        spent: u64,
        next_budget: u64,
        reason: &TruncationReason,
    ) -> bool {
        reason.retryable()
            && attempts <= self.max_retries
            && spent.saturating_add(next_budget) <= self.max_total_insns
    }
}

/// Pipeline progress notifications delivered to [`RunControl::observer`].
///
/// `*Checkpoint` events fire mid-pass every [`RunControl::checkpoint_every`]
/// committed instructions with an owned snapshot (always marked
/// `truncated = Cancelled`, since it describes an interrupted prefix of the
/// pass); `*Done` events fire exactly once per pass when its retry loop
/// settles, truncated or not. With concurrent passes the observer is called
/// from two threads, so it must be `Sync`.
pub enum PassEvent<'a> {
    /// Mid-pass snapshot of the sampling profile.
    SampleCheckpoint {
        /// Instructions committed at the snapshot.
        retired: u64,
        /// The partial profile (owned; nothing else retains it).
        profile: SampleProfile,
    },
    /// The sampling pass settled with this final profile.
    SampleDone {
        /// The final profile; `truncated` tells how it ended.
        profile: &'a SampleProfile,
    },
    /// Mid-pass snapshot of the instrumentation profile.
    CountsCheckpoint {
        /// Instructions committed at the snapshot.
        retired: u64,
        /// The partial profile (owned; nothing else retains it).
        profile: CountsProfile,
    },
    /// The instrumentation pass settled with this final profile.
    CountsDone {
        /// The final profile; `truncated` tells how it ended.
        profile: &'a CountsProfile,
    },
}

/// External controls threaded through one pipeline run: cooperative
/// cancellation, checkpoint cadence, an event observer (typically a
/// checkpoint writer), and passes restored from a previous checkpoint.
///
/// The default is inert: a fresh token nobody cancels, no checkpoints, no
/// observer, nothing restored — exactly [`run_optiwise`].
#[derive(Default)]
pub struct RunControl<'a> {
    /// Cancellation token polled by both passes at instruction boundaries.
    pub cancel: CancelToken,
    /// Checkpoint cadence in committed instructions; 0 disables checkpoint
    /// events (Done events still fire).
    pub checkpoint_every: u64,
    /// Receives [`PassEvent`]s; must be `Sync` because concurrent passes
    /// call it from two threads.
    pub observer: Option<&'a (dyn Fn(PassEvent<'_>) + Sync)>,
    /// Passes restored from a file, skipping their re-execution.
    pub resume: ResumeState,
}

/// Passes restored from a file instead of re-executed: the completed passes
/// of a checkpoint (`optiwise resume`), or both split-workflow files
/// (`optiwise analyze`).
///
/// A restored profile may be truncated (a split counts pass cut by its
/// budget, say); it then goes through the same recovery ladder as a fresh
/// pass truncated the same way — degradation, warnings and the strict
/// checks alike. Restored passes are never retried. `resume` restores only
/// passes that finished and replays the others from instruction zero,
/// which is what makes a resumed run byte-identical to an uninterrupted
/// one.
#[derive(Default)]
pub struct ResumeState {
    /// Sampling profile to restore, if any.
    pub samples: Option<SampleProfile>,
    /// Instrumentation profile to restore, if any.
    pub counts: Option<CountsProfile>,
}

/// Order-sensitive FNV-1a fingerprint over the identity-bearing parts of a
/// module set (name, text, data, bss size, entry point).
///
/// A checkpoint taken against one build of a program must not resume
/// against another: the replayed passes would silently profile different
/// code while claiming the restored passes describe it.
pub fn module_fingerprint(modules: &[Module]) -> u64 {
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in modules {
        h = eat(h, m.name.as_bytes());
        h = eat(h, &[0]);
        h = eat(h, &m.text);
        h = eat(h, &[0]);
        h = eat(h, &m.data);
        h = eat(h, &m.bss_size.to_le_bytes());
        h = eat(h, &m.entry.unwrap_or(u64::MAX).to_le_bytes());
    }
    h
}

/// Configuration of the whole OptiWISE pipeline.
#[derive(Clone, Debug)]
pub struct OptiwiseConfig {
    /// Microarchitecture to sample on.
    pub core: CoreConfig,
    /// Sampling parameters.
    pub sampler: SamplerConfig,
    /// Instrumentation parameters.
    pub dbi: DbiConfig,
    /// Analysis options (loop merging).
    pub analysis: AnalysisOptions,
    /// Program input seed (the deterministic `rand` syscall); identical in
    /// both runs so control flow matches (§IV-F).
    pub rand_seed: u64,
    /// Instruction budget per run.
    pub max_insns: u64,
    /// ASLR seeds for the two runs; distinct values prove the analysis is
    /// keyed on module-relative addresses.
    pub aslr_seeds: (u64, u64),
    /// Fail instead of degrading: truncated profiles and above-threshold
    /// divergence become errors.
    pub strict: bool,
    /// Permit truncated/partial profiles to flow into the analysis (ignored
    /// — treated as `false` — when `strict` is set).
    pub allow_partial: bool,
    /// Re-run policy for budget-truncated passes.
    pub retry: RetryPolicy,
    /// Deterministic fault injection applied to both passes (testing only).
    pub fault: FaultPlan,
    /// Overlap the sampling and instrumentation passes on two threads. The
    /// passes are independent executions, so the fused output is
    /// bit-identical either way; disable only to measure the sequential
    /// baseline or to cap the pipeline at one thread.
    pub concurrent_passes: bool,
    /// Two-phase selective instrumentation: run the sampling pass first,
    /// rank functions by sample weight, and fully instrument only those at
    /// or above [`OptiwiseConfig::hot_threshold`]. Cold functions keep
    /// their sampling attribution and are marked
    /// [`crate::Coverage::SamplingOnly`]. Forces sequential passes (the
    /// instrumentation plan needs the sampling profile).
    pub selective: bool,
    /// Minimum fraction of total sample weight a function must carry to be
    /// fully instrumented under [`OptiwiseConfig::selective`].
    pub hot_threshold: f64,
    /// Charge one counter per executed block/edge as the seed engine did,
    /// instead of computing a minimal counter placement and recovering the
    /// suppressed values by flow conservation at analysis time. The
    /// recovered profile is bit-identical either way; this switch exists to
    /// measure the overhead delta and as an escape hatch.
    pub exhaustive_counters: bool,
}

impl Default for OptiwiseConfig {
    fn default() -> OptiwiseConfig {
        OptiwiseConfig {
            core: CoreConfig::xeon_like(),
            sampler: SamplerConfig::default(),
            dbi: DbiConfig::default(),
            analysis: AnalysisOptions::default(),
            rand_seed: 0,
            max_insns: 200_000_000,
            aslr_seeds: (0x5a5a, 0xa5a5),
            strict: false,
            allow_partial: true,
            retry: RetryPolicy::default(),
            fault: FaultPlan::default(),
            concurrent_passes: true,
            selective: false,
            hot_threshold: DEFAULT_HOT_THRESHOLD,
            exhaustive_counters: false,
        }
    }
}

/// Default [`OptiwiseConfig::hot_threshold`]: 1% of total sample weight.
pub const DEFAULT_HOT_THRESHOLD: f64 = 0.01;

/// Ranks functions by self sample weight and splits them at `hot_threshold`.
///
/// Returns the instrumentation ranges (module-relative text spans) of the
/// hot functions plus their `(module, name)` keys for the analysis'
/// coverage marking, or `None` when the profile carries no weight at all —
/// with nothing to rank, full instrumentation is the only safe plan.
///
/// Everything here is a deterministic function of the sampling profile and
/// the module list, so selective runs inherit the pipeline's bit-identical
/// reproducibility.
/// Module-relative text spans to fully instrument under `--selective`.
type SelectiveRanges = Vec<(ModuleId, u64, u64)>;
/// `(module index, function name)` keys of the fully-counted hot set.
type HotSet = HashSet<(u32, String)>;

fn plan_selective(
    modules: &[Module],
    samples: &SampleProfile,
    hot_threshold: f64,
) -> Option<(SelectiveRanges, HotSet)> {
    let mut weight_by_func: HashMap<(u32, u64), u64> = HashMap::new();
    let mut total: u64 = 0;
    for s in &samples.samples {
        total += s.weight;
        let m = s.loc.module.0;
        if let Some(sym) = modules
            .get(m as usize)
            .and_then(|md| md.function_at(s.loc.offset))
        {
            *weight_by_func.entry((m, sym.offset)).or_insert(0) += s.weight;
        }
    }
    if total == 0 {
        return None;
    }
    let mut ranges = Vec::new();
    let mut hot = HashSet::new();
    for (mi, md) in modules.iter().enumerate() {
        for sym in md.functions() {
            let w = weight_by_func
                .get(&(mi as u32, sym.offset))
                .copied()
                .unwrap_or(0);
            if w > 0 && w as f64 >= hot_threshold * total as f64 {
                ranges.push((ModuleId(mi as u32), sym.offset, sym.offset + sym.size));
                hot.insert((mi as u32, sym.name.clone()));
            }
        }
    }
    Some((ranges, hot))
}

/// Everything OptiWISE produced for one program.
pub struct OptiwiseRun {
    /// The fused analysis.
    pub analysis: Analysis,
    /// Raw sampling profile (run 1).
    pub samples: SampleProfile,
    /// Raw instrumentation profile (run 2).
    pub counts: CountsProfile,
    /// Timing statistics of the sampled run.
    pub timed: TimedRun,
    /// Attempts used per pass (1 = no retries needed): `(sampling,
    /// instrumentation)`.
    pub attempts: (u32, u32),
}

/// Runs the full OptiWISE pipeline on a set of modules.
///
/// Recovery behaviour, in order:
///
/// 1. A pass truncated by its instruction budget is re-run with the budget
///    escalated per `config.retry` (injected aborts and execution faults
///    are deterministic and never retried).
/// 2. A sampling profile that stays truncated is still used (partial
///    cycles), unless `strict` or `!allow_partial`.
/// 3. A counts profile that stays truncated is *discarded* — truncated
///    counts systematically undercount late code, which would silently
///    skew every CPI — and the analysis degrades to sampling-only, again
///    unless `strict` or `!allow_partial`.
/// 4. In strict mode, a post-join divergence score above
///    [`DEFAULT_DIVERGENCE_THRESHOLD`] fails the run.
///
/// # Errors
///
/// Returns [`OptiwiseError`]: loader/simulator failures from either run,
/// [`OptiwiseError::Truncated`] when partial profiles are disallowed, and
/// [`OptiwiseError::Divergence`] in strict mode.
///
/// # Examples
///
/// ```
/// use optiwise::{run_optiwise, OptiwiseConfig};
/// use wiser_isa::assemble;
///
/// let module = assemble(
///     "demo",
///     r#"
///     .func _start global
///         li x8, 10000
///         li x9, 0
///     loop:
///         subi x8, x8, 1
///         bne x8, x9, loop
///         li x0, 0
///         syscall
///     .endfunc
///     .entry _start
///     "#,
/// )?;
/// let run = run_optiwise(&[module], &OptiwiseConfig::default())?;
/// assert!(!run.analysis.loops().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_optiwise(
    modules: &[Module],
    config: &OptiwiseConfig,
) -> Result<OptiwiseRun, OptiwiseError> {
    run_optiwise_ctl(modules, config, RunControl::default())
}

/// Runs the full OptiWISE pipeline under external [`RunControl`]: a
/// cancellation token (deadline / Ctrl-C) stops both passes at the next
/// safe instruction boundary and surfaces as
/// [`OptiwiseError::DeadlineExceeded`] (exit code 8) *after* the final
/// state reached the observer; checkpoint events fire on the configured
/// cadence; and passes restored via [`ResumeState`] are not re-executed
/// (their `attempts` count reads 0).
///
/// # Errors
///
/// Everything [`run_optiwise`] returns, plus
/// [`OptiwiseError::DeadlineExceeded`] for cancellation and
/// [`OptiwiseError::Killed`] for an injected crash.
pub fn run_optiwise_ctl(
    modules: &[Module],
    config: &OptiwiseConfig,
    ctl: RunControl<'_>,
) -> Result<OptiwiseRun, OptiwiseError> {
    // Central chokepoint for uarch-config validation: every entry into the
    // pipeline — CLI run/resume, daemon jobs, sweep cells — passes through
    // here, so a user-supplied grid can never reach the timing model with a
    // divide-by-zero cache geometry or a zero-width pipeline.
    config
        .core
        .validate()
        .map_err(|e| OptiwiseError::Usage(e.to_string()))?;
    let allow_partial = config.allow_partial && !config.strict;
    let RunControl {
        cancel,
        checkpoint_every,
        observer,
        resume,
    } = ctl;
    let ResumeState {
        samples: restored_samples,
        counts: restored_counts,
    } = resume;
    let cancel = &cancel;

    // Pass 1: sampling on the timing model, retrying on budget exhaustion.
    let sampling_pass = move || -> Result<(SampleProfile, TimedRun, u32), OptiwiseError> {
        if let Some(prior) = restored_samples {
            // Restored from a checkpoint: the profile is used verbatim and
            // the timing summary is synthesized from its totals (nothing
            // downstream reads deeper pipeline statistics from a resumed
            // run). Re-announce it so a continuing checkpoint keeps it.
            let timed = TimedRun {
                stats: CoreStats {
                    cycles: prior.total_cycles,
                    retired: prior.retired,
                    ..CoreStats::default()
                },
                exit_code: None,
                output: String::new(),
            };
            if let Some(obs) = observer {
                obs(PassEvent::SampleDone { profile: &prior });
            }
            return Ok((prior, timed, 0));
        }
        let load_a = LoadConfig {
            aslr_seed: Some(config.aslr_seeds.0),
            ..LoadConfig::default()
        };
        let image_a = ProcessImage::load(modules, &load_a)?;
        let mut sampler_cfg = config.sampler;
        sampler_cfg.fault = config.fault;
        let mut budget = config.max_insns;
        let mut attempts = 0u32;
        let mut spent = 0u64;
        loop {
            attempts += 1;
            let mut sink = |retired: u64, profile: SampleProfile| {
                if let Some(obs) = observer {
                    obs(PassEvent::SampleCheckpoint { retired, profile });
                }
            };
            let pass_ctl = SamplePassControl {
                cancel: Some(cancel),
                checkpoint_every,
                sink: observer.is_some().then_some(&mut sink as _),
            };
            let (samples, timed) = sample_run_ctl(
                &image_a,
                config.rand_seed,
                config.core,
                sampler_cfg,
                budget,
                pass_ctl,
            )?;
            spent += timed.stats.retired;
            let escalated = budget.saturating_mul(config.retry.budget_multiplier);
            match &samples.truncated {
                Some(reason) if config.retry.may_retry(attempts, spent, escalated, reason) => {
                    budget = escalated;
                }
                _ => {
                    if let Some(obs) = observer {
                        obs(PassEvent::SampleDone { profile: &samples });
                    }
                    break Ok((samples, timed, attempts));
                }
            }
        }
    };

    // Pass 2: instrumentation, under a different layout. The fault plan's
    // desync seed (if any) deliberately runs this pass on different input.
    // Also returns the linked (module-relative) view the analysis keys on.
    // `selective_ranges` (from `plan_selective`) restricts full counting to
    // the listed text spans; `None` counts everything.
    let counts_pass = move |selective_ranges: Option<Vec<(ModuleId, u64, u64)>>|
          -> Result<(CountsProfile, Vec<Module>, u32), OptiwiseError> {
        let load_b = LoadConfig {
            aslr_seed: Some(config.aslr_seeds.1),
            ..LoadConfig::default()
        };
        let image_b = ProcessImage::load(modules, &load_b)?;
        let linked: Vec<Module> = image_b.modules.iter().map(|m| m.linked.clone()).collect();
        if let Some(prior) = restored_counts {
            if let Some(obs) = observer {
                obs(PassEvent::CountsDone { profile: &prior });
            }
            return Ok((prior, linked, 0));
        }
        let dbi_rand_seed = config.fault.desync_rand_seed.unwrap_or(config.rand_seed);
        let mut budget = config.max_insns;
        let mut attempts = 0u32;
        let mut spent = 0u64;
        let counts = loop {
            attempts += 1;
            let dbi_cfg = DbiConfig {
                rand_seed: dbi_rand_seed,
                max_insns: budget,
                fault: config.fault,
                selective: selective_ranges.clone().or_else(|| config.dbi.selective.clone()),
                ..config.dbi.clone()
            };
            let mut sink = |retired: u64, profile: CountsProfile| {
                if let Some(obs) = observer {
                    obs(PassEvent::CountsCheckpoint { retired, profile });
                }
            };
            let pass_ctl = CountsPassControl {
                cancel: Some(cancel),
                checkpoint_every,
                sink: observer.is_some().then_some(&mut sink as _),
            };
            let counts = instrument_run_ctl(&image_b, &dbi_cfg, pass_ctl)?;
            spent += counts.total_insns();
            let escalated = budget.saturating_mul(config.retry.budget_multiplier);
            match &counts.truncated {
                Some(reason) if config.retry.may_retry(attempts, spent, escalated, reason) => {
                    budget = escalated;
                }
                _ => break counts,
            }
        };
        if let Some(obs) = observer {
            obs(PassEvent::CountsDone { profile: &counts });
        }
        Ok((counts, linked, attempts))
    };

    // The two passes are independent executions of the same program with
    // their own process images and retry loops, so they can overlap. Errors
    // are reported in the fixed pass order (sampling first) regardless of
    // which thread failed first, keeping failures deterministic too.
    //
    // Selective mode breaks the independence on purpose: the sampling
    // profile decides which functions the instrumentation pass counts, so
    // the passes run sequentially and the hot set flows into both the DBI
    // config and the analysis' coverage marking.
    let (sampling_result, counts_result, hot_set) = if config.selective {
        let sampled = sampling_pass()?;
        let (ranges, hot) = match plan_selective(modules, &sampled.0, config.hot_threshold) {
            Some((ranges, hot)) => (Some(ranges), Some(hot)),
            // No sample weight to rank by: instrument everything.
            None => (None, None),
        };
        let counts_result = counts_pass(ranges);
        (Ok(sampled), counts_result, hot)
    } else if config.concurrent_passes {
        let (s, c) = std::thread::scope(|scope| {
            let dbi_thread = scope.spawn(move || counts_pass(None));
            let sampling_result = sampling_pass();
            let counts_result = dbi_thread
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (sampling_result, counts_result)
        });
        (s, c, None)
    } else {
        (sampling_pass(), counts_pass(None), None)
    };
    let (samples, timed, sample_attempts) = sampling_result?;
    let (mut counts, linked, count_attempts) = counts_result?;

    // Cooperative cancellation in either pass stops the pipeline here, with
    // a dedicated error class (exit code 8) instead of the truncation
    // handling below. The Done events above already handed the partial
    // state to the observer, so a configured checkpoint has everything.
    let cancel_point = |t: &Option<TruncationReason>| match t {
        Some(TruncationReason::Cancelled(n)) => Some(*n),
        _ => None,
    };
    let cancelled = cancel_point(&samples.truncated).max(cancel_point(&counts.truncated));
    if let Some(retired) = cancelled {
        return Err(OptiwiseError::DeadlineExceeded {
            retired,
            deadline: matches!(cancel.cause(), Some(CancelCause::Deadline)),
        });
    }

    if let Some(reason) = &samples.truncated {
        if !allow_partial {
            return Err(OptiwiseError::Truncated {
                pass: Pass::Sampling,
                reason: reason.clone(),
            });
        }
    }

    // Analysis over the linked modules (module-relative, layout agnostic).
    let analysis = match &counts.truncated {
        Some(reason) => {
            if !allow_partial {
                return Err(OptiwiseError::Truncated {
                    pass: Pass::Instrumentation,
                    reason: reason.clone(),
                });
            }
            // Truncated counts undercount everything executed after the
            // cut; fusing them would silently skew CPI. Degrade to a
            // labelled sampling-only analysis instead.
            let mut analysis = Analysis::sampling_only(&linked, &samples, config.analysis)?;
            analysis.diagnostics.counts_truncated = Some(reason.clone());
            analysis.diagnostics.warnings.push(format!(
                "instrumentation run truncated ({reason}); counts profile discarded"
            ));
            analysis
        }
        None => {
            // Minimal counter placement: drop every counter whose value
            // flow conservation provably recovers, then hand the analysis
            // the placed profile (it recovers internally, bit-identically).
            // Restored profiles already carry their placement, so resumed
            // runs stay byte-identical to uninterrupted ones.
            if !config.exhaustive_counters && counts.placement.is_none() {
                wiser_cfg::optimize_placement(&mut counts, &linked, &config.dbi.cost);
            }
            match &hot_set {
                Some(hot) => {
                    Analysis::try_new_selective(&linked, &samples, &counts, config.analysis, hot)?
                }
                None => Analysis::try_new(&linked, &samples, &counts, config.analysis)?,
            }
        }
    };

    if config.strict && analysis.diagnostics.diverged(DEFAULT_DIVERGENCE_THRESHOLD) {
        return Err(OptiwiseError::Divergence {
            score: analysis.diagnostics.divergence_score,
            threshold: DEFAULT_DIVERGENCE_THRESHOLD,
            summary: analysis.diagnostics.summary(),
        });
    }

    Ok(OptiwiseRun {
        analysis,
        samples,
        counts,
        timed,
        attempts: (sample_attempts, count_attempts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisMode;
    use wiser_sim::TruncationReason;
    use wiser_isa::assemble;

    fn counted_loop() -> Module {
        assemble(
            "cl",
            r#"
            .func _start global
                li x8, 5000
                li x9, 0
            loop:
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap()
    }

    #[test]
    fn budget_retry_recovers_truncated_passes() {
        // ~15k instructions needed; first attempt's 8k budget truncates,
        // the 4x-escalated retry completes.
        let cfg = OptiwiseConfig {
            max_insns: 8_000,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        assert_eq!(run.attempts, (2, 2));
        assert_eq!(run.samples.truncated, None);
        assert_eq!(run.counts.truncated, None);
        assert_eq!(run.analysis.mode, AnalysisMode::Full);
        assert_eq!(run.timed.exit_code, Some(5000));
    }

    #[test]
    fn injected_counts_truncation_degrades_to_sampling_only() {
        let mut cfg = OptiwiseConfig::default();
        cfg.fault.truncate_counts_at = Some(5_000);
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        // Injected aborts are deterministic: no retry is spent on them.
        assert_eq!(run.attempts.1, 1);
        assert_eq!(run.counts.truncated, Some(TruncationReason::Injected(5_000)));
        assert_eq!(run.analysis.mode, AnalysisMode::SamplingOnly);
        assert!(run
            .analysis
            .diagnostics
            .warnings
            .iter()
            .any(|w| w.contains("counts profile discarded")));
        // Cycle attribution still works in degraded mode.
        assert!(run.analysis.total_cycles > 0);
        assert_eq!(run.analysis.total_insns, 0);
    }

    #[test]
    fn strict_rejects_truncation_instead_of_degrading() {
        let mut cfg = OptiwiseConfig {
            strict: true,
            ..OptiwiseConfig::default()
        };
        cfg.fault.truncate_counts_at = Some(5_000);
        let err = match run_optiwise(&[counted_loop()], &cfg) {
            Err(e) => e,
            Ok(_) => panic!("strict run with injected truncation should fail"),
        };
        assert!(matches!(
            err,
            OptiwiseError::Truncated {
                pass: Pass::Instrumentation,
                ..
            }
        ));
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn strict_passes_on_healthy_run() {
        let cfg = OptiwiseConfig {
            strict: true,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        assert!(run.analysis.diagnostics.divergence_score < DEFAULT_DIVERGENCE_THRESHOLD);
        assert_eq!(run.attempts, (1, 1));
    }

    #[test]
    fn concurrent_and_sequential_passes_agree_exactly() {
        let par = run_optiwise(&[counted_loop()], &OptiwiseConfig::default()).unwrap();
        let seq = run_optiwise(
            &[counted_loop()],
            &OptiwiseConfig {
                concurrent_passes: false,
                ..OptiwiseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(par.samples, seq.samples);
        assert_eq!(par.counts, seq.counts);
        assert_eq!(par.attempts, seq.attempts);
        assert_eq!(
            crate::report::full_report(&par.analysis, 20),
            crate::report::full_report(&seq.analysis, 20),
        );
    }

    #[test]
    fn total_insn_cap_makes_final_truncation_stand() {
        // ~15k instructions needed. The 8k first attempt truncates; the
        // default policy would retry at 32k and succeed, but the 20k
        // aggregate cap forbids spending 8k + 32k, so the budget truncation
        // stands as non-retryable and the run degrades to sampling-only.
        let cfg = OptiwiseConfig {
            max_insns: 8_000,
            retry: RetryPolicy {
                max_total_insns: 20_000,
                ..RetryPolicy::default()
            },
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        assert_eq!(run.attempts, (1, 1));
        assert_eq!(run.counts.truncated, Some(TruncationReason::InsnLimit(8_000)));
        assert_eq!(run.analysis.mode, AnalysisMode::SamplingOnly);

        // Same workload with a permissive cap retries and completes.
        let cfg = OptiwiseConfig {
            max_insns: 8_000,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
        assert_eq!(run.attempts, (2, 2));
    }

    #[test]
    fn cancelled_token_surfaces_as_deadline_exceeded() {
        let ctl = RunControl::default();
        ctl.cancel.cancel();
        let err = match run_optiwise_ctl(&[counted_loop()], &OptiwiseConfig::default(), ctl) {
            Err(e) => e,
            Ok(_) => panic!("pre-cancelled run should fail"),
        };
        match err {
            OptiwiseError::DeadlineExceeded { deadline, .. } => assert!(!deadline),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert_eq!(
            OptiwiseError::DeadlineExceeded {
                retired: 0,
                deadline: false
            }
            .exit_code(),
            8
        );
    }

    #[test]
    fn injected_kill_surfaces_as_killed() {
        let mut cfg = OptiwiseConfig::default();
        cfg.fault.kill_after_insns = Some(6_000);
        let err = match run_optiwise(&[counted_loop()], &cfg) {
            Err(e) => e,
            Ok(_) => panic!("injected kill should fail the run"),
        };
        assert!(matches!(err, OptiwiseError::Killed { .. }), "{err}");
        assert_eq!(err.exit_code(), 9);
    }

    #[test]
    fn restored_passes_skip_execution_and_match_fresh_run() {
        let cfg = OptiwiseConfig::default();
        let fresh = run_optiwise(&[counted_loop()], &cfg).unwrap();

        let ctl = RunControl {
            resume: ResumeState {
                samples: Some(fresh.samples.clone()),
                counts: Some(fresh.counts.clone()),
            },
            ..RunControl::default()
        };
        let resumed = run_optiwise_ctl(&[counted_loop()], &cfg, ctl).unwrap();
        assert_eq!(resumed.attempts, (0, 0));
        assert_eq!(resumed.samples, fresh.samples);
        assert_eq!(resumed.counts, fresh.counts);
        assert_eq!(
            crate::report::full_report(&resumed.analysis, 20),
            crate::report::full_report(&fresh.analysis, 20),
        );
    }

    #[test]
    fn observer_receives_checkpoints_and_done_events() {
        use std::sync::Mutex;
        // (sample ckpts, counts ckpts, sample done, counts done)
        let seen = Mutex::new((0u32, 0u32, 0u32, 0u32));
        let observer = |ev: PassEvent<'_>| {
            let mut s = seen.lock().unwrap();
            match ev {
                PassEvent::SampleCheckpoint { profile, .. } => {
                    assert!(matches!(
                        profile.truncated,
                        Some(TruncationReason::Cancelled(_))
                    ));
                    s.0 += 1;
                }
                PassEvent::CountsCheckpoint { profile, .. } => {
                    assert!(matches!(
                        profile.truncated,
                        Some(TruncationReason::Cancelled(_))
                    ));
                    s.1 += 1;
                }
                PassEvent::SampleDone { profile } => {
                    assert!(profile.truncated.is_none());
                    s.2 += 1;
                }
                PassEvent::CountsDone { profile } => {
                    assert!(profile.truncated.is_none());
                    s.3 += 1;
                }
            }
        };
        let ctl = RunControl {
            checkpoint_every: 4_000,
            observer: Some(&observer),
            ..RunControl::default()
        };
        run_optiwise_ctl(&[counted_loop()], &OptiwiseConfig::default(), ctl).unwrap();
        let s = seen.into_inner().unwrap();
        // ~15k instructions at a 4k cadence: several snapshots per pass,
        // one Done each.
        assert!(s.0 >= 2, "sample checkpoints: {}", s.0);
        assert!(s.1 >= 2, "counts checkpoints: {}", s.1);
        assert_eq!((s.2, s.3), (1, 1));
    }

    #[test]
    fn pipeline_end_to_end() {
        let module = assemble(
            "e2e",
            r#"
            .func _start global
                li x8, 5000
                li x9, 0
            loop:
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let run = run_optiwise(&[module], &OptiwiseConfig::default()).unwrap();
        // Exit code is x1, the loop counter.
        assert_eq!(run.timed.exit_code, Some(5000));
        assert_eq!(run.analysis.loops().len(), 1);
        assert_eq!(run.analysis.loops()[0].iterations, 4999);
        assert!(run.analysis.total_cycles > 0);
        // Same program, both runs: instruction totals agree exactly. The
        // raw profile carries a minimal counter placement (some counters
        // suppressed), so the exact total lives in the recovered view the
        // analysis built.
        assert_eq!(run.analysis.total_insns, run.timed.stats.retired);
        let placement = run.counts.placement.as_ref().expect("placement applied");
        assert!(!placement.recovered);
        assert!(run.counts.cost.counters_suppressed > 0);
        let recovered = wiser_cfg::recover(&run.counts).unwrap();
        assert_eq!(recovered.total_insns(), run.timed.stats.retired);
    }

    #[test]
    fn placement_recovers_bit_identically_to_exhaustive_counting() {
        let placed = run_optiwise(&[counted_loop()], &OptiwiseConfig::default()).unwrap();
        let exhaustive = run_optiwise(
            &[counted_loop()],
            &OptiwiseConfig {
                exhaustive_counters: true,
                ..OptiwiseConfig::default()
            },
        )
        .unwrap();
        assert!(exhaustive.counts.placement.is_none());
        // The placed run drops real instrumentation work...
        assert!(
            placed.counts.cost.instrumented_insns < exhaustive.counts.cost.instrumented_insns
        );
        assert!(
            placed.counts.cost.counters_placed < exhaustive.counts.cost.counters_placed
        );
        // ...and recovery reproduces the exhaustive profile's counts
        // exactly, so the analyses agree verbatim.
        let recovered = wiser_cfg::recover(&placed.counts).unwrap();
        assert_eq!(recovered.blocks, exhaustive.counts.blocks);
        assert_eq!(
            crate::report::full_report(&placed.analysis, 20),
            crate::report::full_report(&exhaustive.analysis, 20),
        );
    }

    #[test]
    fn selective_mode_counts_hot_functions_and_marks_cold_ones() {
        use crate::types::Coverage;
        let main = assemble(
            "sel",
            r#"
            .func cold_setup
                li x5, 3000
                li x6, 0
            tiny:
                subi x5, x5, 1
                bne x5, x6, tiny
                ret
            .endfunc
            .func hot_spin global
                li x1, 40000
                li x2, 0
            spin:
                udiv x3, x1, x1
                subi x1, x1, 1
                bne x1, x2, spin
                ret
            .endfunc
            .func _start global
                call cold_setup
                call hot_spin
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let cfg = OptiwiseConfig {
            selective: true,
            // cold_setup runs ~6k cycles — enough to catch several samples
            // at the default 2048-cycle period, far below 10% of the
            // udiv-dominated total.
            hot_threshold: 0.10,
            ..OptiwiseConfig::default()
        };
        let run = run_optiwise(std::slice::from_ref(&main), &cfg).unwrap();
        assert_eq!(run.analysis.mode, AnalysisMode::Full);
        let hot = run.analysis.function("hot_spin").expect("hot function");
        assert_eq!(hot.coverage, Coverage::Counted);
        assert_eq!(hot.self_insns, 2 + 3 * 40_000 + 1);
        // The setup function ran for a handful of instructions: far below
        // the hotness threshold, so it keeps cycles but has no counts.
        let cold = run.analysis.function("cold_setup").expect("cold function");
        assert_eq!(cold.coverage, Coverage::SamplingOnly);
        assert_eq!(cold.self_insns, 0);
        // Stack profiling stays exact for cold code: the callee table still
        // attributes hot_spin's instructions to _start's call site.
        let start = run.analysis.function("_start").unwrap();
        assert!(start.incl_insns > 3 * 40_000);
        // Selective runs are deterministic like everything else.
        let again = run_optiwise(&[main], &cfg).unwrap();
        assert_eq!(again.counts, run.counts);
        assert_eq!(
            crate::report::full_report(&again.analysis, 20),
            crate::report::full_report(&run.analysis, 20),
        );
    }

    #[test]
    fn cross_module_pipeline() {
        let main = assemble(
            "main",
            r#"
            .import busy
            .func _start global
                li x8, 2000
                li x9, 0
            loop:
                call busy
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let lib = assemble(
            "libbusy",
            r#"
            .func busy global
                li x1, 50
                li x2, 0
            spin:
                subi x1, x1, 1
                bne x1, x2, spin
                ret
            .endfunc
            "#,
        )
        .unwrap();
        let run = run_optiwise(&[main, lib], &OptiwiseConfig::default()).unwrap();
        // The caller loop subsumes the callee's spin loop, so it sorts on
        // top; the spin loop in the library module is second.
        let caller_loop = run
            .analysis
            .loops()
            .iter()
            .find(|l| l.function == "_start")
            .unwrap();
        let spin_loop = run
            .analysis
            .loops()
            .iter()
            .find(|l| l.function == "busy")
            .expect("spin loop in library module");
        assert_eq!(spin_loop.module, 1);
        assert!(caller_loop.cycles >= spin_loop.cycles);
        // The callee still holds the lion's share of the time.
        assert!(spin_loop.cycles * 2 > caller_loop.cycles);
        // And its instruction total includes callee instructions via the
        // callee table (2000 calls × ~102 insns each).
        assert!(caller_loop.total_insns > 2000 * 100);
    }
}
