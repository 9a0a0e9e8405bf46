//! Deterministic fault-injection tests: every recovery path of the
//! pipeline is driven by a seeded [`FaultPlan`] and asserted end to end —
//! partial-profile recovery, degraded sampling-only analysis, corrupted
//! profile images, run-divergence detection on desynced seeds, and
//! crash-style kills at instruction and checkpoint-write boundaries.

use optiwise::{
    module_fingerprint, report, run_optiwise, run_optiwise_ctl, AnalysisMode, CancelToken,
    OptiwiseConfig, OptiwiseError, PassEvent, RunControl, DEFAULT_DIVERGENCE_THRESHOLD,
};
use std::path::PathBuf;

use wiser_isa::Module;
use wiser_sim::{FaultPlan, TruncationReason};
use wiser_store::{Checkpoint, CheckpointSpec, CheckpointWriter};

fn rand_walk() -> Vec<Module> {
    wiser_workloads::by_name("rand_walk")
        .expect("rand_walk workload registered")
        .build(wiser_workloads::InputSize::Test)
        .unwrap()
}

fn counted_loop() -> Module {
    wiser_isa::assemble(
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
fn truncated_counts_still_produce_labelled_degraded_report() {
    let mut cfg = OptiwiseConfig::default();
    cfg.fault.truncate_counts_at = Some(4_000);
    let run = run_optiwise(&[counted_loop()], &cfg).unwrap();

    assert_eq!(run.analysis.mode, AnalysisMode::SamplingOnly);
    assert_eq!(
        run.counts.truncated,
        Some(TruncationReason::Injected(4_000))
    );
    // Sampling data survives: cycles are attributed even without counts.
    assert!(run.analysis.total_cycles > 0);
    assert_eq!(run.analysis.total_insns, 0);

    // The report says so, loudly, instead of printing silently wrong CPI.
    let text = report::full_report(&run.analysis, 10);
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("truncated"), "{text}");
    assert!(text.contains("-- functions --"), "{text}");
}

#[test]
fn dropped_samples_never_lose_cycles() {
    let mut cfg = OptiwiseConfig::default();
    cfg.fault.seed = 7;
    cfg.fault.drop_sample_pct = 40;
    let faulty = run_optiwise(&[counted_loop()], &cfg).unwrap();
    let clean = run_optiwise(&[counted_loop()], &OptiwiseConfig::default()).unwrap();

    // Dropping is per-sample, not per-cycle: the conserved quantity is
    // samples + unmapped, and total_cycles comes from the run itself.
    assert!(faulty.samples.samples.len() < clean.samples.samples.len());
    assert_eq!(
        faulty.samples.samples.len() as u64 + faulty.samples.unmapped,
        clean.samples.samples.len() as u64 + clean.samples.unmapped,
    );
    assert_eq!(faulty.samples.total_cycles, clean.samples.total_cycles);
    // And the same fault plan drops the same samples every time.
    let again = run_optiwise(&[counted_loop()], &cfg).unwrap();
    assert_eq!(again.samples, faulty.samples);
}

#[test]
fn zero_sample_run_analyzes_without_panicking() {
    // Drop every sample: the profile is empty but the pipeline, the join
    // and the report all keep working.
    let mut cfg = OptiwiseConfig::default();
    cfg.fault.drop_sample_pct = 100;
    let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
    assert!(run.samples.samples.is_empty());
    assert!(run.samples.unmapped > 0);
    assert_eq!(run.analysis.total_cycles, 0);
    // The raw profile is counter-placed; recover before reading the total.
    assert!(wiser_cfg::recover(&run.counts).unwrap().total_insns() > 0);
    let text = report::full_report(&run.analysis, 10);
    assert!(text.contains("OptiWISE report"), "{text}");
}

#[test]
fn desynced_rand_seed_is_detected_as_divergence() {
    // Same program, but the instrumentation pass runs with a different
    // rand seed: §IV-F's same-control-flow assumption is broken and the
    // reconciliation pass must notice.
    let mut cfg = OptiwiseConfig::default();
    cfg.fault.desync_rand_seed = Some(99);
    let run = run_optiwise(&rand_walk(), &cfg).unwrap();
    let score = run.analysis.diagnostics.divergence_score;
    assert!(
        score > DEFAULT_DIVERGENCE_THRESHOLD,
        "desynced run scored {score}"
    );
    assert!(!run.analysis.diagnostics.warnings.is_empty());

    // The same desync under --strict is a hard Divergence error.
    cfg.strict = true;
    match run_optiwise(&rand_walk(), &cfg) {
        Err(OptiwiseError::Divergence { score, .. }) => {
            assert!(score > DEFAULT_DIVERGENCE_THRESHOLD);
        }
        Err(e) => panic!("expected divergence, got {e}"),
        Ok(_) => panic!("strict desynced run must fail"),
    }

    // And the control: synced seeds stay comfortably under the threshold.
    let clean = run_optiwise(&rand_walk(), &OptiwiseConfig::default()).unwrap();
    assert!(
        clean.analysis.diagnostics.divergence_score < DEFAULT_DIVERGENCE_THRESHOLD,
        "clean run scored {}",
        clean.analysis.diagnostics.divergence_score
    );
}

#[test]
fn injected_sampling_abort_is_retried_only_for_real_limits() {
    // An injected abort is deterministic: retrying would waste a run, so
    // the runner must not spend its retry budget on it.
    let mut cfg = OptiwiseConfig::default();
    cfg.fault.abort_sample_at = Some(3_000);
    let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
    assert_eq!(run.attempts.0, 1);
    assert_eq!(
        run.samples.truncated,
        Some(TruncationReason::Injected(3_000))
    );
    // The sampling profile is partial but still used in full mode (counts
    // pass is healthy).
    assert_eq!(run.analysis.mode, AnalysisMode::Full);
}

#[test]
fn injected_abort_at_budget_boundary_is_not_retried() {
    // Regression: when the injection point ties exactly with the current
    // instruction budget, both passes used to label the cut `InsnLimit`
    // (retryable), so the retry loop escalated the budget and replayed a
    // deterministic fault. The injected label must win the tie.
    let mut cfg = OptiwiseConfig {
        max_insns: 10_000,
        ..OptiwiseConfig::default()
    };
    cfg.fault.abort_sample_at = Some(10_000);
    cfg.fault.truncate_counts_at = Some(10_000);
    let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
    assert_eq!(
        run.attempts,
        (1, 1),
        "no retry may be spent on injected cuts"
    );
    assert_eq!(
        run.samples.truncated,
        Some(TruncationReason::Injected(10_000))
    );
    assert_eq!(
        run.counts.truncated,
        Some(TruncationReason::Injected(10_000))
    );
}

/// A checkpoint spec matching `cfg` for `modules`, as the CLI would build.
fn spec_for(modules: &[Module], cfg: &OptiwiseConfig, every: u64) -> CheckpointSpec {
    let hash = module_fingerprint(modules);
    CheckpointSpec::from_config(hash, "counted_loop", "test", "xeon", &[], cfg, every)
}

/// A fresh scratch directory for one test, removed when the test ends. It
/// is per process and cleared first, so files of an earlier run never mix
/// with this one's.
struct Scratch(PathBuf);

fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("wiser-fault-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

impl Scratch {
    /// The path of `file` inside the directory.
    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn expect_killed(result: Result<optiwise::OptiwiseRun, OptiwiseError>) -> u64 {
    match result {
        Err(e @ OptiwiseError::Killed { retired }) => {
            assert_eq!(e.exit_code(), 9);
            retired
        }
        Err(e) => panic!("expected injected kill, got: {e}"),
        Ok(_) => panic!("expected injected kill, run completed"),
    }
}

#[test]
fn kill_at_instruction_zero_dies_before_any_work() {
    let mut cfg = OptiwiseConfig::default();
    cfg.fault.kill_after_insns = Some(0);
    let retired = expect_killed(run_optiwise(&[counted_loop()], &cfg));
    assert_eq!(retired, 0);
}

#[test]
fn kill_mid_pass_exits_9_and_checkpoint_survives() {
    let modules = [counted_loop()];
    let mut cfg = OptiwiseConfig::default();
    cfg.fault.kill_after_insns = Some(6_000);

    let dir = scratch("mid-pass");
    let path = dir.path("mid-pass.owp");
    let token = CancelToken::new();
    let writer = CheckpointWriter::new(
        &path,
        Checkpoint::fresh(spec_for(&modules, &cfg, 2_000)),
        token.clone(),
        None,
    );
    writer.persist_initial().unwrap();
    let observe = |event: PassEvent<'_>| writer.observe(event);
    let result = run_optiwise_ctl(
        &modules,
        &cfg,
        RunControl {
            cancel: token,
            checkpoint_every: 2_000,
            observer: Some(&observe),
            resume: optiwise::ResumeState::default(),
        },
    );
    let retired = expect_killed(result);
    assert_eq!(retired, 6_000);

    // The checkpoint that survived the crash decodes cleanly and records
    // real (partial, cadence-aligned) progress for at least one pass.
    let ckpt = Checkpoint::load(&path).unwrap();
    assert!(!ckpt.sample_done() && !ckpt.counts_done());
    let farthest = ckpt.sample_pos.max(ckpt.counts_pos);
    assert!(
        (2_000..=6_000).contains(&farthest),
        "checkpoint progress {farthest} outside (cadence, kill-point]"
    );
}

#[test]
fn kill_at_last_instruction_dies_but_one_later_completes() {
    let clean = run_optiwise(&[counted_loop()], &OptiwiseConfig::default()).unwrap();
    // The raw counts profile is counter-placed (some counters suppressed), so
    // take the exact retired total from the recovered analysis view.
    let total = clean.analysis.total_insns;

    // Kill scheduled on the program's final instruction: the run dies with
    // that instruction still unretired.
    let mut cfg = OptiwiseConfig::default();
    cfg.fault.kill_after_insns = Some(total - 1);
    let retired = expect_killed(run_optiwise(&[counted_loop()], &cfg));
    assert_eq!(retired, total - 1);

    // A kill point exactly at the retire count still dies: the boundary
    // check after the final instruction observes it before the exit
    // finalises — crash semantics, the kill wins every tie.
    cfg.fault.kill_after_insns = Some(total);
    let retired = expect_killed(run_optiwise(&[counted_loop()], &cfg));
    assert_eq!(retired, total);

    // One instruction further the boundary is never reached: clean run.
    cfg.fault.kill_after_insns = Some(total + 1);
    let run = run_optiwise(&[counted_loop()], &cfg).unwrap();
    assert_eq!(run.analysis.total_insns, total);
    assert_eq!(run.samples.truncated, None);
    assert_eq!(run.counts.truncated, None);
}

#[test]
fn kill_during_checkpoint_write_keeps_previous_checkpoint_readable() {
    let modules = [counted_loop()];
    let cfg = OptiwiseConfig::default();

    let dir = scratch("torn-write");
    let path = dir.path("torn-write.owp");
    let token = CancelToken::new();
    // Crash inside the *second* persist: the initial (fresh) checkpoint
    // has already been renamed into place and must survive the torn write.
    let writer = CheckpointWriter::new(
        &path,
        Checkpoint::fresh(spec_for(&modules, &cfg, 2_000)),
        token.clone(),
        Some(2),
    );
    writer.persist_initial().unwrap();
    let observe = |event: PassEvent<'_>| writer.observe(event);
    let result = run_optiwise_ctl(
        &modules,
        &cfg,
        RunControl {
            cancel: token,
            checkpoint_every: 2_000,
            observer: Some(&observe),
            resume: optiwise::ResumeState::default(),
        },
    );
    expect_killed(result);

    // The file on disk is the complete pre-crash checkpoint, not a torn
    // mixture: it decodes cleanly to the fresh (no-progress) state.
    let ckpt = Checkpoint::load(&path).unwrap();
    assert_eq!(ckpt.sample_pos, 0);
    assert_eq!(ckpt.counts_pos, 0);
    assert!(ckpt.samples.is_none() && ckpt.counts.is_none());
}

#[test]
fn corrupted_profile_image_fails_parse_with_byte_offset() {
    let modules = [counted_loop()];
    let cfg = OptiwiseConfig::default();
    let run = run_optiwise(&modules, &cfg).unwrap();
    let plan = FaultPlan {
        corrupt: true,
        ..FaultPlan::default()
    };

    // The two single-pass images the split workflow writes.
    let mut samples_only = Checkpoint::fresh(spec_for(&modules, &cfg, 0));
    samples_only.samples = Some(run.samples.clone());
    let mut counts_only = Checkpoint::fresh(spec_for(&modules, &cfg, 0));
    counts_only.counts = Some(run.counts.clone());
    for image in [samples_only.to_bytes(), counts_only.to_bytes()] {
        let bad = plan.corrupt_bytes(&image);
        assert_ne!(bad, image);
        let err = Checkpoint::from_bytes(&bad).unwrap_err();
        assert!(err.offset >= 16, "corruption is past the header: {err}");
    }

    // Uncorrupted images still round-trip, including truncation markers.
    let mut truncated = run.counts.clone();
    truncated.truncated = Some(TruncationReason::ExecFault {
        pc: 0x40,
        message: "injected".into(),
    });
    counts_only.counts = Some(truncated);
    let back = Checkpoint::from_bytes(&counts_only.to_bytes()).unwrap();
    assert_eq!(back, counts_only);
}
