//! The tentpole guarantee of checkpoint/resume: kill the pipeline at
//! **every** checkpoint boundary, resume from the surviving checkpoint,
//! and obtain a stored profile byte-identical to an uninterrupted run.
//!
//! The sweep drives the same library plumbing the CLI uses (a
//! [`CheckpointWriter`] observing [`PassEvent`]s, [`Checkpoint`] →
//! `ResumeState` → [`run_optiwise_ctl`]), so what it proves is what
//! `optiwise run --checkpoint` + `optiwise resume` deliver.

use std::path::PathBuf;

use optiwise::{
    module_fingerprint, run_optiwise_ctl, CancelToken, OptiwiseConfig, OptiwiseError, OptiwiseRun,
    PassEvent, RunControl,
};
use wiser_store::{Checkpoint, CheckpointSpec, CheckpointWriter, StoredProfile};
use wiser_workloads::InputSize;

const CADENCE: u64 = 2_000;
const SEED: u64 = 5;
const WORKLOAD: &str = "long_haul";

fn modules() -> Vec<wiser_isa::Module> {
    wiser_workloads::by_name(WORKLOAD)
        .expect("long_haul workload registered")
        .build(InputSize::Test)
        .unwrap()
}

/// The run's full identity, exactly as the CLI records it in a fresh
/// checkpoint. All configuration flows out of this spec via
/// [`CheckpointSpec::to_config`], so the killed run, the resumed run and
/// the golden run share one config by construction.
fn spec(modules: &[wiser_isa::Module]) -> CheckpointSpec {
    let defaults = OptiwiseConfig::default();
    CheckpointSpec {
        module_hash: module_fingerprint(modules),
        workload: WORKLOAD.into(),
        label: WORKLOAD.into(),
        size: "test".into(),
        arch: "xeon".into(),
        overrides: Vec::new(),
        rand_seed: SEED,
        period: defaults.sampler.period,
        jitter: defaults.sampler.jitter,
        sampler_seed: defaults.sampler.seed,
        attribution: defaults.sampler.attribution,
        stacks: defaults.sampler.stacks,
        stack_profiling: defaults.dbi.stack_profiling,
        merge_threshold: defaults.analysis.merge_threshold,
        max_insns: defaults.max_insns,
        strict: false,
        allow_partial: true,
        selective: defaults.selective,
        hot_threshold: defaults.hot_threshold,
        exhaustive_counters: defaults.exhaustive_counters,
        checkpoint_every: CADENCE,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wiser-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs the pipeline once, checkpointing to `path`, with optional injected
/// kill; mirrors the CLI's `run --checkpoint` / `resume` plumbing.
fn run_checkpointed(
    modules: &[wiser_isa::Module],
    config: &OptiwiseConfig,
    path: &PathBuf,
    initial: Checkpoint,
    kill_in_write: Option<u64>,
) -> Result<OptiwiseRun, OptiwiseError> {
    let token = CancelToken::new();
    let resume = initial.resume_state();
    let writer = CheckpointWriter::new(path, initial, token.clone(), kill_in_write);
    writer.persist_initial().unwrap();
    let observe = |event: PassEvent<'_>| writer.observe(event);
    let result = run_optiwise_ctl(
        modules,
        config,
        RunControl {
            cancel: token,
            checkpoint_every: CADENCE,
            observer: Some(&observe),
            resume,
        },
    );
    if result.is_ok() {
        writer.finish().unwrap();
    }
    result
}

fn profile_bytes(run: &OptiwiseRun) -> Vec<u8> {
    StoredProfile::from_run(
        WORKLOAD,
        run,
        SEED,
        "xeon",
        wiser_sim::CoreConfig::xeon_like(),
    )
    .to_bytes()
}

fn expect_kill(result: Result<OptiwiseRun, OptiwiseError>) -> OptiwiseError {
    match result {
        Err(e) => e,
        Ok(_) => panic!("injected kill must abort the run"),
    }
}

/// Kill at instruction 0, at every checkpoint cadence boundary, and at the
/// last instruction; resume each time and demand byte-identity with the
/// uninterrupted run.
#[test]
fn kill_at_every_checkpoint_boundary_then_resume_is_byte_identical() {
    let modules = modules();
    let spec = spec(&modules);
    let config = spec.to_config(1).unwrap();

    let golden_run = run_optiwise_ctl(&modules, &config, RunControl::default()).unwrap();
    let golden = profile_bytes(&golden_run);
    // The raw profile is counter-placed (suppressed slots read 0), so size the
    // kill schedule from the recovered analysis total instead.
    let total = golden_run.analysis.total_insns;
    assert!(
        total / CADENCE >= 3,
        "workload too small to exercise several boundaries: {total} insns"
    );

    let mut kill_points: Vec<u64> = (0..total).step_by(CADENCE as usize).collect();
    kill_points.push(total - 1);
    for kill_at in kill_points {
        let path = scratch(&format!("kill-{kill_at}.owp"));
        let mut faulty = config.clone();
        faulty.fault.kill_after_insns = Some(kill_at);
        let err = expect_kill(run_checkpointed(
            &modules,
            &faulty,
            &path,
            Checkpoint::fresh(spec.clone()),
            None,
        ));
        assert_eq!(err.exit_code(), 9, "kill at {kill_at}: {err}");

        // Whatever instant the crash hit, the surviving checkpoint decodes
        // cleanly, names this exact build, and resumes to the same bytes.
        let ckpt = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt.spec.module_hash, module_fingerprint(&modules));
        assert!(ckpt.sample_pos <= kill_at && ckpt.counts_pos <= kill_at);
        let resumed = run_checkpointed(&modules, &config, &path, ckpt, None)
            .unwrap_or_else(|e| panic!("resume after kill at {kill_at}: {e}"));
        assert_eq!(
            profile_bytes(&resumed),
            golden,
            "resume after kill at {kill_at} diverged from the golden profile"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// A crash *during a checkpoint write* in the counts phase of a sequential
/// run leaves the sampling pass complete on disk; the resume restores it
/// verbatim (zero sampling attempts) and replays only the counts pass —
/// still byte-identical.
#[test]
fn crash_mid_write_after_sampling_restores_one_pass_and_replays_the_other() {
    let modules = modules();
    let spec = spec(&modules);
    // Sequential passes give a deterministic write order: initial, then
    // every sampling event, then every counts event.
    let mut config = spec.to_config(1).unwrap();
    config.concurrent_passes = false;

    let path = scratch("mixed.owp");
    let golden_run = run_checkpointed(
        &modules,
        &config,
        &path,
        Checkpoint::fresh(spec.clone()),
        None,
    )
    .unwrap();
    let golden = profile_bytes(&golden_run);
    let clean = Checkpoint::load(&path).unwrap();
    assert!(clean.sample_done() && clean.counts_done());

    // Learn the deterministic write order by replaying the clean run with
    // a counting observer: writes are 1 (initial) + one per event, and in
    // sequential mode every sampling event precedes every counts event.
    let event_kinds = std::sync::Mutex::new(Vec::new());
    let tally = |event: PassEvent<'_>| {
        let is_counts = matches!(
            event,
            PassEvent::CountsCheckpoint { .. } | PassEvent::CountsDone { .. }
        );
        event_kinds.lock().unwrap().push(is_counts);
    };
    run_optiwise_ctl(
        &modules,
        &config,
        RunControl {
            checkpoint_every: CADENCE,
            observer: Some(&tally),
            ..RunControl::default()
        },
    )
    .unwrap();
    let event_kinds = event_kinds.into_inner().unwrap();
    let counts_events = event_kinds.iter().filter(|&&c| c).count();
    assert!(counts_events >= 3, "need counts checkpoints before done");
    let second_counts_write = 1 // the initial persist
        + event_kinds.iter().position(|&c| c).unwrap() as u64
        + 2; // the second counts event, 1-based

    // Crash in the second write of the counts phase: the sampling pass is
    // already durable, the counts pass has exactly one snapshot on disk.
    let err = expect_kill(run_checkpointed(
        &modules,
        &config,
        &path,
        Checkpoint::fresh(spec.clone()),
        Some(second_counts_write),
    ));
    assert_eq!(err.exit_code(), 9);

    let ckpt = Checkpoint::load(&path).unwrap();
    assert!(
        ckpt.sample_done(),
        "sampling pass must be durable pre-crash"
    );
    assert!(!ckpt.counts_done(), "counts pass must be mid-flight");
    assert!(ckpt.counts_pos > 0, "one counts snapshot must have landed");

    let resumed = run_checkpointed(&modules, &config, &path, ckpt, None).unwrap();
    assert_eq!(
        resumed.attempts.0, 0,
        "restored sampling pass must not re-execute"
    );
    assert_eq!(resumed.attempts.1, 1, "counts pass must replay");
    assert_eq!(profile_bytes(&resumed), golden);
    let _ = std::fs::remove_file(&path);
}

/// Resuming the same checkpoint with concurrent passes changes nothing:
/// the `--jobs` invariance guarantee extends across kill/resume.
#[test]
fn resume_is_jobs_invariant() {
    let modules = modules();
    let spec = spec(&modules);
    let sequential = spec.to_config(1).unwrap();
    assert!(!sequential.concurrent_passes);
    let concurrent = spec.to_config(4).unwrap();
    assert!(concurrent.concurrent_passes);

    let golden_run = run_optiwise_ctl(&modules, &sequential, RunControl::default()).unwrap();
    let golden = profile_bytes(&golden_run);

    let path = scratch("jobs-invariant.owp");
    let mut faulty = concurrent.clone();
    faulty.fault.kill_after_insns = Some(3 * CADENCE);
    expect_kill(run_checkpointed(
        &modules,
        &faulty,
        &path,
        Checkpoint::fresh(spec.clone()),
        None,
    ));

    let ckpt = Checkpoint::load(&path).unwrap();
    let resumed = run_checkpointed(&modules, &concurrent, &path, ckpt, None).unwrap();
    assert_eq!(
        profile_bytes(&resumed),
        golden,
        "concurrent resume diverged from the sequential golden profile"
    );

    // The stored profile round-trips the spec's arch name and carries its
    // full uarch config — never a hardcoded model id. (The store once
    // stamped every profile "wiser-ooo", which poisoned cross-config
    // diffs: a xeon-vs-neoverse pair looked like the same machine.)
    let stored = StoredProfile::from_bytes(&golden).unwrap();
    assert_eq!(stored.meta.arch, spec.arch);
    assert_eq!(stored.uarch, Some(wiser_sim::CoreConfig::xeon_like()));
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint taken against one build must refuse to resume another:
/// the module fingerprint is the guard.
#[test]
fn module_hash_mismatch_is_detected() {
    let modules = modules();
    let mut spec = spec(&modules);
    spec.module_hash ^= 1;
    let ckpt = Checkpoint::fresh(spec);
    // The CLI compares these before replaying; the test pins the contract
    // that the fingerprint of an unchanged build is stable and that any
    // module edit changes it.
    assert_ne!(ckpt.spec.module_hash, module_fingerprint(&modules));
    let rebuilt = wiser_workloads::by_name(WORKLOAD)
        .unwrap()
        .build(InputSize::Test)
        .unwrap();
    assert_eq!(
        module_fingerprint(&modules),
        module_fingerprint(&rebuilt),
        "fingerprint must be stable across rebuilds of the same source"
    );
    let mut edited = modules.clone();
    edited[0].text[0] ^= 0xff;
    assert_ne!(module_fingerprint(&modules), module_fingerprint(&edited));
}
