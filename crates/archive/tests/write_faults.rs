//! Archive commit protocol under injected *write failures* — the
//! filesystem-fault analogue of the kill-based chaos sweep in `chaos.rs`.
//!
//! The kill sweep proves crash windows are recoverable; this sweep proves
//! the same for failures the process survives: `ENOSPC` (including the
//! delayed-allocation variant that only surfaces at `fsync`), short
//! writes, and `EINTR`, injected at every stage of every `atomic_write`
//! the commit protocol performs. The invariant is the archive's headline
//! guarantee: **zero accepted-then-lost runs** — if `add_run` returned
//! `Ok`, the run is durable and servable; if it returned `Err`, the
//! archive is still servable (possibly after `fsck`) and temp debris is
//! swept, never counted as a run.

use std::fs;
use std::path::{Path, PathBuf};

use optiwise::{AnalysisMode, OptiwiseError, ProfileTables};
use wiser_archive::{fsck, Archive};
use wiser_store::faults::{clear_faults, faults_fired, inject_fault, FaultKind, ALL_STAGES};
use wiser_store::{is_temp_debris, RunMeta, StoredProfile};

fn profile_bytes(label: &str, seed: u64) -> Vec<u8> {
    StoredProfile {
        meta: RunMeta {
            label: label.into(),
            rand_seed: seed,
            tool_version: "test".into(),
            arch: "wiser-ooo".into(),
        },
        samples: None,
        counts: None,
        tables: ProfileTables {
            mode: AnalysisMode::Full,
            wall_cycles: seed,
            total_cycles: seed,
            total_insns: 0,
            modules: Vec::new(),
            functions: Vec::new(),
            loops: Vec::new(),
            lines: Vec::new(),
        },
        transforms: Default::default(),
        uarch: None,
        job: None,
    }
    .to_bytes()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wiser-archive-wfaults-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Any staging debris anywhere in the archive tree.
fn debris_in(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if is_temp_debris(&entry.file_name().to_string_lossy()) {
                found.push(path);
            }
        }
    }
    found
}

/// The full fatal-fault sweep: every stage of every write `add_run`
/// performs (occurrence 0 = the run-file write, 1 = the manifest
/// rewrite), under plain ENOSPC and the short-write-then-ENOSPC variant.
#[test]
fn enospc_sweep_has_zero_accepted_then_lost_runs() {
    let mut windows = 0;
    let mut accepted_then_lost = 0;
    for kind in [FaultKind::Enospc, FaultKind::ShortWrite] {
        for stage in ALL_STAGES {
            for occurrence in 0..2u32 {
                windows += 1;
                let root = scratch(&format!("{kind:?}-{stage:?}-{occurrence}"));
                clear_faults();
                let mut a = Archive::create(&root).unwrap();
                a.add_run(&profile_bytes("baseline", 1), 0).unwrap();

                let fired_before = faults_fired();
                inject_fault(stage, kind, occurrence);
                let attempt = a.add_run(&profile_bytes("victim", 2), 0);
                clear_faults();
                assert_eq!(
                    faults_fired(),
                    fired_before + 1,
                    "{kind:?}/{stage:?}/{occurrence}: fault never fired"
                );

                // Whatever happened, fsck must restore servability; only
                // an unrepairable archive would fail the unwrap.
                fsck(&root).unwrap();
                let b = Archive::open(&root).unwrap();

                match attempt {
                    Ok(id) => {
                        // Accepted ⇒ durable and servable, or it counts
                        // as accepted-then-lost.
                        if b.load_run(id).is_err() {
                            accepted_then_lost += 1;
                        }
                    }
                    Err(e) => {
                        assert!(
                            matches!(e, OptiwiseError::Io(_)),
                            "{kind:?}/{stage:?}/{occurrence}: {e}"
                        );
                    }
                }
                // The baseline run predating the fault is always servable.
                assert_eq!(
                    b.load_run(1).unwrap().meta.label,
                    "baseline",
                    "{kind:?}/{stage:?}/{occurrence}"
                );
                // Every committed entry actually loads: debris and torn
                // staging files are never counted as runs.
                for entry in b.manifest().committed() {
                    b.load_run(entry.run_id).unwrap_or_else(|e| {
                        panic!(
                            "{kind:?}/{stage:?}/{occurrence}: entry {} unservable: {e}",
                            entry.run_id
                        )
                    });
                }
                // fsck swept all staging debris.
                assert_eq!(
                    debris_in(&root),
                    Vec::<PathBuf>::new(),
                    "{kind:?}/{stage:?}/{occurrence}"
                );
                let _ = fs::remove_dir_all(&root);
            }
        }
    }
    assert!(windows >= 20, "sweep shrank: only {windows} windows");
    assert_eq!(
        accepted_then_lost, 0,
        "accepted-then-lost runs across {windows} injected write failures"
    );
}

/// `EINTR` is not a failure: the protocol retries, the commit succeeds,
/// and the caller never notices, at any stage of either write.
#[test]
fn eintr_never_fails_a_commit() {
    for stage in ALL_STAGES {
        for occurrence in 0..2u32 {
            let root = scratch(&format!("eintr-{stage:?}-{occurrence}"));
            clear_faults();
            let mut a = Archive::create(&root).unwrap();
            inject_fault(stage, FaultKind::Eintr, occurrence);
            let id = a
                .add_run(&profile_bytes("resilient", 3), 0)
                .unwrap_or_else(|e| panic!("{stage:?}/{occurrence}: {e}"));
            clear_faults();
            let b = Archive::open(&root).unwrap();
            assert_eq!(b.load_run(id).unwrap().meta.label, "resilient");
            assert_eq!(debris_in(&root), Vec::<PathBuf>::new());
            let _ = fs::remove_dir_all(&root);
        }
    }
}

/// Retention under write failure: a faulted manifest rewrite aborts the
/// eviction wholesale — every previously committed run stays servable.
#[test]
fn faulted_retention_never_loses_committed_runs() {
    for stage in ALL_STAGES {
        let root = scratch(&format!("retain-{stage:?}"));
        clear_faults();
        let mut a = Archive::create(&root).unwrap();
        for i in 1..=4 {
            a.add_run(&profile_bytes(&format!("w{i}"), i), 0).unwrap();
        }
        inject_fault(stage, FaultKind::Enospc, 0);
        let attempt = a.retain(wiser_archive::RetentionPolicy {
            max_runs: Some(2),
            max_bytes: None,
        });
        clear_faults();
        fsck(&root).unwrap();
        let b = Archive::open(&root).unwrap();
        match attempt {
            // DirSync faults are absorbed: the eviction went through.
            Ok(evicted) => assert_eq!(evicted, vec![1, 2], "{stage:?}"),
            Err(_) => {
                // Aborted eviction: all four runs still servable.
                for id in 1..=4 {
                    b.load_run(id).unwrap_or_else(|e| {
                        panic!("{stage:?}: run {id} lost by aborted retention: {e}")
                    });
                }
            }
        }
        assert_eq!(debris_in(&root), Vec::<PathBuf>::new(), "{stage:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
