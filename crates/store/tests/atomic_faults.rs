//! The atomic-write protocol under injected filesystem failures.
//!
//! One test per failure point of the write/fsync/rename protocol. The
//! guarantees under test, for every fatal fault: the caller sees an `Err`,
//! the committed target is never torn (byte-for-byte the previous
//! contents), and staging debris is removed — or, when a test plants it
//! deliberately, recognizable as debris by `is_temp_debris`. `EINTR`
//! faults are not fatal: the protocol retries and the write succeeds.

use std::fs;
use std::path::{Path, PathBuf};

use wiser_store::faults::{
    clear_faults, faults_fired, inject_fault, FaultKind, WriteStage, ALL_STAGES,
};
use wiser_store::{atomic_write, is_temp_debris};

/// A fresh scratch directory for one test, removed when the test ends. It
/// is per process and cleared first, so files of an earlier run never mix
/// with this one's.
struct Scratch(PathBuf);

fn scratch(name: &str) -> Scratch {
    let dir =
        std::env::temp_dir().join(format!("wiser-atomic-faults-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
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
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Staging debris next to `path`, by the debris naming pattern.
fn debris_for(path: &Path) -> Vec<PathBuf> {
    let stem = path.file_name().unwrap().to_string_lossy().into_owned();
    fs::read_dir(path.parent().unwrap())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            is_temp_debris(&name) && name.contains(&stem)
        })
        .collect()
}

/// The shared fatal-fault checklist: commit v1, inject, attempt v2.
fn assert_fails_closed(name: &str, stage: WriteStage, kind: FaultKind) {
    let dir = scratch(name);
    let path = dir.path(name);
    clear_faults();
    atomic_write(&path, b"committed v1").unwrap();

    let before = faults_fired();
    inject_fault(stage, kind, 0);
    let err = atomic_write(&path, b"attempted v2").unwrap_err();
    assert_eq!(err.raw_os_error(), Some(28), "{stage:?}: {err}");
    assert_eq!(faults_fired(), before + 1, "{stage:?} fault never fired");

    // The target still holds the previous commit, whole.
    assert_eq!(fs::read(&path).unwrap(), b"committed v1", "{stage:?}");
    // No staging debris survives the error path.
    assert_eq!(debris_for(&path), Vec::<PathBuf>::new(), "{stage:?}");

    // The fault disarmed itself: the next write goes through.
    atomic_write(&path, b"committed v2").unwrap();
    assert_eq!(fs::read(&path).unwrap(), b"committed v2");
}

#[test]
fn enospc_at_create_fails_closed() {
    assert_fails_closed("create.bin", WriteStage::Create, FaultKind::Enospc);
}

#[test]
fn enospc_at_write_fails_closed() {
    assert_fails_closed("write.bin", WriteStage::Write, FaultKind::Enospc);
}

#[test]
fn short_write_then_enospc_cleans_torn_temp() {
    // The nastiest variant: half the payload lands before the failure, so
    // the temp file is genuinely torn when the error path runs.
    assert_fails_closed("short.bin", WriteStage::Write, FaultKind::ShortWrite);
}

#[test]
fn enospc_at_fsync_fails_closed() {
    // fsync is where ENOSPC actually surfaces on delayed-allocation
    // filesystems — an accepted write() is no commitment.
    assert_fails_closed("fsync.bin", WriteStage::Fsync, FaultKind::Enospc);
}

#[test]
fn enospc_at_rename_fails_closed() {
    assert_fails_closed("rename.bin", WriteStage::Rename, FaultKind::Enospc);
}

#[test]
fn dir_sync_failure_is_not_fatal() {
    // The directory fsync is best-effort durability, not consistency: a
    // failure there must not fail a write whose rename already happened.
    let dir = scratch("dirsync");
    let path = dir.path("dirsync.bin");
    clear_faults();
    inject_fault(WriteStage::DirSync, FaultKind::Enospc, 0);
    atomic_write(&path, b"survives").unwrap();
    assert_eq!(fs::read(&path).unwrap(), b"survives");
    assert_eq!(debris_for(&path), Vec::<PathBuf>::new());
}

#[test]
fn eintr_is_retried_at_every_stage() {
    // A signal landing in any stage's syscall must be invisible to the
    // caller: the protocol retries and the write commits.
    let dir = scratch("eintr");
    for (i, stage) in ALL_STAGES.into_iter().enumerate() {
        let path = dir.path(&format!("eintr-{i}.bin"));
        clear_faults();
        atomic_write(&path, b"old").unwrap();
        inject_fault(stage, FaultKind::Eintr, 0);
        atomic_write(&path, b"new contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new contents", "{stage:?}");
        assert_eq!(debris_for(&path), Vec::<PathBuf>::new(), "{stage:?}");
    }
}

#[test]
fn first_ever_write_failure_leaves_no_file_at_all() {
    // Failing the very first write of a target must not conjure a
    // partial target into existence.
    let dir = scratch("first");
    for stage in [WriteStage::Create, WriteStage::Write, WriteStage::Fsync] {
        let path = dir.path("first.bin");
        clear_faults();
        inject_fault(stage, FaultKind::Enospc, 0);
        assert!(atomic_write(&path, b"never lands").is_err(), "{stage:?}");
        assert!(!path.exists(), "{stage:?} conjured a target");
        assert_eq!(debris_for(&path), Vec::<PathBuf>::new(), "{stage:?}");
    }
}

#[test]
fn nth_occurrence_targeting_skips_earlier_writes() {
    // A sweep can aim the fault at the Nth write of a multi-write
    // operation; earlier writes of the same thread go through untouched.
    let dir = scratch("nth");
    let path = dir.path("nth.bin");
    clear_faults();
    inject_fault(WriteStage::Fsync, FaultKind::Enospc, 2);
    atomic_write(&path, b"one").unwrap();
    atomic_write(&path, b"two").unwrap();
    let err = atomic_write(&path, b"three").unwrap_err();
    assert_eq!(err.raw_os_error(), Some(28), "{err}");
    assert_eq!(fs::read(&path).unwrap(), b"two");
}
