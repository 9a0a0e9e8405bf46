//! Crash-consistent file writes.
//!
//! Everything this crate (and the CLI) puts on disk goes through
//! [`atomic_write`]: the bytes land in a temporary file in the target's
//! directory, are fsynced, and are renamed over the target in one atomic
//! step. A reader therefore observes either the complete old file or the
//! complete new file — never a torn mixture — and a crash mid-write leaves
//! at worst an orphaned temp file, which the next successful write of the
//! same target cannot be confused with.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Injectable filesystem failures for the atomic-write protocol.
///
/// Production filesystems fail in ways kill-based chaos testing never
/// exercises: `ENOSPC` mid-write, short writes, `EINTR` from a signal
/// landing in `fsync`, rename failures. This module lets tests plant
/// exactly one such failure at a chosen stage of [`atomic_write`]'s
/// write/fsync/rename protocol — on the *calling thread* only, so
/// parallel tests do not interfere — and proves the protocol's guarantees
/// hold under it: the target file is never torn, the caller sees the
/// error, and staging debris is removed (or left recognizable for fsck).
///
/// This is a test instrument in the same spirit as `FaultPlan`: compiled
/// in unconditionally (the checks are a thread-local read on a path that
/// ends in a syscall), armed only by tests and chaos sweeps.
pub mod faults {
    use std::cell::Cell;
    use std::io;

    /// One stage of the atomic write protocol, in execution order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum WriteStage {
        /// Creating the staging temp file.
        Create,
        /// Writing the payload bytes into the temp file.
        Write,
        /// `fsync` of the temp file.
        Fsync,
        /// `rename` of the temp file over the target.
        Rename,
        /// Best-effort `fsync` of the containing directory.
        DirSync,
    }

    /// Every injectable stage, in protocol order — the sweep axis for
    /// exhaustive write-failure chaos tests.
    pub const ALL_STAGES: [WriteStage; 5] = [
        WriteStage::Create,
        WriteStage::Write,
        WriteStage::Fsync,
        WriteStage::Rename,
        WriteStage::DirSync,
    ];

    /// How the injected stage fails.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultKind {
        /// `ENOSPC`: the filesystem is full. Fatal for the operation.
        Enospc,
        /// `EINTR`: a signal interrupted the syscall. Fires once; the
        /// protocol must retry and succeed.
        Eintr,
        /// A short write — half the bytes land, then `ENOSPC`. Only
        /// meaningful at [`WriteStage::Write`]; leaves a torn temp file
        /// the error path must clean up.
        ShortWrite,
    }

    #[derive(Clone, Copy)]
    struct Plan {
        stage: WriteStage,
        kind: FaultKind,
        /// Matching stage occurrences to skip before firing, so a sweep
        /// can target the Nth write of a multi-write operation.
        skip: u32,
    }

    thread_local! {
        static PLAN: Cell<Option<Plan>> = const { Cell::new(None) };
        static FIRED: Cell<u64> = const { Cell::new(0) };
    }

    /// Arms one fault on the current thread: the `nth` (0-based) time
    /// [`atomic_write`](super::atomic_write) reaches `stage`, it fails as
    /// `kind` dictates. The fault fires once, then disarms itself.
    pub fn inject_fault(stage: WriteStage, kind: FaultKind, nth: u32) {
        PLAN.with(|p| {
            p.set(Some(Plan {
                stage,
                kind,
                skip: nth,
            }))
        });
    }

    /// Disarms any pending fault on the current thread.
    pub fn clear_faults() {
        PLAN.with(|p| p.set(None));
    }

    /// How many injected faults have fired on this thread — lets a sweep
    /// assert the fault it armed was actually reached.
    pub fn faults_fired() -> u64 {
        FIRED.with(|f| f.get())
    }

    /// The fault to apply at `stage`, if one is due. Consumes the plan.
    pub(super) fn due(stage: WriteStage) -> Option<FaultKind> {
        PLAN.with(|p| match p.get() {
            Some(mut plan) if plan.stage == stage => {
                if plan.skip > 0 {
                    plan.skip -= 1;
                    p.set(Some(plan));
                    None
                } else {
                    p.set(None);
                    FIRED.with(|f| f.set(f.get() + 1));
                    Some(plan.kind)
                }
            }
            _ => None,
        })
    }

    pub(super) fn error_for(kind: FaultKind) -> io::Error {
        match kind {
            // Raw OS errors so `kind()` classifies them exactly like the
            // real syscall failures would.
            FaultKind::Enospc | FaultKind::ShortWrite => io::Error::from_raw_os_error(28),
            FaultKind::Eintr => io::Error::from_raw_os_error(4),
        }
    }
}

/// Per-process sequence number appended to staged temp names, so two
/// threads of the same process writing the *same* target never share a
/// temp file (the pid alone cannot tell them apart). Monotonic, never
/// reused within a process lifetime.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The temporary-file path [`atomic_write`] stages `path`'s new contents
/// in: a dot-prefixed sibling tagged with the writing process id, so
/// concurrent writers of *different* runs never collide and a leftover is
/// recognizable as debris. Every call returns a fresh name (a per-process
/// sequence number follows the pid), so concurrent writers of the *same*
/// target each stage privately and the last `rename` wins whole — never a
/// torn mixture. Crash debris is recognizable by the `.tmp.` infix
/// whatever the sequence number was.
pub fn temp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "owp".to_string());
    let dir = parent_dir(path);
    dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Whether `name` looks like debris staged by [`temp_path`]: dot-prefixed
/// with a `.tmp.` infix. Used by archive fsck to tell a crashed write's
/// leftovers from real payload files.
pub fn is_temp_debris(name: &str) -> bool {
    name.starts_with('.') && name.contains(".tmp.")
}

fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `write` + `fsync`, then `rename` over the target (followed by a
/// best-effort directory fsync to make the rename itself durable).
///
/// A target that exists but is not a regular file — `/dev/null`, a pipe, a
/// character device — cannot be replaced by rename; such targets are
/// written through directly, with no atomicity (they have no contents to
/// tear).
///
/// # Errors
///
/// Any I/O failure; the temp file is removed on the error path.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Ok(meta) = fs::metadata(path) {
        if !meta.is_file() {
            return fs::write(path, bytes);
        }
    }
    let tmp = temp_path(path);
    let result = (|| {
        let mut f = retry_eintr(faults::WriteStage::Create, || File::create(&tmp))?;
        write_payload(&mut f, bytes)?;
        retry_eintr(faults::WriteStage::Fsync, || f.sync_all())?;
        drop(f);
        retry_eintr(faults::WriteStage::Rename, || fs::rename(&tmp, path))?;
        // Make the rename durable. Some filesystems cannot fsync a
        // directory; losing that is a durability (not consistency) gap,
        // so it is best-effort.
        if let Ok(dir) = File::open(parent_dir(path)) {
            let _ = retry_eintr(faults::WriteStage::DirSync, || dir.sync_all());
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Runs one protocol stage, injecting any armed fault and retrying
/// `EINTR` (whether injected or real — a signal landing in `fsync` or
/// `rename` must not fail the write).
fn retry_eintr<T>(
    stage: faults::WriteStage,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    loop {
        if let Some(kind) = faults::due(stage) {
            let err = faults::error_for(kind);
            if err.kind() == io::ErrorKind::Interrupted {
                continue; // EINTR: retry the stage, which now succeeds
            }
            return Err(err);
        }
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            r => return r,
        }
    }
}

/// The payload write, with short-write injection: a faulted write lands
/// half the bytes in the temp file before failing, so the error path's
/// cleanup is tested against a genuinely torn staging file.
fn write_payload(f: &mut File, bytes: &[u8]) -> io::Result<()> {
    if let Some(kind) = faults::due(faults::WriteStage::Write) {
        if kind == faults::FaultKind::ShortWrite {
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
        }
        let err = faults::error_for(kind);
        if err.kind() == io::ErrorKind::Interrupted {
            // `write_all` retries EINTR internally; an injected one simply
            // proves the full payload still lands.
            return f.write_all(bytes);
        }
        return Err(err);
    }
    f.write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wiser-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writes_and_replaces() {
        let path = scratch("replace.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer contents");
        assert!(!temp_path(&path).exists(), "temp file left behind");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_directory_errors_without_leaving_temp() {
        let path = Path::new("/nonexistent-wiser-dir/x.owp");
        assert!(atomic_write(path, b"x").is_err());
        assert!(!temp_path(path).exists());
    }

    #[cfg(unix)]
    #[test]
    fn non_regular_target_written_through() {
        atomic_write(Path::new("/dev/null"), b"discarded").unwrap();
    }

    #[test]
    fn bare_filename_stages_in_current_directory() {
        let tmp = temp_path(Path::new("bare-name.owp"));
        assert_eq!(tmp.parent(), Some(Path::new(".")));
        let name = tmp.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with(".bare-name.owp.tmp."), "{name}");
        assert!(is_temp_debris(&name));
        assert!(!is_temp_debris("bare-name.owp"));
        assert!(!is_temp_debris("run-000001.owp"));
    }

    #[test]
    fn temp_paths_are_unique_per_call() {
        // Two writers of the same target must never share a staging file —
        // the pid alone cannot distinguish threads of one process.
        let a = temp_path(Path::new("same.owp"));
        let b = temp_path(Path::new("same.owp"));
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_writers_to_same_path_last_committed_wins_never_torn() {
        let path = scratch("contended.bin");
        let _ = fs::remove_file(&path);
        // Each writer repeatedly commits a payload that is self-describing
        // (one repeated byte), so any torn mixture is detectable by a
        // reader observing two distinct bytes in one file.
        const WRITERS: usize = 4;
        const ROUNDS: usize = 25;
        const LEN: usize = 64 * 1024;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let path = path.clone();
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        atomic_write(&path, &vec![b'a' + w as u8; LEN]).unwrap();
                    }
                });
            }
            // A racing reader: every observed state is a complete payload
            // from exactly one writer.
            let path = path.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    if let Ok(bytes) = fs::read(&path) {
                        assert_eq!(bytes.len(), LEN, "torn length");
                        let first = bytes[0];
                        assert!(bytes.iter().all(|&b| b == first), "torn mixture");
                    }
                    std::thread::yield_now();
                }
            });
        });
        // Last committed wins: the final file is one writer's payload,
        // whole.
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), LEN);
        let first = bytes[0];
        assert!((b'a'..b'a' + WRITERS as u8).contains(&first));
        assert!(bytes.iter().all(|&b| b == first));
        // No staging debris survives a clean run.
        let dir = path.parent().unwrap();
        let debris: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("contended") && is_temp_debris(n))
            .collect();
        assert!(debris.is_empty(), "{debris:?}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn kill_in_write_debris_does_not_confuse_later_writes() {
        // The kill-in-write fault leaves a half-written temp file and no
        // rename (see CheckpointWriter::persist). The committed target —
        // made durable by the write+fsync+rename+dir-fsync sequence — must
        // survive that, and a later successful write of the same target
        // must neither read nor resurrect the debris.
        let path = scratch("durable.bin");
        atomic_write(&path, b"committed v1").unwrap();
        // Simulate the crash: torn bytes in a staging name, never renamed.
        let torn = temp_path(&path);
        fs::write(&torn, b"half-writ").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"committed v1");
        atomic_write(&path, b"committed v2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"committed v2");
        // The debris is still recognizable as debris, not payload.
        assert!(is_temp_debris(&torn.file_name().unwrap().to_string_lossy()));
        let _ = fs::remove_file(&torn);
        let _ = fs::remove_file(&path);
    }
}
