//! # wiser-archive
//!
//! A crash-safe multi-run archive of `.owp` profiles — the store behind
//! `optiwised` (the profiling job server), `optiwise fsck` and
//! `optiwise query`.
//!
//! ## Layout
//!
//! ```text
//! <archive>/
//!   MANIFEST.owp      CRC-framed index; THE commit point
//!   runs/             committed run files (run-000001.owp, ...)
//!   quarantine/       runs that failed integrity checks; kept, never served
//!   checkpoints/      serve-mode job checkpoints (resumable)
//! ```
//!
//! ## Commit protocol
//!
//! Every mutation follows *data first, manifest second*:
//!
//! 1. `add_run` writes the run file into `runs/` (atomically), then
//!    rewrites the manifest (atomically) to list it. A run **exists** only
//!    once step 2 commits; a crash between the steps leaves a valid orphan
//!    file that `fsck` conservatively re-adopts.
//! 2. `retain` (retention/compaction) removes entries from the manifest
//!    *first*, commits, and only then unlinks the files. A crash mid-way
//!    leaves unlinked-but-listed nothing — at worst valid orphans, which
//!    `fsck` re-adopts rather than ever losing data.
//!
//! The invariant the chaos sweep (`tests/chaos.rs`) enforces: a crash at
//! **any** write boundary leaves an archive that `fsck` restores to a
//! servable state, with zero accepted-then-lost runs.
//!
//! ## Quarantine
//!
//! A run that fails its CRC, length, or structural validation is never
//! served and never deleted: it is moved to `quarantine/` and indexed with
//! [`RunStatus::Quarantined`]. Quarantined files are evidence — retention
//! does not count or evict them, and `load_run` refuses them.

#![warn(missing_docs)]

pub mod manifest;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use optiwise::{OptiwiseError, StoreError};
use wiser_sim::FaultPlan;
use wiser_store::{atomic_write, crc32, is_temp_debris, temp_path, StoredProfile};

pub use manifest::{
    Manifest, ManifestEntry, RunStatus, ARCHIVE_VERSION, CHECKPOINTS_DIR, MANIFEST_FILE,
    QUARANTINE_DIR, RUNS_DIR,
};

fn io_err(path: &Path, e: impl fmt::Display) -> OptiwiseError {
    OptiwiseError::Io(format!("{}: {e}", path.display()))
}

/// Retention limits for [`Archive::retain`]. Only **committed** runs are
/// counted and only committed runs are evicted, oldest (lowest run id)
/// first; quarantined files are evidence and outside retention's reach.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Keep at most this many committed runs.
    pub max_runs: Option<usize>,
    /// Keep at most this many bytes of committed run files.
    pub max_bytes: Option<u64>,
}

/// Crash injection for the archive's write protocol, driven by
/// [`FaultPlan::kill_in_archive_write`]. Write boundaries are counted in
/// protocol order across run-file writes, manifest rewrites and compaction
/// deletes; at the fatal boundary a *write* tears (half the bytes land in a
/// staging temp, the rename never happens) and a *delete* simply does not
/// happen — after which the handle is "dead" and every further operation
/// fails, because a crashed process writes nothing more.
#[derive(Debug, Default)]
struct FaultGate {
    kill_at: Option<u64>,
    boundaries: u64,
    crashed: bool,
}

impl FaultGate {
    fn from_plan(plan: &FaultPlan) -> FaultGate {
        FaultGate {
            kill_at: plan.kill_in_archive_write,
            boundaries: 0,
            crashed: false,
        }
    }

    fn killed() -> OptiwiseError {
        OptiwiseError::Killed { retired: 0 }
    }

    /// Advances to the next boundary. `Ok(true)` means "die here".
    fn arm(&mut self) -> Result<bool, OptiwiseError> {
        if self.crashed {
            return Err(FaultGate::killed());
        }
        self.boundaries += 1;
        if self.kill_at == Some(self.boundaries) {
            self.crashed = true;
            return Ok(true);
        }
        Ok(false)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), OptiwiseError> {
        if self.arm()? {
            // The torn write a real crash leaves: half the payload in the
            // staging name, never renamed over the target.
            let _ = fs::write(temp_path(path), &bytes[..bytes.len() / 2]);
            return Err(FaultGate::killed());
        }
        atomic_write(path, bytes).map_err(|e| io_err(path, e))
    }

    fn remove(&mut self, path: &Path) -> Result<(), OptiwiseError> {
        if self.arm()? {
            return Err(FaultGate::killed()); // died before the unlink
        }
        fs::remove_file(path).map_err(|e| io_err(path, e))
    }
}

/// An open multi-run archive.
pub struct Archive {
    root: PathBuf,
    manifest: Manifest,
    gate: FaultGate,
}

impl Archive {
    /// Creates a fresh archive at `root` (directories plus an empty
    /// manifest). Fails if a manifest already exists there.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Io`] on filesystem failure or an existing archive.
    pub fn create(root: &Path) -> Result<Archive, OptiwiseError> {
        let manifest_path = root.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(io_err(&manifest_path, "archive already exists"));
        }
        for dir in [RUNS_DIR, QUARANTINE_DIR, CHECKPOINTS_DIR] {
            let dir = root.join(dir);
            fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        let manifest = Manifest::new();
        atomic_write(&manifest_path, &manifest.to_bytes())
            .map_err(|e| io_err(&manifest_path, e))?;
        Ok(Archive {
            root: root.to_path_buf(),
            manifest,
            gate: FaultGate::default(),
        })
    }

    /// Opens an existing archive, failing closed on a missing or corrupt
    /// manifest (run [`fsck`] to repair).
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Io`] when the manifest cannot be read,
    /// [`OptiwiseError::Store`] when it fails its checksums.
    pub fn open(root: &Path) -> Result<Archive, OptiwiseError> {
        let manifest_path = root.join(MANIFEST_FILE);
        let data = fs::read(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
        let manifest = Manifest::from_bytes(&data)?;
        for dir in [RUNS_DIR, QUARANTINE_DIR, CHECKPOINTS_DIR] {
            let dir = root.join(dir);
            fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        Ok(Archive {
            root: root.to_path_buf(),
            manifest,
            gate: FaultGate::default(),
        })
    }

    /// Opens `root` if it holds an archive, otherwise creates one.
    ///
    /// # Errors
    ///
    /// As [`Archive::open`] / [`Archive::create`].
    pub fn open_or_create(root: &Path) -> Result<Archive, OptiwiseError> {
        if root.join(MANIFEST_FILE).exists() {
            Archive::open(root)
        } else {
            Archive::create(root)
        }
    }

    /// Arms crash injection from `plan`
    /// ([`FaultPlan::kill_in_archive_write`]) for subsequent operations on
    /// this handle.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        self.gate = FaultGate::from_plan(plan);
    }

    /// Whether an injected crash has fired — after which this handle, like
    /// a dead process, refuses all further work.
    pub fn crashed(&self) -> bool {
        self.gate.crashed
    }

    /// The archive directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The current manifest (committed state only — never mid-mutation).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join(MANIFEST_FILE)
    }

    /// Path of the committed-runs directory.
    pub fn runs_dir(&self) -> PathBuf {
        self.root.join(RUNS_DIR)
    }

    /// Path of the quarantine directory.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// Path of the job-checkpoints directory.
    pub fn checkpoints_dir(&self) -> PathBuf {
        self.root.join(CHECKPOINTS_DIR)
    }

    /// Ingests a serialized [`StoredProfile`] as a new run and returns its
    /// id. The bytes are fully validated *before* anything lands on disk
    /// (an invalid profile never enters the archive), then written
    /// run-file-first, manifest-second: the run is visible only once the
    /// manifest rewrite commits.
    ///
    /// `fingerprint` identifies the workload build + configuration that
    /// produced the run ([`optiwise::module_fingerprint`]); the workload
    /// label and seed are taken from the profile's own metadata.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Store`] for invalid bytes, [`OptiwiseError::Io`]
    /// for filesystem failure, [`OptiwiseError::Killed`] when an injected
    /// crash fires.
    pub fn add_run(&mut self, bytes: &[u8], fingerprint: u64) -> Result<u64, OptiwiseError> {
        let profile = StoredProfile::from_bytes(bytes)?;
        let run_id = self.manifest.next_run_id;
        let file = ManifestEntry::file_name(run_id);
        let path = self.runs_dir().join(&file);
        self.gate.write(&path, bytes)?;
        let mut next = self.manifest.clone();
        next.insert(ManifestEntry {
            run_id,
            file,
            workload: profile.meta.label.clone(),
            fingerprint,
            rand_seed: profile.meta.rand_seed,
            bytes: bytes.len() as u64,
            crc: crc32(bytes),
            status: RunStatus::Committed,
        });
        self.gate.write(&self.manifest_path(), &next.to_bytes())?;
        self.manifest = next;
        Ok(run_id)
    }

    /// Applies `policy`, evicting committed runs oldest-first until both
    /// caps hold, and returns the evicted run ids. Manifest-first: the
    /// eviction commits before any file is unlinked, so a crash mid-way
    /// strands valid orphans (which [`fsck`] conservatively re-adopts)
    /// instead of ever losing a listed run.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Io`] on filesystem failure,
    /// [`OptiwiseError::Killed`] when an injected crash fires.
    pub fn retain(&mut self, policy: RetentionPolicy) -> Result<Vec<u64>, OptiwiseError> {
        let committed: Vec<ManifestEntry> = self.manifest.committed().cloned().collect();
        let mut keep = committed.len();
        let mut bytes: u64 = committed.iter().map(|e| e.bytes).sum();
        let mut evict = 0;
        while evict < committed.len() {
            let runs_ok = policy.max_runs.is_none_or(|m| keep <= m);
            let bytes_ok = policy.max_bytes.is_none_or(|m| bytes <= m);
            if runs_ok && bytes_ok {
                break;
            }
            bytes -= committed[evict].bytes;
            keep -= 1;
            evict += 1;
        }
        if evict == 0 {
            return Ok(Vec::new());
        }
        let victims = &committed[..evict];
        let mut next = self.manifest.clone();
        next.entries
            .retain(|e| !victims.iter().any(|v| v.run_id == e.run_id));
        self.gate.write(&self.manifest_path(), &next.to_bytes())?;
        self.manifest = next;
        let mut evicted = Vec::with_capacity(evict);
        for v in victims {
            self.gate.remove(&self.runs_dir().join(&v.file))?;
            evicted.push(v.run_id);
        }
        Ok(evicted)
    }

    /// Loads a committed run, re-verifying its length and CRC against the
    /// manifest before decoding — bitrot is caught here, never served.
    /// Quarantined runs are refused.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Io`] for an unknown, quarantined, or unreadable
    /// run; [`OptiwiseError::Store`] when the file fails verification.
    pub fn load_run(&self, run_id: u64) -> Result<StoredProfile, OptiwiseError> {
        let entry = self
            .manifest
            .entry(run_id)
            .ok_or_else(|| OptiwiseError::Io(format!("run {run_id} is not in the archive")))?;
        if entry.status == RunStatus::Quarantined {
            return Err(OptiwiseError::Io(format!(
                "run {run_id} is quarantined and will not be served"
            )));
        }
        let path = self.runs_dir().join(&entry.file);
        let data = fs::read(&path).map_err(|e| io_err(&path, e))?;
        if data.len() as u64 != entry.bytes || crc32(&data) != entry.crc {
            return Err(OptiwiseError::Store(StoreError::at(
                0,
                format!("run {run_id} does not match its manifest checksum; run `optiwise fsck`"),
            )));
        }
        Ok(StoredProfile::from_bytes(&data)?)
    }
}

/// What [`fsck`] found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Committed, verified, servable runs after the check.
    pub servable: usize,
    /// Total quarantined entries after the check.
    pub quarantined_total: usize,
    /// Orphaned run files (valid, but unlisted) adopted into the manifest.
    pub adopted: usize,
    /// Files newly moved to or indexed in `quarantine/` this pass.
    pub quarantined: usize,
    /// Manifest entries dropped because their file no longer exists.
    pub lost: usize,
    /// Staged-write temp files swept away. Debris alone is not damage.
    pub debris_removed: usize,
    /// The manifest was missing or corrupt and was rebuilt.
    pub manifest_rebuilt: bool,
}

impl FsckReport {
    /// Whether structural repair happened (as opposed to a clean pass,
    /// possibly with debris swept).
    pub fn repaired(&self) -> bool {
        self.adopted > 0 || self.quarantined > 0 || self.lost > 0 || self.manifest_rebuilt
    }

    /// The CLI outcome: `None` for a clean archive (exit 0),
    /// [`OptiwiseError::ArchiveRepaired`] (exit 11) when damage was found
    /// and repaired.
    pub fn verdict(&self) -> Option<OptiwiseError> {
        if self.repaired() {
            Some(OptiwiseError::ArchiveRepaired {
                adopted: self.adopted,
                quarantined: self.quarantined,
                lost: self.lost,
            })
        } else {
            None
        }
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.repaired() {
            write!(
                f,
                "repaired: {} orphan(s) adopted, {} quarantined, {} lost{}; \
                 {} servable run(s), {} quarantined total",
                self.adopted,
                self.quarantined,
                self.lost,
                if self.manifest_rebuilt {
                    ", manifest rebuilt"
                } else {
                    ""
                },
                self.servable,
                self.quarantined_total,
            )
        } else {
            write!(
                f,
                "clean: {} servable run(s), {} quarantined",
                self.servable, self.quarantined_total
            )
        }
    }
}

/// A quarantine file name that does not collide with anything already
/// impounded.
fn quarantine_name(quarantine_dir: &Path, name: &str) -> String {
    if !quarantine_dir.join(name).exists() {
        return name.to_string();
    }
    let mut n = 1u32;
    loop {
        let candidate = format!("dup{n}-{name}");
        if !quarantine_dir.join(&candidate).exists() {
            return candidate;
        }
        n += 1;
    }
}

/// Sorted non-debris file names in `dir` (debris is deleted, counted into
/// `debris_removed`).
fn scan_dir(dir: &Path, debris_removed: &mut usize) -> Result<Vec<String>, OptiwiseError> {
    let mut names = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        if !entry.path().is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if is_temp_debris(&name) {
            let _ = fs::remove_file(entry.path());
            *debris_removed += 1;
        } else {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Verifies and repairs the archive at `root`.
///
/// Every listed run is re-read and checked against its manifest length and
/// CRC and its own section checksums; failures are quarantined (moved, not
/// deleted). Orphaned run files are adopted back into the manifest (their
/// id taken from the file name when free, metadata from their own `META`
/// section, fingerprint 0 since the producing configuration is unknown).
/// Unlisted quarantine files are indexed. Entries whose file vanished are
/// dropped and counted as lost. Staged-write debris is swept. If anything
/// structural changed, the manifest is rewritten atomically.
///
/// A debris-only pass is **clean** (exit 0); structural repair maps to
/// [`OptiwiseError::ArchiveRepaired`] (exit 11) via [`FsckReport::verdict`].
///
/// # Errors
///
/// [`OptiwiseError::ArchiveUnrepairable`] (exit 12) when the archive cannot
/// be restored to a servable state: `root` missing, directories or the
/// repaired manifest unwritable, or a corrupt run that cannot be moved to
/// quarantine.
pub fn fsck(root: &Path) -> Result<FsckReport, OptiwiseError> {
    if !root.is_dir() {
        return Err(OptiwiseError::ArchiveUnrepairable {
            reason: format!("{} is not a directory", root.display()),
        });
    }
    let runs_dir = root.join(RUNS_DIR);
    let quarantine_dir = root.join(QUARANTINE_DIR);
    for dir in [&runs_dir, &quarantine_dir, &root.join(CHECKPOINTS_DIR)] {
        fs::create_dir_all(dir).map_err(|e| OptiwiseError::ArchiveUnrepairable {
            reason: format!("cannot create {}: {e}", dir.display()),
        })?;
    }

    let mut report = FsckReport::default();
    let manifest_path = root.join(MANIFEST_FILE);
    let old = match fs::read(&manifest_path) {
        Ok(data) => match Manifest::from_bytes(&data) {
            Ok(m) => m,
            Err(_) => {
                report.manifest_rebuilt = true;
                Manifest::new()
            }
        },
        Err(_) => {
            report.manifest_rebuilt = true;
            Manifest::new()
        }
    };

    // Root-level debris sweep (runs/ and quarantine/ are swept by scan_dir
    // below). A crashed manifest rewrite leaves its torn temp here.
    for name in scan_dir(root, &mut report.debris_removed)? {
        let _ = name; // only the debris side effect matters at the root
    }

    // Re-verify every listed run; the repaired manifest keeps what checks
    // out, quarantines what doesn't, and drops what is simply gone.
    let mut repaired = Manifest::new();
    repaired.next_run_id = old.next_run_id;
    for entry in old.entries {
        match entry.status {
            RunStatus::Committed => {
                let path = runs_dir.join(&entry.file);
                let data = match fs::read(&path) {
                    Ok(d) => d,
                    Err(_) => {
                        report.lost += 1;
                        continue;
                    }
                };
                let intact = data.len() as u64 == entry.bytes
                    && crc32(&data) == entry.crc
                    && StoredProfile::from_bytes(&data).is_ok();
                if intact {
                    repaired.insert(entry);
                } else {
                    let qname = quarantine_name(&quarantine_dir, &entry.file);
                    let qpath = quarantine_dir.join(&qname);
                    fs::rename(&path, &qpath).map_err(|e| {
                        OptiwiseError::ArchiveUnrepairable {
                            reason: format!(
                                "cannot quarantine {}: {e}",
                                path.display()
                            ),
                        }
                    })?;
                    report.quarantined += 1;
                    repaired.insert(ManifestEntry {
                        file: qname,
                        bytes: data.len() as u64,
                        crc: crc32(&data),
                        status: RunStatus::Quarantined,
                        ..entry
                    });
                }
            }
            RunStatus::Quarantined => {
                if quarantine_dir.join(&entry.file).is_file() {
                    repaired.insert(entry);
                } else {
                    report.lost += 1;
                }
            }
        }
    }

    // Orphan scan: run files the manifest does not know. Valid ones are
    // adopted (conservative resurrection — fsck never deletes payload);
    // invalid ones are impounded.
    let listed_runs: Vec<String> = repaired
        .committed()
        .map(|e| e.file.clone())
        .collect();
    for name in scan_dir(&runs_dir, &mut report.debris_removed)? {
        if listed_runs.contains(&name) {
            continue;
        }
        let path = runs_dir.join(&name);
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(_) => continue,
        };
        match StoredProfile::from_bytes(&data) {
            Ok(profile) => {
                let run_id = ManifestEntry::id_from_file_name(&name)
                    .filter(|id| repaired.entry(*id).is_none())
                    .unwrap_or(repaired.next_run_id);
                report.adopted += 1;
                repaired.insert(ManifestEntry {
                    run_id,
                    file: name,
                    workload: profile.meta.label,
                    fingerprint: 0, // producing configuration unknown
                    rand_seed: profile.meta.rand_seed,
                    bytes: data.len() as u64,
                    crc: crc32(&data),
                    status: RunStatus::Committed,
                });
            }
            Err(_) => {
                let qname = quarantine_name(&quarantine_dir, &name);
                let qpath = quarantine_dir.join(&qname);
                fs::rename(&path, &qpath).map_err(|e| {
                    OptiwiseError::ArchiveUnrepairable {
                        reason: format!("cannot quarantine {}: {e}", path.display()),
                    }
                })?;
                report.quarantined += 1;
                repaired.insert(ManifestEntry {
                    run_id: repaired.next_run_id,
                    file: qname,
                    workload: String::new(),
                    fingerprint: 0,
                    rand_seed: 0,
                    bytes: data.len() as u64,
                    crc: crc32(&data),
                    status: RunStatus::Quarantined,
                });
            }
        }
    }

    // Quarantine files nothing references: index them so they are visible
    // in reports (still never served, never deleted).
    let listed_quarantine: Vec<String> = repaired
        .quarantined()
        .map(|e| e.file.clone())
        .collect();
    for name in scan_dir(&quarantine_dir, &mut report.debris_removed)? {
        if listed_quarantine.contains(&name) {
            continue;
        }
        let data = match fs::read(quarantine_dir.join(&name)) {
            Ok(d) => d,
            Err(_) => continue,
        };
        report.quarantined += 1;
        repaired.insert(ManifestEntry {
            run_id: repaired.next_run_id,
            file: name,
            workload: String::new(),
            fingerprint: 0,
            rand_seed: 0,
            bytes: data.len() as u64,
            crc: crc32(&data),
            status: RunStatus::Quarantined,
        });
    }

    report.servable = repaired.committed().count();
    report.quarantined_total = repaired.quarantined().count();

    if report.repaired() {
        atomic_write(&manifest_path, &repaired.to_bytes()).map_err(|e| {
            OptiwiseError::ArchiveUnrepairable {
                reason: format!("cannot rewrite manifest: {e}"),
            }
        })?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiwise::{AnalysisMode, ProfileTables};
    use wiser_store::RunMeta;

    /// A minimal but fully valid serialized profile: metadata plus empty
    /// analysis tables (which validate fine), no raw sections. Cheap enough
    /// to mint hundreds in a test.
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
            "wiser-archive-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_add_reopen_load_roundtrip() {
        let root = scratch("roundtrip");
        let mut a = Archive::create(&root).unwrap();
        let id1 = a.add_run(&profile_bytes("alpha", 7), 111).unwrap();
        let id2 = a.add_run(&profile_bytes("beta", 8), 222).unwrap();
        assert_eq!((id1, id2), (1, 2));

        // A fresh handle sees exactly the committed state.
        let b = Archive::open(&root).unwrap();
        assert_eq!(b.manifest().committed().count(), 2);
        assert_eq!(b.load_run(1).unwrap().meta.label, "alpha");
        assert_eq!(b.load_run(2).unwrap().meta.rand_seed, 8);
        let entry = b.manifest().entry(2).unwrap();
        assert_eq!(entry.workload, "beta");
        assert_eq!(entry.fingerprint, 222);

        assert!(Archive::create(&root).is_err(), "create over existing");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn invalid_bytes_never_enter_the_archive() {
        let root = scratch("invalid");
        let mut a = Archive::create(&root).unwrap();
        let err = a.add_run(b"not an owp file", 0).unwrap_err();
        assert!(matches!(err, OptiwiseError::Store(_)), "{err}");
        assert_eq!(a.manifest().entries.len(), 0);
        assert_eq!(
            fs::read_dir(a.runs_dir()).unwrap().count(),
            0,
            "rejected bytes must not land"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn load_refuses_quarantined_and_bitrotted_runs() {
        let root = scratch("refuse");
        let mut a = Archive::create(&root).unwrap();
        let id = a.add_run(&profile_bytes("w", 1), 0).unwrap();

        // Bitrot the file behind the manifest's back: load must fail
        // closed on the manifest CRC before decoding.
        let path = a.runs_dir().join(ManifestEntry::file_name(id));
        let mut data = fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff;
        fs::write(&path, &data).unwrap();
        let err = a.load_run(id).unwrap_err();
        assert!(matches!(err, OptiwiseError::Store(_)), "{err}");

        // fsck impounds it; the repaired archive refuses to serve it.
        let report = fsck(&root).unwrap();
        assert_eq!(report.quarantined, 1);
        assert!(matches!(
            report.verdict(),
            Some(OptiwiseError::ArchiveRepaired { quarantined: 1, .. })
        ));
        let b = Archive::open(&root).unwrap();
        let err = b.load_run(id).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        // The damaged file still exists as evidence.
        assert!(b
            .quarantine_dir()
            .join(ManifestEntry::file_name(id))
            .is_file());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn retention_evicts_oldest_first_and_respects_byte_cap() {
        let root = scratch("retain");
        let mut a = Archive::create(&root).unwrap();
        for i in 0..5 {
            a.add_run(&profile_bytes(&format!("w{i}"), i), 0).unwrap();
        }
        let evicted = a
            .retain(RetentionPolicy {
                max_runs: Some(3),
                max_bytes: None,
            })
            .unwrap();
        assert_eq!(evicted, vec![1, 2]);
        assert!(a.load_run(1).is_err());
        assert!(a.load_run(3).is_ok());
        assert!(!a.runs_dir().join(ManifestEntry::file_name(1)).exists());

        // Byte cap: each run is the same size, so capping at two runs'
        // bytes evicts down to two.
        let per_run = a.manifest().entry(3).unwrap().bytes;
        let evicted = a
            .retain(RetentionPolicy {
                max_runs: None,
                max_bytes: Some(2 * per_run),
            })
            .unwrap();
        assert_eq!(evicted, vec![3]);
        assert_eq!(a.manifest().committed().count(), 2);

        // Quarantined runs are outside retention's reach.
        let qpath = a.quarantine_dir().join("run-000099.owp");
        fs::write(&qpath, b"junk").unwrap();
        fsck(&root).unwrap();
        let mut a = Archive::open(&root).unwrap();
        let before = a.manifest().quarantined().count();
        a.retain(RetentionPolicy {
            max_runs: Some(0),
            max_bytes: None,
        })
        .unwrap();
        assert_eq!(a.manifest().committed().count(), 0);
        assert_eq!(a.manifest().quarantined().count(), before);
        assert!(qpath.is_file());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_clean_on_healthy_archive_even_with_debris() {
        let root = scratch("clean");
        let mut a = Archive::create(&root).unwrap();
        a.add_run(&profile_bytes("w", 1), 0).unwrap();
        // Simulated crash leftovers: staging debris only.
        fs::write(root.join(".MANIFEST.owp.tmp.1.0"), b"half").unwrap();
        fs::write(a.runs_dir().join(".run-000002.owp.tmp.1.1"), b"ha").unwrap();
        let report = fsck(&root).unwrap();
        assert!(!report.repaired(), "{report}");
        assert!(report.verdict().is_none());
        assert_eq!(report.debris_removed, 2);
        assert_eq!(report.servable, 1);
        assert!(!root.join(".MANIFEST.owp.tmp.1.0").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_adopts_orphans_drops_lost_and_is_idempotent() {
        let root = scratch("repair");
        let mut a = Archive::create(&root).unwrap();
        a.add_run(&profile_bytes("kept", 1), 0).unwrap();
        a.add_run(&profile_bytes("doomed", 2), 0).unwrap();

        // An orphan: a valid run file the manifest never heard of.
        fs::write(
            a.runs_dir().join("run-000007.owp"),
            profile_bytes("orphan", 42),
        )
        .unwrap();
        // A lost run: listed but the file vanished.
        fs::remove_file(a.runs_dir().join(ManifestEntry::file_name(2))).unwrap();

        let report = fsck(&root).unwrap();
        assert_eq!(
            (report.adopted, report.lost, report.quarantined),
            (1, 1, 0),
            "{report}"
        );
        assert!(matches!(
            report.verdict(),
            Some(OptiwiseError::ArchiveRepaired {
                adopted: 1,
                lost: 1,
                ..
            })
        ));

        let b = Archive::open(&root).unwrap();
        // The orphan kept its file-name id and its own metadata.
        let adopted = b.manifest().entry(7).unwrap();
        assert_eq!(adopted.workload, "orphan");
        assert_eq!(adopted.rand_seed, 42);
        assert_eq!(adopted.fingerprint, 0);
        assert_eq!(b.load_run(7).unwrap().meta.label, "orphan");
        assert!(b.manifest().entry(2).is_none(), "lost entry dropped");
        // Ids never reuse history: the allocator is above everything seen.
        assert_eq!(b.manifest().next_run_id, 8);

        // Second pass finds nothing: repair is idempotent.
        let second = fsck(&root).unwrap();
        assert!(!second.repaired(), "{second}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_rebuilds_missing_or_corrupt_manifest_from_runs() {
        let root = scratch("rebuild");
        let mut a = Archive::create(&root).unwrap();
        a.add_run(&profile_bytes("a", 1), 0).unwrap();
        a.add_run(&profile_bytes("b", 2), 0).unwrap();

        for damage in ["missing", "corrupt"] {
            let manifest = root.join(MANIFEST_FILE);
            if damage == "missing" {
                fs::remove_file(&manifest).unwrap();
            } else {
                let mut data = fs::read(&manifest).unwrap();
                data[20] ^= 0x40;
                fs::write(&manifest, &data).unwrap();
            }
            let report = fsck(&root).unwrap();
            assert!(report.manifest_rebuilt, "{damage}: {report}");
            assert_eq!(report.adopted, 2, "{damage}: {report}");
            let b = Archive::open(&root).unwrap();
            assert_eq!(b.load_run(1).unwrap().meta.label, "a");
            assert_eq!(b.load_run(2).unwrap().meta.label, "b");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_indexes_unreferenced_quarantine_files() {
        let root = scratch("qindex");
        Archive::create(&root).unwrap();
        fs::write(root.join(QUARANTINE_DIR).join("mystery.owp"), b"????").unwrap();
        let report = fsck(&root).unwrap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.quarantined_total, 1);
        let a = Archive::open(&root).unwrap();
        let entry = a.manifest().quarantined().next().unwrap();
        assert_eq!(entry.file, "mystery.owp");
        assert!(a.load_run(entry.run_id).is_err());
        // Idempotent: already indexed.
        assert!(!fsck(&root).unwrap().repaired());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_on_nonexistent_root_is_unrepairable() {
        let err = fsck(Path::new("/nonexistent-wiser-archive")).unwrap_err();
        assert!(matches!(err, OptiwiseError::ArchiveUnrepairable { .. }));
        assert_eq!(err.exit_code(), 12);
    }
}
