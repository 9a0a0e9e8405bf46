//! The archive manifest: the single commit point of the multi-run store.
//!
//! The manifest is an `.owp` container (the same magic, version and
//! CRC-framed section discipline as every other file this project writes)
//! holding one `MFST` section. It is rewritten **atomically** — temp file,
//! fsync, rename — on every mutation, so a reader observes either the old
//! archive state or the new one, never a mixture, and a crash mid-rewrite
//! leaves the previous manifest intact plus recognizable temp debris.
//!
//! A run **exists** exactly when its manifest entry says so: run files are
//! written first and become visible only once the manifest rewrite that
//! lists them commits. That ordering is what makes every crash window
//! recoverable (see the crate docs for the full protocol).

use optiwise::{ResourceLimits, StoreError};
use wiser_store::format::{read_sections, write_store, ByteReader, ByteWriter, DecodeBudget};

/// Archive format version, stored in the `MFST` payload. Readers accept
/// exactly this version.
pub const ARCHIVE_VERSION: u32 = 1;

/// Manifest file name inside the archive directory.
pub const MANIFEST_FILE: &str = "MANIFEST.owp";

/// Subdirectory holding committed run files.
pub const RUNS_DIR: &str = "runs";

/// Subdirectory holding quarantined run files. Quarantined runs are never
/// served and never deleted — they are evidence.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Subdirectory holding serve-mode job checkpoints (`optiwise resume` with
/// an archive path looks here).
pub const CHECKPOINTS_DIR: &str = "checkpoints";

const TAG_MFST: [u8; 4] = *b"MFST";

/// Whether a run is servable or impounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Fully committed: file in `runs/`, integrity verified at ingest,
    /// servable.
    Committed,
    /// Failed a CRC or plausibility check: file in `quarantine/`, never
    /// served, never deleted.
    Quarantined,
}

/// One archived run as the manifest records it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Monotonic run id; lower = older. Also the retention order.
    pub run_id: u64,
    /// File name inside `runs/` (committed) or `quarantine/`.
    pub file: String,
    /// Workload label the run profiled.
    pub workload: String,
    /// Fingerprint of the workload build + configuration that produced the
    /// run (`optiwise::module_fingerprint`); 0 when unknown (a run fsck
    /// re-adopted from an orphaned file).
    pub fingerprint: u64,
    /// Deterministic input seed of the run.
    pub rand_seed: u64,
    /// Exact file size in bytes, cross-checked on every load.
    pub bytes: u64,
    /// CRC-32 of the whole run file, cross-checked on every load so bitrot
    /// is caught before a run is served.
    pub crc: u32,
    /// Committed or quarantined.
    pub status: RunStatus,
}

impl ManifestEntry {
    /// Conventional file name for run `id`.
    pub fn file_name(id: u64) -> String {
        format!("run-{id:06}.owp")
    }

    /// The run id encoded in a conventional file name, if it is one.
    pub fn id_from_file_name(name: &str) -> Option<u64> {
        name.strip_prefix("run-")?
            .strip_suffix(".owp")?
            .parse()
            .ok()
    }
}

/// The decoded manifest: the archive's entire index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Next run id to allocate. Invariant: above every listed id.
    pub next_run_id: u64,
    /// All runs, committed and quarantined, ascending by `run_id`.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// An empty manifest for a fresh archive.
    pub fn new() -> Manifest {
        Manifest {
            next_run_id: 1,
            entries: Vec::new(),
        }
    }

    /// The committed (servable) entries, ascending by run id.
    pub fn committed(&self) -> impl Iterator<Item = &ManifestEntry> {
        self.entries
            .iter()
            .filter(|e| e.status == RunStatus::Committed)
    }

    /// The quarantined entries, ascending by run id.
    pub fn quarantined(&self) -> impl Iterator<Item = &ManifestEntry> {
        self.entries
            .iter()
            .filter(|e| e.status == RunStatus::Quarantined)
    }

    /// The entry for `run_id`, if listed.
    pub fn entry(&self, run_id: u64) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.run_id == run_id)
    }

    /// Inserts `entry` keeping ascending run-id order, and bumps
    /// `next_run_id` above it.
    pub fn insert(&mut self, entry: ManifestEntry) {
        self.next_run_id = self.next_run_id.max(entry.run_id + 1);
        let at = self.entries.partition_point(|e| e.run_id < entry.run_id);
        self.entries.insert(at, entry);
    }

    /// Serializes to a complete manifest file image. Deterministic: equal
    /// manifests produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(ARCHIVE_VERSION);
        w.u64(self.next_run_id);
        w.len(self.entries.len());
        for e in &self.entries {
            w.u64(e.run_id);
            w.string(&e.file);
            w.string(&e.workload);
            w.u64(e.fingerprint);
            w.u64(e.rand_seed);
            w.u64(e.bytes);
            w.u32(e.crc);
            w.u8(match e.status {
                RunStatus::Committed => 0,
                RunStatus::Quarantined => 1,
            });
        }
        write_store(&[(TAG_MFST, w.into_bytes())])
    }

    /// Decodes a manifest image; fails closed on any framing, checksum or
    /// structural damage.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] locating the first problem.
    pub fn from_bytes(data: &[u8]) -> Result<Manifest, StoreError> {
        Manifest::from_bytes_limited(data, &ResourceLimits::default())
    }

    /// [`Manifest::from_bytes`] under an explicit allocation budget: the
    /// entry count is charged at its in-memory size before the table is
    /// allocated, so a hostile manifest fails closed instead of aborting
    /// on OOM.
    ///
    /// # Errors
    ///
    /// As [`Manifest::from_bytes`], plus budget-exceeded failures.
    pub fn from_bytes_limited(
        data: &[u8],
        limits: &ResourceLimits,
    ) -> Result<Manifest, StoreError> {
        let budget = DecodeBudget::new(limits.max_decode_alloc);
        let mut found = None;
        for section in read_sections(data)? {
            if section.tag != TAG_MFST {
                continue; // unknown but checksum-valid: skip (forward compat)
            }
            let mut r = ByteReader::with_budget(
                section.payload,
                section.payload_offset,
                section.tag_name(),
                budget.clone(),
            );
            let version = r.u32("archive version")?;
            if version != ARCHIVE_VERSION {
                return Err(r.error(format!(
                    "unsupported archive version {version} (expected {ARCHIVE_VERSION})"
                )));
            }
            let next_run_id = r.u64("next_run_id")?;
            let count = r.len_mem(30, std::mem::size_of::<ManifestEntry>(), "manifest entries")?;
            let mut entries = Vec::with_capacity(count);
            let mut last_id = None;
            for _ in 0..count {
                let run_id = r.u64("run_id")?;
                if last_id.is_some_and(|prev| prev >= run_id) {
                    return Err(
                        r.error(format!("manifest entries out of order at run id {run_id}"))
                    );
                }
                last_id = Some(run_id);
                let file = r.string("file name")?;
                if file.contains('/') || file.contains('\\') || file.is_empty() {
                    return Err(r.error(format!("implausible run file name `{file}`")));
                }
                let workload = r.string("workload")?;
                let fingerprint = r.u64("fingerprint")?;
                let rand_seed = r.u64("rand_seed")?;
                let bytes = r.u64("bytes")?;
                let crc = r.u32("crc")?;
                let status = match r.u8("status")? {
                    0 => RunStatus::Committed,
                    1 => RunStatus::Quarantined,
                    other => return Err(r.error(format!("unknown run status code {other}"))),
                };
                if run_id >= next_run_id {
                    return Err(r.error(format!(
                        "run id {run_id} at or above next_run_id {next_run_id}"
                    )));
                }
                entries.push(ManifestEntry {
                    run_id,
                    file,
                    workload,
                    fingerprint,
                    rand_seed,
                    bytes,
                    crc,
                    status,
                });
            }
            r.expect_end()?;
            found = Some(Manifest {
                next_run_id,
                entries,
            });
        }
        found.ok_or_else(|| StoreError::at(data.len() as u64, "missing required MFST section"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, status: RunStatus) -> ManifestEntry {
        ManifestEntry {
            run_id: id,
            file: ManifestEntry::file_name(id),
            workload: format!("w{id}"),
            fingerprint: 0x1234_5678_9abc_def0,
            rand_seed: id * 3,
            bytes: 100 + id,
            crc: 0xdead_0000 | id as u32,
            status,
        }
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(ManifestEntry::file_name(7), "run-000007.owp");
        assert_eq!(ManifestEntry::id_from_file_name("run-000007.owp"), Some(7));
        assert_eq!(
            ManifestEntry::id_from_file_name("run-1234567.owp"),
            Some(1_234_567)
        );
        assert_eq!(ManifestEntry::id_from_file_name("MANIFEST.owp"), None);
        assert_eq!(ManifestEntry::id_from_file_name("run-x.owp"), None);
        assert_eq!(ManifestEntry::id_from_file_name("run-1.txt"), None);
    }

    #[test]
    fn roundtrip_empty_and_mixed() {
        let empty = Manifest::new();
        assert_eq!(Manifest::from_bytes(&empty.to_bytes()).unwrap(), empty);

        let mut m = Manifest::new();
        m.insert(entry(1, RunStatus::Committed));
        m.insert(entry(2, RunStatus::Quarantined));
        m.insert(entry(5, RunStatus::Committed));
        assert_eq!(m.next_run_id, 6);
        let back = Manifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.committed().count(), 2);
        assert_eq!(back.quarantined().count(), 1);
        assert_eq!(back.entry(5).unwrap().workload, "w5");
        assert!(back.entry(9).is_none());
    }

    #[test]
    fn insert_keeps_order_and_bumps_next_id() {
        let mut m = Manifest::new();
        m.insert(entry(4, RunStatus::Committed));
        m.insert(entry(2, RunStatus::Committed));
        let ids: Vec<u64> = m.entries.iter().map(|e| e.run_id).collect();
        assert_eq!(ids, vec![2, 4]);
        assert_eq!(m.next_run_id, 5);
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut m = Manifest::new();
        m.insert(entry(1, RunStatus::Committed));
        assert_eq!(m.to_bytes(), m.to_bytes());
    }

    #[test]
    fn every_bit_flip_fails_closed() {
        let mut m = Manifest::new();
        m.insert(entry(1, RunStatus::Committed));
        m.insert(entry(2, RunStatus::Quarantined));
        let image = m.to_bytes();
        for byte in 0..image.len() {
            let mut bad = image.clone();
            bad[byte] ^= 1;
            assert!(
                Manifest::from_bytes(&bad).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn structural_damage_rejected() {
        // Out-of-order entries.
        let mut m = Manifest::new();
        m.insert(entry(1, RunStatus::Committed));
        m.insert(entry(2, RunStatus::Committed));
        m.entries.swap(0, 1);
        assert!(Manifest::from_bytes(&m.to_bytes())
            .unwrap_err()
            .message
            .contains("out of order"));

        // Path traversal in a file name.
        let mut m = Manifest::new();
        let mut e = entry(1, RunStatus::Committed);
        e.file = "../escape.owp".into();
        m.insert(e);
        assert!(Manifest::from_bytes(&m.to_bytes())
            .unwrap_err()
            .message
            .contains("implausible"));

        // A run id the allocator would hand out again.
        let mut m = Manifest::new();
        m.insert(entry(3, RunStatus::Committed));
        m.next_run_id = 2;
        assert!(Manifest::from_bytes(&m.to_bytes())
            .unwrap_err()
            .message
            .contains("next_run_id"));
    }

    #[test]
    fn decode_bomb_entry_count_fails_closed_under_budget() {
        let mut m = Manifest::new();
        for id in 1..=64 {
            m.insert(entry(id, RunStatus::Committed));
        }
        let image = m.to_bytes();
        let limits = optiwise::ResourceLimits {
            max_decode_alloc: 256,
            ..optiwise::ResourceLimits::default()
        };
        let err = Manifest::from_bytes_limited(&image, &limits).unwrap_err();
        assert!(err.message.contains("budget"), "{err}");
        // The production default budget decodes the same image fine.
        assert_eq!(Manifest::from_bytes(&image).unwrap(), m);
    }

    #[test]
    fn missing_section_and_bad_version_rejected() {
        let image = write_store(&[(*b"XXXX", vec![1, 2, 3])]);
        assert!(Manifest::from_bytes(&image)
            .unwrap_err()
            .message
            .contains("MFST"));

        let mut w = ByteWriter::new();
        w.u32(99);
        let image = write_store(&[(TAG_MFST, w.into_bytes())]);
        assert!(Manifest::from_bytes(&image)
            .unwrap_err()
            .message
            .contains("version 99"));
    }
}
