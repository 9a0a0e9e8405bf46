//! Chaos kill-sweep over the archive's write protocol.
//!
//! One scenario — ingest runs, then compact — is replayed with an injected
//! crash at *every* write boundary in turn (`FaultPlan::kill_in_archive_write`,
//! the same mechanism `--inject kill-in-archive=N` arms from the CLI). After
//! each crash the oracle checks the paper-level robustness contract:
//!
//! 1. `fsck` restores the archive to a servable state (clean or repaired,
//!    never unrepairable);
//! 2. zero accepted-then-lost runs: every run id `add_run` returned `Ok`
//!    for is still servable, unless retention legitimately evicted it;
//! 3. repair is idempotent: a second `fsck` pass is clean;
//! 4. a crashed handle behaves like a dead process: every further
//!    operation fails.
//!
//! The sweep is exhaustive by construction — it keeps raising the kill
//! boundary until a full replay completes with the gate never firing.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use optiwise::{AnalysisMode, OptiwiseError, ProfileTables};
use wiser_archive::{fsck, Archive, ManifestEntry, RetentionPolicy};
use wiser_sim::FaultPlan;
use wiser_store::{RunMeta, StoredProfile};

fn profile_bytes(label: &str, seed: u64) -> Vec<u8> {
    StoredProfile {
        meta: RunMeta {
            label: label.into(),
            rand_seed: seed,
            tool_version: "chaos".into(),
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
    let dir =
        std::env::temp_dir().join(format!("wiser-archive-chaos-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// What one faulted replay of the scenario observed.
struct Replay {
    /// Run ids `add_run` accepted (returned `Ok`) before the crash.
    accepted: BTreeSet<u64>,
    /// Run ids a *successful* `retain` call reported evicted.
    evicted: BTreeSet<u64>,
    /// Ids retention was allowed to evict, whether or not the call's
    /// result was observed (a crash can land after the eviction commits
    /// but before the caller hears about it).
    evictable: BTreeSet<u64>,
    /// Whether the injected crash fired during this replay.
    crashed: bool,
}

/// Replays the scenario — two pre-seeded runs, two faulted ingests, then a
/// compaction down to three runs — with a crash armed at boundary `kill`.
fn replay(root: &PathBuf, kill: u64) -> Replay {
    let _ = fs::remove_dir_all(root);
    fs::create_dir_all(root).unwrap();

    // Seed phase, unfaulted: the archive starts healthy with two runs.
    let mut archive = Archive::create(root).unwrap();
    let mut accepted = BTreeSet::new();
    for (label, seed) in [("seed-a", 1u64), ("seed-b", 2)] {
        accepted.insert(archive.add_run(&profile_bytes(label, seed), 10).unwrap());
    }

    // Faulted phase: every write boundary from here on is a candidate
    // crash site.
    let plan = FaultPlan {
        kill_in_archive_write: Some(kill),
        ..FaultPlan::default()
    };
    archive.set_faults(&plan);

    let mut evicted = BTreeSet::new();
    let mut evictable = BTreeSet::new();

    'scenario: {
        for (label, seed) in [("work-c", 3u64), ("work-d", 4)] {
            match archive.add_run(&profile_bytes(label, seed), 10) {
                Ok(id) => {
                    accepted.insert(id);
                }
                Err(_) => break 'scenario,
            }
        }
        // Compaction may evict the oldest committed run(s) down to 3.
        let committed: Vec<u64> = archive.manifest().committed().map(|e| e.run_id).collect();
        for &id in committed.iter().take(committed.len().saturating_sub(3)) {
            evictable.insert(id);
        }
        match archive.retain(RetentionPolicy {
            max_runs: Some(3),
            max_bytes: None,
        }) {
            Ok(ids) => evicted.extend(ids),
            Err(_) => break 'scenario,
        }
    }

    Replay {
        accepted,
        evicted,
        evictable,
        crashed: archive.crashed(),
    }
}

#[test]
fn kill_at_every_write_boundary_recovers_servable_with_zero_lost_runs() {
    let root = scratch("sweep");
    let mut boundaries_hit = 0u64;
    for kill in 1..64 {
        let replay = replay(&root, kill);
        if !replay.crashed {
            // The kill boundary is beyond the scenario: the sweep has
            // covered every write the protocol performs.
            boundaries_hit = kill - 1;
            break;
        }

        // (1) fsck always restores a servable state — never unrepairable.
        let report = match fsck(&root) {
            Ok(r) => r,
            Err(e) => panic!("kill at boundary {kill}: fsck failed: {e}"),
        };
        // (3) and repair is idempotent.
        let second = fsck(&root).unwrap();
        assert!(
            !second.repaired(),
            "kill at boundary {kill}: fsck not idempotent: {second}"
        );

        // (2) Zero accepted-then-lost runs. An accepted run may be absent
        // only if retention was allowed to evict it; anything else lost is
        // a broken commit protocol.
        let archive = Archive::open(&root)
            .unwrap_or_else(|e| panic!("kill at boundary {kill}: open after fsck: {e}"));
        for &id in &replay.accepted {
            match archive.load_run(id) {
                Ok(profile) => {
                    // Integrity, not just presence: the payload decodes
                    // and carries the metadata it was ingested with.
                    assert!(
                        !profile.meta.label.is_empty(),
                        "kill at boundary {kill}: run {id} lost its metadata"
                    );
                }
                Err(e) => {
                    assert!(
                        replay.evictable.contains(&id),
                        "kill at boundary {kill}: accepted run {id} lost \
                         (not legitimately evictable): {e} — report was: {report}"
                    );
                }
            }
        }
        // Runs a *completed* retain call evicted must actually be gone or
        // resurrected-whole — but never half-present: if listed, servable.
        for &id in &replay.evicted {
            if archive.manifest().entry(id).is_some() {
                archive.load_run(id).unwrap_or_else(|e| {
                    panic!("kill at boundary {kill}: evicted-but-listed run {id} unservable: {e}")
                });
            }
        }

        // (4) A crashed handle is dead: every further operation fails.
        let mut crashed_handle = Archive::open(&root).unwrap();
        crashed_handle.set_faults(&FaultPlan {
            kill_in_archive_write: Some(1),
            ..FaultPlan::default()
        });
        assert!(crashed_handle.add_run(&profile_bytes("x", 9), 0).is_err());
        assert!(crashed_handle.crashed());
        assert!(crashed_handle.add_run(&profile_bytes("y", 10), 0).is_err());
        assert!(crashed_handle
            .retain(RetentionPolicy {
                max_runs: Some(0),
                max_bytes: None
            })
            .is_err());
    }
    assert!(
        boundaries_hit >= 5,
        "sweep ended after {boundaries_hit} boundaries — scenario no longer \
         exercises the protocol (expected at least run+manifest writes for \
         two ingests plus a compaction)"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unfaulted_scenario_is_clean_and_deterministic() {
    let root = scratch("baseline");
    let replay = replay(&root, u64::MAX);
    assert!(!replay.crashed);
    assert_eq!(replay.accepted, BTreeSet::from([1, 2, 3, 4]));
    assert_eq!(replay.evicted, BTreeSet::from([1]));
    let report = fsck(&root).unwrap();
    assert!(!report.repaired(), "{report}");
    assert_eq!(report.servable, 3);

    let archive = Archive::open(&root).unwrap();
    for id in [2u64, 3, 4] {
        assert!(archive.load_run(id).is_ok(), "run {id}");
    }
    assert!(archive.load_run(1).is_err(), "evicted run still served");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn kill_between_run_write_and_manifest_commit_leaves_adoptable_orphan() {
    // The single most important crash window, pinned explicitly: the run
    // file landed but the manifest never heard of it. The run was NOT
    // accepted (add_run returned the kill), so the contract does not
    // require it — but fsck must adopt the valid orphan rather than lose
    // the bytes, and the archive must stay consistent.
    let root = scratch("window");
    let mut archive = Archive::create(&root).unwrap();
    archive.add_run(&profile_bytes("base", 1), 0).unwrap();

    archive.set_faults(&FaultPlan {
        kill_in_archive_write: Some(2), // run file = 1, manifest = 2
        ..FaultPlan::default()
    });
    let err = archive.add_run(&profile_bytes("torn", 2), 0).unwrap_err();
    assert!(matches!(err, OptiwiseError::Killed { .. }), "{err}");

    // Before fsck: the old manifest is intact, the new run invisible.
    let fresh = Archive::open(&root).unwrap();
    assert_eq!(fresh.manifest().committed().count(), 1);
    assert!(fresh.runs_dir().join(ManifestEntry::file_name(2)).is_file());

    let report = fsck(&root).unwrap();
    assert_eq!(report.adopted, 1, "{report}");
    let after = Archive::open(&root).unwrap();
    assert_eq!(after.load_run(2).unwrap().meta.label, "torn");
    let _ = fs::remove_dir_all(&root);
}
