//! The unified error taxonomy of the OptiWISE pipeline.
//!
//! Every failure mode of the two profiling runs and the join has one typed
//! variant here, and every variant maps to a distinct CLI exit code so
//! scripts driving the profiler can react to *what* failed, not just that
//! something did.

use std::error::Error;
use std::fmt;

use wiser_sim::{SimError, TruncationReason};

/// Which of the two profiling passes an error concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// The sampling run (timing model + perf-style sampler).
    Sampling,
    /// The instrumentation run (DBI engine).
    Instrumentation,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Sampling => "sampling",
            Pass::Instrumentation => "instrumentation",
        })
    }
}

/// A corrupted, truncated or malformed binary profile store file
/// (`wiser-store`'s `.owp` format): pinpoints the byte offset where
/// decoding failed and, when known, which section was being read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreError {
    /// Absolute byte offset in the file where decoding failed.
    pub offset: u64,
    /// Section tag (e.g. `SAMP`) being decoded, if decoding got that far.
    pub section: Option<String>,
    /// What was wrong.
    pub message: String,
}

impl StoreError {
    /// A failure at `offset`, outside any section (header, framing).
    pub fn at(offset: u64, message: impl Into<String>) -> StoreError {
        StoreError {
            offset,
            section: None,
            message: message.into(),
        }
    }

    /// A failure at `offset` while decoding `section`.
    pub fn in_section(
        offset: u64,
        section: impl Into<String>,
        message: impl Into<String>,
    ) -> StoreError {
        StoreError {
            offset,
            section: Some(section.into()),
            message: message.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.section {
            Some(s) => write!(
                f,
                "parse error at byte {} (section {s}): {}",
                self.offset, self.message
            ),
            None => write!(f, "parse error at byte {}: {}", self.offset, self.message),
        }
    }
}

impl Error for StoreError {}

/// Everything that can go wrong in the OptiWISE pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum OptiwiseError {
    /// The loader rejected the module set.
    Load(String),
    /// A run faulted during execution and recovery was not permitted.
    Exec {
        /// Program counter at the fault.
        pc: u64,
        /// Description of the fault.
        message: String,
    },
    /// A run exhausted its instruction budget and recovery was not
    /// permitted.
    InsnLimit(u64),
    /// A pass was cut short and the configuration does not allow partial
    /// profiles (`--strict` / `allow_partial = false`).
    Truncated {
        /// Which pass was cut short.
        pass: Pass,
        /// Why it stopped.
        reason: TruncationReason,
    },
    /// A binary profile store file was corrupted, truncated or malformed.
    Store(StoreError),
    /// A differential analysis detected regressions and the caller asked
    /// for that to be fatal (`optiwise diff --fail-on-regression`).
    Regression {
        /// Number of rows classified as regressions.
        count: usize,
        /// The significance threshold (percent) the rows exceeded.
        threshold_pct: f64,
    },
    /// The two profiles disagree beyond the configured tolerance — the runs
    /// likely observed different control flow (§IV-F's assumption broken).
    Divergence {
        /// The computed divergence score (0 = perfect agreement).
        score: f64,
        /// The threshold that was exceeded.
        threshold: f64,
        /// Human-readable summary of what disagreed.
        summary: String,
    },
    /// A linked module failed to disassemble.
    Disasm {
        /// Module name.
        module: String,
        /// Description of the failure.
        message: String,
    },
    /// The run was cancelled — wall-clock deadline (`--deadline`) or an
    /// external signal (Ctrl-C) — before both passes completed. State up
    /// to the cancellation survives in the checkpoint file, if one was
    /// configured.
    DeadlineExceeded {
        /// Instructions the farthest-along cancelled pass had committed.
        retired: u64,
        /// True when the wall-clock deadline fired (as opposed to a
        /// signal/manual cancellation).
        deadline: bool,
    },
    /// An injected crash (`FaultPlan::kill_after_insns` or a kill during a
    /// checkpoint write) terminated a pass abruptly — the test double of
    /// `kill -9`. No final state was persisted; only checkpoints written
    /// before the kill survive.
    Killed {
        /// Instructions retired when the pass died.
        retired: u64,
    },
    /// The oracle self-check found join-bug-class discrepancies: the fused
    /// analysis disagrees with exact ground truth beyond anything sampling
    /// noise or skid can explain (`optiwise selfcheck`).
    SelfCheck {
        /// Number of join-bug discrepancies across the sweep.
        join_bugs: usize,
        /// Seeds whose programs produced at least one join bug.
        seeds: Vec<u64>,
    },
    /// `optiwise fsck` found archive damage and repaired it: the manifest
    /// was rebuilt from surviving runs, orphans adopted, corrupt runs
    /// quarantined. The archive is servable again, but the damage (and any
    /// run fsck could not restore) deserves a distinct signal so operators
    /// and scripts notice.
    ArchiveRepaired {
        /// Orphaned run files (valid, but missing from the manifest)
        /// re-adopted into it.
        adopted: usize,
        /// Runs moved to `quarantine/` because they failed CRC or
        /// plausibility checks. Quarantined runs are never served and never
        /// deleted.
        quarantined: usize,
        /// Manifest entries dropped because their run file no longer
        /// exists — nothing left to restore.
        lost: usize,
    },
    /// `optiwise fsck` could not restore the archive to a servable state
    /// (missing directory, unwritable manifest, ...).
    ArchiveUnrepairable {
        /// What made repair impossible.
        reason: String,
    },
    /// The fuzz harness (`optiwise fuzz`) found at least one invariant
    /// violation: a decoder panicked, allocated past its budget, or
    /// re-encoded a successfully decoded input non-canonically. Each
    /// violation is reproducible from `(surface, seed)` alone.
    FuzzViolation {
        /// Number of violations across the sweep.
        violations: usize,
        /// `surface:seed` reproducers, one per violating case (bounded).
        cases: Vec<String>,
    },
    /// The timing model could not go on: no progress for its deadlock
    /// window, or a record it cannot time. Reachable only through a core
    /// configuration `CoreConfig::validate` would reject, or a corrupt
    /// record stream; a failed job, not a crashed worker.
    ModelStuck {
        /// Cycle at which the model gave up.
        cycle: u64,
        /// What stopped it.
        message: String,
    },
    /// A daemon (`optiwised`) job failed remotely. The daemon reports the
    /// failing job's own exit code over the wire; the client reproduces it
    /// so `optiwise submit` exits exactly as running the job locally would.
    Daemon {
        /// The daemon's error line for the job.
        message: String,
        /// The exit code the job would have produced locally.
        exit: u8,
    },
    /// Bad invocation (CLI usage errors).
    Usage(String),
    /// Filesystem I/O failed.
    Io(String),
    /// A pipeline worker thread died (a panic inside a parallel stage).
    Internal(String),
}

impl OptiwiseError {
    /// The process exit code for this error, one per failure class:
    /// 2 = load/disassembly, 3 = execution fault, 4 = instruction limit or
    /// disallowed truncation, 5 = run divergence, 6 = profile parse error
    /// (binary store), 7 = regressions detected by `diff` when
    /// failing on them was requested, 8 = deadline exceeded or run
    /// cancelled, 9 = injected crash kill, 10 = self-check join bug,
    /// 11 = archive damaged but repaired by `fsck`, 12 = archive
    /// unrepairable, 13 = fuzz invariant violation, 14 = timing model
    /// stuck, 1 = everything else (usage, I/O).
    pub fn exit_code(&self) -> u8 {
        match self {
            OptiwiseError::Load(_) | OptiwiseError::Disasm { .. } => 2,
            OptiwiseError::Exec { .. } => 3,
            OptiwiseError::InsnLimit(_) | OptiwiseError::Truncated { .. } => 4,
            OptiwiseError::Divergence { .. } => 5,
            OptiwiseError::Store(_) => 6,
            OptiwiseError::Regression { .. } => 7,
            OptiwiseError::DeadlineExceeded { .. } => 8,
            OptiwiseError::Killed { .. } => 9,
            OptiwiseError::SelfCheck { .. } => 10,
            OptiwiseError::ArchiveRepaired { .. } => 11,
            OptiwiseError::ArchiveUnrepairable { .. } => 12,
            OptiwiseError::FuzzViolation { .. } => 13,
            OptiwiseError::ModelStuck { .. } => 14,
            // Forwarded verbatim: the remote job already classified itself.
            OptiwiseError::Daemon { exit, .. } => *exit,
            OptiwiseError::Usage(_) | OptiwiseError::Io(_) | OptiwiseError::Internal(_) => 1,
        }
    }
}

impl fmt::Display for OptiwiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptiwiseError::Load(msg) => write!(f, "load error: {msg}"),
            OptiwiseError::Exec { pc, message } => {
                write!(f, "execution fault at {pc:#x}: {message}")
            }
            OptiwiseError::InsnLimit(limit) => {
                write!(f, "instruction limit of {limit} exhausted before exit")
            }
            OptiwiseError::Truncated { pass, reason } => {
                write!(f, "{pass} run truncated: {reason} (partial profiles disallowed)")
            }
            OptiwiseError::Store(error) => write!(f, "profile store {error}"),
            OptiwiseError::Regression {
                count,
                threshold_pct,
            } => write!(
                f,
                "differential analysis found {count} regression(s) beyond the \
                 {threshold_pct:.1}% threshold"
            ),
            OptiwiseError::Divergence {
                score,
                threshold,
                summary,
            } => write!(
                f,
                "run divergence detected: score {score:.4} exceeds threshold {threshold:.4} ({summary})"
            ),
            OptiwiseError::Disasm { module, message } => {
                write!(f, "module `{module}` failed to disassemble: {message}")
            }
            OptiwiseError::DeadlineExceeded { retired, deadline } => {
                let cause = if *deadline { "deadline exceeded" } else { "cancelled" };
                write!(
                    f,
                    "run {cause} after {retired} committed instructions; \
                     partial state is in the checkpoint, if one was configured"
                )
            }
            OptiwiseError::Killed { retired } => {
                write!(f, "injected crash killed the run after {retired} instructions")
            }
            OptiwiseError::SelfCheck { join_bugs, seeds } => {
                write!(
                    f,
                    "self-check found {join_bugs} join-bug discrepancies (seeds: {})",
                    seeds
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            OptiwiseError::ArchiveRepaired {
                adopted,
                quarantined,
                lost,
            } => write!(
                f,
                "archive was damaged and has been repaired \
                 ({adopted} orphan(s) adopted, {quarantined} run(s) quarantined, \
                 {lost} manifest entr(ies) dropped); the archive is servable"
            ),
            OptiwiseError::ArchiveUnrepairable { reason } => {
                write!(f, "archive is unrepairable: {reason}")
            }
            OptiwiseError::FuzzViolation { violations, cases } => {
                write!(
                    f,
                    "fuzzing found {violations} invariant violation(s) ({})",
                    cases.join(", ")
                )
            }
            OptiwiseError::ModelStuck { cycle, message } => {
                write!(f, "timing model stuck at cycle {cycle}: {message}")
            }
            OptiwiseError::Daemon { message, exit } => {
                write!(f, "daemon job failed (exit {exit}): {message}")
            }
            OptiwiseError::Usage(msg) => write!(f, "{msg}"),
            OptiwiseError::Io(msg) => write!(f, "i/o error: {msg}"),
            OptiwiseError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl Error for OptiwiseError {}

impl From<StoreError> for OptiwiseError {
    fn from(e: StoreError) -> OptiwiseError {
        OptiwiseError::Store(e)
    }
}

impl From<SimError> for OptiwiseError {
    fn from(e: SimError) -> OptiwiseError {
        match e {
            SimError::Load(msg) => OptiwiseError::Load(msg),
            SimError::Exec { pc, message } => OptiwiseError::Exec { pc, message },
            SimError::InsnLimit(n) => OptiwiseError::InsnLimit(n),
            SimError::Killed(n) => OptiwiseError::Killed { retired: n },
            SimError::ModelStuck { cycle, message } => OptiwiseError::ModelStuck { cycle, message },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let errors = [
            (OptiwiseError::Load("x".into()), 2),
            (
                OptiwiseError::Disasm {
                    module: "m".into(),
                    message: "y".into(),
                },
                2,
            ),
            (
                OptiwiseError::Exec {
                    pc: 0,
                    message: "z".into(),
                },
                3,
            ),
            (OptiwiseError::InsnLimit(5), 4),
            (
                OptiwiseError::Truncated {
                    pass: Pass::Instrumentation,
                    reason: TruncationReason::InsnLimit(5),
                },
                4,
            ),
            (
                OptiwiseError::Divergence {
                    score: 0.5,
                    threshold: 0.02,
                    summary: "s".into(),
                },
                5,
            ),
            (
                OptiwiseError::Store(StoreError::in_section(64, "SAMP", "crc mismatch")),
                6,
            ),
            (
                OptiwiseError::Regression {
                    count: 3,
                    threshold_pct: 5.0,
                },
                7,
            ),
            (
                OptiwiseError::DeadlineExceeded {
                    retired: 4096,
                    deadline: true,
                },
                8,
            ),
            (
                OptiwiseError::DeadlineExceeded {
                    retired: 4096,
                    deadline: false,
                },
                8,
            ),
            (OptiwiseError::Killed { retired: 9000 }, 9),
            (
                OptiwiseError::SelfCheck {
                    join_bugs: 2,
                    seeds: vec![3, 11],
                },
                10,
            ),
            (
                OptiwiseError::ArchiveRepaired {
                    adopted: 1,
                    quarantined: 2,
                    lost: 0,
                },
                11,
            ),
            (
                OptiwiseError::ArchiveUnrepairable {
                    reason: "manifest unwritable".into(),
                },
                12,
            ),
            (
                OptiwiseError::FuzzViolation {
                    violations: 2,
                    cases: vec!["profile:17".into(), "jsonl:40".into()],
                },
                13,
            ),
            (
                OptiwiseError::ModelStuck {
                    cycle: 5_000_000,
                    message: "no progress".into(),
                },
                14,
            ),
            (
                OptiwiseError::Daemon {
                    message: "run divergence".into(),
                    exit: 5,
                },
                5,
            ),
            (OptiwiseError::Usage("u".into()), 1),
            (OptiwiseError::Io("io".into()), 1),
            (OptiwiseError::Internal("worker died".into()), 1),
        ];
        for (e, code) in errors {
            assert_eq!(e.exit_code(), code, "{e}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn store_errors_carry_offset_and_section() {
        let e = StoreError::at(12, "bad magic");
        assert!(e.to_string().contains("byte 12"), "{e}");
        let e = StoreError::in_section(64, "CNTS", "crc mismatch");
        let text = OptiwiseError::from(e).to_string();
        assert!(text.contains("CNTS"), "{text}");
        assert!(text.contains("byte 64"), "{text}");
    }

    #[test]
    fn sim_errors_convert() {
        assert_eq!(
            OptiwiseError::from(SimError::Load("bad".into())),
            OptiwiseError::Load("bad".into())
        );
        assert_eq!(OptiwiseError::from(SimError::InsnLimit(9)).exit_code(), 4);
        let stuck = SimError::ModelStuck {
            cycle: 7,
            message: "m".into(),
        };
        assert_eq!(OptiwiseError::from(stuck).exit_code(), 14);
    }
}
