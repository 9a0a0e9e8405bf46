//! Deterministic fault injection and truncation markers.
//!
//! A profiler that serves real workloads must degrade gracefully: runs die
//! mid-way (instruction budgets, execution faults), profile files get cut
//! short or corrupted, and the two OptiWISE passes can silently observe
//! different control flow. [`FaultPlan`] makes every one of those
//! degradations *injectable* — seed-driven and fully deterministic — so the
//! recovery paths are exercised by tests rather than trusted.
//! [`TruncationReason`] is the marker partial profiles carry instead of
//! throwing the collected data away.

use std::fmt;

/// Why a profiling pass stopped before the program exited.
///
/// Carried by partial profiles (`SampleProfile::truncated`,
/// `CountsProfile::truncated`) so downstream analysis can label degraded
/// results instead of silently mis-reporting them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TruncationReason {
    /// The configured instruction budget ran out.
    InsnLimit(u64),
    /// Execution faulted (undecodable instruction, bad jump target, ...).
    ExecFault {
        /// Program counter at the fault.
        pc: u64,
        /// Description of the fault.
        message: String,
    },
    /// A [`FaultPlan`] deliberately aborted the pass after this many
    /// instructions.
    Injected(u64),
    /// A cooperative cancellation (wall-clock deadline or Ctrl-C) stopped
    /// the pass at a safe instruction boundary after this many
    /// instructions. Also marks the in-flight snapshots a periodic
    /// checkpoint takes of a still-running pass.
    Cancelled(u64),
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruncationReason::InsnLimit(n) => {
                write!(f, "instruction budget of {n} exhausted")
            }
            TruncationReason::ExecFault { pc, message } => {
                write!(f, "execution fault at {pc:#x}: {message}")
            }
            TruncationReason::Injected(n) => {
                write!(f, "injected abort after {n} instructions")
            }
            TruncationReason::Cancelled(n) => {
                write!(f, "cancelled at a safe boundary after {n} instructions")
            }
        }
    }
}

impl TruncationReason {
    /// Whether re-running with a larger instruction budget could complete
    /// the pass. Injected aborts and execution faults are deterministic —
    /// they recur at any budget — and a cancellation is a request to stop,
    /// which a retry would defy.
    pub fn retryable(&self) -> bool {
        matches!(self, TruncationReason::InsnLimit(_))
    }

    /// The label of a pass stopped at `limit`, the lower of its budget and
    /// the fault plan's `injected` abort point. The injection wins a tie:
    /// `Injected` is deterministic and non-retryable, while `InsnLimit`
    /// would make the retry loop escalate the budget and replay a cut that
    /// recurs at any budget.
    pub fn at_limit(limit: u64, injected: Option<u64>) -> TruncationReason {
        match injected {
            Some(inj) if inj == limit => TruncationReason::Injected(inj),
            _ => TruncationReason::InsnLimit(limit),
        }
    }
}

/// A deterministic, seed-driven fault-injection plan.
///
/// The default plan injects nothing. Wire a non-default plan through
/// `SamplerConfig::fault`, `DbiConfig::fault` or `OptiwiseConfig::fault` to
/// exercise a degradation path; every decision derives from `seed` alone, so
/// injected failures reproduce exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every stochastic decision in the plan.
    pub seed: u64,
    /// Drop this percentage (0–100) of recorded samples, chosen
    /// pseudo-randomly by `seed`.
    pub drop_sample_pct: u8,
    /// Abort the sampling pass after this many retired instructions.
    pub abort_sample_at: Option<u64>,
    /// Abort the instrumentation pass after this many retired instructions,
    /// truncating the counts profile there.
    pub truncate_counts_at: Option<u64>,
    /// `corrupt`: flip one bit of each binary `.owp` image written for
    /// persistence, past its header ([`FaultPlan::corrupt_bytes`]),
    /// exercising the decoder's rejection paths.
    pub corrupt: bool,
    /// Run the instrumentation pass with this `rand` seed instead of the
    /// configured one, desynchronizing the two passes' control flow — the
    /// exact divergence §IV-F assumes never happens.
    pub desync_rand_seed: Option<u64>,
    /// Crash-style kill: terminate a pass after this many retired
    /// instructions *without* graceful truncation or cleanup, as if the
    /// process died. Unlike `abort_sample_at`/`truncate_counts_at`, no
    /// partial profile survives the pass — only checkpoints persisted
    /// before the kill. Applies to both passes.
    pub kill_after_insns: Option<u64>,
    /// Crash *during* the Nth checkpoint write (1-based): the checkpoint
    /// writer leaves a torn temp file, skips the atomic rename, and kills
    /// the run — exercising the crash-consistency protocol's guarantee
    /// that the previous checkpoint stays intact.
    pub kill_in_checkpoint_write: Option<u64>,
    /// Crash at the Nth archive write boundary (1-based): the multi-run
    /// archive writer dies mid-protocol — torn temp file at a write
    /// boundary, stopped cold at a rename/delete boundary — exercising the
    /// manifest commit protocol's guarantee that every already-committed
    /// run survives and `optiwise fsck` restores a servable archive.
    /// Boundaries are counted across run-file writes, manifest rewrites,
    /// quarantine renames and compaction deletes, in protocol order.
    pub kill_in_archive_write: Option<u64>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_noop(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Deterministically decides whether to drop the `index`-th sample.
    pub fn should_drop_sample(&self, index: u64) -> bool {
        if self.drop_sample_pct == 0 {
            return false;
        }
        let pct = self.drop_sample_pct.min(100) as u64;
        splitmix64(self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 100 < pct
    }

    /// Deterministically flips one bit of `data` past the first 16 bytes
    /// (when `corrupt` is set; otherwise returns the data unchanged).
    /// The header is spared so the damage lands in a section body or frame and
    /// must be caught by checksums, not by magic-number comparison. Inputs
    /// of 16 bytes or fewer are returned unchanged.
    pub fn corrupt_bytes(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        if !self.corrupt || data.len() <= 16 {
            return out;
        }
        let span = data.len() - 16;
        let r = splitmix64(self.seed);
        let pos = 16 + (r as usize % span);
        let bit = (r >> 32) % 8;
        out[pos] ^= 1 << bit;
        out
    }

    /// Parses a CLI fault spec: comma-separated `key=value` entries
    /// (`seed=N`, `drop-samples=PCT`, `abort-sample=N`, `truncate-counts=N`,
    /// `desync-seed=N`, `kill-after=N`, `kill-in-write=N`,
    /// `kill-in-archive=N`) plus the bare flag `corrupt`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').filter(|e| !e.is_empty()) {
            match entry.split_once('=') {
                None if entry == "corrupt" => plan.corrupt = true,
                None => return Err(format!("unknown fault `{entry}`")),
                Some((key, value)) => {
                    let num = || {
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("bad value for `{key}`: {e}"))
                    };
                    match key {
                        "seed" => plan.seed = num()?,
                        "drop-samples" => {
                            let pct = num()?;
                            if pct > 100 {
                                return Err(format!("drop-samples {pct} > 100"));
                            }
                            plan.drop_sample_pct = pct as u8;
                        }
                        "abort-sample" => plan.abort_sample_at = Some(num()?),
                        "truncate-counts" => plan.truncate_counts_at = Some(num()?),
                        "desync-seed" => plan.desync_rand_seed = Some(num()?),
                        "kill-after" => plan.kill_after_insns = Some(num()?),
                        "kill-in-write" => {
                            let n = num()?;
                            if n == 0 {
                                return Err("kill-in-write is 1-based".to_string());
                            }
                            plan.kill_in_checkpoint_write = Some(n);
                        }
                        "kill-in-archive" => {
                            let n = num()?;
                            if n == 0 {
                                return Err("kill-in-archive is 1-based".to_string());
                            }
                            plan.kill_in_archive_write = Some(n);
                        }
                        other => return Err(format!("unknown fault key `{other}`")),
                    }
                }
            }
        }
        Ok(plan)
    }
}

/// splitmix64 mix function: a high-quality 64-bit hash for seed-derived
/// decisions.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(!plan.should_drop_sample(0));
    }

    #[test]
    fn drop_rate_is_roughly_honored_and_deterministic() {
        let plan = FaultPlan {
            seed: 7,
            drop_sample_pct: 30,
            ..FaultPlan::default()
        };
        let dropped = (0..10_000).filter(|&i| plan.should_drop_sample(i)).count();
        assert!((2500..3500).contains(&dropped), "{dropped}");
        // Deterministic per (seed, index).
        for i in 0..100 {
            assert_eq!(plan.should_drop_sample(i), plan.should_drop_sample(i));
        }
    }

    #[test]
    fn corrupt_bytes_flips_one_bit_past_byte_16() {
        let data: Vec<u8> = (0..200u8).collect();
        let noop = FaultPlan::default();
        assert_eq!(noop.corrupt_bytes(&data), data);

        for seed in 0..32 {
            let plan = FaultPlan {
                seed,
                corrupt: true,
                ..FaultPlan::default()
            };
            let bad = plan.corrupt_bytes(&data);
            let diffs: Vec<usize> = data
                .iter()
                .zip(&bad)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(diffs.len(), 1, "seed {seed}");
            assert!(diffs[0] >= 16, "seed {seed}: header touched");
            // One-bit damage, and deterministic per seed.
            assert_eq!((data[diffs[0]] ^ bad[diffs[0]]).count_ones(), 1);
            assert_eq!(plan.corrupt_bytes(&data), bad);
        }

        // Too-short inputs are untouched rather than panicking.
        let tiny = vec![0u8; 16];
        let plan = FaultPlan {
            seed: 1,
            corrupt: true,
            ..FaultPlan::default()
        };
        assert_eq!(plan.corrupt_bytes(&tiny), tiny);
    }

    #[test]
    fn spec_parsing() {
        let plan = FaultPlan::parse("seed=9,drop-samples=25,abort-sample=1000,corrupt").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.drop_sample_pct, 25);
        assert_eq!(plan.abort_sample_at, Some(1000));
        assert!(plan.corrupt);
        assert_eq!(plan.truncate_counts_at, None);

        let plan = FaultPlan::parse("truncate-counts=5000,desync-seed=4").unwrap();
        assert_eq!(plan.truncate_counts_at, Some(5000));
        assert_eq!(plan.desync_rand_seed, Some(4));

        let plan = FaultPlan::parse("kill-after=7000,kill-in-write=2").unwrap();
        assert_eq!(plan.kill_after_insns, Some(7000));
        assert_eq!(plan.kill_in_checkpoint_write, Some(2));
        assert!(FaultPlan::parse("kill-in-write=0").is_err());

        let plan = FaultPlan::parse("kill-in-archive=3").unwrap();
        assert_eq!(plan.kill_in_archive_write, Some(3));
        assert_eq!(plan.kill_in_checkpoint_write, None);
        assert!(FaultPlan::parse("kill-in-archive=0").is_err());

        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("drop-samples=150").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("").unwrap().is_noop());
    }

    #[test]
    fn retryability() {
        assert!(TruncationReason::InsnLimit(5).retryable());
        assert!(!TruncationReason::Injected(5).retryable());
        assert!(!TruncationReason::Cancelled(5).retryable());
        assert!(!TruncationReason::ExecFault {
            pc: 0,
            message: "x".into()
        }
        .retryable());
    }

    #[test]
    fn display_nonempty() {
        for r in [
            TruncationReason::InsnLimit(1),
            TruncationReason::Injected(2),
            TruncationReason::ExecFault {
                pc: 16,
                message: "bad".into(),
            },
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
