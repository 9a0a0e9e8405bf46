//! Oracle mode: exact per-instruction attribution for a whole run.
//!
//! The sampling profiler estimates where cycles go from a few thousand
//! periodic observations; the DBI pass counts executions but knows nothing
//! about time. The oracle does both *exactly*: it observes the pipeline on
//! every cycle (period 1, no skid, no service cost) and counts every retired
//! instruction from the functional feed, keyed by the same module-relative
//! [`CodeLoc`]s the rest of the pipeline joins on. The result is the ground
//! truth the self-check harness compares the fused analysis against.
//!
//! Attribution rule, per cycle: the cycle belongs to the instruction at the
//! head of the ROB (the oldest in-flight instruction — what a zero-skid
//! precise-event sampler would report). When the ROB is empty the cycle goes
//! to the next instruction waiting to enter it; cycles with neither (e.g.
//! the pipeline tail after the last commit) are tallied separately as
//! `unattributed_cycles`, so the per-instruction cycles plus the
//! unattributed remainder always account for the full run.

use std::collections::BTreeMap;

use crate::error::SimError;
use crate::fault::TruncationReason;
use crate::interp::{Interp, Step};
use crate::loader::{CodeLoc, ModuleId, ProcessImage};
use crate::timed::TimedRun;
use crate::uarch::config::CoreConfig;
use crate::uarch::core::{OoOCore, ProbePoint, Prober};

/// Exact whole-run attribution: true retired counts and cycle ownership per
/// instruction, with no sampling error and no skid.
///
/// Both maps are keyed by module-relative [`CodeLoc`], the same join key the
/// sampling and instrumentation profiles use, so the oracle is comparable
/// across address-space layouts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OracleProfile {
    /// Module names, indexed by [`ModuleId`].
    pub module_names: Vec<String>,
    /// Exact retired-instruction count per instruction.
    pub retired: BTreeMap<CodeLoc, u64>,
    /// Exact cycles attributed to each instruction (ROB-head occupancy).
    pub cycles: BTreeMap<CodeLoc, u64>,
    /// Total instructions retired.
    pub total_retired: u64,
    /// Total cycles of the run.
    pub total_cycles: u64,
    /// Cycles with no in-flight instruction to charge (pipeline drain and
    /// fill bubbles).
    pub unattributed_cycles: u64,
    /// Set when the run stopped early instead of exiting cleanly.
    pub truncated: Option<TruncationReason>,
}

impl OracleProfile {
    /// Exact execution count of one instruction.
    pub fn retired_at(&self, loc: CodeLoc) -> u64 {
        self.retired.get(&loc).copied().unwrap_or(0)
    }

    /// Exact cycles attributed to one instruction.
    pub fn cycles_at(&self, loc: CodeLoc) -> u64 {
        self.cycles.get(&loc).copied().unwrap_or(0)
    }

    /// Cycles attributed to instructions (total minus the drain/fill
    /// remainder).
    pub fn attributed_cycles(&self) -> u64 {
        self.total_cycles - self.unattributed_cycles
    }
}

/// Per-cycle pipeline observer backing the oracle.
///
/// Fires on every cycle (`next_probe_cycle` is always 0) and charges the
/// cycle to the ROB head, falling back to the instruction pending dispatch
/// when the window is empty.
struct OracleProber {
    /// `(text_base, text_end, module)` for address resolution; copied out of
    /// the image so the prober borrows nothing during the run.
    ranges: Vec<(u64, u64, ModuleId)>,
    cycles: BTreeMap<CodeLoc, u64>,
    unattributed: u64,
    observed_cycles: u64,
}

impl OracleProber {
    fn new(image: &ProcessImage) -> OracleProber {
        OracleProber {
            ranges: image
                .modules
                .iter()
                .map(|m| (m.base, m.base + m.text_size, m.id))
                .collect(),
            cycles: BTreeMap::new(),
            unattributed: 0,
            observed_cycles: 0,
        }
    }

    fn resolve(&self, addr: u64) -> Option<CodeLoc> {
        self.ranges
            .iter()
            .find(|&&(base, end, _)| addr >= base && addr < end)
            .map(|&(base, _, module)| CodeLoc {
                module,
                offset: addr - base,
            })
    }
}

impl Prober for OracleProber {
    fn next_probe_cycle(&self) -> u64 {
        0 // observe every cycle
    }

    fn probe(&mut self, point: ProbePoint<'_>) {
        self.observed_cycles += 1;
        let owner = point.rob_head.map(|(_, addr)| addr).or(point.pending_addr);
        match owner.and_then(|addr| self.resolve(addr)) {
            Some(loc) => *self.cycles.entry(loc).or_insert(0) += 1,
            None => self.unattributed += 1,
        }
    }
}

/// Runs a process with exact oracle attribution.
///
/// Mirrors the sampling run (`sample_run`) but observes every cycle and
/// counts every retired instruction, producing ground truth instead of an
/// estimate. A run that stops early (fault, instruction limit) still yields
/// its exact partial attribution, labelled via
/// [`OracleProfile::truncated`].
///
/// # Errors
///
/// Returns [`SimError`] only for loader-class failures and a stuck timing
/// model ([`SimError::ModelStuck`]); execution faults and budget exhaustion
/// surface as [`OracleProfile::truncated`].
pub fn run_oracle(
    image: &ProcessImage,
    rand_seed: u64,
    config: CoreConfig,
    max_insns: u64,
) -> Result<(OracleProfile, TimedRun), SimError> {
    let mut interp = Interp::new(image, rand_seed)?;
    let mut core = OoOCore::new(config);
    let mut prober = OracleProber::new(image);
    let ranges = prober.ranges.clone();
    let resolve = |addr: u64| -> Option<CodeLoc> {
        ranges
            .iter()
            .find(|&&(base, end, _)| addr >= base && addr < end)
            .map(|&(base, _, module)| CodeLoc {
                module,
                offset: addr - base,
            })
    };

    let mut retired: BTreeMap<CodeLoc, u64> = BTreeMap::new();
    let mut total_retired = 0u64;
    let mut error: Option<SimError> = None;
    let mut limit_hit = false;
    let stats = core.run(
        || {
            if interp.retired() >= max_insns {
                limit_hit = true;
                return None;
            }
            match interp.step() {
                Ok(Step::Retired(rec)) => {
                    if let Some(loc) = resolve(rec.addr) {
                        *retired.entry(loc).or_insert(0) += 1;
                    }
                    total_retired += 1;
                    Some(rec)
                }
                Ok(Step::Exited(_)) => None,
                Err(e) => {
                    error = Some(e);
                    None
                }
            }
        },
        &mut prober,
    )?;

    let truncated = match error {
        Some(SimError::Exec { pc, message }) => Some(TruncationReason::ExecFault { pc, message }),
        Some(SimError::InsnLimit(n)) => Some(TruncationReason::InsnLimit(n)),
        Some(e) => return Err(e),
        None if limit_hit && interp.exit_code().is_none() => {
            Some(TruncationReason::InsnLimit(max_insns))
        }
        None => None,
    };
    // Any cycle the core never presented to the prober is a drain bubble
    // too: derive the remainder from the total so the books always balance.
    let attributed: u64 = prober.cycles.values().sum();
    let profile = OracleProfile {
        module_names: image
            .modules
            .iter()
            .map(|m| m.linked.name.clone())
            .collect(),
        retired,
        cycles: prober.cycles,
        total_retired,
        total_cycles: stats.cycles,
        unattributed_cycles: stats.cycles.saturating_sub(attributed),
        truncated,
    };
    Ok((
        profile,
        TimedRun {
            stats,
            exit_code: interp.exit_code(),
            output: interp.output_string(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_isa::assemble;

    fn counted_loop(iters: u64) -> wiser_isa::Module {
        assemble(
            "oracle_t",
            &format!(
                r#"
                .func _start global
                    li x8, {iters}
                    li x9, 0
                loop:
                    addi x1, x1, 1
                    subi x8, x8, 1
                    bne x8, x9, loop
                    li x1, 0
                    li x0, 0
                    syscall
                .endfunc
                .entry _start
                "#
            ),
        )
        .unwrap()
    }

    #[test]
    fn oracle_counts_match_functional_execution() {
        let image = ProcessImage::load_single(&counted_loop(500)).unwrap();
        let (profile, run) = run_oracle(&image, 0, CoreConfig::xeon_like(), 1_000_000).unwrap();
        assert_eq!(run.exit_code, Some(0));
        assert_eq!(profile.truncated, None);
        // 2 setup + 3*500 loop + 3 exit.
        assert_eq!(profile.total_retired, 2 + 3 * 500 + 3);
        assert_eq!(profile.total_retired, run.stats.retired);
        assert_eq!(profile.retired.values().sum::<u64>(), profile.total_retired);
        // The three loop-body instructions each retired exactly 500 times.
        let loop_counts: Vec<u64> = profile
            .retired
            .iter()
            .filter(|(_, &c)| c == 500)
            .map(|(_, &c)| c)
            .collect();
        assert_eq!(loop_counts.len(), 3, "{:?}", profile.retired);
    }

    #[test]
    fn oracle_cycles_are_exhaustive() {
        let image = ProcessImage::load_single(&counted_loop(200)).unwrap();
        let (profile, run) = run_oracle(&image, 0, CoreConfig::xeon_like(), 1_000_000).unwrap();
        let attributed: u64 = profile.cycles.values().sum();
        assert_eq!(attributed + profile.unattributed_cycles, run.stats.cycles);
        assert_eq!(profile.total_cycles, run.stats.cycles);
        // Almost all cycles of a hot loop belong to its instructions.
        assert!(attributed * 10 >= run.stats.cycles * 9);
    }

    #[test]
    fn oracle_is_deterministic_and_layout_agnostic() {
        let module = counted_loop(300);
        let a = {
            let image = ProcessImage::load_single(&module).unwrap();
            run_oracle(&image, 7, CoreConfig::xeon_like(), 1_000_000)
                .unwrap()
                .0
        };
        let b = {
            let cfg = crate::loader::LoadConfig {
                aslr_seed: Some(0x5a5a),
                ..crate::loader::LoadConfig::default()
            };
            let image = ProcessImage::load(std::slice::from_ref(&module), &cfg).unwrap();
            run_oracle(&image, 7, CoreConfig::xeon_like(), 1_000_000)
                .unwrap()
                .0
        };
        // CodeLoc keys are module-relative, so ASLR must not change anything.
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_oracle_keeps_partial_attribution() {
        let m = assemble(
            "spin",
            ".func _start global\nspin: jmp spin\n.endfunc\n.entry _start",
        )
        .unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        let (profile, _) = run_oracle(&image, 0, CoreConfig::tiny(), 1_000).unwrap();
        assert!(matches!(
            profile.truncated,
            Some(TruncationReason::InsnLimit(1_000))
        ));
        assert!(profile.total_retired >= 1_000);
        assert!(!profile.retired.is_empty());
    }
}
