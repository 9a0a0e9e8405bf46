//! The instrumentation profile: DynamoRIO-style blocks with execution
//! counts, edge counters, and the stack-profiling callee table.

use wiser_isa::CtiKind;
use wiser_sim::{CodeLoc, FastMap, FastSet, TruncationReason};

/// Terminator classification of a DynamoRIO block, determining which edge
/// instrumentation §IV-C inserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermKind {
    /// Direct unconditional jump.
    DirectJump,
    /// Direct conditional branch (fall-through counter inserted).
    CondBranch,
    /// Indirect jump/call/return (hash-table counters via clean calls).
    Indirect,
    /// Direct call.
    DirectCall,
    /// System call (edge to the next sequential block).
    Syscall,
    /// Block ran off the end of known text (defensive; should not occur).
    Fallthrough,
}

impl TermKind {
    /// Maps an ISA CTI kind to the instrumentation category.
    pub fn of_cti(kind: CtiKind) -> TermKind {
        match kind {
            CtiKind::DirectJump => TermKind::DirectJump,
            CtiKind::CondBranch => TermKind::CondBranch,
            CtiKind::IndirectJump | CtiKind::IndirectCall | CtiKind::Return => TermKind::Indirect,
            CtiKind::DirectCall => TermKind::DirectCall,
            CtiKind::Syscall => TermKind::Syscall,
        }
    }
}

/// One discovered DynamoRIO block with its counters.
///
/// Blocks may overlap (a branch into the middle of an existing block makes a
/// new block); per-instruction execution counts are recovered by summing all
/// covering blocks (§IV-C).
#[derive(Clone, Debug, PartialEq)]
pub struct BlockCount {
    /// Entry location.
    pub entry: CodeLoc,
    /// Number of instructions in the block (terminator included).
    pub len: u32,
    /// Times the block was executed.
    pub count: u64,
    /// Terminator category.
    pub term: TermKind,
    /// Statically-known target of the terminator (direct jump/call/branch).
    pub direct_target: Option<CodeLoc>,
    /// Fall-through executions (conditional branches only; the taken count
    /// is derived as `count - fallthrough`, as in the paper).
    pub fallthrough: u64,
    /// Indirect-branch targets and counts (the C++ map updated via clean
    /// calls).
    pub targets: Vec<(CodeLoc, u64)>,
}

impl BlockCount {
    /// Taken-edge executions for conditional blocks.
    pub fn taken(&self) -> u64 {
        self.count.saturating_sub(self.fallthrough)
    }

    /// Location one past the terminator (the fall-through successor).
    pub fn fallthrough_loc(&self) -> CodeLoc {
        CodeLoc {
            module: self.entry.module,
            offset: self.entry.offset + self.len as u64 * wiser_isa::INSN_BYTES,
        }
    }
}

/// Totals used for the figure-7 overhead estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrumentationCost {
    /// Instructions the native program executed.
    pub native_insns: u64,
    /// Instructions the instrumented program executed (native plus inserted
    /// meta-instructions, clean calls and translation work).
    pub instrumented_insns: u64,
    /// Unique blocks translated.
    pub unique_blocks: u64,
    /// Block executions.
    pub block_execs: u64,
    /// Indirect-branch executions (each a clean call).
    pub indirect_execs: u64,
    /// Dynamic counter charges the run actually paid (vertex, fall-through,
    /// direct-edge and indirect hash-counter updates).
    pub counters_placed: u64,
    /// Dynamic counter charges avoided by placement optimization or
    /// selective instrumentation.
    pub counters_suppressed: u64,
}

impl InstrumentationCost {
    /// Estimated slowdown of the instrumented run (figure 7's
    /// "instrumentation" series), as an executed-instruction ratio.
    ///
    /// A translation-only run (aborted before any block completed) has
    /// `native_insns == 0` but a nonzero instrumented total; its overhead
    /// is unbounded, not 1.0.
    pub fn overhead(&self) -> f64 {
        if self.native_insns == 0 {
            if self.instrumented_insns == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.instrumented_insns as f64 / self.native_insns as f64
        }
    }
}

/// Counters removed from the profile by the placement optimizer, as indices
/// into [`CountsProfile::blocks`].
///
/// A *placed* profile (`recovered == false`) stores zero for every
/// suppressed counter; the exact values are reconstructed at analysis time
/// by flow conservation over the remaining counters. A *recovered* profile
/// has the reconstructed values written back and is indistinguishable from
/// exhaustive counting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterPlacement {
    /// Blocks whose vertex counter was suppressed (`count` erased to 0).
    pub vertex_suppressed: Vec<u32>,
    /// Conditional blocks whose fall-through counter was suppressed
    /// (`fallthrough` erased to 0).
    pub fallthrough_suppressed: Vec<u32>,
    /// Exact dynamic instruction total (Σ block count × len) of the profile
    /// before erasure. Adds one global conservation equation to the flow
    /// system, which is what makes a hot self-loop's vertex counter — the
    /// single biggest charge in tight kernels — recoverable.
    pub total_insns: u64,
    /// Whether the suppressed values have been recovered in this copy.
    pub recovered: bool,
}

/// The complete output of the instrumentation run (component 2 of figure 3).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CountsProfile {
    /// Module names, indexed by [`ModuleId`](wiser_sim::ModuleId).
    pub module_names: Vec<String>,
    /// All discovered blocks with counters, in discovery order.
    pub blocks: Vec<BlockCount>,
    /// Stack profiling output: per call site, total instructions executed in
    /// the callee and everything below it (algorithm 1's
    /// `callee_count_table`).
    pub callee_counts: FastMap<CodeLoc, u64>,
    /// Whether stack profiling was enabled.
    pub stack_profiling: bool,
    /// Cost accounting for the overhead estimate.
    pub cost: InstrumentationCost,
    /// Counter-placement optimization applied to this profile, if any.
    /// `None` means exhaustive counting.
    pub placement: Option<CounterPlacement>,
    /// Why the run stopped early, if it did not run to completion. A
    /// truncated counts profile undercounts every block executed after the
    /// cut; downstream analysis must not treat its totals as exact.
    pub truncated: Option<TruncationReason>,
}

impl CountsProfile {
    /// Per-instruction execution counts: each block contributes its count to
    /// every instruction it covers; overlapping blocks sum.
    pub fn insn_counts(&self) -> FastMap<CodeLoc, u64> {
        let mut map: FastMap<CodeLoc, u64> = FastMap::default();
        for b in &self.blocks {
            let n = b.count;
            for i in 0..b.len as u64 {
                let loc = CodeLoc {
                    module: b.entry.module,
                    offset: b.entry.offset + i * wiser_isa::INSN_BYTES,
                };
                *map.entry(loc).or_insert(0) += n;
            }
        }
        map
    }

    /// Total dynamic instructions (sum of block count × len).
    pub fn total_insns(&self) -> u64 {
        self.blocks.iter().map(|b| b.count * b.len as u64).sum()
    }

    /// Callee table in a deterministic order (sorted by call site). Every
    /// serializer must use this instead of iterating the `HashMap` directly
    /// so that identical profiles encode to identical bytes.
    pub fn sorted_callee_counts(&self) -> Vec<(CodeLoc, u64)> {
        let mut v: Vec<_> = self.callee_counts.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort();
        v
    }

    /// Structural consistency check for profiles decoded from untrusted
    /// bytes: every block entry, branch target and callee site must
    /// reference a declared module, block extents must not overflow, and
    /// fall-through counts cannot exceed block counts.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.module_names.len();
        let check = |loc: CodeLoc, what: std::fmt::Arguments<'_>| -> Result<(), String> {
            if (loc.module.0 as usize) >= n {
                Err(format!(
                    "{what} references undeclared module {}",
                    loc.module.0
                ))
            } else {
                Ok(())
            }
        };
        // A placed (not yet recovered) profile stores 0 for suppressed
        // vertex counters, so a kept fall-through counter may legitimately
        // exceed the erased block count.
        let vertex_erased: FastSet<u32> = match &self.placement {
            Some(pl) if !pl.recovered => pl.vertex_suppressed.iter().copied().collect(),
            _ => FastSet::default(),
        };
        if let Some(pl) = &self.placement {
            for &i in pl
                .vertex_suppressed
                .iter()
                .chain(&pl.fallthrough_suppressed)
            {
                if i as usize >= self.blocks.len() {
                    return Err(format!(
                        "placement references block {i} but the profile has {}",
                        self.blocks.len()
                    ));
                }
            }
        }
        for (i, b) in self.blocks.iter().enumerate() {
            check(b.entry, format_args!("block {i}"))?;
            if b.entry
                .offset
                .checked_add((b.len as u64).saturating_mul(wiser_isa::INSN_BYTES))
                .is_none()
            {
                return Err(format!(
                    "block {i} extent overflows: offset {:#x} len {}",
                    b.entry.offset, b.len
                ));
            }
            if b.fallthrough > b.count && !vertex_erased.contains(&(i as u32)) {
                return Err(format!(
                    "block {i} fallthrough {} exceeds count {}",
                    b.fallthrough, b.count
                ));
            }
            if let Some(t) = b.direct_target {
                check(t, format_args!("block {i} target"))?;
            }
            for (t, _) in &b.targets {
                check(*t, format_args!("block {i} indirect target"))?;
            }
        }
        for site in self.callee_counts.keys() {
            check(*site, format_args!("callee site"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_sim::ModuleId;

    fn loc(m: u32, o: u64) -> CodeLoc {
        CodeLoc {
            module: ModuleId(m),
            offset: o,
        }
    }

    fn sample() -> CountsProfile {
        let mut callee_counts = FastMap::default();
        callee_counts.insert(loc(0, 0x20), 1234);
        CountsProfile {
            module_names: vec!["main".into()],
            blocks: vec![
                BlockCount {
                    entry: loc(0, 0),
                    len: 4,
                    count: 100,
                    term: TermKind::CondBranch,
                    direct_target: Some(loc(0, 0x40)),
                    fallthrough: 25,
                    targets: vec![],
                },
                BlockCount {
                    entry: loc(0, 0x40),
                    len: 2,
                    count: 75,
                    term: TermKind::Indirect,
                    direct_target: None,
                    fallthrough: 0,
                    targets: vec![(loc(0, 0), 50), (loc(0, 0x80), 25)],
                },
            ],
            callee_counts,
            stack_profiling: true,
            cost: InstrumentationCost {
                native_insns: 550,
                instrumented_insns: 4000,
                unique_blocks: 2,
                block_execs: 175,
                indirect_execs: 75,
                counters_placed: 250,
                counters_suppressed: 0,
            },
            placement: None,
            truncated: None,
        }
    }

    #[test]
    fn insn_counts_sum_overlaps() {
        let mut p = sample();
        // Add an overlapping block covering offset 0x8 onward.
        p.blocks.push(BlockCount {
            entry: loc(0, 8),
            len: 3,
            count: 7,
            term: TermKind::CondBranch,
            direct_target: None,
            fallthrough: 0,
            targets: vec![],
        });
        let counts = p.insn_counts();
        assert_eq!(counts[&loc(0, 0)], 100);
        assert_eq!(counts[&loc(0, 8)], 107);
        assert_eq!(counts[&loc(0, 16)], 107);
    }

    #[test]
    fn taken_is_derived() {
        let p = sample();
        assert_eq!(p.blocks[0].taken(), 75);
        assert_eq!(p.blocks[0].fallthrough_loc(), loc(0, 32));
    }

    #[test]
    fn overhead_ratio() {
        let p = sample();
        assert!((p.cost.overhead() - 4000.0 / 550.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_of_translation_only_run_is_unbounded() {
        // A run aborted before any block completed paid translation costs
        // but retired nothing native; reporting 1.0 hid the overhead.
        let cost = InstrumentationCost {
            instrumented_insns: 3000,
            ..InstrumentationCost::default()
        };
        assert_eq!(cost.overhead(), f64::INFINITY);
        // Nothing translated, nothing run: genuinely 1.0.
        assert_eq!(InstrumentationCost::default().overhead(), 1.0);
    }

    #[test]
    fn placement_relaxes_fallthrough_check() {
        let mut p = sample();
        // Suppress block 0's vertex counter: count erased, fall-through 25
        // kept — which now exceeds the stored count.
        p.blocks[0].count = 0;
        p.placement = Some(CounterPlacement {
            vertex_suppressed: vec![0],
            fallthrough_suppressed: vec![],
            total_insns: 4321,
            recovered: false,
        });
        p.cost.counters_placed = 150;
        p.cost.counters_suppressed = 100;
        p.validate().unwrap();

        // The relaxation is precise: a recovered profile is held to the
        // exhaustive invariant again.
        let mut recovered = p.clone();
        recovered.placement.as_mut().unwrap().recovered = true;
        assert!(recovered.validate().unwrap_err().contains("fallthrough"));

        // Placement indices must reference existing blocks.
        let mut bad = sample();
        bad.placement = Some(CounterPlacement {
            vertex_suppressed: vec![9],
            fallthrough_suppressed: vec![],
            total_insns: 0,
            recovered: false,
        });
        assert!(bad.validate().unwrap_err().contains("placement"));
    }

    #[test]
    fn validate_checks_consistency() {
        let p = sample();
        p.validate().unwrap();
        assert_eq!(p.sorted_callee_counts(), vec![(loc(0, 0x20), 1234)]);

        let mut bad = sample();
        bad.blocks[0].entry.module = ModuleId(4);
        assert!(bad.validate().unwrap_err().contains("undeclared module 4"));

        let mut bad = sample();
        bad.blocks[0].fallthrough = bad.blocks[0].count + 1;
        assert!(bad.validate().unwrap_err().contains("fallthrough"));

        let mut bad = sample();
        bad.blocks[1].targets[0].0.module = ModuleId(9);
        assert!(bad.validate().unwrap_err().contains("indirect target"));

        let mut bad = sample();
        bad.callee_counts.insert(loc(7, 0), 1);
        assert!(bad.validate().unwrap_err().contains("callee site"));
    }

    #[test]
    fn overflowing_block_extent_rejected() {
        let mut bad = sample();
        bad.blocks[0].entry.offset = u64::MAX - 8;
        assert!(bad.validate().unwrap_err().contains("overflows"));
    }
}
