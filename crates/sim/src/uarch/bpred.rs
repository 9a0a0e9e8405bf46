//! Branch prediction: gshare direction predictor, branch target buffer for
//! indirect targets, and a return-address stack.
//!
//! The timing model is trace-driven (it only sees the correct path), so the
//! predictor's job is to decide whether each control transfer *would have
//! been* predicted correctly; mispredictions stall fetch for the resolve
//! latency plus a fixed penalty.

use wiser_isa::CtiKind;

use crate::trace::{BranchOutcome, ExecRecord};
use crate::uarch::config::BpredConfig;

/// Counts of executed and mispredicted transfers by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BpredStats {
    /// Conditional branches executed.
    pub cond_branches: u64,
    /// Conditional branches mispredicted.
    pub cond_mispredicts: u64,
    /// Indirect jumps/calls executed.
    pub indirect: u64,
    /// Indirect jumps/calls whose target missed in the BTB.
    pub indirect_mispredicts: u64,
    /// Returns executed.
    pub returns: u64,
    /// Returns mispredicted by the RAS.
    pub return_mispredicts: u64,
}

impl BpredStats {
    /// Overall misprediction ratio across all predicted kinds.
    pub fn mispredict_ratio(&self) -> f64 {
        let total = self.cond_branches + self.indirect + self.returns;
        if total == 0 {
            return 0.0;
        }
        let wrong = self.cond_mispredicts + self.indirect_mispredicts + self.return_mispredicts;
        wrong as f64 / total as f64
    }
}

/// The predictor state.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    pht: Vec<u8>,
    pht_mask: u64,
    ghr: u64,
    btb: Vec<(u64, u64)>,
    ras: Vec<u64>,
    ras_depth: usize,
    /// Statistics.
    pub stats: BpredStats,
}

impl BranchPredictor {
    /// Builds a predictor from configuration.
    pub fn new(cfg: &BpredConfig) -> BranchPredictor {
        let pht_size = 1usize << cfg.pht_bits;
        BranchPredictor {
            // Weakly taken: loops predict well from the start.
            pht: vec![2u8; pht_size],
            pht_mask: pht_size as u64 - 1,
            ghr: 0,
            btb: vec![(u64::MAX, 0); cfg.btb_entries],
            ras: Vec::with_capacity(cfg.ras_depth),
            ras_depth: cfg.ras_depth,
            stats: BpredStats::default(),
        }
    }

    /// Processes one fetched control transfer: updates predictor state and
    /// returns whether the prediction was correct. Non-CTI records return
    /// `true`.
    pub fn process(&mut self, rec: &ExecRecord) -> bool {
        let Some(BranchOutcome {
            kind,
            taken,
            target,
        }) = rec.branch
        else {
            return true;
        };
        match kind {
            CtiKind::CondBranch => {
                self.stats.cond_branches += 1;
                let idx = ((rec.addr >> 3) ^ self.ghr) & self.pht_mask;
                let counter = &mut self.pht[idx as usize];
                let predicted_taken = *counter >= 2;
                if taken {
                    *counter = (*counter + 1).min(3);
                } else {
                    *counter = counter.saturating_sub(1);
                }
                self.ghr = (self.ghr << 1) | taken as u64;
                let correct = predicted_taken == taken;
                if !correct {
                    self.stats.cond_mispredicts += 1;
                }
                correct
            }
            CtiKind::DirectJump => true,
            CtiKind::DirectCall => {
                self.push_ras(rec.fallthrough());
                true
            }
            CtiKind::IndirectJump | CtiKind::IndirectCall => {
                self.stats.indirect += 1;
                if kind == CtiKind::IndirectCall {
                    self.push_ras(rec.fallthrough());
                }
                let idx = ((rec.addr >> 3) % self.btb.len() as u64) as usize;
                let (tag, predicted) = self.btb[idx];
                let correct = tag == rec.addr && predicted == target;
                self.btb[idx] = (rec.addr, target);
                if !correct {
                    self.stats.indirect_mispredicts += 1;
                }
                correct
            }
            CtiKind::Return => {
                self.stats.returns += 1;
                let predicted = self.ras.pop();
                let correct = predicted == Some(target);
                if !correct {
                    self.stats.return_mispredicts += 1;
                }
                correct
            }
            // Syscalls serialize the pipeline regardless; treat as
            // "mispredicted" so the core stalls fetch.
            CtiKind::Syscall => false,
        }
    }

    fn push_ras(&mut self, ret_addr: u64) {
        if self.ras.len() == self.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(ret_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_isa::Insn;

    fn rec(addr: u64, kind: CtiKind, taken: bool, target: u64) -> ExecRecord {
        ExecRecord {
            seq: 0,
            addr,
            insn: Insn::Nop,
            next_addr: target,
            mem_addr: None,
            branch: Some(BranchOutcome {
                kind,
                taken,
                target,
            }),
            flow: None,
        }
    }

    fn pred() -> BranchPredictor {
        BranchPredictor::new(&BpredConfig {
            pht_bits: 10,
            btb_entries: 64,
            ras_depth: 8,
        })
    }

    #[test]
    fn loop_branch_learns() {
        let mut p = pred();
        // Repeatedly-taken branch: initial weakly-taken state predicts it.
        for _ in 0..100 {
            p.process(&rec(0x100, CtiKind::CondBranch, true, 0x80));
        }
        assert!(p.stats.cond_mispredicts <= 2);
    }

    #[test]
    fn alternating_branch_learns_via_history() {
        // A strict alternation is a trivially learnable history pattern;
        // gshare should lock onto it quickly.
        let mut p = pred();
        for i in 0..200u64 {
            p.process(&rec(0x100, CtiKind::CondBranch, i % 2 == 0, 0x80));
        }
        assert!(p.stats.cond_mispredicts < 40);
    }

    #[test]
    fn random_branch_hurts() {
        // Pseudo-random outcomes (high bits of an LCG) defeat the predictor.
        let mut p = pred();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut wrong_baseline = 0;
        for _ in 0..400u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (state >> 62) & 1 == 1;
            wrong_baseline += 1;
            p.process(&rec(0x100, CtiKind::CondBranch, taken, 0x80));
        }
        let _ = wrong_baseline;
        assert!(
            p.stats.cond_mispredicts > 100,
            "got {}",
            p.stats.cond_mispredicts
        );
    }

    #[test]
    fn returns_predicted_by_ras() {
        let mut p = pred();
        // call from 0x10 (fallthrough 0x18), return to 0x18.
        let mut call = rec(0x10, CtiKind::DirectCall, true, 0x100);
        call.insn = Insn::Call { target: 0x100 };
        p.process(&call);
        assert!(p.process(&rec(0x108, CtiKind::Return, true, 0x18)));
        assert_eq!(p.stats.return_mispredicts, 0);
    }

    #[test]
    fn ras_underflow_mispredicts() {
        let mut p = pred();
        assert!(!p.process(&rec(0x108, CtiKind::Return, true, 0x18)));
        assert_eq!(p.stats.return_mispredicts, 1);
    }

    #[test]
    fn stable_indirect_target_learns() {
        let mut p = pred();
        p.process(&rec(0x40, CtiKind::IndirectJump, true, 0x500));
        for _ in 0..10 {
            assert!(p.process(&rec(0x40, CtiKind::IndirectJump, true, 0x500)));
        }
        assert_eq!(p.stats.indirect_mispredicts, 1);
    }

    #[test]
    fn flipping_indirect_target_mispredicts() {
        let mut p = pred();
        for i in 0..20u64 {
            p.process(&rec(
                0x40,
                CtiKind::IndirectJump,
                true,
                0x500 + (i % 2) * 0x100,
            ));
        }
        assert_eq!(p.stats.indirect_mispredicts, 20);
    }

    #[test]
    fn direct_jump_never_mispredicts() {
        let mut p = pred();
        assert!(p.process(&rec(0x10, CtiKind::DirectJump, true, 0x99)));
        assert_eq!(p.stats.mispredict_ratio(), 0.0);
    }

    #[test]
    fn syscall_serializes() {
        let mut p = pred();
        assert!(!p.process(&rec(0x10, CtiKind::Syscall, true, 0x18)));
    }
}
