//! Register def/use sets as bitmasks: bits 0–15 are GPRs, 16–23 FPRs.
//!
//! Syscalls, calls and returns are modelled conservatively (they "touch
//! everything" or the stack pointer); the transforms never hoist or reorder
//! across them, so precision there does not matter.

use wiser_isa::{Fpr, Gpr, Insn};

pub(crate) const ALL_REGS: u32 = 0x00ff_ffff;

fn g(r: Gpr) -> u32 {
    1 << r.index()
}

fn f(r: Fpr) -> u32 {
    1 << (16 + r.index())
}

const SP: u32 = 1 << 15;

/// Registers read by `insn`.
pub(crate) fn reads(insn: &Insn) -> u32 {
    match *insn {
        Insn::Nop | Insn::Jmp { .. } | Insn::Li { .. } => 0,
        Insn::Alu { rs1, rs2, .. } => g(rs1) | g(rs2),
        Insn::AluImm { rs1, .. } => g(rs1),
        // `lui` replaces only the upper half, so the old value flows through.
        Insn::Lui { rd, .. } => g(rd),
        Insn::Mov { rs, .. } => g(rs),
        Insn::Cmov { rd, rs, rc, .. } => g(rd) | g(rs) | g(rc),
        Insn::SetCond { rs1, rs2, .. } => g(rs1) | g(rs2),
        Insn::Ld { base, .. } => g(base),
        Insn::St { rs, base, .. } => g(rs) | g(base),
        Insn::Ldx { base, index, .. } => g(base) | g(index),
        Insn::Stx {
            rs, base, index, ..
        } => g(rs) | g(base) | g(index),
        Insn::Prefetch { base, .. } => g(base),
        Insn::Push { rs } => g(rs) | SP,
        Insn::Pop { .. } => SP,
        Insn::B { rs1, rs2, .. } => g(rs1) | g(rs2),
        Insn::Jr { rs } => g(rs),
        Insn::JmpGot { .. } => 0,
        Insn::Call { .. } => SP,
        Insn::Callr { rs } => g(rs) | SP,
        Insn::Ret => SP,
        Insn::Syscall => ALL_REGS,
        Insn::Fp { fs1, fs2, .. } => f(fs1) | f(fs2),
        Insn::Fsqrt { fs, .. } | Insn::Fneg { fs, .. } | Insn::Fmov { fs, .. } => f(fs),
        Insn::Fcmp { fs1, fs2, .. } => f(fs1) | f(fs2),
        Insn::Fcvtif { rs, .. } => g(rs),
        Insn::Fcvtfi { fs, .. } => f(fs),
        Insn::Fld { base, .. } => g(base),
        Insn::Fst { fs, base, .. } => f(fs) | g(base),
        Insn::Fldx { base, index, .. } => g(base) | g(index),
        Insn::Fstx {
            fs, base, index, ..
        } => f(fs) | g(base) | g(index),
    }
}

/// Registers written by `insn`.
pub(crate) fn writes(insn: &Insn) -> u32 {
    match *insn {
        Insn::Nop
        | Insn::St { .. }
        | Insn::Stx { .. }
        | Insn::Prefetch { .. }
        | Insn::Jmp { .. }
        | Insn::B { .. }
        | Insn::Jr { .. }
        | Insn::JmpGot { .. }
        | Insn::Fst { .. }
        | Insn::Fstx { .. } => 0,
        Insn::Alu { rd, .. }
        | Insn::AluImm { rd, .. }
        | Insn::Li { rd, .. }
        | Insn::Lui { rd, .. }
        | Insn::Mov { rd, .. }
        | Insn::Cmov { rd, .. }
        | Insn::SetCond { rd, .. }
        | Insn::Ld { rd, .. }
        | Insn::Ldx { rd, .. }
        | Insn::Fcvtfi { rd, .. }
        | Insn::Fcmp { rd, .. } => g(rd),
        Insn::Push { .. } => SP,
        Insn::Pop { rd } => g(rd) | SP,
        Insn::Call { .. } | Insn::Callr { .. } => SP,
        Insn::Ret => SP,
        Insn::Syscall => ALL_REGS,
        Insn::Fp { fd, .. }
        | Insn::Fsqrt { fd, .. }
        | Insn::Fneg { fd, .. }
        | Insn::Fmov { fd, .. }
        | Insn::Fcvtif { fd, .. }
        | Insn::Fld { fd, .. }
        | Insn::Fldx { fd, .. } => f(fd),
    }
}

/// Whether `insn` is eligible for loop-invariant hoisting: a pure register
/// computation with exactly one destination, no memory access, no control
/// flow and no conditional write. `lui` appears here but is always rejected
/// downstream because it reads its own destination.
pub(crate) fn is_hoist_candidate(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Alu { .. }
            | Insn::AluImm { .. }
            | Insn::Li { .. }
            | Insn::Lui { .. }
            | Insn::Mov { .. }
            | Insn::SetCond { .. }
            | Insn::Fp { .. }
            | Insn::Fsqrt { .. }
            | Insn::Fneg { .. }
            | Insn::Fmov { .. }
            | Insn::Fcmp { .. }
            | Insn::Fcvtif { .. }
            | Insn::Fcvtfi { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_isa::{AluOp, Cond, Width};

    fn gpr(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    #[test]
    fn def_use_covers_the_interesting_cases() {
        let add = Insn::Alu {
            op: AluOp::Add,
            rd: gpr(1),
            rs1: gpr(2),
            rs2: gpr(3),
        };
        assert_eq!(writes(&add), 1 << 1);
        assert_eq!(reads(&add), (1 << 2) | (1 << 3));

        // lui reads its own destination (upper-half insert).
        let lui = Insn::Lui { rd: gpr(4), imm: 7 };
        assert_eq!(reads(&lui) & writes(&lui), 1 << 4);

        // cmov conditionally writes, so the old value is an input.
        let cmov = Insn::Cmov {
            cond: Cond::Eq,
            rd: gpr(1),
            rs: gpr(2),
            rc: gpr(3),
        };
        assert!(reads(&cmov) & (1 << 1) != 0);
        assert!(!is_hoist_candidate(&cmov));

        let ld = Insn::Ld {
            width: Width::W8,
            rd: gpr(1),
            base: gpr(2),
            disp: 0,
        };
        assert!(!is_hoist_candidate(&ld));
        assert!(is_hoist_candidate(&Insn::Li { rd: gpr(1), imm: 3 }));
    }
}
