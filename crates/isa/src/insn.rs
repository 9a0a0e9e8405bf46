//! The instruction set.
//!
//! A 64-bit RISC-style ISA with a fixed 8-byte encoding (see
//! [`crate::encode`]). The set is deliberately close in spirit to the subset
//! of x86-64/AArch64 that the OptiWISE paper's analyses depend on: scaled
//! indexed addressing (figure 8), slow integer divides (figure 9 and the mcf
//! case study), conditional moves (the branch-free mcf rewrite), software
//! prefetch (the deepsjeng rewrite), and the full family of control-transfer
//! instructions whose edges DynamoRIO-style instrumentation must distinguish
//! (direct, conditional, indirect, call, return, syscall).

use std::fmt;

use crate::reg::{Fpr, Gpr};

/// Size in bytes of every encoded instruction.
pub const INSN_BYTES: u64 = 8;

/// Comparison condition for conditional branches and set-if instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// Evaluates the condition on two 64-bit operands.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// The logically opposite condition on the same operands:
    /// `self.eval(a, b) != self.inverse().eval(a, b)` for every `a`, `b`.
    /// Lets a rewriter flip a branch's polarity when swapping its taken and
    /// fall-through successors.
    pub fn inverse(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }

    /// Mnemonic suffix (`eq`, `ne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Ltu => "ltu",
            Cond::Geu => "geu",
        }
    }

    /// All conditions, in encoding order.
    pub fn all() -> [Cond; 6] {
        [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu]
    }

    /// Encoding discriminant.
    pub(crate) fn code(self) -> u8 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Ge => 3,
            Cond::Ltu => 4,
            Cond::Geu => 5,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Cond> {
        Cond::all().get(code as usize).copied()
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Memory access width in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte (zero-extended on load).
    W1,
    /// Four bytes (zero-extended on load).
    W4,
    /// Eight bytes.
    W8,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::W1 => 1,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            Width::W1 => 0,
            Width::W4 => 1,
            Width::W8 => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Width> {
        match code {
            0 => Some(Width::W1),
            1 => Some(Width::W4),
            2 => Some(Width::W8),
            _ => None,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// Scale factor for indexed addressing (1, 2, 4 or 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ×1
    S1,
    /// ×2
    S2,
    /// ×4
    S4,
    /// ×8
    S8,
}

impl Scale {
    /// The multiplier value.
    pub fn factor(self) -> u64 {
        1 << self.log2()
    }

    /// log2 of the multiplier.
    pub fn log2(self) -> u32 {
        match self {
            Scale::S1 => 0,
            Scale::S2 => 1,
            Scale::S4 => 2,
            Scale::S8 => 3,
        }
    }

    /// Builds a scale from a multiplier value of 1, 2, 4 or 8.
    pub fn from_factor(factor: u64) -> Option<Scale> {
        match factor {
            1 => Some(Scale::S1),
            2 => Some(Scale::S2),
            4 => Some(Scale::S4),
            8 => Some(Scale::S8),
            _ => None,
        }
    }

    pub(crate) fn code(self) -> u8 {
        self.log2() as u8
    }

    pub(crate) fn from_code(code: u8) -> Option<Scale> {
        Scale::from_factor(1u64 << (code & 0x3))
    }
}

/// Two-operand integer ALU operation (register-register).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 64 bits).
    Mul,
    /// Signed division. Division by zero yields `u64::MAX` (like RISC-V).
    Div,
    /// Unsigned division. Division by zero yields `u64::MAX`.
    Udiv,
    /// Signed remainder. Remainder by zero yields the dividend.
    Rem,
    /// Unsigned remainder. Remainder by zero yields the dividend.
    Urem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift left (by low 6 bits of the second operand).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

impl AluOp {
    /// Evaluates the operation.
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    a
                } else {
                    ((a as i64) / (b as i64)) as u64
                }
            }
            AluOp::Udiv => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    0
                } else {
                    ((a as i64) % (b as i64)) as u64
                }
            }
            AluOp::Urem => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        }
    }

    /// Whether this operation uses the (slow, unpipelined) divider.
    pub fn is_divide(self) -> bool {
        matches!(self, AluOp::Div | AluOp::Udiv | AluOp::Rem | AluOp::Urem)
    }

    /// Mnemonic for assembly syntax.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Udiv => "udiv",
            AluOp::Rem => "rem",
            AluOp::Urem => "urem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
        }
    }

    /// All operations, in encoding order.
    pub fn all() -> [AluOp; 13] {
        [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Udiv,
            AluOp::Rem,
            AluOp::Urem,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Sar,
        ]
    }

    pub(crate) fn code(self) -> u8 {
        AluOp::all().iter().position(|&op| op == self).unwrap() as u8
    }

    pub(crate) fn from_code(code: u8) -> Option<AluOp> {
        AluOp::all().get(code as usize).copied()
    }
}

/// Two-operand floating-point operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Addition.
    Fadd,
    /// Subtraction.
    Fsub,
    /// Multiplication.
    Fmul,
    /// Division (slow, unpipelined).
    Fdiv,
    /// Minimum.
    Fmin,
    /// Maximum.
    Fmax,
}

impl FpOp {
    /// Evaluates the operation.
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            FpOp::Fadd => a + b,
            FpOp::Fsub => a - b,
            FpOp::Fmul => a * b,
            FpOp::Fdiv => a / b,
            FpOp::Fmin => a.min(b),
            FpOp::Fmax => a.max(b),
        }
    }

    /// Whether this operation uses the (slow, unpipelined) FP divider.
    pub fn is_divide(self) -> bool {
        matches!(self, FpOp::Fdiv)
    }

    /// Mnemonic for assembly syntax.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Fadd => "fadd",
            FpOp::Fsub => "fsub",
            FpOp::Fmul => "fmul",
            FpOp::Fdiv => "fdiv",
            FpOp::Fmin => "fmin",
            FpOp::Fmax => "fmax",
        }
    }

    /// All operations, in encoding order.
    pub fn all() -> [FpOp; 6] {
        [
            FpOp::Fadd,
            FpOp::Fsub,
            FpOp::Fmul,
            FpOp::Fdiv,
            FpOp::Fmin,
            FpOp::Fmax,
        ]
    }

    pub(crate) fn code(self) -> u8 {
        FpOp::all().iter().position(|&op| op == self).unwrap() as u8
    }

    pub(crate) fn from_code(code: u8) -> Option<FpOp> {
        FpOp::all().get(code as usize).copied()
    }
}

/// Floating-point comparison producing 0/1 in a GPR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpCmp {
    /// Equal.
    Feq,
    /// Less-than.
    Flt,
    /// Less-or-equal.
    Fle,
}

impl FpCmp {
    /// Evaluates the comparison.
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            FpCmp::Feq => a == b,
            FpCmp::Flt => a < b,
            FpCmp::Fle => a <= b,
        }
    }

    /// Mnemonic for assembly syntax.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpCmp::Feq => "feq",
            FpCmp::Flt => "flt",
            FpCmp::Fle => "fle",
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            FpCmp::Feq => 0,
            FpCmp::Flt => 1,
            FpCmp::Fle => 2,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<FpCmp> {
        match code {
            0 => Some(FpCmp::Feq),
            1 => Some(FpCmp::Flt),
            2 => Some(FpCmp::Fle),
            _ => None,
        }
    }
}

/// One machine instruction.
///
/// Branch and call targets hold *absolute* addresses once a module is loaded;
/// inside an unlinked [`crate::Module`] they hold text-section offsets, with
/// the loader applying relocations for symbolic operands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Insn {
    /// No operation.
    Nop,
    /// `rd = op(rs1, rs2)`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Gpr,
        /// First source.
        rs1: Gpr,
        /// Second source.
        rs2: Gpr,
    },
    /// `rd = op(rs1, imm)` (immediate sign-extended to 64 bits).
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Gpr,
        /// Source.
        rs1: Gpr,
        /// Immediate.
        imm: i32,
    },
    /// `rd = imm` (sign-extended).
    Li {
        /// Destination.
        rd: Gpr,
        /// Immediate.
        imm: i32,
    },
    /// `rd = (rd & 0xffff_ffff) | (imm << 32)` — sets the upper half.
    Lui {
        /// Destination.
        rd: Gpr,
        /// Upper 32 bits.
        imm: i32,
    },
    /// `rd = rs`
    Mov {
        /// Destination.
        rd: Gpr,
        /// Source.
        rs: Gpr,
    },
    /// `rd = (cond(rc, 0)) ? rs : rd` where cond ∈ {Eq (cmovz), Ne (cmovnz)}.
    Cmov {
        /// Condition evaluated against zero.
        cond: Cond,
        /// Destination (conditionally overwritten).
        rd: Gpr,
        /// Value moved when the condition holds.
        rs: Gpr,
        /// Register tested against zero.
        rc: Gpr,
    },
    /// `rd = cond(rs1, rs2) ? 1 : 0`
    SetCond {
        /// Condition.
        cond: Cond,
        /// Destination.
        rd: Gpr,
        /// First source.
        rs1: Gpr,
        /// Second source.
        rs2: Gpr,
    },
    /// Load: `rd = width bytes at [base + disp]`, zero-extended.
    Ld {
        /// Access width.
        width: Width,
        /// Destination.
        rd: Gpr,
        /// Base address register.
        base: Gpr,
        /// Displacement.
        disp: i32,
    },
    /// Store: `width bytes at [base + disp] = rs`.
    St {
        /// Access width.
        width: Width,
        /// Source.
        rs: Gpr,
        /// Base address register.
        base: Gpr,
        /// Displacement.
        disp: i32,
    },
    /// Indexed load: `rd = [base + index*scale + disp]`.
    Ldx {
        /// Access width.
        width: Width,
        /// Destination.
        rd: Gpr,
        /// Base address register.
        base: Gpr,
        /// Index register.
        index: Gpr,
        /// Index scale.
        scale: Scale,
        /// Displacement.
        disp: i32,
    },
    /// Indexed store: `[base + index*scale + disp] = rs`.
    Stx {
        /// Access width.
        width: Width,
        /// Source.
        rs: Gpr,
        /// Base address register.
        base: Gpr,
        /// Index register.
        index: Gpr,
        /// Index scale.
        scale: Scale,
        /// Displacement.
        disp: i32,
    },
    /// Software prefetch of `[base + disp]`; never faults.
    Prefetch {
        /// Base address register.
        base: Gpr,
        /// Displacement.
        disp: i32,
    },
    /// `sp -= 8; [sp] = rs`
    Push {
        /// Source.
        rs: Gpr,
    },
    /// `rd = [sp]; sp += 8`
    Pop {
        /// Destination.
        rd: Gpr,
    },
    /// Direct unconditional jump.
    Jmp {
        /// Target address (text offset before load).
        target: u32,
    },
    /// Direct conditional branch: `if cond(rs1, rs2) goto target`.
    B {
        /// Condition.
        cond: Cond,
        /// First compared register.
        rs1: Gpr,
        /// Second compared register.
        rs2: Gpr,
        /// Target address.
        target: u32,
    },
    /// Indirect jump to the address in `rs`.
    Jr {
        /// Register holding the target.
        rs: Gpr,
    },
    /// Indirect jump through a memory slot: `goto [slot]`. Used by
    /// loader-generated PLT stubs (the paper's "call without a call
    /// instruction" edge case).
    JmpGot {
        /// Absolute address of the GOT slot.
        slot: u32,
    },
    /// Direct call: pushes the return address, jumps to `target`.
    Call {
        /// Target address.
        target: u32,
    },
    /// Indirect call: pushes the return address, jumps to the address in `rs`.
    Callr {
        /// Register holding the target.
        rs: Gpr,
    },
    /// Return: pops the return address and jumps to it.
    Ret,
    /// System call; the number is in `x0`, arguments in `x1..`.
    Syscall,
    /// Floating-point two-operand arithmetic.
    Fp {
        /// Operation.
        op: FpOp,
        /// Destination.
        fd: Fpr,
        /// First source.
        fs1: Fpr,
        /// Second source.
        fs2: Fpr,
    },
    /// `fd = sqrt(fs)` (slow, unpipelined).
    Fsqrt {
        /// Destination.
        fd: Fpr,
        /// Source.
        fs: Fpr,
    },
    /// `fd = -fs`
    Fneg {
        /// Destination.
        fd: Fpr,
        /// Source.
        fs: Fpr,
    },
    /// `fd = fs`
    Fmov {
        /// Destination.
        fd: Fpr,
        /// Source.
        fs: Fpr,
    },
    /// Floating-point compare into a GPR (0 or 1).
    Fcmp {
        /// Comparison.
        cmp: FpCmp,
        /// Destination GPR.
        rd: Gpr,
        /// First source.
        fs1: Fpr,
        /// Second source.
        fs2: Fpr,
    },
    /// `fd = (f64) (i64) rs`
    Fcvtif {
        /// Destination.
        fd: Fpr,
        /// Integer source.
        rs: Gpr,
    },
    /// `rd = (i64) fs` (truncating; saturates on overflow/NaN like RISC-V).
    Fcvtfi {
        /// Integer destination.
        rd: Gpr,
        /// Source.
        fs: Fpr,
    },
    /// FP load: `fd = f64 at [base + disp]`.
    Fld {
        /// Destination.
        fd: Fpr,
        /// Base address register.
        base: Gpr,
        /// Displacement.
        disp: i32,
    },
    /// FP store: `[base + disp] = fs`.
    Fst {
        /// Source.
        fs: Fpr,
        /// Base address register.
        base: Gpr,
        /// Displacement.
        disp: i32,
    },
    /// Indexed FP load: `fd = [base + index*scale + disp]`.
    Fldx {
        /// Destination.
        fd: Fpr,
        /// Base address register.
        base: Gpr,
        /// Index register.
        index: Gpr,
        /// Index scale.
        scale: Scale,
        /// Displacement.
        disp: i32,
    },
    /// Indexed FP store: `[base + index*scale + disp] = fs`.
    Fstx {
        /// Source.
        fs: Fpr,
        /// Base address register.
        base: Gpr,
        /// Index register.
        index: Gpr,
        /// Index scale.
        scale: Scale,
        /// Displacement.
        disp: i32,
    },
}

/// Control-transfer classification, the distinction DynamoRIO-style
/// instrumentation cares about (section IV-C of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CtiKind {
    /// Direct unconditional branch (`jmp`).
    DirectJump,
    /// Direct conditional branch (`b<cond>`).
    CondBranch,
    /// Indirect jump (`jr`, `jmpgot`).
    IndirectJump,
    /// Direct call (`call`).
    DirectCall,
    /// Indirect call (`callr`).
    IndirectCall,
    /// Return (`ret`).
    Return,
    /// System call.
    Syscall,
}

impl CtiKind {
    /// Whether the dynamic target is unknown before execution.
    pub fn is_indirect(self) -> bool {
        matches!(
            self,
            CtiKind::IndirectJump | CtiKind::IndirectCall | CtiKind::Return
        )
    }
}

impl Insn {
    /// Control-transfer classification, or `None` for straight-line
    /// instructions.
    pub fn cti_kind(&self) -> Option<CtiKind> {
        match self {
            Insn::Jmp { .. } => Some(CtiKind::DirectJump),
            Insn::B { .. } => Some(CtiKind::CondBranch),
            Insn::Jr { .. } | Insn::JmpGot { .. } => Some(CtiKind::IndirectJump),
            Insn::Call { .. } => Some(CtiKind::DirectCall),
            Insn::Callr { .. } => Some(CtiKind::IndirectCall),
            Insn::Ret => Some(CtiKind::Return),
            Insn::Syscall => Some(CtiKind::Syscall),
            _ => None,
        }
    }

    /// Whether this instruction terminates a DynamoRIO-style basic block.
    pub fn is_cti(&self) -> bool {
        self.cti_kind().is_some()
    }

    /// Whether this instruction reads memory (loads, pops, returns,
    /// GOT-indirect jumps).
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Insn::Ld { .. }
                | Insn::Ldx { .. }
                | Insn::Fld { .. }
                | Insn::Fldx { .. }
                | Insn::Pop { .. }
                | Insn::Ret
                | Insn::JmpGot { .. }
        )
    }

    /// Whether this instruction writes memory (stores, pushes, calls).
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Insn::St { .. }
                | Insn::Stx { .. }
                | Insn::Fst { .. }
                | Insn::Fstx { .. }
                | Insn::Push { .. }
                | Insn::Call { .. }
                | Insn::Callr { .. }
        )
    }

    /// Whether this instruction uses the slow unpipelined divide/sqrt unit.
    pub fn is_long_latency(&self) -> bool {
        match self {
            Insn::Alu { op, .. } | Insn::AluImm { op, .. } => op.is_divide(),
            Insn::Fp { op, .. } => op.is_divide(),
            Insn::Fsqrt { .. } => true,
            _ => false,
        }
    }

    /// The statically-known branch target, if any (jumps, branches, calls).
    pub fn direct_target(&self) -> Option<u32> {
        match self {
            Insn::Jmp { target } | Insn::B { target, .. } | Insn::Call { target } => Some(*target),
            _ => None,
        }
    }

    /// Rewrites the statically-known target. No-op for other instructions.
    pub fn set_direct_target(&mut self, new_target: u32) {
        match self {
            Insn::Jmp { target } | Insn::B { target, .. } | Insn::Call { target } => {
                *target = new_target;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(!Cond::Eq.eval(3, 4));
        assert!(Cond::Lt.eval((-1i64) as u64, 0));
        assert!(!Cond::Ltu.eval((-1i64) as u64, 0));
        assert!(Cond::Geu.eval((-1i64) as u64, 0));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Ge.eval(5, 5));
    }

    #[test]
    fn cond_inverse_is_exact_negation() {
        let samples = [0u64, 1, 7, (-1i64) as u64, i64::MIN as u64, u64::MAX];
        for cond in Cond::all() {
            assert_eq!(cond.inverse().inverse(), cond);
            for &a in &samples {
                for &b in &samples {
                    assert_ne!(
                        cond.eval(a, b),
                        cond.inverse().eval(a, b),
                        "{cond:?} {a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn alu_div_by_zero() {
        assert_eq!(AluOp::Div.eval(10, 0), u64::MAX);
        assert_eq!(AluOp::Udiv.eval(10, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(10, 0), 10);
        assert_eq!(AluOp::Urem.eval(10, 0), 10);
    }

    #[test]
    fn alu_div_overflow() {
        let min = i64::MIN as u64;
        let neg1 = (-1i64) as u64;
        assert_eq!(AluOp::Div.eval(min, neg1), min);
        assert_eq!(AluOp::Rem.eval(min, neg1), 0);
    }

    #[test]
    fn alu_shifts_mask() {
        assert_eq!(AluOp::Shl.eval(1, 64), 1);
        assert_eq!(AluOp::Shl.eval(1, 65), 2);
        assert_eq!(AluOp::Sar.eval((-8i64) as u64, 1), (-4i64) as u64);
    }

    #[test]
    fn cti_classification() {
        let jmp = Insn::Jmp { target: 0 };
        assert_eq!(jmp.cti_kind(), Some(CtiKind::DirectJump));
        assert!(Insn::Ret.cti_kind().unwrap().is_indirect());
        assert!(!CtiKind::DirectCall.is_indirect());
        let add = Insn::Alu {
            op: AluOp::Add,
            rd: Gpr::new(0).unwrap(),
            rs1: Gpr::new(1).unwrap(),
            rs2: Gpr::new(2).unwrap(),
        };
        assert!(add.cti_kind().is_none());
    }

    #[test]
    fn load_store_classification() {
        assert!(Insn::Pop {
            rd: Gpr::new(0).unwrap()
        }
        .is_load());
        assert!(Insn::Push {
            rs: Gpr::new(0).unwrap()
        }
        .is_store());
        assert!(Insn::Call { target: 0 }.is_store());
        assert!(Insn::Ret.is_load());
        assert!(!Insn::Nop.is_load());
    }

    #[test]
    fn target_rewrite() {
        let mut insn = Insn::Call { target: 8 };
        insn.set_direct_target(96);
        assert_eq!(insn.direct_target(), Some(96));
    }

    #[test]
    fn scale_factors() {
        for s in [Scale::S1, Scale::S2, Scale::S4, Scale::S8] {
            assert_eq!(Scale::from_factor(s.factor()), Some(s));
        }
        assert_eq!(Scale::from_factor(3), None);
    }
}
