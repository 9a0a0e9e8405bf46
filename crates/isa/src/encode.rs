//! Fixed-width binary encoding.
//!
//! Every instruction encodes to exactly [`INSN_BYTES`] (8) bytes:
//!
//! ```text
//! byte 0      opcode
//! byte 1      operand a   (register in low nibble; width code in high nibble)
//! byte 2      operand b   (register)
//! byte 3      operand c   (register in low nibble; scale code in bits 4-5)
//! bytes 4..8  32-bit little-endian immediate / displacement / target
//! ```
//!
//! The fixed width keeps address arithmetic trivial for the profiler stack
//! (samples land on `offset = k * 8`), mirroring how OptiWISE keys all data
//! on module-relative instruction addresses.

use crate::error::IsaError;
use crate::insn::{AluOp, Cond, FpCmp, FpOp, Insn, Scale, Width, INSN_BYTES};
use crate::reg::{Fpr, Gpr};

mod opcode {
    pub const NOP: u8 = 0x00;
    pub const LI: u8 = 0x01;
    pub const LUI: u8 = 0x02;
    pub const MOV: u8 = 0x03;
    pub const CMOV: u8 = 0x04;
    pub const SETCOND: u8 = 0x05;
    pub const ALU_BASE: u8 = 0x10; // ..=0x1C
    pub const ALU_IMM_BASE: u8 = 0x20; // ..=0x2C
    pub const LD: u8 = 0x30;
    pub const ST: u8 = 0x31;
    pub const LDX: u8 = 0x32;
    pub const STX: u8 = 0x33;
    pub const PREFETCH: u8 = 0x34;
    pub const PUSH: u8 = 0x35;
    pub const POP: u8 = 0x36;
    pub const JMP: u8 = 0x40;
    pub const B: u8 = 0x41;
    pub const JR: u8 = 0x42;
    pub const JMPGOT: u8 = 0x43;
    pub const CALL: u8 = 0x44;
    pub const CALLR: u8 = 0x45;
    pub const RET: u8 = 0x46;
    pub const SYSCALL: u8 = 0x47;
    pub const FP_BASE: u8 = 0x50; // ..=0x55
    pub const FSQRT: u8 = 0x56;
    pub const FNEG: u8 = 0x57;
    pub const FMOV: u8 = 0x58;
    pub const FCMP: u8 = 0x59;
    pub const FCVTIF: u8 = 0x5A;
    pub const FCVTFI: u8 = 0x5B;
    pub const FLD: u8 = 0x5C;
    pub const FST: u8 = 0x5D;
    pub const FLDX: u8 = 0x5E;
    pub const FSTX: u8 = 0x5F;
}

#[derive(Clone, Copy, Default)]
struct Fields {
    op: u8,
    a: u8,
    b: u8,
    c: u8,
    imm: i32,
}

impl Fields {
    fn to_bytes(self) -> [u8; INSN_BYTES as usize] {
        let imm = self.imm.to_le_bytes();
        [
            self.op, self.a, self.b, self.c, imm[0], imm[1], imm[2], imm[3],
        ]
    }

    fn from_bytes(bytes: &[u8; INSN_BYTES as usize]) -> Fields {
        Fields {
            op: bytes[0],
            a: bytes[1],
            b: bytes[2],
            c: bytes[3],
            imm: i32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        }
    }
}

fn reg_width(reg: u8, width: Width) -> u8 {
    (reg & 0x0F) | (width.code() << 4)
}

fn reg_scale(reg: u8, scale: Scale) -> u8 {
    (reg & 0x0F) | (scale.code() << 4)
}

/// Encodes one instruction into its 8-byte form.
///
/// # Examples
///
/// ```
/// use wiser_isa::{encode_insn, decode_insn, Insn};
/// let bytes = encode_insn(&Insn::Ret);
/// assert_eq!(decode_insn(&bytes).unwrap(), Insn::Ret);
/// ```
pub fn encode_insn(insn: &Insn) -> [u8; INSN_BYTES as usize] {
    use opcode::*;
    let f = match *insn {
        Insn::Nop => Fields {
            op: NOP,
            ..Fields::default()
        },
        Insn::Li { rd, imm } => Fields {
            op: LI,
            a: rd.raw(),
            imm,
            ..Fields::default()
        },
        Insn::Lui { rd, imm } => Fields {
            op: LUI,
            a: rd.raw(),
            imm,
            ..Fields::default()
        },
        Insn::Mov { rd, rs } => Fields {
            op: MOV,
            a: rd.raw(),
            b: rs.raw(),
            ..Fields::default()
        },
        Insn::Cmov { cond, rd, rs, rc } => Fields {
            op: CMOV,
            a: rd.raw(),
            b: rs.raw(),
            c: rc.raw(),
            imm: cond.code() as i32,
        },
        Insn::SetCond { cond, rd, rs1, rs2 } => Fields {
            op: SETCOND,
            a: rd.raw(),
            b: rs1.raw(),
            c: rs2.raw(),
            imm: cond.code() as i32,
        },
        Insn::Alu { op, rd, rs1, rs2 } => Fields {
            op: ALU_BASE + op.code(),
            a: rd.raw(),
            b: rs1.raw(),
            c: rs2.raw(),
            imm: 0,
        },
        Insn::AluImm { op, rd, rs1, imm } => Fields {
            op: ALU_IMM_BASE + op.code(),
            a: rd.raw(),
            b: rs1.raw(),
            c: 0,
            imm,
        },
        Insn::Ld {
            width,
            rd,
            base,
            disp,
        } => Fields {
            op: LD,
            a: reg_width(rd.raw(), width),
            b: base.raw(),
            c: 0,
            imm: disp,
        },
        Insn::St {
            width,
            rs,
            base,
            disp,
        } => Fields {
            op: ST,
            a: reg_width(rs.raw(), width),
            b: base.raw(),
            c: 0,
            imm: disp,
        },
        Insn::Ldx {
            width,
            rd,
            base,
            index,
            scale,
            disp,
        } => Fields {
            op: LDX,
            a: reg_width(rd.raw(), width),
            b: base.raw(),
            c: reg_scale(index.raw(), scale),
            imm: disp,
        },
        Insn::Stx {
            width,
            rs,
            base,
            index,
            scale,
            disp,
        } => Fields {
            op: STX,
            a: reg_width(rs.raw(), width),
            b: base.raw(),
            c: reg_scale(index.raw(), scale),
            imm: disp,
        },
        Insn::Prefetch { base, disp } => Fields {
            op: PREFETCH,
            a: 0,
            b: base.raw(),
            c: 0,
            imm: disp,
        },
        Insn::Push { rs } => Fields {
            op: PUSH,
            a: rs.raw(),
            ..Fields::default()
        },
        Insn::Pop { rd } => Fields {
            op: POP,
            a: rd.raw(),
            ..Fields::default()
        },
        Insn::Jmp { target } => Fields {
            op: JMP,
            imm: target as i32,
            ..Fields::default()
        },
        Insn::B {
            cond,
            rs1,
            rs2,
            target,
        } => Fields {
            op: B,
            a: cond.code(),
            b: rs1.raw(),
            c: rs2.raw(),
            imm: target as i32,
        },
        Insn::Jr { rs } => Fields {
            op: JR,
            a: rs.raw(),
            ..Fields::default()
        },
        Insn::JmpGot { slot } => Fields {
            op: JMPGOT,
            imm: slot as i32,
            ..Fields::default()
        },
        Insn::Call { target } => Fields {
            op: CALL,
            imm: target as i32,
            ..Fields::default()
        },
        Insn::Callr { rs } => Fields {
            op: CALLR,
            a: rs.raw(),
            ..Fields::default()
        },
        Insn::Ret => Fields {
            op: RET,
            ..Fields::default()
        },
        Insn::Syscall => Fields {
            op: SYSCALL,
            ..Fields::default()
        },
        Insn::Fp { op, fd, fs1, fs2 } => Fields {
            op: FP_BASE + op.code(),
            a: fd.raw(),
            b: fs1.raw(),
            c: fs2.raw(),
            imm: 0,
        },
        Insn::Fsqrt { fd, fs } => Fields {
            op: FSQRT,
            a: fd.raw(),
            b: fs.raw(),
            ..Fields::default()
        },
        Insn::Fneg { fd, fs } => Fields {
            op: FNEG,
            a: fd.raw(),
            b: fs.raw(),
            ..Fields::default()
        },
        Insn::Fmov { fd, fs } => Fields {
            op: FMOV,
            a: fd.raw(),
            b: fs.raw(),
            ..Fields::default()
        },
        Insn::Fcmp { cmp, rd, fs1, fs2 } => Fields {
            op: FCMP,
            a: rd.raw(),
            b: fs1.raw(),
            c: fs2.raw(),
            imm: cmp.code() as i32,
        },
        Insn::Fcvtif { fd, rs } => Fields {
            op: FCVTIF,
            a: fd.raw(),
            b: rs.raw(),
            ..Fields::default()
        },
        Insn::Fcvtfi { rd, fs } => Fields {
            op: FCVTFI,
            a: rd.raw(),
            b: fs.raw(),
            ..Fields::default()
        },
        Insn::Fld { fd, base, disp } => Fields {
            op: FLD,
            a: fd.raw(),
            b: base.raw(),
            c: 0,
            imm: disp,
        },
        Insn::Fst { fs, base, disp } => Fields {
            op: FST,
            a: fs.raw(),
            b: base.raw(),
            c: 0,
            imm: disp,
        },
        Insn::Fldx {
            fd,
            base,
            index,
            scale,
            disp,
        } => Fields {
            op: FLDX,
            a: fd.raw(),
            b: base.raw(),
            c: reg_scale(index.raw(), scale),
            imm: disp,
        },
        Insn::Fstx {
            fs,
            base,
            index,
            scale,
            disp,
        } => Fields {
            op: FSTX,
            a: fs.raw(),
            b: base.raw(),
            c: reg_scale(index.raw(), scale),
            imm: disp,
        },
    };
    f.to_bytes()
}

fn gpr(byte: u8) -> Result<Gpr, IsaError> {
    Gpr::new(byte & 0x0F).ok_or(IsaError::BadEncoding("register out of range"))
}

fn fpr(byte: u8) -> Result<Fpr, IsaError> {
    Fpr::new(byte & 0x0F).ok_or(IsaError::BadEncoding("fp register out of range"))
}

fn width_of(byte: u8) -> Result<Width, IsaError> {
    Width::from_code(byte >> 4).ok_or(IsaError::BadEncoding("bad width code"))
}

fn scale_of(byte: u8) -> Result<Scale, IsaError> {
    Scale::from_code(byte >> 4).ok_or(IsaError::BadEncoding("bad scale code"))
}

fn cond_of(imm: i32) -> Result<Cond, IsaError> {
    Cond::from_code(imm as u8).ok_or(IsaError::BadEncoding("bad condition code"))
}

/// Decodes one instruction from its 8-byte form.
///
/// # Errors
///
/// Returns [`IsaError::BadEncoding`] for unknown opcodes or malformed operand
/// fields.
pub fn decode_insn(bytes: &[u8; INSN_BYTES as usize]) -> Result<Insn, IsaError> {
    use opcode::*;
    let f = Fields::from_bytes(bytes);
    let insn = match f.op {
        NOP => Insn::Nop,
        LI => Insn::Li {
            rd: gpr(f.a)?,
            imm: f.imm,
        },
        LUI => Insn::Lui {
            rd: gpr(f.a)?,
            imm: f.imm,
        },
        MOV => Insn::Mov {
            rd: gpr(f.a)?,
            rs: gpr(f.b)?,
        },
        CMOV => Insn::Cmov {
            cond: cond_of(f.imm)?,
            rd: gpr(f.a)?,
            rs: gpr(f.b)?,
            rc: gpr(f.c)?,
        },
        SETCOND => Insn::SetCond {
            cond: cond_of(f.imm)?,
            rd: gpr(f.a)?,
            rs1: gpr(f.b)?,
            rs2: gpr(f.c)?,
        },
        op if (ALU_BASE..ALU_BASE + 13).contains(&op) => Insn::Alu {
            op: AluOp::from_code(op - ALU_BASE).ok_or(IsaError::BadEncoding("bad alu op"))?,
            rd: gpr(f.a)?,
            rs1: gpr(f.b)?,
            rs2: gpr(f.c)?,
        },
        op if (ALU_IMM_BASE..ALU_IMM_BASE + 13).contains(&op) => Insn::AluImm {
            op: AluOp::from_code(op - ALU_IMM_BASE).ok_or(IsaError::BadEncoding("bad alu op"))?,
            rd: gpr(f.a)?,
            rs1: gpr(f.b)?,
            imm: f.imm,
        },
        LD => Insn::Ld {
            width: width_of(f.a)?,
            rd: gpr(f.a)?,
            base: gpr(f.b)?,
            disp: f.imm,
        },
        ST => Insn::St {
            width: width_of(f.a)?,
            rs: gpr(f.a)?,
            base: gpr(f.b)?,
            disp: f.imm,
        },
        LDX => Insn::Ldx {
            width: width_of(f.a)?,
            rd: gpr(f.a)?,
            base: gpr(f.b)?,
            index: gpr(f.c)?,
            scale: scale_of(f.c)?,
            disp: f.imm,
        },
        STX => Insn::Stx {
            width: width_of(f.a)?,
            rs: gpr(f.a)?,
            base: gpr(f.b)?,
            index: gpr(f.c)?,
            scale: scale_of(f.c)?,
            disp: f.imm,
        },
        PREFETCH => Insn::Prefetch {
            base: gpr(f.b)?,
            disp: f.imm,
        },
        PUSH => Insn::Push { rs: gpr(f.a)? },
        POP => Insn::Pop { rd: gpr(f.a)? },
        JMP => Insn::Jmp {
            target: f.imm as u32,
        },
        B => Insn::B {
            cond: Cond::from_code(f.a).ok_or(IsaError::BadEncoding("bad condition code"))?,
            rs1: gpr(f.b)?,
            rs2: gpr(f.c)?,
            target: f.imm as u32,
        },
        JR => Insn::Jr { rs: gpr(f.a)? },
        JMPGOT => Insn::JmpGot { slot: f.imm as u32 },
        CALL => Insn::Call {
            target: f.imm as u32,
        },
        CALLR => Insn::Callr { rs: gpr(f.a)? },
        RET => Insn::Ret,
        SYSCALL => Insn::Syscall,
        op if (FP_BASE..FP_BASE + 6).contains(&op) => Insn::Fp {
            op: FpOp::from_code(op - FP_BASE).ok_or(IsaError::BadEncoding("bad fp op"))?,
            fd: fpr(f.a)?,
            fs1: fpr(f.b)?,
            fs2: fpr(f.c)?,
        },
        FSQRT => Insn::Fsqrt {
            fd: fpr(f.a)?,
            fs: fpr(f.b)?,
        },
        FNEG => Insn::Fneg {
            fd: fpr(f.a)?,
            fs: fpr(f.b)?,
        },
        FMOV => Insn::Fmov {
            fd: fpr(f.a)?,
            fs: fpr(f.b)?,
        },
        FCMP => Insn::Fcmp {
            cmp: FpCmp::from_code(f.imm as u8).ok_or(IsaError::BadEncoding("bad fp cmp"))?,
            rd: gpr(f.a)?,
            fs1: fpr(f.b)?,
            fs2: fpr(f.c)?,
        },
        FCVTIF => Insn::Fcvtif {
            fd: fpr(f.a)?,
            rs: gpr(f.b)?,
        },
        FCVTFI => Insn::Fcvtfi {
            rd: gpr(f.a)?,
            fs: fpr(f.b)?,
        },
        FLD => Insn::Fld {
            fd: fpr(f.a)?,
            base: gpr(f.b)?,
            disp: f.imm,
        },
        FST => Insn::Fst {
            fs: fpr(f.a)?,
            base: gpr(f.b)?,
            disp: f.imm,
        },
        FLDX => Insn::Fldx {
            fd: fpr(f.a)?,
            base: gpr(f.b)?,
            index: gpr(f.c)?,
            scale: scale_of(f.c)?,
            disp: f.imm,
        },
        FSTX => Insn::Fstx {
            fs: fpr(f.a)?,
            base: gpr(f.b)?,
            index: gpr(f.c)?,
            scale: scale_of(f.c)?,
            disp: f.imm,
        },
        _ => return Err(IsaError::BadEncoding("unknown opcode")),
    };
    Ok(insn)
}

/// Decodes the instruction at byte offset `offset` of a text section.
///
/// # Errors
///
/// Returns [`IsaError::BadEncoding`] if `offset` is unaligned, out of range,
/// or the bytes do not decode.
pub fn decode_at(text: &[u8], offset: u64) -> Result<Insn, IsaError> {
    if !offset.is_multiple_of(INSN_BYTES) {
        return Err(IsaError::BadEncoding("unaligned instruction offset"));
    }
    let start = offset as usize;
    let end = start + INSN_BYTES as usize;
    if end > text.len() {
        return Err(IsaError::BadEncoding("instruction offset out of range"));
    }
    let mut buf = [0u8; INSN_BYTES as usize];
    buf.copy_from_slice(&text[start..end]);
    decode_insn(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_insns() -> Vec<Insn> {
        let x = |i: u8| Gpr::new(i).unwrap();
        let f = |i: u8| Fpr::new(i).unwrap();
        vec![
            Insn::Nop,
            Insn::Li { rd: x(3), imm: -42 },
            Insn::Lui {
                rd: x(3),
                imm: 0x1234,
            },
            Insn::Mov { rd: x(1), rs: x(2) },
            Insn::Cmov {
                cond: Cond::Ne,
                rd: x(1),
                rs: x(2),
                rc: x(3),
            },
            Insn::SetCond {
                cond: Cond::Ltu,
                rd: x(4),
                rs1: x(5),
                rs2: x(6),
            },
            Insn::Alu {
                op: AluOp::Udiv,
                rd: x(7),
                rs1: x(8),
                rs2: x(9),
            },
            Insn::AluImm {
                op: AluOp::Add,
                rd: x(15),
                rs1: x(15),
                imm: -16,
            },
            Insn::Ld {
                width: Width::W4,
                rd: x(1),
                base: x(2),
                disp: 100,
            },
            Insn::St {
                width: Width::W8,
                rs: x(1),
                base: x(2),
                disp: -8,
            },
            Insn::Ldx {
                width: Width::W1,
                rd: x(1),
                base: x(2),
                index: x(3),
                scale: Scale::S8,
                disp: 4,
            },
            Insn::Stx {
                width: Width::W4,
                rs: x(5),
                base: x(14),
                index: x(2),
                scale: Scale::S4,
                disp: 0,
            },
            Insn::Prefetch {
                base: x(3),
                disp: 64,
            },
            Insn::Push { rs: x(14) },
            Insn::Pop { rd: x(14) },
            Insn::Jmp { target: 0x100 },
            Insn::B {
                cond: Cond::Lt,
                rs1: x(1),
                rs2: x(2),
                target: 0x80,
            },
            Insn::Jr { rs: x(9) },
            Insn::JmpGot { slot: 0xF000 },
            Insn::Call { target: 0x40 },
            Insn::Callr { rs: x(6) },
            Insn::Ret,
            Insn::Syscall,
            Insn::Fp {
                op: FpOp::Fdiv,
                fd: f(0),
                fs1: f(1),
                fs2: f(2),
            },
            Insn::Fsqrt { fd: f(3), fs: f(4) },
            Insn::Fneg { fd: f(5), fs: f(6) },
            Insn::Fmov { fd: f(7), fs: f(0) },
            Insn::Fcmp {
                cmp: FpCmp::Fle,
                rd: x(2),
                fs1: f(1),
                fs2: f(3),
            },
            Insn::Fcvtif { fd: f(1), rs: x(3) },
            Insn::Fcvtfi { rd: x(4), fs: f(2) },
            Insn::Fld {
                fd: f(0),
                base: x(8),
                disp: 24,
            },
            Insn::Fst {
                fs: f(1),
                base: x(9),
                disp: -24,
            },
            Insn::Fldx {
                fd: f(2),
                base: x(1),
                index: x(2),
                scale: Scale::S8,
                disp: 16,
            },
            Insn::Fstx {
                fs: f(3),
                base: x(1),
                index: x(2),
                scale: Scale::S2,
                disp: 8,
            },
        ]
    }

    #[test]
    fn roundtrip_all_forms() {
        for insn in sample_insns() {
            let bytes = encode_insn(&insn);
            let back = decode_insn(&bytes).unwrap();
            assert_eq!(back, insn, "encoding round-trip failed");
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let bytes = [0xFFu8, 0, 0, 0, 0, 0, 0, 0];
        assert!(decode_insn(&bytes).is_err());
    }

    #[test]
    fn decode_at_alignment_checked() {
        let mut text = Vec::new();
        text.extend_from_slice(&encode_insn(&Insn::Nop));
        text.extend_from_slice(&encode_insn(&Insn::Ret));
        assert_eq!(decode_at(&text, 8).unwrap(), Insn::Ret);
        assert!(decode_at(&text, 4).is_err());
        assert!(decode_at(&text, 16).is_err());
    }
}
