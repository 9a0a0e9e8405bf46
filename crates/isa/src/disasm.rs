//! Disassembler and symbolizer — the workspace's `objdump` substitute.
//!
//! OptiWISE uses `objdump` for two things (§IV-A): textual disassembly of
//! each instruction, and the mapping from instruction addresses to functions
//! and source lines. [`Disassembly`] provides both over a [`Module`].

use std::fmt;

use crate::error::IsaError;
use crate::insn::{Insn, INSN_BYTES};
use crate::module::Module;

/// Renders one instruction in assembly syntax. Direct targets are shown as
/// hex offsets; pass a [`Disassembly`] for symbolized output instead.
pub fn format_insn(insn: &Insn) -> String {
    use Insn::*;
    match insn {
        Nop => "nop".to_string(),
        Alu { op, rd, rs1, rs2 } => format!("{} {rd}, {rs1}, {rs2}", op.mnemonic()),
        AluImm { op, rd, rs1, imm } => format!("{}i {rd}, {rs1}, {imm}", op.mnemonic()),
        Li { rd, imm } => format!("li {rd}, {imm}"),
        Lui { rd, imm } => format!("lui {rd}, {:#x}", *imm as u32),
        Mov { rd, rs } => format!("mov {rd}, {rs}"),
        Cmov { cond, rd, rs, rc } => {
            let mn = if *cond == crate::insn::Cond::Eq {
                "cmovz"
            } else {
                "cmovnz"
            };
            format!("{mn} {rd}, {rs}, {rc}")
        }
        SetCond { cond, rd, rs1, rs2 } => format!("set.{cond} {rd}, {rs1}, {rs2}"),
        Ld {
            width,
            rd,
            base,
            disp,
        } => format!("ld.{width} {rd}, {}", fmt_mem(*base, None, *disp)),
        St {
            width,
            rs,
            base,
            disp,
        } => format!("st.{width} {rs}, {}", fmt_mem(*base, None, *disp)),
        Ldx {
            width,
            rd,
            base,
            index,
            scale,
            disp,
        } => format!(
            "ld.{width} {rd}, {}",
            fmt_mem(*base, Some((*index, scale.factor())), *disp)
        ),
        Stx {
            width,
            rs,
            base,
            index,
            scale,
            disp,
        } => format!(
            "st.{width} {rs}, {}",
            fmt_mem(*base, Some((*index, scale.factor())), *disp)
        ),
        Prefetch { base, disp } => format!("prefetch {}", fmt_mem(*base, None, *disp)),
        Push { rs } => format!("push {rs}"),
        Pop { rd } => format!("pop {rd}"),
        Jmp { target } => format!("jmp {target:#x}"),
        B {
            cond,
            rs1,
            rs2,
            target,
        } => format!("b{cond} {rs1}, {rs2}, {target:#x}"),
        Jr { rs } => format!("jr {rs}"),
        JmpGot { slot } => format!("jmpgot [{slot:#x}]"),
        Call { target } => format!("call {target:#x}"),
        Callr { rs } => format!("callr {rs}"),
        Ret => "ret".to_string(),
        Syscall => "syscall".to_string(),
        Fp { op, fd, fs1, fs2 } => format!("{} {fd}, {fs1}, {fs2}", op.mnemonic()),
        Fsqrt { fd, fs } => format!("fsqrt {fd}, {fs}"),
        Fneg { fd, fs } => format!("fneg {fd}, {fs}"),
        Fmov { fd, fs } => format!("fmov {fd}, {fs}"),
        Fcmp { cmp, rd, fs1, fs2 } => format!("{} {rd}, {fs1}, {fs2}", cmp.mnemonic()),
        Fcvtif { fd, rs } => format!("fcvtif {fd}, {rs}"),
        Fcvtfi { rd, fs } => format!("fcvtfi {rd}, {fs}"),
        Fld { fd, base, disp } => format!("fld {fd}, {}", fmt_mem(*base, None, *disp)),
        Fst { fs, base, disp } => format!("fst {fs}, {}", fmt_mem(*base, None, *disp)),
        Fldx {
            fd,
            base,
            index,
            scale,
            disp,
        } => format!(
            "fld {fd}, {}",
            fmt_mem(*base, Some((*index, scale.factor())), *disp)
        ),
        Fstx {
            fs,
            base,
            index,
            scale,
            disp,
        } => format!(
            "fst {fs}, {}",
            fmt_mem(*base, Some((*index, scale.factor())), *disp)
        ),
    }
}

fn fmt_mem(base: crate::reg::Gpr, index: Option<(crate::reg::Gpr, u64)>, disp: i32) -> String {
    let mut s = format!("[{base}");
    if let Some((idx, factor)) = index {
        s.push_str(&format!("+{idx}*{factor}"));
    }
    if disp > 0 {
        s.push_str(&format!("+{disp}"));
    } else if disp < 0 {
        s.push_str(&format!("{disp}"));
    }
    s.push(']');
    s
}

/// Renders `insn` as [`format_insn`] does, with a direct branch or call
/// target named after the function containing it (`<f>` or `<f+0x10>`):
/// the text of one [`DisasmLine`].
pub fn symbolized(module: &Module, insn: &Insn) -> String {
    let mut text = format_insn(insn);
    if let Some(target) = insn.direct_target() {
        if let Some(sym) = module.function_at(target as u64) {
            let suffix = if sym.offset == target as u64 {
                format!(" <{}>", sym.name)
            } else {
                format!(" <{}+{:#x}>", sym.name, target as u64 - sym.offset)
            };
            text.push_str(&suffix);
        }
    }
    text
}

/// One disassembled instruction with its context.
#[derive(Clone, Debug)]
pub struct DisasmLine {
    /// Text-section offset.
    pub offset: u64,
    /// Decoded instruction.
    pub insn: Insn,
    /// Rendered assembly text, with symbolized branch targets.
    pub text: String,
    /// Enclosing function name, if any.
    pub function: Option<String>,
    /// Source file and line, if debug info is present.
    pub source: Option<(String, u32)>,
}

/// Full-module disassembly with symbol and line lookup — what OptiWISE
/// obtains from `objdump -d -l`.
#[derive(Clone, Debug)]
pub struct Disassembly {
    module_name: String,
    lines: Vec<DisasmLine>,
}

impl Disassembly {
    /// Disassembles an entire module.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadEncoding`] if any text bytes fail to decode.
    pub fn of_module(module: &Module) -> Result<Disassembly, IsaError> {
        let mut lines = Vec::with_capacity(module.insn_count() as usize);
        for i in 0..module.insn_count() {
            let offset = i * INSN_BYTES;
            let insn = module.insn_at(offset)?;
            lines.push(DisasmLine {
                offset,
                insn,
                text: symbolized(module, &insn),
                function: module.function_at(offset).map(|s| s.name.clone()),
                source: module.line_at(offset).map(|(f, l)| (f.to_string(), l)),
            });
        }
        Ok(Disassembly {
            module_name: module.name.clone(),
            lines,
        })
    }

    /// Module name this disassembly describes.
    pub fn module_name(&self) -> &str {
        &self.module_name
    }

    /// All lines, in offset order.
    pub fn lines(&self) -> &[DisasmLine] {
        &self.lines
    }

    /// Line at a given text offset.
    pub fn line_at(&self, offset: u64) -> Option<&DisasmLine> {
        if !offset.is_multiple_of(INSN_BYTES) {
            return None;
        }
        self.lines.get((offset / INSN_BYTES) as usize)
    }

    /// Lines belonging to the named function.
    pub fn function_lines<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = &'a DisasmLine> + 'a {
        self.lines
            .iter()
            .filter(move |l| l.function.as_deref() == Some(name))
    }
}

impl fmt::Display for Disassembly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:\tfile format wiser", self.module_name)?;
        let mut last_fn: Option<&str> = None;
        for line in &self.lines {
            if line.function.as_deref() != last_fn {
                if let Some(name) = &line.function {
                    writeln!(f, "\n{:08x} <{}>:", line.offset, name)?;
                }
                last_fn = line.function.as_deref();
            }
            writeln!(f, "{:8x}:\t{}", line.offset, line.text)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::text::assemble;

    #[test]
    fn disassembly_symbolizes_calls() {
        let src = r#"
            .func callee
                ret
            .endfunc
            .func _start global
                call callee
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let m = assemble("d", src).unwrap();
        let dis = Disassembly::of_module(&m).unwrap();
        let call_line = dis.line_at(8).unwrap();
        assert!(call_line.text.contains("<callee>"), "{}", call_line.text);
        assert_eq!(call_line.function.as_deref(), Some("_start"));
    }

    #[test]
    fn every_insn_formats_nonempty() {
        let src = r#"
            .func f
                add x1, x2, x3
                addi x1, x2, 5
                ld.8 x1, [x2+x3*8+16]
                st.4 x1, [x2-4]
                cmovz x1, x2, x3
                fadd f0, f1, f2
                feq x1, f0, f1
                ret
            .endfunc
        "#;
        let m = assemble("f", src).unwrap();
        let dis = Disassembly::of_module(&m).unwrap();
        for line in dis.lines() {
            assert!(!line.text.is_empty());
        }
        let printed = dis.to_string();
        assert!(printed.contains("<f>"));
        assert!(printed.contains("[x2+x3*8+16]"));
    }

    #[test]
    fn function_lines_filter() {
        let src = r#"
            .func a
                nop
                ret
            .endfunc
            .func b
                nop
                nop
                ret
            .endfunc
        "#;
        let m = assemble("g", src).unwrap();
        let dis = Disassembly::of_module(&m).unwrap();
        assert_eq!(dis.function_lines("a").count(), 2);
        assert_eq!(dis.function_lines("b").count(), 3);
    }
}
