//! Module-to-text renderer: the inverse of the text assembler.
//!
//! [`module_to_text`] prints a builder-produced [`Module`] in the dialect
//! that [`crate::asm::text`] parses, such that re-assembling the output
//! reproduces the original text and data sections byte for byte. This is the
//! drift detector for programmatic rewriters (the optimizer): any builder or
//! encoder change that breaks the round-trip fails loudly instead of hiding
//! inside an opaque binary diff.
//!
//! The renderer is deliberately strict: modules whose layout could not have
//! come from the [`Asm`](crate::asm::Asm) builder (unaligned data objects,
//! relocations on unexpected instructions, loader-generated `jmpgot` stubs)
//! are rejected rather than printed wrongly.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use crate::error::IsaError;
use crate::insn::{Cond, Insn, INSN_BYTES};
use crate::module::{Module, Reloc, Section, Symbol, SymbolKind};
use crate::reg::Gpr;

fn bad(msg: impl Into<String>) -> IsaError {
    IsaError::BadModule(msg.into())
}

/// Renders `module` as text assembly that [`crate::assemble`] parses back
/// into a module with byte-identical text and data sections.
///
/// # Errors
///
/// Returns [`IsaError::BadModule`] when the module uses a feature the text
/// dialect cannot express: `jmpgot` instructions, relocations on anything
/// but `li`/`call`, sized text objects, or data layouts the builder's
/// 8-byte object alignment cannot reproduce.
pub fn module_to_text(module: &Module) -> Result<String, IsaError> {
    let mut out = String::new();
    let _ = writeln!(out, "; generated from module `{}`", module.name);
    let _ = writeln!(out, ".module {}", module.name);
    for imp in &module.imports {
        let _ = writeln!(out, ".import {imp}");
    }

    render_data(module, &mut out)?;
    render_bss(module, &mut out)?;
    render_text(module, &mut out)?;

    if let Some(entry) = module.entry {
        let func = module
            .functions()
            .into_iter()
            .find(|f| f.offset == entry)
            .ok_or_else(|| bad(format!("entry {entry:#x} is not a function start")))?;
        let _ = writeln!(out, ".entry {}", func.name);
    }
    Ok(out)
}

fn render_data(module: &Module, out: &mut String) -> Result<(), IsaError> {
    let mut objects: Vec<&Symbol> = module
        .symbols
        .iter()
        .filter(|s| s.section == Section::Data)
        .collect();
    if objects.is_empty() {
        if !module.data.is_empty() {
            return Err(bad("data bytes without any data symbol"));
        }
        return Ok(());
    }
    objects.sort_by_key(|s| s.offset);
    out.push_str(".data\n");
    // Replay the builder's placement: each object is 8-aligned, with zero
    // padding in between. Anything else cannot be reproduced from text.
    let mut cursor: u64 = 0;
    for sym in objects {
        let aligned = (cursor + 7) & !7;
        if sym.offset != aligned {
            return Err(bad(format!(
                "data object `{}` at {} breaks builder alignment (expected {aligned})",
                sym.name, sym.offset
            )));
        }
        if module.data[cursor as usize..aligned as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(bad("nonzero padding between data objects"));
        }
        let end = sym.offset + sym.size;
        if end > module.data.len() as u64 {
            return Err(bad(format!("data object `{}` out of range", sym.name)));
        }
        let bytes = &module.data[sym.offset as usize..end as usize];
        if bytes.iter().all(|&b| b == 0) {
            let _ = writeln!(out, "{}: .zero {}", sym.name, sym.size);
        } else {
            let list: Vec<String> = bytes.iter().map(|b| b.to_string()).collect();
            let _ = writeln!(out, "{}: .u8 {}", sym.name, list.join(", "));
        }
        cursor = end;
    }
    if cursor != module.data.len() as u64 {
        return Err(bad("trailing data bytes not covered by any symbol"));
    }
    Ok(())
}

fn render_bss(module: &Module, out: &mut String) -> Result<(), IsaError> {
    let mut objects: Vec<&Symbol> = module
        .symbols
        .iter()
        .filter(|s| s.section == Section::Bss)
        .collect();
    if objects.is_empty() {
        if module.bss_size != 0 {
            return Err(bad("bss bytes without any bss symbol"));
        }
        return Ok(());
    }
    objects.sort_by_key(|s| s.offset);
    out.push_str(".bss\n");
    let mut cursor: u64 = 0;
    for sym in objects {
        let aligned = (cursor + 7) & !7;
        if sym.offset != aligned {
            return Err(bad(format!(
                "bss object `{}` at {} breaks builder alignment (expected {aligned})",
                sym.name, sym.offset
            )));
        }
        let _ = writeln!(out, "{}: .space {}", sym.name, sym.size);
        cursor = sym.offset + sym.size;
    }
    if cursor != module.bss_size {
        return Err(bad("bss size does not match its objects"));
    }
    Ok(())
}

fn render_text(module: &Module, out: &mut String) -> Result<(), IsaError> {
    let relocs: BTreeMap<u64, &Reloc> = {
        let mut map = BTreeMap::new();
        for r in &module.relocs {
            if map.insert(r.text_offset, r).is_some() {
                return Err(bad(format!("two relocations at {:#x}", r.text_offset)));
            }
        }
        map
    };

    // Name every branch-target offset: function names and text-object
    // (anchor) names win, everything else gets a synthetic local label.
    let taken: HashSet<&str> = module
        .symbols
        .iter()
        .map(|s| s.name.as_str())
        .chain(module.imports.iter().map(String::as_str))
        .collect();
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut anchors: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for sym in &module.symbols {
        if sym.section != Section::Text {
            continue;
        }
        if sym.kind == SymbolKind::Object {
            if sym.size != 0 {
                return Err(bad(format!("sized text object `{}`", sym.name)));
            }
            anchors.entry(sym.offset).or_default().push(&sym.name);
        }
        names.entry(sym.offset).or_insert_with(|| sym.name.clone());
    }
    for (off, insn) in module.insns() {
        if relocs.contains_key(&off) {
            continue;
        }
        if let Some(t) = insn.direct_target() {
            names.entry(t as u64).or_insert_with(|| {
                let mut label = format!("L{t:x}");
                while taken.contains(label.as_str()) {
                    label.push('_');
                }
                label
            });
        }
    }

    let functions = module.functions();
    for pair in functions.windows(2) {
        if pair[0].offset + pair[0].size > pair[1].offset {
            return Err(bad("overlapping function symbols"));
        }
    }
    let func_starts: BTreeMap<u64, &Symbol> = functions.iter().map(|f| (f.offset, *f)).collect();
    let func_ends: HashSet<u64> = functions.iter().map(|f| f.offset + f.size).collect();

    out.push_str(".text\n");
    let mut in_func = false;
    for (off, insn) in module.insns() {
        if in_func && func_ends.contains(&off) && func_starts.contains_key(&off) {
            out.push_str(".endfunc\n");
            in_func = false;
        }
        if let Some(f) = func_starts.get(&off) {
            if in_func {
                return Err(bad(format!("function `{}` starts inside another", f.name)));
            }
            let global = if f.global { " global" } else { "" };
            let _ = writeln!(out, ".func {}{global}", f.name);
            in_func = true;
        }
        for anchor in anchors.get(&off).map(Vec::as_slice).unwrap_or(&[]) {
            let _ = writeln!(out, "{anchor}:");
        }
        if let Some(label) = names.get(&off) {
            // Function names are bound by `.func`, anchors by their own line.
            let covered = func_starts.get(&off).is_some_and(|f| f.name == *label)
                || anchors
                    .get(&off)
                    .is_some_and(|a| a.iter().any(|n| *n == label));
            if !covered {
                let _ = writeln!(out, "{label}:");
            }
        }
        if let Some(idx) = module.line_table.iter().position(|e| e.text_offset == off) {
            let entry = module.line_table[idx];
            let file = &module.files[entry.file as usize];
            let _ = writeln!(out, ".loc \"{file}\" {}", entry.line);
        }
        let rendered = match relocs.get(&off) {
            Some(r) => render_reloc_insn(module, &insn, r)?,
            None => render_insn(&insn, &names, off)?,
        };
        let _ = writeln!(out, "    {rendered}");
        if in_func && func_ends.contains(&(off + INSN_BYTES)) {
            // Close at the boundary; reopened above if another starts there.
            let next_starts = func_starts.contains_key(&(off + INSN_BYTES));
            if !next_starts {
                out.push_str(".endfunc\n");
                in_func = false;
            }
        }
    }
    if in_func {
        out.push_str(".endfunc\n");
    }
    Ok(())
}

fn render_reloc_insn(module: &Module, insn: &Insn, reloc: &Reloc) -> Result<String, IsaError> {
    match insn {
        Insn::Li { rd, imm: 0 } => Ok(match reloc.addend {
            0 => format!("la {rd}, {}", reloc.symbol),
            a if a > 0 => format!("la {rd}, {}+{a}", reloc.symbol),
            a => format!("la {rd}, {}{a}", reloc.symbol),
        }),
        Insn::Call { target: 0 } if reloc.addend == 0 => {
            if !module.imports.contains(&reloc.symbol) {
                return Err(bad(format!(
                    "call relocation against non-import `{}`",
                    reloc.symbol
                )));
            }
            Ok(format!("call {}", reloc.symbol))
        }
        other => Err(bad(format!(
            "relocation on unexpected instruction {other:?}"
        ))),
    }
}

fn mem(base: Gpr, index: Option<(Gpr, crate::insn::Scale)>, disp: i32) -> String {
    let mut s = format!("[{base}");
    if let Some((idx, scale)) = index {
        let _ = write!(s, "+{idx}*{}", scale.factor());
    }
    if disp != 0 {
        let _ = write!(s, "{disp:+}");
    }
    s.push(']');
    s
}

fn render_insn(
    insn: &Insn,
    names: &BTreeMap<u64, String>,
    offset: u64,
) -> Result<String, IsaError> {
    let target_name = |t: u32| -> Result<&str, IsaError> {
        names
            .get(&(t as u64))
            .map(String::as_str)
            .ok_or_else(|| bad(format!("unnamed branch target {t:#x} at {offset:#x}")))
    };
    Ok(match *insn {
        Insn::Nop => "nop".into(),
        Insn::Alu { op, rd, rs1, rs2 } => format!("{} {rd}, {rs1}, {rs2}", op.mnemonic()),
        Insn::AluImm { op, rd, rs1, imm } => format!("{}i {rd}, {rs1}, {imm}", op.mnemonic()),
        Insn::Li { rd, imm } => format!("li {rd}, {imm}"),
        Insn::Lui { rd, imm } => format!("lui {rd}, {imm}"),
        Insn::Mov { rd, rs } => format!("mov {rd}, {rs}"),
        Insn::Cmov { cond, rd, rs, rc } => {
            let mn = match cond {
                Cond::Eq => "cmovz",
                Cond::Ne => "cmovnz",
                other => return Err(bad(format!("cmov with condition {other:?}"))),
            };
            format!("{mn} {rd}, {rs}, {rc}")
        }
        Insn::SetCond { cond, rd, rs1, rs2 } => {
            format!("set.{} {rd}, {rs1}, {rs2}", cond.mnemonic())
        }
        Insn::Ld {
            width,
            rd,
            base,
            disp,
        } => {
            format!("ld.{width} {rd}, {}", mem(base, None, disp))
        }
        Insn::St {
            width,
            rs,
            base,
            disp,
        } => {
            format!("st.{width} {rs}, {}", mem(base, None, disp))
        }
        Insn::Ldx {
            width,
            rd,
            base,
            index,
            scale,
            disp,
        } => {
            format!("ld.{width} {rd}, {}", mem(base, Some((index, scale)), disp))
        }
        Insn::Stx {
            width,
            rs,
            base,
            index,
            scale,
            disp,
        } => {
            format!("st.{width} {rs}, {}", mem(base, Some((index, scale)), disp))
        }
        Insn::Prefetch { base, disp } => format!("prefetch {}", mem(base, None, disp)),
        Insn::Push { rs } => format!("push {rs}"),
        Insn::Pop { rd } => format!("pop {rd}"),
        Insn::Jmp { target } => format!("jmp {}", target_name(target)?),
        Insn::B {
            cond,
            rs1,
            rs2,
            target,
        } => {
            format!(
                "b{} {rs1}, {rs2}, {}",
                cond.mnemonic(),
                target_name(target)?
            )
        }
        Insn::Jr { rs } => format!("jr {rs}"),
        Insn::JmpGot { .. } => return Err(bad("jmpgot is loader-generated, not printable")),
        Insn::Call { target } => format!("call {}", target_name(target)?),
        Insn::Callr { rs } => format!("callr {rs}"),
        Insn::Ret => "ret".into(),
        Insn::Syscall => "syscall".into(),
        Insn::Fp { op, fd, fs1, fs2 } => format!("{} {fd}, {fs1}, {fs2}", op.mnemonic()),
        Insn::Fsqrt { fd, fs } => format!("fsqrt {fd}, {fs}"),
        Insn::Fneg { fd, fs } => format!("fneg {fd}, {fs}"),
        Insn::Fmov { fd, fs } => format!("fmov {fd}, {fs}"),
        Insn::Fcmp { cmp, rd, fs1, fs2 } => {
            format!("{} {rd}, {fs1}, {fs2}", cmp.mnemonic())
        }
        Insn::Fcvtif { fd, rs } => format!("fcvtif {fd}, {rs}"),
        Insn::Fcvtfi { rd, fs } => format!("fcvtfi {rd}, {fs}"),
        Insn::Fld { fd, base, disp } => format!("fld {fd}, {}", mem(base, None, disp)),
        Insn::Fst { fs, base, disp } => format!("fst {fs}, {}", mem(base, None, disp)),
        Insn::Fldx {
            fd,
            base,
            index,
            scale,
            disp,
        } => {
            format!("fld {fd}, {}", mem(base, Some((index, scale)), disp))
        }
        Insn::Fstx {
            fs,
            base,
            index,
            scale,
            disp,
        } => {
            format!("fst {fs}, {}", mem(base, Some((index, scale)), disp))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::text::assemble;

    fn round_trip(src: &str) {
        let original = assemble("rt", src).expect("assemble original");
        let text = module_to_text(&original).expect("render");
        let again = assemble("rt", &text).unwrap_or_else(|e| panic!("reassemble: {e}\n{text}"));
        assert_eq!(original.text, again.text, "text bytes differ:\n{text}");
        assert_eq!(original.data, again.data, "data bytes differ:\n{text}");
        assert_eq!(original.bss_size, again.bss_size, "{text}");
        assert_eq!(original.entry, again.entry, "{text}");
    }

    #[test]
    fn round_trips_control_flow_and_data() {
        round_trip(
            r#"
            .import helper
            .data
            table: .u64 1, 2, 3
            msg:   .ascii "hi"
            .bss
            buf:   .space 100
            .func inner
                addi x0, x1, 1
                ret
            .endfunc
            .func _start global
            .loc "a.c" 3
                li x8, 5
                la x1, table
                la x2, table+8
            loop:
            .loc "a.c" 4
                call inner
                call helper
                subi x8, x8, 1
                bne x8, x9, loop
                ld.8 x3, [x1+8]
                st.4 x3, [x1+x8*4-4]
                fld f0, [x1]
                fadd f1, f0, f0
                set.ltu x4, x8, x9
                cmovnz x4, x8, x9
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
    }

    #[test]
    fn round_trips_anchors_and_indirect_calls() {
        round_trip(
            r#"
            .func _start global
                la x6, spot
                jr x6
                nop
            spot:
                la x7, _start
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
    }

    #[test]
    fn rejects_unprintable_modules() {
        let mut m = assemble(
            "r",
            ".func _start global\n li x0, 0\n syscall\n.endfunc\n.entry _start\n",
        )
        .unwrap();
        m.relocs.push(crate::module::Reloc {
            text_offset: 8,
            symbol: "_start".into(),
            addend: 0,
        });
        assert!(module_to_text(&m).is_err());
    }
}
