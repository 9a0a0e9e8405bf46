//! Programmatic assembler.
//!
//! [`Asm`] builds a [`Module`] instruction by instruction, with forward label
//! references, function/symbol bookkeeping, data/bss emission, source-line
//! annotations and relocations for symbolic addresses. The text-syntax
//! front-end in [`crate::asm::text`] lowers onto this builder.

use std::collections::HashMap;

use crate::encode::encode_insn;
use crate::error::IsaError;
use crate::insn::{AluOp, Cond, FpCmp, FpOp, Insn, Scale, Width, INSN_BYTES};
use crate::module::{LineEntry, Module, Reloc, Section, Symbol, SymbolKind};
use crate::reg::{Fpr, Gpr};

/// An opaque handle to a code label created by [`Asm::new_label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A branch/call target: either a label handle or a symbol name.
#[derive(Clone, Debug)]
pub enum Target {
    /// A label within the current module.
    Label(Label),
    /// A named symbol — local (resolved at assembly) or imported (resolved by
    /// the loader through a PLT stub).
    Symbol(String),
}

impl From<Label> for Target {
    fn from(l: Label) -> Target {
        Target::Label(l)
    }
}

impl From<&str> for Target {
    fn from(s: &str) -> Target {
        Target::Symbol(s.to_string())
    }
}

impl From<String> for Target {
    fn from(s: String) -> Target {
        Target::Symbol(s)
    }
}

struct PendingTarget {
    insn_index: usize,
    target: Target,
}

struct PendingLa {
    insn_index: usize,
    symbol: String,
    addend: i64,
}

struct OpenFunc {
    name: String,
    start: u64,
    global: bool,
}

/// The programmatic assembler.
///
/// # Examples
///
/// ```
/// use wiser_isa::asm::Asm;
/// use wiser_isa::{Gpr, AluOp};
///
/// let mut asm = Asm::new("demo");
/// let x0 = Gpr::new(0).unwrap();
/// let x1 = Gpr::new(1).unwrap();
/// asm.func("_start", true);
/// asm.li(x1, 41);
/// asm.alu_imm(AluOp::Add, x1, x1, 1);
/// asm.li(x0, 0); // syscall number 0 = exit
/// asm.syscall();
/// asm.endfunc();
/// asm.set_entry("_start");
/// let module = asm.finish().unwrap();
/// assert_eq!(module.insn_count(), 4);
/// ```
pub struct Asm {
    name: String,
    insns: Vec<Insn>,
    labels: Vec<Option<u64>>,
    label_names: HashMap<String, Label>,
    pending_targets: Vec<PendingTarget>,
    pending_las: Vec<PendingLa>,
    data: Vec<u8>,
    bss_size: u64,
    symbols: Vec<Symbol>,
    imports: Vec<String>,
    files: Vec<String>,
    line_table: Vec<LineEntry>,
    current_loc: Option<(u32, u32)>,
    last_emitted_loc: Option<(u32, u32)>,
    open_func: Option<OpenFunc>,
    entry_symbol: Option<String>,
}

impl Asm {
    /// Creates an assembler for a module with the given name.
    pub fn new(name: impl Into<String>) -> Asm {
        Asm {
            name: name.into(),
            insns: Vec::new(),
            labels: Vec::new(),
            label_names: HashMap::new(),
            pending_targets: Vec::new(),
            pending_las: Vec::new(),
            data: Vec::new(),
            bss_size: 0,
            symbols: Vec::new(),
            imports: Vec::new(),
            files: Vec::new(),
            line_table: Vec::new(),
            current_loc: None,
            last_emitted_loc: None,
            open_func: None,
            entry_symbol: None,
        }
    }

    /// Current text offset (address of the next emitted instruction).
    pub fn here(&self) -> u64 {
        self.insns.len() as u64 * INSN_BYTES
    }

    /// Creates a fresh unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Returns the label with the given name, creating it if necessary.
    pub fn named_label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.label_names.get(name) {
            return l;
        }
        let l = self.new_label();
        self.label_names.insert(name.to_string(), l);
        l
    }

    /// Binds `label` to the current text offset.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.here());
    }

    /// Creates and immediately binds a label at the current offset.
    pub fn label_here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Starts a function symbol at the current offset.
    ///
    /// # Panics
    ///
    /// Panics if a function is already open.
    pub fn func(&mut self, name: impl Into<String>, global: bool) {
        assert!(self.open_func.is_none(), "function already open");
        self.open_func = Some(OpenFunc {
            name: name.into(),
            start: self.here(),
            global,
        });
    }

    /// Ends the currently open function, recording its size.
    ///
    /// # Panics
    ///
    /// Panics if no function is open.
    pub fn endfunc(&mut self) {
        let f = self.open_func.take().expect("no open function");
        self.symbols.push(Symbol {
            name: f.name,
            section: Section::Text,
            offset: f.start,
            size: self.here() - f.start,
            kind: SymbolKind::Func,
            global: f.global,
        });
    }

    /// Declares that `name` is imported from another module.
    pub fn import(&mut self, name: impl Into<String>) {
        let name = name.into();
        if !self.imports.contains(&name) {
            self.imports.push(name);
        }
    }

    /// Sets the module entry point to the named function.
    pub fn set_entry(&mut self, name: impl Into<String>) {
        self.entry_symbol = Some(name.into());
    }

    /// Sets the source location attached to subsequently emitted
    /// instructions.
    pub fn loc(&mut self, file: &str, line: u32) {
        let file_idx = match self.files.iter().position(|f| f == file) {
            Some(i) => i as u32,
            None => {
                self.files.push(file.to_string());
                (self.files.len() - 1) as u32
            }
        };
        self.current_loc = Some((file_idx, line));
    }

    /// Emits a raw instruction at the current offset.
    pub fn emit(&mut self, insn: Insn) {
        if self.current_loc != self.last_emitted_loc {
            if let Some((file, line)) = self.current_loc {
                self.line_table.push(LineEntry {
                    text_offset: self.here(),
                    file,
                    line,
                });
            }
            self.last_emitted_loc = self.current_loc;
        }
        self.insns.push(insn);
    }

    // ---- straight-line convenience emitters -------------------------------

    /// `nop`
    pub fn nop(&mut self) {
        self.emit(Insn::Nop);
    }

    /// `rd = op(rs1, rs2)`
    pub fn alu(&mut self, op: AluOp, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.emit(Insn::Alu { op, rd, rs1, rs2 });
    }

    /// `rd = op(rs1, imm)`
    pub fn alu_imm(&mut self, op: AluOp, rd: Gpr, rs1: Gpr, imm: i32) {
        self.emit(Insn::AluImm { op, rd, rs1, imm });
    }

    /// `rd = imm`
    pub fn li(&mut self, rd: Gpr, imm: i32) {
        self.emit(Insn::Li { rd, imm });
    }

    /// Loads an arbitrary 64-bit constant using `li` + `lui`.
    pub fn li64(&mut self, rd: Gpr, value: u64) {
        self.emit(Insn::Li {
            rd,
            imm: value as u32 as i32,
        });
        let hi = (value >> 32) as u32;
        // `li` sign-extends; clear or set the upper half when it differs.
        let sign_extended_hi = if (value as u32 as i32) < 0 {
            u32::MAX
        } else {
            0
        };
        if hi != sign_extended_hi {
            self.emit(Insn::Lui { rd, imm: hi as i32 });
        }
    }

    /// `rd = rs`
    pub fn mov(&mut self, rd: Gpr, rs: Gpr) {
        self.emit(Insn::Mov { rd, rs });
    }

    /// Loads the absolute address of `symbol` (+`addend`) into `rd`.
    ///
    /// Emits a `li` carrying a relocation that the loader patches.
    pub fn la(&mut self, rd: Gpr, symbol: impl Into<String>) {
        self.la_off(rd, symbol, 0);
    }

    /// Like [`Asm::la`] with an extra constant offset.
    pub fn la_off(&mut self, rd: Gpr, symbol: impl Into<String>, addend: i64) {
        let index = self.insns.len();
        self.emit(Insn::Li { rd, imm: 0 });
        self.pending_las.push(PendingLa {
            insn_index: index,
            symbol: symbol.into(),
            addend,
        });
    }

    /// `ld.<width> rd, [base+disp]`
    pub fn ld(&mut self, width: Width, rd: Gpr, base: Gpr, disp: i32) {
        self.emit(Insn::Ld {
            width,
            rd,
            base,
            disp,
        });
    }

    /// `st.<width> rs, [base+disp]`
    pub fn st(&mut self, width: Width, rs: Gpr, base: Gpr, disp: i32) {
        self.emit(Insn::St {
            width,
            rs,
            base,
            disp,
        });
    }

    /// `ldx.<width> rd, [base + index*scale + disp]`
    pub fn ldx(&mut self, width: Width, rd: Gpr, base: Gpr, index: Gpr, scale: Scale, disp: i32) {
        self.emit(Insn::Ldx {
            width,
            rd,
            base,
            index,
            scale,
            disp,
        });
    }

    /// `stx.<width> rs, [base + index*scale + disp]`
    pub fn stx(&mut self, width: Width, rs: Gpr, base: Gpr, index: Gpr, scale: Scale, disp: i32) {
        self.emit(Insn::Stx {
            width,
            rs,
            base,
            index,
            scale,
            disp,
        });
    }

    /// `push rs`
    pub fn push(&mut self, rs: Gpr) {
        self.emit(Insn::Push { rs });
    }

    /// `pop rd`
    pub fn pop(&mut self, rd: Gpr) {
        self.emit(Insn::Pop { rd });
    }

    /// Standard prologue: `push fp; mov fp, sp`. Enables frame-pointer stack
    /// unwinding by the sampling profiler.
    pub fn prologue(&mut self) {
        self.push(Gpr::FP);
        self.mov(Gpr::FP, Gpr::SP);
    }

    /// Standard epilogue matching [`Asm::prologue`]: `mov sp, fp; pop fp`.
    pub fn epilogue(&mut self) {
        self.mov(Gpr::SP, Gpr::FP);
        self.pop(Gpr::FP);
    }

    /// `ret`
    pub fn ret(&mut self) {
        self.emit(Insn::Ret);
    }

    /// `syscall`
    pub fn syscall(&mut self) {
        self.emit(Insn::Syscall);
    }

    /// FP two-operand arithmetic.
    pub fn fp(&mut self, op: FpOp, fd: Fpr, fs1: Fpr, fs2: Fpr) {
        self.emit(Insn::Fp { op, fd, fs1, fs2 });
    }

    /// FP compare into a GPR.
    pub fn fcmp(&mut self, cmp: FpCmp, rd: Gpr, fs1: Fpr, fs2: Fpr) {
        self.emit(Insn::Fcmp { cmp, rd, fs1, fs2 });
    }

    // ---- control transfer --------------------------------------------------

    /// `jmp target`
    pub fn jmp(&mut self, target: impl Into<Target>) {
        let index = self.insns.len();
        self.emit(Insn::Jmp { target: 0 });
        self.pending_targets.push(PendingTarget {
            insn_index: index,
            target: target.into(),
        });
    }

    /// `b<cond> rs1, rs2, target`
    pub fn b(&mut self, cond: Cond, rs1: Gpr, rs2: Gpr, target: impl Into<Target>) {
        let index = self.insns.len();
        self.emit(Insn::B {
            cond,
            rs1,
            rs2,
            target: 0,
        });
        self.pending_targets.push(PendingTarget {
            insn_index: index,
            target: target.into(),
        });
    }

    /// `call target` — `target` may be a label, a local function or an
    /// imported function (resolved through a PLT stub by the loader).
    pub fn call(&mut self, target: impl Into<Target>) {
        let index = self.insns.len();
        self.emit(Insn::Call { target: 0 });
        self.pending_targets.push(PendingTarget {
            insn_index: index,
            target: target.into(),
        });
    }

    /// `jr rs`
    pub fn jr(&mut self, rs: Gpr) {
        self.emit(Insn::Jr { rs });
    }

    /// `callr rs`
    pub fn callr(&mut self, rs: Gpr) {
        self.emit(Insn::Callr { rs });
    }

    // ---- data / bss ---------------------------------------------------------

    /// Defines a data object from raw bytes; returns its data offset.
    pub fn data_object(&mut self, name: impl Into<String>, bytes: &[u8], global: bool) -> u64 {
        // Keep objects 8-byte aligned so u64/f64 loads are natural.
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        let offset = self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        self.symbols.push(Symbol {
            name: name.into(),
            section: Section::Data,
            offset,
            size: bytes.len() as u64,
            kind: SymbolKind::Object,
            global,
        });
        offset
    }

    /// Defines a data object holding little-endian `u64` values.
    pub fn data_u64s(&mut self, name: impl Into<String>, values: &[u64], global: bool) -> u64 {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.data_object(name, &bytes, global)
    }

    /// Defines a data object holding `f64` values.
    pub fn data_f64s(&mut self, name: impl Into<String>, values: &[f64], global: bool) -> u64 {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.data_object(name, &bytes, global)
    }

    /// Reserves `size` zeroed bytes in the BSS; returns the object's offset.
    pub fn bss_object(&mut self, name: impl Into<String>, size: u64, global: bool) -> u64 {
        let offset = (self.bss_size + 7) & !7;
        self.bss_size = offset + size;
        self.symbols.push(Symbol {
            name: name.into(),
            section: Section::Bss,
            offset,
            size,
            kind: SymbolKind::Object,
            global,
        });
        offset
    }

    // ---- finalization -------------------------------------------------------

    /// Resolves labels and symbols and produces the finished [`Module`].
    ///
    /// # Errors
    ///
    /// Returns an error if a label was never bound, a referenced symbol is
    /// neither defined nor imported, a function is still open, or the
    /// resulting module fails validation.
    pub fn finish(mut self) -> Result<Module, IsaError> {
        if let Some(f) = &self.open_func {
            return Err(IsaError::BadModule(format!(
                "function `{}` never closed",
                f.name
            )));
        }
        let mut relocs: Vec<Reloc> = Vec::new();

        // Resolve branch/call targets.
        for pending in std::mem::take(&mut self.pending_targets) {
            let insn_offset = pending.insn_index as u64 * INSN_BYTES;
            match pending.target {
                Target::Label(l) => {
                    let Some(dest) = self.labels[l.0] else {
                        return Err(IsaError::BadModule(format!(
                            "unbound label referenced at text offset {insn_offset}"
                        )));
                    };
                    self.insns[pending.insn_index].set_direct_target(dest as u32);
                }
                Target::Symbol(name) => {
                    if let Some(&l) = self.label_names.get(name.as_str()) {
                        if let Some(dest) = self.labels[l.0] {
                            self.insns[pending.insn_index].set_direct_target(dest as u32);
                            continue;
                        }
                    }
                    if let Some(sym) = self.symbols.iter().find(|s| s.name == name) {
                        if sym.section == Section::Text {
                            self.insns[pending.insn_index].set_direct_target(sym.offset as u32);
                            continue;
                        }
                        return Err(IsaError::BadModule(format!(
                            "branch target `{name}` is not in .text"
                        )));
                    }
                    if self.imports.contains(&name) {
                        // Loader patches this call to the PLT stub.
                        relocs.push(Reloc {
                            text_offset: insn_offset,
                            symbol: name,
                            addend: 0,
                        });
                        continue;
                    }
                    return Err(IsaError::UndefinedSymbol(name));
                }
            }
        }

        // Address-of relocations (la pseudo-instructions). Label-named
        // targets are also permitted and become text-relative relocations on
        // a synthetic local symbol — we instead resolve them to a reloc
        // against the enclosing module by storing the symbol name.
        for pending in std::mem::take(&mut self.pending_las) {
            let defined = self.symbols.iter().any(|s| s.name == pending.symbol)
                || self.imports.contains(&pending.symbol)
                || self.label_names.contains_key(pending.symbol.as_str());
            if !defined {
                return Err(IsaError::UndefinedSymbol(pending.symbol));
            }
            // A named label used with `la` becomes a text symbol so the
            // loader can resolve it.
            if !self.symbols.iter().any(|s| s.name == pending.symbol)
                && !self.imports.contains(&pending.symbol)
            {
                let l = self.label_names[pending.symbol.as_str()];
                let Some(off) = self.labels[l.0] else {
                    return Err(IsaError::BadModule(format!(
                        "unbound label `{}` used with la",
                        pending.symbol
                    )));
                };
                self.symbols.push(Symbol {
                    name: pending.symbol.clone(),
                    section: Section::Text,
                    offset: off,
                    size: 0,
                    kind: SymbolKind::Object,
                    global: false,
                });
            }
            relocs.push(Reloc {
                text_offset: pending.insn_index as u64 * INSN_BYTES,
                symbol: pending.symbol,
                addend: pending.addend,
            });
        }

        let entry = match &self.entry_symbol {
            Some(name) => {
                let sym = self
                    .symbols
                    .iter()
                    .find(|s| s.name == *name && s.section == Section::Text)
                    .ok_or_else(|| IsaError::UndefinedSymbol(name.clone()))?;
                Some(sym.offset)
            }
            None => None,
        };

        let mut text = Vec::with_capacity(self.insns.len() * INSN_BYTES as usize);
        for insn in &self.insns {
            text.extend_from_slice(&encode_insn(insn));
        }

        let module = Module {
            name: self.name,
            text,
            data: self.data,
            bss_size: self.bss_size,
            symbols: self.symbols,
            imports: self.imports,
            relocs,
            files: self.files,
            line_table: self.line_table,
            entry,
        };
        module.validate()?;
        Ok(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u8) -> Gpr {
        Gpr::new(i).unwrap()
    }

    #[test]
    fn forward_label_resolution() {
        let mut asm = Asm::new("t");
        asm.func("_start", true);
        let end = asm.new_label();
        asm.li(x(1), 5);
        asm.b(Cond::Eq, x(1), x(1), end);
        asm.nop();
        asm.bind(end);
        asm.li(x(0), 0);
        asm.syscall();
        asm.endfunc();
        asm.set_entry("_start");
        let m = asm.finish().unwrap();
        match m.insn_at(8).unwrap() {
            Insn::B { target, .. } => assert_eq!(target, 24),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn unbound_label_is_error() {
        let mut asm = Asm::new("t");
        asm.func("_start", true);
        let nowhere = asm.new_label();
        asm.jmp(nowhere);
        asm.endfunc();
        assert!(asm.finish().is_err());
    }

    #[test]
    fn call_local_function_by_name() {
        let mut asm = Asm::new("t");
        asm.func("callee", false);
        asm.ret();
        asm.endfunc();
        asm.func("_start", true);
        asm.call("callee");
        asm.li(x(0), 0);
        asm.syscall();
        asm.endfunc();
        asm.set_entry("_start");
        let m = asm.finish().unwrap();
        match m.insn_at(8).unwrap() {
            Insn::Call { target } => assert_eq!(target, 0),
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn call_import_produces_reloc() {
        let mut asm = Asm::new("t");
        asm.import("qsort");
        asm.func("_start", true);
        asm.call("qsort");
        asm.li(x(0), 0);
        asm.syscall();
        asm.endfunc();
        asm.set_entry("_start");
        let m = asm.finish().unwrap();
        assert_eq!(m.relocs.len(), 1);
        assert_eq!(m.relocs[0].symbol, "qsort");
        assert_eq!(m.relocs[0].text_offset, 0);
    }

    #[test]
    fn undefined_call_is_error() {
        let mut asm = Asm::new("t");
        asm.func("_start", true);
        asm.call("missing");
        asm.endfunc();
        assert!(matches!(asm.finish(), Err(IsaError::UndefinedSymbol(_))));
    }

    #[test]
    fn la_data_symbol() {
        let mut asm = Asm::new("t");
        asm.data_u64s("table", &[1, 2, 3], false);
        asm.func("_start", true);
        asm.la(x(1), "table");
        asm.li(x(0), 0);
        asm.syscall();
        asm.endfunc();
        asm.set_entry("_start");
        let m = asm.finish().unwrap();
        assert_eq!(m.relocs.len(), 1);
        assert_eq!(m.relocs[0].symbol, "table");
        assert_eq!(m.data.len(), 24);
    }

    #[test]
    fn line_table_records_changes() {
        let mut asm = Asm::new("t");
        asm.func("_start", true);
        asm.loc("a.c", 10);
        asm.nop();
        asm.nop();
        asm.loc("a.c", 11);
        asm.nop();
        asm.li(x(0), 0);
        asm.syscall();
        asm.endfunc();
        asm.set_entry("_start");
        let m = asm.finish().unwrap();
        assert_eq!(m.line_table.len(), 2);
        assert_eq!(m.line_at(8), Some(("a.c", 10)));
        assert_eq!(m.line_at(16), Some(("a.c", 11)));
    }

    #[test]
    fn bss_alignment() {
        let mut asm = Asm::new("t");
        let a = asm.bss_object("a", 3, false);
        let b = asm.bss_object("b", 8, false);
        assert_eq!(a, 0);
        assert_eq!(b, 8);
        asm.func("_start", true);
        asm.li(x(0), 0);
        asm.syscall();
        asm.endfunc();
        asm.set_entry("_start");
        assert!(asm.finish().is_ok());
    }

    #[test]
    fn li64_small_values_single_insn() {
        let mut asm = Asm::new("t");
        asm.func("f", false);
        asm.li64(x(1), 7);
        asm.endfunc();
        let m = asm.finish().unwrap();
        assert_eq!(m.insn_count(), 1);
    }

    #[test]
    fn li64_large_values_two_insns() {
        let mut asm = Asm::new("t");
        asm.func("f", false);
        asm.li64(x(1), 0x1234_5678_9abc_def0);
        asm.endfunc();
        let m = asm.finish().unwrap();
        assert_eq!(m.insn_count(), 2);
    }

    #[test]
    fn open_function_is_error() {
        let mut asm = Asm::new("t");
        asm.func("f", false);
        asm.nop();
        assert!(asm.finish().is_err());
    }
}
