//! The object/module format — the "binary executable" of this workspace.
//!
//! A [`Module`] is the unit the profiler stack operates on, standing in for
//! an ELF shared object or executable. It carries:
//!
//! * an encoded text section (fixed 8-byte instructions),
//! * initialized data and a BSS size,
//! * a symbol table with function sizes (what `objdump -t` would print),
//! * imports resolved at load time through loader-generated PLT/GOT stubs,
//! * relocations for symbolic immediates (absolute-address constants),
//! * a DWARF-like line table mapping text offsets to source file and line.
//!
//! OptiWISE keys every datum on `(module, offset)` pairs because ASLR makes
//! absolute addresses unstable across runs (§IV-A); the loader in `wiser-sim`
//! randomizes base addresses to force exactly that discipline.

use std::collections::HashMap;
use std::fmt;

use crate::encode::decode_at;
use crate::error::IsaError;
use crate::insn::{Insn, INSN_BYTES};

/// Which section a symbol or relocation refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Section {
    /// Executable code.
    Text,
    /// Initialized data.
    Data,
    /// Zero-initialized data.
    Bss,
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Section::Text => f.write_str(".text"),
            Section::Data => f.write_str(".data"),
            Section::Bss => f.write_str(".bss"),
        }
    }
}

/// Kind of a symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A function in the text section.
    Func,
    /// A data object.
    Object,
}

/// One symbol-table entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Section the symbol lives in.
    pub section: Section,
    /// Byte offset within the section.
    pub offset: u64,
    /// Size in bytes (function sizes let the disassembler attribute
    /// instructions to functions, as `objdump` does).
    pub size: u64,
    /// Function or data object.
    pub kind: SymbolKind,
    /// Whether the symbol is visible to other modules.
    pub global: bool,
}

impl Symbol {
    /// Whether this is a function symbol in the text section.
    pub fn is_text_function(&self) -> bool {
        self.kind == SymbolKind::Func && self.section == Section::Text
    }
}

/// A relocation patching the 32-bit immediate field of the instruction at
/// `text_offset` with the absolute address of `symbol` plus `addend`.
///
/// This mirrors `R_X86_64_32`-style absolute relocations: the assembler emits
/// them for `la` (load-address) pseudo-instructions and for direct calls to
/// imported functions (which the loader redirects through PLT stubs).
#[derive(Clone, Debug, PartialEq)]
pub struct Reloc {
    /// Offset of the *instruction* whose immediate field is patched.
    pub text_offset: u64,
    /// Name of the local or imported symbol.
    pub symbol: String,
    /// Constant added to the symbol address.
    pub addend: i64,
}

/// One line-table entry: instructions at `text_offset` and beyond (until the
/// next entry) map to `line` of `file`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineEntry {
    /// Text offset where this source position starts applying.
    pub text_offset: u64,
    /// Index into [`Module::files`].
    pub file: u32,
    /// 1-based source line.
    pub line: u32,
}

/// A loadable module: the executable format consumed by the loader,
/// disassembler and profiler.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Module name (e.g. `"a.out"` or `"libqsort.so"`).
    pub name: String,
    /// Encoded text section.
    pub text: Vec<u8>,
    /// Initialized data section.
    pub data: Vec<u8>,
    /// Size of the zero-initialized section.
    pub bss_size: u64,
    /// Symbol table.
    pub symbols: Vec<Symbol>,
    /// Names of symbols imported from other modules.
    pub imports: Vec<String>,
    /// Relocations applied by the loader.
    pub relocs: Vec<Reloc>,
    /// Source file names referenced by the line table.
    pub files: Vec<String>,
    /// Line table, sorted by `text_offset`.
    pub line_table: Vec<LineEntry>,
    /// Text offset of the entry point, if this module is executable.
    pub entry: Option<u64>,
}

impl Module {
    /// Creates an empty module with the given name.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Number of instructions in the text section.
    pub fn insn_count(&self) -> u64 {
        self.text.len() as u64 / INSN_BYTES
    }

    /// Decodes the instruction at the given text offset.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadEncoding`] for unaligned or out-of-range
    /// offsets.
    pub fn insn_at(&self, offset: u64) -> Result<Insn, IsaError> {
        decode_at(&self.text, offset)
    }

    /// Iterates over `(offset, instruction)` pairs of the whole text section.
    ///
    /// # Panics
    ///
    /// Panics if the text section contains undecodable bytes; modules built
    /// by the assembler are always decodable.
    pub fn insns(&self) -> impl Iterator<Item = (u64, Insn)> + '_ {
        (0..self.insn_count()).map(move |i| {
            let off = i * INSN_BYTES;
            (off, self.insn_at(off).expect("corrupt text section"))
        })
    }

    /// Finds the function symbol containing the given text offset: the
    /// first in symbol order, should two overlap.
    pub fn function_at(&self, offset: u64) -> Option<&Symbol> {
        self.function_index_at(offset).map(|k| &self.symbols[k])
    }

    /// The index in `symbols` of [`Module::function_at`].
    pub fn function_index_at(&self, offset: u64) -> Option<usize> {
        self.symbols
            .iter()
            .position(|s| s.is_text_function() && offset >= s.offset && offset < s.offset + s.size)
    }

    /// The index in `symbols` of [`Module::function_at`] of each
    /// instruction, by instruction index (`offset / INSN_BYTES`), or
    /// `None`: every lookup of the text at once, in one pass over the
    /// symbols.
    pub fn function_index_by_insn(&self) -> Vec<Option<u32>> {
        let mut at = vec![None; self.insn_count() as usize];
        // Last symbol first, so the first one covering an instruction is
        // the one left there.
        for (k, s) in self.symbols.iter().enumerate().rev() {
            if !s.is_text_function() {
                continue;
            }
            let first = s.offset.div_ceil(INSN_BYTES).min(at.len() as u64) as usize;
            let end = s.offset.saturating_add(s.size).div_ceil(INSN_BYTES);
            let end = end.min(at.len() as u64) as usize;
            for slot in &mut at[first..end.max(first)] {
                *slot = Some(k as u32);
            }
        }
        at
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Source file and line covering the given text offset, if known.
    pub fn line_at(&self, offset: u64) -> Option<(&str, u32)> {
        let idx = match self
            .line_table
            .binary_search_by_key(&offset, |e| e.text_offset)
        {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let entry = &self.line_table[idx];
        let file = self.files.get(entry.file as usize)?;
        Some((file, entry.line))
    }

    /// All function symbols, sorted by text offset.
    pub fn functions(&self) -> Vec<&Symbol> {
        let mut funcs: Vec<&Symbol> = self
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Func && s.section == Section::Text)
            .collect();
        funcs.sort_by_key(|s| s.offset);
        funcs
    }

    /// Validates module invariants: aligned text, sorted line table, symbols
    /// in range, imports distinct from local symbols, entry within text.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadModule`] describing the first violation found,
    /// or [`IsaError::BadEncoding`] if any text bytes fail to decode.
    pub fn validate(&self) -> Result<(), IsaError> {
        if !(self.text.len() as u64).is_multiple_of(INSN_BYTES) {
            return Err(IsaError::BadModule(format!(
                "text size {} is not a multiple of {INSN_BYTES}",
                self.text.len()
            )));
        }
        for i in 0..self.insn_count() {
            decode_at(&self.text, i * INSN_BYTES)?;
        }
        let mut seen: HashMap<&str, ()> = HashMap::new();
        for sym in &self.symbols {
            if seen.insert(sym.name.as_str(), ()).is_some() {
                return Err(IsaError::DuplicateSymbol(sym.name.clone()));
            }
            let limit = match sym.section {
                Section::Text => self.text.len() as u64,
                Section::Data => self.data.len() as u64,
                Section::Bss => self.bss_size,
            };
            if sym.offset > limit || sym.offset + sym.size > limit {
                return Err(IsaError::BadModule(format!(
                    "symbol `{}` exceeds its section ({}+{} > {limit})",
                    sym.name, sym.offset, sym.size
                )));
            }
        }
        for imp in &self.imports {
            if seen.contains_key(imp.as_str()) {
                return Err(IsaError::BadModule(format!(
                    "symbol `{imp}` is both defined and imported"
                )));
            }
        }
        for reloc in &self.relocs {
            if reloc.text_offset % INSN_BYTES != 0 || reloc.text_offset >= self.text.len() as u64 {
                return Err(IsaError::BadModule(format!(
                    "relocation at bad text offset {}",
                    reloc.text_offset
                )));
            }
            let local = seen.contains_key(reloc.symbol.as_str());
            let imported = self.imports.contains(&reloc.symbol);
            if !local && !imported {
                return Err(IsaError::UndefinedSymbol(reloc.symbol.clone()));
            }
        }
        if !self
            .line_table
            .windows(2)
            .all(|w| w[0].text_offset <= w[1].text_offset)
        {
            return Err(IsaError::BadModule("line table not sorted".into()));
        }
        for entry in &self.line_table {
            if entry.file as usize >= self.files.len() {
                return Err(IsaError::BadModule(format!(
                    "line entry references unknown file index {}",
                    entry.file
                )));
            }
        }
        if let Some(entry) = self.entry {
            if entry % INSN_BYTES != 0 || entry >= self.text.len() as u64 {
                return Err(IsaError::BadModule(format!("entry point {entry} invalid")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_insn;

    fn tiny_module() -> Module {
        let mut m = Module::new("tiny");
        for insn in [Insn::Nop, Insn::Nop, Insn::Ret] {
            m.text.extend_from_slice(&encode_insn(&insn));
        }
        m.symbols.push(Symbol {
            name: "main".into(),
            section: Section::Text,
            offset: 0,
            size: 24,
            kind: SymbolKind::Func,
            global: true,
        });
        m.files.push("tiny.s".into());
        m.line_table.push(LineEntry {
            text_offset: 0,
            file: 0,
            line: 1,
        });
        m.line_table.push(LineEntry {
            text_offset: 16,
            file: 0,
            line: 2,
        });
        m.entry = Some(0);
        m
    }

    #[test]
    fn valid_module_passes() {
        tiny_module().validate().unwrap();
    }

    #[test]
    fn function_lookup() {
        let m = tiny_module();
        assert_eq!(m.function_at(8).unwrap().name, "main");
        assert!(m.function_at(24).is_none());
    }

    #[test]
    fn function_index_by_insn_matches_function_at() {
        let mut m = tiny_module();
        for _ in 0..9 {
            m.text.extend_from_slice(&encode_insn(&Insn::Nop));
        }
        let func = |name: &str, offset, size| Symbol {
            name: name.into(),
            section: Section::Text,
            offset,
            size,
            kind: SymbolKind::Func,
            global: false,
        };
        // Overlapping, unaligned, zero-sized, past-the-end and data symbols.
        m.symbols.push(func("inner", 16, 16));
        m.symbols.push(func("late", 30, 20));
        m.symbols.push(func("empty", 64, 0));
        m.symbols.push(func("tail", 88, 1000));
        m.symbols.push(Symbol {
            kind: SymbolKind::Object,
            ..func("table", 40, 16)
        });
        m.symbols.push(Symbol {
            section: Section::Data,
            ..func("data_fn", 72, 8)
        });
        let by_insn = m.function_index_by_insn();
        assert_eq!(by_insn.len() as u64, m.insn_count());
        for (i, &k) in by_insn.iter().enumerate() {
            let want = m
                .function_at(i as u64 * INSN_BYTES)
                .map(|s| s.name.as_str());
            let got = k.map(|k| m.symbols[k as usize].name.as_str());
            assert_eq!(got, want, "instruction {i}");
        }
    }

    #[test]
    fn line_lookup() {
        let m = tiny_module();
        assert_eq!(m.line_at(0), Some(("tiny.s", 1)));
        assert_eq!(m.line_at(8), Some(("tiny.s", 1)));
        assert_eq!(m.line_at(16), Some(("tiny.s", 2)));
    }

    #[test]
    fn misaligned_text_rejected() {
        let mut m = tiny_module();
        m.text.push(0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn oversized_symbol_rejected() {
        let mut m = tiny_module();
        m.symbols[0].size = 1000;
        assert!(m.validate().is_err());
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let mut m = tiny_module();
        let dup = m.symbols[0].clone();
        m.symbols.push(dup);
        assert!(matches!(m.validate(), Err(IsaError::DuplicateSymbol(_))));
    }

    #[test]
    fn dangling_reloc_rejected() {
        let mut m = tiny_module();
        m.relocs.push(Reloc {
            text_offset: 0,
            symbol: "nowhere".into(),
            addend: 0,
        });
        assert!(matches!(m.validate(), Err(IsaError::UndefinedSymbol(_))));
    }

    #[test]
    fn import_conflict_rejected() {
        let mut m = tiny_module();
        m.imports.push("main".into());
        assert!(m.validate().is_err());
    }

    #[test]
    fn bad_entry_rejected() {
        let mut m = tiny_module();
        m.entry = Some(100);
        assert!(m.validate().is_err());
    }

    #[test]
    fn insn_iteration() {
        let m = tiny_module();
        let insns: Vec<_> = m.insns().collect();
        assert_eq!(insns.len(), 3);
        assert_eq!(insns[2], (16, Insn::Ret));
    }
}
