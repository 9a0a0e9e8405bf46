//! Process loader: maps modules into memory, applies relocations, builds
//! PLT/GOT stubs for imports, and randomizes base addresses (ASLR).
//!
//! ASLR is what forces OptiWISE to aggregate per-instruction data on
//! `(module, offset)` pairs rather than absolute addresses (§IV-A of the
//! paper); the loader reproduces that constraint by giving every run its own
//! layout when a seed is supplied.
//!
//! Imported functions are reached exactly as with ELF dynamic linking: the
//! `call` is patched to a loader-generated PLT stub, which performs an
//! indirect jump through a GOT slot holding the resolved absolute address.
//! The stub is a *jump*, not a call — the "function call without a call
//! instruction" edge case the paper's stack profiling must handle (§IV-D).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wiser_isa::{encode_insn, Insn, Module, Section, Symbol, SymbolKind, INSN_BYTES};

use crate::error::SimError;
use crate::mem::{Memory, PAGE_SIZE};

/// Identifies a loaded module within a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u32);

impl std::fmt::Display for ModuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A module-relative code location: the stable key OptiWISE uses for all
/// profile data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CodeLoc {
    /// Module the instruction belongs to.
    pub module: ModuleId,
    /// Byte offset within the module's (linked) text section.
    pub offset: u64,
}

impl std::fmt::Display for CodeLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}+{:#x}", self.module, self.offset)
    }
}

/// Loader configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// When `Some`, randomize module base addresses with this seed.
    pub aslr_seed: Option<u64>,
    /// Initial stack pointer (grows down).
    pub stack_top: u64,
    /// Base of the bump-allocated heap serviced by the `alloc` syscall.
    pub heap_base: u64,
    /// Heap size limit in bytes.
    pub heap_size: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            aslr_seed: None,
            stack_top: 0x7800_0000,
            heap_base: 0x4000_0000,
            heap_size: 0x2000_0000,
        }
    }
}

/// One module after loading: its layout and its *linked* image.
///
/// The linked image is the original module with relocations applied and PLT
/// stubs appended to the text section — what `objdump` would show for the
/// loaded binary. Direct branch targets in the linked image remain
/// module-relative; the in-memory copy is rebased to absolute addresses.
#[derive(Clone, Debug)]
pub struct LoadedModule {
    /// Module identity within this process.
    pub id: ModuleId,
    /// Absolute base address of the text section.
    pub base: u64,
    /// Size of the linked text (original text plus PLT stubs).
    pub text_size: u64,
    /// Absolute base of the data section.
    pub data_base: u64,
    /// Absolute base of the BSS.
    pub bss_base: u64,
    /// Absolute base of the GOT (one 8-byte slot per import).
    pub got_base: u64,
    /// The linked module: relocated text + PLT stubs + extended symbols.
    pub linked: Module,
}

impl LoadedModule {
    /// Converts an absolute text address into a module-relative offset.
    pub fn offset_of(&self, addr: u64) -> Option<u64> {
        (addr >= self.base && addr < self.base + self.text_size).then(|| addr - self.base)
    }
}

/// A fully loaded process: memory image, module table and entry point.
#[derive(Clone, Debug)]
pub struct ProcessImage {
    /// Initialized memory (text, data, GOT; BSS is implicit zero).
    pub memory: Memory,
    /// Loaded modules, in load order.
    pub modules: Vec<LoadedModule>,
    /// Absolute entry point.
    pub entry: u64,
    /// Initial stack pointer.
    pub stack_top: u64,
    /// Heap base for the `alloc` syscall.
    pub heap_base: u64,
    /// Heap limit.
    pub heap_end: u64,
}

impl ProcessImage {
    /// Loads one executable module with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`ProcessImage::load`].
    pub fn load_single(module: &Module) -> Result<ProcessImage, SimError> {
        ProcessImage::load(std::slice::from_ref(module), &LoadConfig::default())
    }

    /// Loads a set of modules, resolving imports among them. Exactly one
    /// module must define an entry point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Load`] for unresolved imports, missing or
    /// ambiguous entry points, overlapping layout, or invalid modules.
    pub fn load(modules: &[Module], config: &LoadConfig) -> Result<ProcessImage, SimError> {
        if modules.is_empty() {
            return Err(SimError::Load("no modules to load".into()));
        }
        for m in modules {
            m.validate()
                .map_err(|e| SimError::Load(format!("module `{}`: {e}", m.name)))?;
        }

        let mut rng = config.aslr_seed.map(StdRng::seed_from_u64);

        // Lay out modules: text | data | bss | got, page aligned per module.
        let mut next_free: u64 = 0x0001_0000;
        let mut layouts = Vec::new();
        for module in modules {
            let slide = match &mut rng {
                // Keep bases page-aligned and inside the 31-bit range that
                // 32-bit absolute relocations can express.
                Some(rng) => rng.gen_range(0..0x4000u64) * PAGE_SIZE,
                None => 0,
            };
            let base = align_up(next_free, PAGE_SIZE) + slide;
            let plt_size = module.imports.len() as u64 * INSN_BYTES;
            let text_size = module.text.len() as u64 + plt_size;
            let data_base = align_up(base + text_size, PAGE_SIZE);
            let bss_base = align_up(data_base + module.data.len() as u64, 8);
            let got_base = align_up(bss_base + module.bss_size, 8);
            let end = got_base + module.imports.len() as u64 * 8;
            if end > 0x7000_0000 || end > config.heap_base {
                return Err(SimError::Load(
                    "address space exhausted (module layout would reach the heap region)".into(),
                ));
            }
            layouts.push((base, text_size, data_base, bss_base, got_base));
            next_free = align_up(end, PAGE_SIZE);
        }

        // Global symbol table: name -> absolute address.
        let mut globals: HashMap<&str, u64> = HashMap::new();
        for (module, layout) in modules.iter().zip(&layouts) {
            let (base, _, data_base, bss_base, _) = *layout;
            for sym in &module.symbols {
                if !sym.global {
                    continue;
                }
                let addr = match sym.section {
                    Section::Text => base + sym.offset,
                    Section::Data => data_base + sym.offset,
                    Section::Bss => bss_base + sym.offset,
                };
                if globals.insert(sym.name.as_str(), addr).is_some() {
                    return Err(SimError::Load(format!(
                        "global symbol `{}` defined in multiple modules",
                        sym.name
                    )));
                }
            }
        }

        let mut memory = Memory::new();
        let mut loaded = Vec::new();
        let mut entry = None;

        for (idx, (module, layout)) in modules.iter().zip(&layouts).enumerate() {
            let (base, text_size, data_base, bss_base, got_base) = *layout;
            let id = ModuleId(idx as u32);

            // Resolve this module's imports.
            let mut import_addr: HashMap<&str, (u64, u64)> = HashMap::new(); // name -> (got slot, plt offset)
            for (i, name) in module.imports.iter().enumerate() {
                let resolved = *globals.get(name.as_str()).ok_or_else(|| {
                    SimError::Load(format!(
                        "unresolved import `{name}` in module `{}`",
                        module.name
                    ))
                })?;
                let got_slot = got_base + i as u64 * 8;
                let plt_offset = module.text.len() as u64 + i as u64 * INSN_BYTES;
                memory.write_u64(got_slot, resolved);
                import_addr.insert(name.as_str(), (got_slot, plt_offset));
            }

            // Build the linked text: apply relocations, then append PLT.
            let mut linked = module.clone();
            for reloc in &module.relocs {
                let insn = module.insn_at(reloc.text_offset).map_err(|e| {
                    SimError::Load(format!("bad reloc site in `{}`: {e}", module.name))
                })?;
                let patched = match insn {
                    Insn::Call { .. } => {
                        // Calls to imports go through the PLT stub
                        // (module-relative target in the linked image).
                        let (_, plt_offset) =
                            import_addr.get(reloc.symbol.as_str()).ok_or_else(|| {
                                SimError::Load(format!(
                                    "call reloc to non-import `{}` in `{}`",
                                    reloc.symbol, module.name
                                ))
                            })?;
                        Insn::Call {
                            target: *plt_offset as u32,
                        }
                    }
                    Insn::Li { rd, .. } => {
                        // Address-of: absolute address of the symbol.
                        let addr = if let Some((slot, _)) = import_addr.get(reloc.symbol.as_str()) {
                            // Imported object: read its resolved address.
                            memory.read_u64(*slot)
                        } else {
                            let sym = module.symbol(&reloc.symbol).ok_or_else(|| {
                                SimError::Load(format!(
                                    "reloc against unknown symbol `{}`",
                                    reloc.symbol
                                ))
                            })?;
                            resolve_symbol(sym, base, data_base, bss_base)
                        };
                        let value = (addr as i64 + reloc.addend) as u64;
                        if value > u32::MAX as u64 {
                            return Err(SimError::Load(format!(
                                "relocated address {value:#x} exceeds 32-bit immediate"
                            )));
                        }
                        Insn::Li {
                            rd,
                            imm: value as u32 as i32,
                        }
                    }
                    other => {
                        return Err(SimError::Load(format!(
                            "relocation against unsupported instruction {other:?}"
                        )))
                    }
                };
                let bytes = encode_insn(&patched);
                let at = reloc.text_offset as usize;
                linked.text[at..at + INSN_BYTES as usize].copy_from_slice(&bytes);
            }
            linked.relocs.clear();

            // Append PLT stubs and their synthetic symbols.
            for name in &module.imports {
                let (got_slot, plt_offset) = import_addr[name.as_str()];
                let stub = Insn::JmpGot {
                    slot: got_slot as u32,
                };
                linked.text.extend_from_slice(&encode_insn(&stub));
                linked.symbols.push(Symbol {
                    name: format!("{name}@plt"),
                    section: Section::Text,
                    offset: plt_offset,
                    size: INSN_BYTES,
                    kind: SymbolKind::Func,
                    global: false,
                });
            }
            linked.imports.clear();

            // Write the absolute (rebased) image into memory.
            let mut image = linked.text.clone();
            for i in 0..(image.len() as u64 / INSN_BYTES) {
                let off = (i * INSN_BYTES) as usize;
                let mut buf = [0u8; INSN_BYTES as usize];
                buf.copy_from_slice(&image[off..off + INSN_BYTES as usize]);
                let mut insn = wiser_isa::decode_insn(&buf)
                    .map_err(|e| SimError::Load(format!("undecodable linked text: {e}")))?;
                if let Some(target) = insn.direct_target() {
                    // `la` immediates were already made absolute above. All
                    // direct control-transfer targets — including calls
                    // relocated to PLT stubs — are module-relative in the
                    // linked image and rebase uniformly.
                    let absolute = base + target as u64;
                    insn.set_direct_target(absolute as u32);
                    image[off..off + INSN_BYTES as usize].copy_from_slice(&encode_insn(&insn));
                }
            }
            memory.write_bytes(base, &image);
            memory.write_bytes(data_base, &module.data);

            if let Some(module_entry) = module.entry {
                if entry.is_some() {
                    return Err(SimError::Load("multiple entry points".into()));
                }
                entry = Some(base + module_entry);
            }

            loaded.push(LoadedModule {
                id,
                base,
                text_size,
                data_base,
                bss_base,
                got_base,
                linked,
            });
        }

        let entry = entry.ok_or_else(|| SimError::Load("no entry point".into()))?;
        Ok(ProcessImage {
            memory,
            modules: loaded,
            entry,
            stack_top: config.stack_top,
            heap_base: config.heap_base,
            heap_end: config.heap_base + config.heap_size,
        })
    }

    /// Resolves an absolute text address to its stable `(module, offset)`
    /// location.
    pub fn resolve(&self, addr: u64) -> Option<CodeLoc> {
        self.modules.iter().find_map(|m| {
            m.offset_of(addr).map(|offset| CodeLoc {
                module: m.id,
                offset,
            })
        })
    }

    /// The loaded module with the given id.
    pub fn module(&self, id: ModuleId) -> Option<&LoadedModule> {
        self.modules.get(id.0 as usize)
    }

    /// Human-readable description of a code address (module, function,
    /// offset), for diagnostics.
    pub fn describe(&self, addr: u64) -> String {
        match self.resolve(addr) {
            Some(loc) => {
                let m = &self.modules[loc.module.0 as usize];
                match m.linked.function_at(loc.offset) {
                    Some(f) => format!("{}:{}+{:#x}", m.linked.name, f.name, loc.offset - f.offset),
                    None => format!("{}:{:#x}", m.linked.name, loc.offset),
                }
            }
            None => format!("{addr:#x}"),
        }
    }
}

fn resolve_symbol(sym: &Symbol, base: u64, data_base: u64, bss_base: u64) -> u64 {
    match sym.section {
        Section::Text => base + sym.offset,
        Section::Data => data_base + sym.offset,
        Section::Bss => bss_base + sym.offset,
    }
}

fn align_up(value: u64, align: u64) -> u64 {
    (value + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_isa::assemble;

    fn main_module() -> Module {
        assemble(
            "main",
            r#"
            .import helper
            .data
            table: .u64 10, 20, 30
            .func _start global
                la x1, table
                ld.8 x2, [x1+8]
                call helper
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap()
    }

    fn lib_module() -> Module {
        assemble(
            "libhelper",
            r#"
            .func helper global
                li x0, 99
                ret
            .endfunc
            "#,
        )
        .unwrap()
    }

    #[test]
    fn single_module_load() {
        let m = assemble(
            "solo",
            ".func _start global\n li x0, 0\n syscall\n.endfunc\n.entry _start",
        )
        .unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        assert_eq!(image.modules.len(), 1);
        assert_eq!(image.entry, image.modules[0].base);
    }

    #[test]
    fn import_resolved_via_plt() {
        let image =
            ProcessImage::load(&[main_module(), lib_module()], &LoadConfig::default()).unwrap();
        let main = &image.modules[0];
        let lib = &image.modules[1];
        // The PLT stub is appended after the original text.
        let plt_sym = main.linked.symbol("helper@plt").unwrap();
        assert_eq!(plt_sym.offset, main.linked.text.len() as u64 - 8);
        // The GOT slot holds the absolute address of helper in the library.
        let got = image.memory.read_u64(main.got_base);
        let helper = lib.linked.symbol("helper").unwrap();
        assert_eq!(got, lib.base + helper.offset);
    }

    #[test]
    fn call_rebased_to_absolute_in_memory() {
        let image =
            ProcessImage::load(&[main_module(), lib_module()], &LoadConfig::default()).unwrap();
        let main = &image.modules[0];
        // Instruction 2 (`call helper`) in memory must target the absolute
        // PLT stub address.
        let call_addr = main.base + 16;
        let bytes = image.memory.read_bytes(call_addr, 8);
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes);
        let insn = wiser_isa::decode_insn(&buf).unwrap();
        match insn {
            Insn::Call { target } => {
                let plt = main.linked.symbol("helper@plt").unwrap();
                assert_eq!(target as u64, main.base + plt.offset);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn la_patched_to_absolute_data_address() {
        let image =
            ProcessImage::load(&[main_module(), lib_module()], &LoadConfig::default()).unwrap();
        let main = &image.modules[0];
        let la_insn = main.linked.insn_at(0).unwrap();
        match la_insn {
            Insn::Li { imm, .. } => {
                let table = main.linked.symbol("table").unwrap();
                assert_eq!(imm as u32 as u64, main.data_base + table.offset);
            }
            other => panic!("expected li, got {other:?}"),
        }
        // Data contents are loaded.
        let table_addr = main.data_base;
        assert_eq!(image.memory.read_u64(table_addr + 8), 20);
    }

    #[test]
    fn aslr_changes_bases_but_offsets_stable() {
        let mut cfg = LoadConfig {
            aslr_seed: Some(1),
            ..LoadConfig::default()
        };
        let a = ProcessImage::load(&[main_module(), lib_module()], &cfg).unwrap();
        cfg.aslr_seed = Some(2);
        let b = ProcessImage::load(&[main_module(), lib_module()], &cfg).unwrap();
        assert_ne!(a.modules[0].base, b.modules[0].base);
        // Same code location resolves to the same (module, offset) key.
        let loc_a = a.resolve(a.modules[0].base + 16).unwrap();
        let loc_b = b.resolve(b.modules[0].base + 16).unwrap();
        assert_eq!(loc_a, loc_b);
    }

    #[test]
    fn unresolved_import_is_error() {
        let result = ProcessImage::load(&[main_module()], &LoadConfig::default());
        assert!(matches!(result, Err(SimError::Load(_))));
    }

    #[test]
    fn no_entry_is_error() {
        let lib = lib_module();
        let result = ProcessImage::load(&[lib], &LoadConfig::default());
        assert!(matches!(result, Err(SimError::Load(_))));
    }

    #[test]
    fn resolve_out_of_range_is_none() {
        let image =
            ProcessImage::load(&[main_module(), lib_module()], &LoadConfig::default()).unwrap();
        assert!(image.resolve(1).is_none());
        assert!(image.resolve(0x7FFF_FFFF).is_none());
    }

    #[test]
    fn describe_names_functions() {
        let image =
            ProcessImage::load(&[main_module(), lib_module()], &LoadConfig::default()).unwrap();
        let desc = image.describe(image.entry);
        assert!(desc.contains("_start"), "{desc}");
    }
}
