//! Block-level intermediate representation for profile-guided rewriting.
//!
//! Unlike the profiling CFG in `wiser-cfg` (which only contains *executed*
//! blocks), this IR is a complete static decomposition of a module's text:
//! every instruction belongs to exactly one block, and every direct branch
//! target is a block start. That completeness is what makes rewriting safe
//! under inputs the profile never saw — the profile contributes edge
//! weights, never reachability.
//!
//! Branch targets are stored as block *indices*, not offsets, so transforms
//! can reorder, insert and delete blocks freely; [`emit`] assigns final
//! offsets, patches every direct target, and rebuilds symbols, relocations
//! and the line table.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use wiser_cfg::Cfg;
use wiser_isa::{encode_insn, CtiKind, Insn, LineEntry, Module, Section, SymbolKind, INSN_BYTES};

/// A condition that forces the whole module to be kept as-is.
pub(crate) struct Bail(pub String);

fn bail(msg: impl Into<String>) -> Bail {
    Bail(msg.into())
}

/// One instruction plus the side tables that must travel with it.
#[derive(Clone, Debug)]
pub(crate) struct InsnIr {
    pub insn: Insn,
    /// Relocation against this instruction's immediate field, if any.
    pub reloc: Option<(String, i64)>,
    /// Source position `(file index, line)` in effect at this instruction.
    pub loc: Option<(u32, u32)>,
    /// Block index the direct target points at (`None` for reloc'd calls,
    /// whose target the loader resolves).
    pub target: Option<usize>,
}

/// A basic block: straight-line code ending at a CTI or a leader boundary.
#[derive(Clone, Debug)]
pub(crate) struct BlockIr {
    /// Original start offset; `None` for blocks synthesized by transforms.
    pub old_start: Option<u64>,
    pub insns: Vec<InsnIr>,
    /// Block reached when execution falls off the end (also the post-return
    /// continuation for call- and syscall-terminated blocks).
    pub fall: Option<usize>,
    /// Execution count from the instrumentation profile (0 if never seen).
    pub count: u64,
    /// Profile weight of the fall-through edge.
    pub fall_weight: u64,
    /// Profile weight of the taken edge (conditional/unconditional branch).
    pub taken_weight: u64,
}

impl BlockIr {
    pub fn terminator_kind(&self) -> Option<CtiKind> {
        self.insns.last().and_then(|i| i.insn.cti_kind())
    }

    /// A block that can fall off the end of text (the final exit syscall,
    /// typically) must stay the last block of its function, or running past
    /// its terminator would reach relocated code instead of faulting.
    pub fn pinned_last(&self) -> bool {
        self.fall.is_none()
            && !matches!(
                self.terminator_kind(),
                Some(CtiKind::DirectJump | CtiKind::IndirectJump | CtiKind::Return)
            )
    }
}

/// A function: an ordered list of blocks. `order[0]` is the entry and stays
/// first through every transform.
#[derive(Clone, Debug)]
pub(crate) struct FuncIr {
    pub name: String,
    pub order: Vec<usize>,
    /// When set, the block order is pinned to the original and no transform
    /// applies; blocks are still re-offset and retargeted.
    pub frozen: Option<&'static str>,
}

#[derive(Clone, Debug)]
pub(crate) struct ModuleIr {
    pub blocks: Vec<BlockIr>,
    pub funcs: Vec<FuncIr>,
    /// Map from original block start offset to block index.
    pub block_at: BTreeMap<u64, usize>,
}

/// Decomposes `module` into the block IR, pulling edge weights from `cfg`
/// when instrumentation counts exist for this module.
pub(crate) fn decompose(module: &Module, cfg: Option<&Cfg>) -> Result<ModuleIr, Bail> {
    let text_len = module.text.len() as u64;
    if text_len == 0 {
        return Err(bail("empty text section"));
    }
    let insns: Vec<(u64, Insn)> = module.insns().collect();

    let mut reloc_at: BTreeMap<u64, (String, i64)> = BTreeMap::new();
    for r in &module.relocs {
        if reloc_at
            .insert(r.text_offset, (r.symbol.clone(), r.addend))
            .is_some()
        {
            return Err(bail(format!("two relocations at {:#x}", r.text_offset)));
        }
    }
    // A nonzero addend bakes in layout assumptions unless it points into
    // data, whose layout we never change.
    for r in &module.relocs {
        if r.addend != 0 {
            let into_data = module
                .symbols
                .iter()
                .any(|s| s.name == r.symbol && matches!(s.section, Section::Data | Section::Bss));
            if !into_data {
                return Err(bail(format!(
                    "relocation `{}`+{} does not target data",
                    r.symbol, r.addend
                )));
            }
        }
    }

    // Text must be fully tiled by function symbols: an instruction outside
    // any function could be reached in ways we cannot see.
    let functions = module.functions();
    let mut cursor = 0u64;
    for f in &functions {
        if f.offset != cursor {
            return Err(bail(format!(
                "text gap before function `{}` at {:#x}",
                f.name, f.offset
            )));
        }
        cursor = f.offset + f.size;
    }
    if cursor != text_len {
        return Err(bail("text tail not covered by any function"));
    }

    // Leaders: function entries, anchor symbols, direct targets, post-CTI.
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    for f in &functions {
        leaders.insert(f.offset);
    }
    for s in &module.symbols {
        if s.section == Section::Text {
            leaders.insert(s.offset);
        }
    }
    for (off, insn) in &insns {
        if matches!(insn, Insn::JmpGot { .. }) {
            return Err(bail("loader-generated jmpgot in source module"));
        }
        if insn.is_cti() && off + INSN_BYTES < text_len {
            leaders.insert(off + INSN_BYTES);
        }
        if reloc_at.contains_key(off) {
            match insn {
                Insn::Li { imm: 0, .. } => {}
                Insn::Call { target: 0 } => {}
                other => return Err(bail(format!("relocation on {other:?}"))),
            }
            continue;
        }
        if let Some(t) = insn.direct_target() {
            let t = t as u64;
            if t >= text_len || !t.is_multiple_of(INSN_BYTES) {
                return Err(bail(format!("direct target {t:#x} out of range")));
            }
            leaders.insert(t);
        }
    }

    // Source position per instruction: floor over the line table.
    let loc_of = |off: u64| -> Option<(u32, u32)> {
        let idx = module.line_table.partition_point(|e| e.text_offset <= off);
        idx.checked_sub(1)
            .map(|i| (module.line_table[i].file, module.line_table[i].line))
    };

    // Slice instructions into blocks.
    let mut blocks: Vec<BlockIr> = Vec::new();
    let mut block_at: BTreeMap<u64, usize> = BTreeMap::new();
    let mut current: Option<BlockIr> = None;
    for (off, insn) in &insns {
        if leaders.contains(off) {
            if let Some(b) = current.take() {
                blocks.push(b);
            }
        }
        let b = current.get_or_insert_with(|| {
            block_at.insert(*off, blocks.len());
            BlockIr {
                old_start: Some(*off),
                insns: Vec::new(),
                fall: None,
                count: 0,
                fall_weight: 0,
                taken_weight: 0,
            }
        });
        b.insns.push(InsnIr {
            insn: *insn,
            reloc: reloc_at.get(off).cloned(),
            loc: loc_of(*off),
            target: None,
        });
        if insn.is_cti() {
            if let Some(b) = current.take() {
                blocks.push(b);
            }
        }
    }
    if let Some(b) = current.take() {
        blocks.push(b);
    }

    // Resolve direct targets to block indices and fall-through successors.
    for block in blocks.iter_mut() {
        let start = block.old_start.unwrap();
        let end = start + block.insns.len() as u64 * INSN_BYTES;
        let last = block.insns.last_mut().unwrap();
        if last.reloc.is_none() {
            if let Some(t) = last.insn.direct_target() {
                last.target =
                    Some(*block_at.get(&(t as u64)).ok_or_else(|| {
                        bail(format!("direct target {t:#x} is not a block start"))
                    })?);
            }
        }
        let can_fall = !matches!(
            block.terminator_kind(),
            Some(CtiKind::DirectJump | CtiKind::IndirectJump | CtiKind::Return)
        );
        if can_fall {
            block.fall = block_at.get(&end).copied();
        }

        // Edge weights from the profiling CFG, when present.
        if let Some(cfg) = cfg {
            let term_off = end - INSN_BYTES;
            if let Some(cb) = cfg.block_containing(term_off).map(|i| &cfg.blocks[i]) {
                block.count = cfg
                    .block_containing(start)
                    .map(|i| cfg.blocks[i].count)
                    .unwrap_or(0);
                if cb.terminator_offset() == term_off {
                    let taken = block
                        .insns
                        .last()
                        .and_then(|l| l.target.map(|_| l.insn.direct_target().unwrap() as u64));
                    for &(succ, w) in &cb.succs {
                        let s = cfg.blocks[succ].start;
                        if Some(s) == taken {
                            block.taken_weight = w;
                        }
                        if s == end {
                            block.fall_weight = w;
                        }
                    }
                    if block.terminator_kind().is_none()
                        || matches!(
                            block.terminator_kind(),
                            Some(CtiKind::DirectCall | CtiKind::IndirectCall | CtiKind::Syscall)
                        )
                    {
                        block.fall_weight = cb.count;
                    }
                } else {
                    // Split mid-cfg-block: pure fall-through at full count.
                    block.fall_weight = cb.count;
                }
            }
        }
    }

    // Group blocks into functions and decide freezes.
    let mut funcs: Vec<FuncIr> = Vec::new();
    for f in &functions {
        let range = f.offset..f.offset + f.size;
        let order: Vec<usize> = block_at.range(range.clone()).map(|(_, &idx)| idx).collect();
        if order.is_empty() {
            return Err(bail(format!("function `{}` has no blocks", f.name)));
        }
        let mut frozen: Option<&'static str> = None;
        let has_anchor = module.symbols.iter().any(|s| {
            s.section == Section::Text && s.kind == SymbolKind::Object && range.contains(&s.offset)
        });
        if has_anchor {
            // Anchors are address-taken entry points (jump tables): any
            // reordering could bypass code the anchor's users expect.
            frozen = Some("address-taken anchor");
        }
        for &bi in &order {
            if matches!(blocks[bi].terminator_kind(), Some(CtiKind::IndirectJump)) {
                frozen = Some("computed jump");
            }
            // A conditional branch at the very end of text has an
            // inexpressible fall-through; anything else that runs off the
            // end (e.g. the final exit syscall) is merely pinned in place
            // by the layout pass.
            if matches!(blocks[bi].terminator_kind(), Some(CtiKind::CondBranch))
                && blocks[bi].fall.is_none()
            {
                frozen = Some("conditional branch falls off end of text");
            }
        }
        funcs.push(FuncIr {
            name: f.name.clone(),
            order,
            frozen,
        });
    }

    Ok(ModuleIr {
        blocks,
        funcs,
        block_at,
    })
}

/// Re-links the IR into a fresh [`Module`]: fixes up terminators for the
/// chosen block order, assigns offsets, patches direct targets, and rebuilds
/// symbols, relocations, the line table and the entry point.
pub(crate) fn emit(module: &Module, ir: &mut ModuleIr) -> Result<Module, Bail> {
    let global_order: Vec<usize> = ir.funcs.iter().flat_map(|f| f.order.clone()).collect();
    let next_of: HashMap<usize, usize> = global_order.windows(2).map(|w| (w[0], w[1])).collect();

    // Terminator fixup: adjacency decides which branches survive.
    for &bi in &global_order {
        let next = next_of.get(&bi).copied();
        let block = &mut ir.blocks[bi];
        let Some(last) = block.insns.last() else {
            continue;
        };
        let loc = last.loc;
        match last.insn.cti_kind() {
            Some(CtiKind::CondBranch) => {
                let taken = last
                    .target
                    .ok_or_else(|| bail("cond branch without target"))?;
                let fall = block.fall.ok_or_else(|| bail("cond branch without fall"))?;
                if next == Some(fall) {
                    // Already laid out as written.
                } else if next == Some(taken) {
                    let last = block.insns.last_mut().unwrap();
                    if let Insn::B { cond, .. } = &mut last.insn {
                        *cond = cond.inverse();
                    }
                    last.target = Some(fall);
                    block.fall = Some(taken);
                } else {
                    block.insns.push(jmp_to(fall, loc));
                    block.fall = None;
                }
            }
            Some(CtiKind::DirectJump) => {
                if last.reloc.is_none() && last.target == next {
                    block.insns.pop();
                    block.fall = next;
                }
            }
            Some(CtiKind::DirectCall | CtiKind::IndirectCall | CtiKind::Syscall) | None => {
                if let Some(fall) = block.fall {
                    if next != Some(fall) {
                        block.insns.push(jmp_to(fall, loc));
                        block.fall = None;
                    }
                }
            }
            Some(CtiKind::IndirectJump | CtiKind::Return) => {}
        }
    }

    // Offset assignment.
    let mut new_start: HashMap<usize, u64> = HashMap::new();
    let mut cursor = 0u64;
    let mut func_ranges: Vec<(u64, u64)> = Vec::new();
    for f in &ir.funcs {
        let start = cursor;
        for &bi in &f.order {
            new_start.insert(bi, cursor);
            cursor += ir.blocks[bi].insns.len() as u64 * INSN_BYTES;
        }
        func_ranges.push((start, cursor));
    }
    if cursor > u32::MAX as u64 {
        return Err(bail("rewritten text exceeds 32-bit offsets"));
    }

    // Retarget and encode.
    let mut text = Vec::with_capacity(cursor as usize);
    let mut relocs = Vec::new();
    let mut line_table: Vec<LineEntry> = Vec::new();
    let mut last_loc: Option<(u32, u32)> = None;
    let mut off = 0u64;
    for &bi in &global_order {
        for ins in &mut ir.blocks[bi].insns {
            if let Some(t) = ins.target {
                let t = *new_start
                    .get(&t)
                    .ok_or_else(|| bail("target block not placed"))?;
                ins.insn.set_direct_target(t as u32);
            }
            if let Some((sym, addend)) = &ins.reloc {
                relocs.push(wiser_isa::Reloc {
                    text_offset: off,
                    symbol: sym.clone(),
                    addend: *addend,
                });
            }
            if let Some(loc) = ins.loc {
                if last_loc != Some(loc) {
                    line_table.push(LineEntry {
                        text_offset: off,
                        file: loc.0,
                        line: loc.1,
                    });
                    last_loc = Some(loc);
                }
            }
            text.extend_from_slice(&encode_insn(&ins.insn));
            off += INSN_BYTES;
        }
    }

    // Symbols: functions get their new range, anchors follow their block.
    let func_index: HashMap<&str, usize> = ir
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut symbols = Vec::with_capacity(module.symbols.len());
    for sym in &module.symbols {
        let mut sym = sym.clone();
        if sym.section == Section::Text {
            match sym.kind {
                SymbolKind::Func => {
                    let fi = *func_index
                        .get(sym.name.as_str())
                        .ok_or_else(|| bail(format!("function `{}` lost", sym.name)))?;
                    sym.offset = func_ranges[fi].0;
                    sym.size = func_ranges[fi].1 - func_ranges[fi].0;
                }
                SymbolKind::Object => {
                    let bi = *ir.block_at.get(&sym.offset).ok_or_else(|| {
                        bail(format!("anchor `{}` is not a block start", sym.name))
                    })?;
                    sym.offset = *new_start
                        .get(&bi)
                        .ok_or_else(|| bail(format!("anchor `{}` block not placed", sym.name)))?;
                }
            }
        }
        symbols.push(sym);
    }

    let entry = match module.entry {
        None => None,
        Some(old) => {
            let bi = *ir
                .block_at
                .get(&old)
                .ok_or_else(|| bail("entry is not a block start"))?;
            Some(
                *new_start
                    .get(&bi)
                    .ok_or_else(|| bail("entry block not placed"))?,
            )
        }
    };

    Ok(Module {
        name: module.name.clone(),
        text,
        data: module.data.clone(),
        bss_size: module.bss_size,
        symbols,
        imports: module.imports.clone(),
        relocs,
        files: module.files.clone(),
        line_table,
        entry,
    })
}

pub(crate) fn jmp_to(target: usize, loc: Option<(u32, u32)>) -> InsnIr {
    InsnIr {
        insn: Insn::Jmp { target: 0 },
        reloc: None,
        loc,
        target: Some(target),
    }
}
