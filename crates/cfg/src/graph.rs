//! Compiler-definition CFG reconstruction from DynamoRIO-style blocks.
//!
//! DynamoRIO lets an instruction live in several (overlapping) blocks; the
//! compiler definition does not. Per §IV-C, the CFG is rebuilt by splitting
//! at every block entry ("leader") and summing the counts of all DynamoRIO
//! blocks that cover each instruction.

use std::borrow::Cow;

use wiser_dbi::TermKind;
use wiser_isa::{Module, INSN_BYTES};
use wiser_sim::{CodeLoc, FastMap, ModuleId};

use crate::flow::BlockCounts;

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// One compiler-definition basic block with execution counts.
#[derive(Clone, Debug)]
pub struct CfgBlock {
    /// First instruction offset.
    pub start: u64,
    /// Number of instructions.
    pub len: u32,
    /// Execution count (sum over covering DynamoRIO blocks).
    pub count: u64,
    /// Successor edges with traversal counts (intra-function only).
    pub succs: Vec<(BlockId, u64)>,
    /// Predecessors (derived from `succs`).
    pub preds: Vec<BlockId>,
    /// Call targets leaving this block (the block ends in a call), with
    /// counts; used by the call-graph and stack-profiling attribution.
    pub call_targets: Vec<(CodeLoc, u64)>,
    /// Index of the enclosing function in [`Cfg::functions`].
    pub function: usize,
}

impl CfgBlock {
    /// Offset one past the last instruction.
    pub fn end(&self) -> u64 {
        self.start + self.len as u64 * INSN_BYTES
    }

    /// Whether `offset` lies within this block.
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.start && offset < self.end()
    }

    /// Offset of the terminator (last instruction).
    pub fn terminator_offset(&self) -> u64 {
        self.end() - INSN_BYTES
    }
}

/// A function's slice of the CFG.
#[derive(Clone, Debug)]
pub struct FuncCfg {
    /// Function symbol name.
    pub name: String,
    /// Text-offset range `[start, end)` of the function.
    pub range: (u64, u64),
    /// Entry block, if the entry instruction was ever executed.
    pub entry: Option<BlockId>,
    /// All blocks belonging to this function, in offset order.
    pub blocks: Vec<BlockId>,
}

/// The per-module control-flow graph with edge frequencies.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Module this CFG describes.
    pub module: ModuleId,
    /// All executed basic blocks, sorted by start offset.
    pub blocks: Vec<CfgBlock>,
    /// Functions (only those containing executed code).
    pub functions: Vec<FuncCfg>,
}

impl Cfg {
    /// The block starting exactly at `offset`.
    pub fn block_at(&self, offset: u64) -> Option<BlockId> {
        block_starting(&self.blocks, offset)
    }

    /// The block containing `offset`.
    pub fn block_containing(&self, offset: u64) -> Option<BlockId> {
        let idx = match self.blocks.binary_search_by_key(&offset, |b| b.start) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        self.blocks[idx].contains(offset).then_some(idx)
    }

    /// Total dynamic instructions executed in this module.
    pub fn total_insns(&self) -> u64 {
        self.blocks.iter().map(|b| b.count * b.len as u64).sum()
    }
}

struct TermAgg {
    kind: TermKind,
    count: u64,
    fallthrough: u64,
    direct_target: Option<CodeLoc>,
    /// Indirect targets with counts, sorted by target and merged.
    targets: Vec<(CodeLoc, u64)>,
}

/// Builds the CFG of one module from the instrumentation profile's block
/// counts (recovered, when a counter placement suppressed some).
///
/// Blocks never executed are absent (dynamic profiling cannot see them);
/// the analysis layer treats missing counts as zero.
pub fn build_cfg(module_id: ModuleId, module: &Module, counts: &BlockCounts<'_>) -> Cfg {
    // 1. Per-instruction execution counts and terminator aggregation, for
    //    this module only.
    let profile = counts.profile();
    let ours = profile
        .blocks
        .iter()
        .filter(|b| b.entry.module == module_id)
        .count();
    let mut spans: Vec<(u64, u32, u64)> = Vec::with_capacity(ours);
    // (terminator offset, block index) of every block.
    let mut ends: Vec<(u64, usize)> = Vec::with_capacity(ours);
    // A block's start, and its terminator's direct target and fall-through.
    let mut leaders: Vec<u64> = Vec::with_capacity(3 * ours);

    for (k, b) in profile.blocks.iter().enumerate() {
        if b.entry.module != module_id {
            continue;
        }
        leaders.push(b.entry.offset);
        spans.push((b.entry.offset, b.len, counts.count(k)));
        ends.push((b.entry.offset + (b.len as u64 - 1) * INSN_BYTES, k));
    }
    // One aggregate per terminator, sorted by offset. Blocks sharing one
    // sum their counts; the first in profile order gives its kind and
    // direct target.
    ends.sort_unstable();
    let mut terms: Vec<(u64, TermAgg)> = Vec::with_capacity(ends.len());
    for (offset, k) in ends {
        let b = &profile.blocks[k];
        if terms.last().is_none_or(|&(last, _)| last != offset) {
            terms.push((
                offset,
                TermAgg {
                    kind: b.term,
                    count: 0,
                    fallthrough: 0,
                    direct_target: b.direct_target,
                    targets: Vec::new(),
                },
            ));
        }
        let agg = &mut terms.last_mut().expect("pushed above").1;
        agg.count += counts.count(k);
        agg.fallthrough += counts.fallthrough(k);
        agg.targets.extend_from_slice(&b.targets);
    }
    // Overlapping blocks sum per instruction and per indirect target. The
    // blocks go in by start offset, so the sort mostly finds sorted runs.
    spans.sort_unstable_by_key(|&(start, _, _)| start);
    let mut insn_count: Vec<(u64, u64)> =
        Vec::with_capacity(spans.iter().map(|&(_, len, _)| len as usize).sum());
    for (start, len, count) in spans {
        insn_count.extend((0..len as u64).map(|i| (start + i * INSN_BYTES, count)));
    }
    merge_sorted(&mut insn_count);

    // Branch targets are leaders too (same-module only), as are the
    // fall-through successors of conditional branches, calls and syscalls.
    for (offset, agg) in &mut terms {
        let offset = *offset;
        merge_sorted(&mut agg.targets);
        if let Some(t) = agg.direct_target {
            if t.module == module_id {
                leaders.push(t.offset);
            }
        }
        for (t, _) in &agg.targets {
            if t.module == module_id {
                leaders.push(t.offset);
            }
        }
        match agg.kind {
            TermKind::CondBranch | TermKind::DirectCall | TermKind::Syscall => {
                leaders.push(offset + INSN_BYTES);
            }
            TermKind::Indirect => {
                // Calls fall through on return; returns/jumps do not. The
                // next block, if executed, is discovered as its own leader
                // anyway, so nothing to add here.
            }
            _ => {}
        }
    }
    leaders.sort_unstable();
    leaders.dedup();

    // 2. Carve executed instructions into compiler blocks. The offsets
    //    tested only grow, so one cursor into each sorted list finds them.
    let (mut terms_at, mut leaders_at) = (
        terms.iter().map(|&(offset, _)| offset).peekable(),
        leaders.iter().copied().peekable(),
    );
    // Usually one block per leader.
    let mut blocks: Vec<CfgBlock> = Vec::with_capacity(leaders.len());
    let mut i = 0;
    while i < insn_count.len() {
        let (start, count) = insn_count[i];
        let mut len = 1u32;
        loop {
            let here = insn_count[i + len as usize - 1].0;
            while terms_at.next_if(|&t| t < here).is_some() {}
            if terms_at.peek() == Some(&here) {
                break; // terminator ends the block
            }
            let next = start + len as u64 * INSN_BYTES;
            if i + (len as usize) >= insn_count.len() || insn_count[i + len as usize].0 != next {
                break; // next instruction never executed
            }
            while leaders_at.next_if(|&l| l < next).is_some() {}
            if leaders_at.peek() == Some(&next) {
                break; // split point
            }
            len += 1;
        }
        blocks.push(CfgBlock {
            start,
            len,
            count,
            succs: Vec::new(),
            preds: Vec::new(),
            call_targets: Vec::new(),
            function: usize::MAX,
        });
        i += len as usize;
    }

    // 3. Assign functions.
    let mut functions: Vec<FuncCfg> = Vec::new();
    let mut func_by_name: FastMap<Cow<'_, str>, usize> = FastMap::default();
    for (id, block) in blocks.iter_mut().enumerate() {
        let (name, range) = match module.function_at(block.start) {
            Some(sym) => (
                Cow::Borrowed(sym.name.as_str()),
                (sym.offset, sym.offset + sym.size),
            ),
            None => (
                Cow::Owned(format!("<anon@{:#x}>", block.start)),
                (block.start, block.end()),
            ),
        };
        let fidx = match func_by_name.get(&*name) {
            Some(&fidx) => fidx,
            None => {
                functions.push(FuncCfg {
                    name: name.to_string(),
                    range,
                    entry: None,
                    blocks: Vec::new(),
                });
                func_by_name.insert(name, functions.len() - 1);
                functions.len() - 1
            }
        };
        let f = &mut functions[fidx];
        f.range = (f.range.0.min(range.0), f.range.1.max(range.1));
        f.blocks.push(id);
        if block.start == range.0 {
            f.entry = Some(id);
        }
        block.function = fidx;
    }
    // Fallback entry: the lowest block of the function.
    for f in &mut functions {
        if f.entry.is_none() {
            f.entry = f.blocks.first().copied();
        }
    }

    // 4. Edges. Intra-function only; calls fall through, returns terminate.
    let mut edges: Vec<(BlockId, BlockId, u64)> = Vec::new();
    let mut call_edges: Vec<(BlockId, CodeLoc, u64)> = Vec::new();
    for (id, block) in blocks.iter().enumerate() {
        let fidx = block.function;
        let same_function = |target: u64, blocks: &[CfgBlock]| {
            block_starting(blocks, target).filter(|&t| blocks[t].function == fidx)
        };
        let term_offset = block.terminator_offset();
        let Ok(at) = terms.binary_search_by_key(&term_offset, |&(offset, _)| offset) else {
            // Block split by a leader: unconditional fall-through.
            if let Some(next) = block_starting(&blocks, block.end()) {
                if blocks[next].function == fidx {
                    edges.push((id, next, block.count));
                }
            }
            continue;
        };
        let agg = &terms[at].1;
        match agg.kind {
            TermKind::DirectJump => {
                if let Some(t) = agg.direct_target {
                    if t.module == module_id {
                        if let Some(tid) = same_function(t.offset, &blocks) {
                            edges.push((id, tid, agg.count.min(block.count)));
                        }
                    }
                }
            }
            TermKind::CondBranch => {
                // Shares of this block's executions, derived as in §IV-C:
                // fall-through counted, taken derived.
                let (ft, taken) = apportion(block.count, agg.count, agg.fallthrough);
                if let Some(next) = block_starting(&blocks, block.end()) {
                    if blocks[next].function == fidx && ft > 0 {
                        edges.push((id, next, ft));
                    }
                }
                if let Some(t) = agg.direct_target {
                    if t.module == module_id && taken > 0 {
                        if let Some(tid) = same_function(t.offset, &blocks) {
                            edges.push((id, tid, taken));
                        }
                    }
                }
            }
            TermKind::DirectCall => {
                if let Some(t) = agg.direct_target {
                    call_edges.push((id, t, block.count));
                }
                if let Some(next) = block_starting(&blocks, block.end()) {
                    if blocks[next].function == fidx {
                        edges.push((id, next, block.count));
                    }
                }
            }
            TermKind::Syscall => {
                if let Some(next) = block_starting(&blocks, block.end()) {
                    if blocks[next].function == fidx {
                        edges.push((id, next, block.count));
                    }
                }
            }
            TermKind::Indirect => {
                // Distinguish indirect calls (fall through on return) from
                // indirect jumps/returns by decoding the terminator.
                let insn = module.insn_at(term_offset).ok();
                let is_call = matches!(insn, Some(wiser_isa::Insn::Callr { .. }));
                let is_ret = matches!(insn, Some(wiser_isa::Insn::Ret));
                if is_call {
                    let share = block.count.min(agg.count);
                    for (t, c) in &agg.targets {
                        let c_scaled = scale(*c, share, agg.count);
                        call_edges.push((id, *t, c_scaled));
                    }
                    if let Some(next) = block_starting(&blocks, block.end()) {
                        if blocks[next].function == fidx {
                            edges.push((id, next, block.count));
                        }
                    }
                } else if !is_ret {
                    // Indirect jump: intra-function targets become edges
                    // (switch tables); others are tail transfers.
                    for (t, c) in &agg.targets {
                        if t.module == module_id {
                            if let Some(tid) = same_function(t.offset, &blocks) {
                                let c_scaled = scale(*c, block.count.min(agg.count), agg.count);
                                edges.push((id, tid, c_scaled));
                            }
                        }
                    }
                }
            }
            TermKind::Fallthrough => {
                if let Some(next) = block_starting(&blocks, block.end()) {
                    if blocks[next].function == fidx {
                        edges.push((id, next, block.count));
                    }
                }
            }
        }
    }

    for (from, to, count) in edges {
        blocks[from].succs.push((to, count));
        blocks[to].preds.push(from);
    }
    for (from, target, count) in call_edges {
        blocks[from].call_targets.push((target, count));
    }
    for b in &mut blocks {
        b.preds.sort_unstable();
        b.preds.dedup();
    }

    Cfg {
        module: module_id,
        blocks,
        functions,
    }
}

/// Sorts `(key, count)` pairs by key and sums the counts of equal keys.
fn merge_sorted<K: Ord + Copy>(v: &mut Vec<(K, u64)>) {
    v.sort_unstable_by_key(|&(k, _)| k);
    v.dedup_by(|(k, c), (k0, c0)| {
        let same = k == k0;
        if same {
            *c0 += *c;
        }
        same
    });
}

/// The block of `blocks` (sorted by start) starting exactly at `offset`.
fn block_starting(blocks: &[CfgBlock], offset: u64) -> Option<BlockId> {
    blocks.binary_search_by_key(&offset, |b| b.start).ok()
}

/// A conditional terminator can belong to several overlapping DynamoRIO
/// blocks; apportion this CFG block's executions between fall-through and
/// taken using the aggregate ratio.
fn apportion(block_count: u64, term_count: u64, term_fallthrough: u64) -> (u64, u64) {
    if term_count == 0 {
        return (0, 0);
    }
    let ft = scale(term_fallthrough, block_count, term_count);
    (ft, block_count.saturating_sub(ft))
}

fn scale(value: u64, numer: u64, denom: u64) -> u64 {
    if denom == 0 {
        0
    } else {
        ((value as u128 * numer as u128) / denom as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_dbi::{instrument_run, DbiConfig};
    use wiser_isa::assemble;
    use wiser_sim::ProcessImage;

    pub(crate) fn cfg_of(src: &str) -> (Cfg, ProcessImage) {
        let module = assemble("t", src).unwrap();
        let image = ProcessImage::load_single(&module).unwrap();
        let counts = instrument_run(&image, &DbiConfig::default()).unwrap();
        let cfg = build_cfg(
            ModuleId(0),
            &image.modules[0].linked,
            &BlockCounts::stored(&counts),
        );
        (cfg, image)
    }

    #[test]
    fn simple_loop_cfg() {
        let (cfg, _) = cfg_of(
            r#"
            .func _start global
                li x8, 10
                li x9, 0
            loop:
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        // Three blocks: preamble, loop body, exit.
        assert_eq!(cfg.blocks.len(), 3);
        let body = cfg.block_at(16).unwrap();
        assert_eq!(cfg.blocks[body].count, 10);
        // Loop body has a self edge with count 9.
        let self_edge = cfg.blocks[body]
            .succs
            .iter()
            .find(|(t, _)| *t == body)
            .unwrap();
        assert_eq!(self_edge.1, 9);
        // And a fall-through edge with count 1.
        let exit_edge = cfg.blocks[body]
            .succs
            .iter()
            .find(|(t, _)| *t != body)
            .unwrap();
        assert_eq!(exit_edge.1, 1);
        assert_eq!(cfg.total_insns(), 2 + 30 + 2);
    }

    #[test]
    fn call_falls_through_and_records_target() {
        let (cfg, image) = cfg_of(
            r#"
            .func callee
                addi x1, x1, 1
                ret
            .endfunc
            .func _start global
                li x8, 5
                li x9, 0
            loop:
                call callee
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let callee_offset = image.modules[0].linked.symbol("callee").unwrap().offset;
        let call_block = cfg
            .blocks
            .iter()
            .find(|b| !b.call_targets.is_empty())
            .unwrap();
        assert_eq!(call_block.call_targets[0].0.offset, callee_offset);
        assert_eq!(call_block.call_targets[0].1, 5);
        // The call block's successor is within _start, not the callee.
        assert!(!call_block.succs.is_empty());
        for (succ, _) in &call_block.succs {
            assert_eq!(cfg.blocks[*succ].function, call_block.function);
        }
    }

    #[test]
    fn functions_partition_blocks() {
        let (cfg, _) = cfg_of(
            r#"
            .func a
                addi x1, x1, 1
                ret
            .endfunc
            .func b
                call a
                call a
                ret
            .endfunc
            .func _start global
                call b
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(cfg.functions.len(), 3);
        for f in &cfg.functions {
            for &b in &f.blocks {
                assert!(cfg.blocks[b].start >= f.range.0);
                assert!(cfg.blocks[b].start < f.range.1);
            }
        }
    }

    #[test]
    fn block_containing_lookup() {
        let (cfg, _) = cfg_of(
            r#"
            .func _start global
                li x1, 1
                li x2, 2
                li x3, 3
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let b = cfg.block_containing(16).unwrap();
        assert!(cfg.blocks[b].contains(16));
        assert!(cfg.block_containing(0x5000).is_none());
    }

    #[test]
    fn cold_code_absent() {
        let (cfg, _) = cfg_of(
            r#"
            .func _start global
                li x9, 0
                li x8, 0
                beq x8, x9, skip
                ; never executed
                addi x1, x1, 1
                addi x1, x1, 2
            skip:
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        // The two never-executed addi instructions form no block.
        assert!(cfg.block_containing(24).is_none());
        assert!(cfg.block_containing(32).is_none());
    }
}
