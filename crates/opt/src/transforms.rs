//! The three profile-driven transforms, operating on the block IR.
//!
//! Order matters: call promotion first (it synthesizes new blocks with
//! their own weights), then loop-invariant hoisting (it inserts preheaders
//! that layout should keep adjacent to their loop), then layout (it orders
//! whatever the earlier passes produced).

use std::collections::{HashMap, HashSet};

use optiwise::{ProfileTables, TransformKind, TransformLog, TransformRecord};
use wiser_cfg::Cfg;
use wiser_isa::{Cond, CtiKind, Gpr, Insn, Module, INSN_BYTES};
use wiser_sim::ModuleId;

use crate::ir::{BlockIr, InsnIr, ModuleIr};
use crate::regs::{is_hoist_candidate, reads, writes};
use crate::OptimizeOptions;

pub(crate) struct Ctx<'a> {
    pub module: &'a Module,
    pub module_id: u32,
    pub opts: &'a OptimizeOptions,
    pub tables: Option<&'a ProfileTables>,
}

fn record(log: &mut TransformLog, ctx: &Ctx<'_>, func: &str, kind: TransformKind, detail: String) {
    log.records.push(TransformRecord {
        module: ctx.module_id,
        function: func.to_string(),
        kind,
        detail,
    });
}

/// Promotes dominant indirect-call sites to guarded direct calls.
///
/// The guard compares the register against the promoted callee's address
/// (materialized with `la`, so the loader keeps it correct wherever the
/// callee lands) and takes a direct `call` on match, falling back to the
/// original `callr` otherwise. Register and stack state at both call sites
/// is exactly the original: the scratch register is pushed around the guard.
pub(crate) fn promote_calls(ir: &mut ModuleIr, cfg: &Cfg, ctx: &Ctx<'_>, log: &mut TransformLog) {
    if !ctx.opts.promote {
        return;
    }
    // Function entry offset -> name, for resolving dominant callees.
    let entries: HashMap<u64, &str> = ctx
        .module
        .functions()
        .iter()
        .map(|f| (f.offset, f.name.as_str()))
        .collect();

    for fi in 0..ir.funcs.len() {
        if ir.funcs[fi].frozen.is_some() {
            continue;
        }
        let order = ir.funcs[fi].order.clone();
        for &bi in &order {
            let block = &ir.blocks[bi];
            let (Some(start), Some(CtiKind::IndirectCall), Some(fall)) =
                (block.old_start, block.terminator_kind(), block.fall)
            else {
                continue;
            };
            let Insn::Callr { rs } = block.insns.last().unwrap().insn else {
                continue;
            };
            let term_off = start + (block.insns.len() as u64 - 1) * INSN_BYTES;
            let Some(cb) = cfg
                .block_containing(term_off)
                .map(|i| &cfg.blocks[i])
                .filter(|cb| cb.terminator_offset() == term_off)
            else {
                continue;
            };
            let total: u64 = cb.call_targets.iter().map(|&(_, c)| c).sum();
            // BTB already nails monomorphic sites (last-target prediction);
            // promotion only pays off when the site is polymorphic but one
            // callee dominates.
            if cb.call_targets.len() < 2 || total < ctx.opts.promote_min_total {
                continue;
            }
            let Some(&(loc, dom)) = cb
                .call_targets
                .iter()
                .max_by_key(|&&(loc, c)| (c, std::cmp::Reverse(loc)))
            else {
                continue;
            };
            if dom * 100 < total * ctx.opts.promote_min_share_pct
                || loc.module != ModuleId(ctx.module_id)
            {
                continue;
            }
            let Some(&callee) = entries.get(&loc.offset) else {
                continue;
            };
            let Some(&callee_block) = ir.block_at.get(&loc.offset) else {
                continue;
            };
            let scratch = [Gpr::new(6).unwrap(), Gpr::new(7).unwrap()]
                .into_iter()
                .find(|s| *s != rs)
                .unwrap();

            let loc_hint = ir.blocks[bi].insns.last().unwrap().loc;
            let plain = |insn: Insn| InsnIr {
                insn,
                reloc: None,
                loc: loc_hint,
                target: None,
            };
            // Hot path falls through to the direct call.
            let direct = BlockIr {
                old_start: None,
                insns: vec![
                    plain(Insn::Pop { rd: scratch }),
                    InsnIr {
                        insn: Insn::Call { target: 0 },
                        reloc: None,
                        loc: loc_hint,
                        target: Some(callee_block),
                    },
                ],
                fall: Some(fall),
                count: dom,
                fall_weight: dom,
                taken_weight: 0,
            };
            let slow = BlockIr {
                old_start: None,
                insns: vec![plain(Insn::Pop { rd: scratch }), plain(Insn::Callr { rs })],
                fall: Some(fall),
                count: total - dom,
                fall_weight: total - dom,
                taken_weight: 0,
            };
            let direct_idx = ir.blocks.len();
            ir.blocks.push(direct);
            let slow_idx = ir.blocks.len();
            ir.blocks.push(slow);

            let block = &mut ir.blocks[bi];
            block.insns.pop();
            block.insns.push(plain(Insn::Push { rs: scratch }));
            block.insns.push(InsnIr {
                insn: Insn::Li {
                    rd: scratch,
                    imm: 0,
                },
                reloc: Some((callee.to_string(), 0)),
                loc: loc_hint,
                target: None,
            });
            block.insns.push(InsnIr {
                insn: Insn::B {
                    cond: Cond::Ne,
                    rs1: rs,
                    rs2: scratch,
                    target: 0,
                },
                reloc: None,
                loc: loc_hint,
                target: Some(slow_idx),
            });
            block.fall = Some(direct_idx);
            block.fall_weight = dom;
            block.taken_weight = total - dom;

            let pos = ir.funcs[fi].order.iter().position(|&b| b == bi).unwrap();
            ir.funcs[fi]
                .order
                .splice(pos + 1..pos + 1, [direct_idx, slow_idx]);
            let name = ir.funcs[fi].name.clone();
            record(
                log,
                ctx,
                &name,
                TransformKind::CallPromotion,
                format!("callr@{term_off:#x} -> {callee} ({dom}/{total} calls)"),
            );
        }
    }
}

/// Hoists loop-invariant register computations out of hot single-block
/// self-loops into a fresh preheader.
///
/// Legality is purely architectural: candidates write exactly one register,
/// touch no memory, and ALU/FP ops never fault (division by zero is defined
/// on this ISA), so executing them once before the loop instead of every
/// iteration is always safe when the invariance conditions hold. The loop
/// body is do-while shaped (its only entry runs the body at least once), so
/// the hoisted instructions execute at least as often as before on every
/// path, with identical operands.
pub(crate) fn hoist_invariants(ir: &mut ModuleIr, ctx: &Ctx<'_>, log: &mut TransformLog) {
    if !ctx.opts.hoist {
        return;
    }
    for fi in 0..ir.funcs.len() {
        if ir.funcs[fi].frozen.is_some() {
            continue;
        }
        let order = ir.funcs[fi].order.clone();
        for &x in &order {
            let block = &ir.blocks[x];
            // A self-loop: conditional terminator branching back to its own
            // block start. Calls and syscalls always end blocks, so the body
            // is guaranteed call-free.
            let is_self_loop = matches!(block.terminator_kind(), Some(CtiKind::CondBranch))
                && block.insns.last().unwrap().target == Some(x);
            if !is_self_loop
                || block.insns.len() < 2
                || block.taken_weight < ctx.opts.hoist_min_backedge
            {
                continue;
            }

            let mut hoisted: Vec<InsnIr> = Vec::new();
            loop {
                let block = &ir.blocks[x];
                let body = &block.insns;
                let mut pick = None;
                for i in 0..body.len() - 1 {
                    if !is_hoist_candidate(&body[i].insn) {
                        continue;
                    }
                    let w = writes(&body[i].insn);
                    let r = reads(&body[i].insn);
                    if r & w != 0 {
                        continue; // self-dependent (e.g. lui)
                    }
                    let others: u32 = body
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, ins)| writes(&ins.insn))
                        .fold(0, |a, b| a | b);
                    // Sources invariant, destination written nowhere else,
                    // and no instruction before this one reads the old value.
                    if r & others != 0 || w & others != 0 {
                        continue;
                    }
                    if body[..i].iter().any(|p| reads(&p.insn) & w != 0) {
                        continue;
                    }
                    pick = Some(i);
                    break;
                }
                let Some(i) = pick else { break };
                hoisted.push(ir.blocks[x].insns.remove(i));
            }
            if hoisted.is_empty() {
                continue;
            }

            let header = ir.blocks[x].old_start.unwrap_or(0);
            let n = hoisted.len();
            let entries = ir.blocks[x].count.saturating_sub(ir.blocks[x].taken_weight);
            let pre = BlockIr {
                old_start: None,
                insns: hoisted,
                fall: Some(x),
                count: entries,
                fall_weight: entries,
                taken_weight: 0,
            };
            let pre_idx = ir.blocks.len();
            ir.blocks.push(pre);

            // Every edge into the loop, from anywhere in the module, now
            // enters through the preheader; only the back edge stays on the
            // header. The function symbol follows automatically when the
            // header was the function entry, because the preheader is
            // spliced in front of it.
            for (bj, b) in ir.blocks.iter_mut().enumerate() {
                if bj == x || bj == pre_idx {
                    continue;
                }
                if b.fall == Some(x) {
                    b.fall = Some(pre_idx);
                }
                for ins in &mut b.insns {
                    if ins.target == Some(x) {
                        ins.target = Some(pre_idx);
                    }
                }
            }
            let pos = ir.funcs[fi].order.iter().position(|&b| b == x).unwrap();
            ir.funcs[fi].order.insert(pos, pre_idx);

            let cpi = ctx.tables.and_then(|t| {
                t.loops
                    .iter()
                    .find(|l| {
                        t.modules.get(l.module as usize).map(String::as_str)
                            == Some(ctx.module.name.as_str())
                            && l.header_offset == header
                    })
                    .and_then(|l| l.cpi())
            });
            let cpi = cpi.map(|c| format!(", cpi {c:.2}")).unwrap_or_default();
            let name = ir.funcs[fi].name.clone();
            record(
                log,
                ctx,
                &name,
                TransformKind::LoopHoist,
                format!("hoisted {n} insns from loop@{header:#x}{cpi}"),
            );
        }
    }
}

/// Orders each function's blocks so the hottest successor falls through:
/// greedy chain merging on profile edge weights, hot chains first, cold
/// blocks sinking to the function tail. Taken branches end the fetch group
/// on this core, so straightened hot paths fetch wider.
pub(crate) fn layout_blocks(ir: &mut ModuleIr, ctx: &Ctx<'_>, log: &mut TransformLog) {
    if !ctx.opts.layout {
        return;
    }
    for fi in 0..ir.funcs.len() {
        if ir.funcs[fi].frozen.is_some() || ir.funcs[fi].order.len() < 3 {
            continue;
        }
        let full_order = ir.funcs[fi].order.clone();
        let (pinned, order): (Vec<usize>, Vec<usize>) = full_order
            .iter()
            .partition(|&&b| ir.blocks[b].pinned_last());
        if order.len() < 2 {
            continue;
        }
        let members: HashSet<usize> = order.iter().copied().collect();
        let entry = order[0];

        // Candidate edges (src, dst, weight), heaviest first.
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        for &b in &order {
            let block = &ir.blocks[b];
            if let Some(f) = block.fall {
                if members.contains(&f) && f != b && f != entry && block.fall_weight > 0 {
                    edges.push((b, f, block.fall_weight));
                }
            }
            if matches!(
                block.terminator_kind(),
                Some(CtiKind::CondBranch | CtiKind::DirectJump)
            ) {
                if let Some(t) = block.insns.last().unwrap().target {
                    if members.contains(&t) && t != b && t != entry && block.taken_weight > 0 {
                        edges.push((b, t, block.taken_weight));
                    }
                }
            }
        }
        edges.sort_by_key(|&(s, d, w)| (std::cmp::Reverse(w), s, d));

        let mut chain_of: HashMap<usize, usize> = order.iter().map(|&b| (b, b)).collect();
        let mut chains: HashMap<usize, Vec<usize>> = order.iter().map(|&b| (b, vec![b])).collect();
        for (src, dst, _) in edges {
            let cs = chain_of[&src];
            let cd = chain_of[&dst];
            if cs == cd {
                continue;
            }
            let tail_ok = *chains[&cs].last().unwrap() == src;
            let head_ok = chains[&cd][0] == dst;
            if !tail_ok || !head_ok {
                continue;
            }
            let moved = chains.remove(&cd).unwrap();
            for &b in &moved {
                chain_of.insert(b, cs);
            }
            chains.get_mut(&cs).unwrap().extend(moved);
        }

        let entry_chain = chain_of[&entry];
        let mut rest: Vec<(u64, usize)> = chains
            .keys()
            .filter(|&&c| c != entry_chain)
            .map(|&c| {
                let weight: u64 = chains[&c].iter().map(|&b| ir.blocks[b].count).sum();
                (weight, c)
            })
            .collect();
        rest.sort_by_key(|&(w, c)| (std::cmp::Reverse(w), chains[&c][0]));

        let mut new_order = chains[&entry_chain].clone();
        for (_, c) in rest {
            new_order.extend(&chains[&c]);
        }
        new_order.extend(&pinned);
        debug_assert_eq!(new_order.len(), full_order.len());
        if new_order != full_order {
            let n = new_order.len();
            ir.funcs[fi].order = new_order;
            let name = ir.funcs[fi].name.clone();
            record(
                log,
                ctx,
                &name,
                TransformKind::Layout,
                format!("reordered {n} blocks for fall-through on hot edges"),
            );
        }
    }
}

/// Marks frozen functions in the log so `--verify` output explains gaps.
pub(crate) fn note_freezes(ir: &ModuleIr, ctx: &Ctx<'_>, log: &mut TransformLog) {
    for f in &ir.funcs {
        if let Some(reason) = f.frozen {
            log.notes.push(format!(
                "{}:{}: kept original layout ({reason})",
                ctx.module.name, f.name
            ));
        }
    }
}
