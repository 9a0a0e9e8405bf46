//! The dynamic binary instrumentation engine.
//!
//! Discovers DynamoRIO-style basic blocks at run time (no prior CFG, §IV-C),
//! keeps them in a block cache, counts block and edge executions with the
//! exact mechanisms the paper describes — inlined counters for direct edges,
//! a fall-through counter trick for conditional branches, hash-table
//! counters behind clean calls for indirect branches — and performs stack
//! profiling (algorithm 1) to attribute callee instruction counts to call
//! sites.

use wiser_isa::INSN_BYTES;
use wiser_sim::{
    poll_cancel, CancelCause, CodeLoc, FastMap, FaultPlan, Interp, ModuleId, PassControl,
    ProcessImage, SimError, Step, TruncationReason, CANCEL_POLL_INSNS,
};

use crate::cost::CostModel;
use crate::counts::{BlockCount, CountsProfile, InstrumentationCost, TermKind};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct DbiConfig {
    /// Enable stack profiling (§IV-D). Off, the callee table stays empty and
    /// per-call overhead disappears — the paper notes users profiling only
    /// at instruction/block level can disable it.
    pub stack_profiling: bool,
    /// Instrumentation cost model for the overhead estimate.
    pub cost: CostModel,
    /// Instruction budget for the run.
    pub max_insns: u64,
    /// Seed for the deterministic `rand` syscall (must match the sampling
    /// run for the two profiles to describe the same control flow).
    pub rand_seed: u64,
    /// Deterministic fault injection (testing only; defaults to no-op).
    pub fault: FaultPlan,
    /// Selective instrumentation: when set, only blocks whose entry lies in
    /// one of these `(module, start, end)` module-relative text ranges carry
    /// counters. Cold blocks still execute (their instructions count toward
    /// `native_insns` and stack profiling stays exact) but pay no counter
    /// charges and are omitted from the profile.
    pub selective: Option<Vec<(ModuleId, u64, u64)>>,
}

impl Default for DbiConfig {
    fn default() -> DbiConfig {
        DbiConfig {
            stack_profiling: true,
            cost: CostModel::default(),
            max_insns: 500_000_000,
            rand_seed: 0,
            fault: FaultPlan::default(),
            selective: None,
        }
    }
}

struct RtBlock {
    entry: CodeLoc,
    len: u32,
    term: TermKind,
    direct_target: Option<CodeLoc>,
    count: u64,
    fallthrough: u64,
    targets: FastMap<CodeLoc, u64>,
    /// Last observed indirect target (models DynamoRIO's inlined
    /// last-target comparison).
    last_target: Option<CodeLoc>,
    /// Whether this block carries counter instrumentation (always true
    /// outside selective mode).
    counted: bool,
    /// The two most recently taken exits as `(pc, block id)`, newest first:
    /// DynamoRIO's linked exits, which skip the block-cache lookup.
    links: [Option<(u64, usize)>; 2],
}

/// Charges one execution of an indirect terminator and maintains the inlined
/// last-target cache. `event` is `Some(resolved)` when the interpreter
/// reported a branch with `resolved` as its (possibly unmapped) target, and
/// `None` when no branch event was recorded — in that case the inlined
/// comparison cannot have hit, so the cached target must not survive to
/// discount the *next* indirect as a same-target hit.
fn indirect_charge(
    last_target: &mut Option<CodeLoc>,
    event: Option<Option<CodeLoc>>,
    model: &CostModel,
) -> u64 {
    match event {
        Some(target) => {
            let charge = if target.is_some() && target == *last_target {
                model.indirect_same_target
            } else {
                model.indirect_new_target
            };
            *last_target = target;
            charge
        }
        None => {
            *last_target = None;
            model.indirect_new_target
        }
    }
}

/// Runs the program under instrumentation, producing the counts profile.
///
/// This is the second execution of the OptiWISE pipeline (component 2 in
/// figure 3). The program runs functionally (no timing model): real DBI
/// slows the program down but does not change what it computes, and the
/// overhead estimate comes from the cost model instead.
///
/// A run cut short by the instruction budget, an execution fault, or the
/// config's fault plan is **not** an error: the counts collected up to the
/// cut come back as a partial profile whose `truncated` field says why.
/// Only blocks whose execution completed are counted, so a partial profile
/// undercounts but never misattributes.
///
/// # Errors
///
/// Only load-class failures (the process image cannot even start) abort the
/// pass with no profile.
pub fn instrument_run(image: &ProcessImage, cfg: &DbiConfig) -> Result<CountsProfile, SimError> {
    instrument_run_ctl(image, cfg, PassControl::default())
}

/// Like [`instrument_run`], under external [`PassControl`]: a fired
/// cancellation token stops the run at the next block boundary (a safe
/// point — only completed blocks are counted), and every
/// `checkpoint_every` retired instructions an in-flight profile snapshot
/// (marked `truncated = Cancelled`) is handed to the sink.
///
/// The config's `FaultPlan::kill_after_insns` (crash-style kill) also takes
/// effect here, surfacing as [`SimError::Killed`] with no partial profile.
///
/// # Errors
///
/// Load-class failures, plus [`SimError::Killed`] for the injected crash.
pub fn instrument_run_ctl(
    image: &ProcessImage,
    cfg: &DbiConfig,
    mut ctl: PassControl<'_, CountsProfile>,
) -> Result<CountsProfile, SimError> {
    let mut interp = Interp::new(image, cfg.rand_seed)?;
    let mut cache: FastMap<u64, usize> = FastMap::default();
    let mut blocks: Vec<RtBlock> = Vec::new();
    let mut cost = InstrumentationCost::default();

    // Algorithm 1 state.
    let mut global_counter: u64 = 0;
    let mut call_stack: Vec<CodeLoc> = Vec::new();
    let mut counter_stack: Vec<u64> = Vec::new();
    let mut callee_counts: FastMap<CodeLoc, u64> = FastMap::default();

    let model = cfg.cost;
    let injected_limit = cfg.fault.truncate_counts_at;
    let effective_max = injected_limit.map_or(cfg.max_insns, |n| n.min(cfg.max_insns));
    let mut truncated: Option<TruncationReason> = None;

    let kill_after = cfg.fault.kill_after_insns;
    let mut next_ckpt = ctl.first_checkpoint();
    let mut next_cancel_poll = CANCEL_POLL_INSNS;
    // Block that ran last; its exit links are tried before the cache.
    let mut prev: Option<usize> = None;

    'run: loop {
        if interp.exit_code().is_some() {
            break;
        }
        let retired = interp.retired();
        // Crash-style kill: die abruptly with no partial profile. Checked
        // before the checkpoint/cancel hooks so the kill wins any tie.
        if let Some(k) = kill_after {
            if retired >= k {
                return Err(SimError::Killed(retired));
            }
        }
        if retired >= next_ckpt {
            // Snapshots fire at block boundaries, so the actual cut point
            // can overshoot the nominal cadence by one block; resume
            // replays deterministically either way.
            let snap = build_profile(
                image,
                &blocks,
                &callee_counts,
                cfg.stack_profiling,
                cost,
                Some(TruncationReason::Cancelled(retired)),
            );
            next_ckpt = ctl.checkpoint(retired, snap);
        }
        match poll_cancel(ctl.cancel, retired, &mut next_cancel_poll) {
            Some(CancelCause::Kill) => return Err(SimError::Killed(retired)),
            Some(_) => {
                truncated = Some(TruncationReason::Cancelled(retired));
                break 'run;
            }
            None => {}
        }
        let pc = interp.cpu().pc;
        let linked = prev.and_then(|p| {
            let links = blocks[p].links.iter().flatten();
            links.copied().find(|&(to, _)| to == pc).map(|(_, id)| id)
        });
        let block_id = match linked.or_else(|| cache.get(&pc).copied()) {
            Some(id) => id,
            None => match translate(image, pc, cfg.selective.as_deref()) {
                Ok(block) => {
                    cost.unique_blocks += 1;
                    cost.instrumented_insns += model.translation;
                    blocks.push(block);
                    let id = blocks.len() - 1;
                    cache.insert(pc, id);
                    id
                }
                Err(SimError::Exec { pc, message }) => {
                    truncated = Some(TruncationReason::ExecFault { pc, message });
                    break 'run;
                }
                Err(e) => return Err(e),
            },
        };
        if let (None, Some(p)) = (linked, prev) {
            let links = &mut blocks[p].links;
            *links = [Some((pc, block_id)), links[0]];
        }
        let len = blocks[block_id].len;
        // A block that ends below both the kill point and the budget cannot
        // trip either check, so only blocks that reach a limit step with them.
        let end = interp.retired() + len as u64;
        let checked = end > effective_max || kill_after.is_some_and(|k| end >= k);

        // Execute the whole block; DynamoRIO blocks have a single exit.
        let mut last = None;
        for _ in 0..len {
            match interp.step() {
                Ok(Step::Retired(rec)) => last = Some(rec),
                Ok(Step::Exited(_)) => break,
                Err(SimError::Exec { pc, message }) => {
                    truncated = Some(TruncationReason::ExecFault { pc, message });
                    break 'run;
                }
                Err(e) => return Err(e),
            }
            if !checked {
                continue;
            }
            if let Some(k) = kill_after {
                if interp.retired() >= k {
                    return Err(SimError::Killed(interp.retired()));
                }
            }
            if interp.retired() > effective_max {
                truncated = Some(TruncationReason::at_limit(effective_max, injected_limit));
                break 'run;
            }
        }
        let Some(last) = last else { break };
        prev = Some(block_id);

        // Vertex counter and per-block costs. Cold blocks (selective mode)
        // still pay the code-cache dispatch but none of the counters.
        let b = &mut blocks[block_id];
        let counted = b.counted;
        b.count += 1;
        cost.block_execs += 1;
        cost.native_insns += len as u64;
        cost.instrumented_insns += len as u64 + model.block_dispatch;
        if counted {
            cost.instrumented_insns += model.vertex_counter;
            cost.counters_placed += 1;
        } else {
            cost.counters_suppressed += 1;
        }
        if cfg.stack_profiling {
            cost.instrumented_insns += model.stackprof_block;
            global_counter += len as u64;
        }

        // Edge counters, per terminator type.
        match b.term {
            TermKind::CondBranch => {
                if counted {
                    cost.instrumented_insns += model.cond_edge;
                    cost.counters_placed += 1;
                    if let Some(branch) = last.branch {
                        if !branch.taken {
                            b.fallthrough += 1;
                        }
                    }
                } else {
                    cost.counters_suppressed += 1;
                }
            }
            TermKind::Indirect => {
                if counted {
                    cost.indirect_execs += 1;
                    cost.counters_placed += 1;
                    let event = last.branch.map(|branch| image.resolve(branch.target));
                    cost.instrumented_insns += indirect_charge(&mut b.last_target, event, &model);
                    if let Some(Some(target)) = event {
                        *b.targets.entry(target).or_insert(0) += 1;
                    }
                } else {
                    cost.counters_suppressed += 1;
                }
            }
            TermKind::DirectJump | TermKind::DirectCall | TermKind::Syscall => {
                if counted {
                    cost.instrumented_insns += model.vertex_counter;
                    cost.counters_placed += 1;
                } else {
                    cost.counters_suppressed += 1;
                }
            }
            TermKind::Fallthrough => {}
        }

        // Algorithm 1: annotations before call and return instructions.
        if cfg.stack_profiling {
            match last.flow {
                Some(wiser_sim::FlowEvent::Call { .. }) => {
                    cost.instrumented_insns += model.stackprof_call;
                    if let Some(site) = image.resolve(last.addr) {
                        call_stack.push(site);
                        counter_stack.push(global_counter);
                        global_counter = 0;
                    }
                }
                Some(wiser_sim::FlowEvent::Ret { .. }) => {
                    cost.instrumented_insns += model.stackprof_ret;
                    if let (Some(site), Some(saved)) = (call_stack.pop(), counter_stack.pop()) {
                        *callee_counts.entry(site).or_insert(0) += global_counter;
                        global_counter += saved;
                    }
                }
                None => {}
            }
        }
    }

    Ok(build_profile(
        image,
        &blocks,
        &callee_counts,
        cfg.stack_profiling,
        cost,
        truncated,
    ))
}

/// Converts the engine's runtime block table into a [`CountsProfile`]
/// without consuming it, so checkpoint snapshots and the final return share
/// one code path (and therefore one notion of what a profile contains).
fn build_profile(
    image: &ProcessImage,
    blocks: &[RtBlock],
    callee_counts: &FastMap<CodeLoc, u64>,
    stack_profiling: bool,
    cost: InstrumentationCost,
    truncated: Option<TruncationReason>,
) -> CountsProfile {
    let blocks = blocks
        .iter()
        .filter(|b| b.counted)
        .map(|b| {
            let mut targets: Vec<(CodeLoc, u64)> =
                b.targets.iter().map(|(t, c)| (*t, *c)).collect();
            targets.sort();
            BlockCount {
                entry: b.entry,
                len: b.len,
                count: b.count,
                term: b.term,
                direct_target: b.direct_target,
                fallthrough: b.fallthrough,
                targets,
            }
        })
        .collect();

    CountsProfile {
        module_names: image
            .modules
            .iter()
            .map(|m| m.linked.name.clone())
            .collect(),
        blocks,
        callee_counts: callee_counts.clone(),
        stack_profiling,
        cost,
        placement: None,
        truncated,
    }
}

/// Translates the block starting at absolute address `pc`: decode forward
/// until the first control-transfer instruction.
fn translate(
    image: &ProcessImage,
    pc: u64,
    selective: Option<&[(ModuleId, u64, u64)]>,
) -> Result<RtBlock, SimError> {
    let entry = image.resolve(pc).ok_or_else(|| SimError::Exec {
        pc,
        message: "block entry outside mapped code".into(),
    })?;
    let counted = selective.is_none_or(|ranges| {
        ranges
            .iter()
            .any(|&(m, lo, hi)| entry.module == m && entry.offset >= lo && entry.offset < hi)
    });
    let module = image.module(entry.module).expect("resolved module exists");
    let text_end = module.text_size;
    let mut len = 0u32;
    let mut offset = entry.offset;
    loop {
        let insn = module.linked.insn_at(offset).map_err(|e| SimError::Exec {
            pc: module.base + offset,
            message: format!("undecodable instruction: {e}"),
        })?;
        len += 1;
        if let Some(kind) = insn.cti_kind() {
            let direct_target = insn.direct_target().map(|t| CodeLoc {
                module: entry.module,
                offset: t as u64,
            });
            return Ok(RtBlock {
                entry,
                len,
                term: TermKind::of_cti(kind),
                direct_target,
                count: 0,
                fallthrough: 0,
                targets: FastMap::default(),
                last_target: None,
                counted,
                links: [None; 2],
            });
        }
        offset += INSN_BYTES;
        if offset >= text_end {
            return Ok(RtBlock {
                entry,
                len,
                term: TermKind::Fallthrough,
                direct_target: None,
                count: 0,
                fallthrough: 0,
                targets: FastMap::default(),
                last_target: None,
                counted,
                links: [None; 2],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_isa::assemble;
    use wiser_sim::{CancelToken, ModuleId};

    fn loc(m: u32, o: u64) -> CodeLoc {
        CodeLoc {
            module: ModuleId(m),
            offset: o,
        }
    }

    fn profile_of(src: &str) -> CountsProfile {
        let image = ProcessImage::load_single(&assemble("t", src).unwrap()).unwrap();
        instrument_run(&image, &DbiConfig::default()).unwrap()
    }

    #[test]
    fn loop_counts_exact() {
        let p = profile_of(
            r#"
            .func _start global
                li x8, 100
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
        // Blocks: [li,li,addi,subi,bne] entry once + [addi,subi,bne] (loop
        // target creates an overlapping block) ×99 + [li,syscall] ×1.
        let counts = p.insn_counts();
        // The addi at offset 16 executes exactly 100 times.
        assert_eq!(counts[&loc(0, 16)], 100);
        assert_eq!(counts[&loc(0, 0)], 1);
        // Total dynamic instructions match the functional run.
        assert_eq!(p.total_insns(), p.cost.native_insns);
    }

    #[test]
    fn cond_branch_fallthrough_counter() {
        let p = profile_of(
            r#"
            .func _start global
                li x8, 10
                li x9, 0
            loop:
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        // The bne executes 10 times (taken 9, fall-through 1), split across
        // the entry block and the overlapping loop-target block.
        let cond_blocks: Vec<_> = p
            .blocks
            .iter()
            .filter(|b| b.term == TermKind::CondBranch)
            .collect();
        let total: u64 = cond_blocks.iter().map(|b| b.count).sum();
        let fallthrough: u64 = cond_blocks.iter().map(|b| b.fallthrough).sum();
        let taken: u64 = cond_blocks.iter().map(|b| b.taken()).sum();
        assert_eq!(total, 10);
        assert_eq!(fallthrough, 1);
        assert_eq!(taken, 9);
    }

    #[test]
    fn overlapping_blocks_from_branch_into_middle() {
        let p = profile_of(
            r#"
            .func _start global
                li x8, 5
                li x9, 0
            top:
                addi x1, x1, 1     ; offset 16: head of big block
                addi x2, x2, 1     ; offset 24: target of the branch below
                subi x8, x8, 1
                bne x8, x9, mid
                li x0, 0
                syscall
            mid:
                jmp top2
            top2:
                jmp join
            join:
                subi x8, x8, 1
                bne x8, x9, mid2
                li x0, 0
                syscall
            mid2:
                addi x2, x2, 1
                jmp join
            .endfunc
            .entry _start
            "#,
        );
        // Sanity: instruction counts are consistent despite block overlap.
        assert_eq!(p.total_insns(), p.cost.native_insns);
        assert!(p.cost.unique_blocks >= 4);
    }

    #[test]
    fn indirect_targets_recorded() {
        let p = profile_of(
            r#"
            .func fa
                addi x0, x1, 1
                ret
            .endfunc
            .func fb
                addi x0, x1, 2
                ret
            .endfunc
            .func _start global
                la x4, fa
                la x5, fb
                li x8, 6
                li x9, 0
            loop:
                andi x1, x8, 1
                beq x1, x9, even
                mov x6, x4
                jmp docall
            even:
                mov x6, x5
            docall:
                callr x6
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        // The callr executes through two blocks (one per inbound path); the
        // union of their indirect targets is fa (3 odd iterations) and fb
        // (3 even iterations).
        let mut by_target: FastMap<CodeLoc, u64> = FastMap::default();
        for b in p.blocks.iter().filter(|b| b.term == TermKind::Indirect) {
            for (t, c) in &b.targets {
                *by_target.entry(*t).or_insert(0) += c;
            }
        }
        assert_eq!(by_target[&loc(0, 0)], 3); // fa entry
        assert_eq!(by_target[&loc(0, 16)], 3); // fb entry
        assert_eq!(p.cost.indirect_execs, 12); // 6 indirect calls + 6 returns
    }

    #[test]
    fn callee_count_table_matches_algorithm1() {
        let p = profile_of(
            r#"
            .func work
                li x2, 3        ; 3 insns per call + ret = 4... counted below
                addi x2, x2, 1
                ret
            .endfunc
            .func _start global
                call work       ; call site at offset of _start+0
                call work
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        // `work` runs 3 instructions per invocation (li, addi, ret).
        // Two call sites, one invocation each.
        assert_eq!(p.callee_counts.len(), 2);
        for count in p.callee_counts.values() {
            assert_eq!(*count, 3);
        }
    }

    #[test]
    fn nested_calls_accumulate() {
        let p = profile_of(
            r#"
            .func leaf
                addi x2, x2, 1  ; 2 insns per call
                ret
            .endfunc
            .func mid
                call leaf       ; mid runs 3 own insns + leaf's 2
                call leaf
                ret
            .endfunc
            .func _start global
                call mid
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let image = ProcessImage::load_single(
            &assemble(
                "t",
                r#"
            .func leaf
                addi x2, x2, 1
                ret
            .endfunc
            .func mid
                call leaf
                call leaf
                ret
            .endfunc
            .func _start global
                call mid
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
            )
            .unwrap(),
        )
        .unwrap();
        let mid_sym = image.modules[0].linked.symbol("mid").unwrap().offset;
        let start_sym = image.modules[0].linked.symbol("_start").unwrap().offset;
        // Call site in _start: mid executes 3 own + 2×2 leaf = 7.
        assert_eq!(p.callee_counts[&loc(0, start_sym)], 7);
        // Each call site in mid: leaf executes 2.
        assert_eq!(p.callee_counts[&loc(0, mid_sym)], 2);
        assert_eq!(p.callee_counts[&loc(0, mid_sym + 8)], 2);
    }

    #[test]
    fn recursion_does_not_double_count() {
        let p = profile_of(
            r#"
            .func rec
                push fp
                mov fp, sp
                li x2, 0
                ble_check:
                blt x1, x2, base   ; never; x1 >= 0
                li x3, 1
                blt x1, x3, base   ; x1 < 1 -> base
                subi x1, x1, 1
                call rec
            base:
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func _start global
                li x1, 5
                call rec
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        // The recursive call site's total equals the sum of all nested
        // executions; just check the table is populated and consistent.
        assert!(!p.callee_counts.is_empty());
        let total: u64 = p.callee_counts.values().sum();
        assert!(total > 0 && total < 10 * p.cost.native_insns);
    }

    #[test]
    fn stack_profiling_can_be_disabled() {
        let src = r#"
            .func work
                ret
            .endfunc
            .func _start global
                call work
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let image = ProcessImage::load_single(&assemble("t", src).unwrap()).unwrap();
        let with = instrument_run(&image, &DbiConfig::default()).unwrap();
        let without = instrument_run(
            &image,
            &DbiConfig {
                stack_profiling: false,
                ..DbiConfig::default()
            },
        )
        .unwrap();
        assert!(without.callee_counts.is_empty());
        assert!(!with.callee_counts.is_empty());
        assert!(without.cost.instrumented_insns < with.cost.instrumented_insns);
    }

    #[test]
    fn overhead_grows_with_indirect_branches() {
        let direct = profile_of(
            r#"
            .func _start global
                li x8, 2000
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
        let indirect = profile_of(
            r#"
            .func f
                ret
            .endfunc
            .func _start global
                li x8, 2000
                li x9, 0
            loop:
                call f
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert!(
            indirect.cost.overhead() > 2.0 * direct.cost.overhead(),
            "indirect {:.1}x vs direct {:.1}x",
            indirect.cost.overhead(),
            direct.cost.overhead()
        );
    }

    const COUNTED_LOOP: &str = r#"
        .func _start global
            li x8, 10000
            li x9, 0
        loop:
            addi x1, x1, 1
            subi x8, x8, 1
            bne x8, x9, loop
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;

    #[test]
    fn budget_cut_yields_partial_profile() {
        let image = ProcessImage::load_single(&assemble("t", COUNTED_LOOP).unwrap()).unwrap();
        let p = instrument_run(
            &image,
            &DbiConfig {
                max_insns: 5_000,
                ..DbiConfig::default()
            },
        )
        .unwrap();
        assert_eq!(p.truncated, Some(TruncationReason::InsnLimit(5_000)));
        // Counts collected before the cut are kept and consistent: only
        // completed blocks are counted.
        assert!(p.total_insns() > 0);
        assert!(p.total_insns() <= 5_000);
        assert_eq!(p.total_insns(), p.cost.native_insns);
    }

    #[test]
    fn injected_truncation_is_labelled_injected() {
        let image = ProcessImage::load_single(&assemble("t", COUNTED_LOOP).unwrap()).unwrap();
        let mut cfg = DbiConfig::default();
        cfg.fault.truncate_counts_at = Some(7_000);
        let p = instrument_run(&image, &cfg).unwrap();
        assert_eq!(p.truncated, Some(TruncationReason::Injected(7_000)));
        assert!(p.total_insns() > 0 && p.total_insns() <= 7_000);
    }

    #[test]
    fn kill_after_dies_with_no_profile() {
        let image = ProcessImage::load_single(&assemble("t", COUNTED_LOOP).unwrap()).unwrap();
        let mut cfg = DbiConfig::default();
        cfg.fault.kill_after_insns = Some(6_000);
        let err = instrument_run(&image, &cfg).unwrap_err();
        match err {
            SimError::Killed(n) => assert!(n >= 6_000, "killed at {n}"),
            other => panic!("expected Killed, got {other}"),
        }
    }

    /// Limits are checked per instruction in the block that reaches them, so
    /// kill and truncation cut points do not move to block boundaries.
    #[test]
    fn limits_cut_at_the_exact_instruction() {
        let image = ProcessImage::load_single(&assemble("t", COUNTED_LOOP).unwrap()).unwrap();
        // Blocks end after 5 instructions, then every 3 (the loop body).
        for n in 5_990..5_996u64 {
            let mut cfg = DbiConfig::default();
            cfg.fault.kill_after_insns = Some(n);
            assert!(matches!(instrument_run(&image, &cfg), Err(SimError::Killed(k)) if k == n));
            let mut cfg = DbiConfig::default();
            cfg.fault.truncate_counts_at = Some(n);
            let p = instrument_run(&image, &cfg).unwrap();
            assert_eq!(p.truncated, Some(TruncationReason::Injected(n)));
            assert_eq!(p.total_insns(), n - (n - 5) % 3, "truncate-counts={n}");
        }
    }

    #[test]
    fn kill_wins_tie_with_budget() {
        let image = ProcessImage::load_single(&assemble("t", COUNTED_LOOP).unwrap()).unwrap();
        let mut cfg = DbiConfig {
            max_insns: 6_000,
            ..DbiConfig::default()
        };
        cfg.fault.kill_after_insns = Some(6_000);
        assert!(matches!(
            instrument_run(&image, &cfg),
            Err(SimError::Killed(_))
        ));
    }

    #[test]
    fn cancelled_token_truncates_as_cancelled() {
        let image = ProcessImage::load_single(&assemble("t", COUNTED_LOOP).unwrap()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let p = instrument_run_ctl(
            &image,
            &DbiConfig::default(),
            PassControl {
                cancel: Some(&token),
                ..PassControl::default()
            },
        )
        .unwrap();
        assert!(
            matches!(p.truncated, Some(TruncationReason::Cancelled(_))),
            "{:?}",
            p.truncated
        );
        // The cut happens at the first poll, so at most one poll interval
        // plus one block of instructions ran.
        assert!(p.total_insns() <= CANCEL_POLL_INSNS + 16);
    }

    #[test]
    fn checkpoints_fire_at_cadence_with_monotonic_snapshots() {
        let image = ProcessImage::load_single(&assemble("t", COUNTED_LOOP).unwrap()).unwrap();
        let mut snaps: Vec<(u64, u64)> = Vec::new();
        let mut sink = |retired: u64, p: CountsProfile| {
            assert!(matches!(p.truncated, Some(TruncationReason::Cancelled(_))));
            snaps.push((retired, p.total_insns()));
        };
        let p = instrument_run_ctl(
            &image,
            &DbiConfig::default(),
            PassControl {
                cancel: None,
                checkpoint_every: 5_000,
                sink: Some(&mut sink),
            },
        )
        .unwrap();
        assert!(p.truncated.is_none());
        // ~30k dynamic instructions at a 5k cadence: several snapshots,
        // strictly increasing in both position and counted instructions.
        assert!(snaps.len() >= 3, "only {} snapshots", snaps.len());
        for w in snaps.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!(snaps.iter().all(|&(_, total)| total <= p.total_insns()));
    }

    #[test]
    fn unresolved_indirect_resets_last_target() {
        // Pins the charge sequence of the inlined last-target comparison:
        // after an unresolved indirect event the cached target is stale and
        // must not discount the next indirect as a same-target hit.
        let model = CostModel::dynamorio_like();
        let t = Some(loc(0, 0x40));
        let mut last = None;
        assert_eq!(
            indirect_charge(&mut last, Some(t), &model),
            model.indirect_new_target
        );
        assert_eq!(
            indirect_charge(&mut last, Some(t), &model),
            model.indirect_same_target
        );
        assert_eq!(
            indirect_charge(&mut last, None, &model),
            model.indirect_new_target
        );
        assert_eq!(last, None, "unresolved event must clear the cache");
        // Regression: this used to bill indirect_same_target because the
        // stale target survived the miss.
        assert_eq!(
            indirect_charge(&mut last, Some(t), &model),
            model.indirect_new_target
        );
        assert_eq!(
            indirect_charge(&mut last, Some(t), &model),
            model.indirect_same_target
        );
    }

    #[test]
    fn counter_tallies_cover_every_charge() {
        let p = profile_of(COUNTED_LOOP);
        // One vertex charge per block exec, plus one edge charge per
        // non-fallthrough terminator exec; nothing suppressed.
        assert_eq!(p.cost.counters_suppressed, 0);
        assert!(p.cost.counters_placed > p.cost.block_execs);
        assert!(p.cost.counters_placed <= 2 * p.cost.block_execs);
    }

    #[test]
    fn selective_skips_cold_counters_but_keeps_stack_profiling() {
        let src = r#"
            .func cold
                addi x2, x2, 1
                addi x2, x2, 1
                ret
            .endfunc
            .func _start global
                li x8, 50
                li x9, 0
            loop:
                call cold
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let image = ProcessImage::load_single(&assemble("t", src).unwrap()).unwrap();
        let full = instrument_run(&image, &DbiConfig::default()).unwrap();
        let start = image.modules[0].linked.symbol("_start").unwrap();
        let sel = instrument_run(
            &image,
            &DbiConfig {
                selective: Some(vec![(ModuleId(0), start.offset, start.offset + start.size)]),
                ..DbiConfig::default()
            },
        )
        .unwrap();
        // Cold blocks vanish from the profile but their instructions still
        // retire, and the callee table (stack profiling) stays exact.
        assert!(sel.total_insns() < sel.cost.native_insns);
        assert_eq!(sel.cost.native_insns, full.cost.native_insns);
        assert_eq!(sel.callee_counts, full.callee_counts);
        assert!(sel.blocks.len() < full.blocks.len());
        assert!(sel
            .blocks
            .iter()
            .all(|b| b.entry.offset >= start.offset && b.entry.offset < start.offset + start.size));
        // Suppression is visible in both tallies and the overhead estimate.
        assert!(sel.cost.counters_suppressed > 0);
        assert!(sel.cost.instrumented_insns < full.cost.instrumented_insns);
        assert_eq!(
            sel.cost.counters_placed + sel.cost.counters_suppressed,
            full.cost.counters_placed
        );
    }

    #[test]
    fn deterministic() {
        let src = r#"
            .func _start global
                li x8, 500
                li x9, 0
            loop:
                li x0, 5
                syscall
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let image = ProcessImage::load_single(&assemble("t", src).unwrap()).unwrap();
        let a = instrument_run(&image, &DbiConfig::default()).unwrap();
        let b = instrument_run(&image, &DbiConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
