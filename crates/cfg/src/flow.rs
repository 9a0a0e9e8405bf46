//! Counter-placement optimization and flow-conservation recovery.
//!
//! The DBI engine naively pays one vertex counter per block execution plus
//! an edge counter at most terminators. Most of those probes are redundant:
//! block and edge counts obey Kirchhoff-style flow conservation, so a
//! subset of counters determines the rest. This module
//!
//! 1. models the runtime block graph as a linear system — one equation per
//!    block stating `executions = entry + Σ inflows`,
//! 2. greedily suppresses counters (guided by the dominator tree: counters
//!    belong on dominator-tree leaves, interior nodes are derivable),
//!    accepting a suppression only if re-solving the system reproduces the
//!    ground-truth value **exactly**, and
//! 3. recovers the suppressed values at analysis time by running the same
//!    deterministic solve, so the recovered [`CountsProfile`] is
//!    bit-identical to exhaustive counting.
//!
//! The truth-validated greedy makes correctness independent of how faithful
//! the flow model is: any un-modeled control transfer (the final exit
//! syscall, blocks running off text) merely causes candidate rejection,
//! never a wrong recovery, because planner and recovery solve the *same*
//! system and the planner only suppresses what that system provably
//! reproduces.

use wiser_dbi::{BlockCount, CostModel, CounterPlacement, CountsProfile, TermKind};
use wiser_isa::Module;
use wiser_sim::{CodeLoc, FastMap, FastSet, ModuleId};

use crate::dom::Dominators;
use crate::graph::build_cfg;

/// Keeps planning cost bounded on huge profiles: only the top candidates by
/// dynamic savings are tried.
const MAX_CANDIDATES: usize = 2_000;

/// One unknown of the flow system: a block's vertex counter, or a
/// conditional block's fall-through counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Var {
    Count(usize),
    Fallthrough(usize),
}

impl Var {
    /// The variable's dense slot: `Count(i)` is `2i`, `Fallthrough(i)` is
    /// `2i + 1`.
    fn slot(self) -> usize {
        match self {
            Var::Count(i) => 2 * i,
            Var::Fallthrough(i) => 2 * i + 1,
        }
    }
}

/// Sort key that puts slots in [`Var`] order: every vertex counter by
/// block, then every fall-through counter by block.
fn var_order(slot: usize) -> (usize, usize) {
    (slot & 1, slot >> 1)
}

/// Equations `Σ coeff · var + constant = 0` over dense variable slots.
/// Flow coefficients accumulate to ±1 (a conditional self-loop cancels its
/// own vertex term to 0, which is dropped — a self-loop's vertex counter is
/// invisible to pure edge flow and only the global instruction-conservation
/// equation can pin it down).
struct FlowSystem {
    /// `(slot, coeff)` terms of every equation, back to back; each
    /// equation's terms are in [`Var`] order.
    terms: Vec<(usize, i64)>,
    /// Per equation, in solving order: the end of its terms in `terms`
    /// and its constant.
    equations: Vec<(usize, i128)>,
}

impl FlowSystem {
    /// Builds one flow-conservation equation per block: the block's
    /// execution count equals the program-entry indicator (block 0 is the
    /// first block ever dispatched) plus the traversal counts of every
    /// inbound edge. Indirect-branch targets are hash counters that are
    /// never suppressed, so they enter as constants.
    ///
    /// Then one global instruction-conservation equation
    /// `Σ len·count = total`: the profile's exact dynamic instruction total
    /// determines one more unknown than pure edge flow can — in particular
    /// the vertex counter of a self-loop, whose own flow equation cancels
    /// to nothing.
    fn new(blocks: &[BlockCount], total: u64) -> FlowSystem {
        let index: FastMap<CodeLoc, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.entry, i))
            .collect();
        // `(equation, slot, coeff)` of every flow term; terms of one
        // variable in one equation are summed below.
        let mut raw: Vec<(usize, usize, i64)> = Vec::with_capacity(3 * blocks.len());
        let mut constants: Vec<i128> = vec![0; blocks.len()];
        raw.extend((0..blocks.len()).map(|i| (i, Var::Count(i).slot(), -1)));
        if !blocks.is_empty() {
            constants[0] += 1;
        }
        for (a, b) in blocks.iter().enumerate() {
            let count = Var::Count(a).slot();
            let fallthrough = Var::Fallthrough(a).slot();
            match b.term {
                TermKind::DirectJump | TermKind::DirectCall => {
                    if let Some(&j) = b.direct_target.as_ref().and_then(|t| index.get(t)) {
                        raw.push((j, count, 1));
                    }
                }
                TermKind::Syscall => {
                    if let Some(&j) = index.get(&b.fallthrough_loc()) {
                        raw.push((j, count, 1));
                    }
                }
                TermKind::CondBranch => {
                    // Taken edge traverses `count - fallthrough` times.
                    if let Some(&j) = b.direct_target.as_ref().and_then(|t| index.get(t)) {
                        raw.push((j, count, 1));
                        raw.push((j, fallthrough, -1));
                    }
                    if let Some(&j) = index.get(&b.fallthrough_loc()) {
                        raw.push((j, fallthrough, 1));
                    }
                }
                TermKind::Indirect => {
                    for (t, c) in &b.targets {
                        if let Some(&j) = index.get(t) {
                            constants[j] += *c as i128;
                        }
                    }
                }
                TermKind::Fallthrough => {}
            }
        }
        raw.sort_unstable_by_key(|&(eq, slot, _)| (eq, var_order(slot)));

        let mut terms: Vec<(usize, i64)> = Vec::with_capacity(raw.len() + blocks.len());
        let mut equations: Vec<(usize, i128)> = Vec::with_capacity(blocks.len() + 1);
        let mut raw = raw.into_iter().peekable();
        for (eq, constant) in constants.into_iter().enumerate() {
            while let Some((_, slot, mut coeff)) = raw.next_if(|&(e, _, _)| e == eq) {
                while let Some((_, _, c)) = raw.next_if(|&(e, s, _)| e == eq && s == slot) {
                    coeff += c;
                }
                if coeff != 0 {
                    terms.push((slot, coeff));
                }
            }
            equations.push((terms.len(), constant));
        }
        terms.extend(
            blocks
                .iter()
                .enumerate()
                .filter(|(_, b)| b.len > 0)
                .map(|(i, b)| (Var::Count(i).slot(), b.len as i64)),
        );
        equations.push((terms.len(), -(total as i128)));
        FlowSystem { terms, equations }
    }

    /// Repeated substitution sweeps over `knowns` (indexed by slot): any
    /// equation with exactly one unknown of unit coefficient yields that
    /// unknown. Deterministic (fixed equation order, exact integer
    /// arithmetic) so the planner and the analysis-time recovery always
    /// agree.
    fn solve(&self, knowns: &mut [Option<u64>]) {
        loop {
            let mut progress = false;
            let mut start = 0;
            for &(end, constant) in &self.equations {
                let terms = &self.terms[start..end];
                start = end;
                let mut unknown: Option<(usize, i64)> = None;
                let mut total = constant;
                let mut solvable = true;
                for &(v, c) in terms {
                    match knowns[v] {
                        Some(val) => total += c as i128 * val as i128,
                        None if unknown.is_none() => unknown = Some((v, c)),
                        None => {
                            solvable = false;
                            break;
                        }
                    }
                }
                if !solvable {
                    continue;
                }
                if let Some((v, c)) = unknown {
                    let c = c as i128;
                    if total % c != 0 {
                        continue;
                    }
                    let val = -total / c;
                    if (0..=u64::MAX as i128).contains(&val) {
                        knowns[v] = Some(val as u64);
                        progress = true;
                    }
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Whether solving with the `suppressed` slots removed from `truth`
    /// reproduces every suppressed value exactly. `knowns` is scratch.
    fn recovers_exactly(
        &self,
        truth: &[Option<u64>],
        suppressed: &[usize],
        knowns: &mut Vec<Option<u64>>,
    ) -> bool {
        knowns.clear();
        knowns.extend_from_slice(truth);
        for &s in suppressed {
            knowns[s] = None;
        }
        self.solve(knowns);
        suppressed.iter().all(|&s| knowns[s] == truth[s])
    }
}

/// Every counter value of the profile by slot: vertex counters for all
/// blocks, fall-through counters for conditional blocks.
fn truth_of(blocks: &[BlockCount]) -> Vec<Option<u64>> {
    let mut truth = vec![None; 2 * blocks.len()];
    for (i, b) in blocks.iter().enumerate() {
        truth[Var::Count(i).slot()] = Some(b.count);
        if b.term == TermKind::CondBranch {
            truth[Var::Fallthrough(i).slot()] = Some(b.fallthrough);
        }
    }
    truth
}

/// Plans a minimal counter placement for `counts` and applies it in place:
/// suppressed counter values are erased to zero, the cost tallies move the
/// saved charges from `counters_placed` to `counters_suppressed`, the
/// estimated `instrumented_insns` shed the avoided meta-instructions, and
/// `placement` records what must be recovered.
///
/// The redundant per-terminator edge counter of direct jumps, calls and
/// syscalls (whose traversal count always equals the block count) is
/// dropped unconditionally — it has no stored value, so nothing needs
/// recovery.
///
/// `modules` must be the linked modules in [`ModuleId`] order; they feed
/// the dominator-tree heuristic that orders candidates. No-op on truncated
/// or already-placed profiles (a truncated profile's counters do not obey
/// flow conservation at the cut).
pub fn optimize_placement(counts: &mut CountsProfile, modules: &[Module], model: &CostModel) {
    if counts.placement.is_some() || counts.truncated.is_some() {
        return;
    }

    // Dominator-tree interior nodes (those that strictly dominate another
    // block) are the classically derivable ones; prefer suppressing them.
    let mut interior: FastSet<CodeLoc> = FastSet::default();
    for (m, module) in modules.iter().enumerate() {
        let module_id = ModuleId(m as u32);
        let cfg = build_cfg(module_id, module, &BlockCounts::stored(counts));
        for f in &cfg.functions {
            let Some(entry) = f.entry else { continue };
            let dom = Dominators::compute(&cfg, entry);
            for &b in &f.blocks {
                if let Some(id) = dom.idom(b) {
                    interior.insert(CodeLoc {
                        module: module_id,
                        offset: cfg.blocks[id].start,
                    });
                }
            }
        }
    }

    struct Candidate {
        var: Var,
        savings: u64,
        interior: bool,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for (i, b) in counts.blocks.iter().enumerate() {
        if b.count == 0 {
            continue;
        }
        let is_interior = interior.contains(&b.entry);
        candidates.push(Candidate {
            var: Var::Count(i),
            savings: b.count.saturating_mul(model.vertex_counter),
            interior: is_interior,
        });
        if b.term == TermKind::CondBranch {
            candidates.push(Candidate {
                var: Var::Fallthrough(i),
                savings: b.count.saturating_mul(model.cond_edge),
                interior: is_interior,
            });
        }
    }
    candidates.sort_by(|a, b| {
        b.savings
            .cmp(&a.savings)
            .then(b.interior.cmp(&a.interior))
            .then(a.var.cmp(&b.var))
    });
    candidates.truncate(MAX_CANDIDATES);

    let total_insns = counts.total_insns();
    let truth = truth_of(&counts.blocks);
    let system = FlowSystem::new(&counts.blocks, total_insns);
    let mut suppressed: Vec<usize> = Vec::new();
    let mut knowns: Vec<Option<u64>> = Vec::with_capacity(truth.len());
    for c in candidates {
        suppressed.push(c.var.slot());
        if !system.recovers_exactly(&truth, &suppressed, &mut knowns) {
            suppressed.pop();
        }
    }
    suppressed.sort_unstable_by_key(|&s| var_order(s));

    // Apply: account the saved charges against the original counts, then
    // erase the suppressed values.
    let mut vertex_suppressed: Vec<u32> = Vec::new();
    let mut fallthrough_suppressed: Vec<u32> = Vec::new();
    let mut saved_insns: u64 = 0;
    let mut saved_charges: u64 = 0;
    for &s in &suppressed {
        let i = s >> 1;
        if s & 1 == 0 {
            vertex_suppressed.push(i as u32);
            saved_insns += counts.blocks[i].count.saturating_mul(model.vertex_counter);
        } else {
            fallthrough_suppressed.push(i as u32);
            saved_insns += counts.blocks[i].count.saturating_mul(model.cond_edge);
        }
        saved_charges += counts.blocks[i].count;
    }
    for b in &counts.blocks {
        if matches!(
            b.term,
            TermKind::DirectJump | TermKind::DirectCall | TermKind::Syscall
        ) {
            saved_insns += b.count.saturating_mul(model.vertex_counter);
            saved_charges += b.count;
        }
    }
    for &i in &vertex_suppressed {
        counts.blocks[i as usize].count = 0;
    }
    for &i in &fallthrough_suppressed {
        counts.blocks[i as usize].fallthrough = 0;
    }
    counts.cost.instrumented_insns = counts.cost.instrumented_insns.saturating_sub(saved_insns);
    counts.cost.counters_placed = counts.cost.counters_placed.saturating_sub(saved_charges);
    counts.cost.counters_suppressed += saved_charges;
    counts.placement = Some(CounterPlacement {
        vertex_suppressed,
        fallthrough_suppressed,
        total_insns,
        recovered: false,
    });
}

/// The block and fall-through counts of a profile with any suppressed
/// counters recovered by flow conservation. It borrows the profile: a
/// recovery holds only the solved counter values, so analysing a stored
/// run copies nothing of it.
pub struct BlockCounts<'a> {
    profile: &'a CountsProfile,
    /// Every counter by slot after the solve, when the profile carries a
    /// placement still to recover; `None` reads the stored counters.
    solved: Option<Vec<Option<u64>>>,
}

impl<'a> BlockCounts<'a> {
    /// The counters as stored, with nothing recovered: for profiles
    /// counted exhaustively, or to read a placement's erased zeros.
    pub fn stored(profile: &'a CountsProfile) -> BlockCounts<'a> {
        BlockCounts {
            profile,
            solved: None,
        }
    }

    /// Recovers the suppressed counters of a placed profile: every count
    /// reads bit-identical to what exhaustive counting would have produced
    /// (the planner only suppressed values this very solve provably
    /// reproduces). Profiles without placement, or already recovered,
    /// read as stored.
    ///
    /// # Errors
    ///
    /// Returns a description when a suppressed counter cannot be derived —
    /// possible only for a profile whose placement was not produced by
    /// [`optimize_placement`] on the same block table (corruption or a
    /// version-skewed encoder).
    pub fn recover(profile: &'a CountsProfile) -> Result<BlockCounts<'a>, String> {
        let Some(placement) = profile.placement.as_ref().filter(|p| !p.recovered) else {
            return Ok(BlockCounts::stored(profile));
        };
        let n = profile.blocks.len();
        for &i in placement
            .vertex_suppressed
            .iter()
            .chain(&placement.fallthrough_suppressed)
        {
            if i as usize >= n {
                return Err(format!("placement references block {i} of {n}"));
            }
        }
        let mut knowns = truth_of(&profile.blocks);
        for &i in &placement.vertex_suppressed {
            knowns[Var::Count(i as usize).slot()] = None;
        }
        for &i in &placement.fallthrough_suppressed {
            knowns[Var::Fallthrough(i as usize).slot()] = None;
        }
        FlowSystem::new(&profile.blocks, placement.total_insns).solve(&mut knowns);

        for &i in &placement.vertex_suppressed {
            if knowns[Var::Count(i as usize).slot()].is_none() {
                return Err(format!("vertex counter of block {i} is not recoverable"));
            }
        }
        for &i in &placement.fallthrough_suppressed {
            if knowns[Var::Fallthrough(i as usize).slot()].is_none() {
                return Err(format!(
                    "fall-through counter of block {i} is not recoverable"
                ));
            }
        }
        let counts = BlockCounts {
            profile,
            solved: Some(knowns),
        };
        // The stored total participates in the solve; cross-check the
        // result against it so a corrupted or version-skewed placement
        // fails loudly instead of mis-recovering.
        let recovered_total = counts.total_insns();
        if recovered_total != placement.total_insns {
            return Err(format!(
                "recovered total {recovered_total} contradicts the placement's \
                 recorded total {}",
                placement.total_insns
            ));
        }
        Ok(counts)
    }

    /// The profile the counts belong to.
    pub fn profile(&self) -> &'a CountsProfile {
        self.profile
    }

    /// Executions of block `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.read(Var::Count(i), self.profile.blocks[i].count)
    }

    /// Fall-through executions of block `i` (conditional blocks only).
    pub fn fallthrough(&self, i: usize) -> u64 {
        self.read(Var::Fallthrough(i), self.profile.blocks[i].fallthrough)
    }

    fn read(&self, var: Var, stored: u64) -> u64 {
        match &self.solved {
            Some(knowns) => knowns[var.slot()].unwrap_or(stored),
            None => stored,
        }
    }

    /// Total dynamic instructions (sum of block count × len).
    pub fn total_insns(&self) -> u64 {
        (0..self.profile.blocks.len())
            .map(|i| self.count(i) * self.profile.blocks[i].len as u64)
            .sum()
    }
}

/// Recovers the suppressed counters of a placed profile into a copy of it
/// whose block and edge counts are bit-identical to what exhaustive
/// counting would have produced, marked recovered. Profiles without
/// placement (or already recovered) come back unchanged.
///
/// # Errors
///
/// As [`BlockCounts::recover`].
pub fn recover(counts: &CountsProfile) -> Result<CountsProfile, String> {
    let recovered = BlockCounts::recover(counts)?;
    let mut out = counts.clone();
    if recovered.solved.is_some() {
        for (i, b) in out.blocks.iter_mut().enumerate() {
            b.count = recovered.count(i);
            b.fallthrough = recovered.fallthrough(i);
        }
        if let Some(pl) = out.placement.as_mut() {
            pl.recovered = true;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_dbi::{instrument_run, DbiConfig};
    use wiser_isa::assemble;
    use wiser_sim::ProcessImage;

    fn placed_and_exhaustive(src: &str) -> (CountsProfile, CountsProfile, Vec<Module>) {
        let module = assemble("t", src).unwrap();
        let image = ProcessImage::load_single(&module).unwrap();
        let exhaustive = instrument_run(&image, &DbiConfig::default()).unwrap();
        let linked: Vec<Module> = image.modules.iter().map(|m| m.linked.clone()).collect();
        let mut placed = exhaustive.clone();
        optimize_placement(&mut placed, &linked, &CostModel::default());
        (placed, exhaustive, linked)
    }

    const LOOP_SRC: &str = r#"
        .func _start global
            li x8, 1000
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
    fn recovery_is_bit_identical_on_a_loop() {
        let (placed, exhaustive, _) = placed_and_exhaustive(LOOP_SRC);
        let placement = placed.placement.as_ref().unwrap();
        assert!(
            !placement.vertex_suppressed.is_empty() || !placement.fallthrough_suppressed.is_empty(),
            "a counted loop must offer at least one suppressible counter"
        );
        // The hot self-loop fall-through counter is the big win.
        assert!(placed.cost.counters_suppressed > exhaustive.cost.counters_placed / 3);
        assert!(placed.cost.instrumented_insns < exhaustive.cost.instrumented_insns);

        let recovered = recover(&placed).unwrap();
        assert_eq!(recovered.blocks, exhaustive.blocks);
        assert_eq!(recovered.total_insns(), exhaustive.total_insns());
        assert!(recovered.placement.as_ref().unwrap().recovered);
    }

    #[test]
    fn recovery_handles_calls_and_indirect_dispatch() {
        let (placed, exhaustive, _) = placed_and_exhaustive(
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
                li x8, 30
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
                call fa
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let recovered = recover(&placed).unwrap();
        assert_eq!(recovered.blocks, exhaustive.blocks);
    }

    #[test]
    fn truncated_profiles_are_left_exhaustive() {
        let module = assemble("t", LOOP_SRC).unwrap();
        let image = ProcessImage::load_single(&module).unwrap();
        let mut p = instrument_run(
            &image,
            &DbiConfig {
                max_insns: 500,
                ..DbiConfig::default()
            },
        )
        .unwrap();
        assert!(p.truncated.is_some());
        let linked: Vec<Module> = image.modules.iter().map(|m| m.linked.clone()).collect();
        let before = p.clone();
        optimize_placement(&mut p, &linked, &CostModel::default());
        assert_eq!(p, before, "truncated counters do not obey conservation");
    }

    #[test]
    fn corrupt_placement_is_rejected_not_misrecovered() {
        let (placed, _, _) = placed_and_exhaustive(LOOP_SRC);
        // The global conservation equation is load-bearing: with the hot
        // self-loop vertex counter suppressed, a zeroed recorded total makes
        // its only determining equation demand a negative count, which the
        // solver rejects — the recovery must fail, not fabricate numbers.
        let pl = placed.placement.as_ref().unwrap();
        assert!(
            !pl.vertex_suppressed.is_empty(),
            "the planner should suppress at least one vertex counter here"
        );
        let mut zero_total = placed.clone();
        zero_total.placement.as_mut().unwrap().total_insns = 0;
        assert!(recover(&zero_total).is_err());

        let mut out_of_range = placed.clone();
        out_of_range
            .placement
            .as_mut()
            .unwrap()
            .vertex_suppressed
            .push(999);
        assert!(recover(&out_of_range).is_err());
    }

    #[test]
    fn placement_and_recovery_are_deterministic() {
        let (a, _, _) = placed_and_exhaustive(LOOP_SRC);
        let (b, _, _) = placed_and_exhaustive(LOOP_SRC);
        assert_eq!(a, b);
        assert_eq!(recover(&a).unwrap(), recover(&b).unwrap());
    }
}
