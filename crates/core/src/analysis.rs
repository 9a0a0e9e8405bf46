//! The combined analysis: OptiWISE's data-processing stage (component 5 of
//! figure 3).
//!
//! Joins the sampling profile (cycles) with the instrumentation profile
//! (execution counts) on `(module, offset)` keys, computes per-instruction
//! CPI, and aggregates to functions, loops (with stack-profiling
//! attribution across calls, §IV-D) and source lines.

use std::borrow::Cow;
use std::collections::HashSet;

use wiser_cfg::{build_cfg, find_all_loops, BlockCounts, Cfg, LoopForest, MERGE_THRESHOLD};
use wiser_dbi::CountsProfile;
use wiser_isa::{symbolized, Disassembly, Module, INSN_BYTES};
use wiser_sampler::SampleProfile;
use wiser_sim::{CodeLoc, FastMap, ModuleId, TruncationReason};

use crate::error::OptiwiseError;
use crate::types::{Coverage, FuncStats, InsnRow, LineStats, LoopStats};

/// Default tolerance for the divergence score above which the two profiling
/// runs are considered to have observed different executions. Healthy runs
/// of the same deterministic program score well below this; a mismatched
/// `rand_seed` between passes scores far above it.
pub const DEFAULT_DIVERGENCE_THRESHOLD: f64 = 0.02;

/// Whether the analysis had both profiles or fell back to samples alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Both profiles joined: exact counts, CPI everywhere.
    Full,
    /// Degraded: the instrumentation profile was unusable, so results come
    /// from sampling alone — cycle attribution holds but execution counts,
    /// CPI and iteration counts are unavailable.
    SamplingOnly,
}

/// Reconciliation diagnostics from joining the two profiles (§IV-F assumes
/// both runs execute the same instruction stream; this is the check).
#[derive(Clone, Debug, Default)]
pub struct JoinDiagnostics {
    /// Samples landing on instructions the counts run says never executed.
    pub phantom_samples: u64,
    /// Cycle weight carried by those phantom samples.
    pub phantom_cycles: u64,
    /// Samples referencing module ids outside the analyzed module set.
    pub unknown_module_samples: u64,
    /// Instructions the sampling run retired (0 when the profile predates
    /// this field).
    pub sampled_retired: u64,
    /// Instructions the instrumentation run counted.
    pub counted_insns: u64,
    /// Relative disagreement between the two instruction totals, when both
    /// are trustworthy (neither run truncated, retired known).
    pub insn_total_rel_error: f64,
    /// Truncation marker of the sampling profile, if any.
    pub samples_truncated: Option<TruncationReason>,
    /// Truncation marker of the counts profile, if any.
    pub counts_truncated: Option<TruncationReason>,
    /// The combined divergence score: the worst of the phantom-cycle
    /// fraction, unknown-module fraction and instruction-total error.
    /// 0 = profiles agree perfectly.
    pub divergence_score: f64,
    /// Human-readable notes on every anomaly that contributed.
    pub warnings: Vec<String>,
}

impl JoinDiagnostics {
    /// Whether the score exceeds `threshold`.
    pub fn diverged(&self, threshold: f64) -> bool {
        self.divergence_score > threshold
    }

    /// One-line summary of the contributors, for error messages.
    pub fn summary(&self) -> String {
        if self.warnings.is_empty() {
            "profiles agree".to_string()
        } else {
            self.warnings.join("; ")
        }
    }
}

/// Analysis options.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisOptions {
    /// Loop-merge threshold (algorithm 2); `None` keeps one loop per back
    /// edge.
    pub merge_threshold: Option<u64>,
    /// Worker threads for the per-module stage (disassembly, CFG recovery,
    /// loop forests). Shards are merged in [`ModuleId`] order, so any value
    /// produces identical results; `1` keeps the stage on the calling
    /// thread.
    pub jobs: usize,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            merge_threshold: Some(MERGE_THRESHOLD),
            jobs: 1,
        }
    }
}

/// Per-module analysis artifacts.
pub struct ModuleAnalysis {
    /// Module name.
    pub name: String,
    /// Reconstructed CFG with edge counts.
    pub cfg: Cfg,
    /// Loop forests, one per function.
    pub forests: Vec<LoopForest>,
    module: Module,
}

impl ModuleAnalysis {
    /// The underlying (linked) module.
    pub fn module(&self) -> &Module {
        &self.module
    }
}

/// What the two profiles say about one instruction.
#[derive(Clone, Copy, Debug, Default)]
struct InsnSlot {
    /// Summed execution count; `None` when no counted block covers it.
    count: Option<u64>,
    /// Samples on it.
    samples: u64,
    /// Their summed weight.
    cycles: u64,
}

impl InsnSlot {
    fn add(&mut self, other: &InsnSlot) {
        if let Some(c) = other.count {
            self.count = Some(self.count.unwrap_or(0) + c);
        }
        self.samples += other.samples;
        self.cycles += other.cycles;
    }

    fn is_empty(&self) -> bool {
        self.count.is_none() && self.samples == 0
    }
}

/// Per-instruction counts and samples: one slot per instruction of each
/// analysed module's text, and a map for any location outside them (a
/// profile may name a misaligned offset, one past a module's text, or a
/// module the analysis lacks).
struct InsnTable {
    /// `dense[module][offset / INSN_BYTES]`.
    dense: Vec<Vec<InsnSlot>>,
    stray: FastMap<CodeLoc, InsnSlot>,
}

impl InsnTable {
    fn new(mods: &[ModuleAnalysis]) -> InsnTable {
        InsnTable {
            dense: mods
                .iter()
                .map(|m| vec![InsnSlot::default(); m.module.insn_count() as usize])
                .collect(),
            stray: FastMap::default(),
        }
    }

    fn index(&self, loc: CodeLoc) -> Option<(usize, usize)> {
        let slots = self.dense.get(loc.module.0 as usize)?;
        let i = usize::try_from(loc.offset / INSN_BYTES).ok()?;
        (loc.offset.is_multiple_of(INSN_BYTES) && i < slots.len())
            .then_some((loc.module.0 as usize, i))
    }

    fn slot_mut(&mut self, loc: CodeLoc) -> &mut InsnSlot {
        match self.index(loc) {
            Some((m, i)) => &mut self.dense[m][i],
            None => self.stray.entry(loc).or_default(),
        }
    }

    fn get(&self, loc: CodeLoc) -> InsnSlot {
        match self.index(loc) {
            Some((m, i)) => self.dense[m][i],
            None => self.stray.get(&loc).copied().unwrap_or_default(),
        }
    }

    /// Every counted or sampled location: the modules' instructions in
    /// module and offset order, then the stray ones in map order.
    fn iter(&self) -> impl Iterator<Item = (CodeLoc, &InsnSlot)> {
        let dense = self.dense.iter().enumerate().flat_map(|(m, slots)| {
            slots.iter().enumerate().map(move |(i, slot)| {
                let loc = CodeLoc {
                    module: ModuleId(m as u32),
                    offset: i as u64 * INSN_BYTES,
                };
                (loc, slot)
            })
        });
        dense
            .chain(self.stray.iter().map(|(&loc, slot)| (loc, slot)))
            .filter(|(_, slot)| !slot.is_empty())
    }
}

/// The fused OptiWISE analysis result.
pub struct Analysis {
    /// Per-module artifacts, indexed by module id.
    pub modules: Vec<ModuleAnalysis>,
    insns: InsnTable,
    funcs: Vec<FuncStats>,
    loops: Vec<LoopStats>,
    lines: Vec<LineStats>,
    /// Total cycles attributed by samples (sum of weights).
    pub total_cycles: u64,
    /// Total cycles of the sampled run.
    pub wall_cycles: u64,
    /// Total dynamic instructions from instrumentation.
    pub total_insns: u64,
    /// Whether this is a full join or a degraded sampling-only analysis.
    pub mode: AnalysisMode,
    /// Reconciliation diagnostics from the join.
    pub diagnostics: JoinDiagnostics,
}

impl Analysis {
    /// Runs the combined analysis. See [`Analysis::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if the analysis fails (a module's text does not disassemble);
    /// linked modules produced by the loader always disassemble. Prefer
    /// [`Analysis::try_new`] for untrusted inputs.
    pub fn new(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
        opts: AnalysisOptions,
    ) -> Analysis {
        Analysis::try_new(modules, samples, counts, opts).expect("analysis failed")
    }

    /// Runs the combined analysis.
    ///
    /// `modules` must be the linked modules of the instrumented process, in
    /// [`ModuleId`] order (both profiling runs see identical module-relative
    /// layouts, so either run's modules work).
    ///
    /// # Errors
    ///
    /// Returns [`OptiwiseError::Disasm`] if a module's text fails to
    /// disassemble.
    pub fn try_new(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
        opts: AnalysisOptions,
    ) -> Result<Analysis, OptiwiseError> {
        Analysis::build(modules, samples, counts, opts, AnalysisMode::Full, None)
    }

    /// Runs the combined analysis of a selectively-instrumented run.
    ///
    /// `hot` is the set of `(module, function)` keys that were fully
    /// instrumented; every other function is marked
    /// [`Coverage::SamplingOnly`] and excluded from the cross-profile
    /// reconciliation checks (its counts are absent by construction, not by
    /// divergence).
    ///
    /// # Errors
    ///
    /// Returns [`OptiwiseError::Disasm`] if a module's text fails to
    /// disassemble.
    pub fn try_new_selective(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
        opts: AnalysisOptions,
        hot: &HashSet<(u32, String)>,
    ) -> Result<Analysis, OptiwiseError> {
        Analysis::build(
            modules,
            samples,
            counts,
            opts,
            AnalysisMode::Full,
            Some(hot),
        )
    }

    /// Degraded-mode analysis from the sampling profile alone, for when the
    /// instrumentation run failed and no usable counts exist. Cycle
    /// attribution (functions, hottest instructions) still works; execution
    /// counts, CPI and loop iteration counts are all zero/absent.
    ///
    /// # Errors
    ///
    /// Returns [`OptiwiseError::Disasm`] if a module's text fails to
    /// disassemble.
    pub fn sampling_only(
        modules: &[Module],
        samples: &SampleProfile,
        opts: AnalysisOptions,
    ) -> Result<Analysis, OptiwiseError> {
        let empty = CountsProfile {
            module_names: modules.iter().map(|m| m.name.clone()).collect(),
            ..CountsProfile::default()
        };
        Analysis::build(
            modules,
            samples,
            &empty,
            opts,
            AnalysisMode::SamplingOnly,
            None,
        )
    }

    fn build(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
        opts: AnalysisOptions,
        mode: AnalysisMode,
        hot: Option<&HashSet<(u32, String)>>,
    ) -> Result<Analysis, OptiwiseError> {
        // A profile carrying a minimal counter placement has some block and
        // fall-through counters suppressed; reconstruct the exact values by
        // flow conservation before anything downstream reads them; the
        // recovery borrows the profile and keeps only the solved counters.
        // The planner only accepts suppressions it proved recoverable, so a
        // failure here means the profile was corrupted in transit.
        let recovered = BlockCounts::recover(counts).map_err(|e| {
            OptiwiseError::Internal(format!("counter-placement recovery failed: {e}"))
        })?;
        let counts = &recovered;
        // Per-module structure. Modules are independent here (disassembly,
        // CFG recovery, loop forests only need the module and the counts),
        // so the stage fans out over `opts.jobs` workers; shards come back
        // in input order — i.e. ModuleId order — so the merged result is
        // identical for any worker count.
        let build_module = |i: usize, m: &Module| -> Result<ModuleAnalysis, OptiwiseError> {
            // Every instruction must decode; the text of the few rows a
            // caller asks for is rendered on demand.
            for k in 0..m.insn_count() {
                m.insn_at(k * INSN_BYTES)
                    .map_err(|e| OptiwiseError::Disasm {
                        module: m.name.clone(),
                        message: e.to_string(),
                    })?;
            }
            let cfg = build_cfg(ModuleId(i as u32), m, counts);
            let forests = find_all_loops(&cfg, opts.merge_threshold);
            Ok(ModuleAnalysis {
                name: m.name.clone(),
                cfg,
                forests,
                module: m.clone(),
            })
        };
        let shards: Vec<Result<ModuleAnalysis, OptiwiseError>> =
            if opts.jobs > 1 && modules.len() > 1 {
                wiser_par::par_map(opts.jobs, modules.iter().collect(), |i, m| {
                    build_module(i, m)
                })
                .map_err(|e| OptiwiseError::Internal(format!("module-analysis worker: {e}")))?
            } else {
                modules
                    .iter()
                    .enumerate()
                    .map(|(i, m)| build_module(i, m))
                    .collect()
            };
        let mods: Vec<ModuleAnalysis> = shards.into_iter().collect::<Result<_, _>>()?;

        // Per-instruction execution counts: overlapping blocks sum.
        let mut insns = InsnTable::new(&mods);
        for (k, b) in counts.profile().blocks.iter().enumerate() {
            let n = counts.count(k);
            for i in 0..b.len as u64 {
                let slot = insns.slot_mut(CodeLoc {
                    module: b.entry.module,
                    offset: b.entry.offset + i * INSN_BYTES,
                });
                slot.count = Some(slot.count.unwrap_or(0) + n);
            }
        }
        // Samples grouped by chain (the sampled location, then its call
        // stack) with their summed weight and count. Every credit below is
        // a sum, and what a sample credits depends on its chain alone, so
        // attributing each distinct chain once is exact.
        let chains = group_chains(samples);
        for c in &chains {
            let slot = insns.slot_mut(c.loc);
            slot.samples += c.samples;
            slot.cycles += c.weight;
        }

        // ---- function table ------------------------------------------------
        // One map per module from function name to index in `funcs`. A
        // symbol's name is borrowed from the module, so a lookup allocates
        // nothing; a name is copied only when its function is first seen.
        // An instruction's function symbol comes from a per-module table,
        // and a symbol's function id is kept once its name was looked up.
        let mut func_ids: Vec<FastMap<Cow<'_, str>, usize>> =
            mods.iter().map(|_| FastMap::default()).collect();
        let symbol_by_insn: Vec<Vec<Option<u32>>> = mods
            .iter()
            .map(|m| m.module.function_index_by_insn())
            .collect();
        let mut fid_by_symbol: Vec<Vec<Option<usize>>> = mods
            .iter()
            .map(|m| vec![None; m.module.symbols.len()])
            .collect();
        let mut funcs: Vec<FuncStats> = Vec::new();
        let mut func_of = |funcs: &mut Vec<FuncStats>, loc: CodeLoc| -> Option<usize> {
            let mi = loc.module.0 as usize;
            let m = mods.get(mi)?;
            let symbol = match insns.index(loc) {
                Some((_, i)) => symbol_by_insn[mi][i].map(|k| k as usize),
                None => m.module.function_index_at(loc.offset),
            };
            if let Some(fid) = symbol.and_then(|k| fid_by_symbol[mi][k]) {
                return Some(fid);
            }
            let ids = &mut func_ids[mi];
            let name = match symbol {
                Some(k) => Cow::Borrowed(m.module.symbols[k].name.as_str()),
                None => Cow::Owned(format!("<anon@{:#x}>", loc.offset)),
            };
            if let Some(&fid) = ids.get(&*name) {
                if let Some(k) = symbol {
                    fid_by_symbol[mi][k] = Some(fid);
                }
                return Some(fid);
            }
            // Coverage is decided by the pre-run instrumentation plan,
            // never by observed counts: a hot function that happens to
            // execute zero instructions is still Counted.
            let coverage = match (mode, hot) {
                (AnalysisMode::SamplingOnly, _) => Coverage::SamplingOnly,
                (AnalysisMode::Full, None) => Coverage::Counted,
                (AnalysisMode::Full, Some(set))
                    if set.contains(&(loc.module.0, name.to_string())) =>
                {
                    Coverage::Counted
                }
                (AnalysisMode::Full, Some(_)) => Coverage::SamplingOnly,
            };
            funcs.push(FuncStats {
                module: loc.module.0,
                name: name.to_string(),
                self_cycles: 0,
                incl_cycles: 0,
                self_samples: 0,
                self_insns: 0,
                incl_insns: 0,
                coverage,
            });
            ids.insert(name, funcs.len() - 1);
            if let Some(k) = symbol {
                fid_by_symbol[mi][k] = Some(funcs.len() - 1);
            }
            Some(funcs.len() - 1)
        };

        // Execution counts per function.
        for (loc, slot) in insns.iter() {
            if let Some(count) = slot.count {
                if let Some(fid) = func_of(&mut funcs, loc) {
                    funcs[fid].self_insns += count;
                }
            }
        }
        // Callee instruction totals attributed to the calling function.
        for (&site, &callee_insns) in &counts.profile().callee_counts {
            if let Some(fid) = func_of(&mut funcs, site) {
                funcs[fid].incl_insns += callee_insns;
            }
        }
        for f in &mut funcs {
            f.incl_insns += f.self_insns;
        }

        // ---- loop table ----------------------------------------------------
        // Flatten forests into a global list, forest by forest: local loop
        // `li` of function `fi` in module `mi` gets global index
        // `loop_base[mi][fi] + li`.
        let mut loop_base: Vec<Vec<usize>> = Vec::with_capacity(mods.len());
        let mut loops: Vec<LoopStats> = Vec::new();
        for (mi, m) in mods.iter().enumerate() {
            let mut bases = Vec::with_capacity(m.forests.len());
            for forest in &m.forests {
                bases.push(loops.len());
                for l in &forest.loops {
                    // Body instruction total and callee totals.
                    let mut body_insns = 0;
                    let mut callee_insns = 0;
                    let mut line_range: Option<(String, u32, u32)> = None;
                    for &b in &l.body {
                        let block = &m.cfg.blocks[b];
                        body_insns += block.count * block.len as u64;
                        if !block.call_targets.is_empty() {
                            let site = CodeLoc {
                                module: ModuleId(mi as u32),
                                offset: block.terminator_offset(),
                            };
                            callee_insns += counts
                                .profile()
                                .callee_counts
                                .get(&site)
                                .copied()
                                .unwrap_or(0);
                        }
                        for k in 0..block.len as u64 {
                            if let Some((file, line)) =
                                m.module.line_at(block.start + k * INSN_BYTES)
                            {
                                line_range = Some(match line_range.take() {
                                    None => (file.to_string(), line, line),
                                    Some((f0, lo, hi)) if f0 == file => {
                                        (f0, lo.min(line), hi.max(line))
                                    }
                                    Some(other) => other,
                                });
                            }
                        }
                    }
                    loops.push(LoopStats {
                        module: mi as u32,
                        function: m.cfg.functions[l.function].name.clone(),
                        header_offset: m.cfg.blocks[l.header].start,
                        depth: l.depth,
                        parent: None, // fixed up below
                        iterations: l.back_edge_freq,
                        invocations: l.invocations(&m.cfg),
                        body_insns,
                        total_insns: body_insns + callee_insns,
                        cycles: 0,
                        samples: 0,
                        lines: line_range,
                    });
                }
            }
            loop_base.push(bases);
        }
        // Parent pointers to global indices.
        for (mi, m) in mods.iter().enumerate() {
            for (fi, forest) in m.forests.iter().enumerate() {
                let base = loop_base[mi][fi];
                for (li, l) in forest.loops.iter().enumerate() {
                    if let Some(p) = l.parent {
                        loops[base + li].parent = (p < forest.loops.len()).then_some(base + p);
                    }
                }
            }
        }

        // ---- sample attribution via stacks ----------------------------------
        // Once per distinct chain, crediting its summed weight and count.
        // What a chain has credited is marked with its number, so the
        // most-recent-instance rule is a property of the chain and folding
        // samples keeps it.
        let mut total_cycles = 0;
        let mut seen_funcs: Vec<Vec<u64>> = mods
            .iter()
            .map(|m| vec![0; m.cfg.functions.len()])
            .collect();
        // Functions first seen here take the next id, so this grows one
        // slot at a time and allocates the same whatever order the chains
        // come in.
        let mut credited_fids: Vec<u64> = vec![0; funcs.len()];
        let mut credited_loops: Vec<u64> = vec![0; loops.len()];
        // Global ids of the loops a block is credited to, innermost first:
        // `loop_chains[start..end]` for the range cached per block.
        let mut loop_chains: Vec<usize> = Vec::new();
        let mut chain_at: Vec<Vec<Option<(usize, usize)>>> = mods
            .iter()
            .map(|m| vec![None; m.cfg.blocks.len()])
            .collect();
        for (chain_no, c) in (1..).zip(&chains) {
            let (weight, n) = (c.weight, c.samples);
            total_cycles += weight;
            // Chain: sample PC first, then call sites innermost-first.
            for (depth, loc) in c.chain().enumerate() {
                let Some(m) = mods.get(loc.module.0 as usize) else {
                    continue;
                };
                let Some(block) = m.cfg.block_containing(loc.offset) else {
                    // Sample in cold code (sampling skid); functions still
                    // get self-credit below.
                    if depth == 0 {
                        if let Some(fid) = func_of(&mut funcs, loc) {
                            funcs[fid].self_cycles += weight;
                            funcs[fid].self_samples += n;
                            if first_in_chain(&mut credited_fids, fid, chain_no) {
                                funcs[fid].incl_cycles += weight;
                            }
                        }
                    }
                    continue;
                };
                let fidx = m.cfg.blocks[block].function;
                // Most-recent-instance rule for recursion (§IV-D): later
                // (outer) occurrences of an already-seen function do not
                // receive inclusive credit again.
                if !first_in_chain(&mut seen_funcs[loc.module.0 as usize], fidx, chain_no) {
                    continue;
                }
                if let Some(fid) = func_of(&mut funcs, loc) {
                    if depth == 0 {
                        funcs[fid].self_cycles += weight;
                        funcs[fid].self_samples += n;
                    }
                    if first_in_chain(&mut credited_fids, fid, chain_no) {
                        funcs[fid].incl_cycles += weight;
                    }
                }
                let (start, end) =
                    *chain_at[loc.module.0 as usize][block].get_or_insert_with(|| {
                        let start = loop_chains.len();
                        m.forests[fidx].extend_loops_containing(block, &mut loop_chains);
                        let base = loop_base[loc.module.0 as usize][fidx];
                        for li in &mut loop_chains[start..] {
                            *li += base;
                        }
                        (start, loop_chains.len())
                    });
                for &gid in &loop_chains[start..end] {
                    if first_in_chain(&mut credited_loops, gid, chain_no) {
                        loops[gid].cycles += weight;
                        loops[gid].samples += n;
                    }
                }
            }
        }

        // ---- line table ------------------------------------------------------
        // Keyed by (module, file, line) with the file name borrowed from the
        // module; a row copies it once. Every location that was counted or
        // sampled is visited once, in offset order within a module, so a
        // run of instructions on one line is summed before one map lookup.
        let mut line_map: FastMap<(u32, &str, u32), LineStats> = FastMap::default();
        let mut run: Option<((u32, &str, u32), InsnSlot)> = None;
        for (loc, slot) in insns.iter() {
            let Some(m) = mods.get(loc.module.0 as usize) else {
                continue;
            };
            let Some((file, line)) = m.module.line_at(loc.offset) else {
                continue;
            };
            let key = (loc.module.0, file, line);
            match &mut run {
                Some((k, sums)) if *k == key => sums.add(slot),
                _ => {
                    if let Some((k, sums)) = run.replace((key, *slot)) {
                        add_line(&mut line_map, k, &sums);
                    }
                }
            }
        }
        if let Some((k, sums)) = run {
            add_line(&mut line_map, k, &sums);
        }
        let mut lines: Vec<LineStats> = line_map.into_values().collect();
        lines.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then(a.module.cmp(&b.module))
                .then(a.file.cmp(&b.file))
                .then(a.line.cmp(&b.line))
        });

        let total_insns = counts.total_insns();
        funcs.sort_by(|a, b| {
            b.self_cycles
                .cmp(&a.self_cycles)
                .then(a.module.cmp(&b.module))
                .then(a.name.cmp(&b.name))
        });
        // Sort hottest-first, remapping the parent indices through the
        // permutation so nesting links stay exact.
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by(|&a, &b| {
            loops[b]
                .cycles
                .cmp(&loops[a].cycles)
                .then(loops[a].module.cmp(&loops[b].module))
                .then(loops[a].function.cmp(&loops[b].function))
                .then(loops[a].header_offset.cmp(&loops[b].header_offset))
        });
        let mut new_index = vec![0usize; loops.len()];
        for (new, &old) in order.iter().enumerate() {
            new_index[old] = new;
        }
        let mut unsorted: Vec<Option<LoopStats>> = loops.into_iter().map(Some).collect();
        let loops: Vec<LoopStats> = order
            .iter()
            .map(|&i| {
                let mut l = unsorted[i]
                    .take()
                    .expect("a permutation visits each loop once");
                l.parent = l.parent.map(|old| new_index[old]);
                l
            })
            .collect();

        let diagnostics = reconcile(&mods, samples, counts, &insns, mode, hot);

        Ok(Analysis {
            modules: mods,
            insns,
            funcs,
            loops,
            lines,
            total_cycles,
            wall_cycles: samples.total_cycles,
            total_insns,
            mode,
            diagnostics,
        })
    }

    /// Function table, hottest (self cycles) first.
    pub fn functions(&self) -> &[FuncStats] {
        &self.funcs
    }

    /// Loop table, hottest first.
    pub fn loops(&self) -> &[LoopStats] {
        &self.loops
    }

    /// Source-line table, hottest first.
    pub fn lines(&self) -> &[LineStats] {
        &self.lines
    }

    /// Looks up a function by name (first match across modules).
    pub fn function(&self, name: &str) -> Option<&FuncStats> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Execution count of one instruction.
    pub fn count_at(&self, loc: CodeLoc) -> u64 {
        self.insns.get(loc).count.unwrap_or(0)
    }

    /// `(samples, cycles)` attributed to one instruction.
    pub fn samples_at(&self, loc: CodeLoc) -> (u64, u64) {
        let slot = self.insns.get(loc);
        (slot.samples, slot.cycles)
    }

    /// Fused per-instruction rows for one function (figure 10 view).
    pub fn annotate_function(&self, module: u32, name: &str) -> Vec<InsnRow> {
        let Some(m) = self.modules.get(module as usize) else {
            return Vec::new();
        };
        let disasm = Disassembly::of_module(&m.module).expect("analysed modules decode");
        disasm
            .function_lines(name)
            .map(|line| {
                let loc = CodeLoc {
                    module: ModuleId(module),
                    offset: line.offset,
                };
                let (samples, cycles) = self.samples_at(loc);
                let count = self.count_at(loc);
                InsnRow {
                    loc,
                    text: line.text.clone(),
                    samples,
                    cycles,
                    count,
                    cpi: (count > 0).then(|| cycles as f64 / count as f64),
                }
            })
            .collect()
    }

    /// Fused rows for every executed instruction, sorted by cycles
    /// descending.
    pub fn hottest_insns(&self, limit: usize) -> Vec<InsnRow> {
        let mut rows: Vec<InsnRow> = self
            .insns
            .iter()
            .filter(|(_, slot)| slot.samples > 0)
            .map(|(loc, slot)| {
                let count = slot.count.unwrap_or(0);
                InsnRow {
                    loc,
                    text: String::new(),
                    samples: slot.samples,
                    cycles: slot.cycles,
                    count,
                    cpi: (count > 0).then(|| slot.cycles as f64 / count as f64),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.loc.cmp(&b.loc)));
        rows.truncate(limit);
        for r in &mut rows {
            if let Some(m) = self.modules.get(r.loc.module.0 as usize) {
                if let Ok(insn) = m.module.insn_at(r.loc.offset) {
                    r.text = symbolized(&m.module, &insn);
                }
            }
        }
        rows
    }
}

/// The samples of one chain: its location and stack, and the samples'
/// summed weight and count.
struct ChainGroup<'a> {
    loc: CodeLoc,
    stack: &'a [CodeLoc],
    weight: u64,
    samples: u64,
}

impl ChainGroup<'_> {
    /// The chain: its location, then its stack's call sites innermost
    /// first.
    fn chain(&self) -> impl Iterator<Item = CodeLoc> + '_ {
        std::iter::once(self.loc).chain(self.stack.iter().rev().copied())
    }
}

/// Groups `profile`'s samples by chain, in order of each chain's first
/// sample.
///
/// The chains form a trie over a sample's stack, outermost call site first,
/// then its location: a node is a prefix, and its child for the next
/// location is found by `(node, location)`. Keying on one fixed-width
/// location at a time, not on a whole chain, keeps the fast hasher's
/// seeded keys safe from a profile crafted to collide (DESIGN.md,
/// "Hashing"). Samples come in time order, and neighbours mostly share a
/// stack, so a stack equal to the previous sample's reuses its node.
fn group_chains(profile: &SampleProfile) -> Vec<ChainGroup<'_>> {
    const NO_GROUP: usize = usize::MAX;
    let samples = &profile.samples;
    let mut child: FastMap<(usize, CodeLoc), usize> = FastMap::default();
    // The group of the chain ending at each node; node 0 is the root.
    let mut group_at: Vec<usize> = Vec::with_capacity(samples.len() + 1);
    group_at.push(NO_GROUP);
    let mut step = |group_at: &mut Vec<usize>, node: usize, loc: CodeLoc| {
        *child.entry((node, loc)).or_insert_with(|| {
            group_at.push(NO_GROUP);
            group_at.len() - 1
        })
    };
    let mut groups: Vec<ChainGroup<'_>> = Vec::with_capacity(samples.len());
    let mut last: Option<(&[CodeLoc], usize)> = None;
    for s in samples {
        let stack = profile.stack(s);
        let stack_node = match last {
            Some((previous, node)) if previous == stack => node,
            _ => stack
                .iter()
                .fold(0, |node, &loc| step(&mut group_at, node, loc)),
        };
        last = Some((stack, stack_node));
        let node = step(&mut group_at, stack_node, s.loc);
        if group_at[node] == NO_GROUP {
            group_at[node] = groups.len();
            groups.push(ChainGroup {
                loc: s.loc,
                stack,
                weight: 0,
                samples: 0,
            });
        }
        let g = &mut groups[group_at[node]];
        g.weight += s.weight;
        g.samples += 1;
    }
    groups
}

/// Marks `i` as credited by chain number `chain` (numbers start at 1),
/// returning whether this is the chain's first credit to it.
fn first_in_chain(marks: &mut Vec<u64>, i: usize, chain: u64) -> bool {
    if marks.len() <= i {
        marks.resize(i + 1, 0);
    }
    let first = marks[i] != chain;
    marks[i] = chain;
    first
}

/// Adds one run of instructions' sums to the line row `key`, making the row
/// if it is the line's first.
fn add_line<'m>(
    line_map: &mut FastMap<(u32, &'m str, u32), LineStats>,
    key: (u32, &'m str, u32),
    sums: &InsnSlot,
) {
    let (module, file, line) = key;
    let entry = line_map.entry(key).or_insert_with(|| LineStats {
        module,
        file: file.to_string(),
        line,
        cycles: 0,
        samples: 0,
        count: 0,
    });
    entry.samples += sums.samples;
    entry.cycles += sums.cycles;
    entry.count += sums.count.unwrap_or(0);
}

/// The divergence-detection pass (§IV-F): cross-checks the two profiles
/// after the join and scores how badly they disagree.
///
/// Three independent signals feed the score, each normalized to a fraction:
///
/// * **phantom cycles** — sample weight on instructions whose execution
///   count is zero. Sampling skid legitimately displaces samples by an
///   instruction or two, but displaced samples still land on *executed*
///   code; weight on never-executed code means the runs took different
///   paths.
/// * **unknown modules** — samples referencing module ids outside the
///   analyzed set (a profile from a different program or module list).
/// * **instruction-total error** — the sampling run's retired-instruction
///   count versus the instrumentation run's exact total. For identical
///   deterministic executions these agree exactly; this term is skipped
///   when either run was truncated (the totals are then incomparable by
///   construction) or when the sample profile predates the `retired` field.
///
/// Under selective instrumentation (`hot` present), cold functions have no
/// counts *by construction*: their samples cannot be phantom-checked and the
/// counted instruction total deliberately undercounts the execution, so both
/// signals are restricted to the instrumented subset.
fn reconcile(
    mods: &[ModuleAnalysis],
    samples: &SampleProfile,
    counts: &BlockCounts<'_>,
    insns: &InsnTable,
    mode: AnalysisMode,
    hot: Option<&HashSet<(u32, String)>>,
) -> JoinDiagnostics {
    let mut d = JoinDiagnostics {
        sampled_retired: samples.retired,
        counted_insns: counts.total_insns(),
        samples_truncated: samples.truncated.clone(),
        counts_truncated: counts.profile().truncated.clone(),
        ..JoinDiagnostics::default()
    };
    if let Some(r) = &d.samples_truncated {
        d.warnings.push(format!("sampling run truncated: {r}"));
    }
    if let Some(r) = &d.counts_truncated {
        d.warnings
            .push(format!("instrumentation run truncated: {r}"));
    }
    if mode == AnalysisMode::SamplingOnly {
        // No counts to reconcile against; the caller already knows this is
        // degraded output.
        d.warnings
            .push("degraded mode: no instrumentation profile, counts and CPI unavailable".into());
        return d;
    }

    if hot.is_some() {
        d.warnings
            .push("selective instrumentation: reconciliation restricted to hot functions".into());
    }

    // Every check below depends on the sampled location alone, so it runs
    // once per location with that location's sample count and weight.
    let mut total_weight = 0u64;
    for (
        loc,
        &InsnSlot {
            samples: n,
            cycles: weight,
            ..
        },
    ) in insns.iter()
    {
        if n == 0 {
            continue;
        }
        total_weight += weight;
        if (loc.module.0 as usize) >= mods.len() {
            d.unknown_module_samples += n;
            continue;
        }
        if let Some(set) = hot {
            let in_hot = mods[loc.module.0 as usize]
                .module
                .function_at(loc.offset)
                .is_some_and(|sym| set.contains(&(loc.module.0, sym.name.clone())));
            if !in_hot {
                continue;
            }
        }
        let executed = |offset: u64| {
            let at = CodeLoc {
                module: loc.module,
                offset,
            };
            insns.get(at).count.unwrap_or(0) > 0
        };
        // Sampling skid displaces a sample at most one instruction past the
        // stalling one, so a sample whose immediate predecessor executed is
        // legitimate even if its own count is zero (e.g. the never-taken
        // fall-through after a loop's back edge).
        let skid_excused = loc.offset >= INSN_BYTES && executed(loc.offset - INSN_BYTES);
        if !executed(loc.offset) && !skid_excused {
            d.phantom_samples += n;
            d.phantom_cycles += weight;
        }
    }

    let phantom_frac = if total_weight > 0 {
        d.phantom_cycles as f64 / total_weight as f64
    } else {
        0.0
    };
    let unknown_frac = if samples.samples.is_empty() {
        0.0
    } else {
        d.unknown_module_samples as f64 / samples.samples.len() as f64
    };
    let totals_comparable = d.sampled_retired > 0
        && d.samples_truncated.is_none()
        && d.counts_truncated.is_none()
        && hot.is_none();
    if totals_comparable {
        d.insn_total_rel_error =
            (d.sampled_retired as f64 - d.counted_insns as f64).abs() / d.sampled_retired as f64;
    }

    if phantom_frac > 0.0 {
        d.warnings.push(format!(
            "{} samples ({:.1}% of cycle weight) on instructions the counts run never executed",
            d.phantom_samples,
            100.0 * phantom_frac
        ));
    }
    if d.unknown_module_samples > 0 {
        d.warnings.push(format!(
            "{} samples reference modules outside the analyzed set",
            d.unknown_module_samples
        ));
    }
    if d.insn_total_rel_error > 0.0 {
        d.warnings.push(format!(
            "instruction totals disagree: sampled run retired {} vs counted {} ({:.2}% off)",
            d.sampled_retired,
            d.counted_insns,
            100.0 * d.insn_total_rel_error
        ));
    }
    if samples.samples.is_empty() {
        d.warnings
            .push("sampling profile contains no samples".into());
    }

    d.divergence_score = phantom_frac.max(unknown_frac).max(d.insn_total_rel_error);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_dbi::{instrument_run, DbiConfig};
    use wiser_isa::assemble;
    use wiser_sampler::{sample_run, SamplerConfig};
    use wiser_sim::{CoreConfig, LoadConfig, ProcessImage};

    use crate::ProfileTables;

    fn analyze(src: &str, period: u64) -> Analysis {
        let (modules, samples, counts) = profiles(src, period);
        Analysis::new(&modules, &samples, &counts, AnalysisOptions::default())
    }

    /// The linked modules and both profiles of `src`.
    fn profiles(src: &str, period: u64) -> (Vec<Module>, SampleProfile, CountsProfile) {
        let module = assemble("t", src).unwrap();
        // Different ASLR seeds for the two runs, as in real life.
        let cfg_a = LoadConfig {
            aslr_seed: Some(11),
            ..LoadConfig::default()
        };
        let image_a = ProcessImage::load(std::slice::from_ref(&module), &cfg_a).unwrap();
        let (samples, _) = sample_run(
            &image_a,
            7,
            CoreConfig::xeon_like(),
            SamplerConfig::with_period(period),
            50_000_000,
        )
        .unwrap();
        let cfg_b = LoadConfig {
            aslr_seed: Some(99),
            ..LoadConfig::default()
        };
        let image_b = ProcessImage::load(std::slice::from_ref(&module), &cfg_b).unwrap();
        let counts = instrument_run(
            &image_b,
            &DbiConfig {
                rand_seed: 7,
                ..DbiConfig::default()
            },
        )
        .unwrap();
        let modules: Vec<Module> = image_b.modules.iter().map(|m| m.linked.clone()).collect();
        (modules, samples, counts)
    }

    /// A recursive function with a loop, called from a loop: its samples'
    /// stacks repeat a function, so the most-recent-instance rule applies.
    const RECURSIVE: &str = r#"
        .func rec
        .loc "rec.c" 1
            push fp
            mov fp, sp
            li x3, 0
            beq x1, x3, base
            subi x1, x1, 1
            call rec
        .loc "rec.c" 2
        base:
            li x2, 40
        spin:
            udiv x4, x2, x2
            subi x2, x2, 1
            bne x2, x3, spin
            mov sp, fp
            pop fp
            ret
        .endfunc
        .func _start global
        .loc "rec.c" 3
            li x8, 30
            li x9, 0
        top:
            li x1, 4
            call rec
            subi x8, x8, 1
            bne x8, x9, top
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;

    /// The report and the tables of one analysis, for comparing two.
    fn rendered(
        modules: &[Module],
        samples: &SampleProfile,
        counts: &CountsProfile,
    ) -> (String, ProfileTables) {
        let a = Analysis::new(modules, samples, counts, AnalysisOptions::default());
        (
            crate::report::full_report(&a, usize::MAX),
            ProfileTables::from_analysis(&a),
        )
    }

    /// Samples are attributed once per distinct chain, in map order; the
    /// result must not depend on the order samples arrive in.
    #[test]
    fn sample_order_does_not_change_the_analysis() {
        for src in [DIV_LOOP, RECURSIVE] {
            let (modules, samples, counts) = profiles(src, 256);
            assert!(
                samples.samples.len() > 50,
                "{} samples",
                samples.samples.len()
            );
            let want = rendered(&modules, &samples, &counts);
            let mut reversed = samples.clone();
            reversed.samples.reverse();
            assert!(rendered(&modules, &reversed, &counts) == want, "reversed");
            let mut shuffled = samples.clone();
            let mut state = 0x853c_49e6_748f_ea9bu64;
            for i in (1..shuffled.samples.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                shuffled.samples.swap(i, (state >> 33) as usize % (i + 1));
            }
            assert!(rendered(&modules, &shuffled, &counts) == want, "shuffled");
        }
    }

    /// Folding sums each chain's samples: a profile holding every sample
    /// twice credits every function, loop and line exactly twice.
    #[test]
    fn duplicated_samples_double_every_credit() {
        let (modules, samples, counts) = profiles(RECURSIVE, 256);
        let mut doubled = samples.clone();
        doubled.samples.extend(samples.samples.iter().cloned());
        let once = Analysis::new(&modules, &samples, &counts, AnalysisOptions::default());
        let twice = Analysis::new(&modules, &doubled, &counts, AnalysisOptions::default());
        assert_eq!(twice.total_cycles, 2 * once.total_cycles);
        let recursive = once.function("rec").expect("rec sampled");
        assert!(recursive.incl_cycles > 0 && recursive.incl_cycles < once.total_cycles);
        assert_eq!(once.functions().len(), twice.functions().len());
        for (a, b) in once.functions().iter().zip(twice.functions()) {
            assert_eq!((a.module, &a.name), (b.module, &b.name));
            assert_eq!(b.self_cycles, 2 * a.self_cycles, "{}", a.name);
            assert_eq!(b.incl_cycles, 2 * a.incl_cycles, "{}", a.name);
            assert_eq!(b.self_samples, 2 * a.self_samples, "{}", a.name);
            assert_eq!((b.self_insns, b.incl_insns), (a.self_insns, a.incl_insns));
        }
        assert!(!once.loops().is_empty());
        assert_eq!(once.loops().len(), twice.loops().len());
        for (a, b) in once.loops().iter().zip(twice.loops()) {
            assert_eq!(
                (&a.function, a.header_offset),
                (&b.function, b.header_offset)
            );
            assert_eq!(b.cycles, 2 * a.cycles, "loop at {:#x}", a.header_offset);
            assert_eq!(b.samples, 2 * a.samples, "loop at {:#x}", a.header_offset);
        }
        assert!(once.lines().len() >= 3);
        assert_eq!(once.lines().len(), twice.lines().len());
        for (a, b) in once.lines().iter().zip(twice.lines()) {
            assert_eq!((&a.file, a.line), (&b.file, b.line));
            assert_eq!((b.cycles, b.samples), (2 * a.cycles, 2 * a.samples));
        }
        for row in once.hottest_insns(usize::MAX) {
            let (n, cycles) = twice.samples_at(row.loc);
            assert_eq!((n, cycles), (2 * row.samples, 2 * row.cycles));
        }
    }

    const DIV_LOOP: &str = r#"
        .func _start global
        .loc "div.c" 1
            li x8, 20000
            li x9, 0
            li x7, 12345
            li x6, 7
        .loc "div.c" 2
        loop:
            udiv x5, x7, x6
            mov x7, x5
            addi x7, x7, 12345
        .loc "div.c" 3
            subi x8, x8, 1
            bne x8, x9, loop
        .loc "div.c" 4
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;

    #[test]
    fn divide_has_high_cpi() {
        let a = analyze(DIV_LOOP, 512);
        // The udiv (offset 32) executes 20000 times and dominates time.
        let rows = a.annotate_function(0, "_start");
        let udiv_row = rows.iter().find(|r| r.text.starts_with("udiv")).unwrap();
        assert_eq!(udiv_row.count, 20000);
        // Samples land on/near the divide; with Interrupt attribution the
        // successor `mov` absorbs them. Check the loop-level CPI instead:
        let loops = a.loops();
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.iterations, 19999);
        assert_eq!(l.invocations, 1);
        // ~5 instructions per iteration with a serial divide: CPI >> 1.
        let cpi = l.cpi().unwrap();
        assert!(cpi > 3.0, "loop CPI {cpi}");
        // Line 2 (the divide chain) is hotter than line 3.
        let line2 = a.lines().iter().find(|l| l.line == 2).unwrap();
        let line3 = a.lines().iter().find(|l| l.line == 3).unwrap();
        assert!(line2.cycles > line3.cycles);
    }

    #[test]
    fn function_stats_consistent() {
        let a = analyze(DIV_LOOP, 512);
        let f = a.function("_start").unwrap();
        assert_eq!(f.self_insns, a.total_insns);
        assert_eq!(f.incl_insns, f.self_insns); // no callees
        assert!(f.self_cycles > 0);
        assert_eq!(f.incl_cycles, f.self_cycles);
        assert!(f.cpi().unwrap() > 1.0);
    }

    /// The figure 4 scenario: two loops in different functions call the
    /// same callee; stack attribution must split the callee's time between
    /// them rather than double counting.
    #[test]
    fn shared_callee_attributed_by_stack() {
        let src = r#"
            .func shared
                push fp
                mov fp, sp
                li x2, 60
                li x3, 0
            spin:
                udiv x4, x2, x2
                subi x2, x2, 1
                bne x2, x3, spin
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func hot_caller
                push fp
                mov fp, sp
                li x8, 90         ; calls shared 90 times
                li x9, 0
            loop1:
                call shared
                subi x8, x8, 1
                bne x8, x9, loop1
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func cold_caller
                push fp
                mov fp, sp
                li x8, 10         ; calls shared 10 times
                li x9, 0
            loop2:
                call shared
                subi x8, x8, 1
                bne x8, x9, loop2
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func _start global
                call hot_caller
                call cold_caller
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let a = analyze(src, 256);
        // Find the two caller loops.
        let loop1 = a
            .loops()
            .iter()
            .find(|l| l.function == "hot_caller")
            .expect("loop in hot_caller");
        let loop2 = a
            .loops()
            .iter()
            .find(|l| l.function == "cold_caller")
            .expect("loop in cold_caller");
        // Instruction counts include the callee: 90 vs 10 calls.
        assert!(loop1.total_insns > 8 * loop2.total_insns);
        assert!(loop1.total_insns > loop1.body_insns);
        // Cycle attribution follows the 9:1 split (within sampling noise).
        assert!(
            loop1.cycles > 4 * loop2.cycles,
            "loop1 {} vs loop2 {}",
            loop1.cycles,
            loop2.cycles
        );
        // Inclusive function time: hot_caller >> cold_caller; shared has
        // large self time.
        let hot = a.function("hot_caller").unwrap();
        let cold = a.function("cold_caller").unwrap();
        let shared = a.function("shared").unwrap();
        assert!(hot.incl_cycles > 4 * cold.incl_cycles);
        assert!(shared.self_cycles > hot.self_cycles);
    }

    #[test]
    fn hottest_insns_sorted() {
        let a = analyze(DIV_LOOP, 512);
        let rows = a.hottest_insns(5);
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(w[0].cycles >= w[1].cycles);
        }
    }

    #[test]
    fn parallel_module_analysis_matches_sequential() {
        let main = assemble(
            "main",
            r#"
            .import busy
            .func _start global
                li x8, 500
                li x9, 0
            loop:
                call busy
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let lib = assemble(
            "libbusy",
            r#"
            .func busy global
                li x1, 20
                li x2, 0
            spin:
                subi x1, x1, 1
                bne x1, x2, spin
                ret
            .endfunc
            "#,
        )
        .unwrap();
        let modules = vec![main, lib];
        let image_a = ProcessImage::load(&modules, &LoadConfig::default()).unwrap();
        let (samples, _) = sample_run(
            &image_a,
            3,
            CoreConfig::xeon_like(),
            SamplerConfig::with_period(512),
            50_000_000,
        )
        .unwrap();
        let counts = instrument_run(
            &image_a,
            &DbiConfig {
                rand_seed: 3,
                ..DbiConfig::default()
            },
        )
        .unwrap();
        let linked: Vec<Module> = image_a.modules.iter().map(|m| m.linked.clone()).collect();
        let seq = Analysis::new(&linked, &samples, &counts, AnalysisOptions::default());
        for jobs in [2, 8] {
            let par = Analysis::new(
                &linked,
                &samples,
                &counts,
                AnalysisOptions {
                    jobs,
                    ..AnalysisOptions::default()
                },
            );
            assert_eq!(par.functions(), seq.functions(), "jobs={jobs}");
            assert_eq!(par.loops(), seq.loops(), "jobs={jobs}");
            assert_eq!(par.lines(), seq.lines(), "jobs={jobs}");
            assert_eq!(
                crate::report::full_report(&par, 30),
                crate::report::full_report(&seq, 30),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn totals_positive() {
        let a = analyze(DIV_LOOP, 512);
        assert!(a.total_cycles > 0);
        assert!(a.wall_cycles >= a.total_cycles);
        assert!(a.total_insns >= 20000 * 5);
    }
}
