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
use wiser_sim::{CodeLoc, FastMap, FastSet, ModuleId, TruncationReason};

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

/// The fused OptiWISE analysis result.
pub struct Analysis {
    /// Per-module artifacts, indexed by module id.
    pub modules: Vec<ModuleAnalysis>,
    insn_counts: FastMap<CodeLoc, u64>,
    insn_samples: FastMap<CodeLoc, (u64, u64)>,
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

        let insn_counts: FastMap<CodeLoc, u64> = counts.insn_counts();
        let insn_samples = samples.by_location();

        // ---- function table ------------------------------------------------
        // One map per module from function name to index in `funcs`. A
        // symbol's name is borrowed from the module, so a lookup allocates
        // nothing; a name is copied only when its function is first seen.
        let mut func_ids: Vec<FastMap<Cow<'_, str>, usize>> =
            mods.iter().map(|_| FastMap::default()).collect();
        let mut funcs: Vec<FuncStats> = Vec::new();
        let mut func_of = |funcs: &mut Vec<FuncStats>, loc: CodeLoc| -> Option<usize> {
            let m = mods.get(loc.module.0 as usize)?;
            let ids = &mut func_ids[loc.module.0 as usize];
            let name = match m.module.function_at(loc.offset) {
                Some(sym) => Cow::Borrowed(sym.name.as_str()),
                None => Cow::Owned(format!("<anon@{:#x}>", loc.offset)),
            };
            if let Some(&fid) = ids.get(&*name) {
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
            Some(funcs.len() - 1)
        };

        // Execution counts per function.
        for (&loc, &count) in &insn_counts {
            if let Some(fid) = func_of(&mut funcs, loc) {
                funcs[fid].self_insns += count;
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
        // Flatten forests into a global list; map (module, function, local
        // loop index) -> global index.
        let mut loop_ids: FastMap<(u32, usize, usize), usize> = FastMap::default();
        let mut loops: Vec<LoopStats> = Vec::new();
        for (mi, m) in mods.iter().enumerate() {
            for (fi, forest) in m.forests.iter().enumerate() {
                for (li, l) in forest.loops.iter().enumerate() {
                    loop_ids.insert((mi as u32, fi, li), loops.len());
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
        }
        // Parent pointers to global indices.
        for (mi, m) in mods.iter().enumerate() {
            for (fi, forest) in m.forests.iter().enumerate() {
                for (li, l) in forest.loops.iter().enumerate() {
                    if let Some(p) = l.parent {
                        let gid = loop_ids[&(mi as u32, fi, li)];
                        loops[gid].parent = loop_ids.get(&(mi as u32, fi, p)).copied();
                    }
                }
            }
        }

        // ---- sample attribution via stacks ----------------------------------
        let mut total_cycles = 0;
        let mut seen_funcs: FastSet<(u32, usize)> = FastSet::default();
        let mut credited_fids: FastSet<usize> = FastSet::default();
        let mut credited_loops: FastSet<usize> = FastSet::default();
        // Global ids of the loops a block is credited to, innermost first,
        // by (module, block): many samples share a block.
        let mut chains: FastMap<(u32, usize), Vec<usize>> = FastMap::default();
        // Function ids by location, looked up where `func_of` would be
        // called: many samples share a location, and an id never changes.
        let mut fid_at: FastMap<CodeLoc, Option<usize>> = FastMap::default();
        let mut fid_of = |funcs: &mut Vec<FuncStats>, loc: CodeLoc| {
            *fid_at.entry(loc).or_insert_with(|| func_of(funcs, loc))
        };
        for s in &samples.samples {
            total_cycles += s.weight;
            seen_funcs.clear();
            credited_fids.clear();
            credited_loops.clear();
            // Chain: sample PC first, then call sites innermost-first.
            let chain = std::iter::once(s.loc).chain(s.stack.iter().rev().copied());
            for (depth, loc) in chain.enumerate() {
                let Some(m) = mods.get(loc.module.0 as usize) else {
                    continue;
                };
                let Some(block) = m.cfg.block_containing(loc.offset) else {
                    // Sample in cold code (sampling skid); functions still
                    // get self-credit below.
                    if depth == 0 {
                        if let Some(fid) = fid_of(&mut funcs, loc) {
                            funcs[fid].self_cycles += s.weight;
                            funcs[fid].self_samples += 1;
                            if credited_fids.insert(fid) {
                                funcs[fid].incl_cycles += s.weight;
                            }
                        }
                    }
                    continue;
                };
                let fidx = m.cfg.blocks[block].function;
                // Most-recent-instance rule for recursion (§IV-D): later
                // (outer) occurrences of an already-seen function do not
                // receive inclusive credit again.
                if !seen_funcs.insert((loc.module.0, fidx)) {
                    continue;
                }
                if let Some(fid) = fid_of(&mut funcs, loc) {
                    if depth == 0 {
                        funcs[fid].self_cycles += s.weight;
                        funcs[fid].self_samples += 1;
                    }
                    if credited_fids.insert(fid) {
                        funcs[fid].incl_cycles += s.weight;
                    }
                }
                let chain = chains.entry((loc.module.0, block)).or_insert_with(|| {
                    m.forests[fidx]
                        .loops_containing(block)
                        .into_iter()
                        .map(|li| loop_ids[&(loc.module.0, fidx, li)])
                        .collect()
                });
                for &gid in chain.iter() {
                    if credited_loops.insert(gid) {
                        loops[gid].cycles += s.weight;
                        loops[gid].samples += 1;
                    }
                }
            }
        }

        // ---- line table ------------------------------------------------------
        // Keyed by (module, file, line) with the file name borrowed from the
        // module; a row copies it once. Every location that was counted or
        // sampled is visited once.
        let mut line_map: FastMap<(u32, &str, u32), LineStats> = FastMap::default();
        let sampled_only = insn_samples
            .keys()
            .filter(|loc| !insn_counts.contains_key(loc));
        for &loc in insn_counts.keys().chain(sampled_only) {
            let Some(m) = mods.get(loc.module.0 as usize) else {
                continue;
            };
            let Some((file, line)) = m.module.line_at(loc.offset) else {
                continue;
            };
            let entry = line_map
                .entry((loc.module.0, file, line))
                .or_insert_with(|| LineStats {
                    module: loc.module.0,
                    file: file.to_string(),
                    line,
                    cycles: 0,
                    samples: 0,
                    count: 0,
                });
            if let Some(&(s, w)) = insn_samples.get(&loc) {
                entry.samples += s;
                entry.cycles += w;
            }
            if let Some(&c) = insn_counts.get(&loc) {
                entry.count += c;
            }
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
        let mut sorted: Vec<LoopStats> = order.iter().map(|&i| loops[i].clone()).collect();
        for l in &mut sorted {
            l.parent = l.parent.map(|old| new_index[old]);
        }
        let loops = sorted;

        let diagnostics = reconcile(&mods, samples, counts, &insn_counts, mode, hot);

        Ok(Analysis {
            modules: mods,
            insn_counts,
            insn_samples,
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
        self.insn_counts.get(&loc).copied().unwrap_or(0)
    }

    /// `(samples, cycles)` attributed to one instruction.
    pub fn samples_at(&self, loc: CodeLoc) -> (u64, u64) {
        self.insn_samples.get(&loc).copied().unwrap_or((0, 0))
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
            .insn_samples
            .iter()
            .map(|(&loc, &(samples, cycles))| {
                let count = self.count_at(loc);
                InsnRow {
                    loc,
                    text: String::new(),
                    samples,
                    cycles,
                    count,
                    cpi: (count > 0).then(|| cycles as f64 / count as f64),
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
    insn_counts: &FastMap<CodeLoc, u64>,
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

    let mut total_weight = 0u64;
    for s in &samples.samples {
        total_weight += s.weight;
        if (s.loc.module.0 as usize) >= mods.len() {
            d.unknown_module_samples += 1;
            continue;
        }
        if let Some(set) = hot {
            let in_hot = mods[s.loc.module.0 as usize]
                .module
                .function_at(s.loc.offset)
                .is_some_and(|sym| set.contains(&(s.loc.module.0, sym.name.clone())));
            if !in_hot {
                continue;
            }
        }
        let executed = |offset: u64| {
            insn_counts
                .get(&CodeLoc {
                    module: s.loc.module,
                    offset,
                })
                .copied()
                .unwrap_or(0)
                > 0
        };
        // Sampling skid displaces a sample at most one instruction past the
        // stalling one, so a sample whose immediate predecessor executed is
        // legitimate even if its own count is zero (e.g. the never-taken
        // fall-through after a loop's back edge).
        let skid_excused = s.loc.offset >= INSN_BYTES && executed(s.loc.offset - INSN_BYTES);
        if !executed(s.loc.offset) && !skid_excused {
            d.phantom_samples += 1;
            d.phantom_cycles += s.weight;
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

    fn analyze(src: &str, period: u64) -> Analysis {
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
        Analysis::new(&modules, &samples, &counts, AnalysisOptions::default())
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
