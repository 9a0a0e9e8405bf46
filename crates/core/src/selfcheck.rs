//! Differential self-check: the fused analysis against the ground-truth
//! oracle.
//!
//! The join between the sampling and instrumentation profiles is the one
//! place a bug produces *plausible-looking wrong numbers* instead of a
//! crash: a mis-keyed offset or double-attributed block shifts cycles
//! between lines silently. This module runs the full pipeline and the
//! oracle ([`wiser_sim::run_oracle`]) over the same program — same
//! `rand_seed`, same ASLR layout as the sampling pass, so the executions
//! are identical down to the cycle — and compares every table the analysis
//! emits against exact ground truth.
//!
//! ## Discrepancy taxonomy
//!
//! Every comparison is classified by what can legitimately explain it:
//!
//! * [`DiscrepancyClass::Noise`] — a *cycle* estimate outside its
//!   statistical bound. With `n` samples of period `p`, an entity's cycle
//!   estimate carries error ≈ `p·√n`, plus up to `2p` of quantisation and
//!   `n`·[`SAMPLE_SERVICE_COST`] of sampler-overhead inflation. Beyond
//!   `σ` times that is recorded, but sampling can still explain it.
//! * [`DiscrepancyClass::Skid`] — a function's cycles are outside the
//!   bound while its module's total is inside: attribution moved *within*
//!   the module, exactly what interrupt skid does at function boundaries.
//! * [`DiscrepancyClass::JoinBug`] — something sampling can *not* explain:
//!   any mismatch of exact execution counts (the DBI pass counts every
//!   instruction; the oracle retires every instruction; the runs are
//!   deterministic, so disagreement means the join mangled a key), a
//!   loop forest violating the laminar invariant, or a module-level cycle
//!   deviation too large and too well-sampled for noise.
//!
//! `optiwise selfcheck` sweeps generated programs
//! ([`wiser_workloads::generated`]) through [`check_modules`] and fails
//! with exit code 10 if any seed reports a join bug.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

use wiser_isa::{Module, INSN_BYTES};
use wiser_sampler::SAMPLE_SERVICE_COST;
use wiser_sim::{run_oracle, CodeLoc, LoadConfig, ModuleId, OracleProfile, ProcessImage};

use crate::analysis::AnalysisMode;
use crate::error::OptiwiseError;
use crate::runner::{run_optiwise, OptiwiseConfig};
use crate::tables::ProfileTables;
use crate::types::{Coverage, FuncStats, LineStats};

/// Tuning of one self-check run.
#[derive(Clone, Debug)]
pub struct SelfCheckOptions {
    /// Pipeline configuration shared by the checked run and the oracle
    /// (the oracle reuses `rand_seed`, `aslr_seeds.0`, `core` and
    /// `max_insns` so both executions are identical).
    pub config: OptiwiseConfig,
    /// Statistical bound multiplier for cycle comparisons.
    pub sigma: f64,
}

impl Default for SelfCheckOptions {
    fn default() -> SelfCheckOptions {
        SelfCheckOptions {
            config: OptiwiseConfig {
                // Generated programs retire well under a million
                // instructions; a tight budget keeps a sweep cheap while
                // never truncating a healthy seed.
                max_insns: 10_000_000,
                ..OptiwiseConfig::default()
            },
            sigma: 3.0,
        }
    }
}

/// What can explain one observed deviation. Ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiscrepancyClass {
    /// Within what sampling error could produce (recorded only when a
    /// cycle figure exceeds its σ bound but stays explainable).
    Noise,
    /// Attribution moved across a function boundary but the module total
    /// balances: interrupt skid.
    Skid,
    /// Sampling cannot explain it: an exact-count mismatch or invariant
    /// violation. The join path has a bug.
    JoinBug,
}

impl fmt::Display for DiscrepancyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiscrepancyClass::Noise => "noise",
            DiscrepancyClass::Skid => "skid",
            DiscrepancyClass::JoinBug => "JOIN BUG",
        })
    }
}

/// One deviation between the fused analysis and the oracle.
#[derive(Clone, Debug)]
pub struct Discrepancy {
    /// Severity classification.
    pub class: DiscrepancyClass,
    /// Which comparison tripped (e.g. `"block-count"`, `"function-cycles"`).
    pub check: &'static str,
    /// The entity compared (`module:function`, `module+0xoffset`, …).
    pub entity: String,
    /// The fused analysis' value.
    pub got: f64,
    /// The oracle's value (plus modelled overhead, for cycle checks).
    pub want: f64,
    /// Allowed |got − want| (0 for exact-count checks).
    pub bound: f64,
    /// Extra context (invariant-violation message, …).
    pub note: String,
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {}: fused {} vs oracle {} (bound {})",
            self.class, self.check, self.entity, self.got, self.want, self.bound
        )?;
        if !self.note.is_empty() {
            write!(f, " — {}", self.note)?;
        }
        Ok(())
    }
}

/// Outcome of checking one program.
#[derive(Debug)]
pub struct ProgramCheck {
    /// All recorded deviations, most severe first.
    pub discrepancies: Vec<Discrepancy>,
    /// The run degraded (truncated profile or sampling-only analysis), so
    /// exact comparisons were skipped — only invariants were enforced.
    pub degraded: bool,
    /// Samples taken by the checked run.
    pub samples: u64,
    /// Ground-truth instruction count.
    pub total_insns: u64,
    /// Ground-truth cycle count.
    pub total_cycles: u64,
}

impl ProgramCheck {
    /// Number of [`DiscrepancyClass::JoinBug`] discrepancies.
    pub fn join_bugs(&self) -> usize {
        self.discrepancies
            .iter()
            .filter(|d| d.class == DiscrepancyClass::JoinBug)
            .count()
    }

    /// One-line summary for sweep reports.
    pub fn summary(&self) -> String {
        let (mut noise, mut skid, mut bugs) = (0, 0, 0);
        for d in &self.discrepancies {
            match d.class {
                DiscrepancyClass::Noise => noise += 1,
                DiscrepancyClass::Skid => skid += 1,
                DiscrepancyClass::JoinBug => bugs += 1,
            }
        }
        format!(
            "insns={} cycles={} samples={}{}: {} join-bug, {} skid, {} noise",
            self.total_insns,
            self.total_cycles,
            self.samples,
            if self.degraded { " (degraded)" } else { "" },
            bugs,
            skid,
            noise,
        )
    }
}

/// Runs the full pipeline and the oracle over `modules` and compares them.
///
/// # Errors
///
/// Returns whatever [`run_optiwise`] returns, plus loader errors from the
/// oracle's image. Discrepancies are *results*, not errors.
pub fn check_modules(
    modules: &[Module],
    opts: &SelfCheckOptions,
) -> Result<ProgramCheck, OptiwiseError> {
    let config = &opts.config;
    let run = run_optiwise(modules, config)?;
    // The oracle replays the *sampling* pass' execution: same program
    // input, same address-space layout, observed exactly.
    let load = LoadConfig {
        aslr_seed: Some(config.aslr_seeds.0),
        ..LoadConfig::default()
    };
    let image = ProcessImage::load(modules, &load)?;
    let (oracle, _oracle_run) =
        run_oracle(&image, config.rand_seed, config.core, config.max_insns)?;

    let tables = ProfileTables::from_analysis(&run.analysis);
    let mut out: Vec<Discrepancy> = Vec::new();
    let degraded = tables.mode != AnalysisMode::Full
        || run.samples.truncated.is_some()
        || run.counts.truncated.is_some()
        || oracle.truncated.is_some();

    // -- invariants enforced regardless of degradation --------------------
    if let Err(msg) = tables.validate() {
        out.push(Discrepancy {
            class: DiscrepancyClass::JoinBug,
            check: "tables-validate",
            entity: "<all>".into(),
            got: 0.0,
            want: 0.0,
            bound: 0.0,
            note: msg,
        });
    }
    // Merged forests must be laminar outright. With merging disabled the
    // forest keeps one raw loop per back edge — partially-overlapping
    // same-header bodies are that representation, not a bug — but cycle
    // attribution must still see a nesting chain per block, or shared
    // blocks get double-counted.
    let merged = config.analysis.merge_threshold.is_some();
    for ma in &run.analysis.modules {
        for (fidx, forest) in ma.forests.iter().enumerate() {
            let entity = format!("{}:{}", ma.name, ma.cfg.functions[fidx].name);
            if merged {
                if let Err(msg) = forest.check_laminar() {
                    out.push(Discrepancy {
                        class: DiscrepancyClass::JoinBug,
                        check: "loop-forest-laminar",
                        entity,
                        got: 0.0,
                        want: 0.0,
                        bound: 0.0,
                        note: msg,
                    });
                }
                continue;
            }
            for bid in &ma.cfg.functions[fidx].blocks {
                let ids = forest.loops_containing(*bid);
                for w in ids.windows(2) {
                    if !forest.loops[w[1]]
                        .body
                        .is_superset(&forest.loops[w[0]].body)
                    {
                        out.push(Discrepancy {
                            class: DiscrepancyClass::JoinBug,
                            check: "loop-attribution-chain",
                            entity: entity.clone(),
                            got: 0.0,
                            want: 0.0,
                            bound: 0.0,
                            note: format!(
                                "block {bid} attributed to non-nested loops {} and {}",
                                w[0], w[1]
                            ),
                        });
                    }
                }
            }
        }
    }

    if degraded {
        out.sort_by_key(|d| std::cmp::Reverse(d.class));
        return Ok(ProgramCheck {
            discrepancies: out,
            degraded,
            samples: run.samples.samples.len() as u64,
            total_insns: oracle.total_retired,
            total_cycles: oracle.total_cycles,
        });
    }

    // Selective instrumentation counts only hot functions; every
    // exact-count comparison below is restricted to the counted subset by
    // building the oracle-side bins through `loc_counted`. Cycle checks
    // stay unrestricted — sampling attribution covers cold code too.
    let hot: Option<HashSet<(u32, String)>> = config.selective.then(|| {
        tables
            .functions
            .iter()
            .filter(|f| f.coverage == Coverage::Counted)
            .map(|f| (f.module, f.name.clone()))
            .collect()
    });
    let loc_counted = |loc: CodeLoc| -> bool {
        match &hot {
            None => true,
            Some(set) => run.analysis.modules[loc.module.0 as usize]
                .module()
                .function_at(loc.offset)
                .is_some_and(|s| set.contains(&(loc.module.0, s.name.clone()))),
        }
    };

    // -- exact execution counts (any mismatch is a join bug) --------------
    let exact = |check: &'static str, entity: String, got: u64, want: u64| Discrepancy {
        class: DiscrepancyClass::JoinBug,
        check,
        entity,
        got: got as f64,
        want: want as f64,
        bound: 0.0,
        note: String::new(),
    };

    let want_total: u64 = if hot.is_some() {
        oracle
            .retired
            .iter()
            .filter(|(&loc, _)| loc_counted(loc))
            .map(|(_, &n)| n)
            .sum()
    } else {
        oracle.total_retired
    };
    if tables.total_insns != want_total {
        out.push(exact(
            "total-insns",
            "<all>".into(),
            tables.total_insns,
            want_total,
        ));
    }

    // Every CFG block's count must equal the exact execution count of each
    // of its instructions (the carve-at-leaders rebuild guarantees counts
    // are uniform inside a block — if they are not, the rebuild merged
    // instructions it should have split).
    let mut covered: BTreeSet<CodeLoc> = BTreeSet::new();
    for (mi, ma) in run.analysis.modules.iter().enumerate() {
        let mid = ModuleId(mi as u32);
        for b in &ma.cfg.blocks {
            for k in 0..b.len as u64 {
                let loc = CodeLoc {
                    module: mid,
                    offset: b.start + k * INSN_BYTES,
                };
                covered.insert(loc);
                let want = oracle.retired_at(loc);
                if b.count != want {
                    out.push(exact(
                        "block-count",
                        format!("{}+{:#x}", ma.name, loc.offset),
                        b.count,
                        want,
                    ));
                }
            }
        }
    }
    for (&loc, &n) in &oracle.retired {
        if !loc_counted(loc) {
            continue;
        }
        let ma = &run.analysis.modules[loc.module.0 as usize];
        if n > 0 && !covered.contains(&loc) {
            out.push(exact(
                "missing-insn",
                format!("{}+{:#x}", ma.name, loc.offset),
                0,
                n,
            ));
        }
        let got = run.analysis.count_at(loc);
        if got != n {
            out.push(exact(
                "insn-count",
                format!("{}+{:#x}", ma.name, loc.offset),
                got,
                n,
            ));
        }
    }

    // Oracle bins for the aggregate tables, built straight from the module
    // symbol/line metadata — independently of the analysis' own binning.
    let mut fn_insns: BTreeMap<(u32, String), u64> = BTreeMap::new();
    let mut fn_cycles: BTreeMap<(u32, String), u64> = BTreeMap::new();
    let mut line_counts: BTreeMap<(u32, String, u32), u64> = BTreeMap::new();
    let nmod = run.analysis.modules.len();
    let mut mod_oracle_cycles = vec![0u64; nmod];
    for (&loc, &n) in &oracle.retired {
        if !loc_counted(loc) {
            continue;
        }
        let m = run.analysis.modules[loc.module.0 as usize].module();
        if let Some(sym) = m.function_at(loc.offset) {
            *fn_insns
                .entry((loc.module.0, sym.name.clone()))
                .or_insert(0) += n;
        }
        if let Some((file, line)) = m.line_at(loc.offset) {
            *line_counts
                .entry((loc.module.0, file.to_string(), line))
                .or_insert(0) += n;
        }
    }
    for (&loc, &c) in &oracle.cycles {
        mod_oracle_cycles[loc.module.0 as usize] += c;
        let m = run.analysis.modules[loc.module.0 as usize].module();
        if let Some(sym) = m.function_at(loc.offset) {
            *fn_cycles
                .entry((loc.module.0, sym.name.clone()))
                .or_insert(0) += c;
        }
    }

    for f in &tables.functions {
        if f.name.starts_with("<anon") {
            continue; // unsymbolized regions have no independent bin key
        }
        let want = fn_insns
            .get(&(f.module, f.name.clone()))
            .copied()
            .unwrap_or(0);
        if f.self_insns != want {
            out.push(exact(
                "function-insns",
                format!("{}:{}", tables.module_name(f.module), f.name),
                f.self_insns,
                want,
            ));
        }
    }
    for ((m, name), &n) in &fn_insns {
        if n > 0
            && !tables
                .functions
                .iter()
                .any(|f| f.module == *m && f.name == *name)
        {
            out.push(exact(
                "function-missing",
                format!("{}:{name}", tables.module_name(*m)),
                0,
                n,
            ));
        }
    }

    for l in &tables.lines {
        let want = line_counts
            .get(&(l.module, l.file.clone(), l.line))
            .copied()
            .unwrap_or(0);
        if l.count != want {
            out.push(exact(
                "line-count",
                format!("{}:{}:{}", tables.module_name(l.module), l.file, l.line),
                l.count,
                want,
            ));
        }
    }
    for ((m, file, line), &n) in &line_counts {
        if n > 0
            && !tables
                .lines
                .iter()
                .any(|l| l.module == *m && l.file == *file && l.line == *line)
        {
            out.push(exact(
                "line-missing",
                format!("{}:{file}:{line}", tables.module_name(*m)),
                0,
                n,
            ));
        }
    }

    // Loop body instruction totals, keyed by (module, function, header
    // offset, depth). Unique within a laminar forest (same-header merge
    // levels nest with strictly increasing depth); raw forests can collide
    // on a shared header, so each key holds a multiset of expected sums.
    let mut want_loops: BTreeMap<(u32, String, u64, usize), Vec<u64>> = BTreeMap::new();
    for (mi, ma) in run.analysis.modules.iter().enumerate() {
        let mid = ModuleId(mi as u32);
        for forest in &ma.forests {
            for l in &forest.loops {
                let body: u64 = l
                    .body
                    .iter()
                    .map(|&bid| {
                        let b = &ma.cfg.blocks[bid];
                        (0..b.len as u64)
                            .map(|k| {
                                oracle.retired_at(CodeLoc {
                                    module: mid,
                                    offset: b.start + k * INSN_BYTES,
                                })
                            })
                            .sum::<u64>()
                    })
                    .sum();
                want_loops
                    .entry((
                        mi as u32,
                        ma.cfg.functions[l.function].name.clone(),
                        ma.cfg.blocks[l.header].start,
                        l.depth,
                    ))
                    .or_default()
                    .push(body);
            }
        }
    }
    for l in &tables.loops {
        let key = (l.module, l.function.clone(), l.header_offset, l.depth);
        let entity = format!(
            "{}:{} loop@{:#x} depth {}",
            tables.module_name(l.module),
            l.function,
            l.header_offset,
            l.depth
        );
        match want_loops.get_mut(&key) {
            Some(v) if !v.is_empty() => {
                if let Some(pos) = v.iter().position(|&w| w == l.body_insns) {
                    v.remove(pos);
                } else {
                    let want = v.remove(0);
                    out.push(exact("loop-body-insns", entity, l.body_insns, want));
                }
            }
            _ => out.push(exact("loop-unmatched", entity, l.body_insns, 0)),
        }
    }
    for ((m, func, header, depth), wants) in &want_loops {
        for &want in wants {
            out.push(exact(
                "loop-missing",
                format!(
                    "{}:{func} loop@{header:#x} depth {depth}",
                    tables.module_name(*m)
                ),
                0,
                want,
            ));
        }
    }

    // -- statistical cycle comparisons ------------------------------------
    let p = config.sampler.period as f64;
    let cost = SAMPLE_SERVICE_COST as f64;
    // σ·p·√(n+1) sampling error + 2p quantisation + the sampler's own
    // service cost, which inflates the sampled run by `cost` per sample.
    let bound = |n: f64| opts.sigma * p * (n + 1.0).sqrt() + 2.0 * p + n * cost;

    let mut mod_sampled = vec![0u64; nmod];
    let mut mod_samples = vec![0u64; nmod];
    for f in &tables.functions {
        mod_sampled[f.module as usize] += f.self_cycles;
        mod_samples[f.module as usize] += f.self_samples;
    }
    let mut module_ok = vec![true; nmod];
    for mi in 0..nmod {
        let got = mod_sampled[mi] as f64;
        let want = mod_oracle_cycles[mi] as f64;
        let n = mod_samples[mi] as f64;
        // Drain bubbles are unattributable in the oracle but the sampler
        // spreads them over real instructions; allow that remainder.
        let b = bound(n) + oracle.unattributed_cycles as f64;
        let diff = (got - want).abs();
        if diff > b {
            module_ok[mi] = false;
            // Sampling noise shrinks as √n while a join bug's systematic
            // error scales with the total: far outside the bound, large
            // relative to the truth, and well-sampled means it is not
            // noise.
            let rel = diff / want.max(1.0);
            let class = if n >= 32.0 && rel >= 0.5 && diff > b * (5.0 / opts.sigma) {
                DiscrepancyClass::JoinBug
            } else {
                DiscrepancyClass::Noise
            };
            out.push(Discrepancy {
                class,
                check: "module-cycles",
                entity: tables.module_name(mi as u32),
                got,
                want,
                bound: b,
                note: String::new(),
            });
        }
    }
    for f in &tables.functions {
        if f.name.starts_with("<anon") {
            continue;
        }
        let want = fn_cycles
            .get(&(f.module, f.name.clone()))
            .copied()
            .unwrap_or(0) as f64;
        let got = f.self_cycles as f64;
        let n = f.self_samples as f64;
        let b = bound(n);
        let diff = (got - want).abs();
        if diff > b {
            let class = if module_ok[f.module as usize] {
                DiscrepancyClass::Skid
            } else {
                DiscrepancyClass::Noise
            };
            out.push(Discrepancy {
                class,
                check: "function-cycles",
                entity: format!("{}:{}", tables.module_name(f.module), f.name),
                got,
                want,
                bound: b,
                note: String::new(),
            });
        }
    }

    out.sort_by_key(|d| std::cmp::Reverse(d.class));
    Ok(ProgramCheck {
        discrepancies: out,
        degraded,
        samples: run.samples.samples.len() as u64,
        total_insns: oracle.total_retired,
        total_cycles: oracle.total_cycles,
    })
}

/// Exports an oracle profile in the pipeline's [`ProfileTables`] shape, so
/// oracle ground truth can flow through the same reports, stores and diff
/// engine as a fused run.
///
/// Function and line rows carry exact counts and cycles with zero samples
/// (the oracle does not sample — differential comparisons route them to
/// the exact-count metric). Inclusive figures equal self figures and the
/// loop table is empty: both need the DBI call/loop structure, which the
/// oracle deliberately does not reconstruct.
///
/// `modules` must be the same set, in the same order, the oracle ran over.
pub fn oracle_tables(modules: &[Module], oracle: &OracleProfile) -> ProfileTables {
    let mut funcs: BTreeMap<(u32, String), FuncStats> = BTreeMap::new();
    let mut lines: BTreeMap<(u32, String, u32), LineStats> = BTreeMap::new();
    for (&loc, &n) in &oracle.retired {
        let m = &modules[loc.module.0 as usize];
        if let Some(sym) = m.function_at(loc.offset) {
            let e = funcs
                .entry((loc.module.0, sym.name.clone()))
                .or_insert_with(|| FuncStats {
                    module: loc.module.0,
                    name: sym.name.clone(),
                    self_cycles: 0,
                    incl_cycles: 0,
                    self_samples: 0,
                    self_insns: 0,
                    incl_insns: 0,
                    coverage: Coverage::Counted,
                });
            e.self_insns += n;
            e.incl_insns += n;
        }
        if let Some((file, line)) = m.line_at(loc.offset) {
            let e = lines
                .entry((loc.module.0, file.to_string(), line))
                .or_insert_with(|| LineStats {
                    module: loc.module.0,
                    file: file.to_string(),
                    line,
                    cycles: 0,
                    samples: 0,
                    count: 0,
                });
            e.count += n;
        }
    }
    for (&loc, &c) in &oracle.cycles {
        let m = &modules[loc.module.0 as usize];
        if let Some(sym) = m.function_at(loc.offset) {
            if let Some(e) = funcs.get_mut(&(loc.module.0, sym.name.clone())) {
                e.self_cycles += c;
                e.incl_cycles += c;
            }
        }
        if let Some((file, line)) = m.line_at(loc.offset) {
            if let Some(e) = lines.get_mut(&(loc.module.0, file.to_string(), line)) {
                e.cycles += c;
            }
        }
    }
    ProfileTables {
        mode: AnalysisMode::Full,
        wall_cycles: oracle.total_cycles,
        total_cycles: oracle.attributed_cycles(),
        total_insns: oracle.total_retired,
        modules: oracle.module_names.clone(),
        functions: funcs.into_values().collect(),
        loops: Vec::new(),
        lines: lines.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_isa::assemble;

    fn loop_with_call() -> Module {
        assemble(
            "selfcheck_t",
            r#"
            .func helper
                addi x1, x1, 1
                addi x1, x1, 2
                ret
            .endfunc
            .func _start global
                li x8, 2000
                li x9, 0
            loop:
                call helper
                subi x8, x8, 1
                bne x8, x9, loop
                li x1, 0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap()
    }

    #[test]
    fn clean_program_has_no_join_bugs() {
        let check = check_modules(&[loop_with_call()], &SelfCheckOptions::default()).unwrap();
        assert!(!check.degraded);
        assert_eq!(check.join_bugs(), 0, "{:#?}", check.discrepancies);
        // 2 setup + 5*2000 (call+sub+bne+addi+addi... helper 3, loop 2... )
        assert!(check.total_insns > 10_000);
        assert!(check.samples > 0);
    }

    #[test]
    fn truncated_run_reports_degraded_not_buggy() {
        let opts = SelfCheckOptions {
            config: OptiwiseConfig {
                max_insns: 500,
                ..SelfCheckOptions::default().config
            },
            ..SelfCheckOptions::default()
        };
        let check = check_modules(&[loop_with_call()], &opts).unwrap();
        assert!(check.degraded);
        assert_eq!(check.join_bugs(), 0, "{:#?}", check.discrepancies);
    }

    #[test]
    fn oracle_tables_are_consistent_and_exact() {
        let module = loop_with_call();
        let image = ProcessImage::load_single(&module).unwrap();
        let (oracle, _) =
            run_oracle(&image, 0, wiser_sim::CoreConfig::xeon_like(), 1_000_000).unwrap();
        let tables = oracle_tables(std::slice::from_ref(&module), &oracle);
        tables.validate().unwrap();
        assert_eq!(tables.total_insns, oracle.total_retired);
        let fn_insns: u64 = tables.functions.iter().map(|f| f.self_insns).sum();
        assert_eq!(fn_insns, oracle.total_retired);
        let helper = tables
            .functions
            .iter()
            .find(|f| f.name == "helper")
            .unwrap();
        assert_eq!(helper.self_insns, 3 * 2000);
        assert_eq!(helper.self_samples, 0);
        assert!(helper.self_cycles > 0);
    }
}
