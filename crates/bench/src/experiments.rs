//! One generator per paper figure/table. See `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

use std::collections::HashMap;
use std::time::Instant;

use optiwise::{
    module_fingerprint, report, run_optiwise, Analysis, AnalysisOptions, InsnRow, LoopStats,
    OptiwiseConfig,
};
use wiser_dbi::{instrument_run, DbiConfig};
use wiser_isa::{assemble, Module};
use wiser_sampler::{sample_run, sampling_overhead, Attribution, SamplerConfig};
use wiser_sim::{run_timed, CodeLoc, CoreConfig, LoadConfig, NoProbes, ProcessImage};
use wiser_store::{Checkpoint, CheckpointSpec};
use wiser_workloads::InputSize;

fn build(name: &str, size: InputSize) -> Vec<Module> {
    wiser_workloads::by_name(name)
        .unwrap_or_else(|| panic!("workload {name} not registered"))
        .build(size)
        .unwrap_or_else(|e| panic!("assembling {name}: {e}"))
}

fn pipeline(modules: &[Module], config: &OptiwiseConfig) -> optiwise::OptiwiseRun {
    run_optiwise(modules, config).expect("pipeline run")
}

fn default_config(period: u64) -> OptiwiseConfig {
    OptiwiseConfig {
        sampler: SamplerConfig::with_period(period),
        ..OptiwiseConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Figure 1 — motivating example
// ---------------------------------------------------------------------------

/// Figure 1 data: the annotated hot loop of `fig1_motivating`.
pub struct Fig1 {
    /// Per-instruction rows of `_start`.
    pub rows: Vec<InsnRow>,
    /// Total attributed cycles.
    pub total_cycles: u64,
    /// The cache-missing load's row index.
    pub load_row: usize,
    /// The hottest cheap-ALU row index.
    pub hot_alu_row: usize,
}

/// Runs the figure 1 experiment.
///
/// Uses PEBS-precise attribution, as the paper's evaluation machine does
/// ("processors with Intel PEBS support automatically handle this issue",
/// §III); without it the load's samples skid onto its dependent consumer.
pub fn fig01(size: InputSize) -> Fig1 {
    let modules = build("fig1_motivating", size);
    let config = OptiwiseConfig {
        sampler: SamplerConfig {
            attribution: Attribution::Precise,
            ..SamplerConfig::with_period(512)
        },
        ..OptiwiseConfig::default()
    };
    let run = pipeline(&modules, &config);
    let rows = run.analysis.annotate_function(0, "_start");
    let load_row = rows
        .iter()
        .position(|r| r.text.starts_with("ld.8"))
        .expect("the scattered load");
    // The cheap block runs every iteration: its rows carry the maximum
    // execution count.
    let max_count = rows.iter().map(|r| r.count).max().unwrap_or(0);
    let hot_alu_row = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            (r.text.starts_with("add ") || r.text.starts_with("xor ")) && r.count == max_count
        })
        .max_by_key(|(_, r)| r.cycles)
        .map(|(i, _)| i)
        .expect("a cheap ALU row");
    Fig1 {
        rows,
        total_cycles: run.analysis.total_cycles,
        load_row,
        hot_alu_row,
    }
}

// ---------------------------------------------------------------------------
// Figure 2 — which instructions can be sampled at all
// ---------------------------------------------------------------------------

/// Figure 2 data: per-instruction sample counts when sampling *every* cycle,
/// over a short loop mixing a slow load, dependent and independent ops.
pub struct Fig2 {
    /// `(offset, disassembly, samples)` for the loop body.
    pub rows: Vec<(u64, String, u64)>,
    /// Total samples taken.
    pub total_samples: u64,
    /// How many loop-body instructions were never sampled.
    pub never_sampled: usize,
}

/// Runs the figure 2 experiment.
pub fn fig02() -> Fig2 {
    // A perfectly periodic ALU kernel: a loop-carried dependence chain plus
    // independent fillers. Once the pipeline reaches steady state the same
    // commit groups repeat forever, so instructions that always commit in
    // the same cycle as an older one are never at the head of the complete
    // queue at a sampling boundary — figure 2's "cannot be sampled".
    let module = assemble(
        "fig2",
        r#"
        .func _start global
            li x8, 30000
            li x9, 0
            li x2, 1
        loop:
            add x1, x1, x2         ; loop-carried chain
            add x3, x1, x1         ; dependent
            add x4, x1, x3         ; dependent
            addi x5, x5, 1         ; independent
            addi x6, x6, 1         ; independent
            subi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#,
    )
    .expect("fig2 kernel assembles");
    let image = ProcessImage::load_single(&module).expect("load");
    let mut cfg = SamplerConfig::with_period(1);
    cfg.jitter = 0;
    let (profile, _) =
        sample_run(&image, 0, CoreConfig::xeon_like(), cfg, 50_000_000).expect("sampling run");
    let by_loc = profile.by_location();
    let dis = wiser_isa::Disassembly::of_module(&image.modules[0].linked).expect("disasm");
    // The loop body: 7 instructions starting at the chain add.
    let mut rows = Vec::new();
    let mut never = 0;
    for line in dis.lines().iter().skip(3).take(7) {
        let samples = by_loc
            .get(&CodeLoc {
                module: wiser_sim::ModuleId(0),
                offset: line.offset,
            })
            .map(|&(n, _)| n)
            .unwrap_or(0);
        if samples == 0 {
            never += 1;
        }
        rows.push((line.offset, line.text.clone(), samples));
    }
    Fig2 {
        total_samples: rows.iter().map(|r| r.2).sum(),
        never_sampled: never,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 4/5 — stack-profiling attribution
// ---------------------------------------------------------------------------

/// Figure 4 data: the loops of `stack_attr` and how the shared callee's time
/// was divided among them.
pub struct Fig4 {
    /// Loop rows, as analyzed.
    pub loops: Vec<LoopStats>,
    /// Cycles of loop1 (hot caller of func3).
    pub loop1_cycles: u64,
    /// Cycles of loop2 (cold caller of func3).
    pub loop2_cycles: u64,
    /// Instructions of loop1 including callees.
    pub loop1_insns: u64,
    /// Instructions of loop2 including callees.
    pub loop2_insns: u64,
    /// A rendered figure-5-style stack trace of one sample inside func3.
    pub example_stack: String,
}

/// Runs the figure 4/5 experiment.
pub fn fig04(size: InputSize) -> Fig4 {
    let modules = build("stack_attr", size);
    let run = pipeline(&modules, &default_config(256));
    let loops = run.analysis.loops().to_vec();
    let find = |func: &str| {
        loops
            .iter()
            .find(|l| l.function == func)
            .unwrap_or_else(|| panic!("loop in {func}"))
    };
    let loop1 = find("func1");
    let loop2 = find("func2");
    // A figure-5-style rendering: sample PC on top, callers below.
    let example = run
        .samples
        .samples
        .iter()
        .find(|s| s.stack.len() >= 2)
        .map(|s| {
            let mut out = String::new();
            let describe = |loc: CodeLoc| {
                let m = &run.analysis.modules[loc.module.0 as usize];
                match m.module().function_at(loc.offset) {
                    Some(f) => format!("{}+{:#x}", f.name, loc.offset - f.offset),
                    None => format!("{:#x}", loc.offset),
                }
            };
            out.push_str(&format!("  {:<24} <- sample PC\n", describe(s.loc)));
            for frame in s.stack.iter().rev() {
                out.push_str(&format!("  {:<24} <- call site\n", describe(*frame)));
            }
            out
        })
        .unwrap_or_default();
    Fig4 {
        loop1_cycles: loop1.cycles,
        loop2_cycles: loop2.cycles,
        loop1_insns: loop1.total_insns,
        loop2_insns: loop2.total_insns,
        loops,
        example_stack: example,
    }
}

// ---------------------------------------------------------------------------
// Figure 6 / Table I — the loop-merging heuristic
// ---------------------------------------------------------------------------

/// One row of the Table-I-style trace.
pub struct MergeStep {
    /// Iteration number of algorithm 2's outer `while`.
    pub iteration: usize,
    /// Back-edge tails merged into this level's program loop.
    pub merged: usize,
    /// Back edges still pending (classified nested).
    pub remaining: usize,
}

/// Figure 6 data.
pub struct Fig6 {
    /// Loops found with the paper's T = 3.
    pub merged_loops: Vec<LoopStats>,
    /// Loops found with merging disabled (one per back edge).
    pub raw_loops: usize,
    /// Algorithm-2 trace (Table I).
    pub trace: Vec<MergeStep>,
    /// `(T, resulting loop count)` sweep for the ablation.
    pub sweep: Vec<(u64, usize)>,
}

/// Runs the figure 6 / Table I experiment.
pub fn fig06(size: InputSize) -> Fig6 {
    let modules = build("loop_merge", size);
    let run = pipeline(&modules, &default_config(512));
    let trace: Vec<MergeStep> = run.analysis.modules[0]
        .forests
        .iter()
        .flat_map(|f| f.merge_trace.iter())
        .enumerate()
        .map(|(i, step)| MergeStep {
            iteration: i + 1,
            merged: step.merged_tails.len(),
            remaining: step.remaining_tails.len(),
        })
        .collect();

    let mut sweep = Vec::new();
    for t in [1u64, 2, 3, 5, 10, 100] {
        let cfg = OptiwiseConfig {
            analysis: AnalysisOptions {
                merge_threshold: Some(t),
                ..AnalysisOptions::default()
            },
            sampler: SamplerConfig::with_period(512),
            ..OptiwiseConfig::default()
        };
        let r = pipeline(&modules, &cfg);
        sweep.push((t, r.analysis.loops().len()));
    }
    let raw = pipeline(
        &modules,
        &OptiwiseConfig {
            analysis: AnalysisOptions {
                merge_threshold: None,
                ..AnalysisOptions::default()
            },
            sampler: SamplerConfig::with_period(512),
            ..OptiwiseConfig::default()
        },
    );
    Fig6 {
        merged_loops: run.analysis.loops().to_vec(),
        raw_loops: raw.analysis.loops().len(),
        trace,
        sweep,
    }
}

// ---------------------------------------------------------------------------
// Figure 7 — tool overhead across the suite
// ---------------------------------------------------------------------------

/// One benchmark's overhead row.
pub struct Fig7Row {
    /// Workload name.
    pub name: &'static str,
    /// Native (unprofiled) cycles.
    pub native_cycles: u64,
    /// Native dynamic instructions.
    pub native_insns: u64,
    /// Sampling-run slowdown (≈1.01×).
    pub sample_overhead: f64,
    /// Instrumentation-run slowdown.
    pub instr_overhead: f64,
    /// Both profiling runs combined, relative to one native run.
    pub total_overhead: f64,
    /// Analysis (loop finder + data processing) wall time.
    pub analysis_ms: f64,
    /// Indirect transfers per instruction (drives the worst case).
    pub indirect_share: f64,
    /// Size of the `.owp` file `optiwise sample --out` writes (the paper
    /// reports ~160 KiB/s of perf data at 1 kHz).
    pub sample_bytes: usize,
    /// Size of the `.owp` file `optiwise instrument --out` writes (the
    /// paper reports ≤ 10 MiB, proportional to CFG size, not run time).
    pub counts_bytes: usize,
}

/// Figure 7 data.
pub struct Fig7 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig7Row>,
    /// Geometric means across the suite.
    pub geomean_sample: f64,
    /// Geometric mean instrumentation overhead.
    pub geomean_instr: f64,
    /// Geometric mean total overhead.
    pub geomean_total: f64,
}

/// Runs the figure 7 experiment over the SPEC-like suite.
pub fn fig07(size: InputSize) -> Fig7 {
    let mut rows = Vec::new();
    for w in wiser_workloads::spec_suite() {
        let modules = w.build(size).expect("workload assembles");
        let load = LoadConfig {
            aslr_seed: Some(0x5a5a),
            ..LoadConfig::default()
        };
        let image = ProcessImage::load(&modules, &load).expect("load");

        // Native run (no profiling).
        let native = run_timed(
            &image,
            0,
            CoreConfig::xeon_like(),
            &mut NoProbes,
            500_000_000,
        )
        .expect("native run");

        // Sampling run.
        let (samples, _) = sample_run(
            &image,
            0,
            CoreConfig::xeon_like(),
            SamplerConfig::default(),
            500_000_000,
        )
        .expect("sampling run");
        let sample_overhead = sampling_overhead(&samples);

        // Instrumentation run (different layout, like real ASLR).
        let load_b = LoadConfig {
            aslr_seed: Some(0xa5a5),
            ..LoadConfig::default()
        };
        let image_b = ProcessImage::load(&modules, &load_b).expect("load");
        let counts = instrument_run(&image_b, &DbiConfig::default()).expect("instrument");
        let instr_overhead = counts.cost.overhead();
        let indirect_share =
            counts.cost.indirect_execs as f64 / counts.cost.native_insns.max(1) as f64;

        // The files `optiwise sample --out` / `instrument --out` write:
        // a checkpoint image holding the run spec plus one profile.
        let spec = CheckpointSpec::from_config(
            module_fingerprint(&modules),
            w.name,
            size.name(),
            "xeon",
            &[],
            &OptiwiseConfig::default(),
            0,
        );
        let mut split = Checkpoint::fresh(spec);
        split.samples = Some(samples.clone());
        let sample_bytes = split.to_bytes().len();
        split.samples = None;
        split.counts = Some(counts.clone());
        let counts_bytes = split.to_bytes().len();

        // Analysis time.
        let linked: Vec<Module> = image_b.modules.iter().map(|m| m.linked.clone()).collect();
        let start = Instant::now();
        let analysis = Analysis::new(&linked, &samples, &counts, AnalysisOptions::default());
        let analysis_ms = start.elapsed().as_secs_f64() * 1e3;
        // Keep the analysis honest (and alive past the timer).
        assert!(analysis.total_insns > 0);

        rows.push(Fig7Row {
            name: w.name,
            native_cycles: native.stats.cycles,
            native_insns: native.stats.retired,
            sample_overhead,
            instr_overhead,
            total_overhead: sample_overhead + instr_overhead,
            analysis_ms,
            indirect_share,
            sample_bytes,
            counts_bytes,
        });
    }
    let geomean_sample =
        crate::harness::geomean(&rows.iter().map(|r| r.sample_overhead).collect::<Vec<_>>());
    let geomean_instr =
        crate::harness::geomean(&rows.iter().map(|r| r.instr_overhead).collect::<Vec<_>>());
    let geomean_total =
        crate::harness::geomean(&rows.iter().map(|r| r.total_overhead).collect::<Vec<_>>());
    Fig7 {
        rows,
        geomean_sample,
        geomean_instr,
        geomean_total,
    }
}

// ---------------------------------------------------------------------------
// DBI overhead — exhaustive vs minimal counter placement
// ---------------------------------------------------------------------------

/// One workload's exhaustive-vs-placed instrumentation comparison.
pub struct DbiOverheadRow {
    /// Workload name.
    pub name: &'static str,
    /// Native dynamic instructions.
    pub native_insns: u64,
    /// Instrumented-run instructions with a counter on every block/edge.
    pub exhaustive_insns: u64,
    /// Instrumented-run instructions under minimal counter placement.
    pub placed_insns: u64,
    /// Dynamic counter charges paid by the exhaustive run.
    pub exhaustive_counters: u64,
    /// Dynamic counter charges still paid under placement.
    pub placed_counters: u64,
    /// Dynamic counter charges the placement avoided.
    pub suppressed_counters: u64,
    /// Whether flow-conservation recovery reproduced the exhaustive
    /// per-block counts bit for bit.
    pub recovered_identical: bool,
    /// Exhaustive-run slowdown estimate.
    pub exhaustive_overhead: f64,
    /// Placed-run slowdown estimate.
    pub placed_overhead: f64,
}

impl DbiOverheadRow {
    /// Instrumented-instruction reduction from placement, in percent.
    pub fn insn_reduction_pct(&self) -> f64 {
        if self.exhaustive_insns == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.placed_insns as f64 / self.exhaustive_insns as f64)
    }

    /// Dynamic counter-charge reduction from placement, in percent.
    pub fn counter_reduction_pct(&self) -> f64 {
        if self.exhaustive_counters == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.placed_counters as f64 / self.exhaustive_counters as f64)
    }
}

/// Measures the instrumentation cost of exhaustive edge counting against
/// minimal counter placement, workload by workload, and verifies that the
/// placed profile recovers the exhaustive counts exactly.
pub fn dbi_overhead(size: InputSize) -> Vec<DbiOverheadRow> {
    let mut names: Vec<&'static str> = vec!["recip_loop"];
    names.extend(wiser_workloads::spec_suite().iter().map(|w| w.name));
    names
        .iter()
        .map(|&name| {
            let modules = build(name, size);
            let load = LoadConfig {
                aslr_seed: Some(0xa5a5),
                ..LoadConfig::default()
            };
            let image = ProcessImage::load(&modules, &load).expect("load");
            let linked: Vec<Module> = image.modules.iter().map(|m| m.linked.clone()).collect();
            let config = DbiConfig::default();
            let exhaustive = instrument_run(&image, &config).expect("instrument");
            let mut placed = exhaustive.clone();
            wiser_cfg::optimize_placement(&mut placed, &linked, &config.cost);
            let recovered = wiser_cfg::recover(&placed).expect("recovery solvable");
            let recovered_identical = recovered.blocks == exhaustive.blocks
                && recovered.total_insns() == exhaustive.total_insns();
            DbiOverheadRow {
                name,
                native_insns: exhaustive.cost.native_insns,
                exhaustive_insns: exhaustive.cost.instrumented_insns,
                placed_insns: placed.cost.instrumented_insns,
                exhaustive_counters: exhaustive.cost.counters_placed,
                placed_counters: placed.cost.counters_placed,
                suppressed_counters: placed.cost.counters_suppressed,
                recovered_identical,
                exhaustive_overhead: exhaustive.cost.overhead(),
                placed_overhead: placed.cost.overhead(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8 — x86 sample attribution around a slow store
// ---------------------------------------------------------------------------

/// Figure 8 data.
pub struct Fig8 {
    /// `(offset, disassembly, samples)` across the loop body.
    pub rows: Vec<(u64, String, u64)>,
    /// Samples on the slow store itself.
    pub store_samples: u64,
    /// Samples on the instruction immediately after it (the skid target).
    pub successor_samples: u64,
    /// Largest sample count among the remaining arithmetic instructions.
    pub max_other: u64,
}

/// Runs the figure 8 experiment.
pub fn fig08(size: InputSize) -> Fig8 {
    let modules = build("slow_store", size);
    let image = ProcessImage::load_single(&modules[0]).expect("load");
    let (profile, _) = sample_run(
        &image,
        0,
        CoreConfig::xeon_like(),
        SamplerConfig::with_period(509),
        200_000_000,
    )
    .expect("sampling run");
    let by_loc = profile.by_location();
    let dis = wiser_isa::Disassembly::of_module(&image.modules[0].linked).expect("disasm");
    let store_offset = dis
        .lines()
        .iter()
        .find(|l| l.text.starts_with("st.4"))
        .expect("the slow store")
        .offset;
    let mut rows = Vec::new();
    for line in dis.lines() {
        // The loop body: from the LCG through the backward branch.
        if line.offset + 6 * 8 < store_offset || line.offset > store_offset + 20 * 8 {
            continue;
        }
        let samples = by_loc
            .get(&CodeLoc {
                module: wiser_sim::ModuleId(0),
                offset: line.offset,
            })
            .map(|&(n, _)| n)
            .unwrap_or(0);
        rows.push((line.offset, line.text.clone(), samples));
    }
    let get = |off: u64| {
        by_loc
            .get(&CodeLoc {
                module: wiser_sim::ModuleId(0),
                offset: off,
            })
            .map(|&(n, _)| n)
            .unwrap_or(0)
    };
    let store_samples = get(store_offset);
    let successor_samples = get(store_offset + 8);
    let max_other = rows
        .iter()
        .filter(|(off, _, _)| *off != store_offset && *off != store_offset + 8)
        .map(|(_, _, s)| *s)
        .max()
        .unwrap_or(0);
    Fig8 {
        rows,
        store_samples,
        successor_samples,
        max_other,
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — AArch64-style early release displacement
// ---------------------------------------------------------------------------

/// Figure 9 data: sample histograms by instruction distance from the udiv,
/// for both commit modes.
pub struct Fig9 {
    /// `(insns after the udiv, samples)` on the in-order (x86-like) core.
    pub inorder: Vec<(i64, u64)>,
    /// Same on the early-release (Neoverse-like) core.
    pub early_release: Vec<(i64, u64)>,
    /// Peak displacement (delta >= 1) on the early-release core.
    pub early_peak_delta: i64,
    /// Peak displacement (delta >= 1) on the in-order core.
    pub inorder_peak_delta: i64,
    /// Samples on the udiv itself (both modes observe it as a commit-group
    /// leader).
    pub early_udiv_samples: u64,
}

/// Runs the figure 9 experiment.
pub fn fig09(size: InputSize) -> Fig9 {
    let modules = build("udiv_chain", size);
    let image = ProcessImage::load_single(&modules[0]).expect("load");
    let dis = wiser_isa::Disassembly::of_module(&image.modules[0].linked).expect("disasm");
    let udiv_offset = dis
        .lines()
        .iter()
        .find(|l| l.text.starts_with("udiv"))
        .expect("the udiv")
        .offset;

    let histogram = |core: CoreConfig| -> Vec<(i64, u64)> {
        let (profile, _) = sample_run(
            &image,
            0,
            core,
            SamplerConfig::with_period(507),
            200_000_000,
        )
        .expect("sampling run");
        let mut hist: HashMap<i64, u64> = HashMap::new();
        for (loc, (n, _)) in profile.by_location() {
            let delta = (loc.offset as i64 - udiv_offset as i64) / 8;
            if (-4..=70).contains(&delta) {
                *hist.entry(delta).or_insert(0) += n;
            }
        }
        let mut v: Vec<(i64, u64)> = hist.into_iter().collect();
        v.sort_unstable();
        v
    };
    let inorder = histogram(CoreConfig::xeon_like());
    let early_release = histogram(CoreConfig::neoverse_like());
    // The displacement question is where samples land *instead of* the
    // divide, so the peak is taken over strictly-positive deltas.
    let peak = |hist: &[(i64, u64)]| {
        hist.iter()
            .filter(|(d, _)| *d >= 1)
            .max_by_key(|(_, n)| *n)
            .map(|&(d, _)| d)
            .unwrap_or(0)
    };
    let early_udiv_samples = early_release
        .iter()
        .find(|(d, _)| *d == 0)
        .map(|&(_, n)| n)
        .unwrap_or(0);
    Fig9 {
        inorder_peak_delta: peak(&inorder),
        early_peak_delta: peak(&early_release),
        early_udiv_samples,
        inorder,
        early_release,
    }
}

// ---------------------------------------------------------------------------
// Figure 10 — mcf's cost_compare, annotated
// ---------------------------------------------------------------------------

/// Figure 10 data.
pub struct Fig10 {
    /// Annotated rows of `cost_compare`.
    pub rows: Vec<InsnRow>,
    /// Total attributed cycles of the run.
    pub total_cycles: u64,
    /// Share of total time spent in `cost_compare`.
    pub cost_compare_share: f64,
    /// Share of total time in `spec_qsort` + callees.
    pub qsort_inclusive_share: f64,
    /// CPI of the qsort division instruction.
    pub div_cpi: Option<f64>,
}

/// Runs the figure 10 experiment (mcf baseline, train input, as in §VI-A).
/// PEBS-precise attribution, as on the paper's Xeon.
pub fn fig10(size: InputSize) -> Fig10 {
    let modules = build("mcf_like", size);
    let config = OptiwiseConfig {
        sampler: SamplerConfig {
            attribution: Attribution::Precise,
            ..SamplerConfig::with_period(997)
        },
        ..OptiwiseConfig::default()
    };
    let run = pipeline(&modules, &config);
    let analysis = &run.analysis;
    let rows = analysis.annotate_function(0, "cost_compare");
    let cc = analysis.function("cost_compare").expect("cost_compare");
    let qs = analysis.function("spec_qsort").expect("spec_qsort");
    let total = analysis.total_cycles.max(1);
    // The division inside spec_qsort (module 1).
    let div_cpi = analysis
        .annotate_function(1, "spec_qsort")
        .iter()
        .find(|r| r.text.starts_with("udiv"))
        .and_then(|r| r.cpi);
    Fig10 {
        rows,
        total_cycles: analysis.total_cycles,
        cost_compare_share: cc.self_cycles as f64 / total as f64,
        qsort_inclusive_share: qs.incl_cycles as f64 / total as f64,
        div_cpi,
    }
}

// ---------------------------------------------------------------------------
// §VI case studies — baseline vs optimized speedups
// ---------------------------------------------------------------------------

/// One case study result.
pub struct CaseStudy {
    /// Benchmark name.
    pub name: &'static str,
    /// The paper's reported speedup on ref, in percent.
    pub paper_speedup_pct: f64,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// Optimized cycles.
    pub opt_cycles: u64,
}

impl CaseStudy {
    /// Measured speedup in percent.
    pub fn speedup_pct(&self) -> f64 {
        100.0 * (self.base_cycles as f64 / self.opt_cycles as f64 - 1.0)
    }
}

/// Runs the three §VI case studies at the given input size (the paper uses
/// ref).
pub fn case_studies(size: InputSize) -> Vec<CaseStudy> {
    let cases = [
        ("mcf_like", "mcf_like_opt", 12.0),
        ("deepsjeng_like", "deepsjeng_like_opt", 6.8),
        ("bwaves_like", "bwaves_like_opt", 2.0),
    ];
    cases
        .iter()
        .map(|&(base, opt, paper)| {
            let cycles = |name: &str| {
                let modules = build(name, size);
                let image = ProcessImage::load_single_set(&modules);
                run_timed(
                    &image,
                    0,
                    CoreConfig::xeon_like(),
                    &mut NoProbes,
                    1_000_000_000,
                )
                .expect("timed run")
                .stats
                .cycles
            };
            CaseStudy {
                name: base,
                paper_speedup_pct: paper,
                base_cycles: cycles(base),
                opt_cycles: cycles(opt),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §III ablation — attribution accuracy vs granularity
// ---------------------------------------------------------------------------

/// Attribution-error ablation: total-variation distance between a mode's
/// cycle distribution and PEBS-precise ground truth, at three granularities.
pub struct AttributionAccuracy {
    /// `(mode name, insn error, block error, function error)`, errors in
    /// `[0, 1]`.
    pub rows: Vec<(&'static str, f64, f64, f64)>,
}

/// Runs the attribution ablation on the mcf workload.
pub fn attribution_accuracy(size: InputSize) -> AttributionAccuracy {
    let modules = build("mcf_like", size);

    let run_mode = |attribution: Attribution| {
        let cfg = OptiwiseConfig {
            sampler: SamplerConfig {
                attribution,
                ..SamplerConfig::with_period(499)
            },
            ..OptiwiseConfig::default()
        };
        pipeline(&modules, &cfg)
    };
    let precise = run_mode(Attribution::Precise);
    let interrupt = run_mode(Attribution::Interrupt);
    let predecessor = run_mode(Attribution::Predecessor);

    let distributions = |run: &optiwise::OptiwiseRun| {
        let mut insn: HashMap<CodeLoc, f64> = HashMap::new();
        let mut block: HashMap<(u32, u64), f64> = HashMap::new();
        let mut func: HashMap<(u32, String), f64> = HashMap::new();
        let total = run.analysis.total_cycles.max(1) as f64;
        for s in &run.samples.samples {
            let w = s.weight as f64 / total;
            *insn.entry(s.loc).or_insert(0.0) += w;
            let m = &run.analysis.modules[s.loc.module.0 as usize];
            let block_key = m
                .cfg
                .block_containing(s.loc.offset)
                .map(|b| m.cfg.blocks[b].start)
                .unwrap_or(s.loc.offset);
            *block.entry((s.loc.module.0, block_key)).or_insert(0.0) += w;
            let fname = m
                .module()
                .function_at(s.loc.offset)
                .map(|f| f.name.clone())
                .unwrap_or_default();
            *func.entry((s.loc.module.0, fname)).or_insert(0.0) += w;
        }
        (insn, block, func)
    };

    fn tvd<K: std::hash::Hash + Eq + Clone>(a: &HashMap<K, f64>, b: &HashMap<K, f64>) -> f64 {
        let mut keys: Vec<K> = a.keys().cloned().collect();
        for k in b.keys() {
            if !a.contains_key(k) {
                keys.push(k.clone());
            }
        }
        0.5 * keys
            .iter()
            .map(|k| (a.get(k).unwrap_or(&0.0) - b.get(k).unwrap_or(&0.0)).abs())
            .sum::<f64>()
    }

    let (gi, gb, gf) = distributions(&precise);
    let mut rows = Vec::new();
    for (name, run) in [("interrupt", &interrupt), ("predecessor", &predecessor)] {
        let (i, b, f) = distributions(run);
        rows.push((name, tvd(&i, &gi), tvd(&b, &gb), tvd(&f, &gf)));
    }
    AttributionAccuracy { rows }
}

// ---------------------------------------------------------------------------
// Text rendering helpers shared by the fig binaries
// ---------------------------------------------------------------------------

/// Renders annotated instruction rows (reused by several binaries).
pub fn render_annotated(rows: &[InsnRow], total_cycles: u64) -> String {
    report::annotate(rows, total_cycles)
}

trait LoadExt {
    fn load_single_set(modules: &[Module]) -> ProcessImage;
}

impl LoadExt for ProcessImage {
    fn load_single_set(modules: &[Module]) -> ProcessImage {
        ProcessImage::load(modules, &LoadConfig::default()).expect("load")
    }
}

// ---------------------------------------------------------------------------
// PGO speedup — profile-guided rewriting closed into a verification loop
// ---------------------------------------------------------------------------

/// One workload's profile → optimize → oracle → re-profile → diff verdict.
pub struct PgoSpeedupRow {
    /// Workload name.
    pub name: &'static str,
    /// Transform records the optimizer emitted (0 = module kept verbatim).
    pub transforms: usize,
    /// Timed-run cycles of the baseline binary.
    pub baseline_cycles: u64,
    /// Timed-run cycles of the rewritten binary.
    pub optimized_cycles: u64,
    /// Retired instructions of the baseline timed run.
    pub baseline_retired: u64,
    /// Retired instructions of the rewritten timed run.
    pub optimized_retired: u64,
    /// Whether the differential oracle found both binaries observationally
    /// identical on every generated seed.
    pub oracle_ok: bool,
    /// Regression rows of any metric in the re-profile diff (the strict
    /// Improvement-or-Noise criterion).
    pub regression_rows: usize,
    /// Regression rows on the CPI/cycles metrics only — exact-count `Execs`
    /// shifts are the rewrite working, not a performance verdict.
    pub cpi_regressions: usize,
}

impl PgoSpeedupRow {
    /// Timed-run cycle reduction from the rewrite, in percent.
    pub fn cycle_speedup_pct(&self) -> f64 {
        if self.baseline_cycles == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.optimized_cycles as f64 / self.baseline_cycles as f64)
    }
}

/// Seeds swept by the optimizer's differential oracle.
pub const PGO_ORACLE_SEEDS: u64 = 20;

/// Runs the full PGO loop — profile, rewrite, oracle-check, re-profile,
/// diff — over `recip_loop` and the SPEC-like suite.
pub fn pgo_speedup(size: InputSize) -> Vec<PgoSpeedupRow> {
    const ORACLE_MAX_INSNS: u64 = 200_000_000;
    let mut names: Vec<&'static str> = vec!["recip_loop"];
    names.extend(wiser_workloads::spec_suite().iter().map(|w| w.name));
    names
        .iter()
        .map(|&name| {
            let modules = build(name, size);
            let config = OptiwiseConfig::default();
            let run = pipeline(&modules, &config);
            // Minimal placement leaves most counters suppressed; the
            // transforms need the recovered flow-conserved edge weights.
            let counts = match &run.counts.placement {
                Some(p) if !p.recovered => {
                    wiser_cfg::recover(&run.counts).expect("recovery solvable")
                }
                _ => run.counts.clone(),
            };
            let tables = optiwise::ProfileTables::from_analysis(&run.analysis);
            let (rewritten, log) = wiser_opt::optimize_modules(
                &modules,
                &counts,
                Some(&tables),
                &wiser_opt::OptimizeOptions::default(),
            )
            .expect("optimize");
            let oracle_ok =
                wiser_opt::oracle_check(&modules, &rewritten, PGO_ORACLE_SEEDS, ORACLE_MAX_INSNS)
                    .is_ok();
            let rerun = pipeline(&rewritten, &config);
            let optimized = optiwise::ProfileTables::from_analysis(&rerun.analysis);
            let diff = optiwise::diff_tables(&tables, &optimized, optiwise::DiffOptions::default());
            let cpi_regressions = diff
                .rows()
                .filter(|r| {
                    r.class == optiwise::DiffClass::Regression
                        && r.metric != optiwise::DiffMetric::Execs
                })
                .count();
            PgoSpeedupRow {
                name,
                transforms: log.records.len(),
                baseline_cycles: run.timed.stats.cycles,
                optimized_cycles: rerun.timed.stats.cycles,
                baseline_retired: run.timed.stats.retired,
                optimized_retired: rerun.timed.stats.retired,
                oracle_ok,
                regression_rows: diff.regressions(),
                cpi_regressions,
            }
        })
        .collect()
}
