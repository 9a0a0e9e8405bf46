//! The `figures` command: every figure and table of the paper's evaluation,
//! rendered in one process from one table.
//!
//! `figures [--out DIR] [--size test|train|ref] [NAME...]` renders the named
//! rows of [`FIGURES`] (every row, in table order, when none is named) and
//! writes their files under `--out`, which defaults to `results/` relative to
//! the working directory. Nothing is written anywhere else. A row renders at
//! its own default size unless `--size` overrides it.
//!
//! `dbi_overhead` and `pgo_speedup` are gates: they write their files like
//! any row, print each `GATE FAIL` line to stderr, and make the command exit
//! 1 once every row has run. An unknown flag, size or name exits 1 before
//! any file is written.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use optiwise::report;
use wiser_workloads::InputSize;

use crate::experiments::*;

const USAGE: &str = "usage: figures [--out DIR] [--size test|train|ref] [NAME...]";

/// What one row renders.
struct Rendered {
    /// `(file name under --out, contents)`; the `.txt` files are also
    /// printed to stdout.
    files: Vec<(&'static str, String)>,
    /// `None` for a figure; a gate's `GATE FAIL` lines, empty when it holds.
    gate: Option<Vec<String>>,
}

impl Rendered {
    fn text(name: &'static str, contents: String) -> Rendered {
        Rendered {
            files: vec![(name, contents)],
            gate: None,
        }
    }
}

/// One row of [`FIGURES`].
struct Figure {
    /// The name `figures` takes on its command line.
    name: &'static str,
    /// The size the committed `results/` files were made at. `None` for a
    /// figure with one fixed input, whose render ignores its size.
    size: Option<InputSize>,
    /// Runs the experiment and renders its files.
    render: fn(InputSize) -> Rendered,
}

/// Every figure, table and gate, in the order `figures` runs them.
#[rustfmt::skip]
const FIGURES: &[Figure] = &[
    Figure { name: "fig01", size: Some(InputSize::Train), render: fig01_files },
    Figure { name: "fig02", size: None, render: |_| fig02_files() },
    Figure { name: "fig04", size: Some(InputSize::Train), render: fig04_files },
    Figure { name: "fig06_table1", size: Some(InputSize::Train), render: fig06_files },
    Figure { name: "fig07", size: Some(InputSize::Train), render: fig07_files },
    Figure { name: "fig08", size: Some(InputSize::Train), render: fig08_files },
    Figure { name: "fig09", size: Some(InputSize::Train), render: fig09_files },
    Figure { name: "fig10", size: Some(InputSize::Train), render: fig10_files },
    Figure { name: "attribution_accuracy", size: Some(InputSize::Train), render: attribution_files },
    Figure { name: "case_studies", size: Some(InputSize::Ref), render: case_studies_files },
    Figure { name: "dbi_overhead", size: Some(InputSize::Train), render: dbi_overhead_files },
    Figure { name: "pgo_speedup", size: Some(InputSize::Test), render: pgo_speedup_files },
];

/// A parsed command line.
struct Invocation {
    out: PathBuf,
    size: Option<InputSize>,
    rows: Vec<&'static Figure>,
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut out = PathBuf::from("results");
    let mut size = None;
    let mut rows = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().ok_or("--out needs a directory")?.into(),
            "--size" => {
                let name = args.next().ok_or("--size needs test, train or ref")?;
                size = Some(
                    InputSize::parse(name)
                        .ok_or_else(|| format!("unknown size `{name}` (test, train or ref)"))?,
                );
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => rows.push(FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
                let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                format!("unknown figure `{name}` (one of {})", names.join(", "))
            })?),
        }
    }
    if rows.is_empty() {
        rows = FIGURES.iter().collect();
    }
    Ok(Invocation { out, size, rows })
}

/// Renders and writes every row; returns the gates' `GATE FAIL` lines.
fn run(inv: &Invocation) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(&inv.out).map_err(|e| format!("create {}: {e}", inv.out.display()))?;
    // The echo on stdout is a convenience: a closed stdout (`figures | head`)
    // must not stop the files, so its write errors are ignored.
    let mut stdout = std::io::stdout();
    let mut failures = Vec::new();
    for row in &inv.rows {
        let size = row.size.map(|default| inv.size.unwrap_or(default));
        match size {
            Some(size) => eprintln!("==> {} ({})", row.name, size.name()),
            None => eprintln!("==> {}", row.name),
        }
        // A row without a size ignores the one it is handed.
        let rendered = (row.render)(size.unwrap_or(InputSize::Test));
        for (name, contents) in &rendered.files {
            if name.ends_with(".txt") {
                let _ = stdout.write_all(contents.as_bytes());
            }
            let path = inv.out.join(name);
            std::fs::write(&path, contents)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        match rendered.gate {
            Some(fails) if fails.is_empty() => {
                let _ = writeln!(stdout, "\n{} gate: ok", row.name);
            }
            Some(fails) => {
                for line in &fails {
                    eprintln!("{line}");
                }
                failures.extend(fails);
            }
            None => {}
        }
    }
    Ok(failures)
}

/// The `figures` binary: parses `args` (without the program name), runs
/// the rows and maps the outcome to an exit code.
pub fn figures_main(args: &[String]) -> ExitCode {
    let result = parse(args)
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|inv| run(&inv));
    match result {
        Ok(failures) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("figures: {error}");
            ExitCode::FAILURE
        }
    }
}

/// `v` to `digits` decimals. A translation-only (zero-native-instruction)
/// run reports unbounded overhead; render `-` rather than leaking `inf`
/// into a figure.
fn finite(v: f64, digits: usize) -> String {
    if v.is_finite() {
        format!("{v:.digits$}")
    } else {
        "-".to_string()
    }
}

fn fig01_files(size: InputSize) -> Rendered {
    let data = fig01(size);
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 1: sampling vs counting vs combined CPI (fig1_motivating, {})\n\n",
        size.name()
    ));
    out.push_str(&report::annotate(&data.rows, data.total_cycles));
    let load = &data.rows[data.load_row];
    let alu = &data.rows[data.hot_alu_row];
    out.push_str(&format!(
        "\nKey observation (paper: the load is the real optimization target):\n\
           load   `{}` : {} execs, CPI {:.1}\n\
           alu    `{}` : {} execs, CPI {:.2}\n\
         The ALU block executes 4x more often and may collect comparable raw\n\
         samples, but per-execution the load is ~{:.0}x more expensive.\n",
        load.text,
        load.count,
        load.cpi.unwrap_or(0.0),
        alu.text,
        alu.count,
        alu.cpi.unwrap_or(0.0),
        load.cpi.unwrap_or(0.0) / alu.cpi.unwrap_or(1.0).max(0.01),
    ));
    Rendered::text("fig01.txt", out)
}

fn fig02_files() -> Rendered {
    let data = fig02();
    let mut out = String::new();
    out.push_str(
        "Figure 2: per-instruction sample counts, sampling every cycle\n\
         (instructions that always commit alongside an older instruction are\n\
         never observed at the head of the complete queue)\n\n",
    );
    out.push_str(&format!(
        "{:>8}  {:<34} {:>10} {:>8}\n",
        "OFFSET", "INSTRUCTION", "SAMPLES", "SHARE"
    ));
    for (off, text, samples) in &data.rows {
        out.push_str(&format!(
            "{:>8x}  {:<34} {:>10} {:>7.1}%\n",
            off,
            text,
            samples,
            100.0 * *samples as f64 / data.total_samples.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "\n{} of {} loop-body instructions were never sampled.\n",
        data.never_sampled,
        data.rows.len()
    ));
    Rendered::text("fig02.txt", out)
}

fn fig04_files(size: InputSize) -> Rendered {
    let data = fig04(size);
    let mut out = String::new();
    out.push_str("Figures 4 and 5: attributing a shared callee to its calling loops\n\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>14} {:>8}\n",
        "LOOP IN", "CYCLES", "INSNS (incl)", "SHARE"
    ));
    let total: u64 = data.loop1_cycles + data.loop2_cycles;
    for (name, cycles, insns) in [
        ("func1", data.loop1_cycles, data.loop1_insns),
        ("func2", data.loop2_cycles, data.loop2_insns),
    ] {
        out.push_str(&format!(
            "{:<12} {:>12} {:>14} {:>7.1}%\n",
            name,
            cycles,
            insns,
            100.0 * cycles as f64 / total.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "\nfunc3 is called 300 times from loop1 (via loop0 and func4) and 100\n\
         times from loop2: the 3:1 split above is what stack profiling\n\
         recovers (gprof-style edge weighting would have to guess).\n\n\
         Example sample stack (figure 5 shape):\n{}",
        data.example_stack
    ));
    Rendered::text("fig04.txt", out)
}

fn fig06_files(size: InputSize) -> Rendered {
    let data = fig06(size);
    let mut out = String::new();
    out.push_str("Figure 6 / Table I: five back edges sharing one header\n\n");
    out.push_str(&format!(
        "Without merging: {} loops (one per back edge)\n\
         With the T=3 heuristic: {} loops\n\n",
        data.raw_loops,
        data.merged_loops.len()
    ));
    out.push_str("Table I — algorithm 2 iterations:\n");
    out.push_str(&format!(
        "{:>10} {:>14} {:>14}\n",
        "ITERATION", "LOOPS MERGED", "LOOPS REMAINING"
    ));
    for step in &data.trace {
        out.push_str(&format!(
            "{:>10} {:>14} {:>14}\n",
            step.iteration, step.merged, step.remaining
        ));
    }
    out.push_str("\nMerged loops (iterations ≈ back-edge frequency):\n");
    out.push_str(&format!(
        "{:>6} {:>12} {:>10} {:>7}\n",
        "DEPTH", "ITERATIONS", "INVOCS", "CYCLE%"
    ));
    let total: u64 = data
        .merged_loops
        .iter()
        .map(|l| l.cycles)
        .max()
        .unwrap_or(1);
    for l in &data.merged_loops {
        out.push_str(&format!(
            "{:>6} {:>12} {:>10} {:>6.1}%\n",
            l.depth,
            l.iterations,
            l.invocations,
            100.0 * l.cycles as f64 / total as f64
        ));
    }
    out.push_str("\nThreshold sweep (ablation):\n  T      loops\n");
    for (t, n) in &data.sweep {
        out.push_str(&format!("  {:<6} {n}\n", t));
    }
    Rendered::text("fig06_table1.txt", out)
}

/// Figure 7, less its wall-clock analysis time: that column goes to
/// `fig07_timing.{txt,csv}`, so every byte of `fig07.{txt,csv}` is
/// deterministic.
fn fig07_files(size: InputSize) -> Rendered {
    let data = fig07(size);
    let mut out = String::new();
    out.push_str("Figure 7: OptiWISE overhead per benchmark (both profiling runs)\n\n");
    out.push_str(&format!(
        "{:<18} {:>14} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "BENCHMARK",
        "NATIVE CYC",
        "INSNS",
        "SAMPLE x",
        "INSTR x",
        "TOTAL x",
        "INDIRECT",
        "SAMP KiB",
        "CNT KiB"
    ));
    let mut csv = String::from(
        "benchmark,native_cycles,insns,sample_x,instr_x,total_x,indirect_share,sample_bytes,counts_bytes\n",
    );
    let mut timing =
        String::from("Figure 7 timing: analysis (loop finder + data processing) wall time\n\n");
    timing.push_str(&format!("{:<18} {:>10}\n", "BENCHMARK", "ANALYZE ms"));
    let mut timing_csv = String::from("benchmark,analyze_ms\n");
    let fx = |v: f64| finite(v, 1);
    for r in &data.rows {
        out.push_str(&format!(
            "{:<18} {:>14} {:>12} {:>9.3} {:>9} {:>9} {:>8.1}% {:>9.1} {:>9.1}\n",
            r.name,
            r.native_cycles,
            r.native_insns,
            r.sample_overhead,
            fx(r.instr_overhead),
            fx(r.total_overhead),
            100.0 * r.indirect_share,
            r.sample_bytes as f64 / 1024.0,
            r.counts_bytes as f64 / 1024.0,
        ));
        csv.push_str(&format!(
            "{},{},{},{:.4},{:.2},{:.2},{:.4},{},{}\n",
            r.name,
            r.native_cycles,
            r.native_insns,
            r.sample_overhead,
            r.instr_overhead,
            r.total_overhead,
            r.indirect_share,
            r.sample_bytes,
            r.counts_bytes
        ));
        timing.push_str(&format!("{:<18} {:>10.1}\n", r.name, r.analysis_ms));
        timing_csv.push_str(&format!("{},{:.2}\n", r.name, r.analysis_ms));
    }
    out.push_str(&format!(
        "\ngeomean: sampling {:.3}x, instrumentation {}x, total {}x\n\
         worst case: {}x ({})\n\
         (paper: sampling 1.01x, instrumentation 7.1x geomean / 56x worst\n\
         case on xalancbmk, total 8.1x geomean)\n",
        data.geomean_sample,
        fx(data.geomean_instr),
        fx(data.geomean_total),
        finite(
            data.rows
                .iter()
                .map(|r| r.total_overhead)
                .fold(0.0f64, f64::max),
            0
        ),
        data.rows
            .iter()
            .max_by(|a, b| a.total_overhead.total_cmp(&b.total_overhead))
            .map(|r| r.name)
            .unwrap_or("-"),
    ));
    Rendered {
        files: vec![
            ("fig07.txt", out),
            ("fig07.csv", csv),
            ("fig07_timing.txt", timing),
            ("fig07_timing.csv", timing_csv),
        ],
        gate: None,
    }
}

fn fig08_files(size: InputSize) -> Rendered {
    let data = fig08(size);
    let mut out = String::new();
    out.push_str("Figure 8: slow store followed by independent arithmetic (x86-like core)\n\n");
    out.push_str(&format!(
        "{:>8}  {:<34} {:>8}\n",
        "OFFSET", "INSTRUCTION", "SAMPLES"
    ));
    for (off, text, samples) in &data.rows {
        let marker = if text.starts_with("st.4") {
            "  <- the slow store"
        } else if *samples == data.successor_samples && *samples > data.max_other {
            "  <- skid target"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:>8x}  {:<34} {:>8}{}\n",
            off, text, samples, marker
        ));
    }
    out.push_str(&format!(
        "\nstore itself: {} samples; instruction after it: {} samples;\n\
         max among the rest: {}. The interrupt is serviced at the next commit\n\
         boundary, so samples skid one past the stalled store — matching the\n\
         paper's observation on the Xeon without PEBS.\n",
        data.store_samples, data.successor_samples, data.max_other
    ));
    Rendered::text("fig08.txt", out)
}

fn fig09_files(size: InputSize) -> Rendered {
    let data = fig09(size);
    let mut out = String::new();
    out.push_str("Figure 9: samples by distance (instructions) after the udiv\n\n");
    out.push_str(&format!(
        "{:>7} {:>14} {:>14}\n",
        "DELTA", "IN-ORDER", "EARLY-RELEASE"
    ));
    let lookup = |hist: &[(i64, u64)], d: i64| {
        hist.iter()
            .find(|(x, _)| *x == d)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    for d in -2..=70 {
        let a = lookup(&data.inorder, d);
        let b = lookup(&data.early_release, d);
        if a > 0 || b > 0 {
            out.push_str(&format!("{:>7} {:>14} {:>14}\n", d, a, b));
        }
    }
    out.push_str(&format!(
        "\npeak displacement: in-order at +{}, early-release at +{} instructions\n\
         (paper: ~48 instructions after the udiv on Neoverse N1 — the issue-\n\
         queue capacity; this model's IQ holds 48 entries). The udiv itself\n\
         also collects {} samples as a recurring commit-group leader.\n",
        data.inorder_peak_delta, data.early_peak_delta, data.early_udiv_samples
    ));
    Rendered::text("fig09.txt", out)
}

fn fig10_files(size: InputSize) -> Rendered {
    let data = fig10(size);
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 10: per-instruction profile of mcf's cost_compare ({})\n\n",
        size.name()
    ));
    out.push_str(&report::annotate(&data.rows, data.total_cycles));
    out.push_str(&format!(
        "\ncost_compare self time: {:.1}% (paper: 23.7%)\n\
         spec_qsort + callees:   {:.1}% (paper: 61.1%)\n\
         qsort division CPI:     {} (paper: 38.12)\n",
        100.0 * data.cost_compare_share,
        100.0 * data.qsort_inclusive_share,
        data.div_cpi
            .map(|c| format!("{c:.1}"))
            .unwrap_or_else(|| "-".into()),
    ));
    Rendered::text("fig10.txt", out)
}

/// §III ablation: attribution error vs aggregation granularity.
fn attribution_files(size: InputSize) -> Rendered {
    let data = attribution_accuracy(size);
    let mut out = String::new();
    out.push_str(
        "Attribution accuracy vs granularity (total-variation distance to\n\
         PEBS-precise ground truth; smaller is better)\n\n",
    );
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>12}\n",
        "MODE", "INSN", "BLOCK", "FUNCTION"
    ));
    for (name, i, b, f) in &data.rows {
        out.push_str(&format!(
            "{:<14} {:>11.1}% {:>11.1}% {:>11.1}%\n",
            name,
            100.0 * i,
            100.0 * b,
            100.0 * f
        ));
    }
    out.push_str(
        "\nThe paper (§III, citing TIP) reports error shrinking from ~60% per\n\
         instruction to 29.9% per block and 9.1% per function; the same\n\
         coarser-is-more-accurate trend must hold here.\n",
    );
    Rendered::text("attribution_accuracy.txt", out)
}

/// §VI: baseline vs optimized speedups.
fn case_studies_files(size: InputSize) -> Rendered {
    let results = case_studies(size);
    let mut out = String::new();
    out.push_str("Case studies (§VI): speedup from the paper's optimizations\n\n");
    out.push_str(&format!(
        "{:<18} {:>14} {:>14} {:>10} {:>10}\n",
        "BENCHMARK", "BASE CYCLES", "OPT CYCLES", "SPEEDUP", "PAPER"
    ));
    for c in &results {
        out.push_str(&format!(
            "{:<18} {:>14} {:>14} {:>9.1}% {:>9.1}%\n",
            c.name,
            c.base_cycles,
            c.opt_cycles,
            c.speedup_pct(),
            c.paper_speedup_pct
        ));
    }
    Rendered::text("case_studies.txt", out)
}

/// The DBI overhead win from minimal counter placement: exhaustive per-edge
/// counting vs placed counters with flow-conservation recovery.
///
/// A gate: it fails unless every workload recovers the exhaustive counts
/// bit for bit and `recip_loop` shows at least a 20% reduction in both
/// instrumented instructions and dynamic counter charges.
fn dbi_overhead_files(size: InputSize) -> Rendered {
    let rows = dbi_overhead(size);
    let fx = |v: f64| finite(v, 2);
    let mut out = String::new();
    out.push_str("DBI overhead: exhaustive counting vs minimal counter placement\n\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9} {:>6}\n",
        "BENCHMARK",
        "NATIVE",
        "EXH INSNS",
        "PLACED",
        "EXH x",
        "PLC x",
        "INSN -%",
        "CNTR -%",
        "EXACT"
    ));
    let mut csv = String::from(
        "benchmark,native_insns,exhaustive_insns,placed_insns,exhaustive_counters,\
         placed_counters,suppressed_counters,insn_reduction_pct,counter_reduction_pct,\
         recovered_identical\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8.1}% {:>8.1}% {:>6}\n",
            r.name,
            r.native_insns,
            r.exhaustive_insns,
            r.placed_insns,
            fx(r.exhaustive_overhead),
            fx(r.placed_overhead),
            r.insn_reduction_pct(),
            r.counter_reduction_pct(),
            if r.recovered_identical { "yes" } else { "NO" },
        ));
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{:.2},{:.2},{}\n",
            r.name,
            r.native_insns,
            r.exhaustive_insns,
            r.placed_insns,
            r.exhaustive_counters,
            r.placed_counters,
            r.suppressed_counters,
            r.insn_reduction_pct(),
            r.counter_reduction_pct(),
            r.recovered_identical,
        ));
    }

    let mut fails = Vec::new();
    for r in &rows {
        if !r.recovered_identical {
            fails.push(format!(
                "GATE FAIL: {} recovery is not bit-identical",
                r.name
            ));
        }
        if r.placed_insns >= r.exhaustive_insns {
            fails.push(format!(
                "GATE FAIL: {} placement did not reduce instrumented instructions \
                 ({} -> {})",
                r.name, r.exhaustive_insns, r.placed_insns
            ));
        }
    }
    if let Some(r) = rows.iter().find(|r| r.name == "recip_loop") {
        if r.insn_reduction_pct() < 20.0 || r.counter_reduction_pct() < 20.0 {
            fails.push(format!(
                "GATE FAIL: recip_loop reduction below 20% (insns {:.1}%, counters {:.1}%)",
                r.insn_reduction_pct(),
                r.counter_reduction_pct()
            ));
        }
    } else {
        fails.push("GATE FAIL: recip_loop missing from the sweep".to_string());
    }
    Rendered {
        files: vec![("dbi_overhead.txt", out), ("dbi_overhead.csv", csv)],
        gate: Some(fails),
    }
}

/// Closes the PGO loop over `recip_loop` and the SPEC-like suite: profile,
/// rewrite with `wiser-opt`, oracle-check on generated seeds, re-profile
/// and diff against the baseline.
///
/// A gate: it fails unless every workload passes the differential oracle,
/// no workload shows a statistically significant CPI regression,
/// `recip_loop`'s diff is strictly Improvement-or-Noise, and at least one
/// rewritten workload is measurably faster (fewer timed cycles) than its
/// baseline.
fn pgo_speedup_files(size: InputSize) -> Rendered {
    let rows = pgo_speedup(size);
    let mut out = String::new();
    out.push_str(&format!(
        "PGO speedup: optimize, oracle ({PGO_ORACLE_SEEDS} seeds), re-profile, diff\n\n"
    ));
    out.push_str(&format!(
        "{:<18} {:>6} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}\n",
        "BENCHMARK", "XFRMS", "BASE CYC", "OPT CYC", "SPEED%", "ORACLE", "REGR", "CPI REGR"
    ));
    let mut csv = String::from(
        "benchmark,transforms,baseline_cycles,optimized_cycles,baseline_retired,\
         optimized_retired,cycle_speedup_pct,oracle_ok,regression_rows,cpi_regressions\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>6} {:>14} {:>14} {:>8.2}% {:>7} {:>8} {:>8}\n",
            r.name,
            r.transforms,
            r.baseline_cycles,
            r.optimized_cycles,
            r.cycle_speedup_pct(),
            if r.oracle_ok { "ok" } else { "FAIL" },
            r.regression_rows,
            r.cpi_regressions,
        ));
        csv.push_str(&format!(
            "{},{},{},{},{},{},{:.3},{},{},{}\n",
            r.name,
            r.transforms,
            r.baseline_cycles,
            r.optimized_cycles,
            r.baseline_retired,
            r.optimized_retired,
            r.cycle_speedup_pct(),
            r.oracle_ok,
            r.regression_rows,
            r.cpi_regressions,
        ));
    }

    let mut fails = Vec::new();
    for r in &rows {
        if !r.oracle_ok {
            fails.push(format!(
                "GATE FAIL: {} diverged under the differential oracle",
                r.name
            ));
        }
        if r.cpi_regressions > 0 {
            fails.push(format!(
                "GATE FAIL: {} shows {} statistically significant CPI regression(s)",
                r.name, r.cpi_regressions
            ));
        }
    }
    match rows.iter().find(|r| r.name == "recip_loop") {
        Some(r) if r.regression_rows > 0 => fails.push(format!(
            "GATE FAIL: recip_loop diff must be Improvement-or-Noise, \
             found {} regression row(s)",
            r.regression_rows
        )),
        Some(_) => {}
        None => fails.push("GATE FAIL: recip_loop missing from the sweep".to_string()),
    }
    if !rows
        .iter()
        .any(|r| r.transforms > 0 && r.optimized_cycles < r.baseline_cycles)
    {
        fails.push("GATE FAIL: no rewritten workload improved its timed cycle count".to_string());
    }
    Rendered {
        files: vec![("pgo_speedup.txt", out), ("pgo_speedup.csv", csv)],
        gate: Some(fails),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_are_unique_and_every_row_runs_by_default() {
        let inv = parse(&[]).unwrap();
        assert_eq!(inv.out, PathBuf::from("results"));
        assert_eq!(inv.rows.len(), FIGURES.len());
        for (i, row) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|r| r.name != row.name),
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn named_rows_run_in_command_line_order_at_the_given_size() {
        let inv = parse(&args(&["--size", "test", "fig09", "--out", "x", "fig02"])).unwrap();
        let names: Vec<&str> = inv.rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["fig09", "fig02"]);
        assert_eq!(inv.size, Some(InputSize::Test));
        assert_eq!(inv.out, PathBuf::from("x"));
    }
}
