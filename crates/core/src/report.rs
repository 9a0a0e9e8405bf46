//! Text report rendering: the tables OptiWISE prints for its users.

use std::fmt::Write as _;

use crate::analysis::{Analysis, AnalysisMode};
use crate::cells::{clip, fixed, hex, right, uint};
use crate::diff::{DiffClass, DiffMetric, DiffReport, DiffRow};
use crate::tables::ProfileTables;
use crate::types::{FuncStats, InsnRow, LineStats, LoopStats};

/// Appends a 7-character percentage cell of `part` in `whole`. An empty or
/// degraded profile has `whole == 0`: there is no meaningful percentage, so
/// the cell renders `-` instead of `NaN`/`0.0%`.
fn pct(out: &mut String, part: u64, whole: u64) {
    if whole == 0 {
        right(out, "-", 7);
    } else {
        fixed(out, 100.0 * part as f64 / whole as f64, 1, false, 6);
        out.push('%');
    }
}

/// Appends an optional ratio (IPC, CPI) right-aligned in `width`: two
/// decimals below 100, none from 100 on, `-` when absent.
fn ratio(out: &mut String, x: Option<f64>, width: usize) {
    match x {
        Some(x) if x >= 100.0 => fixed(out, x, 0, false, width),
        Some(x) => fixed(out, x, 2, false, width),
        None => right(out, "-", width),
    }
}

/// Appends a report's totals line. The overall IPC is `-` without cycles
/// (an empty profile) or counts (a degraded sampling-only run), never
/// `NaN`/`inf`/a misleading 0.00.
fn totals_line(out: &mut String, wall_cycles: u64, total_insns: u64) {
    out.push_str("total cycles (sampled): ");
    uint(out, wall_cycles, 0);
    out.push_str("   total instructions (counted): ");
    uint(out, total_insns, 0);
    out.push_str("   overall IPC: ");
    if wall_cycles == 0 || total_insns == 0 {
        out.push('-');
    } else {
        fixed(out, total_insns as f64 / wall_cycles as f64, 2, false, 0);
    }
    out.push('\n');
}

/// The tables' header lines, column for column as their rows are laid out.
const FUNCTIONS_HEADER: &str =
    "FUNCTION                       SELF%   INCL%          INSNS     IPC     CPI\n";
const LOOPS_HEADER: &str = "LOOP (function)          LINES             CYCLE%      ITERS    INVOCS  INS/ITER     CPI   DEPTH\n";
const LINES_HEADER: &str =
    "FILE:LINE                     CYCLE%       CYCLES        EXECS     CPI\n";
const DIFF_HEADER: &str = "KEY                                               OLD      NEW    DELTA%    NOISE% CLASS       \n";

/// Room for a report of three tables of `rows` rows, `limit` shown of each:
/// about 100 bytes a row, and 512 for the rest.
fn report_bytes(rows: [usize; 3], limit: usize) -> usize {
    512 + 104 * rows.iter().map(|&n| n.min(limit)).sum::<usize>()
}

/// Appends the function table (top `limit` by self cycles) to `out`.
fn functions_table_rows(
    out: &mut String,
    functions: &[FuncStats],
    total_cycles: u64,
    limit: usize,
) {
    out.push_str(FUNCTIONS_HEADER);
    let mut any_sampling_only = false;
    for f in functions.iter().take(limit) {
        clip(out, &f.name, 28);
        out.push(' ');
        pct(out, f.self_cycles, total_cycles);
        out.push(' ');
        pct(out, f.incl_cycles, total_cycles);
        out.push(' ');
        uint(out, f.self_insns, 14);
        out.push(' ');
        ratio(out, f.ipc(), 7);
        out.push(' ');
        ratio(out, f.cpi(), 7);
        if f.coverage == crate::Coverage::SamplingOnly {
            any_sampling_only = true;
            out.push_str(" *");
        }
        out.push('\n');
    }
    if any_sampling_only {
        let _ = writeln!(
            out,
            "(* sampling-only: cold under --selective, counts not instrumented)"
        );
    }
}

/// Appends the loop table (top `limit` by attributed cycles) to `out` —
/// the view the paper highlights for finding optimization candidates.
fn loops_table_rows(out: &mut String, loops: &[LoopStats], total_cycles: u64, limit: usize) {
    out.push_str(LOOPS_HEADER);
    let mut lines = String::new();
    let mut buf = [0; 20];
    for l in loops.iter().take(limit) {
        lines.clear();
        match &l.lines {
            Some((file, lo, hi)) => {
                lines.push_str(short_file(file));
                lines.push(':');
                uint(&mut lines, u64::from(*lo), 0);
                if lo != hi {
                    lines.push('-');
                    uint(&mut lines, u64::from(*hi), 0);
                }
            }
            None => {
                lines.push('@');
                lines.push_str(hex(l.header_offset, &mut buf));
            }
        }
        clip(out, &l.function, 24);
        out.push(' ');
        clip(out, &lines, 16);
        out.push(' ');
        pct(out, l.cycles, total_cycles);
        out.push(' ');
        uint(out, l.iterations, 10);
        out.push(' ');
        uint(out, l.invocations, 9);
        out.push(' ');
        fixed(out, l.insns_per_iteration(), 1, false, 9);
        out.push(' ');
        ratio(out, l.cpi(), 7);
        out.push(' ');
        uint(out, l.depth as u64, 7);
        out.push('\n');
    }
}

/// Appends the source-line table to `out`.
fn lines_table_rows(out: &mut String, lines: &[LineStats], total_cycles: u64, limit: usize) {
    out.push_str(LINES_HEADER);
    let mut key = String::new();
    for l in lines.iter().take(limit) {
        key.clear();
        key.push_str(short_file(&l.file));
        key.push(':');
        uint(&mut key, u64::from(l.line), 0);
        clip(out, &key, 28);
        out.push(' ');
        pct(out, l.cycles, total_cycles);
        out.push(' ');
        uint(out, l.cycles, 12);
        out.push(' ');
        uint(out, l.count, 12);
        out.push(' ');
        ratio(out, l.cpi(), 7);
        out.push('\n');
    }
}

/// Renders per-instruction rows in the figure 1 / figure 10 style:
/// disassembly annotated with samples, execution counts and CPI.
pub fn annotate(rows: &[InsnRow], total_cycles: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8}  {:<34} {:>8} {:>10} {:>12} {:>8} {:>7}",
        "OFFSET", "INSTRUCTION", "SAMPLES", "CYCLES", "EXECS", "CPI", "CYCLE%"
    );
    let mut buf = [0; 20];
    for r in rows {
        right(&mut out, &hex(r.loc.offset, &mut buf)[2..], 8);
        out.push_str("  ");
        clip(&mut out, &r.text, 34);
        out.push(' ');
        uint(&mut out, r.samples, 8);
        out.push(' ');
        uint(&mut out, r.cycles, 10);
        out.push(' ');
        uint(&mut out, r.count, 12);
        out.push(' ');
        ratio(&mut out, r.cpi, 8);
        out.push(' ');
        pct(&mut out, r.cycles, total_cycles);
        out.push('\n');
    }
    out
}

/// Renders the run-health block: analysis mode, truncation markers, the
/// divergence score and any reconciliation warnings. Empty for a clean
/// full-mode run with nothing to report.
pub fn diagnostics_section(analysis: &Analysis) -> String {
    let d = &analysis.diagnostics;
    let mut out = String::new();
    if analysis.mode == AnalysisMode::SamplingOnly {
        let _ = writeln!(
            out,
            "!! DEGRADED: sampling-only analysis (no instruction counts; \
             execution counts, IPC and CPI columns are unavailable)"
        );
    }
    if let Some(reason) = &d.samples_truncated {
        let _ = writeln!(out, "!! sampling run truncated: {reason}");
    }
    if let Some(reason) = &d.counts_truncated {
        let _ = writeln!(out, "!! instrumentation run truncated: {reason}");
    }
    if d.divergence_score > 0.0 {
        let _ = writeln!(
            out,
            "divergence score: {:.4} ({})",
            d.divergence_score,
            d.summary()
        );
    }
    for w in &d.warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    out
}

/// The full default report: summary, run health, functions, loops, lines.
pub fn full_report(analysis: &Analysis, limit: usize) -> String {
    let rows = [
        analysis.functions().len(),
        analysis.loops().len(),
        analysis.lines().len(),
    ];
    let mut out = String::with_capacity(report_bytes(rows, limit));
    let _ = writeln!(out, "== OptiWISE report ==");
    totals_line(&mut out, analysis.wall_cycles, analysis.total_insns);
    let diag = diagnostics_section(analysis);
    if !diag.is_empty() {
        let _ = writeln!(out, "\n-- run health --\n{diag}");
    }
    let total = analysis.total_cycles;
    let _ = writeln!(out, "\n-- functions --");
    functions_table_rows(&mut out, analysis.functions(), total, limit);
    let _ = writeln!(out, "\n-- loops --");
    loops_table_rows(&mut out, analysis.loops(), total, limit);
    let _ = writeln!(out, "\n-- lines --");
    lines_table_rows(&mut out, analysis.lines(), total, limit);
    let _ = writeln!(out);
    out
}

/// Renders a stored profile's tables in the `full_report` style — the body
/// of `optiwise show`. The run-health section is unavailable (diagnostics
/// are not persisted), but mode degradation still is.
pub fn tables_report(tables: &ProfileTables, limit: usize) -> String {
    let rows = [
        tables.functions.len(),
        tables.loops.len(),
        tables.lines.len(),
    ];
    let mut out = String::with_capacity(report_bytes(rows, limit));
    let _ = writeln!(out, "== OptiWISE report ==");
    totals_line(&mut out, tables.wall_cycles, tables.total_insns);
    if tables.mode == AnalysisMode::SamplingOnly {
        let _ = writeln!(
            out,
            "!! DEGRADED: sampling-only analysis (no instruction counts)"
        );
    }
    let total = tables.total_cycles;
    let _ = writeln!(out, "\n-- functions --");
    functions_table_rows(&mut out, &tables.functions, total, limit);
    let _ = writeln!(out, "\n-- loops --");
    loops_table_rows(&mut out, &tables.loops, total, limit);
    let _ = writeln!(out, "\n-- lines --");
    lines_table_rows(&mut out, &tables.lines, total, limit);
    let _ = writeln!(out);
    out
}

/// Appends one OLD or NEW cell of a diff row: the side's value of the
/// row's metric, its cycles when the other side is missing, or `-`.
fn diff_value(out: &mut String, row: &DiffRow, side: Option<crate::diff::DiffSide>) {
    const W: usize = 8;
    match (side, row.old.is_some() && row.new.is_some()) {
        (Some(s), true) => match row.metric {
            DiffMetric::Cpi => ratio(out, s.cpi, W),
            DiffMetric::Execs => uint(out, s.execs, W),
            DiffMetric::Cycles => uint(out, s.cycles, W),
        },
        (Some(s), false) => uint(out, s.cycles, W),
        (None, _) => right(out, "-", W),
    }
}

fn diff_table(out: &mut String, rows: &[DiffRow], limit: usize) {
    out.push_str(DIFF_HEADER);
    for r in rows.iter().take(limit) {
        clip(out, &r.key, 44);
        out.push(' ');
        diff_value(out, r, r.old);
        out.push(' ');
        diff_value(out, r, r.new);
        out.push(' ');
        match r.class {
            DiffClass::Added | DiffClass::Removed | DiffClass::CoverageChange => {
                right(out, "-", 9);
            }
            _ if r.delta_pct.is_infinite() => right(out, "+inf", 9),
            _ => {
                fixed(out, r.delta_pct, 1, true, 8);
                out.push('%');
            }
        }
        out.push(' ');
        if r.noise_pct.is_infinite() {
            right(out, "-", 9);
        } else {
            fixed(out, r.noise_pct, 1, false, 8);
            out.push('%');
        }
        // The class's `Display` ignores width: no padding after it.
        out.push(' ');
        out.push_str(r.class.name());
        out.push('\n');
    }
}

/// Renders the differential report: summary line, then the function, loop
/// and line tables (each already sorted regressions-first).
pub fn diff_report(report: &DiffReport, limit: usize) -> String {
    let rows = [
        report.functions.len(),
        report.loops.len(),
        report.lines.len(),
    ];
    let mut out = String::with_capacity(report_bytes(rows, limit));
    let (reg, imp, noise) = report.summary();
    let _ = writeln!(out, "== OptiWISE diff ==");
    let _ = writeln!(
        out,
        "threshold: {:.1}%   confidence: {:.2}   regressions: {reg}   improvements: {imp}   noise: {noise}",
        report.options.threshold_pct, report.options.confidence,
    );
    if report.options.config_changed {
        let _ = writeln!(
            out,
            "uarch configs differ: {} significant row(s) attributed to the config, not the code",
            report.config_changes(),
        );
    }
    let _ = writeln!(out, "\n-- functions --");
    diff_table(&mut out, &report.functions, limit);
    let _ = writeln!(out, "\n-- loops --");
    diff_table(&mut out, &report.loops, limit);
    let _ = writeln!(out, "\n-- lines --");
    diff_table(&mut out, &report.lines, limit);
    let _ = writeln!(out);
    out
}

fn short_file(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_sim::{CodeLoc, ModuleId};

    #[test]
    fn annotate_formats_rows() {
        let rows = vec![InsnRow {
            loc: CodeLoc {
                module: ModuleId(0),
                offset: 0x40,
            },
            text: "udiv x5, x7, x6".into(),
            samples: 10,
            cycles: 20000,
            count: 500,
            cpi: Some(40.0),
        }];
        let text = annotate(&rows, 40000);
        assert!(text.contains("udiv"));
        assert!(text.contains("40.00"));
        assert!(text.contains("50.0%"));
    }

    #[test]
    fn zero_totals_render_dash_not_nan() {
        // Empty profile: every percentage denominator is zero.
        let rows = vec![InsnRow {
            loc: CodeLoc {
                module: ModuleId(0),
                offset: 0x40,
            },
            text: "nop".into(),
            samples: 0,
            cycles: 0,
            count: 0,
            cpi: None,
        }];
        let text = annotate(&rows, 0);
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("inf"), "{text}");
        assert!(text.contains('-'), "{text}");
        let cell = |part, whole| {
            let mut out = String::new();
            pct(&mut out, part, whole);
            out
        };
        assert_eq!(cell(5, 0), format!("{:>7}", "-"));
        assert_eq!(cell(1, 2), "  50.0%");
        // The dash cell keeps column width so tables stay aligned.
        assert_eq!(cell(5, 0).len(), cell(1, 2).len());
    }

    #[test]
    fn ratio_cells_pad_like_their_text() {
        for (v, text) in [(Some(1.5), "1.50"), (Some(123.4), "123"), (None, "-")] {
            for width in [7, 8] {
                let mut out = String::new();
                ratio(&mut out, v, width);
                assert_eq!(out, format!("{text:>width$}"));
            }
        }
    }

    /// Names and files of two-byte characters put every odd byte offset
    /// inside a character, and each column's cut (`max - 1` bytes: 27, 23,
    /// 15 and, after the `clips:` key prefix, 43) at an odd one.
    #[test]
    fn non_ascii_names_are_cut_on_char_boundaries() {
        let name = "é".repeat(30);
        let file = format!("{}.c", "é".repeat(20));
        let src = format!(
            ".func {name} global\n.loc \"src/{file}\" 3\n li x8, 20000\n li x9, 0\n\
             loop:\n addi x1, x1, 1\n subi x8, x8, 1\n bne x8, x9, loop\n\
             li x1, 0\n li x0, 0\n syscall\n.endfunc\n.entry {name}\n"
        );
        let module = wiser_isa::assemble("clips", &src).unwrap();
        let run = crate::run_optiwise(&[module], &crate::OptiwiseConfig::default()).unwrap();
        let tables = ProfileTables::from_analysis(&run.analysis);
        assert!(!tables.loops.is_empty() && !tables.lines.is_empty());
        let diff = crate::diff_tables(&tables, &tables, crate::DiffOptions::default());
        for text in [
            full_report(&run.analysis, 15),
            tables_report(&tables, 15),
            diff_report(&diff, 15),
        ] {
            for cut in [13, 11, 7] {
                let clipped = format!("{}…", "é".repeat(cut));
                assert!(text.contains(&clipped), "{clipped} missing from\n{text}");
            }
        }
        let shown = diff_report(&diff, 15);
        assert!(
            shown.contains(&format!("clips:{}…", "é".repeat(18))),
            "{shown}"
        );
    }

    #[test]
    fn headers_are_their_column_formats() {
        let headers = [
            format!(
                "{:<28} {:>7} {:>7} {:>14} {:>7} {:>7}\n",
                "FUNCTION", "SELF%", "INCL%", "INSNS", "IPC", "CPI"
            ),
            format!(
                "{:<24} {:<16} {:>7} {:>10} {:>9} {:>9} {:>7} {:>7}\n",
                "LOOP (function)", "LINES", "CYCLE%", "ITERS", "INVOCS", "INS/ITER", "CPI", "DEPTH"
            ),
            format!(
                "{:<28} {:>7} {:>12} {:>12} {:>7}\n",
                "FILE:LINE", "CYCLE%", "CYCLES", "EXECS", "CPI"
            ),
            format!(
                "{:<44} {:>8} {:>8} {:>9} {:>9} {:<12}\n",
                "KEY", "OLD", "NEW", "DELTA%", "NOISE%", "CLASS"
            ),
        ];
        assert_eq!(
            headers,
            [FUNCTIONS_HEADER, LOOPS_HEADER, LINES_HEADER, DIFF_HEADER]
        );
    }

    #[test]
    fn short_file_strips_dirs() {
        assert_eq!(short_file("a/b/c.c"), "c.c");
        assert_eq!(short_file("c.c"), "c.c");
    }

    #[test]
    fn tables_and_diff_reports_render() {
        use crate::diff::{diff_tables, DiffOptions};
        use crate::tables::ProfileTables;
        use crate::types::{Coverage, FuncStats};

        let mk = |cycles| ProfileTables {
            mode: AnalysisMode::Full,
            wall_cycles: cycles,
            total_cycles: cycles,
            total_insns: 1000,
            modules: vec!["m".into()],
            functions: vec![FuncStats {
                module: 0,
                name: "hot".into(),
                self_cycles: cycles,
                incl_cycles: cycles,
                self_samples: 400,
                self_insns: 1000,
                incl_insns: 1000,
                coverage: Coverage::Counted,
            }],
            loops: vec![],
            lines: vec![],
        };
        let old = mk(1000);
        let new = mk(2000);

        let shown = tables_report(&old, 10);
        assert!(shown.contains("-- functions --"), "{shown}");
        assert!(shown.contains("hot"), "{shown}");
        assert!(!shown.contains("NaN"), "{shown}");

        let report = diff_tables(&old, &new, DiffOptions::default());
        let text = diff_report(&report, 10);
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("m:hot"), "{text}");
        assert!(text.contains("regressions: 1"), "{text}");
        assert!(text.contains("+100.0%"), "{text}");
    }
}
