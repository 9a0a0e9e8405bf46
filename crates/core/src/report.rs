//! Text report rendering: the tables OptiWISE prints for its users.

use std::fmt::Write as _;

use crate::analysis::{Analysis, AnalysisMode};
use crate::diff::{DiffClass, DiffReport, DiffRow};
use crate::tables::ProfileTables;
use crate::types::{FuncStats, InsnRow, LineStats, LoopStats};

/// Formats `part` as a 7-character percentage cell of `whole`. An empty or
/// degraded profile has `whole == 0`: there is no meaningful percentage, so
/// the cell renders `-` instead of `NaN`/`0.0%`.
fn pct_cell(part: u64, whole: u64) -> String {
    if whole == 0 {
        format!("{:>7}", "-")
    } else {
        format!("{:>6.1}%", 100.0 * part as f64 / whole as f64)
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x >= 100.0 => format!("{x:.0}"),
        Some(x) => format!("{x:.2}"),
        None => "-".to_string(),
    }
}

/// Renders the function table (top `limit` by self cycles).
pub fn functions_table(analysis: &Analysis, limit: usize) -> String {
    functions_table_rows(analysis.functions(), analysis.total_cycles, limit)
}

fn functions_table_rows(functions: &[FuncStats], total_cycles: u64, limit: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>7} {:>14} {:>7} {:>7}",
        "FUNCTION", "SELF%", "INCL%", "INSNS", "IPC", "CPI"
    );
    let mut any_sampling_only = false;
    for f in functions.iter().take(limit) {
        let marker = match f.coverage {
            crate::Coverage::Counted => "",
            crate::Coverage::SamplingOnly => {
                any_sampling_only = true;
                " *"
            }
        };
        let _ = writeln!(
            out,
            "{:<28} {} {} {:>14} {:>7} {:>7}{marker}",
            truncate(&f.name, 28),
            pct_cell(f.self_cycles, total_cycles),
            pct_cell(f.incl_cycles, total_cycles),
            f.self_insns,
            fmt_opt(f.ipc()),
            fmt_opt(f.cpi()),
        );
    }
    if any_sampling_only {
        let _ = writeln!(
            out,
            "(* sampling-only: cold under --selective, counts not instrumented)"
        );
    }
    out
}

/// Renders the loop table (top `limit` by attributed cycles) — the view the
/// paper highlights for finding optimization candidates.
pub fn loops_table(analysis: &Analysis, limit: usize) -> String {
    loops_table_rows(analysis.loops(), analysis.total_cycles, limit)
}

fn loops_table_rows(loops: &[LoopStats], total_cycles: u64, limit: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:<16} {:>7} {:>10} {:>9} {:>9} {:>7} {:>7}",
        "LOOP (function)", "LINES", "CYCLE%", "ITERS", "INVOCS", "INS/ITER", "CPI", "DEPTH"
    );
    for l in loops.iter().take(limit) {
        let lines = match &l.lines {
            Some((file, lo, hi)) if lo == hi => format!("{}:{}", short_file(file), lo),
            Some((file, lo, hi)) => format!("{}:{}-{}", short_file(file), lo, hi),
            None => format!("@{:#x}", l.header_offset),
        };
        let _ = writeln!(
            out,
            "{:<24} {:<16} {} {:>10} {:>9} {:>9.1} {:>7} {:>7}",
            truncate(&l.function, 24),
            truncate(&lines, 16),
            pct_cell(l.cycles, total_cycles),
            l.iterations,
            l.invocations,
            l.insns_per_iteration(),
            fmt_opt(l.cpi()),
            l.depth,
        );
    }
    out
}

/// Renders the source-line table.
pub fn lines_table(analysis: &Analysis, limit: usize) -> String {
    lines_table_rows(analysis.lines(), analysis.total_cycles, limit)
}

fn lines_table_rows(lines: &[LineStats], total_cycles: u64, limit: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>12} {:>12} {:>7}",
        "FILE:LINE", "CYCLE%", "CYCLES", "EXECS", "CPI"
    );
    for l in lines.iter().take(limit) {
        let _ = writeln!(
            out,
            "{:<28} {} {:>12} {:>12} {:>7}",
            truncate(&format!("{}:{}", short_file(&l.file), l.line), 28),
            pct_cell(l.cycles, total_cycles),
            l.cycles,
            l.count,
            fmt_opt(l.cpi()),
        );
    }
    out
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
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8x}  {:<34} {:>8} {:>10} {:>12} {:>8} {}",
            r.loc.offset,
            truncate(&r.text, 34),
            r.samples,
            r.cycles,
            r.count,
            fmt_opt(r.cpi),
            pct_cell(r.cycles, total_cycles),
        );
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
    let mut out = String::new();
    let _ = writeln!(out, "== OptiWISE report ==");
    // No cycles (empty profile) or no counts (degraded sampling-only run)
    // means there is no IPC to report — render `-`, never `NaN`/`inf`/a
    // misleading 0.00.
    let overall_ipc = if analysis.wall_cycles == 0 || analysis.total_insns == 0 {
        "-".to_string()
    } else {
        format!(
            "{:.2}",
            analysis.total_insns as f64 / analysis.wall_cycles as f64
        )
    };
    let _ = writeln!(
        out,
        "total cycles (sampled): {}   total instructions (counted): {}   overall IPC: {overall_ipc}",
        analysis.wall_cycles,
        analysis.total_insns,
    );
    let diag = diagnostics_section(analysis);
    if !diag.is_empty() {
        let _ = writeln!(out, "\n-- run health --\n{diag}");
    }
    let _ = writeln!(
        out,
        "\n-- functions --\n{}",
        functions_table(analysis, limit)
    );
    let _ = writeln!(out, "-- loops --\n{}", loops_table(analysis, limit));
    let _ = writeln!(out, "-- lines --\n{}", lines_table(analysis, limit));
    out
}

/// Renders a stored profile's tables in the `full_report` style — the body
/// of `optiwise show`. The run-health section is unavailable (diagnostics
/// are not persisted), but mode degradation still is.
pub fn tables_report(tables: &ProfileTables, limit: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== OptiWISE report ==");
    let overall_ipc = if tables.wall_cycles == 0 || tables.total_insns == 0 {
        "-".to_string()
    } else {
        format!(
            "{:.2}",
            tables.total_insns as f64 / tables.wall_cycles as f64
        )
    };
    let _ = writeln!(
        out,
        "total cycles (sampled): {}   total instructions (counted): {}   overall IPC: {overall_ipc}",
        tables.wall_cycles, tables.total_insns,
    );
    if tables.mode == AnalysisMode::SamplingOnly {
        let _ = writeln!(
            out,
            "!! DEGRADED: sampling-only analysis (no instruction counts)"
        );
    }
    let _ = writeln!(
        out,
        "\n-- functions --\n{}",
        functions_table_rows(&tables.functions, tables.total_cycles, limit)
    );
    let _ = writeln!(
        out,
        "-- loops --\n{}",
        loops_table_rows(&tables.loops, tables.total_cycles, limit)
    );
    let _ = writeln!(
        out,
        "-- lines --\n{}",
        lines_table_rows(&tables.lines, tables.total_cycles, limit)
    );
    out
}

fn diff_table(rows: &[DiffRow], limit: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>8} {:>8} {:>9} {:>9} {:<12}",
        "KEY", "OLD", "NEW", "DELTA%", "NOISE%", "CLASS"
    );
    for r in rows.iter().take(limit) {
        let (old_v, new_v) = match (r.old, r.new) {
            (Some(o), Some(n)) => match r.metric {
                crate::diff::DiffMetric::Cpi => (fmt_opt(o.cpi), fmt_opt(n.cpi)),
                crate::diff::DiffMetric::Execs => (o.execs.to_string(), n.execs.to_string()),
                crate::diff::DiffMetric::Cycles => (o.cycles.to_string(), n.cycles.to_string()),
            },
            (Some(o), None) => (o.cycles.to_string(), "-".to_string()),
            (None, Some(n)) => ("-".to_string(), n.cycles.to_string()),
            (None, None) => ("-".to_string(), "-".to_string()),
        };
        let delta = match r.class {
            DiffClass::Added | DiffClass::Removed | DiffClass::CoverageChange => {
                format!("{:>9}", "-")
            }
            _ if r.delta_pct.is_infinite() => format!("{:>9}", "+inf"),
            _ => format!("{:>+8.1}%", r.delta_pct),
        };
        let noise = if r.noise_pct.is_infinite() {
            format!("{:>9}", "-")
        } else {
            format!("{:>8.1}%", r.noise_pct)
        };
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>8} {delta} {noise} {:<12}",
            truncate(&r.key, 44),
            old_v,
            new_v,
            r.class,
        );
    }
    out
}

/// Renders the differential report: summary line, then the function, loop
/// and line tables (each already sorted regressions-first).
pub fn diff_report(report: &DiffReport, limit: usize) -> String {
    let mut out = String::new();
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
    let _ = writeln!(
        out,
        "\n-- functions --\n{}",
        diff_table(&report.functions, limit)
    );
    let _ = writeln!(out, "-- loops --\n{}", diff_table(&report.loops, limit));
    let _ = writeln!(out, "-- lines --\n{}", diff_table(&report.lines, limit));
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}…", &s[..max.saturating_sub(1)])
    }
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
        assert_eq!(pct_cell(5, 0), format!("{:>7}", "-"));
        assert_eq!(pct_cell(1, 2), "  50.0%");
        // The dash cell keeps column width so tables stay aligned.
        assert_eq!(pct_cell(5, 0).len(), pct_cell(1, 2).len());
    }

    #[test]
    fn truncation() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("averyverylongname", 8);
        assert!(t.chars().count() <= 8);
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
