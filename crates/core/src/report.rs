//! Text report rendering: the tables OptiWISE prints for its users.

use std::fmt::{self, Write as _};

use crate::analysis::{Analysis, AnalysisMode};
use crate::diff::{DiffClass, DiffReport, DiffRow};
use crate::tables::ProfileTables;
use crate::types::{FuncStats, InsnRow, LineStats, LoopStats};

/// A 7-character percentage cell of `part` in `whole`. An empty or
/// degraded profile has `whole == 0`: there is no meaningful percentage, so
/// the cell renders `-` instead of `NaN`/`0.0%`.
struct Pct(u64, u64);

impl fmt::Display for Pct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Pct(part, whole) = *self;
        if whole == 0 {
            write!(f, "{:>7}", "-")
        } else {
            write!(f, "{:>6.1}%", 100.0 * part as f64 / whole as f64)
        }
    }
}

/// An optional ratio (IPC, CPI): two decimals below 100, none from 100
/// on, `-` when absent; right-aligned to the formatter's width.
struct Ratio(Option<f64>);

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = f.width().unwrap_or(0);
        match self.0 {
            Some(x) if x >= 100.0 => write!(f, "{x:>w$.0}"),
            Some(x) => write!(f, "{x:>w$.2}"),
            None => write!(f, "{:>w$}", "-"),
        }
    }
}

/// Appends the function table (top `limit` by self cycles) to `out`.
fn functions_table_rows(
    out: &mut String,
    functions: &[FuncStats],
    total_cycles: u64,
    limit: usize,
) {
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
            Clip(&f.name, 28),
            Pct(f.self_cycles, total_cycles),
            Pct(f.incl_cycles, total_cycles),
            f.self_insns,
            Ratio(f.ipc()),
            Ratio(f.cpi()),
        );
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
    let _ = writeln!(
        out,
        "{:<24} {:<16} {:>7} {:>10} {:>9} {:>9} {:>7} {:>7}",
        "LOOP (function)", "LINES", "CYCLE%", "ITERS", "INVOCS", "INS/ITER", "CPI", "DEPTH"
    );
    let mut lines = String::new();
    for l in loops.iter().take(limit) {
        lines.clear();
        let _ = match &l.lines {
            Some((file, lo, hi)) if lo == hi => write!(lines, "{}:{}", short_file(file), lo),
            Some((file, lo, hi)) => write!(lines, "{}:{}-{}", short_file(file), lo, hi),
            None => write!(lines, "@{:#x}", l.header_offset),
        };
        let _ = writeln!(
            out,
            "{:<24} {:<16} {} {:>10} {:>9} {:>9.1} {:>7} {:>7}",
            Clip(&l.function, 24),
            Clip(&lines, 16),
            Pct(l.cycles, total_cycles),
            l.iterations,
            l.invocations,
            l.insns_per_iteration(),
            Ratio(l.cpi()),
            l.depth,
        );
    }
}

/// Appends the source-line table to `out`.
fn lines_table_rows(out: &mut String, lines: &[LineStats], total_cycles: u64, limit: usize) {
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>12} {:>12} {:>7}",
        "FILE:LINE", "CYCLE%", "CYCLES", "EXECS", "CPI"
    );
    let mut key = String::new();
    for l in lines.iter().take(limit) {
        key.clear();
        let _ = write!(key, "{}:{}", short_file(&l.file), l.line);
        let _ = writeln!(
            out,
            "{:<28} {} {:>12} {:>12} {:>7}",
            Clip(&key, 28),
            Pct(l.cycles, total_cycles),
            l.cycles,
            l.count,
            Ratio(l.cpi()),
        );
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
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8x}  {:<34} {:>8} {:>10} {:>12} {:>8} {}",
            r.loc.offset,
            Clip(&r.text, 34),
            r.samples,
            r.cycles,
            r.count,
            Ratio(r.cpi),
            Pct(r.cycles, total_cycles),
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

/// One OLD or NEW cell of a diff row, right-aligned to the formatter's
/// width.
enum Value {
    Ratio(Option<f64>),
    Count(u64),
    Absent,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Ratio(v) => Ratio(v).fmt(f),
            Value::Count(n) => n.fmt(f),
            Value::Absent => f.pad("-"),
        }
    }
}

fn diff_table(out: &mut String, rows: &[DiffRow], limit: usize) {
    let _ = writeln!(
        out,
        "{:<44} {:>8} {:>8} {:>9} {:>9} {:<12}",
        "KEY", "OLD", "NEW", "DELTA%", "NOISE%", "CLASS"
    );
    for r in rows.iter().take(limit) {
        let (old_v, new_v) = match (r.old, r.new) {
            (Some(o), Some(n)) => match r.metric {
                crate::diff::DiffMetric::Cpi => (Value::Ratio(o.cpi), Value::Ratio(n.cpi)),
                crate::diff::DiffMetric::Execs => (Value::Count(o.execs), Value::Count(n.execs)),
                crate::diff::DiffMetric::Cycles => (Value::Count(o.cycles), Value::Count(n.cycles)),
            },
            (Some(o), None) => (Value::Count(o.cycles), Value::Absent),
            (None, Some(n)) => (Value::Absent, Value::Count(n.cycles)),
            (None, None) => (Value::Absent, Value::Absent),
        };
        let _ = write!(out, "{:<44} {old_v:>8} {new_v:>8} ", Clip(&r.key, 44));
        let _ = match r.class {
            DiffClass::Added | DiffClass::Removed | DiffClass::CoverageChange => {
                write!(out, "{:>9}", "-")
            }
            _ if r.delta_pct.is_infinite() => write!(out, "{:>9}", "+inf"),
            _ => write!(out, "{:>+8.1}%", r.delta_pct),
        };
        let _ = if r.noise_pct.is_infinite() {
            write!(out, " {:>9}", "-")
        } else {
            write!(out, " {:>8.1}%", r.noise_pct)
        };
        let _ = writeln!(out, " {:<12}", r.class);
    }
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
    let _ = writeln!(out, "\n-- functions --");
    diff_table(&mut out, &report.functions, limit);
    let _ = writeln!(out, "\n-- loops --");
    diff_table(&mut out, &report.loops, limit);
    let _ = writeln!(out, "\n-- lines --");
    diff_table(&mut out, &report.lines, limit);
    let _ = writeln!(out);
    out
}

/// `s` cut to `max` bytes, the cut marked `…`; left-aligned to the
/// formatter's width.
struct Clip<'a>(&'a str, usize);

impl fmt::Display for Clip<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Clip(s, max) = *self;
        if s.len() <= max {
            return f.pad(s);
        }
        let head = &s[..max.saturating_sub(1)];
        let w = f.width().unwrap_or(0);
        let chars = head.chars().count() + 1;
        write!(f, "{head}…{:w$}", "", w = w.saturating_sub(chars))
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
        assert_eq!(Pct(5, 0).to_string(), format!("{:>7}", "-"));
        assert_eq!(Pct(1, 2).to_string(), "  50.0%");
        // The dash cell keeps column width so tables stay aligned.
        assert_eq!(Pct(5, 0).to_string().len(), Pct(1, 2).to_string().len());
    }

    #[test]
    fn truncation() {
        assert_eq!(Clip("short", 10).to_string(), "short");
        let t = Clip("averyverylongname", 8).to_string();
        assert!(t.chars().count() <= 8);
        // A cut cell pads to its column by characters, `…` counting one.
        assert_eq!(format!("[{:<6}]", Clip("aé-long", 4)), "[aé…   ]");
        assert_eq!(format!("[{:<6}]", Clip("ab", 4)), "[ab    ]");
    }

    #[test]
    fn value_cells_pad_like_their_text() {
        for (v, text) in [(Some(1.5), "1.50"), (Some(123.4), "123"), (None, "-")] {
            assert_eq!(format!("{:>7}", Ratio(v)), format!("{text:>7}"));
            assert_eq!(format!("{:>8}", Value::Ratio(v)), format!("{text:>8}"));
        }
        assert_eq!(format!("{:>8}", Value::Count(42)), format!("{:>8}", "42"));
        assert_eq!(format!("{:>8}", Value::Absent), format!("{:>8}", "-"));
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
