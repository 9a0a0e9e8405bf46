//! Differential CPI analysis between two stored profiling runs.
//!
//! The paper's case studies are comparative: a regression is diagnosed by
//! contrasting per-loop/per-line CPI across program versions. This module
//! aligns the [`ProfileTables`](crate::tables::ProfileTables) of two runs by
//! stable source-level keys, computes the relative change of each row's
//! metric, and classifies it as regression, improvement or noise.
//!
//! ## Significance model
//!
//! Sampling makes every cycle figure an estimate. With `n` samples on a row
//! the relative standard error of its cycle total is ≈ `1/sqrt(n)`, so the
//! delta between two runs carries a combined relative error of
//! `sqrt(1/n_old + 1/n_new)`. A row's change is only reported as real when
//! it exceeds both the user threshold and `z` times that sampling error
//! (`z = 1.96` ≈ a 95% confidence band). Rows with zero samples on either
//! side have an unbounded *cycle* error, but the DBI execution counts are
//! exact, so such rows fall back to comparing executions with a zero noise
//! band instead of being silently classified as noise.

use std::fmt;

use crate::tables::ProfileTables;
use crate::types::Coverage;

/// Tuning knobs of a differential analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiffOptions {
    /// Minimum |relative change| (percent) to report as significant.
    pub threshold_pct: f64,
    /// Confidence multiplier `z` applied to the sampling-error estimate.
    pub confidence: f64,
    /// The two runs were produced under different uarch configurations
    /// (mismatched `META.arch` or `UCFG`). Significant deltas are then
    /// config-driven, not code-driven: they classify as
    /// [`DiffClass::ConfigChange`] instead of regression/improvement, so a
    /// xeon-vs-neoverse comparison cannot trip `--fail-on-regression`.
    pub config_changed: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            threshold_pct: 5.0,
            confidence: 1.96,
            config_changed: false,
        }
    }
}

/// Verdict for one aligned row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffClass {
    /// Metric grew beyond threshold and noise bound: the new run is worse.
    Regression,
    /// Metric shrank beyond threshold and noise bound: the new run is better.
    Improvement,
    /// Change within the threshold or inside the sampling-error band.
    Noise,
    /// Row exists only in the new run.
    Added,
    /// Row exists only in the old run.
    Removed,
    /// Instrumentation coverage flipped between the runs (e.g. `--selective`
    /// skipped the function in one run only): the metrics are not comparable,
    /// so no performance verdict is issued.
    CoverageChange,
    /// The runs simulated different uarch configurations
    /// ([`DiffOptions::config_changed`]), so this significant delta is
    /// attributed to the configuration, not the code. Never counts toward
    /// `--fail-on-regression`.
    ConfigChange,
}

impl DiffClass {
    fn rank(self) -> u8 {
        match self {
            DiffClass::Regression => 0,
            DiffClass::Improvement => 1,
            DiffClass::ConfigChange => 2,
            DiffClass::Added => 3,
            DiffClass::Removed => 4,
            DiffClass::CoverageChange => 5,
            DiffClass::Noise => 6,
        }
    }
}

impl DiffClass {
    /// The class as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            DiffClass::Regression => "REGRESSION",
            DiffClass::Improvement => "improvement",
            DiffClass::Noise => "noise",
            DiffClass::Added => "added",
            DiffClass::Removed => "removed",
            DiffClass::CoverageChange => "coverage",
            DiffClass::ConfigChange => "config",
        }
    }
}

impl fmt::Display for DiffClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which metric a row's delta was computed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffMetric {
    /// Cycles per instruction-execution — used when both sides have one.
    Cpi,
    /// Exact DBI execution counts — used when either side has zero samples
    /// (its cycle estimate is unbounded) but both sides executed. Counts
    /// carry no sampling error, so the noise band is zero.
    Execs,
    /// Raw attributed cycles — the fallback when CPI is unavailable
    /// (degraded runs, rows that never executed).
    Cycles,
}

impl fmt::Display for DiffMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiffMetric::Cpi => "CPI",
            DiffMetric::Execs => "execs",
            DiffMetric::Cycles => "cycles",
        })
    }
}

/// One run's observation of an aligned row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiffSide {
    /// Cycles attributed to the row.
    pub cycles: u64,
    /// Samples behind those cycles (drives the error bound).
    pub samples: u64,
    /// Executions (instructions or line/loop executions) from DBI counts.
    pub execs: u64,
    /// Cycles per execution, when the row executed.
    pub cpi: Option<f64>,
    /// Instrumentation coverage of the row, when the granularity tracks it
    /// (functions do, loops and lines do not).
    pub coverage: Option<Coverage>,
}

/// An aligned row of the differential report.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// Human-readable alignment key (`module:function`, `module:file:line`…).
    pub key: String,
    /// Old run's observation, absent for [`DiffClass::Added`] rows.
    pub old: Option<DiffSide>,
    /// New run's observation, absent for [`DiffClass::Removed`] rows.
    pub new: Option<DiffSide>,
    /// Which metric `delta_pct` compares.
    pub metric: DiffMetric,
    /// Relative change of the metric, in percent (+ = new is slower).
    pub delta_pct: f64,
    /// Sampling-error bound on `delta_pct` (infinite when unsampled).
    pub noise_pct: f64,
    /// Verdict.
    pub class: DiffClass,
}

/// The full differential analysis of two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// The options the classification used.
    pub options: DiffOptions,
    /// Function-level rows.
    pub functions: Vec<DiffRow>,
    /// Loop-level rows.
    pub loops: Vec<DiffRow>,
    /// Source-line rows.
    pub lines: Vec<DiffRow>,
}

impl DiffReport {
    /// (regressions, improvements, noise) counts over all three tables.
    pub fn summary(&self) -> (usize, usize, usize) {
        let mut reg = 0;
        let mut imp = 0;
        let mut noise = 0;
        for row in self.rows() {
            match row.class {
                DiffClass::Regression => reg += 1,
                DiffClass::Improvement => imp += 1,
                DiffClass::Noise => noise += 1,
                DiffClass::Added
                | DiffClass::Removed
                | DiffClass::CoverageChange
                | DiffClass::ConfigChange => {}
            }
        }
        (reg, imp, noise)
    }

    /// Number of rows attributed to a configuration difference.
    pub fn config_changes(&self) -> usize {
        self.rows()
            .filter(|r| r.class == DiffClass::ConfigChange)
            .count()
    }

    /// Number of rows classified as regressions.
    pub fn regressions(&self) -> usize {
        self.summary().0
    }

    /// Whether any row regressed (drives `--fail-on-regression`).
    pub fn has_regressions(&self) -> bool {
        self.regressions() > 0
    }

    /// All rows of all three tables, functions first.
    pub fn rows(&self) -> impl Iterator<Item = &DiffRow> {
        self.functions.iter().chain(&self.loops).chain(&self.lines)
    }
}

/// Aligns two runs' tables and classifies every row's change.
///
/// Rows are keyed on source-level identity — module *name* plus function
/// name, loop location, or file:line — so the comparison survives
/// recompilation as long as names and debug info are stable. Output order
/// is deterministic: regressions first, then by |delta| descending, then by
/// key.
pub fn diff_tables(old: &ProfileTables, new: &ProfileTables, options: DiffOptions) -> DiffReport {
    let mut functions = Keyed::with_capacity(old.functions.len() + new.functions.len());
    let mut loops = Keyed::with_capacity(old.loops.len() + new.loops.len());
    let mut lines = Keyed::with_capacity(old.lines.len() + new.lines.len());
    for (t, is_new) in [(old, false), (new, true)] {
        for f in &t.functions {
            let side = DiffSide {
                cycles: f.self_cycles,
                samples: f.self_samples,
                execs: f.self_insns,
                cpi: f.cpi(),
                coverage: Some(f.coverage),
            };
            functions.add(&[&t.module_name(f.module), ":", &f.name], is_new, side);
        }
        for l in &t.loops {
            let side = DiffSide {
                cycles: l.cycles,
                samples: l.samples,
                execs: l.total_insns,
                cpi: l.cpi(),
                coverage: None,
            };
            let module = t.module_name(l.module);
            let mut buf = [0; 20];
            match &l.lines {
                Some((file, lo, _)) => {
                    let lo = wiser_sim::decimal(u64::from(*lo), &mut buf);
                    let key = [&*module, ":", &l.function, ":", file, ":", lo];
                    loops.add(&key, is_new, side);
                }
                None => {
                    let header = crate::cells::hex(l.header_offset, &mut buf);
                    loops.add(&[&module, ":", &l.function, ":@", header], is_new, side);
                }
            }
        }
        for l in &t.lines {
            let side = DiffSide {
                cycles: l.cycles,
                samples: l.samples,
                execs: l.count,
                cpi: l.cpi(),
                coverage: None,
            };
            let mut buf = [0; 20];
            let line = wiser_sim::decimal(u64::from(l.line), &mut buf);
            let key = [&*t.module_name(l.module), ":", &l.file, ":", line];
            lines.add(&key, is_new, side);
        }
    }
    DiffReport {
        options,
        functions: functions.align(options),
        loops: loops.align(options),
        lines: lines.align(options),
    }
}

/// The rows of one table of both runs, their keys laid end to end in one
/// text.
struct Keyed {
    text: String,
    /// Each row's key, as a range of `text`; whether it is the new run's;
    /// and its observation.
    rows: Vec<(std::ops::Range<usize>, bool, DiffSide)>,
}

impl Keyed {
    fn with_capacity(rows: usize) -> Keyed {
        Keyed {
            // Keys run to a few dozen bytes.
            text: String::with_capacity(48 * rows),
            rows: Vec::with_capacity(rows),
        }
    }

    /// Adds a row of the old or (`is_new`) the new run, keyed by `parts`
    /// joined.
    fn add(&mut self, parts: &[&str], is_new: bool, side: DiffSide) {
        let start = self.text.len();
        for part in parts {
            self.text.push_str(part);
        }
        self.rows.push((start..self.text.len(), is_new, side));
    }

    /// Merges the rows of each key and classifies them; see
    /// [`diff_tables`] for the order.
    fn align(mut self, options: DiffOptions) -> Vec<DiffRow> {
        // Duplicate keys (e.g. the same function in two modules of the same
        // name) are merged by summation, keeping alignment total.
        let accumulate = |slot: &mut Option<DiffSide>, side: DiffSide| {
            let s = slot.get_or_insert(DiffSide {
                cycles: 0,
                samples: 0,
                execs: 0,
                cpi: None,
                coverage: None,
            });
            s.cycles += side.cycles;
            s.samples += side.samples;
            s.execs += side.execs;
            s.cpi = (s.execs > 0).then(|| s.cycles as f64 / s.execs as f64);
            // Any partially-covered contribution taints the merged row.
            s.coverage = match (s.coverage, side.coverage) {
                (Some(Coverage::SamplingOnly), _) | (_, Some(Coverage::SamplingOnly)) => {
                    Some(Coverage::SamplingOnly)
                }
                (a, b) => a.or(b),
            };
        };
        // Sorted by key, the rows of one key are adjacent; a key's place in
        // the text keeps the old run's rows first, each in table order.
        let text = &self.text;
        self.rows.sort_unstable_by(|a, b| {
            (&text[a.0.clone()], a.0.start).cmp(&(&text[b.0.clone()], b.0.start))
        });
        let mut rows: Vec<DiffRow> = Vec::with_capacity(self.rows.len());
        let mut keyed = self.rows.iter().peekable();
        while let Some((range, is_new, side)) = keyed.next() {
            let key = &text[range.clone()];
            let mut sides = (None, None);
            let mut add = |is_new: bool, side: DiffSide| {
                accumulate(if is_new { &mut sides.1 } else { &mut sides.0 }, side);
            };
            add(*is_new, *side);
            while let Some((_, is_new, side)) = keyed.next_if(|next| &text[next.0.clone()] == key) {
                add(*is_new, *side);
            }
            rows.push(classify(key.to_string(), sides.0, sides.1, options));
        }
        // Keys are unique now, so this order is total.
        rows.sort_unstable_by(|a, b| {
            a.class
                .rank()
                .cmp(&b.class.rank())
                .then(b.delta_pct.abs().total_cmp(&a.delta_pct.abs()))
                .then_with(|| a.key.cmp(&b.key))
        });
        rows
    }
}

fn classify(
    key: String,
    old: Option<DiffSide>,
    new: Option<DiffSide>,
    options: DiffOptions,
) -> DiffRow {
    let (old_side, new_side) = match (old, new) {
        (Some(o), Some(n)) => (o, n),
        (None, Some(_)) => {
            return DiffRow {
                key,
                old,
                new,
                metric: DiffMetric::Cycles,
                delta_pct: 0.0,
                noise_pct: f64::INFINITY,
                class: DiffClass::Added,
            }
        }
        (Some(_), None) => {
            return DiffRow {
                key,
                old,
                new,
                metric: DiffMetric::Cycles,
                delta_pct: 0.0,
                noise_pct: f64::INFINITY,
                class: DiffClass::Removed,
            }
        }
        (None, None) => unreachable!("row without either side"),
    };

    // A coverage flip (e.g. `--selective` instrumented the function in one
    // run only) means one side's counts and CPI are estimates while the
    // other's are exact: no performance verdict is defensible, so report the
    // row as a coverage change rather than a spurious regression.
    let coverage_flip = match (old_side.coverage, new_side.coverage) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    };
    // When either side is sampling-only its "counts" are reconstructed, not
    // exact, so the zero-noise execution-count fallback below is off-limits.
    let counts_exact = old_side.coverage != Some(Coverage::SamplingOnly)
        && new_side.coverage != Some(Coverage::SamplingOnly);

    // Prefer CPI (normalises away iteration-count changes). A row with zero
    // samples on either side has an unbounded cycle estimate — its CPI is
    // meaningless and the z-bound below would be infinite, silently burying
    // real regressions in the noise bucket. The DBI execution counts are
    // exact, so such rows compare executions with a zero noise band.
    // Rows that also lack counts fall back to raw cycles (and stay noise).
    let degraded = old_side.samples == 0 || new_side.samples == 0;
    let (metric, old_value, new_value) = match (old_side.cpi, new_side.cpi) {
        _ if degraded && counts_exact && old_side.execs > 0 && new_side.execs > 0 => (
            DiffMetric::Execs,
            old_side.execs as f64,
            new_side.execs as f64,
        ),
        (Some(o), Some(n)) if o > 0.0 => (DiffMetric::Cpi, o, n),
        _ => (
            DiffMetric::Cycles,
            old_side.cycles as f64,
            new_side.cycles as f64,
        ),
    };
    let delta_pct = if old_value > 0.0 {
        (new_value - old_value) / old_value * 100.0
    } else if new_value > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let noise_pct = if metric == DiffMetric::Execs {
        0.0
    } else if old_side.samples > 0 && new_side.samples > 0 {
        options.confidence
            * (1.0 / old_side.samples as f64 + 1.0 / new_side.samples as f64).sqrt()
            * 100.0
    } else {
        f64::INFINITY
    };
    let significant = delta_pct.abs() > options.threshold_pct.max(noise_pct);
    let class = if coverage_flip {
        DiffClass::CoverageChange
    } else if !significant {
        DiffClass::Noise
    } else if options.config_changed {
        // A significant delta between runs of different uarch configs is
        // the config's doing; calling it a regression would misattribute
        // a machine difference to the code (the fig. 8/9 trap).
        DiffClass::ConfigChange
    } else if delta_pct > 0.0 {
        DiffClass::Regression
    } else {
        DiffClass::Improvement
    };
    DiffRow {
        key,
        old: Some(old_side),
        new: Some(new_side),
        metric,
        delta_pct,
        noise_pct,
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisMode;
    use crate::types::{Coverage, FuncStats, LineStats, LoopStats};

    fn tables(cycles: u64, samples: u64, insns: u64) -> ProfileTables {
        ProfileTables {
            mode: AnalysisMode::Full,
            wall_cycles: cycles,
            total_cycles: cycles,
            total_insns: insns,
            modules: vec!["m".into()],
            functions: vec![FuncStats {
                module: 0,
                name: "hot".into(),
                self_cycles: cycles,
                incl_cycles: cycles,
                self_samples: samples,
                self_insns: insns,
                incl_insns: insns,
                coverage: Coverage::Counted,
            }],
            loops: vec![LoopStats {
                module: 0,
                function: "hot".into(),
                header_offset: 0x40,
                depth: 0,
                parent: None,
                iterations: 100,
                invocations: 1,
                body_insns: insns,
                total_insns: insns,
                cycles,
                samples,
                lines: Some(("hot.c".into(), 3, 5)),
            }],
            lines: vec![LineStats {
                module: 0,
                file: "hot.c".into(),
                line: 4,
                cycles,
                samples,
                count: insns,
            }],
        }
    }

    #[test]
    fn cpi_doubling_is_a_regression() {
        let old = tables(1000, 400, 1000); // CPI 1.0
        let new = tables(2000, 400, 1000); // CPI 2.0
        let report = diff_tables(&old, &new, DiffOptions::default());
        assert_eq!(report.functions.len(), 1);
        let row = &report.functions[0];
        assert_eq!(row.class, DiffClass::Regression, "{row:?}");
        assert_eq!(row.metric, DiffMetric::Cpi);
        assert!((row.delta_pct - 100.0).abs() < 1e-9, "{row:?}");
        assert!(report.has_regressions());
        let (reg, imp, noise) = report.summary();
        assert_eq!((reg, imp, noise), (3, 0, 0)); // function + loop + line
    }

    #[test]
    fn improvement_and_symmetry() {
        let old = tables(2000, 400, 1000);
        let new = tables(1000, 400, 1000);
        let report = diff_tables(&old, &new, DiffOptions::default());
        assert_eq!(report.functions[0].class, DiffClass::Improvement);
        assert!(!report.has_regressions());
        assert!((report.functions[0].delta_pct + 50.0).abs() < 1e-9);
    }

    #[test]
    fn small_changes_and_thin_samples_are_noise() {
        // 2% CPI change under the default 5% threshold.
        let report = diff_tables(
            &tables(1000, 400, 1000),
            &tables(1020, 400, 1000),
            DiffOptions::default(),
        );
        assert_eq!(report.functions[0].class, DiffClass::Noise);

        // A large change backed by 4 samples a side: noise bound
        // 1.96*sqrt(1/4+1/4)*100 ≈ 139% swallows a 50% delta.
        let report = diff_tables(
            &tables(1000, 4, 1000),
            &tables(1500, 4, 1000),
            DiffOptions::default(),
        );
        let row = &report.functions[0];
        assert_eq!(row.class, DiffClass::Noise, "{row:?}");
        assert!(row.noise_pct > 100.0, "{row:?}");

        // Zero samples with identical execution counts: the exact-count
        // fallback sees no change, so the cycle disparity (pure sampling
        // artifact) stays noise.
        let report = diff_tables(
            &tables(1000, 0, 1000),
            &tables(9000, 0, 1000),
            DiffOptions::default(),
        );
        let row = &report.functions[0];
        assert_eq!(row.metric, DiffMetric::Execs, "{row:?}");
        assert_eq!(row.class, DiffClass::Noise, "{row:?}");
    }

    #[test]
    fn zero_sample_rows_compare_exact_execution_counts() {
        // Neither run caught a sample on the row, but the DBI counts show a
        // 9x execution blowup. The old INFINITY noise bound classified this
        // as Noise; counts are exact, so it must surface as a regression.
        let report = diff_tables(
            &tables(1000, 0, 1000),
            &tables(9000, 0, 9000),
            DiffOptions::default(),
        );
        let row = &report.functions[0];
        assert_eq!(row.metric, DiffMetric::Execs, "{row:?}");
        assert_eq!(row.class, DiffClass::Regression, "{row:?}");
        assert_eq!(row.noise_pct, 0.0, "{row:?}");
        assert!((row.delta_pct - 800.0).abs() < 1e-9, "{row:?}");

        // One-sided sample loss behaves the same way.
        let report = diff_tables(
            &tables(1000, 400, 1000),
            &tables(9000, 0, 9000),
            DiffOptions::default(),
        );
        let row = &report.functions[0];
        assert_eq!(row.metric, DiffMetric::Execs, "{row:?}");
        assert_eq!(row.class, DiffClass::Regression, "{row:?}");

        // An execution-count *drop* is an improvement, symmetrically.
        let report = diff_tables(
            &tables(9000, 0, 9000),
            &tables(1000, 0, 1000),
            DiffOptions::default(),
        );
        assert_eq!(report.functions[0].class, DiffClass::Improvement);
    }

    #[test]
    fn threshold_is_configurable() {
        let opts = DiffOptions {
            threshold_pct: 0.5,
            confidence: 0.0,
            ..DiffOptions::default()
        };
        let report = diff_tables(&tables(1000, 400, 1000), &tables(1020, 400, 1000), opts);
        assert_eq!(report.functions[0].class, DiffClass::Regression);
    }

    #[test]
    fn unmatched_rows_are_added_or_removed() {
        let old = tables(1000, 400, 1000);
        let mut new = tables(1000, 400, 1000);
        new.functions[0].name = "renamed".into();
        let report = diff_tables(&old, &new, DiffOptions::default());
        let classes: Vec<(&str, DiffClass)> = report
            .functions
            .iter()
            .map(|r| (r.key.as_str(), r.class))
            .collect();
        assert!(
            classes.contains(&("m:hot", DiffClass::Removed)),
            "{classes:?}"
        );
        assert!(
            classes.contains(&("m:renamed", DiffClass::Added)),
            "{classes:?}"
        );
    }

    #[test]
    fn degraded_runs_fall_back_to_cycle_deltas() {
        // No instrumentation counts → no CPI on either side.
        let mut old = tables(1000, 400, 0);
        let mut new = tables(2000, 400, 0);
        old.functions[0].self_insns = 0;
        new.functions[0].self_insns = 0;
        let report = diff_tables(&old, &new, DiffOptions::default());
        let row = &report.functions[0];
        assert_eq!(row.metric, DiffMetric::Cycles);
        assert_eq!(row.class, DiffClass::Regression, "{row:?}");
    }

    #[test]
    fn coverage_flip_is_a_coverage_change_not_a_regression() {
        // Old run counted the function exhaustively; the new run's selective
        // instrumentation skipped it, so its counts collapse and its cycles
        // swing. Without coverage tracking this aligns as a huge Execs
        // regression; it must surface as a coverage change instead.
        let old = tables(1000, 400, 1000);
        let mut new = tables(9000, 0, 1000);
        new.functions[0].coverage = Coverage::SamplingOnly;
        new.functions[0].self_insns = 0;
        let report = diff_tables(&old, &new, DiffOptions::default());
        let row = &report.functions[0];
        assert_eq!(row.class, DiffClass::CoverageChange, "{row:?}");
        // Coverage changes never count toward --fail-on-regression.
        assert!(!report.has_regressions());
        // Loops and lines carry no coverage, so they classify as usual.
        assert!(report
            .loops
            .iter()
            .all(|r| r.class != DiffClass::CoverageChange));
    }

    #[test]
    fn sampling_only_rows_never_use_the_exact_count_fallback() {
        // Both runs skipped the function: coverage agrees (no flip), but the
        // counts are reconstructions, so the zero-noise Execs comparison
        // would manufacture certainty. The row must fall back to cycles and
        // stay inside the unbounded noise band.
        let mut old = tables(1000, 0, 1000);
        let mut new = tables(9000, 0, 9000);
        for t in [&mut old, &mut new] {
            t.functions[0].coverage = Coverage::SamplingOnly;
        }
        let report = diff_tables(&old, &new, DiffOptions::default());
        let row = &report.functions[0];
        assert_ne!(row.metric, DiffMetric::Execs, "{row:?}");
        assert_eq!(row.class, DiffClass::Noise, "{row:?}");
    }

    #[test]
    fn config_mismatch_reports_config_changes_not_regressions() {
        // Same workload, different uarch config: the CPI doubling is the
        // machine's doing. Under `config_changed` it must not read as a
        // regression (and must not drive --fail-on-regression).
        let old = tables(1000, 400, 1000);
        let new = tables(2000, 400, 1000);
        let opts = DiffOptions {
            config_changed: true,
            ..DiffOptions::default()
        };
        let report = diff_tables(&old, &new, opts);
        let row = &report.functions[0];
        assert_eq!(row.class, DiffClass::ConfigChange, "{row:?}");
        assert!(!report.has_regressions());
        assert_eq!(report.config_changes(), 3); // function + loop + line
                                                // Insignificant rows stay noise — config awareness does not
                                                // manufacture significance.
        let quiet = diff_tables(&tables(1000, 400, 1000), &tables(1010, 400, 1000), opts);
        assert_eq!(quiet.functions[0].class, DiffClass::Noise);
        assert_eq!(quiet.config_changes(), 0);
    }

    #[test]
    fn output_order_is_deterministic_and_regressions_first() {
        let mut old = tables(1000, 400, 1000);
        let mut new = tables(2000, 400, 1000);
        old.functions.push(FuncStats {
            module: 0,
            name: "better".into(),
            self_cycles: 2000,
            incl_cycles: 2000,
            self_samples: 400,
            self_insns: 1000,
            incl_insns: 1000,
            coverage: Coverage::Counted,
        });
        new.functions.push(FuncStats {
            module: 0,
            name: "better".into(),
            self_cycles: 1000,
            incl_cycles: 1000,
            self_samples: 400,
            self_insns: 1000,
            incl_insns: 1000,
            coverage: Coverage::Counted,
        });
        let a = diff_tables(&old, &new, DiffOptions::default());
        let b = diff_tables(&old, &new, DiffOptions::default());
        assert_eq!(a, b);
        assert_eq!(a.functions[0].class, DiffClass::Regression);
        assert_eq!(a.functions[1].class, DiffClass::Improvement);
    }
}
