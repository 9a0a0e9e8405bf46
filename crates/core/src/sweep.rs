//! Config-sweep grids over the uarch model: the declarative core of
//! `optiwise sweep`.
//!
//! The paper's central evidence is a *two-machine* comparison — the same
//! workload attributed under x86-style in-order commit and Neoverse-style
//! early release (figures 8/9). A sweep makes that a first-class scalable
//! experiment: a grid of named uarch configurations (each optionally
//! carrying `key=value` overrides) times a list of workloads, expanded
//! into cells in a **stable declared order** (workload-major, config-minor)
//! and reduced into deterministic cross-config comparison tables.
//!
//! This module holds only the pure parts — config-spec parsing, grid
//! expansion and fleet reduction — so they are testable without running
//! the pipeline. Execution (worker pool, checkpoints, archiving) lives in
//! the CLI, which feeds finished [`ProfileTables`] back into
//! [`reduce_fleet`].
//!
//! Determinism contract: [`SweepGrid::expand`] is a pure function of the
//! declared configs and workloads, and [`reduce_fleet`] is a pure function
//! of the cells' tables, so sweep output is byte-identical for every
//! `--jobs` value — like every other fan-out surface in the tool.

use std::fmt::Write as _;

use wiser_sim::CoreConfig;

use crate::diff::{diff_tables, DiffOptions};
use crate::error::OptiwiseError;
use crate::report::diff_report;
use crate::tables::ProfileTables;

/// One named configuration of the grid: a preset plus optional overrides.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepConfig {
    /// Preset name (`wiser_sim::ARCH_NAMES`) the config starts from.
    pub arch: String,
    /// Overrides applied on top of the preset, in declared order.
    pub overrides: Vec<(String, String)>,
    /// Deterministic display label: the normalized spec string
    /// (`neoverse` or `neoverse:rob_size=64,commit_mode=early_release`).
    pub label: String,
}

impl SweepConfig {
    /// Parses a `--config` spec: `NAME` or `NAME:key=value,key=value`.
    /// The name and overrides must pass [`CoreConfig::resolve`] — a bad
    /// grid entry fails the sweep at parse time, before any cell runs.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Usage`] describing the offending spec.
    pub fn parse(spec: &str) -> Result<SweepConfig, OptiwiseError> {
        let (name, rest) = match spec.split_once(':') {
            Some((n, r)) => (n.trim(), Some(r)),
            None => (spec.trim(), None),
        };
        let overrides = rest
            .into_iter()
            .flat_map(|r| r.split(','))
            .map(CoreConfig::parse_set)
            .collect::<Result<Vec<_>, _>>()
            .and_then(|overrides| CoreConfig::resolve(name, &overrides).map(|_| overrides))
            .map_err(|e| OptiwiseError::Usage(format!("config spec `{spec}`: {e}")))?;
        let label = if overrides.is_empty() {
            name.to_string()
        } else {
            let sets: Vec<String> = overrides.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{name}:{}", sets.join(","))
        };
        Ok(SweepConfig {
            arch: name.to_string(),
            overrides,
            label,
        })
    }

    /// The resolved core configuration (preset plus overrides). Infallible
    /// because [`SweepConfig::parse`] already resolved it once.
    pub fn core(&self) -> CoreConfig {
        CoreConfig::resolve(&self.arch, &self.overrides).expect("parse resolved the config")
    }
}

/// One workload entry of the grid. The name is opaque to this module
/// (resolution against the workload registry happens in the CLI), so a
/// grid can mix registered workloads and `generated:SEED` programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepWorkload {
    /// Workload name as the CLI resolves it.
    pub name: String,
    /// Deterministic input seed for the cell's runs.
    pub seed: u64,
}

/// The declarative grid: configs × workloads.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepGrid {
    /// Configurations, in declared order. The first is the baseline every
    /// other config is compared against during reduction.
    pub configs: Vec<SweepConfig>,
    /// Workloads, in declared order.
    pub workloads: Vec<SweepWorkload>,
}

/// One cell of the expanded grid: a (workload, config) pair plus its
/// stable position.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// Zero-based position in expansion order — the tie-breaker that keeps
    /// archive run ids and reduced tables deterministic across `--jobs`.
    pub index: usize,
    /// The cell's workload.
    pub workload: SweepWorkload,
    /// The cell's configuration.
    pub config: SweepConfig,
}

impl SweepCell {
    /// Deterministic cell label: `WORKLOAD-sSEED-CONFIG`. Used for archive
    /// run labels and per-cell checkpoint file names, so a resumed sweep
    /// can recognise already-finished cells.
    pub fn label(&self) -> String {
        format!(
            "{}-s{}-{}",
            self.workload.name, self.workload.seed, self.config.label
        )
    }
}

impl SweepGrid {
    /// Expands the grid into cells in **stable declared order**:
    /// workload-major, config-minor (`w0c0, w0c1, …, w1c0, …`). This order
    /// is part of the format contract — archive run ids, checkpoint names
    /// and reduced-table ordering all derive from it.
    pub fn expand(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.configs.len() * self.workloads.len());
        for workload in &self.workloads {
            for config in &self.configs {
                cells.push(SweepCell {
                    index: cells.len(),
                    workload: workload.clone(),
                    config: config.clone(),
                });
            }
        }
        cells
    }
}

/// One finished cell: the cell plus the tables its run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResult {
    /// The grid cell.
    pub cell: SweepCell,
    /// The cell run's joined analysis tables.
    pub tables: ProfileTables,
}

/// Reduces a finished fleet into cross-config comparison tables: for each
/// workload (declared order), the first config is the baseline and every
/// other config is diffed against it — per-function/per-loop/per-line CPI
/// shift between configurations, the fig. 8/9 phenomena as tables.
///
/// Cross-config rows classify as `ConfigChange` (the diff runs with
/// [`DiffOptions::config_changed`] set whenever the two configs differ),
/// so a sweep can never masquerade machine differences as regressions.
///
/// Pure and deterministic: results arriving in any order reduce to the
/// same text, because cells are re-sorted by their stable index first.
pub fn reduce_fleet(results: &[SweepResult], options: DiffOptions, limit: usize) -> String {
    let mut ordered: Vec<&SweepResult> = results.iter().collect();
    ordered.sort_by_key(|r| r.cell.index);
    let mut out = String::new();
    let _ = writeln!(out, "== OptiWISE sweep: {} cell(s) ==", ordered.len());
    for r in &ordered {
        let _ = writeln!(
            out,
            "cell {}: {}  [arch {}]",
            r.cell.index,
            r.cell.label(),
            r.cell.config.arch
        );
    }
    // Group by workload in declared (index) order.
    let mut workloads: Vec<&SweepWorkload> = Vec::new();
    for r in &ordered {
        if !workloads.contains(&&r.cell.workload) {
            workloads.push(&r.cell.workload);
        }
    }
    for workload in workloads {
        let cells: Vec<&&SweepResult> = ordered
            .iter()
            .filter(|r| &r.cell.workload == workload)
            .collect();
        let Some((baseline, rest)) = cells.split_first() else {
            continue;
        };
        for other in rest {
            let _ = writeln!(
                out,
                "\n== sweep diff: {} (seed {}): {} -> {} ==",
                workload.name, workload.seed, baseline.cell.config.label, other.cell.config.label
            );
            let opts = DiffOptions {
                config_changed: baseline.cell.config != other.cell.config,
                ..options
            };
            let report = diff_tables(&baseline.tables, &other.tables, opts);
            let _ = write!(out, "{}", diff_report(&report, limit));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisMode;
    use crate::types::{Coverage, FuncStats};

    fn grid() -> SweepGrid {
        SweepGrid {
            configs: vec![
                SweepConfig::parse("xeon").unwrap(),
                SweepConfig::parse("neoverse:rob_size=64").unwrap(),
            ],
            workloads: vec![
                SweepWorkload {
                    name: "loop_merge".into(),
                    seed: 1,
                },
                SweepWorkload {
                    name: "generated".into(),
                    seed: 7,
                },
            ],
        }
    }

    fn tables(cycles: u64) -> ProfileTables {
        ProfileTables {
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
            loops: Vec::new(),
            lines: Vec::new(),
        }
    }

    #[test]
    fn parse_accepts_presets_and_overrides() {
        let plain = SweepConfig::parse("neoverse").unwrap();
        assert_eq!(plain.label, "neoverse");
        assert!(plain.overrides.is_empty());

        let tuned = SweepConfig::parse("xeon:rob_size=64,commit_mode=early").unwrap();
        assert_eq!(tuned.core().rob_size, 64);
        assert_eq!(tuned.label, "xeon:rob_size=64,commit_mode=early");

        assert!(SweepConfig::parse("vax").is_err());
        assert!(SweepConfig::parse("xeon:warp_drive=9").is_err());
        assert!(SweepConfig::parse("xeon:rob_size").is_err());
        // Parse-time validation: a grid entry that would divide by zero in
        // the cache model is refused before any cell runs.
        assert!(SweepConfig::parse("xeon:l1d.assoc=0").is_err());
    }

    #[test]
    fn expansion_order_is_stable_and_workload_major() {
        let cells = grid().expand();
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "loop_merge-s1-xeon",
                "loop_merge-s1-neoverse:rob_size=64",
                "generated-s7-xeon",
                "generated-s7-neoverse:rob_size=64",
            ]
        );
        assert_eq!(
            cells.iter().map(|c| c.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // Pure function: expanding twice gives identical cells.
        assert_eq!(cells, grid().expand());
    }

    #[test]
    fn reduction_is_order_insensitive_and_flags_config_changes() {
        let cells = grid().expand();
        let mut results: Vec<SweepResult> = cells
            .iter()
            .map(|c| SweepResult {
                cell: c.clone(),
                // Make the non-baseline config look 2x slower so the diff
                // has a significant row.
                tables: tables(if c.config.arch == "xeon" { 1000 } else { 2000 }),
            })
            .collect();
        let forward = reduce_fleet(&results, DiffOptions::default(), 20);
        results.reverse();
        let reversed = reduce_fleet(&results, DiffOptions::default(), 20);
        assert_eq!(
            forward, reversed,
            "reduction must not depend on arrival order"
        );
        // The 2x delta is attributed to the config, not reported as a
        // regression.
        assert!(forward.contains("config"), "{forward}");
        assert!(!forward.contains("REGRESSION"), "{forward}");
        assert!(forward.contains("sweep diff: loop_merge (seed 1): xeon -> neoverse:rob_size=64"));
    }
}
