//! Self-contained snapshot of an analysis' aggregate tables.
//!
//! [`ProfileTables`] is the persistable projection of an [`Analysis`]: the
//! function/loop/line tables plus the run totals, with module *names*
//! instead of live module state, so a stored profile can be reported on and
//! diffed without rebuilding (or even having) the program it came from.
//! `wiser-store` serializes this type; [`crate::diff`] aligns two of them.

use std::borrow::Cow;

use crate::analysis::{Analysis, AnalysisMode};
use crate::types::{FuncStats, LineStats, LoopStats};

/// The aggregate tables of one profiling run, detached from the program.
///
/// Everything here is deterministic: the source tables are already sorted by
/// stable keys in [`Analysis`], and no map iteration order leaks in — two
/// runs of the same configuration produce identical `ProfileTables`,
/// whatever the thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileTables {
    /// Whether the run was a full join or degraded to sampling only.
    pub mode: AnalysisMode,
    /// Total cycles of the sampled run.
    pub wall_cycles: u64,
    /// Cycles attributed by samples.
    pub total_cycles: u64,
    /// Dynamic instructions from instrumentation (0 in degraded mode).
    pub total_insns: u64,
    /// Module names, indexed by the `module` field of the table rows.
    pub modules: Vec<String>,
    /// Function table, hottest first.
    pub functions: Vec<FuncStats>,
    /// Loop table, hottest first.
    pub loops: Vec<LoopStats>,
    /// Source-line table, hottest first.
    pub lines: Vec<LineStats>,
}

impl ProfileTables {
    /// Snapshots the tables of a finished analysis.
    pub fn from_analysis(analysis: &Analysis) -> ProfileTables {
        ProfileTables {
            mode: analysis.mode,
            wall_cycles: analysis.wall_cycles,
            total_cycles: analysis.total_cycles,
            total_insns: analysis.total_insns,
            modules: analysis.modules.iter().map(|m| m.name.clone()).collect(),
            functions: analysis.functions().to_vec(),
            loops: analysis.loops().to_vec(),
            lines: analysis.lines().to_vec(),
        }
    }

    /// Name of module `index`, or a placeholder for out-of-range indices
    /// (possible in tables decoded from a file written by a different
    /// module set).
    pub fn module_name(&self, index: u32) -> Cow<'_, str> {
        match self.modules.get(index as usize) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(format!("<module {index}>")),
        }
    }

    /// Structural consistency check: every row's module index refers to a
    /// declared module and every loop's parent points into the loop table.
    /// Decoders call this so a damaged file fails closed instead of
    /// producing out-of-range lookups downstream.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.modules.len();
        for f in &self.functions {
            if f.module as usize >= n {
                return Err(format!(
                    "function `{}` references undeclared module {}",
                    f.name, f.module
                ));
            }
        }
        for l in &self.loops {
            if l.module as usize >= n {
                return Err(format!(
                    "loop in `{}` references undeclared module {}",
                    l.function, l.module
                ));
            }
            if let Some(p) = l.parent {
                if p >= self.loops.len() {
                    return Err(format!(
                        "loop in `{}` has out-of-range parent index {p}",
                        l.function
                    ));
                }
            }
        }
        for l in &self.lines {
            if l.module as usize >= n {
                return Err(format!(
                    "line {}:{} references undeclared module {}",
                    l.file, l.line, l.module
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_optiwise, OptiwiseConfig};
    use wiser_isa::assemble;

    fn tables() -> ProfileTables {
        let module = assemble(
            "tbl",
            r#"
            .func _start global
            .loc "t.c" 1
                li x8, 3000
                li x9, 0
            loop:
            .loc "t.c" 3
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
            .loc "t.c" 5
                li x1, 0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let run = run_optiwise(&[module], &OptiwiseConfig::default()).unwrap();
        ProfileTables::from_analysis(&run.analysis)
    }

    #[test]
    fn snapshot_matches_analysis() {
        let t = tables();
        assert_eq!(t.mode, AnalysisMode::Full);
        assert_eq!(t.modules, vec!["tbl".to_string()]);
        assert_eq!(t.loops.len(), 1);
        assert!(t.total_cycles > 0);
        assert!(t.total_insns > 0);
        assert_eq!(t.module_name(0), "tbl");
        assert_eq!(t.module_name(9), "<module 9>");
        t.validate().unwrap();
    }

    #[test]
    fn validate_rejects_dangling_references() {
        let mut t = tables();
        t.functions[0].module = 7;
        assert!(t.validate().unwrap_err().contains("undeclared module 7"));

        let mut t = tables();
        t.loops[0].parent = Some(99);
        assert!(t.validate().unwrap_err().contains("parent"));

        let mut t = tables();
        t.lines[0].module = 3;
        assert!(t.validate().is_err());
    }
}
