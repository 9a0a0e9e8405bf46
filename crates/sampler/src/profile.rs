//! The sample profile: what `perf record` + `perf script` would produce.
//!
//! All addresses are stored as stable `(module, offset)` pairs because ASLR
//! changes absolute addresses between the sampling run and the
//! instrumentation run (§IV-A).

use wiser_sim::{CodeLoc, FastMap, TruncationReason};

/// One periodic sample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Sampled instruction location.
    pub loc: CodeLoc,
    /// User-mode cycles since the previous sample — the weight OptiWISE
    /// multiplies into its cycle estimates (§IV-B).
    pub weight: u64,
    /// Call stack: return addresses of active calls as code locations,
    /// outermost first. Empty when stack capture was off or unwinding
    /// failed.
    pub stack: Vec<CodeLoc>,
}

/// A complete sampling profile of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SampleProfile {
    /// Module names, indexed by [`ModuleId`](wiser_sim::ModuleId).
    pub module_names: Vec<String>,
    /// All samples, in time order.
    pub samples: Vec<Sample>,
    /// Nominal sampling period in cycles.
    pub period: u64,
    /// Total cycles of the profiled run.
    pub total_cycles: u64,
    /// Samples whose address could not be mapped to a module (e.g. kernel
    /// or JIT code on a real system); counted rather than recorded.
    pub unmapped: u64,
    /// Instructions the profiled run retired. Lets the analysis cross-check
    /// this run against the instrumentation run's exact counts (§IV-F
    /// assumes the two runs execute identical instruction streams). Zero in
    /// profiles from before this field existed.
    pub retired: u64,
    /// Why the run stopped early, if it did not run to completion. A
    /// truncated profile is still usable — downstream analysis labels the
    /// result as partial rather than discarding it.
    pub truncated: Option<TruncationReason>,
}

impl SampleProfile {
    /// Sum of all sample weights (≈ total attributed cycles).
    pub fn total_weight(&self) -> u64 {
        self.samples.iter().map(|s| s.weight).sum()
    }

    /// Aggregates to per-location `(sample count, total weight)`.
    pub fn by_location(&self) -> FastMap<CodeLoc, (u64, u64)> {
        let mut map: FastMap<CodeLoc, (u64, u64)> = FastMap::default();
        for s in &self.samples {
            let e = map.entry(s.loc).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.weight;
        }
        map
    }

    /// Structural consistency check for profiles decoded from untrusted
    /// bytes: every sample and stack frame must reference a declared module.
    ///
    /// # Errors
    ///
    /// Returns a description of the first dangling reference.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.module_names.len();
        for (i, s) in self.samples.iter().enumerate() {
            if (s.loc.module.0 as usize) >= n {
                return Err(format!(
                    "sample {i} references undeclared module {}",
                    s.loc.module.0
                ));
            }
            for frame in &s.stack {
                if (frame.module.0 as usize) >= n {
                    return Err(format!(
                        "sample {i} stack frame references undeclared module {}",
                        frame.module.0
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_sim::ModuleId;

    fn loc(m: u32, o: u64) -> CodeLoc {
        CodeLoc {
            module: ModuleId(m),
            offset: o,
        }
    }

    fn sample_profile() -> SampleProfile {
        SampleProfile {
            module_names: vec!["main".into(), "libq".into()],
            samples: vec![
                Sample {
                    loc: loc(0, 0x10),
                    weight: 2048,
                    stack: vec![loc(0, 0x8), loc(1, 0x20)],
                },
                Sample {
                    loc: loc(1, 0x28),
                    weight: 1900,
                    stack: vec![],
                },
                Sample {
                    loc: loc(0, 0x10),
                    weight: 2100,
                    stack: vec![loc(0, 0x8)],
                },
            ],
            period: 2048,
            total_cycles: 6048,
            unmapped: 1,
            retired: 12345,
            truncated: None,
        }
    }

    #[test]
    fn aggregation() {
        let p = sample_profile();
        let agg = p.by_location();
        assert_eq!(agg[&loc(0, 0x10)], (2, 4148));
        assert_eq!(agg[&loc(1, 0x28)], (1, 1900));
        assert_eq!(p.total_weight(), 6048);
    }

    #[test]
    fn validate_checks_module_references() {
        let p = sample_profile();
        p.validate().unwrap();

        let mut bad = sample_profile();
        bad.samples[0].loc.module = ModuleId(9);
        assert!(bad.validate().unwrap_err().contains("undeclared module 9"));

        let mut bad = sample_profile();
        bad.samples[0].stack[1].module = ModuleId(5);
        assert!(bad.validate().unwrap_err().contains("stack frame"));
    }
}
