//! The sample profile: what `perf record` + `perf script` would produce.
//!
//! All addresses are stored as stable `(module, offset)` pairs because ASLR
//! changes absolute addresses between the sampling run and the
//! instrumentation run (§IV-A).

use wiser_sim::{CodeLoc, FastMap, TruncationReason};

/// One periodic sample.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Sampled instruction location.
    pub loc: CodeLoc,
    /// User-mode cycles since the previous sample — the weight OptiWISE
    /// multiplies into its cycle estimates (§IV-B).
    pub weight: u64,
    /// Call stack: where the return addresses of active calls, as code
    /// locations and outermost first, sit in the profile's
    /// [`SampleProfile::frames`]; read it with [`SampleProfile::stack`].
    /// Empty when stack capture was off or unwinding failed.
    pub stack: FrameRange,
}

/// A half-open range `start..end` of [`SampleProfile::frames`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameRange {
    /// First frame.
    pub start: u32,
    /// One past the last frame.
    pub end: u32,
}

impl FrameRange {
    /// The range `start..end`.
    ///
    /// # Panics
    ///
    /// If `end` passes `u32::MAX` or `start` passes `end`.
    pub fn new(start: usize, end: usize) -> FrameRange {
        let index = |n: usize| u32::try_from(n).expect("frame arena exceeds u32::MAX frames");
        assert!(start <= end, "frame range {start}..{end}");
        FrameRange {
            start: index(start),
            end: index(end),
        }
    }

    /// Frames in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start) as usize
    }

    /// Whether the range holds no frame.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A complete sampling profile of one run.
///
/// Every sample's stack is a range of one frame arena, so a profile holds
/// three buffers whatever its sample count. Two profiles are equal when
/// their samples are, stack contents included, whatever their arenas'
/// layout.
#[derive(Clone, Debug, Default)]
pub struct SampleProfile {
    /// Module names, indexed by [`ModuleId`](wiser_sim::ModuleId).
    pub module_names: Vec<String>,
    /// All samples, in time order.
    pub samples: Vec<Sample>,
    /// The frames of the samples' stacks: each [`Sample::stack`] is a range
    /// of this arena.
    pub frames: Vec<CodeLoc>,
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

impl PartialEq for SampleProfile {
    fn eq(&self, other: &SampleProfile) -> bool {
        self.module_names == other.module_names
            && self.period == other.period
            && self.total_cycles == other.total_cycles
            && self.unmapped == other.unmapped
            && self.retired == other.retired
            && self.truncated == other.truncated
            && self.samples.len() == other.samples.len()
            && self.samples.iter().zip(&other.samples).all(|(a, b)| {
                (a.loc, a.weight) == (b.loc, b.weight) && self.stack(a) == other.stack(b)
            })
    }
}

impl SampleProfile {
    /// Appends a sample whose stack is `stack`, outermost frame first.
    ///
    /// # Panics
    ///
    /// If the arena would pass `u32::MAX` frames.
    pub fn push(&mut self, loc: CodeLoc, weight: u64, stack: impl IntoIterator<Item = CodeLoc>) {
        let start = self.frames.len();
        self.frames.extend(stack);
        let stack = FrameRange::new(start, self.frames.len());
        self.samples.push(Sample { loc, weight, stack });
    }

    /// The call stack of `sample`, one of this profile's samples.
    ///
    /// # Panics
    ///
    /// If the sample's range is not within [`SampleProfile::frames`], which
    /// [`SampleProfile::validate`] rules out.
    pub fn stack(&self, sample: &Sample) -> &[CodeLoc] {
        &self.frames[sample.stack.start as usize..sample.stack.end as usize]
    }

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
    /// bytes: every sample and stack frame must reference a declared module,
    /// and every stack must be a range of the frame arena.
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
            let FrameRange { start, end } = s.stack;
            if start > end || end as usize > self.frames.len() {
                return Err(format!(
                    "sample {i} stack {start}..{end} is outside the {} frames",
                    self.frames.len()
                ));
            }
            for frame in self.stack(s) {
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
        let mut p = SampleProfile {
            module_names: vec!["main".into(), "libq".into()],
            period: 2048,
            total_cycles: 6048,
            unmapped: 1,
            retired: 12345,
            ..SampleProfile::default()
        };
        p.push(loc(0, 0x10), 2048, [loc(0, 0x8), loc(1, 0x20)]);
        p.push(loc(1, 0x28), 1900, []);
        p.push(loc(0, 0x10), 2100, [loc(0, 0x8)]);
        p
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
        bad.frames[1].module = ModuleId(5);
        assert!(bad.validate().unwrap_err().contains("stack frame"));

        let mut bad = sample_profile();
        bad.samples[2].stack.end = 4;
        assert!(bad.validate().unwrap_err().contains("outside the 3 frames"));
    }

    #[test]
    fn equality_compares_stacks_not_arena_layout() {
        let p = sample_profile();
        assert_eq!(p.stack(&p.samples[0]), [loc(0, 0x8), loc(1, 0x20)]);
        assert!(p.stack(&p.samples[1]).is_empty());
        // The same samples over an arena with an unused frame and shared
        // stacks: equal.
        let mut shared = p.clone();
        shared.frames.insert(0, loc(1, 0x99));
        shared.samples[0].stack = FrameRange { start: 1, end: 3 };
        shared.samples[1].stack = FrameRange::default();
        shared.samples[2].stack = FrameRange { start: 1, end: 2 };
        assert_eq!(shared, p);
        shared.frames[2] = loc(1, 0x28);
        assert_ne!(shared, p);
    }
}
