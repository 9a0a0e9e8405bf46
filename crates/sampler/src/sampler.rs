//! The periodic sampling profiler (perf substitute).
//!
//! Attaches to the timing model as a [`Prober`]. An "interrupt" fires every
//! `period ± jitter` cycles; like a real timer interrupt it is *serviced* at
//! the next commit boundary, and the sampled PC is whatever is then at the
//! head of the complete queue. This single mechanism reproduces the sampling
//! quirks the paper documents: one-instruction skid past a stalled
//! instruction, commit-group leaders absorbing samples (figure 8),
//! never-sampled instructions (figure 2), and far-displaced samples under
//! early ROB release (figure 9).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wiser_isa::INSN_BYTES;
use wiser_sim::{
    CodeLoc, CoreConfig, ModuleId, PassControl, ProbePoint, Prober, ProcessImage, SimError,
    TimedRun, TruncationReason,
};

use crate::config::{Attribution, SamplerConfig, StackMode};
use crate::profile::{FrameRange, Sample, SampleProfile};

/// Approximate cycles of overhead each serviced sample costs the profiled
/// program (interrupt entry/exit plus perf's record writing). At the default
/// period this yields the ~1% sampling overhead the paper reports.
pub const SAMPLE_SERVICE_COST: u64 = 24;

/// The sampling profiler, used as a [`Prober`] on the timing model.
///
/// The lifetime parameter carries an optional checkpoint sink (see
/// [`PerfSampler::with_checkpoints`]); samplers without one are
/// `PerfSampler<'static>`.
pub struct PerfSampler<'a> {
    cfg: SamplerConfig,
    rng: StdRng,
    ranges: Vec<(u64, u64, u32)>,
    /// Per range: sorted text offsets of function starts, bounding how far a
    /// stack frame's call-site rewind may go.
    func_starts: Vec<Vec<u64>>,
    module_names: Vec<String>,
    next_interrupt: u64,
    pending: bool,
    pending_since: u64,
    last_sample_cycle: u64,
    samples: Vec<Sample>,
    /// The frame arena of `samples`' stacks.
    frames: Vec<CodeLoc>,
    unmapped: u64,
    /// Checkpoint cadence and sink; the timed driver polls its token.
    ctl: PassControl<'a, SampleProfile>,
    next_ckpt: u64,
}

impl<'a> PerfSampler<'a> {
    /// Creates a sampler for a loaded process.
    pub fn new(image: &ProcessImage, cfg: SamplerConfig) -> PerfSampler<'a> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let first = sample_interval(&cfg, &mut rng);
        PerfSampler {
            ranges: image
                .modules
                .iter()
                .map(|m| (m.base, m.base + m.text_size, m.id.0))
                .collect(),
            func_starts: image
                .modules
                .iter()
                .map(|m| m.linked.functions().iter().map(|s| s.offset).collect())
                .collect(),
            module_names: image
                .modules
                .iter()
                .map(|m| m.linked.name.clone())
                .collect(),
            cfg,
            rng,
            next_interrupt: first,
            pending: false,
            pending_since: 0,
            last_sample_cycle: 0,
            samples: Vec::new(),
            frames: Vec::new(),
            unmapped: 0,
            ctl: PassControl::default(),
            next_ckpt: u64::MAX,
        }
    }

    /// Arms periodic checkpoint snapshots: on `ctl`'s cadence of retired
    /// instructions (as observed at probe time, so the granularity is
    /// bounded below by the sampling period) the sampler hands an
    /// in-flight [`SampleProfile`] snapshot to its sink. Snapshots carry
    /// `truncated = Cancelled(retired)` to mark them as partial.
    pub fn with_checkpoints(mut self, ctl: PassControl<'a, SampleProfile>) -> PerfSampler<'a> {
        self.next_ckpt = ctl.first_checkpoint();
        self.ctl = ctl;
        self
    }

    fn resolve(&self, addr: u64) -> Option<CodeLoc> {
        self.resolve_idx(addr).map(|(_, loc)| loc)
    }

    /// Like [`resolve`](Self::resolve), also returning the index of the
    /// containing range.
    fn resolve_idx(&self, addr: u64) -> Option<(usize, CodeLoc)> {
        self.ranges
            .iter()
            .enumerate()
            .find_map(|(i, &(base, end, id))| {
                (addr >= base && addr < end).then(|| {
                    (
                        i,
                        CodeLoc {
                            module: ModuleId(id),
                            offset: addr - base,
                        },
                    )
                })
            })
    }

    /// Maps a stack frame's return address to its call site: one instruction
    /// back, bounded by the containing function and module. A frame pointing
    /// at a module base or a function's first instruction must not be
    /// rewound — the preceding address belongs to an unrelated function (or
    /// to whatever module happens to sit below in memory), and attributing
    /// the sample there would corrupt inclusive costs.
    fn call_site_of(&self, ret: u64) -> Option<CodeLoc> {
        let Some((idx, loc)) = self.resolve_idx(ret) else {
            // A return address just past a module's text (the call was its
            // final instruction) does not resolve, but the call site does.
            return self.resolve(ret.wrapping_sub(INSN_BYTES));
        };
        // Greatest function start at or below the return address; module
        // base when the module has no function symbols there.
        let starts = &self.func_starts[idx];
        let floor = match starts.binary_search(&loc.offset) {
            Ok(_) => loc.offset,
            Err(0) => 0,
            Err(i) => starts[i - 1],
        };
        if loc.offset >= floor.saturating_add(INSN_BYTES) {
            Some(CodeLoc {
                module: loc.module,
                offset: loc.offset - INSN_BYTES,
            })
        } else {
            Some(loc)
        }
    }

    fn record(&mut self, addr: Option<u64>, point: &ProbePoint<'_>) {
        let weight = point.cycle - self.last_sample_cycle;
        self.last_sample_cycle = point.cycle;
        let interval = sample_interval(&self.cfg, &mut self.rng);
        self.next_interrupt = point.cycle + interval;
        let Some(loc) = addr.and_then(|a| self.resolve(a)) else {
            self.unmapped += 1;
            return;
        };
        let start = self.frames.len();
        if self.cfg.stacks == StackMode::Accurate {
            // Frames hold return addresses; report the call site, bounded
            // to the containing function/module range.
            for &ret in point.arch_stack {
                if let Some(site) = self.call_site_of(ret) {
                    self.frames.push(site);
                }
            }
        }
        let stack = FrameRange::new(start, self.frames.len());
        self.samples.push(Sample { loc, weight, stack });
    }

    /// Consumes the sampler, producing the finished profile.
    ///
    /// Stamps the profile with the run's retired-instruction total and
    /// truncation marker so downstream analysis can reconcile it against
    /// the instrumentation run.
    pub fn finish_with(
        mut self,
        total_cycles: u64,
        retired: u64,
        truncated: Option<TruncationReason>,
    ) -> SampleProfile {
        let module_names = std::mem::take(&mut self.module_names);
        let samples = std::mem::take(&mut self.samples);
        let frames = std::mem::take(&mut self.frames);
        self.profile(
            module_names,
            samples,
            frames,
            total_cycles,
            retired,
            truncated,
        )
    }

    /// The profile of `samples` (the recorded ones, in order, their stacks
    /// in `frames`) less those the config's [`wiser_sim::FaultPlan`] drops — modelling samples lost
    /// in perf's ring buffer. Both the finished profile and the checkpoint
    /// snapshots are built here, so a snapshot is exactly the profile a
    /// cancellation at that point would produce.
    fn profile(
        &self,
        module_names: Vec<String>,
        samples: impl IntoIterator<Item = Sample>,
        frames: Vec<CodeLoc>,
        total_cycles: u64,
        retired: u64,
        truncated: Option<TruncationReason>,
    ) -> SampleProfile {
        let fault = self.cfg.fault;
        let mut dropped = 0u64;
        let samples: Vec<Sample> = samples
            .into_iter()
            .enumerate()
            .filter(|(i, _)| {
                let drop = fault.should_drop_sample(*i as u64);
                dropped += drop as u64;
                !drop
            })
            .map(|(_, s)| s)
            .collect();
        SampleProfile {
            module_names,
            samples,
            frames,
            period: self.cfg.period,
            total_cycles,
            // Dropped samples behave like unmapped ones: cycles we know
            // elapsed but cannot attribute.
            unmapped: self.unmapped + dropped,
            retired,
            truncated,
        }
    }
}

fn sample_interval(cfg: &SamplerConfig, rng: &mut StdRng) -> u64 {
    if cfg.jitter == 0 {
        cfg.period.max(1)
    } else {
        let lo = cfg.period.saturating_sub(cfg.jitter).max(1);
        let hi = cfg.period + cfg.jitter;
        rng.gen_range(lo..=hi)
    }
}

impl Prober for PerfSampler<'_> {
    fn next_probe_cycle(&self) -> u64 {
        if self.pending {
            0
        } else {
            self.next_interrupt
        }
    }

    fn probe(&mut self, point: ProbePoint<'_>) {
        if point.retired >= self.next_ckpt {
            // Checkpoint boundary. Probes fire at most one sampling period
            // apart, so the snapshot lands within one period of the
            // requested cadence — close enough, since resume replays the
            // pass deterministically rather than splicing at this point.
            let samples = self.samples.iter().copied();
            let frames = self.frames.clone();
            let cut = Some(TruncationReason::Cancelled(point.retired));
            let names = self.module_names.clone();
            let snap = self.profile(names, samples, frames, point.cycle, point.retired, cut);
            self.next_ckpt = self.ctl.checkpoint(point.retired, snap);
        }
        if !self.pending && point.cycle >= self.next_interrupt {
            if self.cfg.attribution == Attribution::Precise {
                // PEBS-like: capture the oldest incomplete instruction now.
                let addr = point.rob_head.map(|(_, a)| a).or(point.pending_addr);
                self.record(addr, &point);
                return;
            }
            self.pending = true;
            self.pending_since = point.cycle;
        }
        if self.pending {
            // Service at a commit boundary (or when the ROB is drained).
            let boundary = point.commits_this_cycle > 0 || point.rob_head.is_none();
            if !boundary {
                return;
            }
            // An interrupt that waited across cycles is taken at the first
            // retirement boundary of this cycle — one instruction past the
            // stalled one (perf's skid, figure 8). An interrupt arriving
            // during a smoothly-committing cycle is taken at the cycle's
            // end, landing on the next commit group's leader.
            let stalled = self.pending_since < point.cycle;
            let addr = match self.cfg.attribution {
                Attribution::Interrupt => {
                    if stalled {
                        point
                            .first_commit_next_addr
                            .or(point.rob_head.map(|(_, a)| a))
                            .or(point.pending_addr)
                    } else {
                        point.rob_head.map(|(_, a)| a).or(point.pending_addr)
                    }
                }
                Attribution::Predecessor => {
                    // Shift back one dynamic instruction: for a stalled
                    // service that is exactly the stalling instruction.
                    if stalled {
                        point
                            .first_commit_addr
                            .or(point.last_commit_addr)
                            .or(point.pending_addr)
                    } else {
                        point
                            .last_commit_addr
                            .or(point.rob_head.map(|(_, a)| a))
                            .or(point.pending_addr)
                    }
                }
                Attribution::Precise => unreachable!("handled at fire time"),
            };
            self.record(addr, &point);
            self.pending = false;
        }
    }
}

/// Runs a process under the timing model with sampling attached: the
/// "sampling run" of the OptiWISE pipeline (component 1 in figure 3).
///
/// Returns the profile and the underlying timed run. A run cut short by the
/// instruction budget or an execution fault is **not** an error: the samples
/// collected up to that point come back as a partial profile whose
/// `truncated` field says why (and, for injected aborts from the config's
/// fault plan, that the cut was deliberate).
///
/// # Errors
///
/// Only load-class failures (the process image cannot even start) abort the
/// pass with no profile.
pub fn sample_run(
    image: &ProcessImage,
    rand_seed: u64,
    core_cfg: CoreConfig,
    sampler_cfg: SamplerConfig,
    max_insns: u64,
) -> Result<(SampleProfile, TimedRun), SimError> {
    let ctl = PassControl::default();
    sample_run_ctl(image, rand_seed, core_cfg, sampler_cfg, max_insns, ctl)
}

/// Like [`sample_run`], under external [`PassControl`]: a fired
/// cancellation token truncates the profile as `Cancelled`, and every
/// `checkpoint_every` retired instructions an in-flight profile snapshot is
/// handed to the sink.
///
/// The config's `FaultPlan::kill_after_insns` (crash-style kill) also takes
/// effect here, surfacing as [`SimError::Killed`] with no partial profile —
/// a crash leaves nothing behind except previously persisted checkpoints.
///
/// # Errors
///
/// Load-class failures, plus [`SimError::Killed`] for the injected crash.
pub fn sample_run_ctl(
    image: &ProcessImage,
    rand_seed: u64,
    core_cfg: CoreConfig,
    sampler_cfg: SamplerConfig,
    max_insns: u64,
    ctl: PassControl<'_, SampleProfile>,
) -> Result<(SampleProfile, TimedRun), SimError> {
    let cancel = ctl.cancel;
    let mut sampler = PerfSampler::new(image, sampler_cfg).with_checkpoints(ctl);
    let (run, truncated) = wiser_sim::run_timed_partial_ctl(
        image,
        rand_seed,
        core_cfg,
        &mut sampler,
        max_insns,
        sampler_cfg.fault,
        cancel,
    )?;
    let profile = sampler.finish_with(run.stats.cycles, run.stats.retired, truncated);
    Ok((profile, run))
}

/// Estimated slowdown factor of the sampling run relative to native
/// execution: near 1.0, as the paper reports (geometric mean 1.01×).
pub fn sampling_overhead(profile: &SampleProfile) -> f64 {
    if profile.total_cycles == 0 {
        return 1.0;
    }
    1.0 + (profile.samples.len() as u64 + profile.unmapped) as f64 * SAMPLE_SERVICE_COST as f64
        / profile.total_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_isa::assemble;
    use wiser_sim::ProcessImage;

    fn image_of(src: &str) -> ProcessImage {
        ProcessImage::load_single(&assemble("t", src).unwrap()).unwrap()
    }

    const HOT_LOOP: &str = r#"
        .func _start global
            li x8, 50000
            li x9, 0
        loop:
            addi x1, x1, 1
            addi x2, x2, 3
            subi x8, x8, 1
            bne x8, x9, loop
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;

    #[test]
    fn samples_cover_hot_loop() {
        let image = image_of(HOT_LOOP);
        let (profile, run) = sample_run(
            &image,
            0,
            CoreConfig::xeon_like(),
            SamplerConfig::with_period(512),
            10_000_000,
        )
        .unwrap();
        assert!(profile.samples.len() > 50, "{}", profile.samples.len());
        // All samples fall in module 0 within the loop body region.
        for s in &profile.samples {
            assert_eq!(s.loc.module.0, 0);
            assert!(s.loc.offset < 8 * 8);
        }
        assert_eq!(profile.total_cycles, run.stats.cycles);
    }

    #[test]
    fn weights_sum_to_attributed_cycles() {
        let image = image_of(HOT_LOOP);
        let (profile, run) = sample_run(
            &image,
            0,
            CoreConfig::xeon_like(),
            SamplerConfig::with_period(512),
            10_000_000,
        )
        .unwrap();
        let weight = profile.total_weight();
        assert!(weight <= run.stats.cycles);
        // Most cycles should be attributed (last partial interval is lost).
        assert!(weight * 10 >= run.stats.cycles * 8);
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let image = image_of(HOT_LOOP);
        let mut cfg = SamplerConfig::with_period(700);
        cfg.jitter = 0;
        let (a, _) = sample_run(&image, 0, CoreConfig::xeon_like(), cfg, 10_000_000).unwrap();
        let (b, _) = sample_run(&image, 0, CoreConfig::xeon_like(), cfg, 10_000_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stacks_capture_callers() {
        let src = r#"
            .func spin
                push fp
                mov fp, sp
                li x2, 2000
                li x3, 0
            inner:
                subi x2, x2, 1
                bne x2, x3, inner
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func _start global
                li x8, 50
                li x9, 0
            outer:
                call spin
                subi x8, x8, 1
                bne x8, x9, outer
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let image = image_of(src);
        let (profile, _) = sample_run(
            &image,
            0,
            CoreConfig::xeon_like(),
            SamplerConfig::with_period(256),
            10_000_000,
        )
        .unwrap();
        // Samples in `spin` should carry the call site in `_start`.
        let spin = image.modules[0].linked.symbol("spin").unwrap();
        let call_site_offset = image.modules[0].linked.symbol("_start").unwrap().offset + 16; // call is the 3rd insn of _start
        let in_spin_with_stack = profile
            .samples
            .iter()
            .filter(|s| {
                s.loc.offset >= spin.offset
                    && s.loc.offset < spin.offset + spin.size
                    && profile
                        .stack(s)
                        .iter()
                        .any(|f| f.offset == call_site_offset)
            })
            .count();
        assert!(in_spin_with_stack > 10, "{in_spin_with_stack}");
    }

    #[test]
    fn skid_rewind_bounded_to_containing_function_and_module() {
        let main = assemble(
            "main",
            r#"
            .import helper
            .func first
                ret
            .endfunc
            .func _start global
                call helper
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let lib = assemble(
            "lib",
            r#"
            .func helper global
                addi x1, x1, 1
                ret
            .endfunc
            "#,
        )
        .unwrap();
        let image = ProcessImage::load(&[main, lib], &wiser_sim::LoadConfig::default()).unwrap();
        let sampler = PerfSampler::new(&image, SamplerConfig::default());
        let m0 = &image.modules[0];
        let m1 = &image.modules[1];

        // A frame at a module's base stays in that module instead of
        // rewinding into whatever is mapped below it in memory.
        assert_eq!(
            sampler.call_site_of(m1.base),
            Some(CodeLoc {
                module: m1.id,
                offset: 0
            })
        );
        // A frame at a function's first instruction stays at that function
        // instead of crediting the previous function's last instruction:
        // `_start` begins at offset 8, right after `first`.
        let start_off = m0.linked.symbol("_start").unwrap().offset;
        assert_eq!(
            sampler.call_site_of(m0.base + start_off),
            Some(CodeLoc {
                module: m0.id,
                offset: start_off
            })
        );
        // A mid-function frame rewinds one instruction to the call site.
        assert_eq!(
            sampler.call_site_of(m0.base + start_off + INSN_BYTES),
            Some(CodeLoc {
                module: m0.id,
                offset: start_off
            })
        );
        // A return address just past a module's text still yields the
        // final-instruction call site.
        assert_eq!(
            sampler.call_site_of(m1.base + m1.text_size),
            Some(CodeLoc {
                module: m1.id,
                offset: m1.text_size - INSN_BYTES
            })
        );
        // A completely unmapped address resolves to nothing.
        assert_eq!(sampler.call_site_of(0xdead_beef_0000), None);
    }

    #[test]
    fn overhead_is_near_one() {
        let image = image_of(HOT_LOOP);
        let (profile, _) = sample_run(
            &image,
            0,
            CoreConfig::xeon_like(),
            SamplerConfig::with_period(2048),
            10_000_000,
        )
        .unwrap();
        let overhead = sampling_overhead(&profile);
        assert!(overhead > 1.0 && overhead < 1.05, "{overhead}");
    }

    #[test]
    fn truncated_run_yields_partial_profile() {
        let image = image_of(HOT_LOOP);
        // Budget far below the ~250k retired instructions of the loop.
        let (profile, run) = sample_run(
            &image,
            0,
            CoreConfig::xeon_like(),
            SamplerConfig::with_period(512),
            20_000,
        )
        .unwrap();
        assert_eq!(profile.truncated, Some(TruncationReason::InsnLimit(20_000)));
        assert!(!profile.samples.is_empty(), "partial samples kept");
        assert!(profile.retired >= 20_000);
        assert_eq!(run.exit_code, None);
    }

    #[test]
    fn injected_abort_is_labelled_injected() {
        let image = image_of(HOT_LOOP);
        let mut cfg = SamplerConfig::with_period(512);
        cfg.fault.abort_sample_at = Some(30_000);
        let (profile, _) = sample_run(&image, 0, CoreConfig::xeon_like(), cfg, 10_000_000).unwrap();
        assert_eq!(profile.truncated, Some(TruncationReason::Injected(30_000)));
        assert!(!profile.samples.is_empty());
    }

    #[test]
    fn dropped_samples_counted_as_unmapped() {
        let image = image_of(HOT_LOOP);
        let mut cfg = SamplerConfig::with_period(512);
        cfg.jitter = 0;
        let (full, _) = sample_run(&image, 0, CoreConfig::xeon_like(), cfg, 10_000_000).unwrap();
        cfg.fault.drop_sample_pct = 50;
        cfg.fault.seed = 11;
        let (lossy, _) = sample_run(&image, 0, CoreConfig::xeon_like(), cfg, 10_000_000).unwrap();
        assert!(lossy.samples.len() < full.samples.len());
        assert_eq!(
            lossy.samples.len() as u64 + lossy.unmapped,
            full.samples.len() as u64 + full.unmapped,
        );
        assert!(profile_retired_matches(&full, &lossy));
    }

    fn profile_retired_matches(a: &SampleProfile, b: &SampleProfile) -> bool {
        a.retired == b.retired && a.retired > 0
    }

    #[test]
    fn precise_mode_runs() {
        let image = image_of(HOT_LOOP);
        let mut cfg = SamplerConfig::with_period(512);
        cfg.attribution = Attribution::Precise;
        let (profile, _) = sample_run(&image, 0, CoreConfig::xeon_like(), cfg, 10_000_000).unwrap();
        assert!(!profile.samples.is_empty());
    }
}
