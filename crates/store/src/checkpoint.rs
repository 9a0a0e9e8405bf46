//! Crash-consistent run checkpoints: the document behind
//! `optiwise run --checkpoint FILE` and `optiwise resume`.
//!
//! A checkpoint is an `.owp` container (same framing, CRCs and atomic-write
//! discipline as a stored profile) holding:
//!
//! | tag    | contents                                        | presence |
//! |--------|-------------------------------------------------|----------|
//! | `CKPT` | run identity + config spec + per-pass progress  | required |
//! | `SAMP` | latest sampling profile (partial or complete)   | optional |
//! | `CNTS` | latest counts profile (partial or complete)     | optional |
//!
//! Resume is **replay-based**: a pass whose stored profile is complete is
//! restored verbatim; an incomplete pass is re-executed from instruction
//! zero under the configuration reconstructed from the spec. Both passes
//! are deterministic given that configuration, so the resumed run's report
//! and saved profile are byte-identical to an uninterrupted run — the
//! partial sections exist for crash forensics and integrity tests, not as
//! replay input.
//!
//! The spec pins the run to a module set via [`CheckpointSpec::module_hash`]
//! (see `optiwise::module_fingerprint`): resuming against a different build
//! of the workload is refused, because the restored pass would describe
//! code the replayed pass never ran.
//!
//! The spec deliberately does **not** carry a fault-injection plan: fault
//! injection is a test instrument, and a resume continues the *real* run.
//! Tests that need faults on the resumed leg pass them explicitly.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use optiwise::{
    CancelToken, OptiwiseConfig, OptiwiseError, PassEvent, ResourceLimits, ResumeState,
    StoreError,
};
use wiser_dbi::{CountsProfile, DbiConfig};
use wiser_sampler::{Attribution, SampleProfile, SamplerConfig, StackMode};
use wiser_sim::CoreConfig;

use crate::atomic::{atomic_write, temp_path};
use crate::format::{read_sections, write_store, ByteReader, ByteWriter, DecodeBudget};
use crate::profile::{
    decode_counts, decode_samples, encode_counts, encode_samples, TAG_CNTS, TAG_SAMP,
};

pub(crate) const TAG_CKPT: [u8; 4] = *b"CKPT";

/// Everything needed to re-create the interrupted run's configuration and
/// verify it is being resumed against the same program.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointSpec {
    /// Fingerprint of the workload's module set
    /// (`optiwise::module_fingerprint`).
    pub module_hash: u64,
    /// Workload name (`optiwise list`).
    pub workload: String,
    /// Input size name (`test`/`train`/`ref`).
    pub size: String,
    /// Core model name (see `wiser_sim::ARCH_NAMES`).
    pub arch: String,
    /// Uarch overrides (`--set key=value`) applied on top of the named
    /// preset, in application order. Encoded as an optional tail so
    /// checkpoints written before overrides existed still decode.
    pub overrides: Vec<(String, String)>,
    /// Deterministic input seed.
    pub rand_seed: u64,
    /// Sampling period in cycles.
    pub period: u64,
    /// Sampling jitter in cycles.
    pub jitter: u64,
    /// Jitter RNG seed.
    pub sampler_seed: u64,
    /// Sample attribution policy.
    pub attribution: Attribution,
    /// Stack capture policy.
    pub stacks: StackMode,
    /// DBI stack profiling enabled.
    pub stack_profiling: bool,
    /// Loop-merge threshold (`None` = merging off).
    pub merge_threshold: Option<u64>,
    /// Per-run instruction budget.
    pub max_insns: u64,
    /// Strict mode (fail on truncation/divergence).
    pub strict: bool,
    /// Whether partial profiles may flow into the analysis.
    pub allow_partial: bool,
    /// Checkpoint cadence in committed instructions.
    pub checkpoint_every: u64,
}

impl CheckpointSpec {
    /// The spec of a run of `workload` at input `size` under `config`, on
    /// the core model named `arch` with no overrides: the inverse of
    /// [`CheckpointSpec::to_config`]. `module_hash` is the
    /// `optiwise::module_fingerprint` of the build being profiled.
    pub fn from_config(
        module_hash: u64,
        workload: &str,
        size: &str,
        arch: &str,
        config: &OptiwiseConfig,
        checkpoint_every: u64,
    ) -> CheckpointSpec {
        CheckpointSpec {
            module_hash,
            workload: workload.to_string(),
            size: size.to_string(),
            arch: arch.to_string(),
            overrides: Vec::new(),
            rand_seed: config.rand_seed,
            period: config.sampler.period,
            jitter: config.sampler.jitter,
            sampler_seed: config.sampler.seed,
            attribution: config.sampler.attribution,
            stacks: config.sampler.stacks,
            stack_profiling: config.dbi.stack_profiling,
            merge_threshold: config.analysis.merge_threshold,
            max_insns: config.max_insns,
            strict: config.strict,
            allow_partial: config.allow_partial,
            checkpoint_every,
        }
    }

    /// The core model this spec names, with any recorded overrides applied
    /// and the result validated by [`CoreConfig::resolve`] — the same path
    /// the CLI and daemon use — so a resumed run cannot drift from the
    /// label it will be stored under.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Store`]-class failure on an unknown arch name, an
    /// unknown override key, or an override grid that fails
    /// `CoreConfig::validate`.
    pub fn core_config(&self) -> Result<CoreConfig, OptiwiseError> {
        CoreConfig::resolve(&self.arch, &self.overrides).map_err(|e| {
            OptiwiseError::Store(StoreError::in_section(
                0,
                "CKPT",
                format!("bad core model in checkpoint: {e}"),
            ))
        })
    }

    /// Reconstructs the pipeline configuration of the interrupted run.
    /// `jobs` is the resume invocation's thread count — it does not affect
    /// output, so it is not part of the spec.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointSpec::core_config`] failures.
    pub fn to_config(&self, jobs: usize) -> Result<OptiwiseConfig, OptiwiseError> {
        Ok(OptiwiseConfig {
            core: self.core_config()?,
            sampler: SamplerConfig {
                period: self.period,
                jitter: self.jitter,
                seed: self.sampler_seed,
                attribution: self.attribution,
                stacks: self.stacks,
                ..SamplerConfig::default()
            },
            dbi: DbiConfig {
                stack_profiling: self.stack_profiling,
                ..DbiConfig::default()
            },
            analysis: optiwise::AnalysisOptions {
                merge_threshold: self.merge_threshold,
                jobs,
            },
            rand_seed: self.rand_seed,
            max_insns: self.max_insns,
            strict: self.strict,
            allow_partial: self.allow_partial,
            concurrent_passes: jobs > 1,
            ..OptiwiseConfig::default()
        })
    }
}

/// One persisted snapshot of an in-flight (or just-finished) run.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Run identity and configuration.
    pub spec: CheckpointSpec,
    /// Instructions the sampling pass had committed at its latest snapshot.
    pub sample_pos: u64,
    /// Instructions the instrumentation pass had counted at its latest
    /// snapshot.
    pub counts_pos: u64,
    /// Latest sampling profile; complete iff `truncated` is `None`.
    pub samples: Option<SampleProfile>,
    /// Latest counts profile; complete iff `truncated` is `None`.
    pub counts: Option<CountsProfile>,
}

impl Checkpoint {
    /// A fresh checkpoint with no progress: what `--checkpoint` writes
    /// before the passes start, so even a kill at instruction zero leaves a
    /// resumable file.
    pub fn fresh(spec: CheckpointSpec) -> Checkpoint {
        Checkpoint {
            spec,
            sample_pos: 0,
            counts_pos: 0,
            samples: None,
            counts: None,
        }
    }

    /// Whether the stored sampling pass ran to completion.
    pub fn sample_done(&self) -> bool {
        matches!(&self.samples, Some(p) if p.truncated.is_none())
    }

    /// Whether the stored instrumentation pass ran to completion.
    pub fn counts_done(&self) -> bool {
        matches!(&self.counts, Some(p) if p.truncated.is_none())
    }

    /// The completed passes, for `optiwise::RunControl::resume`. Partial
    /// profiles are deliberately left behind: those passes replay from
    /// instruction zero.
    pub fn resume_state(&self) -> ResumeState {
        ResumeState {
            samples: self.samples.clone().filter(|p| p.truncated.is_none()),
            counts: self.counts.clone().filter(|p| p.truncated.is_none()),
        }
    }

    /// Serializes to a complete `.owp` byte image. Deterministic: equal
    /// checkpoints produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections = vec![(TAG_CKPT, encode_ckpt(self))];
        if let Some(samples) = &self.samples {
            sections.push((TAG_SAMP, encode_samples(samples)));
        }
        if let Some(counts) = &self.counts {
            sections.push((TAG_CNTS, encode_counts(counts)));
        }
        write_store(&sections)
    }

    /// Decodes a checkpoint image. `CKPT` is required; profile sections are
    /// cross-validated exactly like a stored profile's, so a checkpoint
    /// that survived a crash either decodes cleanly or fails closed with a
    /// byte-precise diagnosis.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] locating the first problem.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, StoreError> {
        Checkpoint::from_bytes_limited(data, &ResourceLimits::default())
    }

    /// [`Checkpoint::from_bytes`] under an explicit allocation budget —
    /// declared counts are charged (cumulatively, across sections) against
    /// `limits.max_decode_alloc` before any allocation, so a hostile image
    /// fails closed instead of aborting on OOM.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::from_bytes`], plus budget-exceeded failures.
    pub fn from_bytes_limited(
        data: &[u8],
        limits: &ResourceLimits,
    ) -> Result<Checkpoint, StoreError> {
        let budget = DecodeBudget::new(limits.max_decode_alloc);
        let mut ckpt = None;
        let mut samples = None;
        let mut counts = None;
        for section in read_sections(data)? {
            let mut r = ByteReader::with_budget(
                section.payload,
                section.payload_offset,
                section.tag_name(),
                budget.clone(),
            );
            match section.tag {
                TAG_CKPT => {
                    ckpt = Some(decode_ckpt(&mut r)?);
                    r.expect_end()?;
                }
                TAG_SAMP => {
                    let start = r.offset();
                    let p = decode_samples(&mut r)?;
                    r.expect_end()?;
                    p.validate()
                        .map_err(|m| StoreError::in_section(start, section.tag_name(), m))?;
                    samples = Some(p);
                }
                TAG_CNTS => {
                    let start = r.offset();
                    let p = decode_counts(&mut r)?;
                    r.expect_end()?;
                    p.validate()
                        .map_err(|m| StoreError::in_section(start, section.tag_name(), m))?;
                    counts = Some(p);
                }
                _ => {} // unknown but checksum-valid: skip (forward compat)
            }
        }
        let (spec, sample_pos, counts_pos) = ckpt.ok_or_else(|| {
            StoreError::at(data.len() as u64, "missing required CKPT section")
        })?;
        Ok(Checkpoint {
            spec,
            sample_pos,
            counts_pos,
            samples,
            counts,
        })
    }

    /// Reads and decodes a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Io`] on filesystem failure, [`OptiwiseError::Store`]
    /// on a corrupted or malformed file.
    pub fn load(path: &Path) -> Result<Checkpoint, OptiwiseError> {
        let data = std::fs::read(path)
            .map_err(|e| OptiwiseError::Io(format!("{}: {e}", path.display())))?;
        Ok(Checkpoint::from_bytes(&data)?)
    }
}

fn attribution_code(a: Attribution) -> u8 {
    match a {
        Attribution::Interrupt => 0,
        Attribution::Precise => 1,
        Attribution::Predecessor => 2,
    }
}

fn stacks_code(s: StackMode) -> u8 {
    match s {
        StackMode::None => 0,
        StackMode::Accurate => 1,
    }
}

fn encode_ckpt(c: &Checkpoint) -> Vec<u8> {
    let s = &c.spec;
    let mut w = ByteWriter::new();
    w.u64(s.module_hash);
    w.string(&s.workload);
    w.string(&s.size);
    w.string(&s.arch);
    w.u64(s.rand_seed);
    w.u64(s.period);
    w.u64(s.jitter);
    w.u64(s.sampler_seed);
    w.u8(attribution_code(s.attribution));
    w.u8(stacks_code(s.stacks));
    w.u8(s.stack_profiling as u8);
    match s.merge_threshold {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            w.u64(t);
        }
    }
    w.u64(s.max_insns);
    w.u8(s.strict as u8);
    w.u8(s.allow_partial as u8);
    w.u64(s.checkpoint_every);
    w.u64(c.sample_pos);
    w.u64(c.counts_pos);
    // Optional tail (newer than the base format): uarch overrides. Old
    // images simply end here; the decoder gates on remaining bytes.
    w.u64(s.overrides.len() as u64);
    for (key, value) in &s.overrides {
        w.string(key);
        w.string(value);
    }
    w.into_bytes()
}

fn get_bool(r: &mut ByteReader<'_>, what: &str) -> Result<bool, StoreError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(r.error(format!("bad {what} flag {other}"))),
    }
}

fn decode_ckpt(r: &mut ByteReader<'_>) -> Result<(CheckpointSpec, u64, u64), StoreError> {
    let module_hash = r.u64("module_hash")?;
    let workload = r.string("workload")?;
    let size = r.string("size")?;
    let arch = r.string("arch")?;
    let rand_seed = r.u64("rand_seed")?;
    let period = r.u64("period")?;
    let jitter = r.u64("jitter")?;
    let sampler_seed = r.u64("sampler_seed")?;
    let attribution = match r.u8("attribution")? {
        0 => Attribution::Interrupt,
        1 => Attribution::Precise,
        2 => Attribution::Predecessor,
        other => return Err(r.error(format!("unknown attribution code {other}"))),
    };
    let stacks = match r.u8("stacks")? {
        0 => StackMode::None,
        1 => StackMode::Accurate,
        other => return Err(r.error(format!("unknown stack mode code {other}"))),
    };
    let stack_profiling = get_bool(r, "stack_profiling")?;
    let merge_threshold = match r.u8("merge_threshold tag")? {
        0 => None,
        1 => Some(r.u64("merge_threshold")?),
        other => return Err(r.error(format!("bad merge_threshold tag {other}"))),
    };
    let max_insns = r.u64("max_insns")?;
    let strict = get_bool(r, "strict")?;
    let allow_partial = get_bool(r, "allow_partial")?;
    let checkpoint_every = r.u64("checkpoint_every")?;
    let sample_pos = r.u64("sample_pos")?;
    let counts_pos = r.u64("counts_pos")?;
    let mut overrides = Vec::new();
    if r.remaining() > 0 {
        let n = r.len_mem(16, 2 * std::mem::size_of::<String>(), "override count")?;
        overrides.reserve(n);
        for _ in 0..n {
            let key = r.string("override key")?;
            let value = r.string("override value")?;
            overrides.push((key, value));
        }
    }
    Ok((
        CheckpointSpec {
            module_hash,
            workload,
            size,
            arch,
            overrides,
            rand_seed,
            period,
            jitter,
            sampler_seed,
            attribution,
            stacks,
            stack_profiling,
            merge_threshold,
            max_insns,
            strict,
            allow_partial,
            checkpoint_every,
        },
        sample_pos,
        counts_pos,
    ))
}

/// The run-side half of checkpointing: an `optiwise::RunControl` observer
/// that folds [`PassEvent`]s into a [`Checkpoint`] and persists it
/// atomically on every event.
///
/// With concurrent passes the observer is called from two threads; the
/// state lives behind a mutex, so writes serialize and each one captures a
/// consistent view of both passes. Persist failures are recorded (first
/// one wins) and surfaced by [`CheckpointWriter::finish`] rather than
/// aborting the run mid-pass — a broken checkpoint disk should not kill a
/// healthy profile run.
pub struct CheckpointWriter {
    path: PathBuf,
    /// 1-based ordinal of the write to crash in (fault injection): the
    /// writer emits a torn temp file, skips the rename, and kills the run
    /// through the token — the test double of `kill -9` mid-write.
    kill_in_write: Option<u64>,
    token: CancelToken,
    state: Mutex<WriterState>,
}

struct WriterState {
    ckpt: Checkpoint,
    writes: u64,
    /// Set once the injected crash has fired: a dead process writes
    /// nothing more, so every later persist is a no-op and the on-disk
    /// file stays frozen at its pre-crash state.
    crashed: bool,
    error: Option<String>,
}

impl CheckpointWriter {
    /// A writer persisting to `path`, starting from `initial` (a fresh
    /// checkpoint for a new run, the loaded one when resuming). `token` is
    /// the run's cancellation token, used only by the injected
    /// `kill_in_write` crash.
    pub fn new(
        path: impl Into<PathBuf>,
        initial: Checkpoint,
        token: CancelToken,
        kill_in_write: Option<u64>,
    ) -> CheckpointWriter {
        CheckpointWriter {
            path: path.into(),
            kill_in_write,
            token,
            state: Mutex::new(WriterState {
                ckpt: initial,
                writes: 0,
                crashed: false,
                error: None,
            }),
        }
    }

    /// Persists the current (possibly progress-free) checkpoint, so a kill
    /// before the first cadence boundary still leaves a resumable file.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Io`] when the initial write fails — this one *is*
    /// fatal, because a run asked to checkpoint into an unwritable path
    /// should stop before spending hours profiling.
    pub fn persist_initial(&self) -> Result<(), OptiwiseError> {
        let mut state = self.state.lock().expect("checkpoint writer poisoned");
        self.persist(&mut state);
        match state.error.take() {
            Some(e) => Err(OptiwiseError::Io(e)),
            None => Ok(()),
        }
    }

    /// Folds one pipeline event into the checkpoint and persists it.
    pub fn observe(&self, event: PassEvent<'_>) {
        let mut state = self.state.lock().expect("checkpoint writer poisoned");
        match event {
            PassEvent::SampleCheckpoint { retired, profile } => {
                state.ckpt.sample_pos = retired;
                state.ckpt.samples = Some(profile);
            }
            PassEvent::SampleDone { profile } => {
                state.ckpt.sample_pos = profile.retired;
                state.ckpt.samples = Some(profile.clone());
            }
            PassEvent::CountsCheckpoint { retired, profile } => {
                state.ckpt.counts_pos = retired;
                state.ckpt.counts = Some(profile);
            }
            PassEvent::CountsDone { profile } => {
                state.ckpt.counts_pos = profile.total_insns();
                state.ckpt.counts = Some(profile.clone());
            }
        }
        self.persist(&mut state);
    }

    fn persist(&self, state: &mut WriterState) {
        if state.crashed {
            return;
        }
        state.writes += 1;
        let bytes = state.ckpt.to_bytes();
        if self.kill_in_write == Some(state.writes) {
            state.crashed = true;
            // Injected crash mid-write: half the image lands in a torn temp
            // file, the rename never happens, and the run dies through the
            // token. The previously-renamed checkpoint (if any) survives
            // untouched — exactly the guarantee atomic_write exists for.
            let _ = std::fs::write(temp_path(&self.path), &bytes[..bytes.len() / 2]);
            self.token.kill();
            return;
        }
        if let Err(e) = atomic_write(&self.path, &bytes) {
            state
                .error
                .get_or_insert_with(|| format!("{}: {e}", self.path.display()));
        }
    }

    /// Surfaces the first persist failure, if any. Call after the run
    /// settles.
    ///
    /// # Errors
    ///
    /// [`OptiwiseError::Io`] describing the first failed write.
    pub fn finish(&self) -> Result<(), OptiwiseError> {
        let state = self.state.lock().expect("checkpoint writer poisoned");
        match &state.error {
            Some(e) => Err(OptiwiseError::Io(format!(
                "checkpoint writes failed; the file lags the run: {e}"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_sampler::Sample;
    use wiser_sim::{CodeLoc, ModuleId, TruncationReason};

    fn spec() -> CheckpointSpec {
        CheckpointSpec {
            module_hash: 0xfeed_beef_cafe_0001,
            workload: "counted_loop".into(),
            size: "test".into(),
            arch: "xeon".into(),
            overrides: vec![("rob_size".into(), "96".into())],
            rand_seed: 7,
            period: 2048,
            jitter: 512,
            sampler_seed: 0x5eed,
            attribution: Attribution::Interrupt,
            stacks: StackMode::Accurate,
            stack_profiling: true,
            merge_threshold: Some(16),
            max_insns: 200_000_000,
            strict: false,
            allow_partial: true,
            checkpoint_every: 10_000,
        }
    }

    fn partial_samples() -> SampleProfile {
        SampleProfile {
            module_names: vec!["m".into()],
            samples: vec![Sample {
                loc: CodeLoc {
                    module: ModuleId(0),
                    offset: 8,
                },
                weight: 2048,
                stack: vec![],
            }],
            period: 2048,
            total_cycles: 2100,
            unmapped: 0,
            retired: 1500,
            truncated: Some(TruncationReason::Cancelled(1500)),
        }
    }

    #[test]
    fn roundtrip_fresh_partial_and_mixed() {
        let fresh = Checkpoint::fresh(spec());
        assert_eq!(Checkpoint::from_bytes(&fresh.to_bytes()).unwrap(), fresh);
        assert!(!fresh.sample_done() && !fresh.counts_done());

        let mut partial = fresh.clone();
        partial.sample_pos = 1500;
        partial.samples = Some(partial_samples());
        let back = Checkpoint::from_bytes(&partial.to_bytes()).unwrap();
        assert_eq!(back, partial);
        assert!(!back.sample_done());
        assert!(back.resume_state().samples.is_none(), "partial must replay");

        let mut done = partial;
        done.samples.as_mut().unwrap().truncated = None;
        let back = Checkpoint::from_bytes(&done.to_bytes()).unwrap();
        assert!(back.sample_done());
        assert!(back.resume_state().samples.is_some());
    }

    #[test]
    fn pre_override_images_decode_with_empty_overrides() {
        // An image written before the overrides tail existed ends right
        // after counts_pos; decoding must yield an empty override list,
        // not an error.
        let mut c = Checkpoint::fresh(spec());
        c.spec.overrides.clear();
        let full = encode_ckpt(&c);
        let legacy = full[..full.len() - 8].to_vec(); // drop the zero count
        let image = write_store(&[(TAG_CKPT, legacy)]);
        let back = Checkpoint::from_bytes(&image).unwrap();
        assert_eq!(back.spec, c.spec);
    }

    #[test]
    fn core_config_resolves_name_and_overrides() {
        let s = spec();
        let core = s.core_config().unwrap();
        assert_eq!(core.rob_size, 96, "override applied");

        let mut unknown = s.clone();
        unknown.arch = "wiser-ooo".into();
        assert!(unknown.core_config().is_err(), "stale label must not resolve");

        let mut bad_key = s.clone();
        bad_key.overrides.push(("warp_drive".into(), "9".into()));
        assert!(bad_key.core_config().is_err());

        let mut invalid = s;
        invalid.overrides.push(("rob_size".into(), "0".into()));
        assert!(invalid.core_config().is_err(), "grid must be validated");
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut c = Checkpoint::fresh(spec());
        c.samples = Some(partial_samples());
        assert_eq!(c.to_bytes(), c.to_bytes());
    }

    #[test]
    fn decode_bomb_counts_fail_closed_under_budget() {
        // A SAMP section whose module-name count is wire-plausible (4
        // bytes each) but memory-amplified (size_of::<String>() each):
        // under a tight budget the checkpoint decode must return a typed
        // error at the count, before the Vec::with_capacity call.
        let mut w = ByteWriter::new();
        w.u64(4096);
        for _ in 0..4096 {
            w.u32(0);
        }
        let image = write_store(&[(TAG_SAMP, w.into_bytes())]);
        let limits = ResourceLimits {
            max_decode_alloc: 1024,
            ..ResourceLimits::default()
        };
        let err = Checkpoint::from_bytes_limited(&image, &limits).unwrap_err();
        assert_eq!(err.section.as_deref(), Some("SAMP"), "{err}");
        assert!(err.message.contains("budget"), "{err}");
    }

    #[test]
    fn missing_ckpt_section_rejected() {
        let image = write_store(&[(TAG_SAMP, encode_samples(&partial_samples()))]);
        let err = Checkpoint::from_bytes(&image).unwrap_err();
        assert!(err.message.contains("CKPT"), "{err}");
    }

    #[test]
    fn spec_reconstructs_config() {
        let s = spec();
        let cfg = s.to_config(4).unwrap();
        assert_eq!(cfg.rand_seed, 7);
        assert_eq!(cfg.sampler.period, 2048);
        assert_eq!(cfg.analysis.merge_threshold, Some(16));
        assert_eq!(cfg.analysis.jobs, 4);
        assert!(cfg.concurrent_passes);
        assert!(!s.to_config(1).unwrap().concurrent_passes);

        let mut bad = spec();
        bad.arch = "cray".into();
        assert!(bad.to_config(1).is_err());

        // `from_config` inverts `to_config`; overrides are the caller's.
        let mut back = CheckpointSpec::from_config(
            s.module_hash,
            &s.workload,
            &s.size,
            &s.arch,
            &cfg,
            s.checkpoint_every,
        );
        assert!(back.overrides.is_empty());
        back.overrides = s.overrides.clone();
        assert_eq!(back, s);
    }

    #[test]
    fn writer_accumulates_events_and_persists_atomically() {
        let dir = std::env::temp_dir().join(format!("wiser-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("writer.owp");
        let writer = CheckpointWriter::new(
            &path,
            Checkpoint::fresh(spec()),
            CancelToken::new(),
            None,
        );
        writer.persist_initial().unwrap();
        let on_disk = Checkpoint::load(&path).unwrap();
        assert!(on_disk.samples.is_none());

        writer.observe(PassEvent::SampleCheckpoint {
            retired: 1500,
            profile: partial_samples(),
        });
        let on_disk = Checkpoint::load(&path).unwrap();
        assert_eq!(on_disk.sample_pos, 1500);
        assert!(!on_disk.sample_done());

        let mut complete = partial_samples();
        complete.truncated = None;
        writer.observe(PassEvent::SampleDone { profile: &complete });
        let on_disk = Checkpoint::load(&path).unwrap();
        assert!(on_disk.sample_done());
        writer.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_crash_leaves_torn_temp_and_kills_run() {
        let dir = std::env::temp_dir().join(format!("wiser-ckpt-kill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.owp");
        let token = CancelToken::new();
        let writer = CheckpointWriter::new(
            &path,
            Checkpoint::fresh(spec()),
            token.clone(),
            Some(2),
        );
        writer.persist_initial().unwrap(); // write 1: survives
        let good = std::fs::read(&path).unwrap();

        writer.observe(PassEvent::SampleCheckpoint {
            retired: 1500,
            profile: partial_samples(),
        }); // write 2: crashes
        assert!(token.is_cancelled());
        // The real checkpoint is untouched and still decodes.
        assert_eq!(std::fs::read(&path).unwrap(), good);
        Checkpoint::from_bytes(&good).unwrap();
        // The torn temp file exists (every temp name is unique, so find it
        // by the debris pattern) and fails closed.
        let torn_path = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .map(|n| crate::atomic::is_temp_debris(&n.to_string_lossy()))
                    .unwrap_or(false)
            })
            .expect("torn temp file left behind");
        let torn = std::fs::read(torn_path).unwrap();
        assert!(Checkpoint::from_bytes(&torn).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_initial_checkpoint_is_fatal() {
        let writer = CheckpointWriter::new(
            "/nonexistent-wiser-dir/ckpt.owp",
            Checkpoint::fresh(spec()),
            CancelToken::new(),
            None,
        );
        let err = writer.persist_initial().unwrap_err();
        assert!(matches!(err, OptiwiseError::Io(_)), "{err}");
    }
}
