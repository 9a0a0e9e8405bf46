//! The stored-profile document: what one `optiwise run --save` persists.
//!
//! A [`StoredProfile`] bundles the raw sampling profile, the raw DBI count
//! profile, and the joined analysis tables of one run, plus enough metadata
//! to label a diff. Sections:
//!
//! | tag    | contents                            | presence |
//! |--------|-------------------------------------|----------|
//! | `META` | run label, seed, tool version, arch | required |
//! | `SAMP` | raw [`SampleProfile`]               | optional |
//! | `CNTS` | raw [`CountsProfile`]               | optional |
//! | `TABL` | joined [`ProfileTables`]            | required |
//! | `COVR` | per-function [`Coverage`] markers   | optional |
//! | `UCFG` | full resolved [`CoreConfig`]        | optional |
//!
//! Forward compatibility: `CNTS` carries the counter-placement tallies and
//! suppression lists as an *optional tail* (older images simply end before
//! it and decode with exhaustive defaults), and `COVR` is a separate
//! section so pre-selective readers skip it as unknown. Decoders lacking
//! `COVR` derive every function's coverage from the analysis mode.
//! `UCFG` records the run's complete resolved uarch configuration as
//! `(key, value)` string pairs (the `CoreConfig::to_pairs` wire form), so
//! an archived run is self-describing even when its `META.arch` preset
//! name later changes meaning; readers predating `UCFG` skip it as
//! unknown, and unknown *keys* inside it are skipped as future fields.
//!
//! Encoding is fully deterministic — collections are written in their
//! already-deterministic in-memory order and the one `HashMap`
//! (`callee_counts`) is sorted first — so the same run serializes to the
//! same bytes whatever the thread count.

use std::collections::HashMap;
use std::mem::size_of;

use optiwise::{
    AnalysisMode, Coverage, FuncStats, LineStats, LoopStats, OptiwiseError, OptiwiseRun,
    ProfileTables, ResourceLimits, StoreError, TransformKind, TransformLog, TransformRecord,
};
use wiser_dbi::{BlockCount, CounterPlacement, CountsProfile, InstrumentationCost, TermKind};
use wiser_sampler::{Sample, SampleProfile};
use wiser_sim::{CodeLoc, ConfigErrorKind, CoreConfig, ModuleId, TruncationReason};

use crate::format::{read_sections, write_store, ByteReader, ByteWriter, DecodeBudget};

const TAG_META: [u8; 4] = *b"META";
pub(crate) const TAG_SAMP: [u8; 4] = *b"SAMP";
pub(crate) const TAG_CNTS: [u8; 4] = *b"CNTS";
const TAG_TABL: [u8; 4] = *b"TABL";
const TAG_COVR: [u8; 4] = *b"COVR";
const TAG_XFRM: [u8; 4] = *b"XFRM";
const TAG_UCFG: [u8; 4] = *b"UCFG";

/// Identity of a stored run, for labelling reports and diffs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Free-form label (workload name, build id, ...).
    pub label: String,
    /// The deterministic input seed the run used.
    pub rand_seed: u64,
    /// Version of the tool that wrote the file.
    pub tool_version: String,
    /// Architecture / core model identifier.
    pub arch: String,
}

/// One profiling run in persistable form.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredProfile {
    /// Run identity.
    pub meta: RunMeta,
    /// Raw sampling profile, when persisted.
    pub samples: Option<SampleProfile>,
    /// Raw instrumentation profile, when persisted.
    pub counts: Option<CountsProfile>,
    /// The joined analysis tables (always present — the part `show` and
    /// `diff` operate on).
    pub tables: ProfileTables,
    /// Provenance of profile-guided rewrites that produced the profiled
    /// binary (empty for ordinary profiling runs; stored as an `XFRM`
    /// section only when non-empty, so older readers skip it).
    pub transforms: TransformLog,
    /// The full resolved uarch configuration the run simulated (stored as a
    /// `UCFG` section). `None` for images written before `UCFG` existed.
    pub uarch: Option<CoreConfig>,
}

impl StoredProfile {
    /// Packages a finished pipeline run for persistence. `arch` is the
    /// preset name the run was configured with (`wiser_sim::ARCH_NAMES` —
    /// the same source the CLI's `--arch` resolves through) and `core` the
    /// fully resolved configuration, overrides included; both are recorded
    /// so the stored run is self-describing.
    pub fn from_run(
        label: impl Into<String>,
        run: &OptiwiseRun,
        rand_seed: u64,
        arch: &str,
        core: CoreConfig,
    ) -> StoredProfile {
        StoredProfile {
            meta: RunMeta {
                label: label.into(),
                rand_seed,
                tool_version: env!("CARGO_PKG_VERSION").to_string(),
                arch: arch.to_string(),
            },
            samples: Some(run.samples.clone()),
            counts: Some(run.counts.clone()),
            tables: ProfileTables::from_analysis(&run.analysis),
            transforms: TransformLog::default(),
            uarch: Some(core),
        }
    }

    /// Serializes to a complete `.owp` byte image. Deterministic: equal
    /// profiles produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections = vec![(TAG_META, encode_meta(&self.meta))];
        if let Some(samples) = &self.samples {
            sections.push((TAG_SAMP, encode_samples(samples)));
        }
        if let Some(counts) = &self.counts {
            sections.push((TAG_CNTS, encode_counts(counts)));
        }
        sections.push((TAG_TABL, encode_tables(&self.tables)));
        sections.push((TAG_COVR, encode_coverage(&self.tables)));
        if !self.transforms.is_empty() {
            sections.push((TAG_XFRM, encode_transforms(&self.transforms)));
        }
        if let Some(core) = &self.uarch {
            sections.push((TAG_UCFG, encode_uarch(core)));
        }
        write_store(&sections)
    }

    /// Decodes a `.owp` byte image.
    ///
    /// Unknown sections are skipped after checksum verification (forward
    /// compatibility); `META` and `TABL` are required. Every decoded
    /// structure is then cross-validated ([`SampleProfile::validate`],
    /// [`CountsProfile::validate`], `ProfileTables::validate`) so a file
    /// that frames correctly but references undeclared modules still fails
    /// closed.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] with the absolute byte offset and section
    /// of the first problem.
    pub fn from_bytes(data: &[u8]) -> Result<StoredProfile, StoreError> {
        StoredProfile::from_bytes_limited(data, &ResourceLimits::default())
    }

    /// [`StoredProfile::from_bytes`] under an explicit allocation budget:
    /// every declared count is charged at its in-memory element size
    /// against `limits.max_decode_alloc` (cumulatively, across sections)
    /// before any `with_capacity` call, so a hostile image fails closed
    /// with a byte-offset error instead of aborting on OOM.
    ///
    /// # Errors
    ///
    /// As [`StoredProfile::from_bytes`], plus budget-exceeded failures.
    pub fn from_bytes_limited(
        data: &[u8],
        limits: &ResourceLimits,
    ) -> Result<StoredProfile, StoreError> {
        let budget = DecodeBudget::new(limits.max_decode_alloc);
        let mut meta = None;
        let mut samples = None;
        let mut counts = None;
        let mut tables = None;
        let mut coverage: Option<(u64, Vec<Coverage>)> = None;
        let mut transforms = TransformLog::default();
        let mut uarch = None;
        for section in read_sections(data)? {
            let mut r = ByteReader::with_budget(
                section.payload,
                section.payload_offset,
                section.tag_name(),
                budget.clone(),
            );
            match section.tag {
                TAG_META => {
                    meta = Some(decode_meta(&mut r)?);
                    r.expect_end()?;
                }
                TAG_SAMP => {
                    let start = r.offset();
                    let p = decode_samples(&mut r)?;
                    r.expect_end()?;
                    p.validate().map_err(|m| {
                        StoreError::in_section(start, section.tag_name(), m)
                    })?;
                    samples = Some(p);
                }
                TAG_CNTS => {
                    let start = r.offset();
                    let p = decode_counts(&mut r)?;
                    r.expect_end()?;
                    p.validate().map_err(|m| {
                        StoreError::in_section(start, section.tag_name(), m)
                    })?;
                    counts = Some(p);
                }
                TAG_TABL => {
                    let start = r.offset();
                    let t = decode_tables(&mut r)?;
                    r.expect_end()?;
                    t.validate().map_err(|m| {
                        StoreError::in_section(start, section.tag_name(), m)
                    })?;
                    tables = Some(t);
                }
                TAG_COVR => {
                    let start = r.offset();
                    let c = decode_coverage(&mut r)?;
                    r.expect_end()?;
                    coverage = Some((start, c));
                }
                TAG_XFRM => {
                    let t = decode_transforms(&mut r)?;
                    r.expect_end()?;
                    transforms = t;
                }
                TAG_UCFG => {
                    uarch = Some(decode_uarch(&mut r)?);
                    r.expect_end()?;
                }
                _ => {} // unknown but checksum-valid: skip (forward compat)
            }
        }
        let meta = meta
            .ok_or_else(|| StoreError::at(data.len() as u64, "missing required META section"))?;
        let mut tables: ProfileTables = tables
            .ok_or_else(|| StoreError::at(data.len() as u64, "missing required TABL section"))?;
        match coverage {
            Some((start, cov)) => {
                if cov.len() != tables.functions.len() {
                    return Err(StoreError::in_section(
                        start,
                        "COVR",
                        format!(
                            "coverage count {} does not match function count {}",
                            cov.len(),
                            tables.functions.len()
                        ),
                    ));
                }
                for (f, c) in tables.functions.iter_mut().zip(cov) {
                    f.coverage = c;
                }
            }
            // Pre-selective image: every function shares the run's mode.
            None => {
                let derived = match tables.mode {
                    AnalysisMode::Full => Coverage::Counted,
                    AnalysisMode::SamplingOnly => Coverage::SamplingOnly,
                };
                for f in &mut tables.functions {
                    f.coverage = derived;
                }
            }
        }
        Ok(StoredProfile {
            meta,
            samples,
            counts,
            tables,
            transforms,
            uarch,
        })
    }

    /// Writes the profile to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`OptiwiseError::Io`] on filesystem failure.
    pub fn save(&self, path: &std::path::Path) -> Result<(), OptiwiseError> {
        crate::atomic::atomic_write(path, &self.to_bytes())
            .map_err(|e| OptiwiseError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and decodes a profile from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`OptiwiseError::Io`] on filesystem failure and
    /// [`OptiwiseError::Store`] on a corrupted or malformed file.
    pub fn load(path: &std::path::Path) -> Result<StoredProfile, OptiwiseError> {
        let data = std::fs::read(path)
            .map_err(|e| OptiwiseError::Io(format!("{}: {e}", path.display())))?;
        Ok(StoredProfile::from_bytes(&data)?)
    }
}

fn encode_meta(meta: &RunMeta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.string(&meta.label);
    w.u64(meta.rand_seed);
    w.string(&meta.tool_version);
    w.string(&meta.arch);
    w.into_bytes()
}

fn decode_meta(r: &mut ByteReader<'_>) -> Result<RunMeta, StoreError> {
    Ok(RunMeta {
        label: r.string("label")?,
        rand_seed: r.u64("rand_seed")?,
        tool_version: r.string("tool_version")?,
        arch: r.string("arch")?,
    })
}

fn encode_uarch(core: &CoreConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let pairs = core.to_pairs();
    w.u64(pairs.len() as u64);
    for (key, value) in &pairs {
        w.string(key);
        w.string(value);
    }
    w.into_bytes()
}

fn decode_uarch(r: &mut ByteReader<'_>) -> Result<CoreConfig, StoreError> {
    let n = r.len_mem(16, 2 * size_of::<String>(), "uarch pair count")?;
    let mut core = CoreConfig::xeon_like();
    for _ in 0..n {
        let at = r.offset();
        let key = r.string("uarch key")?;
        let value = r.string("uarch value")?;
        // An unrecognised key is a field from a newer tool: skip it
        // (forward compat within the section). A known key with an
        // unparsable value is corruption and fails closed.
        if let Err(e) = core.apply_override(&key, &value) {
            if e.kind != ConfigErrorKind::UnknownKey {
                return Err(StoreError::in_section(at, "UCFG", e.to_string()));
            }
        }
    }
    Ok(core)
}

fn put_loc(w: &mut ByteWriter, loc: CodeLoc) {
    w.u32(loc.module.0);
    w.u64(loc.offset);
}

fn get_loc(r: &mut ByteReader<'_>, what: &str) -> Result<CodeLoc, StoreError> {
    Ok(CodeLoc {
        module: ModuleId(r.u32(what)?),
        offset: r.u64(what)?,
    })
}

fn put_truncation(w: &mut ByteWriter, t: &Option<TruncationReason>) {
    match t {
        None => w.u8(0),
        Some(TruncationReason::InsnLimit(n)) => {
            w.u8(1);
            w.u64(*n);
        }
        Some(TruncationReason::Injected(n)) => {
            w.u8(2);
            w.u64(*n);
        }
        Some(TruncationReason::ExecFault { pc, message }) => {
            w.u8(3);
            w.u64(*pc);
            w.string(message);
        }
        Some(TruncationReason::Cancelled(n)) => {
            w.u8(4);
            w.u64(*n);
        }
    }
}

fn get_truncation(r: &mut ByteReader<'_>) -> Result<Option<TruncationReason>, StoreError> {
    Ok(match r.u8("truncation tag")? {
        0 => None,
        1 => Some(TruncationReason::InsnLimit(r.u64("truncation limit")?)),
        2 => Some(TruncationReason::Injected(r.u64("truncation point")?)),
        3 => Some(TruncationReason::ExecFault {
            pc: r.u64("fault pc")?,
            message: r.string("fault message")?,
        }),
        4 => Some(TruncationReason::Cancelled(r.u64("cancellation point")?)),
        other => return Err(r.error(format!("unknown truncation tag {other}"))),
    })
}

fn put_module_names(w: &mut ByteWriter, names: &[String]) {
    w.len(names.len());
    for name in names {
        w.string(name);
    }
}

fn get_module_names(r: &mut ByteReader<'_>) -> Result<Vec<String>, StoreError> {
    let n = r.len_mem(4, size_of::<String>(), "module count")?;
    let mut names = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(r.string("module name")?);
    }
    Ok(names)
}

pub(crate) fn encode_samples(p: &SampleProfile) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_module_names(&mut w, &p.module_names);
    w.u64(p.period);
    w.u64(p.total_cycles);
    w.u64(p.unmapped);
    w.u64(p.retired);
    put_truncation(&mut w, &p.truncated);
    w.len(p.samples.len());
    for s in &p.samples {
        put_loc(&mut w, s.loc);
        w.u64(s.weight);
        w.len(s.stack.len());
        for frame in &s.stack {
            put_loc(&mut w, *frame);
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_samples(r: &mut ByteReader<'_>) -> Result<SampleProfile, StoreError> {
    let module_names = get_module_names(r)?;
    let period = r.u64("period")?;
    let total_cycles = r.u64("total_cycles")?;
    let unmapped = r.u64("unmapped")?;
    let retired = r.u64("retired")?;
    let truncated = get_truncation(r)?;
    let n = r.len_mem(28, size_of::<Sample>(), "sample count")?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let loc = get_loc(r, "sample loc")?;
        let weight = r.u64("sample weight")?;
        let depth = r.len_mem(12, size_of::<CodeLoc>(), "stack depth")?;
        let mut stack = Vec::with_capacity(depth);
        for _ in 0..depth {
            stack.push(get_loc(r, "stack frame")?);
        }
        samples.push(Sample { loc, weight, stack });
    }
    Ok(SampleProfile {
        module_names,
        samples,
        period,
        total_cycles,
        unmapped,
        retired,
        truncated,
    })
}

fn term_code(t: TermKind) -> u8 {
    match t {
        TermKind::DirectJump => 0,
        TermKind::CondBranch => 1,
        TermKind::Indirect => 2,
        TermKind::DirectCall => 3,
        TermKind::Syscall => 4,
        TermKind::Fallthrough => 5,
    }
}

fn term_from_code(c: u8) -> Option<TermKind> {
    Some(match c {
        0 => TermKind::DirectJump,
        1 => TermKind::CondBranch,
        2 => TermKind::Indirect,
        3 => TermKind::DirectCall,
        4 => TermKind::Syscall,
        5 => TermKind::Fallthrough,
        _ => return None,
    })
}

pub(crate) fn encode_counts(p: &CountsProfile) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_module_names(&mut w, &p.module_names);
    w.u8(p.stack_profiling as u8);
    w.u64(p.cost.native_insns);
    w.u64(p.cost.instrumented_insns);
    w.u64(p.cost.unique_blocks);
    w.u64(p.cost.block_execs);
    w.u64(p.cost.indirect_execs);
    put_truncation(&mut w, &p.truncated);
    w.len(p.blocks.len());
    for b in &p.blocks {
        put_loc(&mut w, b.entry);
        w.u32(b.len);
        w.u64(b.count);
        w.u8(term_code(b.term));
        match b.direct_target {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                put_loc(&mut w, t);
            }
        }
        w.u64(b.fallthrough);
        w.len(b.targets.len());
        for (t, c) in &b.targets {
            put_loc(&mut w, *t);
            w.u64(*c);
        }
    }
    // The one HashMap in the document: sort before writing so identical
    // profiles are byte-identical.
    let callees = p.sorted_callee_counts();
    w.len(callees.len());
    for (site, count) in callees {
        put_loc(&mut w, site);
        w.u64(count);
    }
    // Optional tail (readers gate on bytes remaining): counter tallies and
    // the minimal counter placement. Older images end here and decode with
    // exhaustive defaults.
    w.u64(p.cost.counters_placed);
    w.u64(p.cost.counters_suppressed);
    match &p.placement {
        None => w.u8(0),
        Some(pl) => {
            w.u8(1);
            w.u8(pl.recovered as u8);
            w.u64(pl.total_insns);
            w.len(pl.vertex_suppressed.len());
            for &i in &pl.vertex_suppressed {
                w.u32(i);
            }
            w.len(pl.fallthrough_suppressed.len());
            for &i in &pl.fallthrough_suppressed {
                w.u32(i);
            }
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_counts(r: &mut ByteReader<'_>) -> Result<CountsProfile, StoreError> {
    let module_names = get_module_names(r)?;
    let stack_profiling = match r.u8("stack_profiling")? {
        0 => false,
        1 => true,
        other => return Err(r.error(format!("bad stack_profiling flag {other}"))),
    };
    let cost = InstrumentationCost {
        native_insns: r.u64("native_insns")?,
        instrumented_insns: r.u64("instrumented_insns")?,
        unique_blocks: r.u64("unique_blocks")?,
        block_execs: r.u64("block_execs")?,
        indirect_execs: r.u64("indirect_execs")?,
        counters_placed: 0,
        counters_suppressed: 0,
    };
    let truncated = get_truncation(r)?;
    let n = r.len_mem(43, size_of::<BlockCount>(), "block count")?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = get_loc(r, "block entry")?;
        let len = r.u32("block len")?;
        let count = r.u64("block count")?;
        let term_byte = r.u8("terminator")?;
        let term = term_from_code(term_byte)
            .ok_or_else(|| r.error(format!("unknown terminator code {term_byte}")))?;
        let direct_target = match r.u8("target tag")? {
            0 => None,
            1 => Some(get_loc(r, "direct target")?),
            other => return Err(r.error(format!("bad target tag {other}"))),
        };
        let fallthrough = r.u64("fallthrough")?;
        let n_targets = r.len_mem(20, size_of::<(CodeLoc, u64)>(), "indirect target count")?;
        let mut targets = Vec::with_capacity(n_targets);
        for _ in 0..n_targets {
            let loc = get_loc(r, "indirect target")?;
            targets.push((loc, r.u64("indirect target count")?));
        }
        blocks.push(BlockCount {
            entry,
            len,
            count,
            term,
            direct_target,
            fallthrough,
            targets,
        });
    }
    // A hash map over-allocates past its load factor: charge double the
    // entry size so the budget covers what the table actually reserves.
    let n_callees = r.len_mem(20, 2 * size_of::<(CodeLoc, u64)>(), "callee count")?;
    let mut callee_counts = HashMap::with_capacity(n_callees);
    for _ in 0..n_callees {
        let site = get_loc(r, "callee site")?;
        callee_counts.insert(site, r.u64("callee total")?);
    }
    let mut cost = cost;
    let mut placement = None;
    if r.remaining() > 0 {
        cost.counters_placed = r.u64("counters_placed")?;
        cost.counters_suppressed = r.u64("counters_suppressed")?;
        match r.u8("placement tag")? {
            0 => {}
            1 => {
                let recovered = match r.u8("placement recovered")? {
                    0 => false,
                    1 => true,
                    other => return Err(r.error(format!("bad recovered flag {other}"))),
                };
                let total_insns = r.u64("placement total")?;
                let nv = r.len_mem(4, size_of::<u32>(), "suppressed vertex count")?;
                let mut vertex_suppressed = Vec::with_capacity(nv);
                for _ in 0..nv {
                    vertex_suppressed.push(r.u32("suppressed vertex")?);
                }
                let nf = r.len_mem(4, size_of::<u32>(), "suppressed fallthrough count")?;
                let mut fallthrough_suppressed = Vec::with_capacity(nf);
                for _ in 0..nf {
                    fallthrough_suppressed.push(r.u32("suppressed fallthrough")?);
                }
                placement = Some(CounterPlacement {
                    vertex_suppressed,
                    fallthrough_suppressed,
                    total_insns,
                    recovered,
                });
            }
            other => return Err(r.error(format!("bad placement tag {other}"))),
        }
    }
    Ok(CountsProfile {
        module_names,
        blocks,
        callee_counts,
        stack_profiling,
        cost,
        placement,
        truncated,
    })
}

fn mode_code(m: AnalysisMode) -> u8 {
    match m {
        AnalysisMode::Full => 0,
        AnalysisMode::SamplingOnly => 1,
    }
}

/// One coverage byte per function, in `TABL` function order.
fn encode_coverage(t: &ProfileTables) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len(t.functions.len());
    for f in &t.functions {
        w.u8(match f.coverage {
            Coverage::Counted => 0,
            Coverage::SamplingOnly => 1,
        });
    }
    w.into_bytes()
}

fn decode_coverage(r: &mut ByteReader<'_>) -> Result<Vec<Coverage>, StoreError> {
    let n = r.len_mem(1, size_of::<Coverage>(), "coverage count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match r.u8("coverage")? {
            0 => Coverage::Counted,
            1 => Coverage::SamplingOnly,
            other => return Err(r.error(format!("unknown coverage code {other}"))),
        });
    }
    Ok(out)
}

/// Transform provenance: which profile-guided rewrites produced the binary
/// this profile describes. Framed like every other section (CRC32 over
/// tag+payload), count-prefixed, unknown kinds rejected.
fn encode_transforms(log: &TransformLog) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len(log.records.len());
    for rec in &log.records {
        w.u32(rec.module);
        w.string(&rec.function);
        w.u8(rec.kind.code());
        w.string(&rec.detail);
    }
    w.len(log.notes.len());
    for note in &log.notes {
        w.string(note);
    }
    w.into_bytes()
}

fn decode_transforms(r: &mut ByteReader<'_>) -> Result<TransformLog, StoreError> {
    let n = r.len_mem(7, size_of::<TransformRecord>(), "transform record count")?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let module = r.u32("transform module")?;
        let function = r.string("transform function")?;
        let code = r.u8("transform kind")?;
        let kind = TransformKind::from_code(code)
            .ok_or_else(|| r.error(format!("unknown transform kind {code}")))?;
        let detail = r.string("transform detail")?;
        records.push(TransformRecord {
            module,
            function,
            kind,
            detail,
        });
    }
    let n = r.len_mem(2, size_of::<String>(), "transform note count")?;
    let mut notes = Vec::with_capacity(n);
    for _ in 0..n {
        notes.push(r.string("transform note")?);
    }
    Ok(TransformLog { records, notes })
}

fn encode_tables(t: &ProfileTables) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(mode_code(t.mode));
    w.u64(t.wall_cycles);
    w.u64(t.total_cycles);
    w.u64(t.total_insns);
    put_module_names(&mut w, &t.modules);
    w.len(t.functions.len());
    for f in &t.functions {
        w.u32(f.module);
        w.string(&f.name);
        w.u64(f.self_cycles);
        w.u64(f.incl_cycles);
        w.u64(f.self_samples);
        w.u64(f.self_insns);
        w.u64(f.incl_insns);
    }
    w.len(t.loops.len());
    for l in &t.loops {
        w.u32(l.module);
        w.string(&l.function);
        w.u64(l.header_offset);
        w.u64(l.depth as u64);
        match l.parent {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                w.u64(p as u64);
            }
        }
        w.u64(l.iterations);
        w.u64(l.invocations);
        w.u64(l.body_insns);
        w.u64(l.total_insns);
        w.u64(l.cycles);
        w.u64(l.samples);
        match &l.lines {
            None => w.u8(0),
            Some((file, lo, hi)) => {
                w.u8(1);
                w.string(file);
                w.u32(*lo);
                w.u32(*hi);
            }
        }
    }
    w.len(t.lines.len());
    for l in &t.lines {
        w.u32(l.module);
        w.string(&l.file);
        w.u32(l.line);
        w.u64(l.cycles);
        w.u64(l.samples);
        w.u64(l.count);
    }
    w.into_bytes()
}

fn decode_tables(r: &mut ByteReader<'_>) -> Result<ProfileTables, StoreError> {
    let mode = match r.u8("analysis mode")? {
        0 => AnalysisMode::Full,
        1 => AnalysisMode::SamplingOnly,
        other => return Err(r.error(format!("unknown analysis mode {other}"))),
    };
    let wall_cycles = r.u64("wall_cycles")?;
    let total_cycles = r.u64("total_cycles")?;
    let total_insns = r.u64("total_insns")?;
    let modules = get_module_names(r)?;
    let n = r.len_mem(48, size_of::<FuncStats>(), "function count")?;
    let mut functions = Vec::with_capacity(n);
    for _ in 0..n {
        functions.push(FuncStats {
            module: r.u32("function module")?,
            name: r.string("function name")?,
            self_cycles: r.u64("self_cycles")?,
            incl_cycles: r.u64("incl_cycles")?,
            self_samples: r.u64("self_samples")?,
            self_insns: r.u64("self_insns")?,
            incl_insns: r.u64("incl_insns")?,
            // Fixed up from the COVR section (or derived from the mode)
            // once all sections are read.
            coverage: Coverage::Counted,
        });
    }
    let n = r.len_mem(74, size_of::<LoopStats>(), "loop count")?;
    let mut loops = Vec::with_capacity(n);
    for _ in 0..n {
        let module = r.u32("loop module")?;
        let function = r.string("loop function")?;
        let header_offset = r.u64("header_offset")?;
        let depth = r.u64("depth")? as usize;
        let parent = match r.u8("parent tag")? {
            0 => None,
            1 => Some(r.u64("parent index")? as usize),
            other => return Err(r.error(format!("bad parent tag {other}"))),
        };
        let iterations = r.u64("iterations")?;
        let invocations = r.u64("invocations")?;
        let body_insns = r.u64("body_insns")?;
        let total_insns = r.u64("loop total_insns")?;
        let cycles = r.u64("loop cycles")?;
        let samples = r.u64("loop samples")?;
        let lines = match r.u8("lines tag")? {
            0 => None,
            1 => {
                let file = r.string("loop file")?;
                let lo = r.u32("line lo")?;
                let hi = r.u32("line hi")?;
                Some((file, lo, hi))
            }
            other => return Err(r.error(format!("bad lines tag {other}"))),
        };
        loops.push(LoopStats {
            module,
            function,
            header_offset,
            depth,
            parent,
            iterations,
            invocations,
            body_insns,
            total_insns,
            cycles,
            samples,
            lines,
        });
    }
    let n = r.len_mem(36, size_of::<LineStats>(), "line count")?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        lines.push(LineStats {
            module: r.u32("line module")?,
            file: r.string("line file")?,
            line: r.u32("line number")?,
            cycles: r.u64("line cycles")?,
            samples: r.u64("line samples")?,
            count: r.u64("line count")?,
        });
    }
    Ok(ProfileTables {
        mode,
        wall_cycles,
        total_cycles,
        total_insns,
        modules,
        functions,
        loops,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optiwise::{run_optiwise, OptiwiseConfig};
    use wiser_isa::assemble;

    fn stored() -> StoredProfile {
        let module = assemble(
            "store_test",
            r#"
            .func _start global
            .loc "s.c" 1
                li x8, 30000
                li x9, 0
            loop:
            .loc "s.c" 3
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
            .loc "s.c" 5
                li x1, 0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let run = run_optiwise(&[module], &OptiwiseConfig::default()).unwrap();
        StoredProfile::from_run("store_test", &run, 0, "xeon", CoreConfig::xeon_like())
    }

    #[test]
    fn from_run_stamps_the_arch_it_is_given() {
        let p = stored();
        assert_eq!(p.meta.arch, "xeon");
        assert_eq!(p.uarch, Some(CoreConfig::xeon_like()));
    }

    #[test]
    fn uarch_section_round_trips() {
        let mut p = stored();
        let mut core = CoreConfig::neoverse_like();
        core.apply_override("rob_size", "96").unwrap();
        p.meta.arch = "neoverse".into();
        p.uarch = Some(core);
        let back = StoredProfile::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.uarch, Some(core));
    }

    #[test]
    fn images_without_ucfg_decode_with_no_uarch() {
        // A pre-UCFG writer's image: same sections, minus UCFG.
        let p = stored();
        let image = write_store(&[
            (TAG_META, encode_meta(&p.meta)),
            (TAG_TABL, encode_tables(&p.tables)),
            (TAG_COVR, encode_coverage(&p.tables)),
        ]);
        let back = StoredProfile::from_bytes(&image).unwrap();
        assert_eq!(back.uarch, None);
    }

    #[test]
    fn ucfg_skips_unknown_keys_but_rejects_corrupt_values() {
        let p = stored();
        // A "newer writer" pair list: known pairs plus a future key.
        let mut w = ByteWriter::new();
        w.u64(2);
        w.string("rob_size");
        w.string("64");
        w.string("quantum_bits");
        w.string("12");
        let image = write_store(&[
            (TAG_META, encode_meta(&p.meta)),
            (TAG_TABL, encode_tables(&p.tables)),
            (TAG_UCFG, w.into_bytes()),
        ]);
        let back = StoredProfile::from_bytes(&image).unwrap();
        let core = back.uarch.unwrap();
        assert_eq!(core.rob_size, 64, "known key applied");

        // A known key with garbage is corruption, not future-ness.
        let mut w = ByteWriter::new();
        w.u64(1);
        w.string("rob_size");
        w.string("lots");
        let image = write_store(&[
            (TAG_META, encode_meta(&p.meta)),
            (TAG_TABL, encode_tables(&p.tables)),
            (TAG_UCFG, w.into_bytes()),
        ]);
        let err = StoredProfile::from_bytes(&image).unwrap_err();
        assert!(err.message.contains("rob_size"), "{err}");
    }

    #[test]
    fn transform_log_round_trips_in_the_xfrm_section() {
        let mut p = stored();
        // Ordinary runs write no XFRM section and decode to an empty log.
        let plain = StoredProfile::from_bytes(&p.to_bytes()).unwrap();
        assert!(plain.transforms.is_empty());

        p.transforms = TransformLog {
            records: vec![
                TransformRecord {
                    module: 0,
                    function: "_start".into(),
                    kind: TransformKind::Layout,
                    detail: "reordered 4 blocks".into(),
                },
                TransformRecord {
                    module: 0,
                    function: "dispatch".into(),
                    kind: TransformKind::CallPromotion,
                    detail: "callr@0x40 -> handler (980/1000 calls)".into(),
                },
            ],
            notes: vec!["m:f: kept original layout (computed jump)".into()],
        };
        let bytes = p.to_bytes();
        let back = StoredProfile::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn roundtrip_is_lossless_and_deterministic() {
        let p = stored();
        let bytes = p.to_bytes();
        let back = StoredProfile::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        // Re-encoding the decoded profile reproduces the bytes exactly.
        assert_eq!(back.to_bytes(), bytes);
        // Encoding is a pure function of the value.
        assert_eq!(p.to_bytes(), bytes);
    }

    #[test]
    fn optional_sections_roundtrip() {
        let mut p = stored();
        p.samples = None;
        let back = StoredProfile::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);

        p.counts = None;
        let back = StoredProfile::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
        assert!(back.samples.is_none() && back.counts.is_none());
    }

    #[test]
    fn truncation_reasons_roundtrip() {
        for reason in [
            TruncationReason::InsnLimit(512),
            TruncationReason::Injected(7),
            TruncationReason::ExecFault {
                pc: 0x40,
                message: "bad jump".into(),
            },
            TruncationReason::Cancelled(4096),
        ] {
            let mut p = stored();
            p.samples.as_mut().unwrap().truncated = Some(reason.clone());
            p.counts.as_mut().unwrap().truncated = Some(reason);
            let back = StoredProfile::from_bytes(&p.to_bytes()).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn unrecovered_placement_roundtrips() {
        // A placed profile erases suppressed vertex counters to 0, so a
        // kept fall-through counter may exceed its block's stored count.
        let mut p = stored();
        let counts = p.counts.as_mut().unwrap();
        counts.blocks[0].count = 0;
        counts.blocks[0].fallthrough = 25;
        counts.placement = Some(CounterPlacement {
            vertex_suppressed: vec![0],
            fallthrough_suppressed: vec![],
            total_insns: 4321,
            recovered: false,
        });
        let back = StoredProfile::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn missing_required_sections_rejected() {
        // Craft an image with only a META section.
        let meta_only = write_store(&[(TAG_META, encode_meta(&RunMeta::default()))]);
        let err = StoredProfile::from_bytes(&meta_only).unwrap_err();
        assert!(err.message.contains("TABL"), "{err}");

        let tabl_only = write_store(&[(TAG_TABL, encode_tables(&stored().tables))]);
        let err = StoredProfile::from_bytes(&tabl_only).unwrap_err();
        assert!(err.message.contains("META"), "{err}");
    }

    #[test]
    fn unknown_sections_are_skipped_but_corrupt_ones_are_not() {
        let p = stored();
        // Rebuild the image with an extra unknown section in the middle —
        // a "newer writer" file. The reader must load it fine.
        let mut sections = vec![
            (TAG_META, encode_meta(&p.meta)),
            (*b"ZZZZ", vec![0xAB; 33]),
            (TAG_TABL, encode_tables(&p.tables)),
        ];
        let image = write_store(&sections);
        let back = StoredProfile::from_bytes(&image).unwrap();
        assert_eq!(back.meta, p.meta);
        assert_eq!(back.tables, p.tables);

        // But a corrupted unknown section still fails the checksum: being
        // unknown is not a license to skip integrity.
        sections[1].1[5] ^= 0x10;
        let mut bad = write_store(&sections);
        // write_store recomputes CRCs, so corrupt post-framing instead.
        let spans = crate::format::section_spans(&bad).unwrap();
        let zzzz = spans.iter().find(|(t, _, _)| t == "ZZZZ").unwrap();
        bad[zzzz.1 as usize + 3] ^= 0x40;
        let err = StoredProfile::from_bytes(&bad).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
        assert_eq!(err.section.as_deref(), Some("ZZZZ"));
    }

    #[test]
    fn cross_referential_damage_fails_validation() {
        // Valid framing, valid checksums — but the tables reference a
        // module that does not exist. Rebuilding the section from mutated
        // data keeps the CRC honest, so only validate() can catch this.
        let mut p = stored();
        p.tables.functions[0].module = 9;
        let image = p.to_bytes();
        let err = StoredProfile::from_bytes(&image).unwrap_err();
        assert_eq!(err.section.as_deref(), Some("TABL"), "{err}");
        assert!(err.message.contains("undeclared module 9"), "{err}");

        let mut p = stored();
        p.samples.as_mut().unwrap().samples[0].loc.module = ModuleId(7);
        let err = StoredProfile::from_bytes(&p.to_bytes()).unwrap_err();
        assert_eq!(err.section.as_deref(), Some("SAMP"), "{err}");

        let mut p = stored();
        p.counts.as_mut().unwrap().blocks[0].entry.module = ModuleId(5);
        let err = StoredProfile::from_bytes(&p.to_bytes()).unwrap_err();
        assert_eq!(err.section.as_deref(), Some("CNTS"), "{err}");
    }

    #[test]
    fn decode_bomb_counts_fail_closed_under_budget() {
        // A wire-*plausible* count (n × min_elem_size fits the payload)
        // whose in-memory expansion is huge: 4096 empty module names cost
        // 4 bytes each on the wire but size_of::<String>() each in memory.
        // Under a small budget the decode must return a typed StoreError
        // before allocating, never abort.
        let mut w = ByteWriter::new();
        let n = 4096u64;
        w.u64(n);
        for _ in 0..n {
            w.u32(0); // empty string
        }
        let payload = w.into_bytes();
        let image = write_store(&[(TAG_SAMP, payload)]);
        let limits = ResourceLimits {
            max_decode_alloc: 1024,
            ..ResourceLimits::default()
        };
        let err = StoredProfile::from_bytes_limited(&image, &limits).unwrap_err();
        assert_eq!(err.section.as_deref(), Some("SAMP"), "{err}");
        assert!(err.message.contains("budget"), "{err}");
        // The same image decodes fine under the default production budget
        // (it is only 16 KiB of wire data) — up to the later truncation.
        let err = StoredProfile::from_bytes(&image).unwrap_err();
        assert!(!err.message.contains("budget"), "{err}");
    }

    #[test]
    fn budget_is_cumulative_across_sections() {
        // Each section alone fits the budget; together they exceed it.
        // The cap must bound the whole decode, not each section. XFRM
        // payloads decode completely (0 records, 64 empty notes), so only
        // the cumulative charge can reject the second one.
        let one_section = || {
            let mut w = ByteWriter::new();
            w.u64(0); // records
            w.u64(64); // notes
            for _ in 0..64 {
                w.u32(0);
            }
            (TAG_XFRM, w.into_bytes())
        };
        let per_section = 64 * size_of::<String>() as u64;
        let image = write_store(&[one_section(), one_section()]);
        let limits = ResourceLimits {
            max_decode_alloc: per_section + per_section / 2,
            ..ResourceLimits::default()
        };
        let err = StoredProfile::from_bytes_limited(&image, &limits).unwrap_err();
        assert_eq!(err.section.as_deref(), Some("XFRM"), "{err}");
        assert!(err.message.contains("budget"), "{err}");
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let p = stored();
        let path = std::env::temp_dir().join("wiser-store-unit-test.owp");
        p.save(&path).unwrap();
        let back = StoredProfile::load(&path).unwrap();
        assert_eq!(back, p);
        let _ = std::fs::remove_file(&path);

        let err = StoredProfile::load(std::path::Path::new("/nonexistent/x.owp")).unwrap_err();
        assert!(matches!(err, OptiwiseError::Io(_)), "{err}");
    }
}
