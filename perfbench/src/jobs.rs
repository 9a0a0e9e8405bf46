//! One profiling job and one archived-run operation, each in an untraced
//! form (through the library's own entry points, as a user calls them) and
//! a traced form (the same calls made one layer at a time, inside spans).

use optiwise::report::{diff_report, full_report};
use optiwise::{
    diff_tables, module_fingerprint, run_optiwise, Analysis, AnalysisOptions, DiffOptions,
    OptiwiseConfig, OptiwiseRun, ProfileTables,
};
use wiser_archive::Archive;
use wiser_dbi::{instrument_run, DbiConfig};
use wiser_isa::Module;
use wiser_sampler::sample_run;
use wiser_sim::{
    run_timed, CoreConfig, CoreStats, Interp, LoadConfig, NoProbes, ProcessImage, SimError, Step,
};
use wiser_store::StoredProfile;
use wiser_workloads::InputSize;

use crate::gate::digest;
use crate::trace::{Kind, Scope, SpanId, Trace};

/// Rows per table in the text report, as `optiwise run` prints by default.
pub const TOP: usize = 15;

/// A program of the benchmark, built once while setting up.
pub struct Program {
    /// Registry name, e.g. `nab_like`.
    pub name: &'static str,
    /// Modules at `InputSize::Test`.
    pub modules: Vec<Module>,
    /// The module-relative view the analysis keys on.
    pub linked: Vec<Module>,
    /// [`module_fingerprint`] of the modules, for archive commits.
    pub fingerprint: u64,
}

impl Program {
    /// Builds `name`'s modules and their linked view.
    ///
    /// # Errors
    ///
    /// An unknown name, an assembler error or a loader error.
    pub fn build(name: &'static str) -> Result<Program, String> {
        let workload =
            wiser_workloads::by_name(name).ok_or_else(|| format!("no workload {name}"))?;
        let modules = workload.build(InputSize::Test).map_err(|e| e.to_string())?;
        let image = ProcessImage::load(&modules, &LoadConfig::default()).map_err(err)?;
        let linked = image.modules.iter().map(|m| m.linked.clone()).collect();
        let fingerprint = module_fingerprint(&modules);
        Ok(Program {
            name,
            modules,
            linked,
            fingerprint,
        })
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The pipeline configuration every workload uses: sequential passes and
/// one analysis job, so one run never overlaps two passes on the host's
/// cores. `seed` sets the program input seed and both ASLR seeds.
pub fn config(seed: u64, core: CoreConfig) -> OptiwiseConfig {
    let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    OptiwiseConfig {
        core,
        rand_seed: seed,
        aslr_seeds: (0x5a5a ^ mix, 0xa5a5 ^ mix),
        concurrent_passes: false,
        analysis: AnalysisOptions {
            jobs: 1,
            ..AnalysisOptions::default()
        },
        ..OptiwiseConfig::default()
    }
}

/// What a profiling job produced.
pub struct JobOut {
    /// Digest of the report text, the sampled run's `CoreStats` and the
    /// `.owp` bytes.
    pub digest: u64,
    /// Simulated instructions: sampling-pass retired plus
    /// instrumentation-pass native instructions.
    pub insns: u64,
    /// Pass attempts (2 when neither pass was retried).
    pub attempts: u32,
    /// The stored profile as `optiwise run --save` writes it.
    pub owp: Vec<u8>,
}

fn job_digest(report: &str, stats: &CoreStats, owp: &[u8]) -> u64 {
    digest(&[report.as_bytes(), format!("{stats:?}").as_bytes(), owp])
}

/// `optiwise run --save` on one program: the whole pipeline through
/// [`run_optiwise`], then the text report and the `.owp` bytes.
///
/// # Errors
///
/// Any pipeline error, as text.
pub fn profile_job(p: &Program, cfg: &OptiwiseConfig, arch: &str) -> Result<JobOut, String> {
    let run = run_optiwise(&p.modules, cfg).map_err(err)?;
    let owp = StoredProfile::from_run(p.name, &run, cfg.rand_seed, arch, cfg.core).to_bytes();
    let report = full_report(&run.analysis, TOP);
    Ok(JobOut {
        digest: job_digest(&report, &run.timed.stats, &owp),
        insns: run.timed.stats.retired + run.counts.cost.native_insns,
        attempts: run.attempts.0 + run.attempts.1,
        owp,
    })
}

/// Work counts of traced profiling jobs, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobCounts {
    /// Traced jobs.
    pub jobs: u64,
    /// Pass attempts of the untraced twins.
    pub attempts: u64,
    /// Sampled-run cycles, retired instructions and dispatch stalls.
    pub cycles: u64,
    /// See `cycles`.
    pub retired: u64,
    /// See `cycles`.
    pub rob_full: u64,
    /// See `cycles`.
    pub iq_full: u64,
    /// Cycles of the timing-only reference runs.
    pub reference_cycles: u64,
    /// Instructions of the interpreter-only reference runs.
    pub interp_insns: u64,
    /// Samples taken.
    pub samples: u64,
    /// DBI work counts.
    pub native_insns: u64,
    /// See `native_insns`.
    pub instrumented_insns: u64,
    /// See `native_insns`.
    pub block_execs: u64,
    /// See `native_insns`.
    pub indirect_execs: u64,
    /// See `native_insns`.
    pub counters_placed: u64,
    /// See `native_insns`.
    pub counters_suppressed: u64,
}

/// Runs `p` once untraced and once traced, then the reference executions
/// that split the interpreter, timing model, sampler and DBI self times.
/// The traced job must reproduce the untraced one's digest and the
/// interpreter must retire what the sampled run retired.
///
/// # Errors
///
/// A pipeline error or any disagreement between the executions.
pub fn traced_profile_job(
    tr: &mut Trace,
    job: u64,
    p: &Program,
    cfg: &OptiwiseConfig,
    arch: &str,
    counts: &mut JobCounts,
) -> Result<JobOut, String> {
    let untraced = |tr: &mut Trace| {
        let id = tr.open("untraced.job", Kind::Untraced, job, None);
        let out = profile_job(p, cfg, arch);
        tr.close(id);
        out
    };
    // The twins alternate which runs first, so that neither always finds
    // the caches the other warmed.
    let early = job.is_multiple_of(2).then(|| untraced(tr));
    let root = tr.open("job", Kind::Job, job, None);
    let traced = pipeline(tr, job, root, p, cfg, arch);
    tr.close(root);
    let plain = early.unwrap_or_else(|| untraced(tr))?;
    let traced = traced?;
    if traced.out.digest != plain.digest {
        return Err(format!("{}: traced job differs from run_optiwise", p.name));
    }

    let interp_insns = tr
        .time("sim.interp", Kind::Reference, job, None, || {
            interp_only(&traced.image_a, cfg.rand_seed)
        })
        .map_err(err)?;
    let reference = tr
        .time("sim.timed", Kind::Reference, job, None, || {
            run_timed(
                &traced.image_a,
                cfg.rand_seed,
                cfg.core,
                &mut NoProbes,
                cfg.max_insns,
            )
        })
        .map_err(err)?;
    let s = traced.stats;
    if interp_insns != s.retired || reference.stats.retired != s.retired {
        return Err(format!(
            "{}: interpreter retired {interp_insns}, timing-only {}, sampled {}",
            p.name, reference.stats.retired, s.retired
        ));
    }

    let c = &traced.cost;
    counts.jobs += 1;
    counts.attempts += u64::from(plain.attempts);
    counts.cycles += s.cycles;
    counts.retired += s.retired;
    counts.rob_full += s.rob_full_stalls;
    counts.iq_full += s.iq_full_stalls;
    counts.reference_cycles += reference.stats.cycles;
    counts.interp_insns += interp_insns;
    counts.samples += traced.samples;
    counts.native_insns += c.native_insns;
    counts.instrumented_insns += c.instrumented_insns;
    counts.block_execs += c.block_execs;
    counts.indirect_execs += c.indirect_execs;
    counts.counters_placed += c.counters_placed;
    counts.counters_suppressed += c.counters_suppressed;
    Ok(traced.out)
}

struct Traced {
    out: JobOut,
    image_a: ProcessImage,
    stats: CoreStats,
    samples: u64,
    cost: wiser_dbi::InstrumentationCost,
}

/// The calls `run_optiwise` makes with sequential passes, one span each,
/// then the report and the `.owp` encoding `optiwise run --save` adds.
fn pipeline(
    tr: &mut Trace,
    job: u64,
    root: SpanId,
    p: &Program,
    cfg: &OptiwiseConfig,
    arch: &str,
) -> Result<Traced, String> {
    let parent = Some(root);
    let step = Kind::Pipeline;
    let load = |seed: u64| {
        let lc = LoadConfig {
            aslr_seed: Some(seed),
            ..LoadConfig::default()
        };
        ProcessImage::load(&p.modules, &lc)
    };
    let image_a = tr.time("sim.load", step, job, parent, || load(cfg.aslr_seeds.0));
    let image_a = image_a.map_err(err)?;
    let sampled = tr.time("sampler.pass", step, job, parent, || {
        sample_run(
            &image_a,
            cfg.rand_seed,
            cfg.core,
            cfg.sampler,
            cfg.max_insns,
        )
    });
    let (samples, timed) = sampled.map_err(err)?;
    let image_b = tr.time("sim.load", step, job, parent, || load(cfg.aslr_seeds.1));
    let image_b = image_b.map_err(err)?;
    let linked: Vec<Module> = image_b.modules.iter().map(|m| m.linked.clone()).collect();
    let dbi_cfg = DbiConfig {
        rand_seed: cfg.rand_seed,
        max_insns: cfg.max_insns,
        ..cfg.dbi.clone()
    };
    let counted = tr.time("dbi.pass", step, job, parent, || {
        instrument_run(&image_b, &dbi_cfg)
    });
    let mut counts = counted.map_err(err)?;
    if samples.truncated.is_some() || counts.truncated.is_some() {
        return Err(format!("{}: a pass was truncated", p.name));
    }
    tr.time("cfg.placement", step, job, parent, || {
        wiser_cfg::optimize_placement(&mut counts, &linked, &cfg.dbi.cost)
    });
    let analysis = tr.time("analysis", step, job, parent, || {
        Analysis::try_new(&linked, &samples, &counts, cfg.analysis)
    });
    let analysis = analysis.map_err(err)?;
    let run = OptiwiseRun {
        analysis,
        samples,
        counts,
        timed,
        attempts: (1, 1),
    };
    // `from_run` is `ProfileTables::from_analysis` plus copies of the two
    // raw profiles, exactly as `optiwise run --save` stores a run.
    let stored = tr.time("tables", step, job, parent, || {
        StoredProfile::from_run(p.name, &run, cfg.rand_seed, arch, cfg.core)
    });
    let report = tr.time("report", step, job, parent, || {
        full_report(&run.analysis, TOP)
    });
    let owp = tr.time("store.encode", step, job, parent, || stored.to_bytes());
    let stats = run.timed.stats;
    let cost = run.counts.cost;
    Ok(Traced {
        out: JobOut {
            digest: job_digest(&report, &stats, &owp),
            insns: stats.retired + cost.native_insns,
            attempts: 2,
            owp,
        },
        image_a,
        stats,
        samples: run.samples.samples.len() as u64,
        cost,
    })
}

/// Interpreter only: the functional execution both passes are built on.
fn interp_only(image: &ProcessImage, rand_seed: u64) -> Result<u64, SimError> {
    let mut interp = Interp::new(image, rand_seed)?;
    let mut retired = 0;
    while let Step::Retired(_) = interp.step()? {
        retired += 1;
    }
    Ok(retired)
}

/// One run of the offline fleet, committed to the archive while setting up.
pub struct FleetRun {
    /// Archive run id.
    pub id: u64,
    /// Index of the program in the workload's program list.
    pub program: usize,
    /// Core preset the run was profiled on.
    pub arch: &'static str,
    /// The committed `.owp` bytes.
    pub bytes: Vec<u8>,
    /// Simulated instructions behind the profile.
    pub insns: u64,
}

/// What an archived-run operation produced.
pub struct OpOut {
    /// Digest of the report text and, for the second run of a pair, the
    /// diff report text.
    pub digest: u64,
    /// The re-analysed tables, for the pair's diff.
    pub tables: ProfileTables,
    /// Loops and functions the analysis found.
    pub loops: u64,
    /// See `loops`.
    pub functions: u64,
    /// Rows of the diff, when the operation diffed.
    pub diff_rows: Option<u64>,
    /// Length of the re-encoded `.owp` image.
    pub bytes: u64,
}

fn step<T>(scope: &mut Option<Scope<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match scope {
        Some(s) => s.trace.time(name, Kind::Pipeline, s.job, Some(s.parent), f),
        None => f(),
    }
}

/// `optiwise query`/`analyze` on one archived run: load it, analyse its raw
/// profiles again, report, and re-encode, which must give back the archived
/// bytes. With `pair_first`, the tables are also diffed against the other
/// core's run of the same program. With a `scope`, each call is a span.
///
/// # Errors
///
/// A load, decode or analysis error, or re-encoded bytes that differ from
/// the archived ones.
pub fn offline_op(
    archive: &Archive,
    run: &FleetRun,
    linked: &[Module],
    opts: AnalysisOptions,
    pair_first: Option<&ProfileTables>,
    mut scope: Option<Scope<'_>>,
) -> Result<OpOut, String> {
    let stored = step(&mut scope, "archive.load", || archive.load_run(run.id)).map_err(err)?;
    let (Some(samples), Some(counts)) = (&stored.samples, &stored.counts) else {
        return Err(format!("run {} holds no raw profiles", run.id));
    };
    let analysis = step(&mut scope, "analysis", || {
        Analysis::try_new(linked, samples, counts, opts)
    });
    let analysis = analysis.map_err(err)?;
    let tables = step(&mut scope, "tables", || {
        ProfileTables::from_analysis(&analysis)
    });
    let report = step(&mut scope, "report", || full_report(&analysis, TOP));
    let restored = StoredProfile { tables, ..stored };
    let bytes = step(&mut scope, "store.encode", || restored.to_bytes());
    if bytes != run.bytes {
        return Err(format!(
            "run {}: re-encoded bytes differ from the archive",
            run.id
        ));
    }
    let (diff_text, diff_rows) = match pair_first {
        Some(first) => {
            // Runs of one program on two cores: shifts are `config` rows,
            // as `optiwise query` classifies them.
            let options = DiffOptions {
                config_changed: true,
                ..DiffOptions::default()
            };
            let diff = step(&mut scope, "diff.tables", || {
                diff_tables(first, &restored.tables, options)
            });
            let text = step(&mut scope, "diff.report", || diff_report(&diff, TOP));
            (text, Some(diff.rows().count() as u64))
        }
        None => (String::new(), None),
    };
    Ok(OpOut {
        digest: digest(&[report.as_bytes(), diff_text.as_bytes()]),
        loops: analysis.loops().len() as u64,
        functions: analysis.functions().len() as u64,
        tables: restored.tables,
        diff_rows,
        bytes: bytes.len() as u64,
    })
}
