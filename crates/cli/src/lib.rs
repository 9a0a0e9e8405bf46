//! `optiwise` — command-line interface mirroring the paper's artifact.
//!
//! ```text
//! optiwise check
//! optiwise list
//! optiwise run [OPTIONS] <workload>...       # both passes + report
//! optiwise sample [OPTIONS] <workload> --out F.owp      # sampling pass only
//! optiwise instrument [OPTIONS] <workload> --out F.owp  # instrumentation only
//! optiwise analyze [OPTIONS] <workload> --samples F.owp --counts F.owp
//! optiwise annotate [OPTIONS] <workload> --function NAME
//! optiwise show <profile.owp>                # report a saved profile
//! optiwise report <profile.owp> [--format json]
//! optiwise diff <old.owp> <new.owp>          # differential CPI analysis
//! optiwise sweep [OPTIONS] <workload>... --archive DIR
//!                                            # config-sweep fleet + reduction
//! optiwise optimize [--verify] <workload|profile.owp>
//!                                            # profile-guided rewrite + check
//! optiwise resume <checkpoint.owp|archive>   # continue an interrupted run
//! optiwise selfcheck [--seed-range A..B]     # pipeline vs oracle sweep
//! optiwise fsck <archive>                    # verify + repair a run archive
//! optiwise query <archive> [--last N]        # diff the last N archived runs
//! optiwise submit --socket S <workload>      # send a job to optiwised
//! optiwise status --socket S                 # ask optiwised how it is doing
//! optiwise shutdown --socket S               # ask optiwised to drain
//! ```
//!
//! The companion binary `optiwised` (see [`daemon`]) serves profiling jobs
//! over line-delimited JSON on a Unix socket and archives every completed
//! run in a crash-safe multi-run archive (`wiser-archive`).
//!
//! Options: `--size test|train|ref`, `--arch xeon|neoverse`, `--period N`,
//! `--attribution interrupt|precise|predecessor`, `--no-stack-profiling`,
//! `--merge-threshold N|off`, `--seed N`, `--top N`, `--out FILE`,
//! `--jobs N`, `--strict`, `--allow-partial`, `--inject SPEC`,
//! `--save FILE`, `--threshold PCT`, `--fail-on-regression`, `--verify`,
//! `--format text|json|yaml`, `--deadline SECS`, `--checkpoint FILE`,
//! `--checkpoint-every N`.
//!
//! `run` accepts multiple workloads: they are profiled concurrently on a
//! bounded worker pool (`--jobs N` threads) and the reports are merged in
//! command-line order, so the output is byte-identical for every thread
//! count.
//!
//! `run --checkpoint FILE` persists a crash-consistent checkpoint every
//! `--checkpoint-every N` committed instructions; after a crash, deadline
//! or Ctrl-C, `optiwise resume FILE` validates the checkpoint against the
//! workload's current build and replays the interrupted passes, producing
//! a report (and `--save` profile) byte-identical to an uninterrupted run.
//! `--deadline SECS` stops the run at the next safe instruction boundary
//! once the wall-clock budget is spent; so does Ctrl-C.
//!
//! The split workflow writes each pass as a checkpoint image holding the
//! run spec plus that pass's profile; `analyze` refuses files recorded
//! against a different build of the workload.
//!
//! Exit codes mirror [`OptiwiseError::exit_code`]: 0 success, 2 load or
//! disassembly failure, 3 execution fault, 4 instruction limit or disallowed
//! truncation, 5 run divergence (strict mode), 6 profile parse error,
//! 7 regressions found by `diff --fail-on-regression`, 8 deadline exceeded
//! or cancelled (SIGINT and SIGTERM both land here), 9 injected crash,
//! 10 join-bug discrepancies found by `selfcheck`, 11 archive damage
//! repaired by `fsck`, 12 archive unrepairable, 13 fuzz invariant
//! violation, 1 usage/io/other.

pub mod daemon;
mod fuzz;
pub mod jsonl;

use std::process::ExitCode;
use std::time::Duration;

use optiwise::{
    diff_tables, module_fingerprint, reduce_fleet, report, run_optiwise, run_optiwise_ctl,
    Analysis, AnalysisMode, AnalysisOptions, CancelToken, DiffOptions, OptiwiseConfig,
    OptiwiseError, OptiwiseRun, Pass, PassEvent, ProfileTables, ResourceLimits,
    RunControl, StoreError, SweepCell, SweepConfig, SweepGrid, SweepResult, SweepWorkload,
    DEFAULT_DIVERGENCE_THRESHOLD,
};
use wiser_store::{Checkpoint, CheckpointSpec, CheckpointWriter, StoredProfile};
use wiser_dbi::{instrument_run, CountsProfile, DbiConfig};
use wiser_isa::Module;
use wiser_sampler::{sample_run, Attribution, SampleProfile, SamplerConfig};
use wiser_sim::{CoreConfig, FaultPlan, LoadConfig, ProcessImage, ARCH_NAMES};
use wiser_workloads::InputSize;

struct Options {
    size: InputSize,
    core: CoreConfig,
    arch_name: &'static str,
    overrides: Vec<(String, String)>,
    configs: Vec<String>,
    strict_config: bool,
    sampler: SamplerConfig,
    stack_profiling: bool,
    merge_threshold: Option<u64>,
    seed: u64,
    top: usize,
    out: Option<String>,
    samples_path: Option<String>,
    counts_path: Option<String>,
    function: Option<String>,
    csv_dir: Option<String>,
    workloads: Vec<String>,
    jobs: usize,
    strict: bool,
    allow_partial: bool,
    selective: bool,
    hot_threshold: f64,
    exhaustive_counters: bool,
    fault: FaultPlan,
    save: Option<String>,
    threshold: f64,
    fail_on_regression: bool,
    json: bool,
    yaml: bool,
    verify: bool,
    deadline: Option<f64>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    seed_range: Option<(u64, u64)>,
    archive: Option<String>,
    socket: Option<String>,
    last: usize,
    queue: usize,
    job_deadline: Option<f64>,
    max_runs: Option<usize>,
    max_bytes: Option<u64>,
    surfaces: Vec<String>,
    limits: ResourceLimits,
}

/// Checkpoint cadence (committed instructions) when `--checkpoint` is given
/// without an explicit `--checkpoint-every`.
const DEFAULT_CHECKPOINT_EVERY: u64 = 1_000_000;

impl Default for Options {
    fn default() -> Options {
        Options {
            size: InputSize::Train,
            core: CoreConfig::xeon_like(),
            arch_name: "xeon",
            overrides: Vec::new(),
            configs: Vec::new(),
            strict_config: false,
            sampler: SamplerConfig::default(),
            stack_profiling: true,
            merge_threshold: Some(wiser_cfg::MERGE_THRESHOLD),
            seed: 0,
            top: 15,
            out: None,
            samples_path: None,
            counts_path: None,
            function: None,
            csv_dir: None,
            workloads: Vec::new(),
            jobs: wiser_par::available_jobs(),
            strict: false,
            allow_partial: true,
            selective: false,
            hot_threshold: optiwise::DEFAULT_HOT_THRESHOLD,
            exhaustive_counters: false,
            fault: FaultPlan::default(),
            save: None,
            threshold: optiwise::DiffOptions::default().threshold_pct,
            fail_on_regression: false,
            json: false,
            yaml: false,
            verify: false,
            deadline: None,
            checkpoint: None,
            checkpoint_every: None,
            seed_range: None,
            archive: None,
            socket: None,
            last: 4,
            queue: 8,
            job_deadline: None,
            max_runs: None,
            max_bytes: None,
            surfaces: Vec::new(),
            limits: ResourceLimits::default(),
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("`{arg}` needs a value"))
        };
        match args[i].as_str() {
            "--size" => {
                opts.size = match value(&mut i)?.as_str() {
                    "test" => InputSize::Test,
                    "train" => InputSize::Train,
                    "ref" => InputSize::Ref,
                    other => return Err(format!("unknown size `{other}`")),
                }
            }
            "--arch" => {
                let v = value(&mut i)?;
                let Some(name) = ARCH_NAMES.iter().find(|&&n| n == v) else {
                    return Err(format!(
                        "unknown arch `{v}`; one of: {}",
                        ARCH_NAMES.join(", ")
                    ));
                };
                opts.arch_name = name;
                opts.core = CoreConfig::by_name(name).expect("ARCH_NAMES entries are presets");
            }
            "--set" => {
                let (key, value) =
                    CoreConfig::parse_set(&value(&mut i)?).map_err(|e| e.to_string())?;
                opts.overrides.push((key, value));
            }
            "--config" => opts.configs.push(value(&mut i)?),
            "--strict-config" => opts.strict_config = true,
            "--period" => {
                let p: u64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad period: {e}"))?;
                opts.sampler = SamplerConfig::with_period(p);
            }
            "--attribution" => {
                opts.sampler.attribution = match value(&mut i)?.as_str() {
                    "interrupt" => Attribution::Interrupt,
                    "precise" => Attribution::Precise,
                    "predecessor" => Attribution::Predecessor,
                    other => return Err(format!("unknown attribution `{other}`")),
                }
            }
            "--no-stack-profiling" => opts.stack_profiling = false,
            "--merge-threshold" => {
                let v = value(&mut i)?;
                opts.merge_threshold = if v == "off" {
                    None
                } else {
                    Some(v.parse().map_err(|e| format!("bad threshold: {e}"))?)
                };
            }
            "--seed" => {
                opts.seed = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--top" => {
                opts.top = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad top: {e}"))?
            }
            "--out" => opts.out = Some(value(&mut i)?),
            "--samples" => opts.samples_path = Some(value(&mut i)?),
            "--counts" => opts.counts_path = Some(value(&mut i)?),
            "--function" => opts.function = Some(value(&mut i)?),
            "--csv-dir" => opts.csv_dir = Some(value(&mut i)?),
            "--jobs" => {
                opts.jobs = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad jobs: {e}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--strict" => opts.strict = true,
            "--allow-partial" => opts.allow_partial = true,
            "--no-partial" => opts.allow_partial = false,
            "--selective" => opts.selective = true,
            "--hot-threshold" => {
                opts.hot_threshold = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad hot threshold: {e}"))?;
                if !opts.hot_threshold.is_finite()
                    || !(0.0..=1.0).contains(&opts.hot_threshold)
                {
                    return Err("--hot-threshold must be a fraction in 0..=1".into());
                }
            }
            "--exhaustive-counters" => opts.exhaustive_counters = true,
            "--inject" => {
                opts.fault = FaultPlan::parse(&value(&mut i)?)
                    .map_err(|e| format!("bad --inject spec: {e}"))?
            }
            "--save" => opts.save = Some(value(&mut i)?),
            "--threshold" => {
                opts.threshold = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
                if !opts.threshold.is_finite() || opts.threshold < 0.0 {
                    return Err("--threshold must be a non-negative percentage".into());
                }
            }
            "--fail-on-regression" => opts.fail_on_regression = true,
            "--deadline" => {
                let secs: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad deadline: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--deadline must be a positive number of seconds".into());
                }
                opts.deadline = Some(secs);
            }
            "--seed-range" => {
                let v = value(&mut i)?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| format!("bad seed range `{v}`: expected A..B"))?;
                let lo: u64 = lo.parse().map_err(|e| format!("bad seed range: {e}"))?;
                let hi: u64 = hi.parse().map_err(|e| format!("bad seed range: {e}"))?;
                if lo >= hi {
                    return Err(format!("bad seed range `{v}`: empty (A must be below B)"));
                }
                opts.seed_range = Some((lo, hi));
            }
            "--archive" => opts.archive = Some(value(&mut i)?),
            "--socket" => opts.socket = Some(value(&mut i)?),
            "--last" => {
                opts.last = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --last: {e}"))?;
                if opts.last < 2 {
                    return Err("--last must be at least 2 (a diff needs two runs)".into());
                }
            }
            "--queue" => {
                opts.queue = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --queue: {e}"))?;
                if opts.queue == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--job-deadline" => {
                let secs: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad job deadline: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--job-deadline must be a positive number of seconds".into());
                }
                opts.job_deadline = Some(secs);
            }
            "--max-runs" => {
                let n: usize = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --max-runs: {e}"))?;
                if n == 0 {
                    return Err("--max-runs must be at least 1".into());
                }
                opts.max_runs = Some(n);
            }
            "--max-bytes" => {
                opts.max_bytes = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --max-bytes: {e}"))?,
                )
            }
            "--surface" => {
                let name = value(&mut i)?;
                if !fuzz::SURFACE_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown fuzz surface `{name}`; one of: {}",
                        fuzz::SURFACE_NAMES.join(", ")
                    ));
                }
                opts.surfaces.push(name);
            }
            "--max-line-bytes" => {
                let n: usize = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --max-line-bytes: {e}"))?;
                if n < 16 {
                    return Err("--max-line-bytes must be at least 16".into());
                }
                opts.limits.max_line_bytes = n;
            }
            "--min-headroom" => {
                opts.limits.min_disk_headroom = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --min-headroom: {e}"))?
            }
            "--max-queued-bytes" => {
                let n: u64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --max-queued-bytes: {e}"))?;
                if n == 0 {
                    return Err("--max-queued-bytes must be at least 1".into());
                }
                opts.limits.max_queued_bytes = n;
            }
            "--checkpoint" => opts.checkpoint = Some(value(&mut i)?),
            "--checkpoint-every" => {
                let n: u64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad checkpoint cadence: {e}"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                opts.checkpoint_every = Some(n);
            }
            "--format" => {
                (opts.json, opts.yaml) = match value(&mut i)?.as_str() {
                    "text" => (false, false),
                    "json" => (true, false),
                    "yaml" => (false, true),
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--verify" => opts.verify = true,
            "--" => {}
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"))
            }
            _ => opts.workloads.push(args[i].clone()),
        }
        i += 1;
    }
    // `--set` applies on top of whatever `--arch` picked, regardless of
    // flag order, and the resulting config is validated before any command
    // runs: nonsense like `rob_size=0` dies here, not deep in the model.
    for (key, value) in &opts.overrides {
        opts.core
            .apply_override(key, value)
            .map_err(|e| e.to_string())?;
    }
    opts.core.validate().map_err(|e| e.to_string())?;
    Ok(opts)
}

fn build_named_workload(name: &str, size: InputSize) -> Result<Vec<Module>, OptiwiseError> {
    let workload = wiser_workloads::by_name(name).ok_or_else(|| {
        OptiwiseError::Usage(format!("unknown workload `{name}`; see `optiwise list`"))
    })?;
    workload
        .build(size)
        .map_err(|e| OptiwiseError::Load(format!("assembling `{name}`: {e}")))
}

fn build_workload(opts: &Options) -> Result<Vec<Module>, OptiwiseError> {
    let name = opts
        .workloads
        .first()
        .ok_or_else(|| OptiwiseError::Usage("no workload given; see `optiwise list`".into()))?;
    build_named_workload(name, opts.size)
}

fn pipeline_config(opts: &Options) -> OptiwiseConfig {
    OptiwiseConfig {
        core: opts.core,
        sampler: opts.sampler,
        dbi: DbiConfig {
            stack_profiling: opts.stack_profiling,
            ..DbiConfig::default()
        },
        analysis: AnalysisOptions {
            merge_threshold: opts.merge_threshold,
            jobs: opts.jobs,
        },
        rand_seed: opts.seed,
        strict: opts.strict,
        allow_partial: opts.allow_partial,
        selective: opts.selective,
        hot_threshold: opts.hot_threshold,
        exhaustive_counters: opts.exhaustive_counters,
        fault: opts.fault,
        // `--jobs 1` is the fully sequential reference mode; anything above
        // overlaps the two profiling passes as well.
        concurrent_passes: opts.jobs > 1,
        ..OptiwiseConfig::default()
    }
}

fn emit(opts: &Options, text: &str) -> Result<(), OptiwiseError> {
    match &opts.out {
        Some(path) => wiser_store::atomic_write(std::path::Path::new(path), text.as_bytes())
            .map_err(|e| OptiwiseError::Io(format!("writing {path}: {e}"))),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// SIGINT (Ctrl-C) and SIGTERM → cooperative cancellation. The handler does
/// two async-signal-safe things — bump an atomic delivery counter and latch
/// the run's [`CancelToken`] — after which the pipeline stops at the next
/// instruction boundary and the process exits 8 through the normal error
/// path, flushing reports and checkpoints on the way out. Both signals take
/// the identical path: a supervisor's `kill` and an operator's Ctrl-C must
/// not behave differently.
///
/// The delivery counter is what lets `optiwised` escalate: the first signal
/// is a graceful drain, repeated signals mean "stop now" (the daemon kills
/// its in-flight job tokens). The one-shot CLI ignores the counter — its
/// first cancellation already stops everything it owns.
#[cfg(unix)]
pub(crate) mod signals {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::OnceLock;

    use optiwise::CancelToken;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();
    static DELIVERIES: AtomicU32 = AtomicU32::new(0);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        DELIVERIES.fetch_add(1, Ordering::AcqRel);
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    /// Routes SIGINT and SIGTERM to `token`. Installed once per process;
    /// later calls with a different token are ignored (one run per
    /// process).
    pub fn install(token: &CancelToken) {
        if TOKEN.set(token.clone()).is_ok() {
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            unsafe {
                signal(SIGINT, on_signal as *const () as usize);
                signal(SIGTERM, on_signal as *const () as usize);
            }
        }
    }

    /// How many cancellation signals have been delivered so far.
    pub fn deliveries() -> u32 {
        DELIVERIES.load(Ordering::Acquire)
    }
}

#[cfg(not(unix))]
pub(crate) mod signals {
    pub fn install(_token: &optiwise::CancelToken) {}

    pub fn deliveries() -> u32 {
        0
    }
}

/// The run's cancellation token: armed with `--deadline` if given, and
/// wired to Ctrl-C.
fn make_token(opts: &Options) -> CancelToken {
    let token = match opts.deadline {
        Some(secs) => CancelToken::with_deadline(Duration::from_secs_f64(secs)),
        None => CancelToken::new(),
    };
    signals::install(&token);
    token
}

/// The checkpoint cadence in effect, or an error for a cadence without a
/// file to write to.
fn checkpoint_cadence(opts: &Options) -> Result<u64, OptiwiseError> {
    match (&opts.checkpoint, opts.checkpoint_every) {
        (None, Some(_)) => Err(OptiwiseError::Usage(
            "--checkpoint-every needs --checkpoint FILE".into(),
        )),
        (None, None) => Ok(0),
        (Some(_), every) => Ok(every.unwrap_or(DEFAULT_CHECKPOINT_EVERY)),
    }
}

/// The identity-and-config spec stored in a fresh checkpoint, pinning it to
/// this exact workload build and run configuration.
fn checkpoint_spec(
    opts: &Options,
    name: &str,
    modules: &[Module],
    config: &OptiwiseConfig,
    checkpoint_every: u64,
) -> CheckpointSpec {
    let mut spec = CheckpointSpec::from_config(
        module_fingerprint(modules),
        name,
        opts.size.name(),
        opts.arch_name,
        config,
        checkpoint_every,
    );
    spec.overrides = opts.overrides.clone();
    spec
}

/// Runs the pipeline under a cancellation token, checkpointing to `writer`
/// (when given) on every pass event. Checkpoint-persist failures surface
/// only after the run settles: a sick checkpoint disk must not kill a
/// healthy profile run, but it must not go unreported either.
fn run_with_control(
    modules: &[Module],
    config: &OptiwiseConfig,
    token: &CancelToken,
    checkpoint_every: u64,
    writer: Option<&CheckpointWriter>,
    resume: optiwise::ResumeState,
) -> Result<OptiwiseRun, OptiwiseError> {
    let observe = writer.map(|w| move |event: PassEvent<'_>| w.observe(event));
    let run = run_optiwise_ctl(
        modules,
        config,
        RunControl {
            cancel: token.clone(),
            checkpoint_every,
            observer: observe
                .as_ref()
                .map(|f| f as &(dyn Fn(PassEvent<'_>) + Sync)),
            resume,
        },
    )?;
    if let Some(w) = writer {
        w.finish()?;
    }
    Ok(run)
}

fn cmd_check() -> Result<(), OptiwiseError> {
    // Assemble, run both passes, fuse. The artifact's `optiwise check`.
    let module = wiser_isa::assemble(
        "check",
        r#"
        .func _start global
            li x8, 2000
            li x9, 0
        loop:
            subi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#,
    )
    .map_err(|e| OptiwiseError::Load(e.to_string()))?;
    // The self-check always runs strict: a diverging toolchain is broken.
    let cfg = OptiwiseConfig {
        strict: true,
        ..OptiwiseConfig::default()
    };
    let run = run_optiwise(&[module], &cfg)?;
    if run.analysis.loops().len() != 1 {
        return Err(OptiwiseError::Usage(
            "self-check failed: expected exactly one loop".into(),
        ));
    }
    println!(
        "optiwise check: ok (sampled {} cycles, counted {} instructions, divergence {:.4})",
        run.analysis.wall_cycles,
        run.analysis.total_insns,
        run.analysis.diagnostics.divergence_score
    );
    Ok(())
}

fn cmd_list() -> Result<(), OptiwiseError> {
    println!("{:<22} {:<9} DESCRIPTION", "NAME", "KIND");
    for w in wiser_workloads::all() {
        let kind = match w.kind {
            wiser_workloads::Kind::Micro => "micro",
            wiser_workloads::Kind::SpecLike => "spec-like",
        };
        println!("{:<22} {:<9} {}", w.name, kind, w.description);
    }
    Ok(())
}

fn cmd_run(opts: Options) -> Result<(), OptiwiseError> {
    if opts.workloads.len() > 1 {
        return cmd_run_batch(opts);
    }
    let opts = &opts;
    let checkpoint_every = checkpoint_cadence(opts)?;
    let modules = build_workload(opts)?;
    let config = pipeline_config(opts);
    let token = make_token(opts);
    let name = opts
        .workloads
        .first()
        .map(String::as_str)
        .unwrap_or("run")
        .to_string();
    let writer = match &opts.checkpoint {
        Some(path) => {
            let spec = checkpoint_spec(opts, &name, &modules, &config, checkpoint_every);
            let writer = CheckpointWriter::new(
                path,
                Checkpoint::fresh(spec),
                token.clone(),
                opts.fault.kill_in_checkpoint_write,
            );
            // Fail before profiling if the checkpoint path is unwritable,
            // and make even a kill-at-instruction-zero resumable.
            writer.persist_initial()?;
            Some(writer)
        }
        None => None,
    };
    let run = run_with_control(
        &modules,
        &config,
        &token,
        checkpoint_every,
        writer.as_ref(),
        optiwise::ResumeState::default(),
    )?;
    render_run(
        opts,
        &name,
        opts.seed,
        opts.arch_name,
        config.core,
        module_fingerprint(&modules),
        &run,
    )
}

/// Everything that happens after a (fresh or resumed) run settles: retry
/// and degradation notices, `--save`, the report, `--function` annotation
/// and `--csv-dir` exports. Shared by `run` and `resume` so a resumed run
/// is rendered through the exact same path — byte-identical output.
#[allow(clippy::too_many_arguments)]
fn render_run(
    opts: &Options,
    name: &str,
    seed: u64,
    arch: &str,
    core: CoreConfig,
    fingerprint: u64,
    run: &OptiwiseRun,
) -> Result<(), OptiwiseError> {
    if run.attempts.0 > 1 || run.attempts.1 > 1 {
        eprintln!(
            "optiwise: retried truncated passes (sampling x{}, instrumentation x{})",
            run.attempts.0, run.attempts.1
        );
    }
    if run.analysis.mode == AnalysisMode::SamplingOnly {
        eprintln!("optiwise: DEGRADED sampling-only analysis (see report header)");
    }
    if let Some(path) = &opts.save {
        let stored = StoredProfile::from_run(name, run, seed, arch, core);
        stored.save(std::path::Path::new(path))?;
        eprintln!("saved profile to {path}");
    }
    if let Some(dir) = &opts.archive {
        let stored = StoredProfile::from_run(name, run, seed, arch, core);
        let mut archive = wiser_archive::Archive::open_or_create(std::path::Path::new(dir))?;
        archive.set_faults(&opts.fault);
        let run_id = archive.add_run(&stored.to_bytes(), fingerprint)?;
        archive.retain(wiser_archive::RetentionPolicy {
            max_runs: opts.max_runs,
            max_bytes: opts.max_bytes,
        })?;
        eprintln!("archived run {run_id} in {dir}");
    }
    let mut text = report::full_report(&run.analysis, opts.top);
    if let Some(func) = &opts.function {
        let rows = run
            .analysis
            .annotate_function(module_of(&run.analysis, func), func);
        text.push_str(&format!("\n-- {func} --\n"));
        text.push_str(&report::annotate(&rows, run.analysis.total_cycles));
    }
    if let Some(dir) = &opts.csv_dir {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| OptiwiseError::Io(format!("creating {}: {e}", dir.display())))?;
        let write = |name: &str, contents: String| -> Result<(), OptiwiseError> {
            let path = dir.join(name);
            wiser_store::atomic_write(&path, contents.as_bytes())
                .map_err(|e| OptiwiseError::Io(format!("{}: {e}", path.display())))
        };
        write("functions.csv", optiwise::export::functions_csv(&run.analysis))?;
        write("loops.csv", optiwise::export::loops_csv(&run.analysis))?;
        write("blocks.csv", optiwise::export::blocks_csv(&run.analysis))?;
        if let Some(func) = &opts.function {
            write(
                "annotate.csv",
                optiwise::export::annotate_csv(
                    &run.analysis,
                    module_of(&run.analysis, func),
                    func,
                ),
            )?;
        }
        eprintln!("wrote CSV tables to {}", dir.display());
    }
    emit(opts, &text)
}

/// One batch-mode shard: the full report for a single workload. The shared
/// token lets a deadline or Ctrl-C stop every in-flight shard at its next
/// instruction boundary.
fn run_one(name: &str, opts: &Options, token: &CancelToken) -> Result<String, OptiwiseError> {
    let modules = build_named_workload(name, opts.size)?;
    let run = run_optiwise_ctl(
        &modules,
        &pipeline_config(opts),
        RunControl {
            cancel: token.clone(),
            ..RunControl::default()
        },
    )?;
    Ok(report::full_report(&run.analysis, opts.top))
}

/// Batch mode: profile every named workload on a bounded worker pool and
/// merge the reports in command-line order. The merge key is the shard
/// index, never completion order, so `--jobs 8` output is byte-identical
/// to `--jobs 1`.
fn cmd_run_batch(opts: Options) -> Result<(), OptiwiseError> {
    if opts.function.is_some() || opts.csv_dir.is_some() || opts.save.is_some() {
        return Err(OptiwiseError::Usage(
            "--function/--csv-dir/--save work with a single workload, not batch mode".into(),
        ));
    }
    if opts.checkpoint.is_some() || opts.checkpoint_every.is_some() {
        return Err(OptiwiseError::Usage(
            "--checkpoint works with a single workload, not batch mode".into(),
        ));
    }
    let token = make_token(&opts);
    let opts = std::sync::Arc::new(opts);
    // The pool shares the run's token: a deadline or Ctrl-C stops shards
    // already executing at their next instruction boundary and discards
    // shards still queued, then joins every worker.
    let pool = wiser_par::WorkerPool::with_cancel(
        opts.jobs.min(opts.workloads.len()),
        token.clone(),
    );
    let (tx, rx) = std::sync::mpsc::channel();
    for (index, name) in opts.workloads.iter().cloned().enumerate() {
        let tx = tx.clone();
        let opts = std::sync::Arc::clone(&opts);
        let token = token.clone();
        pool.execute(move || {
            let _ = tx.send((index, run_one(&name, &opts, &token)));
        });
    }
    drop(tx);
    pool.finish()
        .map_err(|e| OptiwiseError::Internal(format!("batch worker: {e}")))?;
    let mut shards: Vec<(usize, Result<String, OptiwiseError>)> = rx.iter().collect();
    shards.sort_by_key(|&(index, _)| index);

    let mut out = String::new();
    let mut first_error: Option<OptiwiseError> = None;
    for (index, shard) in shards {
        let name = &opts.workloads[index];
        match shard {
            Ok(text) => {
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!("== workload: {name} ==\n{text}\n"),
                );
            }
            Err(e) => {
                eprintln!("optiwise: workload `{name}` failed: {e}");
                // The reported error is the first by command-line order,
                // not by completion order: deterministic exit codes.
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    emit(&opts, &out)?;
    if first_error.is_none() {
        if let Some(cause) = token.cause() {
            // Every completed shard succeeded but queued shards were
            // discarded by the cancellation: the batch did not finish.
            first_error = Some(OptiwiseError::DeadlineExceeded {
                retired: 0,
                deadline: cause == optiwise::CancelCause::Deadline,
            });
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The pseudo-workload name that sweeps a generated program instead of a
/// registered one; `generated:SEED` picks the generator seed.
const GENERATED_WORKLOAD: &str = "generated";

/// Parses one sweep workload argument: a registered workload name,
/// `generated:SEED`, or plain `generated` (which takes `--seed`).
fn parse_sweep_workload(arg: &str, default_seed: u64) -> Result<SweepWorkload, OptiwiseError> {
    let (name, seed) = match arg.split_once(':') {
        Some((n, s)) => {
            if n != GENERATED_WORKLOAD {
                return Err(OptiwiseError::Usage(format!(
                    "only `{GENERATED_WORKLOAD}` takes a :SEED suffix, got `{arg}`"
                )));
            }
            let seed = s
                .parse()
                .map_err(|e| OptiwiseError::Usage(format!("bad seed in `{arg}`: {e}")))?;
            (n, seed)
        }
        None => (arg, default_seed),
    };
    if name != GENERATED_WORKLOAD && wiser_workloads::by_name(name).is_none() {
        return Err(OptiwiseError::Usage(format!(
            "unknown workload `{name}`; see `optiwise list`"
        )));
    }
    Ok(SweepWorkload {
        name: name.to_string(),
        seed,
    })
}

/// Builds one sweep cell's module set: a registered workload, or a
/// generated program from the cell's seed.
fn build_sweep_modules(w: &SweepWorkload, size: InputSize) -> Result<Vec<Module>, OptiwiseError> {
    if w.name == GENERATED_WORKLOAD {
        return wiser_workloads::generated::generate(w.seed)
            .map_err(|e| OptiwiseError::Load(format!("generating seed {}: {e}", w.seed)));
    }
    build_named_workload(&w.name, size)
}

/// One freshly profiled sweep cell, ready to commit to the archive.
struct SweepCellRun {
    bytes: Vec<u8>,
    fingerprint: u64,
    tables: ProfileTables,
    checkpoint: std::path::PathBuf,
}

/// Profiles one sweep cell under its own core config, checkpointing into
/// the archive's `checkpoints/` directory like a daemon job so a killed
/// sweep leaves resumable state behind.
fn run_sweep_cell(
    cell: &SweepCell,
    opts: &Options,
    token: &CancelToken,
    checkpoints: &std::path::Path,
) -> Result<SweepCellRun, OptiwiseError> {
    let modules = build_sweep_modules(&cell.workload, opts.size)?;
    let fingerprint = module_fingerprint(&modules);
    let mut config = pipeline_config(opts);
    config.core = cell.config.core();
    config.rand_seed = cell.workload.seed;
    let every = opts.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY);
    let mut spec = checkpoint_spec(opts, &cell.workload.name, &modules, &config, every);
    spec.arch = cell.config.arch.clone();
    spec.overrides = cell.config.overrides.clone();
    let checkpoint = checkpoints.join(format!("sweep-{}.owp", cell.label()));
    let writer = CheckpointWriter::new(
        &checkpoint,
        Checkpoint::fresh(spec),
        token.clone(),
        opts.fault.kill_in_checkpoint_write,
    );
    writer.persist_initial()?;
    let run = run_with_control(
        &modules,
        &config,
        token,
        every,
        Some(&writer),
        optiwise::ResumeState::default(),
    )?;
    let stored = StoredProfile::from_run(
        cell.label(),
        &run,
        cell.workload.seed,
        &cell.config.arch,
        config.core,
    );
    Ok(SweepCellRun {
        bytes: stored.to_bytes(),
        fingerprint,
        tables: stored.tables,
        checkpoint,
    })
}

/// `optiwise sweep <workload|generated:SEED>... --archive DIR
/// [--config SPEC]...`: a declarative config-sweep fleet over the uarch
/// model (paper figures 8/9).
///
/// The grid is the cross product of the `--config` specs (default: `xeon`
/// and `neoverse`) and the positional workloads, expanded workload-major in
/// declared order. Cells fan out on the shared worker pool; each one runs
/// under its own [`CoreConfig`], checkpoints into the archive's
/// `checkpoints/` directory, and is committed as a self-describing `.owp`
/// run (with a `UCFG` section) labelled `workload-sSEED-config`. Cells
/// whose label is already committed are loaded instead of re-run, so an
/// interrupted sweep resumes without repeating finished work. Commits
/// happen after the fleet settles, in grid order — `Archive::add_run`
/// hands out ids in call order — and the reduction diffs every config
/// against the first one per workload, so run ids, the `.owp` fleet and
/// the report are byte-identical for every `--jobs` value.
fn cmd_sweep(opts: Options) -> Result<(), OptiwiseError> {
    let archive_dir = opts
        .archive
        .clone()
        .ok_or_else(|| OptiwiseError::Usage("sweep needs --archive DIR for its cell fleet".into()))?;
    if opts.workloads.is_empty() {
        return Err(OptiwiseError::Usage(
            "sweep needs at least one workload (a name from `optiwise list` or generated:SEED)"
                .into(),
        ));
    }
    let specs: Vec<String> = if opts.configs.is_empty() {
        vec!["xeon".into(), "neoverse".into()]
    } else {
        opts.configs.clone()
    };
    let mut configs = Vec::with_capacity(specs.len());
    for spec in &specs {
        configs.push(SweepConfig::parse(spec)?);
    }
    let mut workloads = Vec::with_capacity(opts.workloads.len());
    for arg in &opts.workloads {
        workloads.push(parse_sweep_workload(arg, opts.seed)?);
    }
    let cells = SweepGrid { configs, workloads }.expand();

    let mut archive = wiser_archive::Archive::open_or_create(std::path::Path::new(&archive_dir))?;
    archive.set_faults(&opts.fault);
    // Committed labels → run id: the sweep's resume state. Re-running the
    // same grid against the same archive only profiles the missing cells.
    let committed: std::collections::BTreeMap<String, u64> = archive
        .manifest()
        .committed()
        .map(|e| (e.workload.clone(), e.run_id))
        .collect();
    let fresh: Vec<SweepCell> = cells
        .iter()
        .filter(|c| !committed.contains_key(&c.label()))
        .cloned()
        .collect();

    let token = make_token(&opts);
    let checkpoints = archive.checkpoints_dir();
    let opts = std::sync::Arc::new(opts);
    let pool =
        wiser_par::WorkerPool::with_cancel(opts.jobs.min(fresh.len().max(1)), token.clone());
    let (tx, rx) = std::sync::mpsc::channel();
    for cell in fresh {
        let tx = tx.clone();
        let opts = std::sync::Arc::clone(&opts);
        let token = token.clone();
        let checkpoints = checkpoints.clone();
        pool.execute(move || {
            let _ = tx.send((
                cell.index,
                run_sweep_cell(&cell, &opts, &token, &checkpoints),
            ));
        });
    }
    drop(tx);
    pool.finish()
        .map_err(|e| OptiwiseError::Internal(format!("sweep worker: {e}")))?;
    let mut done: Vec<(usize, Result<SweepCellRun, OptiwiseError>)> = rx.iter().collect();
    done.sort_by_key(|&(index, _)| index);

    // Commit after the barrier, in grid order: run ids stay deterministic
    // across `--jobs`. Finished cells commit even when a sibling failed or
    // the sweep was cancelled — that is what makes re-running it a resume.
    let mut results: Vec<SweepResult> = Vec::with_capacity(cells.len());
    let mut first_error: Option<OptiwiseError> = None;
    for (index, outcome) in done {
        let cell = &cells[index];
        match outcome {
            Ok(run) => {
                archive.add_run(&run.bytes, run.fingerprint)?;
                let _ = std::fs::remove_file(&run.checkpoint);
                results.push(SweepResult {
                    cell: cell.clone(),
                    tables: run.tables,
                });
            }
            Err(e) => {
                eprintln!("optiwise: sweep cell `{}` failed: {e}", cell.label());
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    for cell in &cells {
        if let Some(&run_id) = committed.get(&cell.label()) {
            results.push(SweepResult {
                cell: cell.clone(),
                tables: archive.load_run(run_id)?.tables,
            });
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    if let Some(cause) = token.cause() {
        return Err(OptiwiseError::DeadlineExceeded {
            retired: 0,
            deadline: cause == optiwise::CancelCause::Deadline,
        });
    }
    let options = DiffOptions {
        threshold_pct: opts.threshold,
        ..DiffOptions::default()
    };
    emit(&opts, &reduce_fleet(&results, options, opts.top))
}

/// `optiwise resume CHECKPOINT.owp`: continue an interrupted run.
///
/// The checkpoint pins the run's whole configuration, so the command takes
/// no workload and no profiling options — only execution-environment flags
/// (`--jobs`, `--deadline`, `--out`, `--save`, `--top`, `--function`,
/// `--csv-dir`, and `--inject` for tests). Completed passes are restored
/// verbatim from the checkpoint; interrupted passes are replayed
/// deterministically from instruction zero, so the report and any `--save`
/// profile are byte-identical to an uninterrupted run. The resumed run
/// keeps checkpointing into the same file and may itself be interrupted
/// and resumed again.
fn cmd_resume(opts: &Options) -> Result<(), OptiwiseError> {
    let arg = profile_arg(opts, "resume")?;
    // An archive directory stands for "whatever was interrupted there":
    // resume the newest incomplete checkpoint left behind by a crashed or
    // drained daemon job (or a `run --checkpoint` pointed at the archive's
    // checkpoints directory).
    let path = if std::path::Path::new(arg).is_dir() {
        newest_checkpoint(std::path::Path::new(arg))?
    } else {
        arg.to_string()
    };
    let path = path.as_str();
    let ckpt = Checkpoint::load(std::path::Path::new(path))?;
    let spec = ckpt.spec.clone();
    let size = InputSize::parse(&spec.size).ok_or_else(|| {
        OptiwiseError::Store(StoreError::in_section(
            0,
            "CKPT",
            format!("unknown input size `{}` in checkpoint", spec.size),
        ))
    })?;
    let modules = build_named_workload(&spec.workload, size)?;
    let fingerprint = check_fingerprint(path, &spec, &spec.workload, &modules)?;
    let mut config = spec.to_config(opts.jobs)?;
    // Fault injection is never stored in a checkpoint; a resumed leg only
    // gets faults the tests pass explicitly on this command line.
    config.fault = opts.fault;
    let token = make_token(opts);
    let writer = CheckpointWriter::new(
        path,
        ckpt.clone(),
        token.clone(),
        opts.fault.kill_in_checkpoint_write,
    );
    let run = run_with_control(
        &modules,
        &config,
        &token,
        spec.checkpoint_every,
        Some(&writer),
        ckpt.resume_state(),
    )?;
    // The stored label comes from the checkpoint's own arch and overrides,
    // never this process's defaults: a resumed neoverse run must not be
    // re-stamped "xeon".
    render_run(
        opts,
        &spec.workload,
        spec.rand_seed,
        &spec.arch,
        config.core,
        fingerprint,
        &run,
    )?;
    // The run completed: the checkpoint has served its purpose. Only
    // daemon-style archive checkpoints are reclaimed; an explicit
    // `resume FILE` leaves the caller's file alone (tests re-resume them).
    if std::path::Path::new(arg).is_dir() {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Refuses a checkpoint image recorded against a different program than
/// `modules` (the current build of `workload`): its profiles would describe
/// code this build does not contain. Returns the current fingerprint.
fn check_fingerprint(
    path: &str,
    spec: &CheckpointSpec,
    workload: &str,
    modules: &[Module],
) -> Result<u64, OptiwiseError> {
    let fingerprint = module_fingerprint(modules);
    if fingerprint != spec.module_hash {
        return Err(OptiwiseError::Store(StoreError::in_section(
            0,
            "CKPT",
            format!(
                "{path} was recorded against a different build: `{}` \
                 (module hash {:016x}), not the current build of `{workload}` \
                 ({fingerprint:016x}); rerun the profiling passes instead",
                spec.workload, spec.module_hash
            ),
        )));
    }
    Ok(fingerprint)
}

/// The newest incomplete checkpoint under an archive's `checkpoints/`
/// directory, by modification time with the file name as a deterministic
/// tie-break.
fn newest_checkpoint(archive_root: &std::path::Path) -> Result<String, OptiwiseError> {
    let dir = archive_root.join(wiser_archive::CHECKPOINTS_DIR);
    let entries = std::fs::read_dir(&dir)
        .map_err(|e| OptiwiseError::Io(format!("{}: {e}", dir.display())))?;
    let mut candidates: Vec<(std::time::SystemTime, String, std::path::PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| OptiwiseError::Io(format!("{}: {e}", dir.display())))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".owp") || wiser_store::is_temp_debris(&name) {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        candidates.push((mtime, name, entry.path()));
    }
    candidates.sort();
    match candidates.pop() {
        Some((_, _, path)) => Ok(path.display().to_string()),
        None => Err(OptiwiseError::Usage(format!(
            "no incomplete checkpoint found in {}",
            dir.display()
        ))),
    }
}

fn module_of(analysis: &Analysis, func: &str) -> u32 {
    analysis
        .functions()
        .iter()
        .find(|f| f.name == func)
        .map(|f| f.module)
        .unwrap_or(0)
}

/// The `--out` file of `sample`/`instrument`: the profile is a binary
/// image, so there is no stdout fallback.
fn split_out<'a>(opts: &'a Options, cmd: &str) -> Result<&'a str, OptiwiseError> {
    opts.out.as_deref().ok_or_else(|| {
        OptiwiseError::Usage(format!("{cmd} needs --out FILE (a binary .owp image)"))
    })
}

/// Writes one pass of the split workflow as a checkpoint image: the run
/// spec (which pins the workload build) plus that pass's profile.
fn save_split(
    opts: &Options,
    path: &str,
    modules: &[Module],
    samples: Option<SampleProfile>,
    counts: Option<CountsProfile>,
) -> Result<(), OptiwiseError> {
    let spec = checkpoint_spec(opts, &opts.workloads[0], modules, &pipeline_config(opts), 0);
    let mut ckpt = Checkpoint::fresh(spec);
    ckpt.sample_pos = samples.as_ref().map_or(0, |p| p.retired);
    ckpt.counts_pos = counts.as_ref().map_or(0, CountsProfile::total_insns);
    ckpt.samples = samples;
    ckpt.counts = counts;
    let bytes = opts.fault.corrupt_bytes(&ckpt.to_bytes());
    wiser_store::atomic_write(std::path::Path::new(path), &bytes)
        .map_err(|e| OptiwiseError::Io(format!("writing {path}: {e}")))
}

fn cmd_sample(opts: &Options) -> Result<(), OptiwiseError> {
    let out = split_out(opts, "sample")?;
    let modules = build_workload(opts)?;
    let load = LoadConfig {
        aslr_seed: Some(0x5a5a),
        ..LoadConfig::default()
    };
    let image = ProcessImage::load(&modules, &load)?;
    let mut sampler_cfg = opts.sampler;
    sampler_cfg.fault = opts.fault;
    let (profile, run) =
        sample_run(&image, opts.seed, opts.core, sampler_cfg, 200_000_000)?;
    if let Some(reason) = &profile.truncated {
        if opts.strict || !opts.allow_partial {
            return Err(OptiwiseError::Truncated {
                pass: Pass::Sampling,
                reason: reason.clone(),
            });
        }
        eprintln!("optiwise: sampling run truncated ({reason}); emitting partial profile");
    }
    eprintln!(
        "sampled {} cycles, {} samples, overhead estimate {:.3}x",
        run.stats.cycles,
        profile.samples.len(),
        wiser_sampler::sampling_overhead(&profile)
    );
    save_split(opts, out, &modules, Some(profile), None)
}

fn cmd_instrument(opts: &Options) -> Result<(), OptiwiseError> {
    let out = split_out(opts, "instrument")?;
    let modules = build_workload(opts)?;
    let load = LoadConfig {
        aslr_seed: Some(0xa5a5),
        ..LoadConfig::default()
    };
    let image = ProcessImage::load(&modules, &load)?;
    let counts = instrument_run(
        &image,
        &DbiConfig {
            stack_profiling: opts.stack_profiling,
            rand_seed: opts.seed,
            fault: opts.fault,
            ..DbiConfig::default()
        },
    )?;
    if let Some(reason) = &counts.truncated {
        if opts.strict || !opts.allow_partial {
            return Err(OptiwiseError::Truncated {
                pass: Pass::Instrumentation,
                reason: reason.clone(),
            });
        }
        eprintln!("optiwise: instrumentation run truncated ({reason}); emitting partial profile");
    }
    eprintln!(
        "counted {} instructions in {} blocks, overhead estimate {:.1}x",
        counts.cost.native_insns,
        counts.cost.unique_blocks,
        counts.cost.overhead()
    );
    save_split(opts, out, &modules, None, Some(counts))
}

/// Loads one split-workflow file, refusing it unless it was recorded
/// against the current build of `workload`.
fn load_split(path: &str, workload: &str, modules: &[Module]) -> Result<Checkpoint, OptiwiseError> {
    let ckpt = Checkpoint::load(std::path::Path::new(path))?;
    check_fingerprint(path, &ckpt.spec, workload, modules)?;
    Ok(ckpt)
}

/// A split-workflow file that lacks the section an `analyze` flag needs
/// (e.g. a counts file passed to `--samples`).
fn missing_section(path: &str, tag: &str, cmd: &str) -> OptiwiseError {
    OptiwiseError::Store(StoreError::in_section(
        0,
        tag,
        format!("{path} holds no {tag} section; pass a file written by `optiwise {cmd} --out`"),
    ))
}

fn cmd_analyze(opts: &Options) -> Result<(), OptiwiseError> {
    let modules = build_workload(opts)?;
    let workload = &opts.workloads[0];
    let samples_path = opts
        .samples_path
        .as_deref()
        .ok_or_else(|| OptiwiseError::Usage("analyze needs --samples FILE".into()))?;
    let counts_path = opts
        .counts_path
        .as_deref()
        .ok_or_else(|| OptiwiseError::Usage("analyze needs --counts FILE".into()))?;
    let samples = load_split(samples_path, workload, &modules)?
        .samples
        .ok_or_else(|| missing_section(samples_path, "SAMP", "sample"))?;
    let counts = load_split(counts_path, workload, &modules)?
        .counts
        .ok_or_else(|| missing_section(counts_path, "CNTS", "instrument"))?;
    // Rebuild the linked view for disassembly/line info.
    let load = LoadConfig {
        aslr_seed: Some(0xa5a5),
        ..LoadConfig::default()
    };
    let image = ProcessImage::load(&modules, &load)?;
    let linked: Vec<Module> = image.modules.iter().map(|m| m.linked.clone()).collect();
    let analysis_opts = AnalysisOptions {
        merge_threshold: opts.merge_threshold,
        jobs: opts.jobs,
    };
    // Same recovery ladder as the live pipeline: truncated counts are
    // discarded and the analysis degrades, unless partials are disallowed.
    let analysis = match &counts.truncated {
        Some(reason) if opts.strict || !opts.allow_partial => {
            return Err(OptiwiseError::Truncated {
                pass: Pass::Instrumentation,
                reason: reason.clone(),
            });
        }
        Some(reason) => {
            eprintln!(
                "optiwise: counts profile truncated ({reason}); \
                 degrading to sampling-only analysis"
            );
            let mut analysis = Analysis::sampling_only(&linked, &samples, analysis_opts)?;
            analysis.diagnostics.counts_truncated = Some(reason.clone());
            analysis
        }
        None => {
            match &samples.truncated {
                Some(reason) if opts.strict || !opts.allow_partial => {
                    return Err(OptiwiseError::Truncated {
                        pass: Pass::Sampling,
                        reason: reason.clone(),
                    });
                }
                _ => {}
            }
            Analysis::try_new(&linked, &samples, &counts, analysis_opts)?
        }
    };
    if opts.strict && analysis.diagnostics.diverged(DEFAULT_DIVERGENCE_THRESHOLD) {
        return Err(OptiwiseError::Divergence {
            score: analysis.diagnostics.divergence_score,
            threshold: DEFAULT_DIVERGENCE_THRESHOLD,
            summary: analysis.diagnostics.summary(),
        });
    }
    emit(opts, &report::full_report(&analysis, opts.top))
}

fn cmd_annotate(opts: &Options) -> Result<(), OptiwiseError> {
    let func = opts
        .function
        .as_deref()
        .ok_or_else(|| OptiwiseError::Usage("annotate needs --function NAME".into()))?
        .to_string();
    let modules = build_workload(opts)?;
    let run = run_optiwise(&modules, &pipeline_config(opts))?;
    let rows = run
        .analysis
        .annotate_function(module_of(&run.analysis, &func), &func);
    if rows.is_empty() {
        return Err(OptiwiseError::Usage(format!(
            "function `{func}` not found or never executed"
        )));
    }
    emit(opts, &report::annotate(&rows, run.analysis.total_cycles))
}

/// The single positional argument of `show`/`report`: a stored-profile path.
fn profile_arg<'a>(opts: &'a Options, cmd: &str) -> Result<&'a str, OptiwiseError> {
    match opts.workloads.as_slice() {
        [path] => Ok(path),
        _ => Err(OptiwiseError::Usage(format!(
            "`{cmd}` takes exactly one stored profile (.owp) path"
        ))),
    }
}

fn load_profile(path: &str) -> Result<StoredProfile, OptiwiseError> {
    StoredProfile::load(std::path::Path::new(path))
}

/// True when two stored profiles were recorded under different uarch
/// configurations: a CPI shift between them is then a config consequence
/// (paper figs. 8/9), not a code regression. Compares the `UCFG` sections
/// when both runs carry one; older stores fall back to the arch label.
fn config_mismatch(old: &StoredProfile, new: &StoredProfile) -> bool {
    if old.meta.arch != new.meta.arch {
        return true;
    }
    match (&old.uarch, &new.uarch) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    }
}

fn cmd_show(opts: &Options) -> Result<(), OptiwiseError> {
    let path = profile_arg(opts, "show")?;
    let stored = load_profile(path)?;
    let meta = &stored.meta;
    let mut text = format!(
        "== stored profile: {} ==\nfile: {}   format v{}   tool {}   arch {}   seed {}\n\
         sections: meta{}{} tables{}\n\n",
        meta.label,
        path,
        wiser_store::FORMAT_VERSION,
        meta.tool_version,
        meta.arch,
        meta.rand_seed,
        if stored.samples.is_some() { " samples" } else { "" },
        if stored.counts.is_some() { " counts" } else { "" },
        if stored.transforms.is_empty() { "" } else { " transforms" },
    );
    text.push_str(&report::tables_report(&stored.tables, opts.top));
    if !stored.transforms.is_empty() {
        text.push('\n');
        text.push_str(&stored.transforms.render());
    }
    emit(opts, &text)
}

fn cmd_report(opts: &Options) -> Result<(), OptiwiseError> {
    let path = profile_arg(opts, "report")?;
    let stored = load_profile(path)?;
    let text = if opts.yaml {
        optiwise::export::tables_yaml(&stored.tables)
    } else if opts.json {
        optiwise::export::tables_json(&stored.tables)
    } else {
        report::tables_report(&stored.tables, opts.top)
    };
    emit(opts, &text)
}

fn cmd_diff(opts: &Options) -> Result<(), OptiwiseError> {
    let (old_path, new_path) = match opts.workloads.as_slice() {
        [old, new] => (old, new),
        _ => {
            return Err(OptiwiseError::Usage(
                "`diff` takes exactly two stored profile (.owp) paths: old then new".into(),
            ))
        }
    };
    let old = load_profile(old_path)?;
    let new = load_profile(new_path)?;
    // Runs recorded under different uarch configs classify their shifts as
    // `config`, not regressions — unless `--strict-config` insists the
    // comparison gate anyway.
    let options = DiffOptions {
        threshold_pct: opts.threshold,
        config_changed: config_mismatch(&old, &new) && !opts.strict_config,
        ..DiffOptions::default()
    };
    let diff = diff_tables(&old.tables, &new.tables, options);
    let mut text = format!(
        "old: {} ({old_path})\nnew: {} ({new_path})\n",
        old.meta.label, new.meta.label
    );
    text.push_str(&report::diff_report(&diff, opts.top));
    emit(opts, &text)?;
    if opts.fail_on_regression && diff.has_regressions() {
        let (regressions, _, _) = diff.summary();
        return Err(OptiwiseError::Regression {
            count: regressions,
            threshold_pct: opts.threshold,
        });
    }
    Ok(())
}

/// Seeds the optimizer's differential oracle sweeps (acceptance asks for
/// at least 20 generated ASLR/rand seeds per binary pair).
const ORACLE_SEEDS: u64 = 20;
/// Per-seed instruction budget of one oracle execution.
const ORACLE_MAX_INSNS: u64 = 200_000_000;

/// `optiwise optimize [--verify] <workload|profile.owp>`: profile-guided
/// binary rewriting closed into a verification loop.
///
/// The baseline profile comes either from a stored `.owp` run (the argument
/// is an existing file; it must carry its counts section) or from a fresh
/// profiling run of the named workload. The optimizer (`wiser-opt`) rewrites
/// the module set — hot-path block layout, guarded indirect-call promotion,
/// loop-invariant hoisting — then three independent checks gate the result:
///
/// 1. every rewritten module passes `Module::validate`;
/// 2. the simulator oracle runs baseline and rewritten binaries on
///    [`ORACLE_SEEDS`] generated seeds and compares observable behaviour
///    (exit code and output bytes) — any divergence exits 5;
/// 3. the rewritten binary is re-profiled and the differential engine
///    classifies the change under the sampling-noise bound; with `--verify`
///    a statistically significant regression exits 7.
///
/// `--save FILE` stores the re-profiled run as a `.owp` whose `XFRM` section
/// records which transforms fired. Output is byte-identical for every
/// `--jobs` value.
fn cmd_optimize(opts: &Options) -> Result<(), OptiwiseError> {
    let [arg] = opts.workloads.as_slice() else {
        return Err(OptiwiseError::Usage(
            "`optimize` takes exactly one workload name or stored profile (.owp) path".into(),
        ));
    };
    let stored = if std::path::Path::new(arg).is_file() {
        Some(load_profile(arg)?)
    } else {
        None
    };
    let (name, seed) = match &stored {
        Some(s) => (s.meta.label.clone(), s.meta.rand_seed),
        None => (arg.to_string(), opts.seed),
    };
    let modules = build_named_workload(&name, opts.size)?;
    let mut config = pipeline_config(opts);
    // A stored baseline was produced under its own seed; re-profile the
    // rewritten binary under the same one so the diff compares like runs.
    config.rand_seed = seed;
    let (baseline, counts) = match stored {
        Some(s) => {
            let counts = s.counts.ok_or_else(|| {
                OptiwiseError::Usage(format!(
                    "{arg} has no counts section; optimize needs the \
                     instrumentation profile (`optiwise run {name} --save`)"
                ))
            })?;
            (s.tables, counts)
        }
        None => {
            let run = run_optiwise(&modules, &config)?;
            (ProfileTables::from_analysis(&run.analysis), run.counts)
        }
    };
    // Minimal counter placement stores only the uncovered counters; recover
    // the flow-conserved profile so every edge weight the transforms read is
    // real, not a placement artifact.
    let counts = match &counts.placement {
        Some(p) if !p.recovered => wiser_cfg::recover(&counts)
            .map_err(|e| OptiwiseError::Internal(format!("recovering counts: {e}")))?,
        _ => counts,
    };

    let (rewritten, log) = wiser_opt::optimize_modules(
        &modules,
        &counts,
        Some(&baseline),
        &wiser_opt::OptimizeOptions::default(),
    )
    .map_err(|e| OptiwiseError::Internal(format!("optimizer: {e}")))?;
    wiser_opt::oracle_check(&modules, &rewritten, ORACLE_SEEDS, ORACLE_MAX_INSNS).map_err(
        |e| OptiwiseError::Divergence {
            score: 1.0,
            threshold: 0.0,
            summary: format!("optimizer oracle: {e}"),
        },
    )?;

    let verify_run = run_optiwise(&rewritten, &config)?;
    let optimized = ProfileTables::from_analysis(&verify_run.analysis);
    let diff = diff_tables(
        &baseline,
        &optimized,
        DiffOptions {
            threshold_pct: opts.threshold,
            ..DiffOptions::default()
        },
    );

    if let Some(path) = &opts.save {
        let mut profile =
            StoredProfile::from_run(&name, &verify_run, seed, opts.arch_name, config.core);
        profile.transforms = log.clone();
        profile.save(std::path::Path::new(path))?;
        eprintln!("saved optimized-run profile to {path}");
    }

    // Rewriting intentionally changes instruction counts (inserted guard
    // sequences, dropped/added jumps, hoisted invariants), so exact-count
    // `Execs` rows shifting is the rewrite working, not a performance
    // verdict. The verify gate counts only CPI/cycle regressions — the
    // sampling-noise-bounded claims the optimizer must never make worse.
    let cpi_regressions = diff
        .rows()
        .filter(|r| {
            r.class == optiwise::DiffClass::Regression && r.metric != optiwise::DiffMetric::Execs
        })
        .count();

    let mut text = format!("== optimize: {name} ==\n");
    text.push_str(&log.render());
    text.push_str(&format!(
        "oracle: {ORACLE_SEEDS} seeds, behaviour preserved\n\
         \n== re-profile: baseline -> optimized ==\n"
    ));
    text.push_str(&report::diff_report(&diff, opts.top));
    text.push_str(&format!(
        "verify: {cpi_regressions} CPI regression(s); exact-count shifts \
         from rewriting are expected and not gated\n"
    ));
    emit(opts, &text)?;

    if opts.verify && cpi_regressions > 0 {
        return Err(OptiwiseError::Regression {
            count: cpi_regressions,
            threshold_pct: opts.threshold,
        });
    }
    Ok(())
}

/// `optiwise selfcheck [--seed-range A..B]`: differential self-check of the
/// whole pipeline against the ground-truth oracle over generated programs.
///
/// Seeds are swept on a bounded worker pool (`--jobs N`); results are
/// reported in ascending seed order regardless of completion order, so the
/// report is byte-identical for every thread count. Any join-bug
/// discrepancy — numbers exact ground truth contradicts — exits 10.
fn cmd_selfcheck(opts: &Options) -> Result<(), OptiwiseError> {
    if !opts.workloads.is_empty() {
        return Err(OptiwiseError::Usage(
            "`selfcheck` generates its own programs; it takes no workload".into(),
        ));
    }
    let (lo, hi) = opts.seed_range.unwrap_or((0, 10));
    let mut check_opts = optiwise::selfcheck::SelfCheckOptions::default();
    check_opts.config.sampler = opts.sampler;
    check_opts.config.core = opts.core;
    check_opts.config.analysis.merge_threshold = opts.merge_threshold;
    check_opts.config.selective = opts.selective;
    check_opts.config.hot_threshold = opts.hot_threshold;
    check_opts.config.exhaustive_counters = opts.exhaustive_counters;

    let seeds: Vec<u64> = (lo..hi).collect();
    let results = wiser_par::par_map(opts.jobs, seeds, |_, seed| {
        let modules = wiser_workloads::generated::generate(seed)
            .map_err(|e| OptiwiseError::Load(format!("generating seed {seed}: {e}")))?;
        optiwise::selfcheck::check_modules(&modules, &check_opts).map(|c| (seed, c))
    })
    .map_err(|e| OptiwiseError::Internal(format!("selfcheck worker: {e}")))?;

    let mut out = String::new();
    let mut bug_seeds: Vec<u64> = Vec::new();
    let mut total_bugs = 0usize;
    for result in results {
        let (seed, check) = result?;
        let bugs = check.join_bugs();
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!("seed {seed}: {}\n", check.summary()),
        );
        for d in check
            .discrepancies
            .iter()
            .filter(|d| d.class == optiwise::selfcheck::DiscrepancyClass::JoinBug)
            .take(opts.top)
        {
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("  {d}\n"));
        }
        if bugs > 0 {
            bug_seeds.push(seed);
            total_bugs += bugs;
        }
    }
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            "selfcheck: seeds {lo}..{hi}, {} clean, {} with join bugs\n",
            (hi - lo) as usize - bug_seeds.len(),
            bug_seeds.len(),
        ),
    );
    emit(opts, &out)?;
    if total_bugs > 0 {
        return Err(OptiwiseError::SelfCheck {
            join_bugs: total_bugs,
            seeds: bug_seeds,
        });
    }
    Ok(())
}

/// `optiwise fsck <archive>`: verify every run and the manifest, repair
/// what can be repaired, quarantine what cannot. Exit 0 when the archive
/// was already clean, 11 when damage was found and repaired, 12 when the
/// archive cannot be made servable.
fn cmd_fsck(opts: &Options) -> Result<(), OptiwiseError> {
    let root = profile_arg(opts, "fsck")?;
    let report = wiser_archive::fsck(std::path::Path::new(root))?;
    emit(opts, &format!("{report}\n"))?;
    match report.verdict() {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

/// `optiwise query <archive> [--last N]`: run the differential CPI engine
/// across the last N committed runs in the archive, newest against its
/// predecessor, in parallel. The diffs are keyed by archive position, not
/// completion order, so the output is byte-identical for every `--jobs`.
fn cmd_query(opts: &Options) -> Result<(), OptiwiseError> {
    let root = profile_arg(opts, "query")?;
    let archive = wiser_archive::Archive::open(std::path::Path::new(root))?;
    let committed: Vec<(u64, String)> = archive
        .manifest()
        .committed()
        .map(|e| (e.run_id, e.workload.clone()))
        .collect();
    if committed.len() < 2 {
        return Err(OptiwiseError::Usage(format!(
            "`query` diffs consecutive runs; {root} has {} committed run(s), needs at least 2",
            committed.len()
        )));
    }
    let tail = &committed[committed.len().saturating_sub(opts.last)..];
    let loaded = wiser_par::par_map(opts.jobs, tail.to_vec(), |_, (id, _)| {
        archive.load_run(id).map(|p| (id, p))
    })
    .map_err(|e| OptiwiseError::Internal(format!("query worker: {e}")))?;
    let mut runs = Vec::with_capacity(loaded.len());
    for r in loaded {
        runs.push(r?);
    }
    let pairs: Vec<(usize, usize)> = (1..runs.len()).map(|i| (i - 1, i)).collect();
    let threshold_pct = opts.threshold;
    let strict_config = opts.strict_config;
    let diffs = wiser_par::par_map(opts.jobs, pairs, |_, (a, b)| {
        // Mismatch is per pair: an archive can interleave configs, and only
        // the cross-config pairs demote their shifts to `config`.
        let options = DiffOptions {
            threshold_pct,
            config_changed: config_mismatch(&runs[a].1, &runs[b].1) && !strict_config,
            ..DiffOptions::default()
        };
        diff_tables(&runs[a].1.tables, &runs[b].1.tables, options)
    })
    .map_err(|e| OptiwiseError::Internal(format!("query worker: {e}")))?;

    let mut out = String::new();
    let mut regressions = 0usize;
    for (i, diff) in diffs.iter().enumerate() {
        let (old_id, old) = &runs[i];
        let (new_id, new) = &runs[i + 1];
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "== diff: run {old_id} ({}) -> run {new_id} ({}) ==\n",
                old.meta.label, new.meta.label
            ),
        );
        out.push_str(&report::diff_report(diff, opts.top));
        out.push('\n');
        if diff.has_regressions() {
            regressions += diff.summary().0;
        }
    }
    emit(opts, &out)?;
    if opts.fail_on_regression && regressions > 0 {
        return Err(OptiwiseError::Regression {
            count: regressions,
            threshold_pct: opts.threshold,
        });
    }
    Ok(())
}

/// Sends one JSONL request to a running `optiwised` and returns the decoded
/// response object. One line out, one line back — the whole client.
#[cfg(unix)]
fn daemon_request(
    opts: &Options,
    line: &str,
) -> Result<std::collections::BTreeMap<String, jsonl::Value>, OptiwiseError> {
    use std::io::{BufRead, BufReader, Write};

    let socket = opts.socket.as_deref().ok_or_else(|| {
        OptiwiseError::Usage("this command talks to optiwised; pass --socket PATH".into())
    })?;
    let stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| OptiwiseError::Io(format!("connecting to {socket}: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| OptiwiseError::Io(format!("{socket}: {e}")))?;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| OptiwiseError::Io(format!("writing to {socket}: {e}")))?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| OptiwiseError::Io(format!("reading from {socket}: {e}")))?;
    if response.trim().is_empty() {
        return Err(OptiwiseError::Io(format!(
            "{socket}: daemon closed the connection without a response"
        )));
    }
    jsonl::parse_object(&response)
        .map_err(|e| OptiwiseError::Io(format!("bad response from {socket}: {e}")))
}

#[cfg(not(unix))]
fn daemon_request(
    _opts: &Options,
    _line: &str,
) -> Result<std::collections::BTreeMap<String, jsonl::Value>, OptiwiseError> {
    Err(OptiwiseError::Usage(
        "optiwised uses Unix sockets; this platform has none".into(),
    ))
}

/// Prints a daemon response and turns `{"ok":false}` into the error the
/// daemon reported, so the client's exit code mirrors the job's.
fn render_response(
    opts: &Options,
    response: &std::collections::BTreeMap<String, jsonl::Value>,
) -> Result<(), OptiwiseError> {
    emit(opts, &format!("{}\n", jsonl::to_line(response)))?;
    if response.get("ok") == Some(&jsonl::Value::Bool(true)) {
        return Ok(());
    }
    let error = match response.get("error") {
        Some(jsonl::Value::Str(s)) => s.clone(),
        _ => "daemon reported failure".into(),
    };
    match response.get("exit") {
        // The daemon forwards the job's own exit code; reproduce it so
        // `submit` behaves like running the job locally.
        Some(&jsonl::Value::Int(code)) => Err(OptiwiseError::Daemon {
            message: error,
            exit: code.min(u8::MAX as u64) as u8,
        }),
        _ => Err(OptiwiseError::Io(error)),
    }
}

/// `optiwise submit --socket S <workload>`: run one profiling job on the
/// daemon and wait for the result line.
fn cmd_submit(opts: &Options) -> Result<(), OptiwiseError> {
    let workload = match opts.workloads.as_slice() {
        [name] => name,
        _ => {
            return Err(OptiwiseError::Usage(
                "`submit` takes exactly one workload name".into(),
            ))
        }
    };
    let mut fields = std::collections::BTreeMap::from([
        ("cmd".to_string(), jsonl::Value::Str("submit".into())),
        ("workload".to_string(), jsonl::Value::Str(workload.clone())),
        (
            "size".to_string(),
            jsonl::Value::Str(opts.size.name().to_string()),
        ),
        ("seed".to_string(), jsonl::Value::Int(opts.seed)),
        (
            "arch".to_string(),
            jsonl::Value::Str(opts.arch_name.to_string()),
        ),
    ]);
    if !opts.overrides.is_empty() {
        let set = opts
            .overrides
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        fields.insert("set".to_string(), jsonl::Value::Str(set));
    }
    let request = jsonl::to_line(&fields);
    render_response(opts, &daemon_request(opts, &request)?)
}

/// `optiwise status --socket S`: one-line daemon health check.
fn cmd_status(opts: &Options) -> Result<(), OptiwiseError> {
    let request = jsonl::to_line(&std::collections::BTreeMap::from([(
        "cmd".to_string(),
        jsonl::Value::Str("status".into()),
    )]));
    render_response(opts, &daemon_request(opts, &request)?)
}

/// `optiwise shutdown --socket S`: ask the daemon to drain and exit.
fn cmd_shutdown(opts: &Options) -> Result<(), OptiwiseError> {
    let request = jsonl::to_line(&std::collections::BTreeMap::from([(
        "cmd".to_string(),
        jsonl::Value::Str("shutdown".into()),
    )]));
    render_response(opts, &daemon_request(opts, &request)?)
}

const USAGE: &str = "\
usage: optiwise <command> [options] [workload]
commands:
  check                 end-to-end self test
  list                  list registered workloads
  run <workload>...     sample + instrument + fused report; several
                        workloads run concurrently (see --jobs) and their
                        reports merge in command-line order
  sample <workload> --out F.owp
                        sampling pass; write its profile as a checkpoint
                        image (run spec + SAMP section)
  instrument <workload> --out F.owp
                        instrumentation pass; write its counts as a
                        checkpoint image (run spec + CNTS section)
  analyze <workload> --samples F.owp --counts F.owp
                        fused report from the two split files; files
                        recorded against another build exit 6
  annotate <workload> --function NAME
  show <profile.owp>    report a saved binary profile
  report <profile.owp>  tables from a saved profile (--format text|json)
  diff <old.owp> <new.owp>
                        differential CPI analysis between two saved runs;
                        runs recorded under different uarch configs classify
                        their shifts as `config`, not regressions (see
                        --strict-config)
  sweep <workload|generated:SEED>... --archive DIR
                        config-sweep fleet: the cross product of --config
                        specs (default: xeon and neoverse) and workloads
                        runs on the worker pool; every cell commits to the
                        archive as a self-describing .owp run (UCFG section)
                        and checkpoints while running; committed cells are
                        skipped on re-run, and the reduction diffs every
                        config against the first one per workload; run ids,
                        the .owp fleet and the report are byte-identical
                        for every --jobs value
  optimize <workload|profile.owp>
                        profile-guided rewrite (block layout, call promotion,
                        loop-invariant hoisting), checked by a differential
                        oracle over generated seeds, then re-profiled and
                        diffed against the baseline; --verify exits 7 on a
                        statistically significant regression, --save stores
                        the optimized run with its XFRM provenance section;
                        with a .owp baseline, pass the --size it was
                        recorded at (the store does not carry it)
  resume <checkpoint.owp|archive>
                        continue an interrupted run from its checkpoint;
                        given an archive directory, the newest incomplete
                        checkpoint under its checkpoints/ is resumed;
                        the report is byte-identical to an uninterrupted run
  selfcheck             differential self-check: run the full pipeline and
                        the exact oracle over generated programs and compare
                        every table; join-bug discrepancies exit 10
  fsck <archive>        verify every run and the manifest of a run archive,
                        repair what can be repaired, quarantine what cannot;
                        exits 0 clean, 11 repaired, 12 unrepairable
  query <archive>       diff the last N committed runs (--last N, default 4)
                        pairwise in parallel; output is byte-identical for
                        every --jobs value
  fuzz                  deterministic hostile-input sweep over the decode
                        surfaces (profile, checkpoint, manifest, jsonl);
                        --seed-range picks the seeds (default 0..256),
                        --surface repeats to restrict; the report is
                        byte-identical for every --jobs value and any
                        invariant violation exits 13 with reproducer seeds
  submit --socket S <workload>
                        run one job on a running optiwised and wait; the
                        exit code mirrors the job's own
  status --socket S     one-line daemon health check
  shutdown --socket S   ask the daemon to drain and exit
options:
  --size test|train|ref   --arch xeon|neoverse|tiny   --period N
  --set KEY=VALUE         override one uarch config field on top of --arch
                          (rob_size=128, l1d.size=65536, commit_mode=early);
                          repeatable, applied in order, validated up front
  --config SPEC           (sweep) one grid configuration: an arch preset
                          name with optional overrides, e.g.
                          neoverse:rob_size=64,commit_mode=early_release;
                          repeatable, declared order is grid order and the
                          first config is the per-workload baseline
  --strict-config         (diff/query) gate regressions even across runs
                          recorded under different uarch configs; without
                          it cross-config shifts classify as `config` and
                          never trip --fail-on-regression
  --attribution interrupt|precise|predecessor
  --no-stack-profiling    --merge-threshold N|off
  --seed N  --top N  --out FILE  --csv-dir DIR
  --jobs N                worker threads (default: available cores); 1 runs
                          every stage sequentially, >1 also overlaps the
                          two profiling passes; reports are identical
                          for every N
  --strict                fail on truncation or run divergence
  --allow-partial / --no-partial
                          accept or reject truncated profiles (default: accept)
  --selective             two-phase pipeline: the sampling pass runs first and
                          only functions above --hot-threshold of its samples
                          are fully instrumented; cold code is attributed from
                          samples only and marked `sampling-only` in the report
  --hot-threshold F       (run/selfcheck, with --selective) hotness cutoff as a
                          fraction of total samples, 0..=1 (default: 0.01)
  --exhaustive-counters   disable minimal counter placement: charge one counter
                          per executed block/edge as in the naive DBI engine
  --deadline SECS         wall-clock budget; the run stops at the next safe
                          instruction boundary and exits 8 (Ctrl-C does the
                          same without a budget)
  --checkpoint FILE       (run) persist a crash-consistent checkpoint of both
                          passes, resumable with `optiwise resume FILE`
  --checkpoint-every N    checkpoint cadence in committed instructions
                          (default: 1000000; needs --checkpoint)
  --inject SPEC           deterministic fault injection, SPEC is a comma list:
                          seed=N, drop-samples=PCT, abort-sample=N,
                          truncate-counts=N, desync-seed=N, corrupt,
                          kill-after=N, kill-in-write=N
  --save FILE             (run/optimize) also save the profile as a binary
                          .owp store
  --format text|json|yaml (report) output format (default: text)
  --threshold PCT         (diff/optimize) significance threshold in percent
                          (default: 5)
  --fail-on-regression    (diff) exit 7 when regressions are found
  --verify                (optimize) exit 7 when the re-profile diff flags a
                          statistically significant regression
  --seed-range A..B       (selfcheck/fuzz) seeds to sweep, half-open
                          (selfcheck default: 0..10, fuzz default: 0..256)
  --surface NAME          (fuzz) restrict to one decode surface; repeatable
                          (profile, checkpoint, manifest, jsonl)
  --max-line-bytes N      (optiwised) cap on one request line; longer lines
                          get a typed error frame and the connection closes
                          (default: 65536)
  --min-headroom N        (optiwised) free bytes the archive filesystem must
                          have to admit work; below it submits answer
                          `overloaded` (default: 1048576)
  --max-queued-bytes N    (optiwised) cap on admitted-but-unfinished request
                          bytes; beyond it submits answer `overloaded`
                          (default: 1048576)
  --archive DIR           (run/resume) also commit the profile to a crash-safe
                          multi-run archive; --max-runs/--max-bytes prune it
  --last N                (query) how many trailing runs to diff (default: 4)
  --socket PATH           (submit/status/shutdown) optiwised Unix socket
  --max-runs N / --max-bytes N
                          archive retention: evict oldest committed runs
                          beyond these limits (quarantine is never touched)
exit codes:
  0 ok   2 load/disasm   3 exec fault   4 truncated   5 divergence
  6 parse error   7 regression   8 deadline/cancelled (SIGINT or SIGTERM)
  9 injected crash   10 selfcheck join bug   11 archive repaired by fsck
  12 archive unrepairable   13 fuzz invariant violation   1 usage/other
";

/// The `optiwise` binary's entry point (`src/main.rs` is a one-liner into
/// here so the daemon binary can share every command implementation).
pub fn cli_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "check" => cmd_check(),
        "list" => cmd_list(),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        cmd => match parse_options(rest) {
            Err(e) => Err(OptiwiseError::Usage(e)),
            // `run` and `sweep` fan out over several workloads and `diff`
            // takes two file paths; every other command takes exactly one
            // positional.
            Ok(opts)
                if !matches!(cmd, "run" | "diff" | "sweep") && opts.workloads.len() > 1 =>
            {
                Err(OptiwiseError::Usage(format!(
                    "`{cmd}` takes one workload; only `run` and `sweep` accept several"
                )))
            }
            Ok(opts) => match cmd {
                "run" => cmd_run(opts),
                "sweep" => cmd_sweep(opts),
                "sample" => cmd_sample(&opts),
                "instrument" => cmd_instrument(&opts),
                "analyze" => cmd_analyze(&opts),
                "annotate" => cmd_annotate(&opts),
                "show" => cmd_show(&opts),
                "report" => cmd_report(&opts),
                "diff" => cmd_diff(&opts),
                "optimize" => cmd_optimize(&opts),
                "resume" => cmd_resume(&opts),
                "selfcheck" => cmd_selfcheck(&opts),
                "fuzz" => fuzz::cmd_fuzz(&opts),
                "fsck" => cmd_fsck(&opts),
                "query" => cmd_query(&opts),
                "submit" => cmd_submit(&opts),
                "status" => cmd_status(&opts),
                "shutdown" => cmd_shutdown(&opts),
                other => Err(OptiwiseError::Usage(format!(
                    "unknown command `{other}`\n{USAGE}"
                ))),
            },
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("optiwise: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options(&owned)
    }

    #[test]
    fn defaults() {
        let o = parse(&["mcf_like"]).unwrap();
        assert_eq!(o.workloads, vec!["mcf_like".to_string()]);
        assert_eq!(o.size, InputSize::Train);
        assert!(o.stack_profiling);
        assert_eq!(o.merge_threshold, Some(wiser_cfg::MERGE_THRESHOLD));
        assert_eq!(o.jobs, wiser_par::available_jobs());
        assert!(o.jobs >= 1);
    }

    #[test]
    fn all_options_parse() {
        let o = parse(&[
            "--size", "ref",
            "--arch", "neoverse",
            "--period", "4096",
            "--attribution", "precise",
            "--no-stack-profiling",
            "--merge-threshold", "off",
            "--seed", "42",
            "--top", "5",
            "--out", "/tmp/x.txt",
            "--function", "main",
            "--jobs", "3",
            "udiv_chain",
        ])
        .unwrap();
        assert_eq!(o.size, InputSize::Ref);
        assert_eq!(o.sampler.period, 4096);
        assert_eq!(o.sampler.attribution, Attribution::Precise);
        assert!(!o.stack_profiling);
        assert_eq!(o.merge_threshold, None);
        assert_eq!(o.seed, 42);
        assert_eq!(o.top, 5);
        assert_eq!(o.out.as_deref(), Some("/tmp/x.txt"));
        assert_eq!(o.function.as_deref(), Some("main"));
        assert_eq!(o.jobs, 3);
        assert_eq!(o.workloads, vec!["udiv_chain".to_string()]);
    }

    #[test]
    fn rejects_unknown_option_and_bad_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--size"]).is_err());
        assert!(parse(&["--size", "gigantic"]).is_err());
        assert!(parse(&["--attribution", "psychic"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn multiple_workloads_collect_in_order() {
        let o = parse(&["rand_walk", "loop_merge", "udiv_chain"]).unwrap();
        assert_eq!(
            o.workloads,
            vec![
                "rand_walk".to_string(),
                "loop_merge".to_string(),
                "udiv_chain".to_string()
            ]
        );
    }

    #[test]
    fn merge_threshold_numeric() {
        let o = parse(&["--merge-threshold", "7"]).unwrap();
        assert_eq!(o.merge_threshold, Some(7));
        assert!(parse(&["--merge-threshold", "many"]).is_err());
    }

    #[test]
    fn store_and_diff_flags_parse() {
        let o = parse(&["--save", "p.owp", "recip_loop"]).unwrap();
        assert_eq!(o.save.as_deref(), Some("p.owp"));
        assert!(!o.fail_on_regression);
        assert!(!o.json);
        assert!((o.threshold - 5.0).abs() < 1e-9);

        let o = parse(&[
            "--threshold",
            "12.5",
            "--fail-on-regression",
            "old.owp",
            "new.owp",
        ])
        .unwrap();
        assert!((o.threshold - 12.5).abs() < 1e-9);
        assert!(o.fail_on_regression);
        assert_eq!(o.workloads, vec!["old.owp".to_string(), "new.owp".to_string()]);

        let o = parse(&["--format", "json", "p.owp"]).unwrap();
        assert!(o.json && !o.yaml);
        let o = parse(&["--format", "yaml", "p.owp"]).unwrap();
        assert!(o.yaml && !o.json);
        let o = parse(&["--format", "text", "p.owp"]).unwrap();
        assert!(!o.yaml && !o.json);
        assert!(parse(&["--format", "xml"]).is_err());
        assert!(parse(&["--threshold", "-3"]).is_err());
        assert!(parse(&["--threshold", "nope"]).is_err());
    }

    #[test]
    fn optimize_flags_parse() {
        let o = parse(&["--verify", "recip_loop"]).unwrap();
        assert!(o.verify);
        assert!(!parse(&["recip_loop"]).unwrap().verify);
    }

    #[test]
    fn checkpoint_and_deadline_flags_parse() {
        let o = parse(&[
            "--deadline", "2.5",
            "--checkpoint", "ck.owp",
            "--checkpoint-every", "5000",
            "long_haul",
        ])
        .unwrap();
        assert_eq!(o.deadline, Some(2.5));
        assert_eq!(o.checkpoint.as_deref(), Some("ck.owp"));
        assert_eq!(o.checkpoint_every, Some(5000));
        assert_eq!(checkpoint_cadence(&o).unwrap(), 5000);

        // Defaults: no checkpointing; with a file but no cadence, the
        // default cadence applies.
        let o = parse(&["long_haul"]).unwrap();
        assert_eq!(o.deadline, None);
        assert_eq!(checkpoint_cadence(&o).unwrap(), 0);
        let o = parse(&["--checkpoint", "ck.owp", "long_haul"]).unwrap();
        assert_eq!(checkpoint_cadence(&o).unwrap(), DEFAULT_CHECKPOINT_EVERY);

        // A cadence without a file is a usage error; bad values reject.
        let o = parse(&["--checkpoint-every", "9", "long_haul"]).unwrap();
        assert!(checkpoint_cadence(&o).is_err());
        assert!(parse(&["--checkpoint-every", "0"]).is_err());
        assert!(parse(&["--deadline", "0"]).is_err());
        assert!(parse(&["--deadline", "-1"]).is_err());
        assert!(parse(&["--deadline", "soon"]).is_err());
    }

    #[test]
    fn seed_range_parses_half_open() {
        let o = parse(&["--seed-range", "5..25"]).unwrap();
        assert_eq!(o.seed_range, Some((5, 25)));
        assert_eq!(parse(&["x"]).unwrap().seed_range, None);
        assert!(parse(&["--seed-range", "5"]).is_err());
        assert!(parse(&["--seed-range", "9..9"]).is_err());
        assert!(parse(&["--seed-range", "9..3"]).is_err());
        assert!(parse(&["--seed-range", "a..b"]).is_err());
    }

    #[test]
    fn selective_flags_parse() {
        let o = parse(&["mcf_like"]).unwrap();
        assert!(!o.selective);
        assert!(!o.exhaustive_counters);
        assert!((o.hot_threshold - optiwise::DEFAULT_HOT_THRESHOLD).abs() < 1e-12);

        let o = parse(&["--selective", "--hot-threshold", "0.05", "mcf_like"]).unwrap();
        assert!(o.selective);
        assert!((o.hot_threshold - 0.05).abs() < 1e-12);
        let cfg = pipeline_config(&o);
        assert!(cfg.selective);
        assert!((cfg.hot_threshold - 0.05).abs() < 1e-12);

        let o = parse(&["--exhaustive-counters", "mcf_like"]).unwrap();
        assert!(o.exhaustive_counters);
        assert!(pipeline_config(&o).exhaustive_counters);

        assert!(parse(&["--hot-threshold", "1.5"]).is_err());
        assert!(parse(&["--hot-threshold", "-0.1"]).is_err());
        assert!(parse(&["--hot-threshold", "warm"]).is_err());
        assert!(parse(&["--hot-threshold"]).is_err());
    }

    #[test]
    fn arch_flag_tracks_spec_name() {
        assert_eq!(parse(&["x"]).unwrap().arch_name, "xeon");
        let o = parse(&["--arch", "neoverse", "x"]).unwrap();
        assert_eq!(o.arch_name, "neoverse");
        // Every preset in ARCH_NAMES is addressable, not just the two the
        // old hardcoded match knew.
        let o = parse(&["--arch", "tiny", "x"]).unwrap();
        assert_eq!(o.arch_name, "tiny");
        assert!(parse(&["--arch", "warp9", "x"]).is_err());
    }

    #[test]
    fn set_overrides_apply_and_validate() {
        let o = parse(&["--set", "rob_size=128", "x"]).unwrap();
        assert_eq!(
            o.overrides,
            vec![("rob_size".to_string(), "128".to_string())]
        );
        assert_eq!(o.core.rob_size, 128);
        // Overrides win over --arch regardless of flag order.
        let o = parse(&["--set", "rob_size=128", "--arch", "neoverse", "x"]).unwrap();
        assert_eq!(o.core.rob_size, 128);
        assert_eq!(o.arch_name, "neoverse");
        // Malformed specs, unknown keys and invalid values all die at
        // parse time with a field-naming message.
        assert!(parse(&["--set", "rob_size", "x"]).is_err());
        assert!(parse(&["--set", "warp_drive=9", "x"]).is_err());
        let err = parse(&["--set", "rob_size=0", "x"]).err().unwrap();
        assert!(err.contains("rob_size"), "unhelpful error: {err}");
    }

    #[test]
    fn sweep_flags_parse() {
        let o = parse(&[
            "--config",
            "xeon",
            "--config",
            "neoverse:rob_size=64",
            "x",
        ])
        .unwrap();
        assert_eq!(
            o.configs,
            vec!["xeon".to_string(), "neoverse:rob_size=64".to_string()]
        );
        assert!(!o.strict_config);
        assert!(parse(&["--strict-config", "x"]).unwrap().strict_config);
    }

    #[test]
    fn sweep_workloads_parse() {
        let w = parse_sweep_workload("loop_merge", 3).unwrap();
        assert_eq!((w.name.as_str(), w.seed), ("loop_merge", 3));
        let w = parse_sweep_workload("generated:9", 3).unwrap();
        assert_eq!((w.name.as_str(), w.seed), ("generated", 9));
        let w = parse_sweep_workload("generated", 3).unwrap();
        assert_eq!(w.seed, 3);
        assert!(parse_sweep_workload("loop_merge:9", 3).is_err());
        assert!(parse_sweep_workload("no_such_workload", 3).is_err());
    }

    #[test]
    fn robustness_flags_parse() {
        let o = parse(&["--strict", "mcf_like"]).unwrap();
        assert!(o.strict);
        assert!(o.allow_partial);
        let o = parse(&["--no-partial", "mcf_like"]).unwrap();
        assert!(!o.allow_partial);
        let o = parse(&[
            "--inject",
            "seed=7,drop-samples=25,truncate-counts=5000,corrupt",
            "mcf_like",
        ])
        .unwrap();
        assert_eq!(o.fault.seed, 7);
        assert_eq!(o.fault.drop_sample_pct, 25);
        assert_eq!(o.fault.truncate_counts_at, Some(5000));
        assert!(o.fault.corrupt_text);
        assert!(parse(&["--inject", "explode=now"]).is_err());
    }
}
