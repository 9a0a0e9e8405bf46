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
//! optiwise report <profile.owp> [--format text|json|yaml]
//! optiwise diff <old.owp> <new.owp>          # differential CPI analysis
//! optiwise sweep [OPTIONS] <workload>... --archive DIR
//!                                            # config-sweep fleet + reduction
//! optiwise optimize [--verify] <workload|profile.owp>
//!                                            # profile-guided rewrite + check
//! optiwise resume <checkpoint.owp|archive>   # continue an interrupted run
//! optiwise selfcheck [--seed-range A..B]     # pipeline vs oracle sweep
//! optiwise fuzz [--seed-range A..B]          # hostile-input decode sweep
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
//! Each command (and `optiwised`) has one row in [`COMMANDS`]: its
//! positional arguments and the flags it accepts. A flag outside the row
//! is a usage error, never silently ignored; `optiwise help` describes them.
//!
//! `run` accepts multiple workloads: they are profiled concurrently on up
//! to `--jobs N` threads (`wiser_par::par_map`) and the reports are merged
//! in command-line order, so the output is byte-identical for every thread
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
//! against a different build of the workload, then runs the pipeline with
//! both passes restored, so its report is the one `run` prints.
//!
//! Exit codes mirror [`OptiwiseError::exit_code`]: 0 success, 2 load or
//! disassembly failure, 3 execution fault, 4 instruction limit or disallowed
//! truncation, 5 run divergence (strict mode), 6 profile parse error,
//! 7 regressions found by `diff --fail-on-regression`, 8 deadline exceeded
//! or cancelled (SIGINT and SIGTERM both land here), 9 injected crash,
//! 10 join-bug discrepancies found by `selfcheck`, 11 archive damage
//! repaired by `fsck`, 12 archive unrepairable, 13 fuzz invariant
//! violation, 14 timing model stuck, 1 usage/io/other.

pub mod daemon;
mod fuzz;
pub mod jsonl;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use optiwise::{
    counts_pass, diff_tables, module_fingerprint, reduce_fleet, report, run_optiwise,
    run_optiwise_ctl, sampling_pass, Analysis, AnalysisMode, CancelToken, DiffOptions,
    OptiwiseConfig, OptiwiseError, OptiwiseRun, Pass, PassEvent, ProfileTables, ResourceLimits,
    ResumeState, RunControl, StoreError, SweepCell, SweepConfig, SweepGrid, SweepResult,
    SweepWorkload,
};
use wiser_isa::Module;
use wiser_sampler::Attribution;
use wiser_sim::{CoreConfig, FaultPlan, TruncationReason, ARCH_NAMES};
use wiser_store::{Checkpoint, CheckpointSpec, CheckpointWriter, StoredProfile};
use wiser_workloads::InputSize;

#[derive(Clone)]
struct Options {
    /// The job template the pipeline flags write: a fresh job is this spec
    /// with its program, size and seed filled in.
    job: CheckpointSpec,
    size: InputSize,
    configs: Vec<String>,
    strict_config: bool,
    top: usize,
    out: Option<String>,
    samples_path: Option<String>,
    counts_path: Option<String>,
    function: Option<String>,
    csv_dir: Option<String>,
    workloads: Vec<String>,
    jobs: usize,
    fault: FaultPlan,
    save: Option<String>,
    threshold: f64,
    fail_on_regression: bool,
    format: Format,
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
    /// Every flag on the command line, in order.
    flags: Vec<String>,
}

/// `report --format`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Yaml,
}

/// Checkpoint cadence (committed instructions) when `--checkpoint` is given
/// without an explicit `--checkpoint-every`.
const DEFAULT_CHECKPOINT_EVERY: u64 = 1_000_000;

impl Default for Options {
    fn default() -> Options {
        Options {
            job: CheckpointSpec::from_config(0, "", "", "xeon", &[], &OptiwiseConfig::default(), 0),
            size: InputSize::Train,
            configs: Vec::new(),
            strict_config: false,
            top: 15,
            out: None,
            samples_path: None,
            counts_path: None,
            function: None,
            csv_dir: None,
            workloads: Vec::new(),
            jobs: wiser_par::available_jobs(),
            fault: FaultPlan::default(),
            save: None,
            threshold: optiwise::DiffOptions::default().threshold_pct,
            fail_on_regression: false,
            format: Format::Text,
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
            flags: Vec::new(),
        }
    }
}

/// The positional arguments a command takes, named for its usage errors.
#[derive(Clone, Copy)]
enum Arity {
    None,
    One(&'static str),
    Two(&'static str),
    OneOrMore(&'static str),
}

/// One row of the command table: a command's positional arguments, the
/// flags it accepts and its implementation. A command accepts a flag iff
/// its code path reads the `Options` field the flag sets, directly or
/// through `run_job` (`--jobs`, `--inject`), `render_run`, `emit`,
/// `make_token` or the fields of the job template (`Options::job`) that
/// its passes and analysis use under `job_config`: a split pass runs no
/// analysis, and `analyze` restores both passes instead of running them.
/// `--selective` is left out where the command records or fuses full
/// passes, and `--arch`/`--set` on `sweep`, whose `--config` cells
/// overwrite the core they pick.
struct Command {
    name: &'static str,
    args: Arity,
    flags: &'static [&'static [&'static str]],
    run: fn(&Options) -> Result<(), OptiwiseError>,
}

/// The flags that pick the job template's core model.
const CORE: &[&str] = &["--arch", "--set"];

/// The other flags a job's config reads, less `--selective`: the rest of
/// the job template, and `job_config`'s `--jobs` and `--inject`.
#[rustfmt::skip]
const PIPELINE: &[&str] = &[
    "--period", "--attribution", "--no-stack-profiling",
    "--merge-threshold", "--seed", "--jobs", "--strict", "--allow-partial",
    "--no-partial", "--hot-threshold", "--exhaustive-counters", "--inject",
];

/// The flags one split pass reads: its own pass flags, the ones its
/// `CheckpointSpec` records, and those that judge a cut pass.
#[rustfmt::skip]
const SPLIT_PASS: &[&str] = &[
    "--period", "--attribution", "--no-stack-profiling", "--merge-threshold", "--seed",
    "--strict", "--allow-partial", "--no-partial", "--inject", "--size", "--out",
];

/// The flags `render_run` reads (with `emit`): what `run` and `resume` do
/// with a settled run.
#[rustfmt::skip]
const RENDER: &[&str] = &[
    "--save", "--archive", "--inject", "--max-runs", "--max-bytes", "--top",
    "--function", "--csv-dir", "--out",
];

/// Every `optiwise` command. `optiwised` is [`DAEMON`].
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "check", args: Arity::None, run: cmd_check, flags: &[] },
    Command { name: "list", args: Arity::None, run: cmd_list, flags: &[] },
    Command { name: "run", args: Arity::OneOrMore("workload"), run: cmd_run, flags: &[
        CORE, PIPELINE, RENDER,
        &["--selective", "--size", "--deadline", "--checkpoint", "--checkpoint-every"],
    ] },
    Command {
        name: "sweep",
        args: Arity::OneOrMore("workload (a name from `optiwise list` or generated:SEED)"),
        run: cmd_sweep,
        flags: &[PIPELINE, &[
            "--selective", "--size", "--archive", "--config", "--deadline", "--checkpoint-every",
            "--threshold", "--top", "--out",
        ]],
    },
    Command { name: "sample", args: Arity::One("workload"), run: cmd_sample, flags: &[
        CORE, SPLIT_PASS,
    ] },
    Command { name: "instrument", args: Arity::One("workload"), run: cmd_instrument, flags: &[
        CORE, SPLIT_PASS,
    ] },
    Command { name: "analyze", args: Arity::One("workload"), run: cmd_analyze, flags: &[&[
        "--merge-threshold", "--jobs", "--strict", "--allow-partial", "--no-partial",
        "--exhaustive-counters", "--size", "--samples", "--counts", "--top", "--out",
    ]] },
    Command { name: "annotate", args: Arity::One("workload"), run: cmd_annotate, flags: &[
        CORE, PIPELINE, &["--selective", "--size", "--function", "--out"],
    ] },
    Command { name: "show", args: Arity::One(PROFILE), run: cmd_show, flags: &[
        &["--top", "--out"],
    ] },
    Command { name: "report", args: Arity::One(PROFILE), run: cmd_report, flags: &[
        &["--format", "--top", "--out"],
    ] },
    Command {
        name: "diff",
        args: Arity::Two("stored profile (.owp) paths: old then new"),
        run: cmd_diff,
        flags: &[&["--threshold", "--strict-config", "--fail-on-regression", "--top", "--out"]],
    },
    Command {
        name: "optimize",
        args: Arity::One("workload name or stored profile (.owp) path"),
        run: cmd_optimize,
        flags: &[CORE, PIPELINE, &[
            "--selective", "--size", "--threshold", "--verify", "--save", "--top", "--out",
        ]],
    },
    Command {
        name: "resume",
        args: Arity::One("checkpoint (.owp) or archive directory"),
        run: cmd_resume,
        flags: &[RENDER, &["--jobs", "--deadline"]],
    },
    Command { name: "selfcheck", args: Arity::None, run: cmd_selfcheck, flags: &[&[
        "--seed-range", "--arch", "--set", "--period", "--attribution", "--merge-threshold",
        "--selective", "--hot-threshold", "--exhaustive-counters", "--jobs", "--top", "--out",
    ]] },
    Command { name: "fuzz", args: Arity::None, run: fuzz::cmd_fuzz, flags: &[
        &["--seed-range", "--surface", "--jobs", "--out"],
    ] },
    Command { name: "fsck", args: Arity::One(ARCHIVE), run: cmd_fsck, flags: &[&["--out"]] },
    Command { name: "query", args: Arity::One(ARCHIVE), run: cmd_query, flags: &[&[
        "--last", "--jobs", "--threshold", "--strict-config", "--fail-on-regression", "--top",
        "--out",
    ]] },
    Command { name: "submit", args: Arity::One("workload name"), run: cmd_submit, flags: &[
        &["--socket", "--size", "--seed", "--arch", "--set", "--out"],
    ] },
    Command { name: "status", args: Arity::None, run: cmd_status, flags: &[
        &["--socket", "--out"],
    ] },
    Command { name: "shutdown", args: Arity::None, run: cmd_shutdown, flags: &[
        &["--socket", "--out"],
    ] },
];

const PROFILE: &str = "stored profile (.owp) path";
const ARCHIVE: &str = "archive directory";

/// The `optiwised` binary's row: it takes no subcommand, only flags.
#[rustfmt::skip]
const DAEMON: Command = Command { name: "optiwised", args: Arity::None, run: daemon::serve, flags: &[
    CORE, PIPELINE, &[
        "--selective", "--archive", "--socket", "--queue", "--job-deadline", "--size",
        "--checkpoint-every", "--max-runs", "--max-bytes", "--max-line-bytes", "--min-headroom",
        "--max-queued-bytes",
    ],
] };

impl Command {
    fn accepts(&self, flag: &str) -> bool {
        self.flags.iter().any(|group| group.contains(&flag))
    }
}

/// Parses `args` against `cmd`'s row: a flag outside it, or the wrong
/// number of positional arguments, is a usage error.
fn parse_options(cmd: &Command, args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_str();
        if arg.starts_with("--") && arg != "--" {
            if !cmd.accepts(arg) {
                return Err(format!("`{arg}` is not an option of `{}`", cmd.name));
            }
            opts.flags.push(arg.to_string());
        }
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("`{arg}` needs a value"))
        };
        match arg {
            "--size" => {
                let v = value()?;
                opts.size = InputSize::parse(&v).ok_or_else(|| format!("unknown size `{v}`"))?;
            }
            "--arch" => {
                let v = value()?;
                if !ARCH_NAMES.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown arch `{v}`; one of: {}",
                        ARCH_NAMES.join(", ")
                    ));
                }
                opts.job.arch = v;
            }
            "--set" => opts
                .job
                .overrides
                .push(CoreConfig::parse_set(&value()?).map_err(|e| e.to_string())?),
            "--config" => opts.configs.push(value()?),
            "--strict-config" => opts.strict_config = true,
            "--period" => {
                opts.job.period = at_least(arg, &value()?, 0)?;
                opts.job.jitter = opts.job.period / 4;
            }
            "--attribution" => {
                opts.job.attribution = match value()?.as_str() {
                    "interrupt" => Attribution::Interrupt,
                    "precise" => Attribution::Precise,
                    "predecessor" => Attribution::Predecessor,
                    other => return Err(format!("unknown attribution `{other}`")),
                }
            }
            "--no-stack-profiling" => opts.job.stack_profiling = false,
            "--merge-threshold" => {
                opts.job.merge_threshold = match value()?.as_str() {
                    "off" => None,
                    v => Some(at_least(arg, v, 0)?),
                }
            }
            "--seed" => opts.job.rand_seed = at_least(arg, &value()?, 0)?,
            "--top" => opts.top = at_least(arg, &value()?, 0)?,
            "--out" => opts.out = Some(value()?),
            "--samples" => opts.samples_path = Some(value()?),
            "--counts" => opts.counts_path = Some(value()?),
            "--function" => opts.function = Some(value()?),
            "--csv-dir" => opts.csv_dir = Some(value()?),
            "--jobs" => opts.jobs = at_least(arg, &value()?, 1)?,
            "--strict" => opts.job.strict = true,
            "--allow-partial" => opts.job.allow_partial = true,
            "--no-partial" => opts.job.allow_partial = false,
            "--selective" => opts.job.selective = true,
            "--hot-threshold" => {
                opts.job.hot_threshold =
                    finite(arg, &value()?, |x| x <= 1.0, "a fraction in 0..=1")?
            }
            "--exhaustive-counters" => opts.job.exhaustive_counters = true,
            "--inject" => {
                opts.fault =
                    FaultPlan::parse(&value()?).map_err(|e| format!("bad --inject spec: {e}"))?
            }
            "--save" => opts.save = Some(value()?),
            "--threshold" => {
                opts.threshold = finite(arg, &value()?, |_| true, "a non-negative percentage")?
            }
            "--fail-on-regression" => opts.fail_on_regression = true,
            "--deadline" => opts.deadline = Some(seconds(arg, &value()?)?),
            "--seed-range" => {
                let v = value()?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| format!("bad seed range `{v}`: expected A..B"))?;
                let (lo, hi) = (at_least(arg, lo, 0)?, at_least(arg, hi, 0)?);
                if lo >= hi {
                    return Err(format!("bad seed range `{v}`: empty (A must be below B)"));
                }
                opts.seed_range = Some((lo, hi));
            }
            "--archive" => opts.archive = Some(value()?),
            "--socket" => opts.socket = Some(value()?),
            "--last" => opts.last = at_least(arg, &value()?, 2)?,
            "--queue" => opts.queue = at_least(arg, &value()?, 1)?,
            "--job-deadline" => opts.job_deadline = Some(seconds(arg, &value()?)?),
            "--max-runs" => opts.max_runs = Some(at_least(arg, &value()?, 1)?),
            "--max-bytes" => opts.max_bytes = Some(at_least(arg, &value()?, 0)?),
            "--surface" => {
                let name = value()?;
                if !fuzz::SURFACE_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown fuzz surface `{name}`; one of: {}",
                        fuzz::SURFACE_NAMES.join(", ")
                    ));
                }
                opts.surfaces.push(name);
            }
            "--max-line-bytes" => opts.limits.max_line_bytes = at_least(arg, &value()?, 16)?,
            "--min-headroom" => opts.limits.min_disk_headroom = at_least(arg, &value()?, 0)?,
            "--max-queued-bytes" => opts.limits.max_queued_bytes = at_least(arg, &value()?, 1)?,
            "--checkpoint" => opts.checkpoint = Some(value()?),
            "--checkpoint-every" => opts.checkpoint_every = Some(at_least(arg, &value()?, 1)?),
            "--format" => {
                opts.format = match value()?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "yaml" => Format::Yaml,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--verify" => opts.verify = true,
            "--" => {}
            _ => opts.workloads.push(arg.to_string()),
        }
    }
    let n = opts.workloads.len();
    let arity = match cmd.args {
        Arity::None if n > 0 => Some("takes no positional argument".to_string()),
        Arity::One(what) if n != 1 => Some(format!("takes exactly one {what}")),
        Arity::Two(what) if n != 2 => Some(format!("takes exactly two {what}")),
        Arity::OneOrMore(what) if n == 0 => Some(format!("needs at least one {what}")),
        _ => None,
    };
    if let Some(problem) = arity {
        return Err(format!("`{}` {problem}", cmd.name));
    }
    // `--set` applies on top of whatever `--arch` picked, regardless of
    // flag order, and the resulting config is validated before any command
    // runs: nonsense like `rob_size=0` dies here, not deep in the model.
    CoreConfig::resolve(&opts.job.arch, &opts.job.overrides).map_err(|e| e.to_string())?;
    Ok(opts)
}

/// `flag`'s integer value, refused below `min`.
fn at_least<T>(flag: &str, text: &str, min: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
    T::Err: std::fmt::Display,
{
    let n: T = text
        .parse()
        .map_err(|e| format!("bad {flag} `{text}`: {e}"))?;
    if n < min {
        return Err(format!("{flag} must be at least {min}"));
    }
    Ok(n)
}

/// `flag`'s value as a finite, non-negative number that passes `ok`.
fn finite(flag: &str, text: &str, ok: fn(f64) -> bool, want: &str) -> Result<f64, String> {
    let x: f64 = text
        .parse()
        .map_err(|e| format!("bad {flag} `{text}`: {e}"))?;
    if !x.is_finite() || x < 0.0 || !ok(x) {
        return Err(format!("{flag} must be {want}"));
    }
    Ok(x)
}

/// `flag`'s value as a positive number of seconds.
fn seconds(flag: &str, text: &str) -> Result<f64, String> {
    finite(flag, text, |x| x > 0.0, "a positive number of seconds")
}

/// The program name of a generated program, built from a seed: `--seed`,
/// or `generated:SEED` in a sweep.
const GENERATED_WORKLOAD: &str = "generated";

/// Builds the program `name` names: a registered workload at `size`, or a
/// generated program from `seed`. Every command that runs a program, and
/// `resume` (from its spec's `workload`, `rand_seed` and `size`), builds it
/// here.
fn build_program(name: &str, seed: u64, size: InputSize) -> Result<Vec<Module>, OptiwiseError> {
    if name == GENERATED_WORKLOAD {
        return wiser_workloads::generated::generate(seed)
            .map_err(|e| OptiwiseError::Load(format!("generating seed {seed}: {e}")));
    }
    let workload = wiser_workloads::by_name(name).ok_or_else(|| {
        OptiwiseError::Usage(format!("unknown workload `{name}`; see `optiwise list`"))
    })?;
    workload
        .build(size)
        .map_err(|e| OptiwiseError::Load(format!("assembling `{name}`: {e}")))
}

/// A fresh job: the program `name` names (built at `size`, or generated
/// from `seed`) and its spec, which is this command's job template with
/// input `seed`, labelled `name` and never checkpointed. Every job that
/// does not come from a file starts here; a sweep cell or an `optiwised`
/// job then sets its own core, label and cadence.
fn fresh_job(
    opts: &Options,
    name: &str,
    seed: u64,
    size: InputSize,
) -> Result<(Vec<Module>, CheckpointSpec), OptiwiseError> {
    let modules = build_program(name, seed, size)?;
    let spec = CheckpointSpec {
        module_hash: module_fingerprint(&modules),
        workload: name.to_string(),
        label: name.to_string(),
        size: size.name().to_string(),
        rand_seed: seed,
        ..opts.job.clone()
    };
    Ok((modules, spec))
}

/// The config a job runs under: the spec's ([`CheckpointSpec::to_config`])
/// at this process's `--jobs`, with this command line's `--inject` faults.
/// Fault injection is never recorded in a spec: each leg of a job gets
/// only the faults its own command line asks for.
fn job_config(spec: &CheckpointSpec, opts: &Options) -> Result<OptiwiseConfig, OptiwiseError> {
    Ok(OptiwiseConfig {
        fault: opts.fault,
        ..spec.to_config(opts.jobs)?
    })
}

/// The program a recorded job (`path`'s section `tag`) names, refused
/// unless it is the build the job ran: `resume` and `optimize` rebuild
/// their jobs here.
fn job_program(path: &str, spec: &CheckpointSpec, tag: &str) -> Result<Vec<Module>, OptiwiseError> {
    let size = InputSize::parse(&spec.size).ok_or_else(|| {
        let message = format!("unknown input size `{}` in {path}", spec.size);
        StoreError::in_section(0, tag, message)
    })?;
    let modules = build_program(&spec.workload, spec.rand_seed, size)?;
    check_fingerprint(path, spec, &spec.workload, &modules, tag)?;
    Ok(modules)
}

/// Writes a command's output to `--out`, or to stdout. A reader that
/// closed stdout early (`optiwise list | head -1`) has read all it wants:
/// the broken pipe ends the output, not the command.
fn emit(opts: &Options, text: &str) -> Result<(), OptiwiseError> {
    use std::io::Write;

    match &opts.out {
        Some(path) => wiser_store::atomic_write(std::path::Path::new(path), text.as_bytes())
            .map_err(|e| OptiwiseError::Io(format!("writing {path}: {e}"))),
        None => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush())
            {
                Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                    Err(OptiwiseError::Io(format!("writing stdout: {e}")))
                }
                _ => Ok(()),
            }
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

/// Runs one job from its checkpoint image: every command that profiles a
/// program (`run`, each batch shard and sweep cell, every `optiwised` job,
/// `resume`, `annotate` and `optimize`) comes here. The config is the
/// spec's ([`CheckpointSpec::to_config`]) under this process's `--jobs`
/// and `--inject`, so a resumed job runs exactly as the job it continues;
/// the image's completed passes are restored, the rest run from
/// instruction zero. Callers that keep the run store it with
/// [`StoredProfile::from_job`].
///
/// With a checkpoint `file`, the image is persisted before the passes start
/// (an unwritable path fails early, and a kill at instruction zero leaves a
/// resumable file) and again on every pass event at the spec's cadence.
/// Those later persist failures surface only after the run settles: a sick
/// checkpoint disk must not kill a healthy profile run, but it must not go
/// unreported either.
fn run_job(
    modules: &[Module],
    ckpt: &Checkpoint,
    file: Option<&std::path::Path>,
    opts: &Options,
    token: &CancelToken,
) -> Result<OptiwiseRun, OptiwiseError> {
    let spec = &ckpt.spec;
    let config = job_config(spec, opts)?;
    let writer = file.map(|path| {
        CheckpointWriter::new(
            path,
            ckpt.clone(),
            token.clone(),
            opts.fault.kill_in_checkpoint_write,
        )
    });
    if let Some(w) = &writer {
        w.persist_initial()?;
    }
    let observe = writer
        .as_ref()
        .map(|w| move |event: PassEvent<'_>| w.observe(event));
    let run = run_optiwise_ctl(
        modules,
        &config,
        RunControl {
            cancel: token.clone(),
            checkpoint_every: spec.checkpoint_every,
            observer: observe
                .as_ref()
                .map(|f| f as &(dyn Fn(PassEvent<'_>) + Sync)),
            resume: ckpt.resume_state(),
        },
    )?;
    if let Some(w) = &writer {
        w.finish()?;
    }
    Ok(run)
}

fn cmd_check(opts: &Options) -> Result<(), OptiwiseError> {
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
    emit(
        opts,
        &format!(
            "optiwise check: ok (sampled {} cycles, counted {} instructions, divergence {:.4})\n",
            run.analysis.wall_cycles,
            run.analysis.total_insns,
            run.analysis.diagnostics.divergence_score
        ),
    )
}

fn cmd_list(opts: &Options) -> Result<(), OptiwiseError> {
    let rows = wiser_workloads::all().into_iter().map(|w| {
        let kind = match w.kind {
            wiser_workloads::Kind::Micro => "micro",
            wiser_workloads::Kind::SpecLike => "spec-like",
        };
        (w.name, kind, w.description)
    });
    let generated = (
        GENERATED_WORKLOAD,
        "generated",
        "random program built from --seed (generated:SEED in a sweep)",
    );
    let mut text = String::new();
    for (name, kind, description) in std::iter::once(("NAME", "KIND", "DESCRIPTION"))
        .chain(rows)
        .chain([generated])
    {
        text.push_str(&format!("{name:<22} {kind:<9} {description}\n"));
    }
    emit(opts, &text)
}

fn cmd_run(opts: &Options) -> Result<(), OptiwiseError> {
    if opts.workloads.len() > 1 {
        return cmd_run_batch(opts);
    }
    let checkpoint_every = checkpoint_cadence(opts)?;
    let (modules, spec) = fresh_job(opts, &opts.workloads[0], opts.job.rand_seed, opts.size)?;
    let ckpt = Checkpoint::fresh(CheckpointSpec {
        checkpoint_every,
        ..spec
    });
    let file = opts.checkpoint.as_deref().map(std::path::Path::new);
    let run = run_job(&modules, &ckpt, file, opts, &make_token(opts))?;
    render_run(opts, &ckpt.spec, &run)
}

/// Everything that happens after a (fresh or resumed) run settles: retry
/// and degradation notices, `--save`, `--archive`, the report,
/// `--function` annotation and `--csv-dir` exports. Shared by `run` and
/// `resume` so a resumed run is rendered through the exact same path —
/// byte-identical output. `spec` is the job that made `run`.
fn render_run(
    opts: &Options,
    spec: &CheckpointSpec,
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
    let mut stored = None;
    if opts.save.is_some() || opts.archive.is_some() {
        stored = Some(StoredProfile::from_job(spec, run)?.to_bytes());
    }
    if let (Some(path), Some(bytes)) = (&opts.save, &stored) {
        wiser_store::atomic_write(std::path::Path::new(path), bytes)
            .map_err(|e| OptiwiseError::Io(format!("{path}: {e}")))?;
        eprintln!("saved profile to {path}");
    }
    if let (Some(dir), Some(bytes)) = (&opts.archive, &stored) {
        let mut archive = wiser_archive::Archive::open_or_create(std::path::Path::new(dir))?;
        archive.set_faults(&opts.fault);
        let run_id = archive.add_run(bytes, spec.module_hash)?;
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
        write(
            "functions.csv",
            optiwise::export::functions_csv(&run.analysis),
        )?;
        write("loops.csv", optiwise::export::loops_csv(&run.analysis))?;
        write("blocks.csv", optiwise::export::blocks_csv(&run.analysis))?;
        if let Some(func) = &opts.function {
            write(
                "annotate.csv",
                optiwise::export::annotate_csv(&run.analysis, module_of(&run.analysis, func), func),
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
    let (modules, spec) = fresh_job(opts, name, opts.job.rand_seed, opts.size)?;
    let run = run_job(&modules, &Checkpoint::fresh(spec), None, opts, token)?;
    Ok(report::full_report(&run.analysis, opts.top))
}

/// Batch mode: profile every named workload with `par_map` and merge the
/// reports in command-line order. The merge key is the shard index, never
/// completion order, so `--jobs 8` output is byte-identical to `--jobs 1`.
fn cmd_run_batch(opts: &Options) -> Result<(), OptiwiseError> {
    if opts.function.is_some()
        || opts.csv_dir.is_some()
        || opts.save.is_some()
        || opts.archive.is_some()
    {
        return Err(OptiwiseError::Usage(
            "--function/--csv-dir/--save/--archive work with a single workload, not batch mode"
                .into(),
        ));
    }
    if opts.checkpoint.is_some() || opts.checkpoint_every.is_some() {
        return Err(OptiwiseError::Usage(
            "--checkpoint works with a single workload, not batch mode".into(),
        ));
    }
    let token = make_token(opts);
    // Every shard shares the run's token: a deadline or Ctrl-C stops shards
    // already executing at their next instruction boundary, and a shard
    // that finds the token fired never starts.
    let shards = wiser_par::par_map(opts.jobs, opts.workloads.clone(), |_, name| {
        token
            .cause()
            .is_none()
            .then(|| run_one(&name, opts, &token))
    })
    .map_err(|e| OptiwiseError::Internal(format!("batch worker: {e}")))?;

    let mut out = String::new();
    let mut first_error = None;
    for (name, shard) in opts.workloads.iter().zip(shards) {
        match shard {
            Some(Ok(text)) => {
                let _ = writeln!(out, "== workload: {name} ==\n{text}");
            }
            Some(Err(e)) => {
                eprintln!("optiwise: workload `{name}` failed: {e}");
                first_error.get_or_insert(e);
            }
            None => {}
        }
    }
    emit(opts, &out)?;
    fanout_result(first_error, &token)
}

/// How a fan-out (batch shards, sweep cells) ends: its first failure in
/// command-line order, not completion order, so exit codes are
/// deterministic; else, when every finished shard succeeded but the
/// cancellation skipped queued ones, a deadline error; else success.
fn fanout_result(
    first_error: Option<OptiwiseError>,
    token: &CancelToken,
) -> Result<(), OptiwiseError> {
    match (first_error, token.cause()) {
        (Some(e), _) => Err(e),
        (None, Some(cause)) => Err(OptiwiseError::DeadlineExceeded {
            retired: 0,
            deadline: cause == optiwise::CancelCause::Deadline,
        }),
        (None, None) => Ok(()),
    }
}

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

/// The checkpoint file of one sweep cell, under the archive's
/// `checkpoints/` directory.
fn sweep_checkpoint(checkpoints: &std::path::Path, cell: &SweepCell) -> std::path::PathBuf {
    checkpoints.join(format!("sweep-{}.owp", cell.label()))
}

/// Profiles one sweep cell under its own core config, checkpointing like
/// a daemon job so a killed sweep leaves resumable state behind: the spec
/// labels the profile with the cell, so `optiwise resume` commits it under
/// the label the sweep looks for. Returns the profile and the program's
/// fingerprint.
fn run_sweep_cell(
    cell: &SweepCell,
    opts: &Options,
    token: &CancelToken,
    checkpoints: &std::path::Path,
) -> Result<(StoredProfile, u64), OptiwiseError> {
    let (modules, spec) = fresh_job(opts, &cell.workload.name, cell.workload.seed, opts.size)?;
    let ckpt = Checkpoint::fresh(CheckpointSpec {
        label: cell.label(),
        arch: cell.config.arch.clone(),
        overrides: cell.config.overrides.clone(),
        checkpoint_every: opts.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
        ..spec
    });
    let file = sweep_checkpoint(checkpoints, cell);
    let run = run_job(&modules, &ckpt, Some(&file), opts, token)?;
    let stored = StoredProfile::from_job(&ckpt.spec, &run)?;
    Ok((stored, ckpt.spec.module_hash))
}

/// `optiwise sweep <workload|generated:SEED>... --archive DIR
/// [--config SPEC]...`: a declarative config-sweep fleet over the uarch
/// model (paper figures 8/9).
///
/// The grid is the cross product of the `--config` specs (default: `xeon`
/// and `neoverse`) and the positional workloads, expanded workload-major in
/// declared order. Cells fan out with `par_map`; each one runs
/// under its own [`CoreConfig`], checkpoints into the archive's
/// `checkpoints/` directory, and is committed as a self-describing `.owp`
/// run (with a `UCFG` section) labelled `workload-sSEED-config`. Cells
/// whose label is already committed are loaded instead of re-run, so an
/// interrupted sweep resumes without repeating finished work. Commits
/// happen after the fleet settles, in grid order — `Archive::add_run`
/// hands out ids in call order — and the reduction diffs every config
/// against the first one per workload, so run ids, the `.owp` fleet and
/// the report are byte-identical for every `--jobs` value.
fn cmd_sweep(opts: &Options) -> Result<(), OptiwiseError> {
    let archive_dir = opts.archive.as_deref().ok_or_else(|| {
        OptiwiseError::Usage("sweep needs --archive DIR for its cell fleet".into())
    })?;
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
        workloads.push(parse_sweep_workload(arg, opts.job.rand_seed)?);
    }
    let cells = SweepGrid { configs, workloads }.expand();

    let mut archive = wiser_archive::Archive::open_or_create(std::path::Path::new(archive_dir))?;
    archive.set_faults(&opts.fault);
    // Committed labels → run id: the sweep's resume state. Re-running the
    // same grid against the same archive only profiles the missing cells.
    let committed: std::collections::BTreeMap<String, u64> = archive
        .manifest()
        .committed()
        .map(|e| (e.workload.clone(), e.run_id))
        .collect();
    let fresh: Vec<&SweepCell> = cells
        .iter()
        .filter(|c| !committed.contains_key(&c.label()))
        .collect();

    let token = make_token(opts);
    let checkpoints = archive.checkpoints_dir();
    // A cell that finds the run's token fired never starts; cells already
    // running stop at their next instruction boundary.
    let done = wiser_par::par_map(opts.jobs, fresh.clone(), |_, cell| {
        token
            .cause()
            .is_none()
            .then(|| run_sweep_cell(cell, opts, &token, &checkpoints))
    })
    .map_err(|e| OptiwiseError::Internal(format!("sweep worker: {e}")))?;

    // Commit after the barrier, in grid order: run ids stay deterministic
    // across `--jobs`. Finished cells commit even when a sibling failed or
    // the sweep was cancelled — that is what makes re-running it a resume.
    let mut results: Vec<SweepResult> = Vec::with_capacity(cells.len());
    let mut first_error = None;
    for (cell, outcome) in fresh.into_iter().zip(done) {
        match outcome {
            Some(Ok((stored, module_hash))) => {
                archive.add_run(&stored.to_bytes(), module_hash)?;
                let _ = std::fs::remove_file(sweep_checkpoint(&checkpoints, cell));
                results.push(SweepResult {
                    cell: cell.clone(),
                    tables: stored.tables,
                });
            }
            Some(Err(e)) => {
                eprintln!("optiwise: sweep cell `{}` failed: {e}", cell.label());
                first_error.get_or_insert(e);
            }
            None => {}
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
    fanout_result(first_error, &token)?;
    let options = DiffOptions {
        threshold_pct: opts.threshold,
        ..DiffOptions::default()
    };
    emit(opts, &reduce_fleet(&results, options, opts.top))
}

/// `optiwise resume CHECKPOINT.owp`: continue an interrupted run.
///
/// The checkpoint's spec is the job: it names the program (a generated one
/// is rebuilt from its seed), pins the run's whole configuration and the
/// label its profile is stored under. So the command takes no workload and
/// no profiling options, only the execution-environment and output flags
/// of its [`COMMANDS`] row. Completed passes are restored verbatim from the checkpoint;
/// interrupted passes are replayed deterministically from instruction zero,
/// so the report and any `--save`/`--archive` profile are byte-identical to
/// an uninterrupted run. The resumed run keeps checkpointing into the same
/// file and may itself be interrupted and resumed again.
fn cmd_resume(opts: &Options) -> Result<(), OptiwiseError> {
    let arg = &opts.workloads[0];
    // An archive directory stands for "whatever was interrupted there":
    // resume the newest incomplete checkpoint left behind by a crashed or
    // drained daemon job or sweep cell (or a `run --checkpoint` pointed at
    // the archive's checkpoints directory).
    let in_archive = std::path::Path::new(arg).is_dir();
    let path = if in_archive {
        newest_checkpoint(std::path::Path::new(arg))?
    } else {
        arg.clone()
    };
    let ckpt = Checkpoint::load(std::path::Path::new(&path))?;
    let modules = job_program(&path, &ckpt.spec, "CKPT")?;
    let file = Some(std::path::Path::new(&path));
    let run = run_job(&modules, &ckpt, file, opts, &make_token(opts))?;
    render_run(opts, &ckpt.spec, &run)?;
    // The run completed: the checkpoint has served its purpose. Only
    // archive checkpoints are reclaimed; an explicit `resume FILE` leaves
    // the caller's file alone (tests re-resume them).
    if in_archive {
        let _ = std::fs::remove_file(&path);
    }
    Ok(())
}

/// Refuses a job (`path`'s section `tag`) recorded against a different
/// program than `modules` (the current build of `workload`): its profiles
/// would describe code this build does not contain.
fn check_fingerprint(
    path: &str,
    spec: &CheckpointSpec,
    workload: &str,
    modules: &[Module],
    tag: &str,
) -> Result<(), OptiwiseError> {
    let fingerprint = module_fingerprint(modules);
    if fingerprint != spec.module_hash {
        let message = format!(
            "{path} was recorded against a different build: `{}` \
             (module hash {:016x}), not the current build of `{workload}` \
             ({fingerprint:016x}); rerun the profiling passes instead",
            spec.workload, spec.module_hash
        );
        return Err(StoreError::in_section(0, tag, message).into());
    }
    Ok(())
}

/// The newest incomplete checkpoint under an archive's `checkpoints/`
/// directory.
fn newest_checkpoint(archive_root: &std::path::Path) -> Result<String, OptiwiseError> {
    let dir = archive_root.join(wiser_archive::CHECKPOINTS_DIR);
    let found = incomplete_checkpoints(&dir)
        .map_err(|e| OptiwiseError::Io(format!("{}: {e}", dir.display())))?;
    match found.last() {
        Some(path) => Ok(path.display().to_string()),
        None => Err(OptiwiseError::Usage(format!(
            "no incomplete checkpoint found in {}",
            dir.display()
        ))),
    }
}

/// The checkpoint files in `dir` (temp-file debris left by a torn write
/// excluded), oldest first by modification time, with the file name as a
/// deterministic tie-break.
fn incomplete_checkpoints(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".owp") && !wiser_store::is_temp_debris(&name) {
            let mtime = entry.metadata().and_then(|m| m.modified());
            let mtime = mtime.unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((mtime, name, entry.path()));
        }
    }
    found.sort();
    Ok(found.into_iter().map(|(_, _, path)| path).collect())
}

fn module_of(analysis: &Analysis, func: &str) -> u32 {
    analysis
        .functions()
        .iter()
        .find(|f| f.name == func)
        .map(|f| f.module)
        .unwrap_or(0)
}

/// `optiwise sample`: the runner's sampling pass, written as a split file.
fn cmd_sample(opts: &Options) -> Result<(), OptiwiseError> {
    split_pass(opts, Pass::Sampling, "sample")
}

/// `optiwise instrument`: the runner's instrumentation pass, written as a
/// split file.
fn cmd_instrument(opts: &Options) -> Result<(), OptiwiseError> {
    split_pass(opts, Pass::Instrumentation, "instrument")
}

/// Runs `pass` for the split command `cmd` and writes it to `--out` (a
/// binary image: no stdout fallback) as a checkpoint image of the job's
/// spec, which pins the workload build, and that pass's profile. A pass
/// cut short is an error under `--strict` or `--no-partial`, otherwise a
/// warning that the file holds a partial profile.
fn split_pass(opts: &Options, pass: Pass, cmd: &str) -> Result<(), OptiwiseError> {
    let out = opts.out.as_deref().ok_or_else(|| {
        OptiwiseError::Usage(format!("{cmd} needs --out FILE (a binary .owp image)"))
    })?;
    let (modules, spec) = fresh_job(opts, &opts.workloads[0], opts.job.rand_seed, opts.size)?;
    let config = job_config(&spec, opts)?;
    let mut ckpt = Checkpoint::fresh(spec);
    let (cut, summary) = match pass {
        Pass::Sampling => {
            let (profile, run, _) = sampling_pass(&modules, &config, &RunControl::default())?;
            let summary = format!(
                "sampled {} cycles, {} samples, overhead estimate {:.3}x",
                run.stats.cycles,
                profile.samples.len(),
                wiser_sampler::sampling_overhead(&profile)
            );
            ckpt.sample_pos = profile.retired;
            (ckpt.samples.insert(profile).truncated.clone(), summary)
        }
        Pass::Instrumentation => {
            let (counts, _, _) = counts_pass(&modules, &config, None, &RunControl::default())?;
            let summary = format!(
                "counted {} instructions in {} blocks, overhead estimate {:.1}x",
                counts.cost.native_insns,
                counts.cost.unique_blocks,
                counts.cost.overhead()
            );
            ckpt.counts_pos = counts.total_insns();
            (ckpt.counts.insert(counts).truncated.clone(), summary)
        }
    };
    if let Some(reason) = cut {
        if ckpt.spec.strict || !ckpt.spec.allow_partial {
            return Err(OptiwiseError::Truncated { pass, reason });
        }
        eprintln!("optiwise: {pass} run truncated ({reason}); emitting partial profile");
    }
    eprintln!("{summary}");
    let bytes = opts.fault.corrupt_bytes(&ckpt.to_bytes());
    wiser_store::atomic_write(std::path::Path::new(out), &bytes)
        .map_err(|e| OptiwiseError::Io(format!("writing {out}: {e}")))
}

/// Loads one split-workflow file, refusing it unless it was recorded
/// against the current build of `workload`. A `run --checkpoint` snapshot
/// of an interrupted run is refused too: its passes stopped early and
/// belong to `optiwise resume`, not to `analyze`.
fn load_split(path: &str, workload: &str, modules: &[Module]) -> Result<Checkpoint, OptiwiseError> {
    let ckpt = Checkpoint::load(std::path::Path::new(path))?;
    check_fingerprint(path, &ckpt.spec, workload, modules, "CKPT")?;
    let samples_cut = ckpt.samples.as_ref().and_then(|p| p.truncated.as_ref());
    let counts_cut = ckpt.counts.as_ref().and_then(|p| p.truncated.as_ref());
    if [samples_cut, counts_cut]
        .iter()
        .any(|t| matches!(t, Some(TruncationReason::Cancelled(_))))
    {
        return Err(OptiwiseError::Store(StoreError::in_section(
            0,
            "CKPT",
            format!(
                "{path} is a checkpoint of an interrupted run, not a finished pass; \
                 complete it with `optiwise resume {path}`"
            ),
        )));
    }
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

/// `optiwise analyze`: the pipeline with both passes restored from split
/// files. Placement, degradation, warnings and the strict checks all come
/// from the runner, so the report is the one `run` prints for the same
/// passes.
fn cmd_analyze(opts: &Options) -> Result<(), OptiwiseError> {
    let workload = &opts.workloads[0];
    // `analyze` takes no `--seed`: a generated program is rebuilt at seed 0,
    // and files recorded at another seed are refused as another build.
    let modules = build_program(workload, opts.job.rand_seed, opts.size)?;
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
    let run = run_optiwise_ctl(
        &modules,
        &job_config(&opts.job, opts)?,
        RunControl {
            resume: ResumeState {
                samples: Some(samples),
                counts: Some(counts),
            },
            ..RunControl::default()
        },
    )?;
    emit(opts, &report::full_report(&run.analysis, opts.top))
}

fn cmd_annotate(opts: &Options) -> Result<(), OptiwiseError> {
    let func = opts
        .function
        .as_deref()
        .ok_or_else(|| OptiwiseError::Usage("annotate needs --function NAME".into()))?
        .to_string();
    let (modules, spec) = fresh_job(opts, &opts.workloads[0], opts.job.rand_seed, opts.size)?;
    let ckpt = Checkpoint::fresh(spec);
    let run = run_job(&modules, &ckpt, None, opts, &CancelToken::new())?;
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
    let path = &opts.workloads[0];
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
        if stored.samples.is_some() {
            " samples"
        } else {
            ""
        },
        if stored.counts.is_some() {
            " counts"
        } else {
            ""
        },
        if stored.transforms.is_empty() {
            ""
        } else {
            " transforms"
        },
    );
    text.push_str(&report::tables_report(&stored.tables, opts.top));
    if !stored.transforms.is_empty() {
        text.push('\n');
        text.push_str(&stored.transforms.render());
    }
    emit(opts, &text)
}

fn cmd_report(opts: &Options) -> Result<(), OptiwiseError> {
    let stored = load_profile(&opts.workloads[0])?;
    let text = match opts.format {
        Format::Text => report::tables_report(&stored.tables, opts.top),
        Format::Json => optiwise::export::tables_json(&stored.tables),
        Format::Yaml => optiwise::export::tables_yaml(&stored.tables),
    };
    emit(opts, &text)
}

fn cmd_diff(opts: &Options) -> Result<(), OptiwiseError> {
    let (old_path, new_path) = (&opts.workloads[0], &opts.workloads[1]);
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

/// The flags of `optimize`'s row that a stored profile's `JOB` leaves to
/// the command line: the rest would change the job, so they are refused.
#[rustfmt::skip]
const OPTIMIZE_OVER_A_JOB: &[&str] =
    &["--jobs", "--inject", "--threshold", "--verify", "--save", "--top", "--out"];

/// `optiwise optimize [--verify] <workload|profile.owp>`: profile-guided
/// binary rewriting closed into a verification loop.
///
/// The baseline profile comes either from a stored `.owp` run (the argument
/// is an existing file; it must carry its counts section) or from a fresh
/// profiling run of the named workload. A stored run's `JOB` is the job:
/// its program, size, seed, core and pass settings; a flag that would
/// change them is a usage error. The flags apply to a workload argument or an image without
/// `JOB` (rebuilt from its label). The optimizer (`wiser-opt`) rewrites
/// the module set — hot-path block layout, guarded indirect-call promotion,
/// loop-invariant hoisting — then three independent checks gate the result:
///
/// 1. every rewritten module passes `Module::validate`;
/// 2. the simulator oracle runs baseline and rewritten binaries on
///    [`ORACLE_SEEDS`] generated seeds and compares observable behaviour
///    (exit code and output bytes) — any divergence exits 5;
/// 3. the rewritten binary is re-profiled (the baseline's job with the
///    rewritten build's fingerprint) and the differential engine
///    classifies the change under the sampling-noise bound; with `--verify`
///    a statistically significant regression exits 7.
///
/// `--save FILE` stores the re-profiled run as a `.owp` whose `XFRM` section
/// records which transforms fired. Output is byte-identical for every
/// `--jobs` value.
fn cmd_optimize(opts: &Options) -> Result<(), OptiwiseError> {
    let arg = &opts.workloads[0];
    let is_file = std::path::Path::new(arg).is_file();
    let stored = is_file.then(|| load_profile(arg)).transpose()?;
    // A profile's job is the baseline's program, size, seed and core. A
    // workload argument, or an image written before profiles carried their
    // job, gets a fresh job under this command's flags.
    let (modules, spec) = match &stored {
        Some(StoredProfile { job: Some(job), .. }) => {
            let decided = opts
                .flags
                .iter()
                .find(|f| !OPTIMIZE_OVER_A_JOB.contains(&f.as_str()));
            if let Some(flag) = decided {
                return Err(OptiwiseError::Usage(format!(
                    "`{flag}` does not apply to {arg}: its JOB section records how the \
                     baseline was profiled"
                )));
            }
            (job_program(arg, job, "JOB")?, job.clone())
        }
        Some(legacy) => fresh_job(opts, &legacy.meta.label, legacy.meta.rand_seed, opts.size)?,
        None => fresh_job(opts, arg, opts.job.rand_seed, opts.size)?,
    };
    let token = CancelToken::new();
    let (baseline, counts) = match stored {
        Some(s) => {
            let counts = s.counts.ok_or_else(|| {
                OptiwiseError::Usage(format!(
                    "{arg} has no counts section; optimize needs the \
                     instrumentation profile (`optiwise run {} --save`)",
                    spec.workload
                ))
            })?;
            (s.tables, counts)
        }
        None => {
            let ckpt = Checkpoint::fresh(spec.clone());
            let run = run_job(&modules, &ckpt, None, opts, &token)?;
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
    wiser_opt::oracle_check(&modules, &rewritten, ORACLE_SEEDS, ORACLE_MAX_INSNS).map_err(|e| {
        OptiwiseError::Divergence {
            score: 1.0,
            threshold: 0.0,
            summary: format!("optimizer oracle: {e}"),
        }
    })?;

    // The re-profile is the baseline's job on the rewritten program.
    let reprofile = CheckpointSpec {
        module_hash: module_fingerprint(&rewritten),
        ..spec
    };
    let ckpt = Checkpoint::fresh(reprofile);
    let verify_run = run_job(&rewritten, &ckpt, None, opts, &token)?;
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
        let mut profile = StoredProfile::from_job(&ckpt.spec, &verify_run)?;
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

    let mut text = format!("== optimize: {} ==\n", ckpt.spec.label);
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
    let (lo, hi) = opts.seed_range.unwrap_or((0, 10));
    let mut check_opts = optiwise::selfcheck::SelfCheckOptions::default();
    // One analysis thread per seed, as the pool spreads the seeds; the two
    // passes still overlap, and the check keeps its own instruction budget.
    check_opts.config = OptiwiseConfig {
        max_insns: check_opts.config.max_insns,
        concurrent_passes: true,
        ..opts.job.to_config(1)?
    };

    let seeds: Vec<u64> = (lo..hi).collect();
    let results = wiser_par::par_map(opts.jobs, seeds, |_, seed| {
        let modules = build_program(GENERATED_WORKLOAD, seed, opts.size)?;
        optiwise::selfcheck::check_modules(&modules, &check_opts).map(|c| (seed, c))
    })
    .map_err(|e| OptiwiseError::Internal(format!("selfcheck worker: {e}")))?;

    let mut out = String::new();
    let mut bug_seeds: Vec<u64> = Vec::new();
    let mut total_bugs = 0usize;
    for result in results {
        let (seed, check) = result?;
        let bugs = check.join_bugs();
        let _ = writeln!(out, "seed {seed}: {}", check.summary());
        for d in check
            .discrepancies
            .iter()
            .filter(|d| d.class == optiwise::selfcheck::DiscrepancyClass::JoinBug)
            .take(opts.top)
        {
            let _ = writeln!(out, "  {d}");
        }
        if bugs > 0 {
            bug_seeds.push(seed);
            total_bugs += bugs;
        }
    }
    let _ = writeln!(
        out,
        "selfcheck: seeds {lo}..{hi}, {} clean, {} with join bugs",
        (hi - lo) as usize - bug_seeds.len(),
        bug_seeds.len(),
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
    let root = &opts.workloads[0];
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
    let root = &opts.workloads[0];
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
        let _ = writeln!(
            out,
            "== diff: run {old_id} ({}) -> run {new_id} ({}) ==",
            old.meta.label, new.meta.label
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
    let workload = &opts.workloads[0];
    let mut fields = std::collections::BTreeMap::from([
        ("cmd".to_string(), jsonl::Value::Str("submit".into())),
        ("workload".to_string(), jsonl::Value::Str(workload.clone())),
        (
            "size".to_string(),
            jsonl::Value::Str(opts.size.name().to_string()),
        ),
        ("seed".to_string(), jsonl::Value::Int(opts.job.rand_seed)),
        ("arch".to_string(), jsonl::Value::Str(opts.job.arch.clone())),
    ]);
    if !opts.job.overrides.is_empty() {
        let set = opts
            .job
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
  list                  list registered workloads and `generated`
  run <workload>...     sample + instrument + fused report; several
                        workloads run concurrently (see --jobs) and their
                        reports merge in command-line order; the workload
                        `generated` is a random program built from --seed
  sample <workload> --out F.owp
                        sampling pass; write its profile as a checkpoint
                        image (run spec + SAMP section)
  instrument <workload> --out F.owp
                        instrumentation pass; write its counts as a
                        checkpoint image (run spec + CNTS section)
  analyze <workload> --samples F.owp --counts F.owp
                        fused report from the two split files; files
                        recorded against another build exit 6; the pass
                        flags (--arch, --set, --period, --attribution,
                        --seed, --inject, --no-stack-profiling) belong to
                        sample/instrument, whose files fix both passes
  annotate <workload> --function NAME
  show <profile.owp>    report a saved binary profile
  report <profile.owp>  tables from a saved profile (--format text|json|yaml)
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
                        a .owp baseline's JOB section supplies the program,
                        size, seed and core, so the profiling flags apply
                        only to a workload or to an image without JOB
                        (rebuilt from its label) and exit 1 on a JOB image
                        (--jobs and --inject still apply); a profile of an
                        optimized build is refused (exit 6)
  resume <checkpoint.owp|archive>
                        continue an interrupted run from its checkpoint;
                        given an archive directory, the newest incomplete
                        checkpoint under its checkpoints/ is resumed;
                        generated programs are rebuilt from their seed, and
                        --archive commits the run under the job's label (a
                        sweep cell's, so re-running the sweep skips it);
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
options (each command accepts only the ones its code reads; others exit 1):
  --size test|train|ref   --arch xeon|neoverse|tiny   --period N
  --set KEY=VALUE         override one uarch config field on top of --arch
                          (rob_size=128, l1d.size=65536, commit_mode=early);
                          repeatable, applied in order, validated up front
  --config SPEC           (sweep) one grid configuration: an arch preset
                          name with optional overrides, e.g.
                          neoverse:rob_size=64,commit_mode=early_release;
                          repeatable, declared order is grid order and the
                          first config is the per-workload baseline
                          (sweep takes no --arch/--set)
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
                          for every N; sample/instrument take no --jobs
  --strict                fail on truncation or run divergence
  --allow-partial / --no-partial
                          accept or reject truncated profiles (default: accept)
  --selective             (run/sweep/annotate/optimize/selfcheck) two-phase
                          pipeline: the sampling pass runs first and only
                          functions above --hot-threshold of its samples
                          are fully instrumented; cold code is
                          attributed from samples only and marked
                          `sampling-only` in the report
  --hot-threshold F       (with --selective) hotness cutoff as a fraction of
                          total samples, 0..=1 (default: 0.01)
  --exhaustive-counters   disable minimal counter placement: charge one counter
                          per executed block/edge as in the naive DBI engine
                          (at analysis: not on sample/instrument)
  --deadline SECS         wall-clock budget; the run stops at the next safe
                          instruction boundary and exits 8 (Ctrl-C does the
                          same without a budget)
  --checkpoint FILE       (run) persist a crash-consistent checkpoint of both
                          passes, resumable with `optiwise resume FILE`
  --checkpoint-every N    (run/sweep) checkpoint cadence in committed
                          instructions (default: 1000000); `run` needs
                          --checkpoint, `sweep` checkpoints every cell
  --inject SPEC           deterministic fault injection, SPEC is a comma list:
                          seed=N, drop-samples=PCT, abort-sample=N,
                          truncate-counts=N, desync-seed=N, corrupt,
                          kill-after=N, kill-in-write=N, kill-in-archive=N
  --save FILE             (run/resume/optimize) also save the profile as a
                          binary .owp store
  --format text|json|yaml (report) output format (default: text)
  --threshold PCT         (diff/query/sweep/optimize) significance threshold
                          in percent (default: 5)
  --fail-on-regression    (diff/query) exit 7 when regressions are found
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
  12 archive unrepairable   13 fuzz invariant violation
  14 timing model stuck   1 usage/other
";

/// The `optiwise` binary's entry point (`src/main.rs` is a one-liner into
/// here so the daemon binary can share every command implementation).
pub fn cli_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
        Some("help" | "--help" | "-h") => {
            print!("{USAGE}");
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            None => Err(OptiwiseError::Usage(format!(
                "unknown command `{name}`\n{USAGE}"
            ))),
            Some(cmd) => parse_options(cmd, &args[1..])
                .map_err(OptiwiseError::Usage)
                .and_then(|opts| (cmd.run)(&opts)),
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

    /// Every row, then `optiwised`.
    fn rows() -> impl Iterator<Item = &'static Command> {
        COMMANDS.iter().chain(std::iter::once(&DAEMON))
    }

    fn parse(cmd: &str, args: &[&str]) -> Result<Options, String> {
        let row = rows().find(|r| r.name == cmd).expect("a table row");
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options(row, &owned)
    }

    #[test]
    fn defaults() {
        let o = parse("run", &["mcf_like"]).unwrap();
        assert_eq!(o.workloads, vec!["mcf_like".to_string()]);
        assert_eq!(o.size, InputSize::Train);
        assert!(o.job.stack_profiling);
        assert_eq!(o.job.merge_threshold, Some(wiser_cfg::MERGE_THRESHOLD));
        assert_eq!(o.jobs, wiser_par::available_jobs());
        assert!(o.jobs >= 1);
    }

    #[test]
    fn all_options_parse() {
        let o = parse(
            "run",
            &[
                "--size",
                "ref",
                "--arch",
                "neoverse",
                "--period",
                "4096",
                "--attribution",
                "precise",
                "--no-stack-profiling",
                "--merge-threshold",
                "off",
                "--seed",
                "42",
                "--top",
                "5",
                "--out",
                "/tmp/x.txt",
                "--function",
                "main",
                "--jobs",
                "3",
                "udiv_chain",
            ],
        )
        .unwrap();
        assert_eq!(o.size, InputSize::Ref);
        assert_eq!(o.job.period, 4096);
        assert_eq!(o.job.attribution, Attribution::Precise);
        assert!(!o.job.stack_profiling);
        assert_eq!(o.job.merge_threshold, None);
        assert_eq!(o.job.rand_seed, 42);
        assert_eq!(o.top, 5);
        assert_eq!(o.out.as_deref(), Some("/tmp/x.txt"));
        assert_eq!(o.function.as_deref(), Some("main"));
        assert_eq!(o.jobs, 3);
        assert_eq!(o.workloads, vec!["udiv_chain".to_string()]);
        // `--period` after `--attribution` keeps the attribution.
        let reversed = parse(
            "run",
            &["--attribution", "precise", "--period", "4096", "udiv_chain"],
        )
        .unwrap();
        assert_eq!(
            (
                reversed.job.period,
                reversed.job.jitter,
                reversed.job.attribution
            ),
            (o.job.period, o.job.jitter, o.job.attribution)
        );
    }

    /// Asserts `run` with `args` and a workload fails with an error that
    /// mentions `names`, so an arity error cannot stand in for it.
    fn rejects(args: &[&str], names: &str) {
        let args: Vec<&str> = args.iter().copied().chain(["x"]).collect();
        let err = parse("run", &args)
            .err()
            .unwrap_or_else(|| panic!("{args:?} parsed"));
        assert!(err.contains(names), "{args:?}: {err}");
    }

    #[test]
    fn rejects_unknown_option_and_bad_values() {
        rejects(&["--bogus"], "--bogus");
        rejects(&["--jobs", "0"], "--jobs");
        rejects(&["--jobs", "many"], "--jobs");
        rejects(&["--size", "gigantic"], "gigantic");
        rejects(&["--attribution", "psychic"], "psychic");
        // A value-taking flag at the end of the line has no value.
        let err = parse("run", &["x", "--size"]).err().unwrap();
        assert!(
            err.contains("--size") && err.contains("needs a value"),
            "{err}"
        );
    }

    #[test]
    fn multiple_workloads_collect_in_order() {
        let o = parse("run", &["rand_walk", "loop_merge", "udiv_chain"]).unwrap();
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
        let o = parse("run", &["--merge-threshold", "7", "x"]).unwrap();
        assert_eq!(o.job.merge_threshold, Some(7));
        rejects(&["--merge-threshold", "many"], "--merge-threshold");
    }

    #[test]
    fn store_and_diff_flags_parse() {
        let o = parse("run", &["--save", "p.owp", "recip_loop"]).unwrap();
        assert_eq!(o.save.as_deref(), Some("p.owp"));
        assert!(!o.fail_on_regression);
        assert_eq!(o.format, Format::Text);
        assert!((o.threshold - 5.0).abs() < 1e-9);

        let o = parse(
            "diff",
            &[
                "--threshold",
                "12.5",
                "--fail-on-regression",
                "old.owp",
                "new.owp",
            ],
        )
        .unwrap();
        assert!((o.threshold - 12.5).abs() < 1e-9);
        assert!(o.fail_on_regression);
        assert_eq!(
            o.workloads,
            vec!["old.owp".to_string(), "new.owp".to_string()]
        );

        let o = parse("report", &["--format", "json", "p.owp"]).unwrap();
        assert_eq!(o.format, Format::Json);
        let o = parse("report", &["--format", "yaml", "p.owp"]).unwrap();
        assert_eq!(o.format, Format::Yaml);
        let o = parse("report", &["--format", "text", "p.owp"]).unwrap();
        assert_eq!(o.format, Format::Text);
        assert!(parse("report", &["--format", "xml", "p.owp"]).is_err());
        assert!(parse("diff", &["--threshold", "-3", "a", "b"]).is_err());
        assert!(parse("diff", &["--threshold", "nope", "a", "b"]).is_err());
    }

    #[test]
    fn optimize_flags_parse() {
        let o = parse("optimize", &["--verify", "recip_loop"]).unwrap();
        assert!(o.verify);
        assert!(!parse("optimize", &["recip_loop"]).unwrap().verify);
    }

    #[test]
    fn checkpoint_and_deadline_flags_parse() {
        let o = parse(
            "run",
            &[
                "--deadline",
                "2.5",
                "--checkpoint",
                "ck.owp",
                "--checkpoint-every",
                "5000",
                "long_haul",
            ],
        )
        .unwrap();
        assert_eq!(o.deadline, Some(2.5));
        assert_eq!(o.checkpoint.as_deref(), Some("ck.owp"));
        assert_eq!(o.checkpoint_every, Some(5000));
        assert_eq!(checkpoint_cadence(&o).unwrap(), 5000);

        // Defaults: no checkpointing; with a file but no cadence, the
        // default cadence applies.
        let o = parse("run", &["long_haul"]).unwrap();
        assert_eq!(o.deadline, None);
        assert_eq!(checkpoint_cadence(&o).unwrap(), 0);
        let o = parse("run", &["--checkpoint", "ck.owp", "long_haul"]).unwrap();
        assert_eq!(checkpoint_cadence(&o).unwrap(), DEFAULT_CHECKPOINT_EVERY);

        // A cadence without a file is a usage error; bad values reject.
        let o = parse("run", &["--checkpoint-every", "9", "long_haul"]).unwrap();
        assert!(checkpoint_cadence(&o).is_err());
        rejects(&["--checkpoint-every", "0"], "--checkpoint-every");
        rejects(&["--deadline", "0"], "--deadline");
        rejects(&["--deadline", "-1"], "--deadline");
        rejects(&["--deadline", "soon"], "--deadline");
    }

    #[test]
    fn seed_range_parses_half_open() {
        let o = parse("selfcheck", &["--seed-range", "5..25"]).unwrap();
        assert_eq!(o.seed_range, Some((5, 25)));
        assert_eq!(parse("selfcheck", &[]).unwrap().seed_range, None);
        assert!(parse("selfcheck", &["--seed-range", "5"]).is_err());
        assert!(parse("selfcheck", &["--seed-range", "9..9"]).is_err());
        assert!(parse("selfcheck", &["--seed-range", "9..3"]).is_err());
        assert!(parse("selfcheck", &["--seed-range", "a..b"]).is_err());
    }

    #[test]
    fn selective_flags_parse() {
        let o = parse("run", &["mcf_like"]).unwrap();
        assert!(!o.job.selective);
        assert!(!o.job.exhaustive_counters);
        assert!((o.job.hot_threshold - optiwise::DEFAULT_HOT_THRESHOLD).abs() < 1e-12);

        let o = parse(
            "run",
            &["--selective", "--hot-threshold", "0.05", "mcf_like"],
        )
        .unwrap();
        assert!(o.job.selective);
        assert!((o.job.hot_threshold - 0.05).abs() < 1e-12);
        let cfg = job_config(&o.job, &o).unwrap();
        assert!(cfg.selective);
        assert!((cfg.hot_threshold - 0.05).abs() < 1e-12);

        let o = parse("run", &["--exhaustive-counters", "mcf_like"]).unwrap();
        assert!(o.job.exhaustive_counters);
        assert!(job_config(&o.job, &o).unwrap().exhaustive_counters);

        rejects(&["--hot-threshold", "1.5"], "--hot-threshold");
        rejects(&["--hot-threshold", "-0.1"], "--hot-threshold");
        rejects(&["--hot-threshold", "warm"], "--hot-threshold");
        let err = parse("run", &["x", "--hot-threshold"]).err().unwrap();
        assert!(
            err.contains("--hot-threshold") && err.contains("needs a value"),
            "{err}"
        );
    }

    #[test]
    fn arch_flag_tracks_spec_name() {
        assert_eq!(parse("run", &["x"]).unwrap().job.arch, "xeon");
        let o = parse("run", &["--arch", "neoverse", "x"]).unwrap();
        assert_eq!(o.job.arch, "neoverse");
        // Every preset in ARCH_NAMES is addressable, not just the two the
        // old hardcoded match knew.
        let o = parse("run", &["--arch", "tiny", "x"]).unwrap();
        assert_eq!(o.job.arch, "tiny");
        assert!(parse("run", &["--arch", "warp9", "x"]).is_err());
    }

    #[test]
    fn set_overrides_apply_and_validate() {
        let o = parse("run", &["--set", "rob_size=128", "x"]).unwrap();
        assert_eq!(
            o.job.overrides,
            vec![("rob_size".to_string(), "128".to_string())]
        );
        assert_eq!(o.job.core_config().unwrap().rob_size, 128);
        // Overrides win over --arch regardless of flag order.
        let o = parse("run", &["--set", "rob_size=128", "--arch", "neoverse", "x"]).unwrap();
        assert_eq!(o.job.core_config().unwrap().rob_size, 128);
        assert_eq!(o.job.arch, "neoverse");
        // Malformed specs, unknown keys and invalid values all die at
        // parse time with a field-naming message.
        assert!(parse("run", &["--set", "rob_size", "x"]).is_err());
        assert!(parse("run", &["--set", "warp_drive=9", "x"]).is_err());
        let err = parse("run", &["--set", "rob_size=0", "x"]).err().unwrap();
        assert!(err.contains("rob_size"), "unhelpful error: {err}");
    }

    #[test]
    fn sweep_flags_parse() {
        let o = parse(
            "sweep",
            &["--config", "xeon", "--config", "neoverse:rob_size=64", "x"],
        )
        .unwrap();
        assert_eq!(
            o.configs,
            vec!["xeon".to_string(), "neoverse:rob_size=64".to_string()]
        );
        assert!(!o.strict_config);
        assert!(
            parse("query", &["--strict-config", "x"])
                .unwrap()
                .strict_config
        );
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
        let o = parse("run", &["--strict", "mcf_like"]).unwrap();
        assert!(o.job.strict);
        assert!(o.job.allow_partial);
        let o = parse("run", &["--no-partial", "mcf_like"]).unwrap();
        assert!(!o.job.allow_partial);
        let o = parse(
            "run",
            &[
                "--inject",
                "seed=7,drop-samples=25,truncate-counts=5000,corrupt",
                "mcf_like",
            ],
        )
        .unwrap();
        assert_eq!(o.fault.seed, 7);
        assert_eq!(o.fault.drop_sample_pct, 25);
        assert_eq!(o.fault.truncate_counts_at, Some(5000));
        assert!(o.fault.corrupt);
        rejects(&["--inject", "explode=now"], "--inject");
    }

    #[test]
    fn positional_arity_is_checked_per_command() {
        let err = parse("diff", &["only-one.owp"]).err().unwrap();
        assert!(err.contains("`diff`") && err.contains("two"), "{err}");
        let err = parse("sample", &["loop_merge", "rand_walk"]).err().unwrap();
        assert!(
            err.contains("`sample`") && err.contains("one workload"),
            "{err}"
        );
        let err = parse("sweep", &[]).err().unwrap();
        assert!(err.contains("at least one workload"), "{err}");
        assert!(parse("run", &[]).is_err());
        assert!(parse("selfcheck", &["x"]).is_err());
        assert!(parse("optiwised", &["rand_walk"]).is_err());
        assert!(parse("check", &["x"]).is_err());
        assert!(parse("run", &["a", "b", "c"]).is_ok());
    }

    /// The flags `parse_options` has a match arm for, read from its source.
    fn handled_flags() -> Vec<&'static str> {
        let src = include_str!("lib.rs");
        let body = &src[src.find("fn parse_options(").unwrap()..];
        let body = &body[..body.find("\n}\n").unwrap()];
        body.split('"')
            .filter(|t| {
                t.len() > 2
                    && t.starts_with("--")
                    && t[2..].chars().all(|c| c.is_ascii_lowercase() || c == '-')
            })
            .collect()
    }

    /// A value each value-taking flag parses.
    fn example_value(flag: &str) -> &'static str {
        match flag {
            "--size" => "test",
            "--arch" => "tiny",
            "--set" => "rob_size=64",
            "--attribution" => "precise",
            "--format" => "yaml",
            "--seed-range" => "0..4",
            "--surface" => "jsonl",
            "--inject" => "corrupt",
            "--hot-threshold" => "0.5",
            _ => "16",
        }
    }

    #[test]
    fn every_row_accepts_exactly_its_flags() {
        let handled = handled_flags();
        assert!(handled.len() >= 40, "source scan found only {handled:?}");
        for flag in rows().flat_map(|r| r.flags.iter().copied().flatten()) {
            assert!(handled.contains(flag), "row flag {flag} has no parse arm");
        }
        for &flag in &handled {
            assert!(
                rows().any(|r| r.accepts(flag)),
                "{flag} is parsed but in no row"
            );
        }
        for row in rows() {
            let positionals: &[&str] = match row.args {
                Arity::None => &[],
                Arity::One(_) | Arity::OneOrMore(_) => &["a"],
                Arity::Two(_) => &["a", "b"],
            };
            for &flag in &handled {
                let mut args: Vec<String> = positionals.iter().map(|p| p.to_string()).collect();
                args.push(flag.to_string());
                let result = match parse_options(row, &args) {
                    Err(e) if e.contains("needs a value") => {
                        args.push(example_value(flag).to_string());
                        parse_options(row, &args)
                    }
                    other => other,
                };
                match result {
                    Ok(_) => assert!(row.accepts(flag), "`{}` accepted {flag}", row.name),
                    Err(e) => {
                        assert!(!row.accepts(flag), "`{}` rejected {flag}: {e}", row.name);
                        assert!(e.contains(flag) && e.contains(row.name), "{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn usage_names_exactly_the_table_flags() {
        let mut named: Vec<&str> = Vec::new();
        for text in [USAGE, daemon::DAEMON_USAGE] {
            for (at, _) in text.match_indices("--") {
                let rest = &text[at + 2..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len());
                if len > 0 {
                    named.push(&text[at..at + 2 + len]);
                }
            }
        }
        for flag in &named {
            assert!(
                rows().any(|r| r.accepts(flag)),
                "usage names {flag}, which no row accepts"
            );
        }
        for flag in rows().flat_map(|r| r.flags.iter().copied().flatten()) {
            assert!(named.contains(flag), "usage never names {flag}");
        }
    }
}
