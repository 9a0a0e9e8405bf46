//! The benchmark of the OptiWISE reproduction's own cost.
//!
//! Three workloads drive the library's public entry points from one
//! single-threaded process over a fixed amount of work and report
//! end-to-end metrics; `--trace 1` runs the same work with spans around
//! each layer call and reports per-layer metrics instead. Every timed job
//! is checked by the [`gate`] before it counts.

pub mod gate;
pub mod host;
pub mod jobs;
pub mod trace;

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use optiwise::{AnalysisOptions, ProfileTables};
use wiser_archive::Archive;
use wiser_sim::CoreConfig;
use wiser_store::StoredProfile;

use crate::gate::Gate;
use crate::jobs::{offline_op, profile_job, traced_profile_job, FleetRun, JobCounts, Program};
use crate::trace::{Kind, Scope, Trace};

/// Passes over the archived fleet in one `offline_fleet` round. A pass
/// takes about 10 ms; timing 16 together gives rounds as long as the
/// profiling workloads' ones, whose p90 the busiest host regime sets rather
/// than millisecond jitter.
const FLEET_PASSES_PER_ROUND: u64 = 16;

/// Scratch directory, relative to the checkout the benchmark runs in.
const SCRATCH: &str = ".perfbench";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full pipeline on programs that spend most cycles with a full ROB.
    ProfileStall,
    /// Full pipeline on interpreter-, indirect- and call-dominated programs.
    ProfileDispatch,
    /// Re-analysis of an archived fleet, with no simulation.
    OfflineFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ProfileStall,
        Workload::ProfileDispatch,
        Workload::OfflineFleet,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileStall => "profile_stall",
            Workload::ProfileDispatch => "profile_dispatch",
            Workload::OfflineFleet => "offline_fleet",
        }
    }

    /// The programs one round runs, in order; `smoke` trims the list to
    /// one cheap program (two for the fleet, so it still diffs pairs).
    pub fn programs(self, smoke: bool) -> &'static [&'static str] {
        match (self, smoke) {
            (Workload::ProfileStall, false) => &["nab_like", "imagick_like", "bwaves_like"],
            (Workload::ProfileStall, true) => &["imagick_like"],
            // lbm_like (~10 s a job) and x264_like (~1.5 s) are left out
            // so that no single program sets the whole run.
            (Workload::ProfileDispatch, false) => &[
                "exchange2_like",
                "perlbench_like",
                "xalancbmk_like",
                "leela_like",
            ],
            (Workload::ProfileDispatch, true) => &["xalancbmk_like"],
            (Workload::OfflineFleet, false) => &[
                "nab_like",
                "imagick_like",
                "bwaves_like",
                "exchange2_like",
                "perlbench_like",
                "xalancbmk_like",
                "leela_like",
                "gcc_like",
                "mcf_like",
                "deepsjeng_like",
            ],
            (Workload::OfflineFleet, true) => &["xalancbmk_like", "mcf_like"],
        }
    }

    /// Rounds over the program list per requested second. The work of a
    /// run is fixed by `--seconds` alone, never by how fast the host is;
    /// the rate is set so a run lasts about `--seconds` on a 2-vCPU host.
    fn rounds_per_second(self) -> f64 {
        match self {
            Workload::ProfileStall => 4.5,
            Workload::ProfileDispatch => 4.5,
            Workload::OfflineFleet => 6.0,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their p80.
    fn setups(self) -> u64 {
        match self {
            Workload::ProfileStall | Workload::ProfileDispatch => 15,
            Workload::OfflineFleet => 5,
        }
    }

    /// How many times longer a traced round takes than an untraced one:
    /// the untraced twin, the traced job and the reference executions.
    fn trace_cost(self) -> f64 {
        match self {
            Workload::ProfileStall | Workload::ProfileDispatch => 4.0,
            Workload::OfflineFleet => 2.5,
        }
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Requested measuring time, which fixes the amount of work.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Trimmed program list, one round, one set-up.
    pub smoke: bool,
    /// Print `digests.txt` lines for this (workload, seed) instead.
    pub record: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds N --trace 0|1
    /// [--smoke] [--record]`.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value, or a missing
    /// `--workload`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut args = Args {
            workload: Workload::ProfileStall,
            seed: 1,
            seconds: 20,
            trace: false,
            smoke: false,
            record: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(v).ok_or_else(|| format!("no workload {v}"))?);
                }
                "--seed" => args.seed = number(value()?)?,
                "--seconds" => args.seconds = number(value()?)?.max(1),
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--smoke" => args.smoke = true,
                "--record" => args.record = true,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }

    /// Rounds the timed phase runs.
    fn rounds(&self) -> u64 {
        if self.smoke {
            return 1;
        }
        let w = self.workload;
        let mut rounds = self.seconds as f64 * w.rounds_per_second();
        if self.trace {
            rounds /= w.trace_cost();
        }
        (rounds.round() as u64).max(1)
    }

    /// Rounds timed after each set-up. Set-ups are spread over the run,
    /// so that their median samples the host's speed at several points
    /// rather than once. A traced run sets up once; a recording run also
    /// times nothing.
    fn segments(&self) -> Vec<u64> {
        if self.record {
            return vec![0];
        }
        let setups = if self.smoke || self.trace {
            1
        } else {
            self.workload.setups()
        };
        let rounds = self.rounds();
        (0..setups)
            .map(|k| rounds / setups + u64::from(k < rounds % setups))
            .collect()
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output checked matched.
    pub correct: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host, checkout and work facts, as `(key, JSON value)`.
    pub provenance: Vec<(&'static str, String)>,
    /// `digests.txt` lines, in `--record` mode.
    pub recorded: Option<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance line.
    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }

    fn finish(&mut self, gate: &Gate) {
        self.attempted = gate.attempted;
        self.failed = gate.failed;
        self.first_failure.clone_from(&gate.first_failure);
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        if !finite {
            self.first_failure
                .get_or_insert_with(|| "a metric is not a finite number".into());
        }
        self.correct = gate.correct() && finite && self.attempted > 0;
        if self.attempted == 0 {
            // The result line needs at least one attempt; a run that timed
            // nothing has failed it.
            self.attempted = 1;
            self.failed = 1;
        }
    }
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `q`-quantile by nearest rank: the smallest value with at least a
/// share `q` of the values at or below it.
fn percentile(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values
        .get(rank.saturating_sub(1))
        .copied()
        .unwrap_or(f64::NAN)
}

/// The timed phase: a fixed number of rounds over the workload's program
/// list (or fleet), each timed on its own.
#[derive(Default)]
struct Rounds {
    /// Wall time of each round, in seconds.
    secs: Vec<f64>,
    /// Simulated instructions of the whole phase.
    insns: u64,
    /// Operations of the whole phase.
    ops: u64,
}

impl Rounds {
    /// Times one round; `f` returns the simulated instructions and the
    /// operations it did.
    fn time(&mut self, f: impl FnOnce() -> (u64, u64)) {
        let t = Instant::now();
        let (insns, ops) = f();
        self.secs.push(t.elapsed().as_secs_f64());
        self.insns += insns;
        self.ops += ops;
    }

    fn wall_s(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// The round time nine rounds in ten meet. The host's speed moves in
    /// regimes of seconds to minutes, up to 2x apart; the median round
    /// flips between them from run to run, while the slow tail, which the
    /// busiest regime sets, moves least (see README.md).
    fn p90_s(&self) -> f64 {
        percentile(self.secs.clone(), 0.9)
    }

    /// Work per round over the p90 round time: the throughput nine rounds
    /// in ten sustain.
    fn per_second(&self, work: u64) -> f64 {
        work as f64 / self.secs.len() as f64 / self.p90_s()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs the benchmark as `args` asks.
///
/// # Errors
///
/// A failure to set up (a program that does not build or profile, an
/// archive that cannot be created). Failures of timed operations are not
/// errors: they are counted in the outcome.
pub fn run(args: &Args) -> Result<Outcome, String> {
    fs::create_dir_all(SCRATCH).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let mut outcome = match args.workload {
        Workload::ProfileStall | Workload::ProfileDispatch => profiling(args)?,
        Workload::OfflineFleet => offline(args)?,
    };
    let mut p = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", host::nproc().to_string()),
        ("cpu_model", json_str(&host::cpu_model())),
        ("git_rev", json_str(&host::git_rev())),
        ("threads", "1".into()),
    ];
    if let Some(f) = &outcome.first_failure {
        p.push(("first_failure", json_str(f)));
    }
    outcome.provenance.splice(0..0, p);
    Ok(outcome)
}

fn gate_for(args: &Args) -> Gate {
    if args.record {
        // Recording takes what the code produces now.
        return Gate::default();
    }
    Gate::new(gate::recorded(args.workload.name(), args.seed))
}

fn build_programs(args: &Args) -> Result<Vec<Program>, String> {
    args.workload
        .programs(args.smoke)
        .iter()
        .map(|name| Program::build(name))
        .collect()
}

fn work_provenance(outcome: &mut Outcome, rounds: &Rounds) {
    outcome.provenance.extend([
        ("fixed_work_rounds", rounds.secs.len().to_string()),
        ("fixed_work_ops", rounds.ops.to_string()),
        ("fixed_work_sim_insns", rounds.insns.to_string()),
        ("timed_wall_s", rounds.wall_s().to_string()),
        (
            "round_ms_p50",
            (median(rounds.secs.clone()) * 1e3).to_string(),
        ),
    ]);
}

fn profiling(args: &Args) -> Result<Outcome, String> {
    let cfg = jobs::config(args.seed, CoreConfig::xeon_like());
    let mut gate = gate_for(args);
    let mut setup_s = Vec::new();
    let mut programs = Vec::new();
    let mut timed = Rounds::default();
    for rounds in args.segments() {
        let t = Instant::now();
        programs = build_programs(args)?;
        // The untimed warm-up pass, which also fixes every program's digest.
        for p in &programs {
            gate.expect(p.name, profile_job(p, &cfg, "xeon").map(|o| o.digest));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if args.trace {
            break;
        }

        for _ in 0..rounds {
            timed.time(|| {
                let mut insns = 0;
                for p in &programs {
                    let out = profile_job(p, &cfg, "xeon");
                    if let Ok(o) = &out {
                        insns += o.insns;
                    }
                    gate.check(p.name, out.map(|o| o.digest));
                }
                (insns, programs.len() as u64)
            });
        }
    }
    let mut outcome = Outcome::default();
    if args.record {
        outcome.recorded = Some(gate.record_lines(args.workload.name(), args.seed));
        return Ok(outcome);
    }
    if args.trace {
        return traced_profiling(args, &cfg, &programs, gate);
    }
    outcome.metrics = end_to_end(setup_s, &timed);
    work_provenance(&mut outcome, &timed);
    outcome.finish(&gate);
    Ok(outcome)
}

/// The end-to-end metrics. `setup_s` is the p80 of the run's set-ups: like
/// the p90 round, the slow side of the set-ups is set by the busiest host
/// regime, which every run meets, while their median moved by half between
/// sets of ten runs.
fn end_to_end(setup_s: Vec<f64>, timed: &Rounds) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", percentile(setup_s, 0.8), "s"),
        m("round_ms_p90", timed.p90_s() * 1e3, "ms"),
        m(
            "sim_minsns_per_s",
            timed.per_second(timed.insns) / 1e6,
            "Minsn/s",
        ),
        m("ops_per_s", timed.per_second(timed.ops), "1/s"),
        m(
            "peak_rss_mb",
            host::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        ),
    ]
}

/// Work counts of the offline-side layers, summed.
#[derive(Clone, Copy, Debug, Default)]
struct OpCounts {
    loops: u64,
    functions: u64,
    analyses: u64,
    owp_bytes: u64,
    encodes: u64,
    diff_rows: u64,
    diffs: u64,
}

fn traced_profiling(
    args: &Args,
    cfg: &optiwise::OptiwiseConfig,
    programs: &[Program],
    mut gate: Gate,
) -> Result<Outcome, String> {
    let rounds = args.rounds();
    let archive_dir = scratch_path(args, "archive");
    let _ = fs::remove_dir_all(&archive_dir);
    let mut archive = Archive::create(&archive_dir).map_err(|e| e.to_string())?;
    let mut tr = Trace::new();
    let mut jc = JobCounts::default();
    let mut oc = OpCounts::default();
    let mut first_tables: Vec<Option<ProfileTables>> = programs.iter().map(|_| None).collect();
    let mut timed = Rounds::default();
    let mut job = 0;
    for _ in 0..rounds {
        let t = Instant::now();
        timed.ops += programs.len() as u64;
        for (i, p) in programs.iter().enumerate() {
            job += 1;
            let out = traced_profile_job(&mut tr, job, p, cfg, "xeon", &mut jc);
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    gate.check(p.name, Err(e));
                    continue;
                }
            };
            if !gate.check(p.name, Ok(out.digest)) {
                continue;
            }
            timed.insns += out.insns;
            oc.analyses += 1;
            oc.encodes += 1;
            oc.owp_bytes += out.owp.len() as u64;
            // What `run --archive` then `query` do with the job's output.
            if let Err(e) = post_job(
                &mut tr,
                job,
                &mut archive,
                p,
                &out.owp,
                &mut first_tables[i],
                &mut oc,
            ) {
                gate.fail(format!("{}: {e}", p.name));
            }
        }
        timed.secs.push(t.elapsed().as_secs_f64());
    }
    let _ = fs::remove_dir_all(&archive_dir);
    let mut outcome = Outcome {
        metrics: layer_metrics(&tr, &jc, &tr, &oc, "job", "untraced.job"),
        ..Outcome::default()
    };
    write_trace(args, "", &tr);
    work_provenance(&mut outcome, &timed);
    outcome.provenance.push((
        "trace_overhead_frac",
        overhead(&tr, "job", "untraced.job").to_string(),
    ));
    outcome.finish(&gate);
    Ok(outcome)
}

fn post_job(
    tr: &mut Trace,
    job: u64,
    archive: &mut Archive,
    p: &Program,
    owp: &[u8],
    first: &mut Option<ProfileTables>,
    oc: &mut OpCounts,
) -> Result<(), String> {
    let id = tr
        .time("archive.commit", Kind::Post, job, None, || {
            archive.add_run(owp, p.fingerprint)
        })
        .map_err(|e| e.to_string())?;
    let loaded = tr
        .time("archive.load", Kind::Post, job, None, || {
            archive.load_run(id)
        })
        .map_err(|e| e.to_string())?;
    let decoded = tr.time("store.decode", Kind::Reference, job, None, || {
        StoredProfile::from_bytes(owp)
    });
    if decoded.map_err(|e| e.to_string())? != loaded {
        return Err("archived run differs from its bytes".into());
    }
    oc.loops += loaded.tables.loops.len() as u64;
    oc.functions += loaded.tables.functions.len() as u64;
    let base = first.get_or_insert_with(|| loaded.tables.clone());
    let diff = tr.time("diff.tables", Kind::Post, job, None, || {
        optiwise::diff_tables(base, &loaded.tables, optiwise::DiffOptions::default())
    });
    tr.time("diff.report", Kind::Post, job, None, || {
        optiwise::report::diff_report(&diff, jobs::TOP)
    });
    let (regressions, improvements, _) = diff.summary();
    if regressions + improvements > 0 {
        return Err("a repeated job diffs against its first run".into());
    }
    oc.diffs += 1;
    oc.diff_rows += diff.rows().count() as u64;
    Ok(())
}

fn scratch_path(args: &Args, what: &str) -> PathBuf {
    PathBuf::from(SCRATCH).join(format!(
        "{what}-{}-seed{}-trace{}-{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ))
}

fn write_trace(args: &Args, suffix: &str, tr: &Trace) {
    let path = PathBuf::from(SCRATCH).join(format!(
        "trace-{}-seed{}{suffix}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn overhead(tr: &Trace, traced: &str, untraced: &str) -> f64 {
    let u = tr.total_ns(untraced) as f64;
    (tr.total_ns(traced) as f64 - u) / u
}

/// The offline fleet as one set-up leaves it.
struct Fleet {
    programs: Vec<Program>,
    archive: Archive,
    runs: Vec<FleetRun>,
}

/// Profiles every program on both cores and commits the runs to a fresh
/// archive, then makes the untimed warm-up pass that fixes every op's
/// digest. A traced run traces the profiling jobs into `jobs_trace`.
fn setup_fleet(
    args: &Args,
    dir: &std::path::Path,
    gate: &mut Gate,
    jobs_trace: &mut Trace,
    jc: &mut JobCounts,
) -> Result<Fleet, String> {
    let archs = [
        ("xeon", CoreConfig::xeon_like()),
        ("neoverse", CoreConfig::neoverse_like()),
    ];
    let _ = fs::remove_dir_all(dir);
    let programs = build_programs(args)?;
    let mut archive = Archive::create(dir).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut job = 0;
    for (i, p) in programs.iter().enumerate() {
        for (arch, core) in archs {
            job += 1;
            let cfg = jobs::config(args.seed, core);
            let key = format!("{}@{arch}.job", p.name);
            let out = if args.trace {
                traced_profile_job(jobs_trace, job, p, &cfg, arch, jc)
            } else {
                profile_job(p, &cfg, arch)
            };
            let out = out.map_err(|e| format!("{key}: {e}"))?;
            gate.expect(&key, Ok(out.digest));
            let id = jobs_trace
                .time("archive.commit", Kind::Post, job, None, || {
                    archive.add_run(&out.owp, p.fingerprint)
                })
                .map_err(|e| format!("{key}: {e}"))?;
            runs.push(FleetRun {
                id,
                program: i,
                arch,
                bytes: out.owp,
                insns: out.insns,
            });
        }
    }
    let opts = jobs::config(args.seed, CoreConfig::xeon_like()).analysis;
    fleet_pass(&archive, &runs, &programs, opts, None, |key, out| {
        gate.expect(key, out.map(|o| o.digest));
    });
    Ok(Fleet {
        programs,
        archive,
        runs,
    })
}

fn offline(args: &Args) -> Result<Outcome, String> {
    let mut gate = gate_for(args);
    let dir = scratch_path(args, "archive");
    let opts = jobs::config(args.seed, CoreConfig::xeon_like()).analysis;
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut jobs_trace = Trace::new();
    let mut ops_trace = Trace::new();
    let mut jc = JobCounts::default();
    let mut oc = OpCounts::default();
    let mut timed = Rounds::default();
    for rounds in args.segments() {
        let t = Instant::now();
        let fleet = setup_fleet(args, &dir, &mut gate, &mut jobs_trace, &mut jc);
        setup_s.push(t.elapsed().as_secs_f64());
        let fleet = fleet.inspect_err(|_| {
            let _ = fs::remove_dir_all(&dir);
        })?;
        if args.record {
            outcome.recorded = Some(gate.record_lines(args.workload.name(), args.seed));
            break;
        }

        for _ in 0..rounds {
            let mut tr = args.trace.then_some(&mut ops_trace);
            timed.time(|| {
                for _ in 0..FLEET_PASSES_PER_ROUND {
                    fleet_pass(
                        &fleet.archive,
                        &fleet.runs,
                        &fleet.programs,
                        opts,
                        tr.as_deref_mut(),
                        |key, out| {
                            if let Ok(o) = &out {
                                oc.analyses += 1;
                                oc.loops += o.loops;
                                oc.functions += o.functions;
                                oc.owp_bytes += o.bytes;
                                if let Some(rows) = o.diff_rows {
                                    oc.diffs += 1;
                                    oc.diff_rows += rows;
                                }
                            }
                            gate.check(key, out.map(|o| o.digest));
                        },
                    );
                }
                let insns = fleet.runs.iter().map(|r| r.insns).sum::<u64>();
                let passes = FLEET_PASSES_PER_ROUND;
                (passes * insns, passes * fleet.runs.len() as u64)
            });
        }
        if args.trace {
            for r in &fleet.runs {
                let decoded = ops_trace.time("store.decode", Kind::Reference, r.id, None, || {
                    StoredProfile::from_bytes(&r.bytes)
                });
                if let Err(e) = decoded {
                    gate.fail(format!("run {}: {e}", r.id));
                }
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
    if args.record {
        return Ok(outcome);
    }
    oc.encodes = oc.analyses;
    if args.trace {
        outcome.metrics = layer_metrics(&jobs_trace, &jc, &ops_trace, &oc, "op", "untraced.op");
        write_trace(args, "-setup", &jobs_trace);
        write_trace(args, "", &ops_trace);
        outcome.provenance.push((
            "trace_overhead_frac",
            overhead(&ops_trace, "op", "untraced.op").to_string(),
        ));
    } else {
        // sim_minsns_per_s here counts the simulated instructions behind the
        // profiles re-analysed, since the timed phase simulates nothing.
        outcome.metrics = end_to_end(setup_s, &timed);
    }
    work_provenance(&mut outcome, &timed);
    outcome.finish(&gate);
    Ok(outcome)
}

/// One pass over the fleet, in commit order; the second run of each
/// program is diffed against the first. With a trace, each op runs once
/// untraced and once traced.
fn fleet_pass(
    archive: &Archive,
    fleet: &[FleetRun],
    programs: &[Program],
    opts: AnalysisOptions,
    mut trace: Option<&mut Trace>,
    mut check: impl FnMut(&str, Result<jobs::OpOut, String>),
) {
    let mut first: Option<(usize, ProfileTables)> = None;
    for run in fleet {
        let p = &programs[run.program];
        let pair_first = first
            .as_ref()
            .filter(|(i, _)| *i == run.program)
            .map(|(_, t)| t);
        let key = format!("{}@{}", p.name, run.arch);
        let out = match trace.as_deref_mut() {
            None => offline_op(archive, run, &p.linked, opts, pair_first, None),
            Some(tr) => {
                let untraced = |tr: &mut Trace| {
                    let id = tr.open("untraced.op", Kind::Untraced, run.id, None);
                    let out = offline_op(archive, run, &p.linked, opts, pair_first, None);
                    tr.close(id);
                    out
                };
                // Alternate which twin runs first, as for profiling jobs.
                let early = run.id.is_multiple_of(2).then(|| untraced(tr));
                let root = tr.open("op", Kind::Job, run.id, None);
                let scope = Scope {
                    trace: tr,
                    job: run.id,
                    parent: root,
                };
                let traced = offline_op(archive, run, &p.linked, opts, pair_first, Some(scope));
                tr.close(root);
                let plain = early.unwrap_or_else(|| untraced(tr));
                match (plain, traced) {
                    (Ok(a), Ok(b)) if a.digest != b.digest => {
                        Err(format!("{key}: traced op differs from the untraced one"))
                    }
                    (Ok(_), traced) => traced,
                    (Err(e), _) => Err(e),
                }
            }
        };
        let next_first = match (&out, pair_first) {
            (Ok(o), None) => Some((run.program, o.tables.clone())),
            _ => None,
        };
        check(&key, out);
        first = next_first;
    }
}

/// Per-layer metrics. `jobs` holds traced profiling jobs, `ops` the traced
/// operations that exercise the offline-side layers (the same trace for
/// the profiling workloads); `op`/`untraced_op` name an op's traced span
/// and its untraced twin.
fn layer_metrics(
    jobs: &Trace,
    jc: &JobCounts,
    ops: &Trace,
    oc: &OpCounts,
    op: &str,
    untraced_op: &str,
) -> Vec<Metric> {
    let mean = |t: &Trace, name: &str| ms(t.total_ns(name)) / t.count(name).max(1) as f64;
    let n = jc.jobs.max(1) as f64;
    let per_job = |v: u64| v as f64 / n;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    let interp = mean(jobs, "sim.interp");
    let timed = mean(jobs, "sim.timed");
    let sampler = mean(jobs, "sampler.pass");
    let dbi = mean(jobs, "dbi.pass");
    let untraced_job = mean(jobs, "untraced.job");
    let pipeline_ms = ms(jobs.kind_total_ns(Kind::Pipeline)) / n;
    let decode = mean(ops, "store.decode");
    let archive_load = mean(ops, "archive.load");
    let diffs = oc.diffs.max(1) as f64;
    let diff_ms = (ms(ops.total_ns("diff.tables")) + ms(ops.total_ns("diff.report"))) / diffs;
    let analysis = mean(ops, "analysis");
    let tables = mean(ops, "tables");
    let report = mean(ops, "report");
    let encode = mean(ops, "store.encode");
    // The offline-side layers' share of one op: for a profiling job, the
    // analysis and what `--save` adds; for an archived-run op, all of it.
    let offline_layers = if op == "job" {
        analysis + tables + report + encode
    } else {
        archive_load
            + analysis
            + tables
            + report
            + encode
            + diff_ms * oc.diffs as f64 / ops.count(op).max(1) as f64
    };

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("sim.load_ms", mean(jobs, "sim.load"), "ms"),
        m("sim.interp_ms", interp, "ms"),
        m(
            "sim.interp_ns_per_insn",
            ratio(jobs.total_ns("sim.interp"), jc.interp_insns),
            "ns",
        ),
        m("sim.timed_ms", timed, "ms"),
        m("sim.core_self_ms", timed - interp, "ms"),
        m(
            "sim.ns_per_cycle",
            ratio(jobs.total_ns("sim.timed"), jc.reference_cycles),
            "ns",
        ),
        m("sim.cycles", per_job(jc.cycles), "count"),
        m("sim.retired", per_job(jc.retired), "count"),
        m("sim.rob_full_frac", ratio(jc.rob_full, jc.cycles), "ratio"),
        m("sim.iq_full_frac", ratio(jc.iq_full, jc.cycles), "ratio"),
        m("sampler.pass_ms", sampler, "ms"),
        m("sampler.self_ms", sampler - timed, "ms"),
        m("sampler.samples", per_job(jc.samples), "count"),
        m(
            "sampler.us_per_sample",
            (sampler - timed) * 1e3 * n / jc.samples.max(1) as f64,
            "us",
        ),
        m("dbi.pass_ms", dbi, "ms"),
        m("dbi.self_ms", dbi - interp, "ms"),
        m(
            "dbi.ns_per_native_insn",
            ratio(jobs.total_ns("dbi.pass"), jc.native_insns),
            "ns",
        ),
        m("dbi.native_insns", per_job(jc.native_insns), "count"),
        m(
            "dbi.instrumented_insns",
            per_job(jc.instrumented_insns),
            "count",
        ),
        m("dbi.block_execs", per_job(jc.block_execs), "count"),
        m("dbi.indirect_execs", per_job(jc.indirect_execs), "count"),
        m("dbi.counters_placed", per_job(jc.counters_placed), "count"),
        m(
            "dbi.counters_suppressed",
            per_job(jc.counters_suppressed),
            "count",
        ),
        m("cfg.placement_ms", mean(jobs, "cfg.placement"), "ms"),
        m("runner.job_ms", untraced_job, "ms"),
        m("runner.attempts", per_job(jc.attempts), "count"),
        m(
            "runner.useful_attempt_ratio",
            ratio(2 * jc.jobs, jc.attempts),
            "ratio",
        ),
        m("runner.unaccounted_ms", untraced_job - pipeline_ms, "ms"),
        m("runner.self_ms", ms(jobs.kind_self_ns(Kind::Job)) / n, "ms"),
        m("analysis.ms", analysis, "ms"),
        m("analysis.loops", ratio(oc.loops, oc.analyses), "count"),
        m(
            "analysis.functions",
            ratio(oc.functions, oc.analyses),
            "count",
        ),
        m("tables.ms", tables, "ms"),
        m("report.ms", report, "ms"),
        m("store.decode_ms", decode, "ms"),
        m("store.encode_ms", encode, "ms"),
        m("store.bytes", ratio(oc.owp_bytes, oc.encodes), "bytes"),
        m("diff.ms", diff_ms, "ms"),
        m("diff.rows", ratio(oc.diff_rows, oc.diffs), "count"),
        m("archive.load_ms", archive_load, "ms"),
        m("archive.self_ms", archive_load - decode, "ms"),
        m("archive.commit_ms", mean(jobs, "archive.commit"), "ms"),
        m(
            "trace.overhead_frac",
            overhead(ops, op, untraced_op),
            "ratio",
        ),
        m("share.core_self", (timed - interp) / untraced_job, "ratio"),
        m(
            "share.interp_dbi_self",
            (interp + dbi) / untraced_job,
            "ratio",
        ),
        m(
            "share.offline_layers",
            offline_layers / mean(ops, untraced_op),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_fix_the_work() {
        let a = Args::parse(&argv(
            "--workload profile_stall --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Workload::ProfileStall, 7, false)
        );
        assert_eq!(a.rounds(), 45);
        let t = Args::parse(&argv("--workload offline_fleet --seconds 10 --trace 1")).unwrap();
        assert!(t.trace);
        assert_eq!(t.rounds(), 24);
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--seed 1")).is_err());
        assert!(Args::parse(&argv("--workload offline_fleet --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload offline_fleet --bogus")).is_err());
    }

    #[test]
    fn throughput_over_fixed_work() {
        // Ten rounds of 0.1 s to 1.0 s: the p90 round is 0.9 s.
        let timed = Rounds {
            secs: (1..=10).map(|i| f64::from(i) / 10.0).collect(),
            insns: 9_000_000,
            ops: 90,
        };
        assert!((timed.wall_s() - 5.5).abs() < 1e-9);
        let m = end_to_end(vec![0.4, 0.5, 0.3, 0.2, 0.1], &timed);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        // The p80 of five set-ups is the second slowest.
        assert_eq!(get("setup_s"), 0.4);
        // A tenth of the work per round, over the p90 round.
        assert!((get("sim_minsns_per_s") - 1.0).abs() < 1e-9);
        assert!((get("ops_per_s") - 10.0).abs() < 1e-9);
        assert!((get("round_ms_p90") - 900.0).abs() < 1e-9);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(Vec::new()).is_nan());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(hundred.clone(), 0.9), 90.0);
        assert_eq!(percentile(hundred, 1.0), 100.0);
        assert!(percentile(Vec::new(), 0.9).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            metrics: vec![Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
            ..Outcome::default()
        };
        o.finish(&Gate::default());
        // Nothing was attempted: the run counts as one failed op.
        assert_eq!((o.correct, o.attempted, o.failed), (false, 1, 1));
        assert_eq!(
            o.result_json(),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c \"");
    }
}
