//! End-to-end tests of the `optiwise` binary, driving the same workflows
//! the paper's artifact documents.

use std::path::{Path, PathBuf};
use std::process::Command;

fn optiwise(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_optiwise"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A fresh scratch directory for one test, removed when the test ends. It
/// is per process and cleared first, so files of an earlier run, or of a
/// debug and a release run on one host, never mix.
struct Scratch(PathBuf);

fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("optiwise-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

impl Scratch {
    /// The path of `file` inside the directory.
    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn check_passes() {
    let out = optiwise(&["check"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "{stdout}");
}

#[test]
fn list_shows_workloads() {
    let out = optiwise(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mcf_like"));
    assert!(stdout.contains("xalancbmk_like"));
    assert!(stdout.contains("slow_store"));
    assert!(stdout.contains("\ngenerated "), "{stdout}");
}

#[test]
fn run_produces_report() {
    let out = optiwise(&["run", "loop_merge", "--size", "test"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-- loops --"), "{stdout}");
    assert!(stdout.contains("-- functions --"));
}

#[test]
fn split_sample_instrument_analyze_workflow() {
    let dir = scratch("split");
    for w in ["stack_attr", "mcf_like", "rand_walk"] {
        let samples = dir.path(&format!("{w}-samples.owp"));
        let counts = dir.path(&format!("{w}-counts.owp"));
        let out = optiwise(&["sample", w, "--size", "test", "--out", &samples]);
        assert!(out.status.success(), "{w}: {out:?}");
        let out = optiwise(&["instrument", w, "--size", "test", "--out", &counts]);
        assert!(out.status.success(), "{w}: {out:?}");
        // `analyze` runs the pipeline with both passes restored: the report
        // is the one `run` prints.
        let analyzed = optiwise(&[
            "analyze",
            w,
            "--size",
            "test",
            "--samples",
            &samples,
            "--counts",
            &counts,
        ]);
        assert!(analyzed.status.success(), "{w}: {analyzed:?}");
        let run = optiwise(&["run", w, "--size", "test"]);
        assert!(run.status.success(), "{w}: {run:?}");
        assert_eq!(
            String::from_utf8_lossy(&analyzed.stdout),
            String::from_utf8_lossy(&run.stdout),
            "{w}: split analyze must match `run`"
        );

        // Swapped files lack the section each flag needs: parse exit code.
        let out = optiwise(&[
            "analyze",
            w,
            "--size",
            "test",
            "--samples",
            &counts,
            "--counts",
            &samples,
        ]);
        assert_eq!(out.status.code(), Some(6), "{w}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("no SAMP section"), "{w}: {stderr}");
    }
    let (samples, counts) = (
        dir.path("stack_attr-samples.owp"),
        dir.path("stack_attr-counts.owp"),
    );

    // Files recorded against another program are refused, not analyzed
    // as if they described this one.
    let out = optiwise(&[
        "analyze",
        "mcf_like",
        "--size",
        "test",
        "--samples",
        &samples,
        "--counts",
        &counts,
    ]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mcf_like"), "{stderr}");
    assert!(stderr.contains("different build"), "{stderr}");

    // A truncated counts pass degrades `analyze` exactly as it degrades
    // `run`: same sampling-only report, same warning lines.
    let mcf_counts = dir.path("mcf-counts-truncated.owp");
    let out = optiwise(&[
        "instrument",
        "mcf_like",
        "--size",
        "test",
        "--inject",
        "truncate-counts=5000",
        "--out",
        &mcf_counts,
    ]);
    assert!(out.status.success(), "{out:?}");
    let analyzed = optiwise(&[
        "analyze",
        "mcf_like",
        "--size",
        "test",
        "--samples",
        &dir.path("mcf_like-samples.owp"),
        "--counts",
        &mcf_counts,
    ]);
    assert!(analyzed.status.success(), "{analyzed:?}");
    let run = optiwise(&[
        "run",
        "mcf_like",
        "--size",
        "test",
        "--inject",
        "truncate-counts=5000",
    ]);
    assert!(run.status.success(), "{run:?}");
    assert_eq!(
        String::from_utf8_lossy(&analyzed.stdout),
        String::from_utf8_lossy(&run.stdout),
        "split analyze of a truncated counts pass must match `run`"
    );

    // The split files hold full passes: --selective is a usage error on
    // every split command.
    for args in [
        vec![
            "sample",
            "stack_attr",
            "--size",
            "test",
            "--selective",
            "--out",
            "/dev/null",
        ],
        vec![
            "instrument",
            "stack_attr",
            "--size",
            "test",
            "--selective",
            "--out",
            "/dev/null",
        ],
        vec![
            "analyze",
            "stack_attr",
            "--size",
            "test",
            "--selective",
            "--samples",
            &samples,
            "--counts",
            &counts,
        ],
    ] {
        let out = optiwise(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--selective"), "{args:?}: {stderr}");
    }

    // A mid-pass `run --checkpoint` snapshot is not a finished pass: it is
    // refused with the parse exit code and pointed at `resume`.
    let snapshot = dir.path("snapshot.owp");
    let out = optiwise(&[
        "run",
        "long_haul",
        "--size",
        "test",
        "--checkpoint",
        &snapshot,
        "--checkpoint-every",
        "2000",
        "--inject",
        "kill-after=8000",
    ]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let out = optiwise(&[
        "instrument",
        "long_haul",
        "--size",
        "test",
        "--out",
        &counts,
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "analyze",
        "long_haul",
        "--size",
        "test",
        "--samples",
        &snapshot,
        "--counts",
        &counts,
    ]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("optiwise resume"), "{stderr}");
}

#[test]
fn annotate_prints_instruction_rows() {
    let out = optiwise(&[
        "annotate",
        "udiv_chain",
        "--size",
        "test",
        "--function",
        "_start",
        "--attribution",
        "precise",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("udiv"), "{stdout}");
    assert!(stdout.contains("CPI"), "{stdout}");
}

#[test]
fn run_exports_csv_tables() {
    let dir = scratch("csv");
    let out = optiwise(&[
        "run",
        "loop_merge",
        "--size",
        "test",
        "--csv-dir",
        &dir.path("csv"),
        "--out",
        &dir.path("csv/report.txt"),
    ]);
    assert!(out.status.success(), "{out:?}");
    for name in ["functions.csv", "loops.csv", "blocks.csv", "report.txt"] {
        let path = dir.path(&format!("csv/{name}"));
        let contents = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(contents.lines().count() >= 2, "{name} too small");
    }
}

#[test]
fn unknown_workload_fails_gracefully() {
    let out = optiwise(&["run", "not_a_workload"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload"), "{stderr}");
}

#[test]
fn injected_truncation_degrades_run_but_fails_strict() {
    // Default (lenient) mode: the report still appears, labelled degraded.
    let out = optiwise(&[
        "run",
        "loop_merge",
        "--size",
        "test",
        "--inject",
        "truncate-counts=2000",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEGRADED"), "{stdout}");
    assert!(stdout.contains("truncated"), "{stdout}");

    // Strict mode: same fault is a hard error with the truncation exit code.
    let out = optiwise(&[
        "run",
        "loop_merge",
        "--size",
        "test",
        "--strict",
        "--inject",
        "truncate-counts=2000",
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated"), "{stderr}");
}

#[test]
fn corrupted_profile_exits_with_parse_code() {
    let dir = scratch("corrupt");
    let (samples, counts) = (dir.path("samples.owp"), dir.path("counts.owp"));
    let out = optiwise(&["sample", "stack_attr", "--size", "test", "--out", &samples]);
    assert!(out.status.success(), "{out:?}");
    // Emit a deterministically corrupted counts profile...
    let out = optiwise(&[
        "instrument",
        "stack_attr",
        "--size",
        "test",
        "--inject",
        "corrupt",
        "--out",
        &counts,
    ]);
    assert!(out.status.success(), "{out:?}");
    // ...and analyzing it fails with the parse exit code and a byte offset.
    let out = optiwise(&[
        "analyze",
        "stack_attr",
        "--size",
        "test",
        "--samples",
        &samples,
        "--counts",
        &counts,
    ]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
    assert!(stderr.contains("byte"), "{stderr}");
}

#[test]
fn desynced_seeds_fail_strict_run_with_divergence_code() {
    // `rand_walk` draws its control flow from the seeded rand syscall, so
    // desyncing the instrumentation run's seed makes the two passes observe
    // different executions — exactly what strict mode must reject.
    let out = optiwise(&[
        "run",
        "rand_walk",
        "--size",
        "test",
        "--strict",
        "--inject",
        "desync-seed=99",
    ]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("divergence"), "{stderr}");

    // Without the fault the same strict run is clean.
    let out = optiwise(&["run", "rand_walk", "--size", "test", "--strict"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The split workflow runs the same passes: a desynced `instrument`
    // fails strict `analyze` the same way, and lenient `analyze` prints
    // the report `run` prints under the same fault.
    let dir = scratch("desync");
    let (samples, counts) = (dir.path("samples.owp"), dir.path("counts.owp"));
    let out = optiwise(&["sample", "rand_walk", "--size", "test", "--out", &samples]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "instrument",
        "rand_walk",
        "--size",
        "test",
        "--inject",
        "desync-seed=99",
        "--out",
        &counts,
    ]);
    assert!(out.status.success(), "{out:?}");
    let analyze = [
        "analyze",
        "rand_walk",
        "--size",
        "test",
        "--samples",
        &samples,
        "--counts",
        &counts,
    ];
    let out = optiwise(&[&analyze[..], &["--strict"]].concat());
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("divergence"), "{stderr}");
    let analyzed = optiwise(&analyze);
    assert!(analyzed.status.success(), "{analyzed:?}");
    let run = optiwise(&[
        "run",
        "rand_walk",
        "--size",
        "test",
        "--inject",
        "desync-seed=99",
    ]);
    assert!(run.status.success(), "{run:?}");
    assert_eq!(
        String::from_utf8_lossy(&analyzed.stdout),
        String::from_utf8_lossy(&run.stdout),
        "split analyze of a desynced counts pass must match `run`"
    );
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    // `--jobs 1` runs every stage sequentially; `--jobs 8` overlaps the
    // two profiling passes and shards the per-module analysis. The merge
    // is keyed on ModuleId order, so the report must not change by a byte.
    for workload in ["rand_walk", "loop_merge", "udiv_chain"] {
        let seq = optiwise(&["run", workload, "--size", "test", "--jobs", "1"]);
        assert!(seq.status.success(), "{seq:?}");
        let par = optiwise(&["run", workload, "--size", "test", "--jobs", "8"]);
        assert!(par.status.success(), "{par:?}");
        assert_eq!(
            seq.stdout, par.stdout,
            "`{workload}` report differs between --jobs 1 and --jobs 8"
        );
    }
}

#[test]
fn batch_run_merges_reports_in_argument_order() {
    let args = [
        "run",
        "loop_merge",
        "rand_walk",
        "udiv_chain",
        "--size",
        "test",
    ];
    let seq = optiwise(&[&args[..], &["--jobs", "1"]].concat());
    assert!(seq.status.success(), "{seq:?}");
    let par = optiwise(&[&args[..], &["--jobs", "8"]].concat());
    assert!(par.status.success(), "{par:?}");
    // Deterministic merge: batch output is identical for every thread count.
    assert_eq!(seq.stdout, par.stdout);

    // Shards appear in command-line order, not completion order.
    let stdout = String::from_utf8_lossy(&par.stdout);
    let pos = |name: &str| {
        stdout
            .find(&format!("== workload: {name} =="))
            .unwrap_or_else(|| panic!("missing {name} header in: {stdout}"))
    };
    assert!(pos("loop_merge") < pos("rand_walk"));
    assert!(pos("rand_walk") < pos("udiv_chain"));
}

#[test]
fn batch_run_reports_first_failing_workload() {
    // One bad name among good ones: the good reports still print, the exit
    // code reflects the first (command-line order) failure.
    let out = optiwise(&["run", "loop_merge", "not_a_workload", "--size", "test"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== workload: loop_merge =="), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not_a_workload"), "{stderr}");
}

#[test]
fn batch_mode_is_run_only() {
    let out = optiwise(&["sample", "loop_merge", "rand_walk", "--size", "test"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("one workload"), "{stderr}");

    // The split passes write a binary image, never to stdout.
    for cmd in ["sample", "instrument"] {
        let out = optiwise(&[cmd, "loop_merge", "--size", "test"]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--out"), "{stderr}");
    }
}

#[test]
fn flags_a_command_never_reads_are_rejected() {
    let dir = scratch("foreign-flags");
    let (root, ck) = (&dir.path("archive"), &dir.path("ck.owp"));
    for (args, flag, cmd) in [
        (vec!["resume", ck, "--size", "ref"], "--size", "`resume`"),
        (
            vec!["resume", ck, "--arch", "neoverse"],
            "--arch",
            "`resume`",
        ),
        (
            vec![
                "sweep",
                "loop_merge",
                "--size",
                "test",
                "--archive",
                root,
                "--save",
                ck,
            ],
            "--save",
            "`sweep`",
        ),
        (
            vec![
                "sweep",
                "loop_merge",
                "--archive",
                root,
                "--arch",
                "neoverse",
            ],
            "--arch",
            "`sweep`",
        ),
        (vec!["selfcheck", "--seed", "3"], "--seed", "`selfcheck`"),
        (vec!["diff", ck, ck, "--period", "5"], "--period", "`diff`"),
        (vec!["fsck", root, "--jobs", "2"], "--jobs", "`fsck`"),
        (vec!["sample", "x", "--jobs", "2"], "--jobs", "`sample`"),
        (
            vec!["sample", "x", "--hot-threshold", "0.5"],
            "--hot-threshold",
            "`sample`",
        ),
        (
            vec!["sample", "x", "--exhaustive-counters"],
            "--exhaustive-counters",
            "`sample`",
        ),
        (
            vec!["instrument", "x", "--jobs", "2"],
            "--jobs",
            "`instrument`",
        ),
        (
            vec!["instrument", "x", "--hot-threshold", "0.5"],
            "--hot-threshold",
            "`instrument`",
        ),
        (
            vec!["instrument", "x", "--exhaustive-counters"],
            "--exhaustive-counters",
            "`instrument`",
        ),
        (
            vec!["analyze", "x", "--period", "5"],
            "--period",
            "`analyze`",
        ),
        (
            vec!["analyze", "x", "--attribution", "precise"],
            "--attribution",
            "`analyze`",
        ),
        (vec!["analyze", "x", "--seed", "3"], "--seed", "`analyze`"),
        (
            vec!["analyze", "x", "--inject", "corrupt"],
            "--inject",
            "`analyze`",
        ),
        (
            vec!["analyze", "x", "--hot-threshold", "0.5"],
            "--hot-threshold",
            "`analyze`",
        ),
        (
            vec!["analyze", "x", "--arch", "neoverse"],
            "--arch",
            "`analyze`",
        ),
        (
            vec!["analyze", "x", "--set", "rob_size=64"],
            "--set",
            "`analyze`",
        ),
        (
            vec!["analyze", "x", "--no-stack-profiling"],
            "--no-stack-profiling",
            "`analyze`",
        ),
    ] {
        let out = optiwise(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(cmd),
            "{args:?}: {stderr}"
        );
    }
    assert!(
        !Path::new(root).exists(),
        "a rejected command must not touch the archive"
    );
}

#[test]
fn batch_deadline_keeps_finished_shards_and_skips_queued_ones() {
    // One worker, three shards: loop_merge finishes well inside the
    // deadline, long_haul (ref) is cut mid-run, and rand_walk is still
    // queued when the deadline fires, so it never starts.
    let out = optiwise(&[
        "run",
        "loop_merge",
        "long_haul",
        "rand_walk",
        "--size",
        "ref",
        "--jobs",
        "1",
        "--deadline",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(8), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("== workload: loop_merge =="), "{stdout}");
    assert!(stdout.contains("-- functions --"), "{stdout}");
    assert!(!stdout.contains("long_haul"), "{stdout}");
    assert!(stderr.contains("workload `long_haul` failed"), "{stderr}");
    assert!(stderr.contains("deadline"), "{stderr}");
    assert!(!stdout.contains("rand_walk"), "queued shard ran: {stdout}");
    assert!(!stderr.contains("rand_walk"), "queued shard ran: {stderr}");
}

#[test]
fn sweep_deadline_commits_finished_cells_and_resumes() {
    // One worker, four cells in grid order: both loop_merge cells finish,
    // long_haul-xeon (ref) is cut mid-run, and long_haul-neoverse is still
    // queued when the deadline fires, so it never starts.
    let dir = scratch("sweep-deadline");
    let grid = [
        "sweep",
        "loop_merge",
        "long_haul",
        "--size",
        "ref",
        "--jobs",
        "1",
        "--archive",
        &dir.path("archive"),
    ];
    let out = optiwise(&[&grid[..], &["--deadline", "5"]].concat());
    assert_eq!(out.status.code(), Some(8), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sweep cell `long_haul-s0-xeon` failed"),
        "{stderr}"
    );
    assert!(
        !stderr.contains("long_haul-s0-neoverse"),
        "queued cell ran: {stderr}"
    );
    assert!(!stderr.contains("loop_merge"), "{stderr}");
    let committed = |n: u64| std::fs::read(dir.path(&format!("archive/runs/run-{n:06}.owp")));
    let first = committed(1).expect("finished cells commit despite the deadline");
    let second = committed(2).expect("finished cells commit despite the deadline");
    assert!(committed(3).is_err(), "a cancelled cell must not commit");
    let checkpoint = |cell: &str| dir.path(&format!("archive/checkpoints/sweep-{cell}.owp"));
    assert!(Path::new(&checkpoint("long_haul-s0-xeon")).is_file());
    assert!(!Path::new(&checkpoint("long_haul-s0-neoverse")).exists());

    // Re-running the grid resumes it: with a budget no fresh cell
    // survives, only the long_haul cells are profiled (and die); the
    // committed loop_merge cells are loaded, not re-run.
    let out = optiwise(&[&grid[..], &["--inject", "kill-after=1"]].concat());
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("long_haul"), "{stderr}");
    assert!(
        !stderr.contains("loop_merge"),
        "committed cells re-ran: {stderr}"
    );
    assert_eq!(committed(1).unwrap(), first);
    assert_eq!(committed(2).unwrap(), second);
}

#[test]
fn save_show_report_roundtrip() {
    let dir = scratch("store");
    let owp = dir.path("loop_merge.owp");
    let out = optiwise(&["run", "loop_merge", "--size", "test", "--save", &owp]);
    assert!(out.status.success(), "{out:?}");
    assert!(Path::new(&owp).exists());

    let out = optiwise(&["show", &owp]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stored profile: loop_merge"), "{stdout}");
    assert!(stdout.contains("-- loops --"), "{stdout}");

    let out = optiwise(&["report", &owp, "--format", "json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"functions\":"), "{stdout}");
    assert!(stdout.contains("\"total_insns\":"), "{stdout}");
}

#[test]
fn saved_profile_is_byte_identical_across_thread_counts() {
    // Exhaustive and selective runs: the report and the saved `.owp` bytes
    // do not depend on the worker count, and the saved file reads back.
    let dir = scratch("store-jobs");
    for (mode, flags) in [("exhaustive", &[][..]), ("selective", &["--selective"][..])] {
        let run = |jobs: &str| {
            let save = dir.path(&format!("{mode}-jobs{jobs}.owp"));
            let mut args = vec!["run", "rand_walk", "--size", "test", "--jobs", jobs];
            args.extend(flags);
            args.extend(["--save", &save]);
            let out = optiwise(&args);
            assert!(out.status.success(), "{mode} --jobs {jobs}: {out:?}");
            (out.stdout, std::fs::read(&save).unwrap(), save)
        };
        let (seq, seq_owp, saved) = run("1");
        let (par, par_owp, _) = run("8");
        assert_eq!(
            seq, par,
            "{mode}: report differs between --jobs 1 and --jobs 8"
        );
        assert!(
            seq_owp == par_owp,
            "{mode}: saved .owp differs between --jobs 1 and --jobs 8"
        );
        let out = optiwise(&["show", &saved]);
        assert!(out.status.success(), "{mode}: {out:?}");
    }
}

#[test]
fn diff_workflow_flags_known_regression() {
    // Two builds of the same reciprocal workload: `recip_loop_opt` replaces
    // the loop's udiv with a multiply-shift. Diffing optimized -> unoptimized
    // must flag the known-hotter loop body as a regression and exit 7 under
    // --fail-on-regression.
    let dir = scratch("diff");
    let (old, new) = (dir.path("opt.owp"), dir.path("unopt.owp"));
    for (name, path) in [("recip_loop_opt", &old), ("recip_loop", &new)] {
        let out = optiwise(&["run", name, "--size", "test", "--save", path]);
        assert!(out.status.success(), "{out:?}");
    }

    let out = optiwise(&["diff", &old, &new, "--fail-on-regression"]);
    assert_eq!(out.status.code(), Some(7), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("recip.c"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regression"), "{stderr}");

    // The same comparison without --fail-on-regression still reports but
    // exits cleanly, and a self-diff finds nothing to fail on.
    let out = optiwise(&["diff", &old, &new]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = optiwise(&["diff", &old, &old, "--fail-on-regression"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("regressions: 0"), "{stdout}");
}

#[test]
fn corrupted_store_file_is_diagnosed_with_offset() {
    let dir = scratch("store-corrupt");
    let owp = dir.path("victim.owp");
    let out = optiwise(&["run", "loop_merge", "--size", "test", "--save", &owp]);
    assert!(out.status.success(), "{out:?}");

    // Flip one bit in the middle of the file: exit 6, offset diagnosed.
    let mut bytes = std::fs::read(&owp).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&owp, &bytes).unwrap();
    let out = optiwise(&["show", &owp]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("byte"), "{stderr}");

    // Truncation is equally fatal, and not a panic.
    bytes[mid] ^= 0x08;
    std::fs::write(&owp, &bytes[..bytes.len() - 7]).unwrap();
    let out = optiwise(&["diff", &owp, &owp]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
}

#[test]
fn store_commands_validate_their_arguments() {
    let out = optiwise(&["diff", "only-one.owp"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("two"), "{stderr}");

    let out = optiwise(&["show", "/nonexistent/profile.owp"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // --save is single-run only, like the CSV exports.
    let out = optiwise(&[
        "run",
        "loop_merge",
        "rand_walk",
        "--size",
        "test",
        "--save",
        "/tmp/batch.owp",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("batch"), "{stderr}");
}

#[test]
fn usage_on_no_args() {
    let out = optiwise(&[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn kill_checkpoint_resume_is_byte_identical() {
    let dir = scratch("ckpt-e2e");
    // long_haul with default flags on one worker and on eight, then
    // mcf_like under each setting the checkpoint records beyond the sampler
    // and analysis options. `--jobs` is not recorded: the resume passes it.
    let legs: [(&str, &str, &[&str]); 6] = [
        ("long_haul", "1", &[]),
        ("long_haul", "8", &[]),
        ("mcf_like", "8", &[]),
        ("mcf_like", "8", &["--selective"]),
        ("mcf_like", "8", &["--selective", "--hot-threshold", "0.2"]),
        ("mcf_like", "8", &["--exhaustive-counters"]),
    ];
    for (leg, (workload, jobs, flags)) in legs.iter().enumerate() {
        let golden = dir.path(&format!("golden-{leg}.owp"));
        let ck = dir.path(&format!("ck-{leg}.owp"));
        let resumed = dir.path(&format!("resumed-{leg}.owp"));
        let run = |extra: &[&str]| {
            let mut args = vec![
                "run", workload, "--size", "test", "--seed", "5", "--jobs", jobs,
            ];
            args.extend_from_slice(flags);
            args.extend_from_slice(extra);
            optiwise(&args)
        };

        let uninterrupted = run(&["--save", &golden]);
        assert!(
            uninterrupted.status.success(),
            "{flags:?}: {uninterrupted:?}"
        );

        // The same run, killed mid-flight while checkpointing, exits 9 and
        // leaves a decodable checkpoint behind.
        let out = run(&[
            "--checkpoint",
            &ck,
            "--checkpoint-every",
            "2000",
            "--inject",
            "kill-after=8000",
        ]);
        assert_eq!(out.status.code(), Some(9), "{workload} {flags:?}: {out:?}");

        // Resuming the checkpoint completes the run with the same bytes
        // and the same report.
        let out = optiwise(&["resume", &ck, "--jobs", jobs, "--save", &resumed]);
        assert!(out.status.success(), "{workload} {flags:?}: {out:?}");
        assert!(
            std::fs::read(&golden).unwrap() == std::fs::read(&resumed).unwrap(),
            "{workload} --jobs {jobs} {flags:?}: resumed profile must be byte-identical to the \
             uninterrupted run"
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&uninterrupted.stdout),
            "{workload} {flags:?}: resumed report differs"
        );
    }
    assert!(
        std::fs::read(dir.path("golden-0.owp")).unwrap()
            == std::fs::read(dir.path("golden-1.owp")).unwrap(),
        "long_haul profile differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn deadline_exits_with_code_8() {
    let out = optiwise(&["run", "long_haul", "--size", "ref", "--deadline", "0.3"]);
    assert_eq!(out.status.code(), Some(8), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "{stderr}");
}

#[test]
fn checkpoint_flags_are_validated() {
    // Cadence without a file has nowhere to write.
    let out = optiwise(&[
        "run",
        "long_haul",
        "--size",
        "test",
        "--checkpoint-every",
        "2000",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint"), "{stderr}");

    // Checkpoints are single-run only, like --save.
    let dir = scratch("ckpt-reject");
    let out = optiwise(&[
        "run",
        "loop_merge",
        "rand_walk",
        "--size",
        "test",
        "--checkpoint",
        &dir.path("batch.owp"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // A stored profile is not a checkpoint: resume rejects it cleanly.
    let profile = dir.path("profile.owp");
    let out = optiwise(&["run", "loop_merge", "--size", "test", "--save", &profile]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&["resume", &profile]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
}

#[test]
fn optimize_verifies_and_is_deterministic_across_thread_counts() {
    let dir = scratch("optimize-jobs");
    let optimize = |jobs: &str| {
        let save = dir.path(&format!("jobs{jobs}.owp"));
        let out = optiwise(&[
            "optimize",
            "recip_loop",
            "--size",
            "test",
            "--verify",
            "--jobs",
            jobs,
            "--save",
            &save,
        ]);
        assert_eq!(out.status.code(), Some(0), "--jobs {jobs}: {out:?}");
        (out.stdout, std::fs::read(&save).unwrap())
    };
    let (seq, seq_owp) = optimize("1");
    let stdout = String::from_utf8_lossy(&seq);
    assert!(stdout.contains("== transforms =="), "{stdout}");
    assert!(
        stdout.contains("oracle: 20 seeds, behaviour preserved"),
        "{stdout}"
    );
    assert!(
        stdout.contains("== re-profile: baseline -> optimized =="),
        "{stdout}"
    );

    let (par, par_owp) = optimize("8");
    assert_eq!(
        seq, par,
        "optimize report differs between --jobs 1 and --jobs 8"
    );
    assert!(
        seq_owp == par_owp,
        "optimized .owp differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn optimize_takes_a_sweep_cells_profile() {
    // A sweep cell's profile is labelled with the cell, not the program;
    // its JOB names the program and size, so no --size is needed.
    let dir = scratch("optimize-sweep-cell");
    let out = optiwise(&[
        "sweep",
        "loop_merge",
        "--size",
        "test",
        "--archive",
        &dir.path("A"),
        "--out",
        "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    let cell = optiwise(&["optimize", &dir.path("A/runs/run-000001.owp")]);
    assert_eq!(cell.status.code(), Some(0), "{cell:?}");
    let fresh = optiwise(&["optimize", "loop_merge", "--size", "test"]);
    assert_eq!(fresh.status.code(), Some(0), "{fresh:?}");
    let body = |out: &[u8]| {
        let text = String::from_utf8_lossy(out).into_owned();
        let (header, rest) = text.split_once('\n').unwrap();
        assert!(header.starts_with("== optimize: loop_merge"), "{header}");
        rest.to_string()
    };
    assert_eq!(body(&cell.stdout), body(&fresh.stdout));
}

#[test]
fn optimize_reprofiles_on_the_baselines_machine() {
    // The re-profile runs the baseline's job: its core, not the command's
    // default xeon, so the diff shows the rewrite, not a change of machine.
    let dir = scratch("optimize-machine");
    let (baseline, optimized) = (dir.path("n.owp"), dir.path("o.owp"));
    let machine = [
        "--size",
        "test",
        "--arch",
        "neoverse",
        "--set",
        "rob_size=64",
    ];
    let mut args = vec![
        "run",
        "udiv_chain",
        "--save",
        &baseline,
        "--out",
        "/dev/null",
    ];
    args.extend(machine);
    assert!(optiwise(&args).status.success());

    let stored = optiwise(&[
        "optimize", &baseline, "--verify", "--jobs", "1", "--save", &optimized,
    ]);
    assert_eq!(stored.status.code(), Some(0), "{stored:?}");
    let mut args = vec!["optimize", "udiv_chain", "--verify"];
    args.extend(machine);
    let fresh = optiwise(&args);
    assert_eq!(fresh.status.code(), Some(0), "{fresh:?}");
    assert_eq!(
        String::from_utf8_lossy(&stored.stdout),
        String::from_utf8_lossy(&fresh.stdout)
    );
    let show = optiwise(&["show", &optimized]);
    assert!(
        String::from_utf8_lossy(&show.stdout).contains("arch neoverse"),
        "{show:?}"
    );

    // The job fixes the core, size, seed and passes: a flag that would
    // change it is refused and named. `--jobs` still applies, and changes
    // no saved byte.
    for flags in [
        &["--arch", "xeon"][..],
        &["--set", "rob_size=32"],
        &["--size", "ref"],
        &["--seed", "9"],
        &["--selective"],
        &["--period", "5"],
        &["--strict"],
        &["--hot-threshold", "0.5"],
    ] {
        let out = optiwise(&[&["optimize", &baseline][..], flags].concat());
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{}`", flags[0])),
            "{flags:?}: {stderr}"
        );
    }
    let par = dir.path("o8.owp");
    let out = optiwise(&["optimize", &baseline, "--jobs", "8", "--save", &par]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        std::fs::read(&optimized).unwrap() == std::fs::read(&par).unwrap(),
        "optimized .owp differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn optimizing_an_optimized_profile_is_refused() {
    // An optimized run's JOB names the rewritten build, which the original
    // program's build is not: its counts would describe other code.
    let dir = scratch("optimize-twice");
    let (baseline, optimized) = (dir.path("m.owp"), dir.path("mo.owp"));
    let out = optiwise(&["run", "mcf_like", "--size", "test", "--save", &baseline]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&["optimize", &baseline, "--save", &optimized]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = optiwise(&["optimize", &optimized]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different build"),
        "{out:?}"
    );
}

#[test]
fn optimize_rebuilds_a_profile_without_a_job_from_its_label() {
    // An image written before profiles carried their job optimizes as its
    // label's workload under the command's flags.
    let dir = scratch("optimize-legacy");
    let (baseline, legacy) = (dir.path("m.owp"), dir.path("legacy.owp"));
    let out = optiwise(&["run", "loop_merge", "--size", "test", "--save", &baseline]);
    assert!(out.status.success(), "{out:?}");
    let mut profile = wiser_store::StoredProfile::load(Path::new(&baseline)).unwrap();
    assert!(profile.job.is_some());
    profile.job = None;
    profile.save(Path::new(&legacy)).unwrap();

    let stored = optiwise(&["optimize", &legacy, "--size", "test"]);
    assert_eq!(stored.status.code(), Some(0), "{stored:?}");
    let fresh = optiwise(&["optimize", "loop_merge", "--size", "test"]);
    assert_eq!(
        String::from_utf8_lossy(&stored.stdout),
        String::from_utf8_lossy(&fresh.stdout)
    );
}

#[test]
fn optimize_accepts_a_stored_profile_and_saves_provenance() {
    let dir = scratch("optimize-store");
    let (baseline, optimized) = (dir.path("mcf.owp"), dir.path("mcf-opt.owp"));
    let out = optiwise(&["run", "mcf_like", "--size", "test", "--save", &baseline]);
    assert!(out.status.success(), "{out:?}");

    let out = optiwise(&["optimize", &baseline, "--save", &optimized]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("layout"), "{stdout}");

    // The optimized-run profile carries an XFRM section; `show` surfaces it.
    let out = optiwise(&["show", &optimized]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("transforms"), "{stdout}");
    assert!(stdout.contains("layout"), "{stdout}");
}

#[test]
fn yaml_report_matches_golden_file() {
    let dir = scratch("yaml");
    let owp = dir.path("loop_merge.owp");
    let out = optiwise(&["run", "loop_merge", "--size", "test", "--save", &owp]);
    assert!(out.status.success(), "{out:?}");

    let out = optiwise(&["report", &owp, "--format", "yaml"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/loop_merge_report.yaml");
    assert_eq!(
        stdout, golden,
        "yaml report drifted from tests/golden/loop_merge_report.yaml; \
         regenerate it if the change is intentional"
    );
}

#[test]
fn query_last_clamps_to_archive_size() {
    let dir = scratch("query-clamp");
    let archive = dir.path("archive");
    for _ in 0..2 {
        let out = optiwise(&["run", "loop_merge", "--size", "test", "--archive", &archive]);
        assert!(out.status.success(), "{out:?}");
    }

    // Asking for far more runs than the archive holds must not panic or
    // error: the window clamps to everything committed.
    let out = optiwise(&["query", &archive, "--last", "100"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.matches("loop_merge").count() >= 2, "{stdout}");
}

#[test]
fn coverage_flip_diffs_as_coverage_change_not_regression() {
    // An exhaustive run counts every function; a selective run with an
    // aggressive hotness cutoff leaves cold functions sampling-only. The
    // diff must report those rows as coverage changes, not regressions,
    // and must not apply the zero-noise exact-count fallback to them.
    let dir = scratch("coverage-flip");
    let (full, selective) = (dir.path("full.owp"), dir.path("selective.owp"));
    let out = optiwise(&["run", "stack_attr", "--size", "test", "--save", &full]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "run",
        "stack_attr",
        "--size",
        "test",
        "--selective",
        "--hot-threshold",
        "0.9",
        "--save",
        &selective,
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = optiwise(&["diff", &full, &selective, "--fail-on-regression"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("coverage"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn fuzz_sweep_is_clean_and_jobs_invariant() {
    let first = optiwise(&["fuzz", "--seed-range", "0..64", "--jobs", "1"]);
    assert!(first.status.success(), "{first:?}");
    let second = optiwise(&["fuzz", "--seed-range", "0..64", "--jobs", "8"]);
    assert!(second.status.success(), "{second:?}");
    assert_eq!(
        first.stdout, second.stdout,
        "fuzz report must be byte-identical for every --jobs value"
    );
    let report = String::from_utf8_lossy(&first.stdout);
    for surface in ["profile", "checkpoint", "manifest", "jsonl"] {
        assert!(
            report.contains(surface),
            "missing surface in report: {report}"
        );
    }
    assert!(report.contains("0 violation(s)"), "{report}");
}

#[test]
fn fuzz_restricts_surfaces_and_validates_names() {
    let out = optiwise(&["fuzz", "--seed-range", "0..4", "--surface", "jsonl"]);
    assert!(out.status.success(), "{out:?}");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("jsonl"), "{report}");
    assert!(!report.contains("manifest"), "{report}");

    let out = optiwise(&["fuzz", "--surface", "bogus"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown fuzz surface"), "{err}");
}

#[test]
fn reintroduced_decode_bomb_is_caught_with_exit_13() {
    // WISER_STORE_UNSAFE_PREALLOC=1 bypasses the decode allocation clamps
    // — deliberately re-introducing the decode-bomb bug class. The fuzz
    // harness must catch it: planted wire-plausible bombs now allocate
    // past the engine's budget, and the sweep exits 13 with reproducers.
    let out = Command::new(env!("CARGO_BIN_EXE_optiwise"))
        .args(["fuzz", "--seed-range", "0..64", "--surface", "profile"])
        .env("WISER_STORE_UNSAFE_PREALLOC", "1")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(13), "{out:?}");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("VIOLATION"), "{report}");
    assert!(report.contains("alloc-budget"), "{report}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invariant violation"), "{err}");
    assert!(err.contains("profile:"), "reproducer seeds missing: {err}");

    // The same seeds with the clamps active: every bomb is a clean typed
    // rejection, and the sweep passes.
    let out = optiwise(&["fuzz", "--seed-range", "0..64", "--surface", "profile"]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn mixed_arch_diff_classifies_config_change_not_regression() {
    // The paper's central comparison — the same workload under two
    // machines (figs. 8/9) — must never read as a code regression. A
    // cross-arch diff attributes significant deltas to the config and
    // keeps the `--fail-on-regression` gate closed; `--strict-config`
    // restores the old, gating behaviour for single-machine CI.
    let dir = scratch("mixed-arch");
    let (xeon, neoverse) = (dir.path("xeon.owp"), dir.path("neoverse.owp"));
    for (arch, path) in [("xeon", &xeon), ("neoverse", &neoverse)] {
        let out = optiwise(&[
            "run",
            "udiv_chain",
            "--size",
            "test",
            "--seed",
            "3",
            "--arch",
            arch,
            "--save",
            path,
            "--out",
            "/dev/null",
        ]);
        assert!(out.status.success(), "{out:?}");
    }

    for (old, new) in [(&xeon, &neoverse), (&neoverse, &xeon)] {
        let out = optiwise(&["diff", old, new, "--fail-on-regression"]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("uarch configs differ"), "{stdout}");
        assert!(stdout.contains("regressions: 0"), "{stdout}");
        assert!(!stdout.contains("REGRESSION"), "{stdout}");

        // Same pair, strict mode: the delta gates again, exit 7.
        let out = optiwise(&["diff", old, new, "--fail-on-regression", "--strict-config"]);
        assert_eq!(out.status.code(), Some(7), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("uarch configs differ"), "{stdout}");
    }
}

#[test]
fn resumed_profile_round_trips_its_arch() {
    // A run profiled under `--arch neoverse`, killed, and resumed must
    // store exactly the bytes of the uninterrupted neoverse run — in
    // particular META.arch and the UCFG section. (The resume path once
    // re-stamped a hardcoded model name, poisoning cross-config diffs.)
    let dir = scratch("resume-arch");
    let golden = dir.path("golden.owp");
    let out = optiwise(&[
        "run",
        "long_haul",
        "--size",
        "test",
        "--seed",
        "5",
        "--arch",
        "neoverse",
        "--save",
        &golden,
        "--out",
        "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");

    let ck = dir.path("ck.owp");
    let out = optiwise(&[
        "run",
        "long_haul",
        "--size",
        "test",
        "--seed",
        "5",
        "--arch",
        "neoverse",
        "--checkpoint",
        &ck,
        "--checkpoint-every",
        "2000",
        "--inject",
        "kill-after=8000",
        "--out",
        "/dev/null",
    ]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");

    let resumed = dir.path("resumed.owp");
    let out = optiwise(&["resume", &ck, "--save", &resumed, "--out", "/dev/null"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read(&golden).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed neoverse profile differs from the uninterrupted one"
    );

    // Cross-check the stamp end-to-end: against a xeon profile of the
    // same workload the resumed file diffs as a config change.
    let xeon = dir.path("xeon.owp");
    let out = optiwise(&[
        "run",
        "long_haul",
        "--size",
        "test",
        "--seed",
        "5",
        "--save",
        &xeon,
        "--out",
        "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&["diff", &xeon, &resumed, "--fail-on-regression"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("uarch configs differ"), "{stdout}");
}

#[test]
fn sweep_report_and_fleet_are_byte_identical_across_jobs() {
    // The sweep inherits the tool-wide determinism contract: the reduced
    // comparison tables AND the committed `.owp` fleet (run ids included)
    // must not depend on worker count, and each archive passes `fsck`.
    let dir = scratch("sweep-jobs");
    let mut reports = Vec::new();
    for jobs in ["1", "8"] {
        let archive = dir.path(&format!("archive-{jobs}"));
        let out = optiwise(&[
            "sweep",
            "loop_merge",
            "generated:7",
            "--size",
            "test",
            "--config",
            "xeon",
            "--config",
            "neoverse:rob_size=64",
            "--archive",
            &archive,
            "--jobs",
            jobs,
        ]);
        assert!(out.status.success(), "{out:?}");
        reports.push(out.stdout);
        let out = optiwise(&["fsck", &archive]);
        assert_eq!(out.status.code(), Some(0), "--jobs {jobs} archive: {out:?}");
    }
    assert_eq!(reports[0], reports[1], "sweep report differs across --jobs");
    let text = String::from_utf8_lossy(&reports[0]);
    assert!(text.contains("== OptiWISE sweep: 4 cell(s) =="), "{text}");
    assert!(
        text.contains("loop_merge-s0-neoverse:rob_size=64"),
        "{text}"
    );
    assert!(
        text.contains("sweep diff: generated (seed 7): xeon -> neoverse:rob_size=64"),
        "{text}"
    );

    for id in 1..=4u64 {
        let name = format!("run-{id:06}.owp");
        let seq = std::fs::read(dir.path(&format!("archive-1/runs/{name}"))).unwrap();
        let par = std::fs::read(dir.path(&format!("archive-8/runs/{name}"))).unwrap();
        assert!(seq == par, "{name} differs between --jobs 1 and --jobs 8");
    }
}

#[test]
fn interrupted_sweep_resumes_without_rerunning_finished_cells() {
    // Kill a sweep after its short cells finished but before the long
    // ones do (loop_merge fits the injected crash budget, long_haul does
    // not). The finished cells commit; re-running the same sweep command
    // resumes: committed cells are loaded, not re-profiled, and the final
    // fleet + report are byte-identical to a never-interrupted sweep.
    let dir = scratch("sweep-kill");
    let grid = [
        "sweep",
        "loop_merge",
        "long_haul",
        "--size",
        "test",
        "--archive",
        &dir.path("A"),
    ];

    let mut killed = grid.to_vec();
    killed.extend(["--jobs", "2", "--inject", "kill-after=15000"]);
    let out = optiwise(&killed);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sweep cell `long_haul-s0-xeon` failed"),
        "{stderr}"
    );
    let committed = |n: u64| std::fs::read(dir.path(&format!("A/runs/run-{n:06}.owp")));
    let first = committed(1).expect("short cells commit despite the crash");
    let second = committed(2).expect("short cells commit despite the crash");
    assert!(committed(3).is_err(), "killed cells must not commit");
    // The killed cells leave their checkpoints behind for inspection.
    let checkpoint = dir.path("A/checkpoints/sweep-long_haul-s0-xeon.owp");
    assert!(Path::new(&checkpoint).is_file());

    // Re-run with a budget no fresh cell survives: only the missing cells
    // are profiled (and die) — the committed ones are never re-run, or
    // they too would crash and be named in stderr.
    let mut probe = grid.to_vec();
    probe.extend(["--jobs", "2", "--inject", "kill-after=1"]);
    let out = optiwise(&probe);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("long_haul"), "{stderr}");
    assert!(
        !stderr.contains("loop_merge"),
        "committed cells re-ran: {stderr}"
    );
    assert_eq!(
        committed(1).unwrap(),
        first,
        "resume must not rewrite committed runs"
    );

    // The clean re-run finishes the grid and reclaims the checkpoints.
    let mut finish = grid.to_vec();
    finish.extend(["--jobs", "2"]);
    let out = optiwise(&finish);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let resumed_report = out.stdout;
    assert_eq!(committed(1).unwrap(), first);
    assert_eq!(committed(2).unwrap(), second);
    assert!(
        committed(3).is_ok() && committed(4).is_ok(),
        "resume must finish the grid"
    );
    assert!(!Path::new(&checkpoint).exists());

    // A sweep that was never interrupted produces the same fleet and the
    // same report.
    let out = optiwise(&[
        "sweep",
        "loop_merge",
        "long_haul",
        "--size",
        "test",
        "--archive",
        &dir.path("fresh"),
        "--jobs",
        "2",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, resumed_report, "resumed sweep report diverged");
    for id in 1..=4u64 {
        let name = format!("run-{id:06}.owp");
        assert_eq!(
            std::fs::read(dir.path(&format!("A/runs/{name}"))).unwrap(),
            std::fs::read(dir.path(&format!("fresh/runs/{name}"))).unwrap(),
            "{name} diverged between resumed and uninterrupted sweeps"
        );
    }
}

#[test]
fn sweep_rejects_bad_grids_before_running() {
    // Grid validation is all-up-front: no cell runs, no archive mutation.
    let dir = scratch("sweep-usage");
    let root = &dir.path("archive");
    for (args, expect) in [
        (vec!["sweep", "loop_merge"], "needs --archive"),
        (vec!["sweep", "--archive", root], "at least one workload"),
        (
            vec!["sweep", "no_such", "--archive", root],
            "unknown workload",
        ),
        (
            vec!["sweep", "loop_merge:9", "--archive", root],
            "takes a :SEED suffix",
        ),
        (
            vec!["sweep", "loop_merge", "--archive", root, "--config", "vax"],
            "unknown arch",
        ),
        (
            vec![
                "sweep",
                "loop_merge",
                "--archive",
                root,
                "--config",
                "xeon:rob_size=0",
            ],
            "rob_size",
        ),
    ] {
        let out = optiwise(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
    }
    assert!(
        !Path::new(root).exists(),
        "a rejected sweep must not create the archive"
    );
}

#[test]
fn closed_stdout_ends_output_not_the_command() {
    // `optiwise list | head -1`: the reader closed its end of the pipe
    // (here before the command even starts). The broken pipe ends the
    // output; the command still exits 0 and does not panic.
    for cmd in ["list", "check"] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_optiwise"))
            .arg(cmd)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

#[test]
fn generated_is_a_program_name() {
    // `generated` builds the random program of `--seed` wherever a command
    // takes a workload, so one sweep cell of a generated program (or a
    // failing selfcheck seed) reruns on its own.
    let dir = scratch("generated");
    let out = optiwise(&[
        "run",
        "generated",
        "--seed",
        "3",
        "--size",
        "test",
        "--save",
        &dir.path("g.owp"),
        "--out",
        "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "sweep",
        "generated:3",
        "--size",
        "test",
        "--config",
        "xeon",
        "--archive",
        &dir.path("A"),
        "--out",
        "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    let json = |file: &str| {
        let out = optiwise(&["report", file, "--format", "json"]);
        assert!(out.status.success(), "{out:?}");
        out.stdout
    };
    assert_eq!(
        json(&dir.path("g.owp")),
        json(&dir.path("A/runs/run-000001.owp"))
    );

    // `analyze` takes no --seed: it rebuilds seed 0, so files recorded at
    // seed 3 are another build.
    for (cmd, file) in [("sample", "s.owp"), ("instrument", "c.owp")] {
        let out = optiwise(&[
            cmd,
            "generated",
            "--seed",
            "3",
            "--size",
            "test",
            "--out",
            &dir.path(file),
        ]);
        assert!(out.status.success(), "{out:?}");
    }
    let out = optiwise(&[
        "analyze",
        "generated",
        "--size",
        "test",
        "--samples",
        &dir.path("s.owp"),
        "--counts",
        &dir.path("c.owp"),
    ]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different build"),
        "{out:?}"
    );
}

#[test]
fn killed_sweep_cell_resumes_into_the_sweep() {
    // A cell killed mid-run leaves a checkpoint whose spec names the cell's
    // program (a generated one by its seed) and label. `resume --archive`
    // commits it under that label, so re-running the sweep loads it instead
    // of profiling the cell again: one run, byte-identical to the
    // uninterrupted sweep's, and the same report.
    for workload in ["generated:3", "mcf_like"] {
        let dir = scratch("sweep-resume");
        let (a, b) = (&dir.path("A"), &dir.path("B"));
        let sweep = |archive: &str, extra: &[&str]| {
            let mut args = vec![
                "sweep",
                workload,
                "--size",
                "test",
                "--config",
                "xeon",
                "--jobs",
                "1",
                "--checkpoint-every",
                "2000",
                "--archive",
                archive,
            ];
            args.extend(extra);
            optiwise(&args)
        };
        let out = sweep(a, &["--inject", "kill-after=8000"]);
        assert_eq!(out.status.code(), Some(9), "{workload}: {out:?}");
        let out = optiwise(&["resume", a, "--archive", a, "--out", "/dev/null"]);
        assert!(out.status.success(), "{workload}: {out:?}");
        let resumed = sweep(a, &[]);
        assert!(resumed.status.success(), "{workload}: {resumed:?}");
        let fresh = sweep(b, &[]);
        assert!(fresh.status.success(), "{workload}: {fresh:?}");

        assert_eq!(
            resumed.stdout, fresh.stdout,
            "{workload}: sweep report diverged"
        );
        let run = |archive: &str, id: u64| std::fs::read(format!("{archive}/runs/run-{id:06}.owp"));
        assert_eq!(
            run(a, 1).unwrap(),
            run(b, 1).unwrap(),
            "{workload}: run differs"
        );
        assert!(
            run(a, 2).is_err(),
            "{workload}: the sweep profiled the resumed cell again"
        );
    }
}
