//! End-to-end tests of the `optiwise` binary, driving the same workflows
//! the paper's artifact documents.

use std::process::Command;

fn optiwise(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_optiwise"))
        .args(args)
        .output()
        .expect("binary runs")
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
    let dir = std::env::temp_dir().join("optiwise-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let samples = dir.join("samples.owp");
    let counts = dir.join("counts.owp");

    let out = optiwise(&[
        "sample",
        "stack_attr",
        "--size",
        "test",
        "--out",
        samples.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "instrument",
        "stack_attr",
        "--size",
        "test",
        "--out",
        counts.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "analyze",
        "stack_attr",
        "--size",
        "test",
        "--samples",
        samples.to_str().unwrap(),
        "--counts",
        counts.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("func3"), "{stdout}");

    // Swapped files lack the section each flag needs: parse exit code.
    let out = optiwise(&[
        "analyze", "stack_attr", "--size", "test",
        "--samples", counts.to_str().unwrap(),
        "--counts", samples.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no SAMP section"), "{stderr}");

    // Files recorded against another program are refused, not analyzed
    // as if they described this one.
    let out = optiwise(&[
        "analyze", "mcf_like", "--size", "test",
        "--samples", samples.to_str().unwrap(),
        "--counts", counts.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mcf_like"), "{stderr}");
    assert!(stderr.contains("different build"), "{stderr}");

    // A truncated counts pass degrades `analyze` exactly as it degrades
    // `run`: same sampling-only report, same warning lines.
    let mcf_samples = dir.join("mcf-samples.owp");
    let mcf_counts = dir.join("mcf-counts-truncated.owp");
    let out = optiwise(&[
        "sample", "mcf_like", "--size", "test", "--out", mcf_samples.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "instrument", "mcf_like", "--size", "test", "--inject", "truncate-counts=5000",
        "--out", mcf_counts.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let analyzed = optiwise(&[
        "analyze", "mcf_like", "--size", "test",
        "--samples", mcf_samples.to_str().unwrap(),
        "--counts", mcf_counts.to_str().unwrap(),
    ]);
    assert!(analyzed.status.success(), "{analyzed:?}");
    let run = optiwise(&["run", "mcf_like", "--size", "test", "--inject", "truncate-counts=5000"]);
    assert!(run.status.success(), "{run:?}");
    assert_eq!(
        String::from_utf8_lossy(&analyzed.stdout),
        String::from_utf8_lossy(&run.stdout),
        "split analyze of a truncated counts pass must match `run`"
    );

    // The split files hold full passes: --selective is a usage error on
    // every split command.
    for args in [
        vec!["sample", "stack_attr", "--size", "test", "--selective", "--out", "/dev/null"],
        vec!["instrument", "stack_attr", "--size", "test", "--selective", "--out", "/dev/null"],
        vec![
            "analyze", "stack_attr", "--size", "test", "--selective",
            "--samples", samples.to_str().unwrap(),
            "--counts", counts.to_str().unwrap(),
        ],
    ] {
        let out = optiwise(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--selective"), "{args:?}: {stderr}");
    }

    // A mid-pass `run --checkpoint` snapshot is not a finished pass: it is
    // refused with the parse exit code and pointed at `resume`.
    let snapshot = dir.join("snapshot.owp");
    let out = optiwise(&[
        "run", "long_haul", "--size", "test",
        "--checkpoint", snapshot.to_str().unwrap(),
        "--checkpoint-every", "2000", "--inject", "kill-after=8000",
    ]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let out = optiwise(&[
        "instrument", "long_haul", "--size", "test", "--out", counts.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "analyze", "long_haul", "--size", "test",
        "--samples", snapshot.to_str().unwrap(),
        "--counts", counts.to_str().unwrap(),
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
    let dir = std::env::temp_dir().join("optiwise-csv-test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = optiwise(&[
        "run",
        "loop_merge",
        "--size",
        "test",
        "--csv-dir",
        dir.to_str().unwrap(),
        "--out",
        dir.join("report.txt").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    for name in ["functions.csv", "loops.csv", "blocks.csv", "report.txt"] {
        let path = dir.join(name);
        let contents = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
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
        "run", "loop_merge", "--size", "test",
        "--inject", "truncate-counts=2000",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEGRADED"), "{stdout}");
    assert!(stdout.contains("truncated"), "{stdout}");

    // Strict mode: same fault is a hard error with the truncation exit code.
    let out = optiwise(&[
        "run", "loop_merge", "--size", "test", "--strict",
        "--inject", "truncate-counts=2000",
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated"), "{stderr}");
}

#[test]
fn corrupted_profile_exits_with_parse_code() {
    let dir = std::env::temp_dir().join("optiwise-corrupt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let samples = dir.join("samples.owp");
    let counts = dir.join("counts.owp");
    let out = optiwise(&[
        "sample", "stack_attr", "--size", "test",
        "--out", samples.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    // Emit a deterministically corrupted counts profile...
    let out = optiwise(&[
        "instrument", "stack_attr", "--size", "test",
        "--inject", "corrupt",
        "--out", counts.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    // ...and analyzing it fails with the parse exit code and a byte offset.
    let out = optiwise(&[
        "analyze", "stack_attr", "--size", "test",
        "--samples", samples.to_str().unwrap(),
        "--counts", counts.to_str().unwrap(),
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
        "run", "rand_walk", "--size", "test", "--strict",
        "--inject", "desync-seed=99",
    ]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("divergence"), "{stderr}");

    // Without the fault the same strict run is clean.
    let out = optiwise(&["run", "rand_walk", "--size", "test", "--strict"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    // `--jobs 1` runs every stage sequentially; `--jobs 8` overlaps the
    // two profiling passes and shards the per-module analysis. The merge
    // is keyed on ModuleId order, so the report must not change by a byte.
    for workload in ["rand_walk", "loop_merge"] {
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
    let args = ["run", "loop_merge", "rand_walk", "udiv_chain", "--size", "test"];
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
            .find(&format!("== workload: {name} ==" ))
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
    let dir = std::env::temp_dir().join(format!("optiwise-foreign-flags-{}", std::process::id()));
    let root = dir.to_str().unwrap();
    let ck = dir.join("ck.owp");
    let ck = ck.to_str().unwrap();
    for (args, flag, cmd) in [
        (vec!["resume", ck, "--size", "ref"], "--size", "`resume`"),
        (vec!["resume", ck, "--arch", "neoverse"], "--arch", "`resume`"),
        (
            vec!["sweep", "loop_merge", "--size", "test", "--archive", root, "--save", ck],
            "--save",
            "`sweep`",
        ),
        (vec!["sweep", "loop_merge", "--archive", root, "--arch", "neoverse"], "--arch", "`sweep`"),
        (vec!["selfcheck", "--seed", "3"], "--seed", "`selfcheck`"),
        (vec!["diff", ck, ck, "--period", "5"], "--period", "`diff`"),
        (vec!["fsck", root, "--jobs", "2"], "--jobs", "`fsck`"),
    ] {
        let out = optiwise(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag) && stderr.contains(cmd), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "a rejected command must not touch the archive");
}

#[test]
fn batch_deadline_keeps_finished_shards_and_skips_queued_ones() {
    // One worker, three shards: loop_merge finishes well inside the
    // deadline, long_haul (ref) is cut mid-run, and rand_walk is still
    // queued when the deadline fires, so it never starts.
    let out = optiwise(&[
        "run", "loop_merge", "long_haul", "rand_walk", "--size", "ref",
        "--jobs", "1", "--deadline", "5",
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
    let base = std::env::temp_dir().join(format!("optiwise-sweep-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let archive = base.join("archive");
    let grid = [
        "sweep", "loop_merge", "long_haul", "--size", "ref", "--jobs", "1",
        "--archive", archive.to_str().unwrap(),
    ];
    let out = optiwise(&[&grid[..], &["--deadline", "5"]].concat());
    assert_eq!(out.status.code(), Some(8), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sweep cell `long_haul-s0-xeon` failed"), "{stderr}");
    assert!(!stderr.contains("long_haul-s0-neoverse"), "queued cell ran: {stderr}");
    assert!(!stderr.contains("loop_merge"), "{stderr}");
    let committed = |n: u64| std::fs::read(archive.join("runs").join(format!("run-{n:06}.owp")));
    let first = committed(1).expect("finished cells commit despite the deadline");
    let second = committed(2).expect("finished cells commit despite the deadline");
    assert!(committed(3).is_err(), "a cancelled cell must not commit");
    let checkpoints = archive.join("checkpoints");
    assert!(checkpoints.join("sweep-long_haul-s0-xeon.owp").is_file());
    assert!(!checkpoints.join("sweep-long_haul-s0-neoverse.owp").exists());

    // Re-running the grid resumes it: with a budget no fresh cell
    // survives, only the long_haul cells are profiled (and die); the
    // committed loop_merge cells are loaded, not re-run.
    let out = optiwise(&[&grid[..], &["--inject", "kill-after=1"]].concat());
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("long_haul"), "{stderr}");
    assert!(!stderr.contains("loop_merge"), "committed cells re-ran: {stderr}");
    assert_eq!(committed(1).unwrap(), first);
    assert_eq!(committed(2).unwrap(), second);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn save_show_report_roundtrip() {
    let dir = std::env::temp_dir().join("optiwise-store-test");
    std::fs::create_dir_all(&dir).unwrap();
    let owp = dir.join("loop_merge.owp");

    let out = optiwise(&[
        "run", "loop_merge", "--size", "test",
        "--save", owp.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(owp.exists());

    let out = optiwise(&["show", owp.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stored profile: loop_merge"), "{stdout}");
    assert!(stdout.contains("-- loops --"), "{stdout}");

    let out = optiwise(&["report", owp.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"functions\":"), "{stdout}");
    assert!(stdout.contains("\"total_insns\":"), "{stdout}");
}

#[test]
fn saved_profile_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join("optiwise-store-jobs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let seq = dir.join("jobs1.owp");
    let par = dir.join("jobs8.owp");
    let out = optiwise(&[
        "run", "rand_walk", "--size", "test", "--jobs", "1",
        "--save", seq.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "run", "rand_walk", "--size", "test", "--jobs", "8",
        "--save", par.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read(&seq).unwrap(),
        std::fs::read(&par).unwrap(),
        "saved .owp differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn diff_workflow_flags_known_regression() {
    // Two builds of the same reciprocal workload: `recip_loop_opt` replaces
    // the loop's udiv with a multiply-shift. Diffing optimized -> unoptimized
    // must flag the known-hotter loop body as a regression and exit 7 under
    // --fail-on-regression.
    let dir = std::env::temp_dir().join("optiwise-diff-test");
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("opt.owp");
    let new = dir.join("unopt.owp");
    for (name, path) in [("recip_loop_opt", &old), ("recip_loop", &new)] {
        let out = optiwise(&[
            "run", name, "--size", "test",
            "--save", path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{out:?}");
    }

    let out = optiwise(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--fail-on-regression",
    ]);
    assert_eq!(out.status.code(), Some(7), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("recip.c"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regression"), "{stderr}");

    // The same comparison without --fail-on-regression still reports but
    // exits cleanly, and a self-diff finds nothing to fail on.
    let out = optiwise(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = optiwise(&[
        "diff",
        old.to_str().unwrap(),
        old.to_str().unwrap(),
        "--fail-on-regression",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("regressions: 0"), "{stdout}");
}

#[test]
fn corrupted_store_file_is_diagnosed_with_offset() {
    let dir = std::env::temp_dir().join("optiwise-store-corrupt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let owp = dir.join("victim.owp");
    let out = optiwise(&[
        "run", "loop_merge", "--size", "test",
        "--save", owp.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    // Flip one bit in the middle of the file: exit 6, offset diagnosed.
    let mut bytes = std::fs::read(&owp).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&owp, &bytes).unwrap();
    let out = optiwise(&["show", owp.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("byte"), "{stderr}");

    // Truncation is equally fatal, and not a panic.
    bytes[mid] ^= 0x08;
    std::fs::write(&owp, &bytes[..bytes.len() - 7]).unwrap();
    let out = optiwise(&["diff", owp.to_str().unwrap(), owp.to_str().unwrap()]);
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
        "run", "loop_merge", "rand_walk", "--size", "test",
        "--save", "/tmp/batch.owp",
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
    let dir = std::env::temp_dir().join("optiwise-ckpt-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let golden = dir.join("golden.owp");
    let ck = dir.join("ck.owp");
    let resumed = dir.join("resumed.owp");

    let out = optiwise(&[
        "run", "long_haul", "--size", "test", "--seed", "5",
        "--save", golden.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    // The same run, killed mid-flight while checkpointing, exits 9 and
    // leaves a decodable checkpoint behind.
    let out = optiwise(&[
        "run", "long_haul", "--size", "test", "--seed", "5",
        "--checkpoint", ck.to_str().unwrap(),
        "--checkpoint-every", "2000",
        "--inject", "kill-after=8000",
    ]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");

    // Resuming the checkpoint completes the run with the same bytes.
    let out = optiwise(&[
        "resume", ck.to_str().unwrap(),
        "--save", resumed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read(&golden).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed profile must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
    let out = optiwise(&["run", "long_haul", "--size", "test", "--checkpoint-every", "2000"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--checkpoint"), "{stderr}");

    // Checkpoints are single-run only, like --save.
    let out = optiwise(&[
        "run", "loop_merge", "rand_walk", "--size", "test",
        "--checkpoint", "/tmp/batch-ck.owp",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // A stored profile is not a checkpoint: resume rejects it cleanly.
    let dir = std::env::temp_dir().join("optiwise-ckpt-reject");
    std::fs::create_dir_all(&dir).unwrap();
    let profile = dir.join("profile.owp");
    let out = optiwise(&[
        "run", "loop_merge", "--size", "test", "--save", profile.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&["resume", profile.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn optimize_verifies_and_is_deterministic_across_thread_counts() {
    let seq = optiwise(&[
        "optimize", "recip_loop", "--size", "test", "--verify", "--jobs", "1",
    ]);
    assert_eq!(seq.status.code(), Some(0), "{seq:?}");
    let stdout = String::from_utf8_lossy(&seq.stdout);
    assert!(stdout.contains("== transforms =="), "{stdout}");
    assert!(stdout.contains("oracle: 20 seeds, behaviour preserved"), "{stdout}");
    assert!(stdout.contains("== re-profile: baseline -> optimized =="), "{stdout}");

    let par = optiwise(&[
        "optimize", "recip_loop", "--size", "test", "--verify", "--jobs", "8",
    ]);
    assert_eq!(par.status.code(), Some(0), "{par:?}");
    assert_eq!(
        seq.stdout, par.stdout,
        "optimize report differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn optimize_accepts_a_stored_profile_and_saves_provenance() {
    let dir = std::env::temp_dir().join("optiwise-optimize-store-test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("mcf.owp");
    let optimized = dir.join("mcf-opt.owp");

    let out = optiwise(&[
        "run", "mcf_like", "--size", "test",
        "--save", baseline.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = optiwise(&[
        "optimize", baseline.to_str().unwrap(),
        "--save", optimized.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("layout"), "{stdout}");

    // The optimized-run profile carries an XFRM section; `show` surfaces it.
    let out = optiwise(&["show", optimized.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("transforms"), "{stdout}");
    assert!(stdout.contains("layout"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn yaml_report_matches_golden_file() {
    let dir = std::env::temp_dir().join("optiwise-yaml-test");
    std::fs::create_dir_all(&dir).unwrap();
    let owp = dir.join("loop_merge.owp");
    let out = optiwise(&[
        "run", "loop_merge", "--size", "test",
        "--save", owp.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = optiwise(&["report", owp.to_str().unwrap(), "--format", "yaml"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/loop_merge_report.yaml");
    assert_eq!(
        stdout, golden,
        "yaml report drifted from tests/golden/loop_merge_report.yaml; \
         regenerate it if the change is intentional"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_last_clamps_to_archive_size() {
    let dir = std::env::temp_dir().join("optiwise-query-clamp-test");
    let _ = std::fs::remove_dir_all(&dir);
    for _ in 0..2 {
        let out = optiwise(&[
            "run", "loop_merge", "--size", "test",
            "--archive", dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{out:?}");
    }

    // Asking for far more runs than the archive holds must not panic or
    // error: the window clamps to everything committed.
    let out = optiwise(&["query", dir.to_str().unwrap(), "--last", "100"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.matches("loop_merge").count() >= 2, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coverage_flip_diffs_as_coverage_change_not_regression() {
    // An exhaustive run counts every function; a selective run with an
    // aggressive hotness cutoff leaves cold functions sampling-only. The
    // diff must report those rows as coverage changes, not regressions,
    // and must not apply the zero-noise exact-count fallback to them.
    let dir = std::env::temp_dir().join("optiwise-coverage-flip-test");
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.owp");
    let selective = dir.join("selective.owp");
    let out = optiwise(&[
        "run", "stack_attr", "--size", "test",
        "--save", full.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "run", "stack_attr", "--size", "test",
        "--selective", "--hot-threshold", "0.9",
        "--save", selective.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = optiwise(&[
        "diff",
        full.to_str().unwrap(),
        selective.to_str().unwrap(),
        "--fail-on-regression",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("coverage"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
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
        assert!(report.contains(surface), "missing surface in report: {report}");
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
    let dir = std::env::temp_dir().join(format!("optiwise-mixed-arch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xeon = dir.join("xeon.owp");
    let neoverse = dir.join("neoverse.owp");
    for (arch, path) in [("xeon", &xeon), ("neoverse", &neoverse)] {
        let out = optiwise(&[
            "run", "udiv_chain", "--size", "test", "--seed", "3", "--arch", arch,
            "--save", path.to_str().unwrap(), "--out", "/dev/null",
        ]);
        assert!(out.status.success(), "{out:?}");
    }

    for (old, new) in [(&xeon, &neoverse), (&neoverse, &xeon)] {
        let out = optiwise(&[
            "diff", old.to_str().unwrap(), new.to_str().unwrap(), "--fail-on-regression",
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("uarch configs differ"), "{stdout}");
        assert!(stdout.contains("regressions: 0"), "{stdout}");
        assert!(!stdout.contains("REGRESSION"), "{stdout}");

        // Same pair, strict mode: the delta gates again, exit 7.
        let out = optiwise(&[
            "diff", old.to_str().unwrap(), new.to_str().unwrap(),
            "--fail-on-regression", "--strict-config",
        ]);
        assert_eq!(out.status.code(), Some(7), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("uarch configs differ"), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_profile_round_trips_its_arch() {
    // A run profiled under `--arch neoverse`, killed, and resumed must
    // store exactly the bytes of the uninterrupted neoverse run — in
    // particular META.arch and the UCFG section. (The resume path once
    // re-stamped a hardcoded model name, poisoning cross-config diffs.)
    let dir = std::env::temp_dir().join(format!("optiwise-resume-arch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let golden = dir.join("golden.owp");
    let out = optiwise(&[
        "run", "long_haul", "--size", "test", "--seed", "5", "--arch", "neoverse",
        "--save", golden.to_str().unwrap(), "--out", "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");

    let ck = dir.join("ck.owp");
    let out = optiwise(&[
        "run", "long_haul", "--size", "test", "--seed", "5", "--arch", "neoverse",
        "--checkpoint", ck.to_str().unwrap(), "--checkpoint-every", "2000",
        "--inject", "kill-after=8000", "--out", "/dev/null",
    ]);
    assert_eq!(out.status.code(), Some(9), "{out:?}");

    let resumed = dir.join("resumed.owp");
    let out = optiwise(&[
        "resume", ck.to_str().unwrap(),
        "--save", resumed.to_str().unwrap(), "--out", "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read(&golden).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed neoverse profile differs from the uninterrupted one"
    );

    // Cross-check the stamp end-to-end: against a xeon profile of the
    // same workload the resumed file diffs as a config change.
    let xeon = dir.join("xeon.owp");
    let out = optiwise(&[
        "run", "long_haul", "--size", "test", "--seed", "5",
        "--save", xeon.to_str().unwrap(), "--out", "/dev/null",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = optiwise(&[
        "diff", xeon.to_str().unwrap(), resumed.to_str().unwrap(), "--fail-on-regression",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("uarch configs differ"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_report_and_fleet_are_byte_identical_across_jobs() {
    // The sweep inherits the tool-wide determinism contract: the reduced
    // comparison tables AND the committed `.owp` fleet (run ids included)
    // must not depend on worker count.
    let base = std::env::temp_dir().join(format!("optiwise-sweep-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let mut reports = Vec::new();
    for jobs in ["1", "8"] {
        let archive = base.join(format!("archive-{jobs}"));
        let out = optiwise(&[
            "sweep", "loop_merge", "generated:7", "--size", "test",
            "--config", "xeon", "--config", "neoverse:rob_size=64",
            "--archive", archive.to_str().unwrap(), "--jobs", jobs,
        ]);
        assert!(out.status.success(), "{out:?}");
        reports.push(out.stdout);
    }
    assert_eq!(reports[0], reports[1], "sweep report differs across --jobs");
    let text = String::from_utf8_lossy(&reports[0]);
    assert!(text.contains("== OptiWISE sweep: 4 cell(s) =="), "{text}");
    assert!(text.contains("loop_merge-s0-neoverse:rob_size=64"), "{text}");
    assert!(
        text.contains("sweep diff: generated (seed 7): xeon -> neoverse:rob_size=64"),
        "{text}"
    );

    for id in 1..=4u64 {
        let name = format!("run-{id:06}.owp");
        let seq = std::fs::read(base.join("archive-1").join("runs").join(&name)).unwrap();
        let par = std::fs::read(base.join("archive-8").join("runs").join(&name)).unwrap();
        assert_eq!(seq, par, "{name} differs between --jobs 1 and --jobs 8");
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn interrupted_sweep_resumes_without_rerunning_finished_cells() {
    // Kill a sweep after its short cells finished but before the long
    // ones do (loop_merge fits the injected crash budget, long_haul does
    // not). The finished cells commit; re-running the same sweep command
    // resumes: committed cells are loaded, not re-profiled, and the final
    // fleet + report are byte-identical to a never-interrupted sweep.
    let base = std::env::temp_dir().join(format!("optiwise-sweep-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let archive = base.join("archive");
    let root = archive.to_str().unwrap();
    let grid = ["sweep", "loop_merge", "long_haul", "--size", "test", "--archive", root];

    let mut killed = grid.to_vec();
    killed.extend(["--jobs", "2", "--inject", "kill-after=15000"]);
    let out = optiwise(&killed);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sweep cell `long_haul-s0-xeon` failed"), "{stderr}");
    let committed = |n: u64| std::fs::read(archive.join("runs").join(format!("run-{n:06}.owp")));
    let first = committed(1).expect("short cells commit despite the crash");
    let second = committed(2).expect("short cells commit despite the crash");
    assert!(committed(3).is_err(), "killed cells must not commit");
    // The killed cells leave their checkpoints behind for inspection.
    assert!(archive.join("checkpoints").join("sweep-long_haul-s0-xeon.owp").is_file());

    // Re-run with a budget no fresh cell survives: only the missing cells
    // are profiled (and die) — the committed ones are never re-run, or
    // they too would crash and be named in stderr.
    let mut probe = grid.to_vec();
    probe.extend(["--jobs", "2", "--inject", "kill-after=1"]);
    let out = optiwise(&probe);
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("long_haul"), "{stderr}");
    assert!(!stderr.contains("loop_merge"), "committed cells re-ran: {stderr}");
    assert_eq!(committed(1).unwrap(), first, "resume must not rewrite committed runs");

    // The clean re-run finishes the grid and reclaims the checkpoints.
    let mut finish = grid.to_vec();
    finish.extend(["--jobs", "2"]);
    let out = optiwise(&finish);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let resumed_report = out.stdout;
    assert_eq!(committed(1).unwrap(), first);
    assert_eq!(committed(2).unwrap(), second);
    assert!(committed(3).is_ok() && committed(4).is_ok(), "resume must finish the grid");
    assert!(!archive.join("checkpoints").join("sweep-long_haul-s0-xeon.owp").exists());

    // A sweep that was never interrupted produces the same fleet and the
    // same report.
    let fresh = base.join("fresh");
    let out = optiwise(&[
        "sweep", "loop_merge", "long_haul", "--size", "test",
        "--archive", fresh.to_str().unwrap(), "--jobs", "2",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, resumed_report, "resumed sweep report diverged");
    for id in 1..=4u64 {
        let name = format!("run-{id:06}.owp");
        assert_eq!(
            std::fs::read(archive.join("runs").join(&name)).unwrap(),
            std::fs::read(fresh.join("runs").join(&name)).unwrap(),
            "{name} diverged between resumed and uninterrupted sweeps"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn sweep_rejects_bad_grids_before_running() {
    // Grid validation is all-up-front: no cell runs, no archive mutation.
    let dir = std::env::temp_dir().join(format!("optiwise-sweep-usage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let root = dir.to_str().unwrap();
    for (args, expect) in [
        (vec!["sweep", "loop_merge"], "needs --archive"),
        (vec!["sweep", "--archive", root], "at least one workload"),
        (vec!["sweep", "no_such", "--archive", root], "unknown workload"),
        (vec!["sweep", "loop_merge:9", "--archive", root], "takes a :SEED suffix"),
        (
            vec!["sweep", "loop_merge", "--archive", root, "--config", "vax"],
            "unknown arch",
        ),
        (
            vec!["sweep", "loop_merge", "--archive", root, "--config", "xeon:rob_size=0"],
            "rob_size",
        ),
    ] {
        let out = optiwise(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "a rejected sweep must not create the archive");
    let _ = std::fs::remove_dir_all(&dir);
}
