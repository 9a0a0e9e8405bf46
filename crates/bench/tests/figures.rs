//! End-to-end tests of the `figures` binary: it writes only under `--out`,
//! reproduces the committed `results/` files, and rejects bad arguments
//! before writing anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// A fresh scratch directory for one test, removed when the test ends. It
/// is per process and cleared first, so files of an earlier run, or of a
/// debug and a release run on one host, never mix.
struct Scratch(PathBuf);

fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("figures-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `figures` with `args` in the working directory `cwd`.
fn figures(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("binary runs")
}

/// The sorted names of the entries of `dir`.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn named_figures_match_the_committed_results_and_write_only_under_out() {
    let dir = scratch("out");
    let out = dir.0.join("out");
    // Stdout is closed before the first write, as under `figures | head -1`:
    // the echo must not stop the second file.
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--out", out.to_str().unwrap(), "fig02", "fig06_table1"])
        .current_dir(&dir.0)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let run = child.wait_with_output().unwrap();
    assert!(run.status.success(), "{run:?}");
    assert_eq!(listing(&dir.0), ["out"]);
    assert_eq!(listing(&out), ["fig02.txt", "fig06_table1.txt"]);
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["fig02.txt", "fig06_table1.txt"] {
        let want = std::fs::read_to_string(committed.join(name)).unwrap();
        let got = std::fs::read_to_string(out.join(name)).unwrap();
        assert_eq!(got, want, "{name} differs from results/{name}");
    }
}

#[test]
fn bad_arguments_exit_1_and_write_nothing() {
    let dir = scratch("usage");
    for args in [
        &["nosuch"][..],
        &["--size", "huge", "fig02"],
        &["--size", "tset", "fig07"],
        &["--bogus"],
        &["fig02", "--out"],
        &["fig02", "--size"],
    ] {
        let run = figures(&dir.0, args);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.starts_with("figures: "), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?}");
        assert!(listing(&dir.0).is_empty(), "{args:?} wrote a file");
    }
}
