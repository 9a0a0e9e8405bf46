//! Facts about the host and the checkout, reported with every result.

use std::fs;
use std::path::Path;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git, or `unknown` outside a git checkout.
pub fn git_rev() -> String {
    read_git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into())
}

fn read_git_rev(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, r)| *r == name)
        .map(|(rev, _)| rev.to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_present() {
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn git_rev_follows_a_symbolic_head() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        fs::create_dir_all(dir.join("refs/heads")).unwrap();
        fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(dir.join("refs/heads/main"), "abc123\n").unwrap();
        assert_eq!(read_git_rev(&dir).as_deref(), Some("abc123"));
        fs::remove_file(dir.join("refs/heads/main")).unwrap();
        fs::write(dir.join("packed-refs"), "# pack\ndef456 refs/heads/main\n").unwrap();
        assert_eq!(read_git_rev(&dir).as_deref(), Some("def456"));
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(read_git_rev(&dir), None);
    }
}
