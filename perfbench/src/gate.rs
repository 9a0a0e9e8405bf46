//! The output gate: every timed job is checked before it counts.
//!
//! Each job's outputs are folded into one digest. The first job of each
//! program (run while setting up) fixes the digest every later job must
//! reproduce, and when `digests.txt` holds a digest for the same
//! (workload, seed, program) that first digest must equal it too. A perf
//! change that moves a single simulated sample therefore shows up as
//! failed operations, not as a speed-up.

use std::collections::BTreeMap;

/// Digests recorded for known (workload, seed) pairs, one line each:
/// `workload seed key digest`.
const RECORDED: &str = include_str!("../digests.txt");

/// FNV-1a over length-prefixed parts, so `("ab", "c")` and `("a", "bc")`
/// differ.
pub fn digest(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part);
    }
    h
}

/// The recorded digests of `workload` at `seed`, by key.
pub fn recorded(workload: &str, seed: u64) -> BTreeMap<String, u64> {
    parse_recorded(RECORDED, workload, seed)
}

fn parse_recorded(text: &str, workload: &str, seed: u64) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, s, key, d] = fields[..] else {
            panic!("malformed digests.txt line: {line}");
        };
        if w == workload && s.parse::<u64>().ok() == Some(seed) {
            let d = u64::from_str_radix(d, 16).expect("digests.txt digests are hex");
            out.insert(key.to_string(), d);
        }
    }
    out
}

/// Counts operations and failures against the expected digests.
#[derive(Default)]
pub struct Gate {
    expected: BTreeMap<String, u64>,
    recorded: BTreeMap<String, u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that returned an error or a wrong digest.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

impl Gate {
    /// A gate that also holds first jobs to the digests in `recorded`.
    pub fn new(recorded: BTreeMap<String, u64>) -> Gate {
        Gate {
            recorded,
            ..Gate::default()
        }
    }

    /// Fixes the digest of `key` from its first, untimed job, or from the
    /// recorded digest when there is one, so that a first job which moved
    /// fails every later job too. A disagreement or an error fails the
    /// run's correctness.
    pub fn expect(&mut self, key: &str, outcome: Result<u64, String>) -> bool {
        let d = match outcome {
            Ok(d) => d,
            Err(e) => {
                self.fail(format!("{key}: first job failed: {e}"));
                return false;
            }
        };
        let recorded = self.recorded.get(key).copied();
        let earlier = self.expected.insert(key.to_string(), recorded.unwrap_or(d));
        let why = match (earlier, recorded) {
            (_, Some(r)) if r != d => {
                format!("{key}: first job digest {d:016x}, recorded {r:016x}")
            }
            (Some(e), _) if e != d => format!("{key}: set-up digest {d:016x}, earlier {e:016x}"),
            _ => return true,
        };
        self.fail(why);
        false
    }

    /// Checks one timed operation; an error or a digest other than the
    /// expected one counts as a failed operation.
    pub fn check(&mut self, key: &str, outcome: Result<u64, String>) -> bool {
        self.attempted += 1;
        let verdict = match (outcome, self.expected.get(key)) {
            (Ok(d), Some(&e)) if d == e => return true,
            (Ok(d), Some(&e)) => format!("{key}: digest {d:016x}, expected {e:016x}"),
            (Ok(_), None) => format!("{key}: no first job to compare with"),
            (Err(e), _) => format!("{key}: {e}"),
        };
        self.failed += 1;
        self.fail(verdict);
        false
    }

    /// Records a failure found outside a digest comparison.
    pub fn fail(&mut self, why: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Whether every check so far passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.first_failure.is_none()
    }

    /// `workload seed key digest` lines for `digests.txt`.
    pub fn record_lines(&self, workload: &str, seed: u64) -> String {
        self.expected
            .iter()
            .map(|(k, d)| format!("{workload} {seed} {k} {d:016x}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_part_boundaries() {
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"ab", b"c"]));
    }

    #[test]
    fn a_forced_digest_mismatch_counts_as_a_failed_op() {
        let mut gate = Gate::default();
        assert!(gate.expect("nab_like", Ok(1)));
        assert!(gate.check("nab_like", Ok(1)));
        assert!(gate.correct());
        assert!(!gate.check("nab_like", Ok(2)));
        assert!(!gate.check("nab_like", Err("simulator fault".into())));
        assert!(!gate.check("never_seen", Ok(1)));
        assert_eq!((gate.attempted, gate.failed), (4, 3));
        assert!(!gate.correct());
        assert!(gate
            .first_failure
            .unwrap()
            .contains("expected 0000000000000001"));
    }

    #[test]
    fn a_first_job_that_disagrees_with_the_record_fails_the_run() {
        let recorded = parse_recorded(
            "# comment\nprofile_stall 1 nab_like 00000000000000ff\nprofile_stall 2 nab_like 1\n",
            "profile_stall",
            1,
        );
        assert_eq!(recorded.get("nab_like"), Some(&0xff));
        let mut gate = Gate::new(recorded);
        assert!(!gate.expect("nab_like", Ok(0xfe)));
        assert!(!gate.correct());
        // Later jobs are held to the recorded digest, so they fail too.
        assert!(!gate.check("nab_like", Ok(0xfe)));
        assert!(gate.check("nab_like", Ok(0xff)));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn recorded_digests_parse() {
        // Every line of the shipped file must parse.
        for w in ["profile_stall", "profile_dispatch", "offline_fleet"] {
            let _ = recorded(w, 1);
        }
    }
}
