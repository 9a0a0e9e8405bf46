//! Byte fixture for the stored profile and the report.
//!
//! For every program of the suite (`recip_loop` plus the twelve SPEC-like
//! workloads) on the `xeon` and `neoverse` presets, at test size, a full
//! pipeline run must reproduce the committed FNV-1a digest of every
//! section of its `.owp` image (`StoredProfile::from_run(..).to_bytes()`,
//! counter placement and `UCFG` included) and of its `full_report` text.
//! Re-analysing the decoded image, as `optiwise analyze` and the archive do,
//! must print the same report and re-encode to the same bytes.
//!
//! Debug builds check the programs that finish quickly; a release build
//! (`cargo test --release --test golden_owp`) checks the full matrix. On a
//! mismatch the failure message carries every line the fixture would need;
//! update `tests/golden/owp.txt` only for an intended format, placement or
//! report change.

use optiwise::report::full_report;
use optiwise::{run_optiwise, Analysis, OptiwiseConfig, ProfileTables};
use wiser_isa::Module;
use wiser_sim::{CoreConfig, LoadConfig, ProcessImage};
use wiser_store::{read_sections, StoredProfile};
use wiser_workloads::InputSize;

const FIXTURE: &str = include_str!("golden/owp.txt");

/// Presets the fixture covers.
const ARCHS: &[&str] = &["xeon", "neoverse"];

/// Programs too slow for the timing model in an unoptimised build.
const RELEASE_ONLY: &[&str] = &["lbm_like", "x264_like"];

/// Rows per report table, as `optiwise run` prints by default.
const TOP: usize = 15;

fn suite() -> Vec<&'static str> {
    let mut names = vec!["recip_loop"];
    names.extend(wiser_workloads::spec_suite().iter().map(|w| w.name));
    names
}

/// FNV-1a, the digest `perfbench` uses for its output gate.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The fixture line of one (program, preset) pair.
fn golden_line(name: &str, arch: &str) -> String {
    let modules = wiser_workloads::by_name(name)
        .expect("suite workload")
        .build(InputSize::Test)
        .expect("assembles");
    let core = CoreConfig::by_name(arch).expect("preset");
    let cfg = OptiwiseConfig {
        core,
        concurrent_passes: false,
        ..OptiwiseConfig::default()
    };
    let run = run_optiwise(&modules, &cfg).expect("pipeline runs");
    let owp = StoredProfile::from_run(name, &run, cfg.rand_seed, arch, core).to_bytes();
    let report = full_report(&run.analysis, TOP);

    // The archived-run path: decode, re-analyse, report, re-encode.
    let image = ProcessImage::load(&modules, &LoadConfig::default()).expect("loads");
    let linked: Vec<Module> = image.modules.iter().map(|m| m.linked.clone()).collect();
    let stored = StoredProfile::from_bytes(&owp).expect("own encoding decodes");
    let (Some(samples), Some(counts)) = (&stored.samples, &stored.counts) else {
        panic!("{name} {arch}: stored profile lost its raw profiles");
    };
    let again = Analysis::try_new(&linked, samples, counts, cfg.analysis).expect("re-analyses");
    assert_eq!(
        full_report(&again, TOP),
        report,
        "{name} {arch}: re-analysis of the stored profile reports differently"
    );
    let tables = ProfileTables::from_analysis(&again);
    assert_eq!(
        StoredProfile { tables, ..stored }.to_bytes(),
        owp,
        "{name} {arch}: re-analysed profile re-encodes differently"
    );

    let mut line = format!("{name} {arch}");
    for s in read_sections(&owp).expect("own encoding frames") {
        line.push_str(&format!(" {}={:016x}", s.tag_name(), fnv1a(s.payload)));
    }
    line.push_str(&format!(" report={:016x}", fnv1a(report.as_bytes())));
    line
}

#[test]
fn stored_profile_and_report_match_golden_fixture() {
    let fixture: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut actual = Vec::new();
    let mut moved = Vec::new();
    for name in suite() {
        for &arch in ARCHS {
            if cfg!(debug_assertions) && RELEASE_ONLY.contains(&name) {
                continue;
            }
            let key = format!("{name} {arch} ");
            let line = golden_line(name, arch);
            if !fixture.iter().any(|l| l.starts_with(&key) && *l == line) {
                moved.push(format!("{name} {arch}"));
            }
            actual.push(line);
        }
    }
    assert!(
        moved.is_empty(),
        "stored bytes or report moved for {moved:?}; the checked lines are now:\n{}",
        actual.join("\n")
    );
    assert_eq!(
        fixture.len(),
        suite().len() * ARCHS.len(),
        "fixture lines without a suite program"
    );
    assert!(actual.len() >= 11 * ARCHS.len());
}
