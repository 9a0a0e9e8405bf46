//! Cycle-exactness fixture for the timing model.
//!
//! For every program of the suite (`recip_loop` plus the twelve SPEC-like
//! workloads) under each preset core, at test size, the sampling pass must
//! reproduce the committed `CoreStats` debug line and the FNV-1a digest of
//! the sampled profile's `.owp` `SAMP` section. Any change to the timing
//! model that moves a single cycle, cache access or sample fails here.
//!
//! Debug builds check the programs that finish quickly; a release build
//! (`cargo test --release --test golden_core`) checks the full matrix.
//! On a mismatch the failure message carries the line the fixture would
//! need; update `tests/golden/core_stats.txt` only for an intended model
//! change.

use optiwise::{AnalysisMode, ProfileTables};
use wiser_sampler::{sample_run, SamplerConfig};
use wiser_sim::{CoreConfig, LoadConfig, ProcessImage, ARCH_NAMES};
use wiser_store::{read_sections, RunMeta, StoredProfile};
use wiser_workloads::InputSize;

const FIXTURE: &str = include_str!("golden/core_stats.txt");

/// Programs too slow for the timing model in an unoptimised build.
const RELEASE_ONLY: &[&str] = &["lbm_like", "x264_like"];

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
    let image = ProcessImage::load(&modules, &LoadConfig::default()).expect("loads");
    let core = CoreConfig::by_name(arch).expect("preset");
    let (samples, timed) =
        sample_run(&image, 0, core, SamplerConfig::default(), 200_000_000).expect("samples");
    assert!(samples.truncated.is_none(), "{name} {arch}: {samples:?}");
    let owp = StoredProfile {
        meta: RunMeta::default(),
        samples: Some(samples),
        counts: None,
        tables: ProfileTables {
            mode: AnalysisMode::SamplingOnly,
            wall_cycles: 0,
            total_cycles: 0,
            total_insns: 0,
            modules: Vec::new(),
            functions: Vec::new(),
            loops: Vec::new(),
            lines: Vec::new(),
        },
        transforms: Default::default(),
        uarch: None,
    }
    .to_bytes();
    let sections = read_sections(&owp).expect("own encoding decodes");
    let samp = sections
        .iter()
        .find(|s| &s.tag == b"SAMP")
        .expect("SAMP section");
    format!(
        "{name} {arch} samp={:016x} {:?}",
        fnv1a(samp.payload),
        timed.stats
    )
}

#[test]
fn timing_model_matches_golden_fixture() {
    let fixture: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut checked = 0;
    for name in suite() {
        for &arch in ARCH_NAMES {
            let key = format!("{name} {arch} ");
            let expected = fixture
                .iter()
                .find(|l| l.starts_with(&key))
                .unwrap_or_else(|| panic!("fixture has no line for `{name} {arch}`"));
            if cfg!(debug_assertions) && RELEASE_ONLY.contains(&name) {
                continue;
            }
            let actual = golden_line(name, arch);
            assert_eq!(&actual, expected, "timing model moved for {name} on {arch}");
            checked += 1;
        }
    }
    assert_eq!(
        fixture.len(),
        suite().len() * ARCH_NAMES.len(),
        "fixture lines without a suite program"
    );
    assert!(checked >= 11 * ARCH_NAMES.len());
}
