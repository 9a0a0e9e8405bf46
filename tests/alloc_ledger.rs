//! Allocation ceilings for re-analysing and diffing a stored run.
//!
//! For a few suite programs at test size on `xeon`, the archived-run path
//! (`StoredProfile::from_bytes`, `Analysis::try_new`, `full_report`, the
//! tables and `to_bytes`) must make no more heap allocations and
//! reallocations than the recorded ceiling, and so must diffing the
//! program's `xeon` tables against its `neoverse` ones (`diff_tables` and
//! `diff_report`), and decoding a profile must cost the same allocations
//! whatever its sample count. The binary installs
//! `wiser_chaos::alloc::TrackingAllocator`, whose counters are per thread,
//! so the other tests running alongside do not disturb the count.
//!
//! The counts are deterministic for one toolchain, but a new standard
//! library can move them, so they are ceilings rather than exact values.
//! A change that lowers a count re-records its ceiling from the failure
//! message of a run with the ceiling set to 0.

use optiwise::report::{diff_report, full_report};
use optiwise::{
    diff_tables, run_optiwise, Analysis, AnalysisOptions, DiffOptions, OptiwiseConfig,
    ProfileTables,
};
use wiser_chaos::alloc::{allocations, reallocations, TrackingAllocator};
use wiser_isa::Module;
use wiser_sim::{CoreConfig, LoadConfig, ProcessImage};
use wiser_store::StoredProfile;
use wiser_workloads::InputSize;

#[global_allocator]
static TRACKING: TrackingAllocator = TrackingAllocator;

/// `(program, allocations, reallocations)`: the most one re-analysis of
/// the program's stored `xeon` run may make.
const CEILINGS: &[(&str, u64, u64)] = &[
    ("mcf_like", 394, 51),
    ("gcc_like", 178, 29),
    ("leela_like", 157, 23),
    ("nab_like", 138, 15),
];

/// `(program, allocations, reallocations)`: the most one diff of the
/// program's stored `xeon` tables against its `neoverse` ones may make.
const DIFF_CEILINGS: &[(&str, u64, u64)] = &[
    ("mcf_like", 35, 0),
    ("gcc_like", 16, 0),
    ("leela_like", 14, 0),
    ("nab_like", 14, 0),
];

/// Rows per report table, as `optiwise run` prints by default.
const TOP: usize = 15;

/// The linked modules of `name` and the `.owp` image of its run on `arch`.
fn stored_run(name: &str, arch: &str) -> (Vec<Module>, Vec<u8>) {
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
    let image = ProcessImage::load(&modules, &LoadConfig::default()).expect("loads");
    let linked = image.modules.iter().map(|m| m.linked.clone()).collect();
    (linked, owp)
}

/// Allocations and reallocations of one re-analysis of `owp`, on this
/// thread.
fn reanalysis_calls(linked: &[Module], owp: &[u8]) -> (u64, u64) {
    let (a0, r0) = (allocations(), reallocations());
    let stored = StoredProfile::from_bytes(owp).expect("own encoding decodes");
    let (Some(samples), Some(counts)) = (&stored.samples, &stored.counts) else {
        panic!("stored profile lost its raw profiles");
    };
    let analysis = Analysis::try_new(linked, samples, counts, AnalysisOptions::default())
        .expect("re-analyses");
    let report = full_report(&analysis, TOP);
    let tables = ProfileTables::from_analysis(&analysis);
    let bytes = StoredProfile { tables, ..stored }.to_bytes();
    let calls = (allocations() - a0, reallocations() - r0);
    assert!(!report.is_empty());
    assert_eq!(bytes, owp, "re-encoding changed the image");
    calls
}

#[test]
fn reanalysing_a_stored_run_stays_under_its_allocation_ceilings() {
    let mut measured = Vec::new();
    let mut over = Vec::new();
    for &(name, max_allocs, max_reallocs) in CEILINGS {
        let (linked, owp) = stored_run(name, "xeon");
        let (allocs, reallocs) = reanalysis_calls(&linked, &owp);
        // A second pass must count the same: nothing is cached between
        // analyses.
        assert_eq!(
            reanalysis_calls(&linked, &owp),
            (allocs, reallocs),
            "{name}"
        );
        measured.push(format!("    (\"{name}\", {allocs}, {reallocs}),"));
        if allocs > max_allocs || reallocs > max_reallocs {
            over.push(format!(
                "{name}: {allocs} allocations (ceiling {max_allocs}), \
                 {reallocs} reallocations (ceiling {max_reallocs})"
            ));
        }
    }
    assert!(
        over.is_empty(),
        "{}\nmeasured:\n{}",
        over.join("\n"),
        measured.join("\n")
    );
}

/// Allocations and reallocations of one diff of `old` against `new` and
/// its report, on this thread.
fn diff_calls(old: &ProfileTables, new: &ProfileTables) -> (u64, u64) {
    let options = DiffOptions {
        config_changed: true,
        ..DiffOptions::default()
    };
    let (a0, r0) = (allocations(), reallocations());
    let diff = diff_tables(old, new, options);
    let text = diff_report(&diff, TOP);
    let calls = (allocations() - a0, reallocations() - r0);
    assert!(diff.rows().count() > 0 && !text.is_empty());
    calls
}

#[test]
fn diffing_two_stored_runs_stays_under_its_allocation_ceilings() {
    let tables = |name: &str, arch: &str| {
        let (_, owp) = stored_run(name, arch);
        StoredProfile::from_bytes(&owp).expect("decodes").tables
    };
    let mut measured = Vec::new();
    let mut over = Vec::new();
    for &(name, max_allocs, max_reallocs) in DIFF_CEILINGS {
        let (old, new) = (tables(name, "xeon"), tables(name, "neoverse"));
        let (allocs, reallocs) = diff_calls(&old, &new);
        assert_eq!(diff_calls(&old, &new), (allocs, reallocs), "{name}");
        measured.push(format!("    (\"{name}\", {allocs}, {reallocs}),"));
        if allocs > max_allocs || reallocs > max_reallocs {
            over.push(format!(
                "{name}: {allocs} allocations (ceiling {max_allocs}), \
                 {reallocs} reallocations (ceiling {max_reallocs})"
            ));
        }
    }
    assert!(
        over.is_empty(),
        "{}\nmeasured:\n{}",
        over.join("\n"),
        measured.join("\n")
    );
}

/// Allocations and reallocations of one decode of `owp`, on this thread.
fn decode_calls(owp: &[u8]) -> (u64, u64) {
    let (a0, r0) = (allocations(), reallocations());
    let stored = StoredProfile::from_bytes(owp).expect("decodes");
    let calls = (allocations() - a0, reallocations() - r0);
    assert!(stored.samples.is_some());
    calls
}

#[test]
fn decoding_a_profile_costs_the_same_allocations_whatever_its_sample_count() {
    for &(name, ..) in CEILINGS {
        let (_, owp) = stored_run(name, "xeon");
        let mut stored = StoredProfile::from_bytes(&owp).expect("decodes");
        let samples = stored.samples.as_mut().expect("raw samples");
        let once = samples.clone();
        for s in &once.samples {
            samples.push(s.loc, s.weight, once.stack(s).iter().copied());
        }
        assert!(!once.frames.is_empty(), "{name} has no stacks");
        let doubled = stored.to_bytes();
        assert_eq!(decode_calls(&doubled), decode_calls(&owp), "{name}");
    }
}
