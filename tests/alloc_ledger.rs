//! Allocation ceilings for re-analysing a stored run.
//!
//! For a few suite programs at test size on `xeon`, the archived-run path
//! (`StoredProfile::from_bytes`, `Analysis::try_new`, `full_report`, the
//! tables and `to_bytes`) must make no more heap allocations and
//! reallocations than the recorded ceiling. The binary installs
//! `wiser_chaos::alloc::TrackingAllocator`, whose counters are per thread,
//! so the other tests running alongside do not disturb the count.
//!
//! The counts are deterministic for one toolchain, but a new standard
//! library can move them, so they are ceilings rather than exact values.
//! A change that lowers a count re-records its ceiling from the failure
//! message of a run with the ceiling set to 0.

use optiwise::report::full_report;
use optiwise::{run_optiwise, Analysis, AnalysisOptions, OptiwiseConfig, ProfileTables};
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
    ("mcf_like", 421, 58),
    ("gcc_like", 188, 35),
    ("leela_like", 230, 29),
    ("nab_like", 206, 20),
];

/// Rows per report table, as `optiwise run` prints by default.
const TOP: usize = 15;

/// The linked modules of `name` and the `.owp` image of its `xeon` run.
fn stored_run(name: &str) -> (Vec<Module>, Vec<u8>) {
    let modules = wiser_workloads::by_name(name)
        .expect("suite workload")
        .build(InputSize::Test)
        .expect("assembles");
    let core = CoreConfig::xeon_like();
    let cfg = OptiwiseConfig {
        core,
        concurrent_passes: false,
        ..OptiwiseConfig::default()
    };
    let run = run_optiwise(&modules, &cfg).expect("pipeline runs");
    let owp = StoredProfile::from_run(name, &run, cfg.rand_seed, "xeon", core).to_bytes();
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
        let (linked, owp) = stored_run(name);
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
