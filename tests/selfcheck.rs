//! Differential self-check sweep: the fused pipeline against the oracle
//! over generated programs.
//!
//! This is the per-PR smoke slice of the sweep `optiwise selfcheck` runs at
//! nightly depth (see `.github/workflows/ci.yml`). Any join-bug discrepancy
//! here means the sampling/DBI join produced numbers that exact ground
//! truth contradicts.

use optiwise::selfcheck::{check_modules, DiscrepancyClass, SelfCheckOptions};
use wiser_workloads::generated;

#[test]
fn generated_seed_sweep_has_zero_join_bugs() {
    let opts = SelfCheckOptions::default();
    for seed in 0..10 {
        let modules = generated::generate(seed).unwrap();
        let check = check_modules(&modules, &opts).unwrap();
        assert!(!check.degraded, "seed {seed} degraded: {}", check.summary());
        let bugs: Vec<_> = check
            .discrepancies
            .iter()
            .filter(|d| d.class == DiscrepancyClass::JoinBug)
            .map(|d| d.to_string())
            .collect();
        assert!(bugs.is_empty(), "seed {seed}: {bugs:#?}");
    }
}

#[test]
fn selfcheck_results_are_deterministic() {
    let opts = SelfCheckOptions::default();
    let modules = generated::generate(3).unwrap();
    let a = check_modules(&modules, &opts).unwrap();
    let b = check_modules(&modules, &opts).unwrap();
    assert_eq!(a.summary(), b.summary());
    assert_eq!(
        a.discrepancies
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>(),
        b.discrepancies
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>(),
    );
}

/// The shared-header double-attribution fix (chain-filtered
/// `loops_containing`) must hold with merging disabled, where the forest
/// keeps one partially-overlapping raw loop per back edge. Pre-fix, the
/// generated shared-header leaves trip the `loop-attribution-chain` check
/// (a block credited to two non-nested loops gets its cycles twice).
#[test]
fn unmerged_shared_header_sweep_has_zero_join_bugs() {
    let mut opts = SelfCheckOptions::default();
    opts.config.analysis.merge_threshold = None;
    for seed in 0..10 {
        let modules = generated::generate(seed).unwrap();
        let check = check_modules(&modules, &opts).unwrap();
        let bugs: Vec<_> = check
            .discrepancies
            .iter()
            .filter(|d| d.class == DiscrepancyClass::JoinBug)
            .map(|d| d.to_string())
            .collect();
        assert!(bugs.is_empty(), "seed {seed}: {bugs:#?}");
    }
}
