//! Closes the PGO loop over `recip_loop` and the SPEC-like suite: profile,
//! rewrite with `wiser-opt`, oracle-check on generated seeds, re-profile
//! and diff against the baseline.
//!
//! Doubles as a CI gate: exits nonzero unless every workload passes the
//! differential oracle, no workload shows a statistically significant
//! CPI regression, `recip_loop`'s diff is strictly Improvement-or-Noise,
//! and at least one rewritten workload is measurably faster (fewer timed
//! cycles) than its baseline.

use wiser_bench::{harness, pgo_speedup, PGO_ORACLE_SEEDS};
use wiser_workloads::InputSize;

fn main() {
    let size = match std::env::args().nth(1).as_deref() {
        Some("test") => InputSize::Test,
        Some("ref") => InputSize::Ref,
        _ => InputSize::Train,
    };
    let rows = pgo_speedup(size);
    let mut out = String::new();
    out.push_str(&format!(
        "PGO speedup: optimize, oracle ({PGO_ORACLE_SEEDS} seeds), re-profile, diff\n\n"
    ));
    out.push_str(&format!(
        "{:<18} {:>6} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}\n",
        "BENCHMARK", "XFRMS", "BASE CYC", "OPT CYC", "SPEED%", "ORACLE", "REGR", "CPI REGR"
    ));
    let mut csv = String::from(
        "benchmark,transforms,baseline_cycles,optimized_cycles,baseline_retired,\
         optimized_retired,cycle_speedup_pct,oracle_ok,regression_rows,cpi_regressions\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>6} {:>14} {:>14} {:>8.2}% {:>7} {:>8} {:>8}\n",
            r.name,
            r.transforms,
            r.baseline_cycles,
            r.optimized_cycles,
            r.cycle_speedup_pct(),
            if r.oracle_ok { "ok" } else { "FAIL" },
            r.regression_rows,
            r.cpi_regressions,
        ));
        csv.push_str(&format!(
            "{},{},{},{},{},{},{:.3},{},{},{}\n",
            r.name,
            r.transforms,
            r.baseline_cycles,
            r.optimized_cycles,
            r.baseline_retired,
            r.optimized_retired,
            r.cycle_speedup_pct(),
            r.oracle_ok,
            r.regression_rows,
            r.cpi_regressions,
        ));
    }
    print!("{out}");
    harness::write_result("pgo_speedup.txt", &out);
    harness::write_result("pgo_speedup.csv", &csv);

    let mut failed = false;
    for r in &rows {
        if !r.oracle_ok {
            eprintln!(
                "GATE FAIL: {} diverged under the differential oracle",
                r.name
            );
            failed = true;
        }
        if r.cpi_regressions > 0 {
            eprintln!(
                "GATE FAIL: {} shows {} statistically significant CPI regression(s)",
                r.name, r.cpi_regressions
            );
            failed = true;
        }
    }
    match rows.iter().find(|r| r.name == "recip_loop") {
        Some(r) if r.regression_rows > 0 => {
            eprintln!(
                "GATE FAIL: recip_loop diff must be Improvement-or-Noise, \
                 found {} regression row(s)",
                r.regression_rows
            );
            failed = true;
        }
        Some(_) => {}
        None => {
            eprintln!("GATE FAIL: recip_loop missing from the sweep");
            failed = true;
        }
    }
    if !rows
        .iter()
        .any(|r| r.transforms > 0 && r.optimized_cycles < r.baseline_cycles)
    {
        eprintln!("GATE FAIL: no rewritten workload improved its timed cycle count");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("\npgo_speedup gate: ok");
}
