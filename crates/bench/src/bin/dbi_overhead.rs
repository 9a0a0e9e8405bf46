//! Measures the DBI overhead win from minimal counter placement: exhaustive
//! per-edge counting vs placed counters with flow-conservation recovery.
//!
//! Doubles as a CI gate: exits nonzero unless every workload recovers the
//! exhaustive counts bit for bit and `recip_loop` shows at least a 20%
//! reduction in both instrumented instructions and dynamic counter charges.

use wiser_bench::{dbi_overhead, harness};
use wiser_workloads::InputSize;

fn main() {
    let size = match std::env::args().nth(1).as_deref() {
        Some("test") => InputSize::Test,
        Some("ref") => InputSize::Ref,
        _ => InputSize::Train,
    };
    let rows = dbi_overhead(size);
    let fx = |v: f64| {
        if v.is_finite() {
            format!("{v:.2}")
        } else {
            "-".to_string()
        }
    };
    let mut out = String::new();
    out.push_str("DBI overhead: exhaustive counting vs minimal counter placement\n\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>9} {:>9} {:>6}\n",
        "BENCHMARK",
        "NATIVE",
        "EXH INSNS",
        "PLACED",
        "EXH x",
        "PLC x",
        "INSN -%",
        "CNTR -%",
        "EXACT"
    ));
    let mut csv = String::from(
        "benchmark,native_insns,exhaustive_insns,placed_insns,exhaustive_counters,\
         placed_counters,suppressed_counters,insn_reduction_pct,counter_reduction_pct,\
         recovered_identical\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8.1}% {:>8.1}% {:>6}\n",
            r.name,
            r.native_insns,
            r.exhaustive_insns,
            r.placed_insns,
            fx(r.exhaustive_overhead),
            fx(r.placed_overhead),
            r.insn_reduction_pct(),
            r.counter_reduction_pct(),
            if r.recovered_identical { "yes" } else { "NO" },
        ));
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{:.2},{:.2},{}\n",
            r.name,
            r.native_insns,
            r.exhaustive_insns,
            r.placed_insns,
            r.exhaustive_counters,
            r.placed_counters,
            r.suppressed_counters,
            r.insn_reduction_pct(),
            r.counter_reduction_pct(),
            r.recovered_identical,
        ));
    }
    print!("{out}");
    harness::write_result("dbi_overhead.txt", &out);
    harness::write_result("dbi_overhead.csv", &csv);

    let mut failed = false;
    for r in &rows {
        if !r.recovered_identical {
            eprintln!("GATE FAIL: {} recovery is not bit-identical", r.name);
            failed = true;
        }
        if r.placed_insns >= r.exhaustive_insns {
            eprintln!(
                "GATE FAIL: {} placement did not reduce instrumented instructions \
                 ({} -> {})",
                r.name, r.exhaustive_insns, r.placed_insns
            );
            failed = true;
        }
    }
    if let Some(r) = rows.iter().find(|r| r.name == "recip_loop") {
        if r.insn_reduction_pct() < 20.0 || r.counter_reduction_pct() < 20.0 {
            eprintln!(
                "GATE FAIL: recip_loop reduction below 20% (insns {:.1}%, counters {:.1}%)",
                r.insn_reduction_pct(),
                r.counter_reduction_pct()
            );
            failed = true;
        }
    } else {
        eprintln!("GATE FAIL: recip_loop missing from the sweep");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("\ndbi_overhead gate: ok");
}
