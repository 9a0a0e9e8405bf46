//! Regenerates figure 6 and Table I: the loop-merging heuristic.

use wiser_bench::{fig06, harness};
use wiser_workloads::InputSize;

fn main() {
    let data = fig06(InputSize::Train);
    let mut out = String::new();
    out.push_str("Figure 6 / Table I: five back edges sharing one header\n\n");
    out.push_str(&format!(
        "Without merging: {} loops (one per back edge)\n\
         With the T=3 heuristic: {} loops\n\n",
        data.raw_loops,
        data.merged_loops.len()
    ));
    out.push_str("Table I — algorithm 2 iterations:\n");
    out.push_str(&format!(
        "{:>10} {:>14} {:>14}\n",
        "ITERATION", "LOOPS MERGED", "LOOPS REMAINING"
    ));
    for step in &data.trace {
        out.push_str(&format!(
            "{:>10} {:>14} {:>14}\n",
            step.iteration, step.merged, step.remaining
        ));
    }
    out.push_str("\nMerged loops (iterations ≈ back-edge frequency):\n");
    out.push_str(&format!(
        "{:>6} {:>12} {:>10} {:>7}\n",
        "DEPTH", "ITERATIONS", "INVOCS", "CYCLE%"
    ));
    let total: u64 = data
        .merged_loops
        .iter()
        .map(|l| l.cycles)
        .max()
        .unwrap_or(1);
    for l in &data.merged_loops {
        out.push_str(&format!(
            "{:>6} {:>12} {:>10} {:>6.1}%\n",
            l.depth,
            l.iterations,
            l.invocations,
            100.0 * l.cycles as f64 / total as f64
        ));
    }
    out.push_str("\nThreshold sweep (ablation):\n  T      loops\n");
    for (t, n) in &data.sweep {
        out.push_str(&format!("  {:<6} {n}\n", t));
    }
    print!("{out}");
    harness::write_result("fig06_table1.txt", &out);
}
