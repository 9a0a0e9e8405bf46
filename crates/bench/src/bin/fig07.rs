//! Regenerates figure 7: tool overhead across the SPEC-like suite.

use wiser_bench::{fig07, harness};
use wiser_workloads::InputSize;

fn main() {
    let size = match std::env::args().nth(1).as_deref() {
        Some("test") => InputSize::Test,
        Some("ref") => InputSize::Ref,
        _ => InputSize::Train,
    };
    let data = fig07(size);
    let mut out = String::new();
    out.push_str("Figure 7: OptiWISE overhead per benchmark (both profiling runs)\n\n");
    out.push_str(&format!(
        "{:<18} {:>14} {:>12} {:>9} {:>9} {:>9} {:>10} {:>9} {:>9} {:>9}\n",
        "BENCHMARK",
        "NATIVE CYC",
        "INSNS",
        "SAMPLE x",
        "INSTR x",
        "TOTAL x",
        "ANALYZE ms",
        "INDIRECT",
        "SAMP KiB",
        "CNT KiB"
    ));
    let mut csv = String::from(
        "benchmark,native_cycles,insns,sample_x,instr_x,total_x,analyze_ms,indirect_share,sample_bytes,counts_bytes\n",
    );
    // A translation-only (zero-native-instruction) run reports unbounded
    // overhead; render `-` rather than leaking `inf` into the figure.
    let fx = |v: f64| {
        if v.is_finite() {
            format!("{v:.1}")
        } else {
            "-".to_string()
        }
    };
    for r in &data.rows {
        out.push_str(&format!(
            "{:<18} {:>14} {:>12} {:>9.3} {:>9} {:>9} {:>10.1} {:>8.1}% {:>9.1} {:>9.1}\n",
            r.name,
            r.native_cycles,
            r.native_insns,
            r.sample_overhead,
            fx(r.instr_overhead),
            fx(r.total_overhead),
            r.analysis_ms,
            100.0 * r.indirect_share,
            r.sample_bytes as f64 / 1024.0,
            r.counts_bytes as f64 / 1024.0,
        ));
        csv.push_str(&format!(
            "{},{},{},{:.4},{:.2},{:.2},{:.2},{:.4},{},{}\n",
            r.name,
            r.native_cycles,
            r.native_insns,
            r.sample_overhead,
            r.instr_overhead,
            r.total_overhead,
            r.analysis_ms,
            r.indirect_share,
            r.sample_bytes,
            r.counts_bytes
        ));
    }
    out.push_str(&format!(
        "\ngeomean: sampling {:.3}x, instrumentation {}x, total {}x\n\
         worst case: {}x ({})\n\
         (paper: sampling 1.01x, instrumentation 7.1x geomean / 56x worst\n\
         case on xalancbmk, total 8.1x geomean)\n",
        data.geomean_sample,
        fx(data.geomean_instr),
        fx(data.geomean_total),
        {
            let worst = data
                .rows
                .iter()
                .map(|r| r.total_overhead)
                .fold(0.0f64, f64::max);
            if worst.is_finite() {
                format!("{worst:.0}")
            } else {
                "-".to_string()
            }
        },
        data.rows
            .iter()
            .max_by(|a, b| a.total_overhead.total_cmp(&b.total_overhead))
            .map(|r| r.name)
            .unwrap_or("-"),
    ));
    print!("{out}");
    harness::write_result("fig07.txt", &out);
    harness::write_result("fig07.csv", &csv);
}
