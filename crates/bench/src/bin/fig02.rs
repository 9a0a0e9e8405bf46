//! Regenerates figure 2: which instructions periodic sampling can observe.

use wiser_bench::{fig02, harness};

fn main() {
    let data = fig02();
    let mut out = String::new();
    out.push_str(
        "Figure 2: per-instruction sample counts, sampling every cycle\n\
         (instructions that always commit alongside an older instruction are\n\
         never observed at the head of the complete queue)\n\n",
    );
    out.push_str(&format!(
        "{:>8}  {:<34} {:>10} {:>8}\n",
        "OFFSET", "INSTRUCTION", "SAMPLES", "SHARE"
    ));
    for (off, text, samples) in &data.rows {
        out.push_str(&format!(
            "{:>8x}  {:<34} {:>10} {:>7.1}%\n",
            off,
            text,
            samples,
            100.0 * *samples as f64 / data.total_samples.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "\n{} of {} loop-body instructions were never sampled.\n",
        data.never_sampled,
        data.rows.len()
    ));
    print!("{out}");
    harness::write_result("fig02.txt", &out);
}
