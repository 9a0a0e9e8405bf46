//! Regenerates figure 8: sample attribution around a slow store (x86 mode).

use wiser_bench::{fig08, harness};
use wiser_workloads::InputSize;

fn main() {
    let data = fig08(InputSize::Train);
    let mut out = String::new();
    out.push_str("Figure 8: slow store followed by independent arithmetic (x86-like core)\n\n");
    out.push_str(&format!(
        "{:>8}  {:<34} {:>8}\n",
        "OFFSET", "INSTRUCTION", "SAMPLES"
    ));
    for (off, text, samples) in &data.rows {
        let marker = if text.starts_with("st.4") {
            "  <- the slow store"
        } else if *samples == data.successor_samples && *samples > data.max_other {
            "  <- skid target"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:>8x}  {:<34} {:>8}{}\n",
            off, text, samples, marker
        ));
    }
    out.push_str(&format!(
        "\nstore itself: {} samples; instruction after it: {} samples;\n\
         max among the rest: {}. The interrupt is serviced at the next commit\n\
         boundary, so samples skid one past the stalled store — matching the\n\
         paper's observation on the Xeon without PEBS.\n",
        data.store_samples, data.successor_samples, data.max_other
    ));
    print!("{out}");
    harness::write_result("fig08.txt", &out);
}
