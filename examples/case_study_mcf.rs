//! The §VI-A case study, end to end: profile mcf, read off the three
//! problems OptiWISE surfaces (branchy comparator, constant-divisor divide,
//! unrollable scan loop), then measure the optimized variant's speedup.
//!
//! ```sh
//! cargo run --release --example case_study_mcf
//! ```

use optiwise::{report, run_optiwise, OptiwiseConfig};
use wiser_sampler::{Attribution, SamplerConfig};
use wiser_sim::{run_timed, CoreConfig, LoadConfig, NoProbes, ProcessImage};
use wiser_workloads::InputSize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Profile the baseline on the train input (as the case study does),
    // with PEBS-style precise attribution like the paper's Xeon.
    let baseline = wiser_workloads::by_name("mcf_like")
        .unwrap()
        .build(InputSize::Train)?;
    let config = OptiwiseConfig {
        sampler: SamplerConfig {
            attribution: Attribution::Precise,
            ..SamplerConfig::default()
        },
        ..OptiwiseConfig::default()
    };
    let run = run_optiwise(&baseline, &config)?;
    let analysis = &run.analysis;

    // Problem 1: the comparator is hot and branchy.
    let cc = analysis.function("cost_compare").expect("cost_compare");
    println!(
        "cost_compare: {:.1}% of cycles, IPC {:.2} — jump instructions are\n\
         expensive; rewrite branch-free (paper: ternary + cmov)\n",
        100.0 * cc.self_cycles as f64 / analysis.total_cycles as f64,
        cc.ipc().unwrap_or(0.0)
    );
    println!(
        "{}",
        report::annotate(
            &analysis.annotate_function(cc.module, "cost_compare"),
            analysis.total_cycles,
        )
    );

    // Problem 2: a divide with a constant second operand inside spec_qsort.
    let qsort_rows = analysis.annotate_function(1, "spec_qsort");
    if let Some(div) = qsort_rows.iter().find(|r| r.text.starts_with("udiv")) {
        println!(
            "spec_qsort divide: CPI {:.1} with a constant divisor — replace\n\
             with a fixed-point reciprocal multiply (paper CPI: 38.12)\n",
            div.cpi.unwrap_or(0.0)
        );
    }

    // Problem 3: the scan loop's shape suggests unrolling.
    if let Some(scan) = analysis
        .loops()
        .iter()
        .find(|l| l.function == "primal_bea_mpp")
    {
        println!(
            "primal_bea_mpp loop: {:.1} instructions/iteration, {:.0}\n\
             iterations/invocation — an unrolling candidate (paper: 18.6\n\
             instructions, ~4000 iterations; factor 4 most profitable)\n",
            scan.insns_per_iteration(),
            scan.iterations_per_invocation()
        );
    }

    // Apply the fixes (the _opt variant) and measure on the ref input.
    let time = |name: &str| -> Result<u64, Box<dyn std::error::Error>> {
        let modules = wiser_workloads::by_name(name)
            .unwrap()
            .build(InputSize::Ref)?;
        let image = ProcessImage::load(&modules, &LoadConfig::default())?;
        Ok(run_timed(
            &image,
            0,
            CoreConfig::xeon_like(),
            &mut NoProbes,
            1_000_000_000,
        )?
        .stats
        .cycles)
    };
    let base = time("mcf_like")?;
    let opt = time("mcf_like_opt")?;
    println!(
        "ref input: baseline {} cycles, optimized {} cycles — {:.1}% speedup\n\
         (paper: 12% from the same three changes)",
        base,
        opt,
        100.0 * (base as f64 / opt as f64 - 1.0)
    );
    Ok(())
}
