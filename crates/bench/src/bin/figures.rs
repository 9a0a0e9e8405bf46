//! Regenerates the paper's figures and tables; see [`wiser_bench::figures`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    wiser_bench::figures::figures_main(&args)
}
