//! `perfbench --workload NAME --seed N --seconds N --trace 0|1 [--smoke]
//! [--record]`: runs one workload and prints a provenance line, then the
//! result as the last line of standard output.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(outcome) => {
            if let Some(lines) = &outcome.recorded {
                print!("{lines}");
                return ExitCode::SUCCESS;
            }
            if let Some(f) = &outcome.first_failure {
                eprintln!("perfbench: first failure: {f}");
            }
            println!("{}", outcome.provenance_json());
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
