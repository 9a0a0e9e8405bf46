//! Runs every figure/table generator in sequence (train inputs; case
//! studies at ref). Writes all artifacts under `results/`.

use std::process::Command;

fn main() {
    let bins = [
        "fig01",
        "fig02",
        "fig04",
        "fig06_table1",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "attribution_accuracy",
        "case_studies",
    ];
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("bin dir");
    for bin in bins {
        eprintln!("==> {bin}");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
}
