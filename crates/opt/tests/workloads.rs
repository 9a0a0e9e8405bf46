//! Builder/encode-drift guard over the real workload suite: every rewritten
//! workload module must validate, print through `asm::text`'s renderer and
//! re-assemble to byte-identical sections. A transform that emits something
//! the encoder and printer disagree on fails here even when the simulator
//! happens to execute it correctly.

use wiser_dbi::{instrument_run, DbiConfig};
use wiser_isa::{assemble, module_to_text};
use wiser_opt::{optimize_modules, OptimizeOptions};
use wiser_sim::{LoadConfig, ProcessImage};
use wiser_workloads::InputSize;

#[test]
fn rewritten_workloads_round_trip_through_the_text_assembler() {
    let mut names: Vec<&'static str> = vec!["recip_loop"];
    names.extend(wiser_workloads::spec_suite().iter().map(|w| w.name));
    for name in names {
        let modules = wiser_workloads::by_name(name)
            .unwrap_or_else(|| panic!("workload {name} not registered"))
            .build(InputSize::Test)
            .unwrap_or_else(|e| panic!("assembling {name}: {e}"));
        let image = ProcessImage::load(&modules, &LoadConfig::default())
            .unwrap_or_else(|e| panic!("{name}: load: {e}"));
        let counts = instrument_run(&image, &DbiConfig::default())
            .unwrap_or_else(|e| panic!("{name}: instrument: {e}"));
        let (rewritten, log) =
            optimize_modules(&modules, &counts, None, &OptimizeOptions::default())
                .unwrap_or_else(|e| panic!("{name}: optimize: {e}"));
        for module in &rewritten {
            module
                .validate()
                .unwrap_or_else(|e| panic!("{name}/{}: validate: {e}\n{log:?}", module.name));
            let text = module_to_text(module)
                .unwrap_or_else(|e| panic!("{name}/{}: render: {e}", module.name));
            let again = assemble(&module.name, &text).unwrap_or_else(|e| {
                panic!(
                    "{name}/{}: re-assemble: {e}\n--- rendered ---\n{text}",
                    module.name
                )
            });
            assert_eq!(
                module.text, again.text,
                "{name}/{}: text re-encoding drifted",
                module.name
            );
            assert_eq!(
                module.data, again.data,
                "{name}/{}: data re-encoding drifted",
                module.name
            );
            assert_eq!(
                module.bss_size, again.bss_size,
                "{name}/{}: bss size drifted",
                module.name
            );
            assert_eq!(
                module.entry, again.entry,
                "{name}/{}: entry point drifted",
                module.name
            );
        }
    }
}
