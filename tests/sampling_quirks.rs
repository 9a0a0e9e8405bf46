//! Integration tests for the sampling-attribution phenomena of §II-A/§V-B
//! (figures 2, 8, 9), run at test scale.

use wiser_isa::Disassembly;
use wiser_sampler::{sample_run, Attribution, SamplerConfig};
use wiser_sim::{CodeLoc, CoreConfig, FastMap, ModuleId, ProcessImage};
use wiser_workloads::InputSize;

fn image_of(name: &str) -> ProcessImage {
    let modules = wiser_workloads::by_name(name)
        .unwrap()
        .build(InputSize::Test)
        .unwrap();
    ProcessImage::load_single(&modules[0]).unwrap()
}

fn offset_of(image: &ProcessImage, prefix: &str) -> u64 {
    Disassembly::of_module(&image.modules[0].linked)
        .unwrap()
        .lines()
        .iter()
        .find(|l| l.text.starts_with(prefix))
        .unwrap_or_else(|| panic!("no instruction starting `{prefix}`"))
        .offset
}

fn samples_at(
    image: &ProcessImage,
    core: CoreConfig,
    attribution: Attribution,
) -> FastMap<CodeLoc, (u64, u64)> {
    let cfg = SamplerConfig {
        attribution,
        ..SamplerConfig::with_period(127)
    };
    let (profile, _) = sample_run(image, 0, core, cfg, 100_000_000).unwrap();
    profile.by_location()
}

fn get(map: &FastMap<CodeLoc, (u64, u64)>, offset: u64) -> u64 {
    map.get(&CodeLoc {
        module: ModuleId(0),
        offset,
    })
    .map(|&(n, _)| n)
    .unwrap_or(0)
}

/// Figure 8: with interrupt attribution the instruction *after* the slow
/// store dominates; with precise attribution the store itself does.
#[test]
fn slow_store_skid_and_precision() {
    let image = image_of("slow_store");
    let store = offset_of(&image, "st.4");

    let interrupt = samples_at(&image, CoreConfig::xeon_like(), Attribution::Interrupt);
    let successor_hits = get(&interrupt, store + 8);
    let store_hits = get(&interrupt, store);
    assert!(
        successor_hits > 3 * store_hits.max(1),
        "skid: successor {successor_hits} vs store {store_hits}"
    );

    let precise = samples_at(&image, CoreConfig::xeon_like(), Attribution::Precise);
    let store_precise = get(&precise, store);
    let successor_precise = get(&precise, store + 8);
    assert!(
        store_precise > 3 * successor_precise.max(1),
        "precise: store {store_precise} vs successor {successor_precise}"
    );
}

/// §III: predecessor attribution re-lands skidded samples on the store.
#[test]
fn predecessor_heuristic_recovers_the_store() {
    let image = image_of("slow_store");
    let store = offset_of(&image, "st.4");
    let pred = samples_at(&image, CoreConfig::xeon_like(), Attribution::Predecessor);
    let store_hits = get(&pred, store);
    let successor_hits = get(&pred, store + 8);
    assert!(
        store_hits > 3 * successor_hits.max(1),
        "predecessor: store {store_hits} vs successor {successor_hits}"
    );
}

/// Figure 9: on the early-release core the hottest displaced instruction
/// sits tens of instructions after the divide; on the in-order core it is
/// the immediate successor.
#[test]
fn early_release_displacement() {
    let image = image_of("udiv_chain");
    let udiv = offset_of(&image, "udiv");

    let displaced_peak = |core: CoreConfig| {
        let map = samples_at(&image, core, Attribution::Interrupt);
        map.into_iter()
            .filter(|(loc, _)| loc.offset > udiv)
            .max_by_key(|&(_, (n, _))| n)
            .map(|(loc, _)| ((loc.offset - udiv) / 8) as i64)
            .unwrap_or(0)
    };
    assert_eq!(displaced_peak(CoreConfig::xeon_like()), 1, "in-order skid");
    let early = displaced_peak(CoreConfig::neoverse_like());
    assert!(
        (30..=60).contains(&early),
        "early-release peak at +{early}, expected tens of instructions"
    );
}

/// The sampling run's overhead estimate stays near 1x (§V-A: geomean
/// 1.01x).
#[test]
fn sampling_overhead_near_unity() {
    let image = image_of("fig1_motivating");
    let (profile, _) = sample_run(
        &image,
        0,
        CoreConfig::xeon_like(),
        SamplerConfig::default(),
        100_000_000,
    )
    .unwrap();
    let overhead = wiser_sampler::sampling_overhead(&profile);
    assert!(overhead < 1.05, "{overhead}");
}

/// Skid rewind respects module boundaries through the full sampler path:
/// in a two-module process where the hot callee starts at its module's
/// offset 0, every sample and every unwound stack frame stays inside the
/// text of the module it belongs to, the callee's first instruction (which
/// is also the module's first instruction) collects samples under its own
/// module id, and samples inside the callee unwind to the exact call-site
/// offset in the main module.
#[test]
fn two_module_samples_and_stacks_stay_within_module_text() {
    let main = wiser_isa::assemble(
        "main",
        r#"
        .import lib_spin
        .func _start global
            li x7, 0
            li x8, 4000
        outer:
            call lib_spin
            subi x8, x8, 1
            bne x8, x7, outer
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#,
    )
    .unwrap();
    let lib = wiser_isa::assemble(
        "lib",
        r#"
        .func lib_spin global
            li x2, 6
        inner:
            mul x3, x2, x2
            subi x2, x2, 1
            bne x2, x7, inner
            ret
        .endfunc
        "#,
    )
    .unwrap();
    let image = ProcessImage::load(&[main, lib], &wiser_sim::LoadConfig::default()).unwrap();
    let (profile, _) = sample_run(
        &image,
        0,
        CoreConfig::xeon_like(),
        SamplerConfig::with_period(127),
        100_000_000,
    )
    .unwrap();

    let text_size = |id: ModuleId| image.modules[id.0 as usize].text_size;
    for s in &profile.samples {
        assert!(
            s.loc.offset < text_size(s.loc.module),
            "sample at {:?} outside its module's text",
            s.loc
        );
        for f in &s.stack {
            assert!(
                f.offset < text_size(f.module),
                "stack frame at {f:?} outside its module's text"
            );
        }
    }

    let lib_id = image.modules[1].id;
    let in_lib: Vec<_> = profile
        .samples
        .iter()
        .filter(|s| s.loc.module == lib_id)
        .collect();
    assert!(in_lib.len() > 50, "only {} samples in lib", in_lib.len());

    // The callee entry is both a function-first and a module-first
    // instruction; samples landing there must be kept at lib+0, not rewound
    // into whatever module is mapped below in memory.
    let entry_hits: u64 = in_lib
        .iter()
        .filter(|s| s.loc.offset < 16)
        .map(|s| s.weight)
        .sum();
    assert!(entry_hits > 0, "no samples near lib_spin entry");

    // Cross-module unwind: frames for lib samples rewind to the exact call
    // site in main (`call lib_spin` is the 3rd instruction of `_start`).
    let call_site = CodeLoc {
        module: image.modules[0].id,
        offset: 16,
    };
    let unwound = in_lib
        .iter()
        .filter(|s| s.stack.contains(&call_site))
        .count();
    assert!(
        unwound > 10,
        "only {unwound} lib samples unwound to call site"
    );
}

/// The analysis-side skid excuse is bounded at module offset 0: a sample on
/// a module's first instruction has no predecessor to excuse it, so when
/// that instruction never executed the sample is phantom (and the
/// `offset - INSN_BYTES` rewind must not underflow). One instruction later
/// the same rule applies against the real predecessor: unexecuted
/// predecessor keeps the sample phantom, an executed predecessor excuses a
/// zero-count sample (the never-taken fall-through case).
#[test]
fn skid_excuse_is_bounded_at_module_offset_zero() {
    let module = wiser_isa::assemble(
        "skid",
        r#"
        .func cold
            addi x1, x1, 1
            ret
        .endfunc
        .func _start global
            li x8, 1
            li x9, 0
            beq x8, x8, skip
            addi x1, x1, 1
        skip:
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#,
    )
    .unwrap();
    let image = ProcessImage::load_single(&module).unwrap();
    let counts = wiser_dbi::instrument_run(&image, &wiser_dbi::DbiConfig::default()).unwrap();
    let linked: Vec<_> = image.modules.iter().map(|m| m.linked.clone()).collect();

    let at = |offset: u64| wiser_sampler::Sample {
        loc: CodeLoc {
            module: ModuleId(0),
            offset,
        },
        weight: 100,
        stack: Vec::new(),
    };
    let samples = wiser_sampler::SampleProfile {
        module_names: vec![module.name.clone()],
        samples: vec![
            at(0),  // cold module-first insn: phantom, rewind must not underflow
            at(8),  // cold insn with cold predecessor: phantom
            at(40), // never-taken fall-through after executed `beq`: excused
            at(16), // executed `_start` entry: ordinary
        ],
        period: 100,
        total_cycles: 400,
        retired: counts.total_insns(),
        ..Default::default()
    };

    let analysis = optiwise::Analysis::new(
        &linked,
        &samples,
        &counts,
        optiwise::AnalysisOptions::default(),
    );
    let d = &analysis.diagnostics;
    assert_eq!(d.phantom_samples, 2, "{}", d.summary());
    assert_eq!(d.phantom_cycles, 200);
}

/// Sample weights conserve cycles: the attributed total never exceeds the
/// run's cycles and covers most of them.
#[test]
fn weights_conserve_cycles() {
    let image = image_of("loop_merge");
    let (profile, run) = sample_run(
        &image,
        0,
        CoreConfig::xeon_like(),
        SamplerConfig::with_period(64),
        100_000_000,
    )
    .unwrap();
    let attributed = profile.total_weight();
    assert!(attributed <= run.stats.cycles);
    assert!(attributed * 10 >= run.stats.cycles * 9);
}
