//! Failure-injection and degenerate-input tests: empty profiles, mismatched
//! fusion inputs, loop-free programs, immediate exits, undersampling.

use optiwise::{run_optiwise, Analysis, AnalysisOptions, OptiwiseConfig};
use wiser_dbi::{instrument_run, CountsProfile, DbiConfig};
use wiser_isa::{assemble, Module};
use wiser_sampler::{sample_run, SampleProfile, SamplerConfig};
use wiser_sim::{CoreConfig, ProcessImage, TruncationReason};
use wiser_store::{Checkpoint, CheckpointSpec};

fn immediate_exit() -> Module {
    assemble(
        "exit",
        r#"
        .func _start global
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#,
    )
    .unwrap()
}

#[test]
fn immediate_exit_profiles_cleanly() {
    let run = run_optiwise(&[immediate_exit()], &OptiwiseConfig::default()).unwrap();
    assert_eq!(run.timed.stats.retired, 3);
    assert!(run.analysis.loops().is_empty());
    // The raw profile may have its one block counter suppressed by the
    // minimal placement; the recovered view restores the exact total.
    assert_eq!(run.analysis.total_insns, 3);
    assert_eq!(wiser_cfg::recover(&run.counts).unwrap().total_insns(), 3);
    // Too short to be sampled even once.
    assert!(run.samples.samples.is_empty());
    // The report still renders.
    let text = optiwise::report::full_report(&run.analysis, 5);
    assert!(text.contains("OptiWISE report"));
}

#[test]
fn analysis_tolerates_empty_samples() {
    let module = immediate_exit();
    let image = ProcessImage::load_single(&module).unwrap();
    let counts = instrument_run(&image, &DbiConfig::default()).unwrap();
    let empty = SampleProfile::default();
    let linked: Vec<Module> = image.modules.iter().map(|m| m.linked.clone()).collect();
    let analysis = Analysis::new(&linked, &empty, &counts, AnalysisOptions::default());
    assert_eq!(analysis.total_cycles, 0);
    assert_eq!(analysis.total_insns, 3);
    let rows = analysis.annotate_function(0, "_start");
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r.samples == 0));
    // CPI defined (zero cycles over real counts), never panicking.
    assert!(rows.iter().all(|r| r.cpi == Some(0.0)));
}

#[test]
fn analysis_tolerates_empty_counts() {
    let module = immediate_exit();
    let image = ProcessImage::load_single(&module).unwrap();
    let (samples, _) = sample_run(
        &image,
        0,
        CoreConfig::xeon_like(),
        SamplerConfig::with_period(1),
        1_000,
    )
    .unwrap();
    let linked: Vec<Module> = image.modules.iter().map(|m| m.linked.clone()).collect();
    let empty = CountsProfile {
        module_names: vec!["exit".into()],
        ..CountsProfile::default()
    };
    let analysis = Analysis::new(&linked, &samples, &empty, AnalysisOptions::default());
    assert_eq!(analysis.total_insns, 0);
    // Samples exist but nothing executed according to counts: CPI is None
    // (the "sampling skid into cold code" representation).
    for row in analysis.annotate_function(0, "_start") {
        assert_eq!(row.count, 0);
        assert!(row.cpi.is_none());
    }
}

/// Regression pin: degenerate profiles (no samples, no counts, or both
/// empty) must keep the divergence score finite and every report cell
/// numeric or `-`. A NaN score silently disables the `--strict` divergence
/// gate (`NaN > threshold` is false) and a NaN report cell corrupts the
/// byte-identical determinism contract.
#[test]
fn degenerate_profiles_keep_divergence_finite_and_reports_nan_free() {
    let module = immediate_exit();
    let image = ProcessImage::load_single(&module).unwrap();
    let linked: Vec<Module> = image.modules.iter().map(|m| m.linked.clone()).collect();
    let counts = instrument_run(&image, &DbiConfig::default()).unwrap();
    let empty_counts = CountsProfile {
        module_names: vec!["exit".into()],
        ..CountsProfile::default()
    };
    let empty_samples = SampleProfile::default();
    let (real_samples, _) = sample_run(
        &image,
        0,
        CoreConfig::xeon_like(),
        SamplerConfig::with_period(1),
        1_000,
    )
    .unwrap();

    let cases: Vec<(&str, Analysis)> = vec![
        (
            "no samples",
            Analysis::new(&linked, &empty_samples, &counts, AnalysisOptions::default()),
        ),
        (
            "no counts",
            Analysis::new(
                &linked,
                &real_samples,
                &empty_counts,
                AnalysisOptions::default(),
            ),
        ),
        (
            "nothing at all",
            Analysis::new(
                &linked,
                &empty_samples,
                &empty_counts,
                AnalysisOptions::default(),
            ),
        ),
    ];
    for (label, analysis) in &cases {
        let d = &analysis.diagnostics;
        assert!(
            d.divergence_score.is_finite(),
            "{label}: divergence score {}",
            d.divergence_score
        );
        // A finite score keeps the strict gate decidable either way.
        assert!(
            !d.diverged(f64::INFINITY),
            "{label}: infinite threshold must never trip"
        );
        for text in [
            d.summary(),
            optiwise::report::full_report(analysis, 10),
            format!(
                "{:?}",
                analysis
                    .functions()
                    .iter()
                    .map(|f| f.cpi())
                    .collect::<Vec<_>>()
            ),
        ] {
            assert!(!text.contains("NaN"), "{label}: NaN leaked into: {text}");
            assert!(!text.contains("inf"), "{label}: inf leaked into: {text}");
        }
    }
}

/// A zero-sample sampled run fused with real counts is *not* divergent —
/// there is no evidence of disagreement, only of undersampling — so it
/// must pass the strict gate rather than score NaN or trip it.
#[test]
fn zero_sample_full_run_passes_strict_gate_with_finite_score() {
    let run = run_optiwise(
        &[immediate_exit()],
        &OptiwiseConfig {
            strict: true,
            ..OptiwiseConfig::default()
        },
    )
    .unwrap();
    assert!(run.samples.samples.is_empty());
    assert!(run.analysis.diagnostics.divergence_score.is_finite());
    assert_eq!(run.analysis.diagnostics.divergence_score, 0.0);
}

#[test]
fn undersampled_run_yields_no_samples_but_valid_profile() {
    let module = assemble(
        "short",
        r#"
        .func _start global
            li x8, 50
            li x9, 0
        loop:
            subi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#,
    )
    .unwrap();
    let image = ProcessImage::load_single(&module).unwrap();
    let mut cfg = SamplerConfig::with_period(1_000_000);
    cfg.jitter = 0;
    let (profile, run) = sample_run(&image, 0, CoreConfig::xeon_like(), cfg, 100_000).unwrap();
    assert!(profile.samples.is_empty());
    assert!(run.stats.cycles < 1_000_000);
    // Round-trips through the binary codec even when empty.
    let mut ckpt = Checkpoint::fresh(CheckpointSpec::from_config(
        0,
        "tiny",
        "test",
        "xeon",
        &[],
        &OptiwiseConfig::default(),
        0,
    ));
    ckpt.samples = Some(profile.clone());
    let back = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    assert_eq!(back.samples, Some(profile));
}

#[test]
fn dbi_instruction_limit_yields_partial_profile() {
    let module = assemble(
        "spin",
        ".func _start global\nspin: jmp spin\n.endfunc\n.entry _start",
    )
    .unwrap();
    let image = ProcessImage::load_single(&module).unwrap();
    let counts = instrument_run(
        &image,
        &DbiConfig {
            max_insns: 5_000,
            ..DbiConfig::default()
        },
    )
    .unwrap();
    // The limit still binds, but the work done so far is kept and labelled.
    assert_eq!(counts.truncated, Some(TruncationReason::InsnLimit(5_000)));
    assert!(counts.total_insns() > 0);
    assert!(counts.total_insns() <= 5_000);
}

#[test]
fn straight_line_program_has_no_loops_or_back_edges() {
    let module = assemble(
        "line",
        r#"
        .func _start global
            li x1, 1
            addi x1, x1, 2
            mul x1, x1, x1
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#,
    )
    .unwrap();
    let run = run_optiwise(&[module], &OptiwiseConfig::default()).unwrap();
    assert!(run.analysis.loops().is_empty());
    assert_eq!(run.analysis.functions().len(), 1);
}
