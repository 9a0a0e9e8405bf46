//! The split workflow: run `sample` and `instrument` separately, persist
//! each profile as a checkpoint image (as the CLI does), reload, and verify
//! the analysis is identical to the in-memory pipeline.

use std::path::{Path, PathBuf};

use optiwise::{module_fingerprint, Analysis, AnalysisOptions, OptiwiseConfig};
use wiser_dbi::{instrument_run, CountsProfile, DbiConfig};
use wiser_isa::Module;
use wiser_sampler::{sample_run, SampleProfile, SamplerConfig};
use wiser_sim::{CoreConfig, LoadConfig, ProcessImage};
use wiser_store::{atomic_write, Checkpoint, CheckpointSpec};
use wiser_workloads::InputSize;

/// Writes one pass's profile to `path` as the split commands do — a
/// checkpoint image with the run spec and one profile section — and loads
/// it back.
fn save_and_load(
    path: &Path,
    name: &str,
    modules: &[Module],
    samples: Option<SampleProfile>,
    counts: Option<CountsProfile>,
) -> Checkpoint {
    let spec = CheckpointSpec::from_config(
        module_fingerprint(modules),
        name,
        "test",
        "xeon",
        &[],
        &OptiwiseConfig::default(),
        0,
    );
    let mut ckpt = Checkpoint::fresh(spec);
    ckpt.samples = samples;
    ckpt.counts = counts;
    atomic_write(path, &ckpt.to_bytes()).unwrap();
    let back = Checkpoint::load(path).unwrap();
    assert_eq!(back, ckpt);
    assert_eq!(back.spec.module_hash, module_fingerprint(modules));
    back
}

/// A fresh scratch directory for one test, removed when the test ends. It
/// is per test and per process and cleared first, so files of an earlier
/// run never mix in.
struct Scratch(PathBuf);

fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("optiwise-io-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

impl Scratch {
    /// The path of `file` inside the directory.
    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn profiles_roundtrip_through_checkpoint_files() {
    let modules = wiser_workloads::by_name("stack_attr")
        .unwrap()
        .build(InputSize::Test)
        .unwrap();
    let dir = scratch("roundtrip");

    // Pass 1: sampling.
    let load_a = LoadConfig {
        aslr_seed: Some(7),
        ..LoadConfig::default()
    };
    let image_a = ProcessImage::load(&modules, &load_a).unwrap();
    let (samples, _) = sample_run(
        &image_a,
        0,
        CoreConfig::xeon_like(),
        SamplerConfig::with_period(200),
        100_000_000,
    )
    .unwrap();

    // Pass 2: instrumentation under another layout.
    let load_b = LoadConfig {
        aslr_seed: Some(8),
        ..LoadConfig::default()
    };
    let image_b = ProcessImage::load(&modules, &load_b).unwrap();
    let counts = instrument_run(&image_b, &DbiConfig::default()).unwrap();

    // Persist both to disk and reload (the `optiwise sample/instrument/
    // analyze` workflow). Each file carries only its own pass.
    let sp = save_and_load(
        &dir.path("samples.owp"),
        "stack_attr",
        &modules,
        Some(samples.clone()),
        None,
    );
    let cp = save_and_load(
        &dir.path("counts.owp"),
        "stack_attr",
        &modules,
        None,
        Some(counts.clone()),
    );
    assert!(sp.counts.is_none() && cp.samples.is_none());
    let samples2 = sp.samples.unwrap();
    let counts2 = cp.counts.unwrap();
    assert_eq!(samples, samples2);
    assert_eq!(counts, counts2);

    // Analyses agree.
    let linked: Vec<Module> = image_b.modules.iter().map(|m| m.linked.clone()).collect();
    let fresh = Analysis::new(&linked, &samples, &counts, AnalysisOptions::default());
    let reloaded = Analysis::new(&linked, &samples2, &counts2, AnalysisOptions::default());
    assert_eq!(fresh.total_cycles, reloaded.total_cycles);
    assert_eq!(fresh.total_insns, reloaded.total_insns);
    assert_eq!(fresh.loops().len(), reloaded.loops().len());
    for (a, b) in fresh.loops().iter().zip(reloaded.loops()) {
        assert_eq!(a, b);
    }
    for (a, b) in fresh.functions().iter().zip(reloaded.functions()) {
        assert_eq!(a, b);
    }
}

#[test]
fn large_profile_roundtrip() {
    // A bigger, branchier workload stresses the serializers (indirect
    // target lists, callee tables, many blocks).
    let modules = wiser_workloads::by_name("xalancbmk_like")
        .unwrap()
        .build(InputSize::Test)
        .unwrap();
    let image = ProcessImage::load(&modules, &LoadConfig::default()).unwrap();
    let counts = instrument_run(&image, &DbiConfig::default()).unwrap();
    let dir = scratch("large");
    let back = save_and_load(
        &dir.path("xalanc.owp"),
        "xalancbmk_like",
        &modules,
        None,
        Some(counts.clone()),
    )
    .counts
    .unwrap();
    assert_eq!(counts, back);
    assert!(
        back.blocks.iter().any(|b| !b.targets.is_empty()),
        "indirect targets survived the roundtrip"
    );
    assert!(!back.callee_counts.is_empty());
}
