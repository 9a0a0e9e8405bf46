//! End-to-end tests of the binary profile store: lossless round-trips,
//! byte-determinism across thread counts, and fail-closed behaviour under
//! every flavour of file damage (bit flips, truncation, header corruption),
//! driven by the same seeded fault harness as the pipeline tests.

use optiwise::report::full_report;
use optiwise::{run_optiwise, Analysis, OptiwiseConfig, OptiwiseError, ProfileTables};
use wiser_isa::Module;
use wiser_sim::FaultPlan;
use wiser_store::{read_sections, section_spans, write_store, StoredProfile, MAGIC};

fn profile() -> StoredProfile {
    let modules = wiser_workloads::by_name("recip_loop")
        .expect("recip_loop workload registered")
        .build(wiser_workloads::InputSize::Test)
        .unwrap();
    let run = run_optiwise(&modules, &OptiwiseConfig::default()).unwrap();
    StoredProfile::from_run(
        "recip_loop",
        &run,
        0,
        "xeon",
        wiser_sim::CoreConfig::xeon_like(),
    )
}

#[test]
fn save_load_resave_is_byte_identical() {
    let stored = profile();
    let bytes = stored.to_bytes();

    let dir = std::env::temp_dir().join(format!("owp-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.owp");
    stored.save(&path).unwrap();

    let loaded = StoredProfile::load(&path).unwrap();
    assert_eq!(loaded.meta.label, "recip_loop");
    assert_eq!(loaded.tables, stored.tables);
    assert_eq!(loaded.to_bytes(), bytes, "re-save must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stored_bytes_are_identical_for_every_thread_count() {
    let modules = wiser_workloads::by_name("recip_loop")
        .unwrap()
        .build(wiser_workloads::InputSize::Test)
        .unwrap();
    let mut images = Vec::new();
    for jobs in [1usize, 2, 8] {
        let mut cfg = OptiwiseConfig::default();
        cfg.analysis.jobs = jobs;
        cfg.concurrent_passes = jobs > 1;
        let run = run_optiwise(&modules, &cfg).unwrap();
        images.push(
            StoredProfile::from_run(
                "recip_loop",
                &run,
                0,
                "xeon",
                wiser_sim::CoreConfig::xeon_like(),
            )
            .to_bytes(),
        );
    }
    assert_eq!(images[0], images[1], "--jobs 2 must not change the file");
    assert_eq!(images[0], images[2], "--jobs 8 must not change the file");
}

/// Every hash map in the analysis draws its own seed, so two analyses of
/// one run in one process iterate their maps in different orders. Their
/// tables, report text and `.owp` bytes must still be identical: anything
/// that leaks a map's order into output fails here.
#[test]
fn reanalysis_in_one_process_is_identical() {
    let modules = wiser_workloads::by_name("mcf_like")
        .unwrap()
        .build(wiser_workloads::InputSize::Test)
        .unwrap();
    let run = run_optiwise(&modules, &OptiwiseConfig::default()).unwrap();
    let linked: Vec<Module> = run
        .analysis
        .modules
        .iter()
        .map(|m| m.module().clone())
        .collect();
    let mut stored = StoredProfile::from_run(
        "mcf_like",
        &run,
        0,
        "xeon",
        wiser_sim::CoreConfig::xeon_like(),
    );
    let first = stored.to_bytes();
    let report = full_report(&run.analysis, 20);
    assert!(run.analysis.loops().len() > 1 && linked.len() > 1);
    for _ in 0..4 {
        let again = Analysis::new(
            &linked,
            &run.samples,
            &run.counts,
            OptiwiseConfig::default().analysis,
        );
        assert_eq!(full_report(&again, 20), report);
        stored.tables = ProfileTables::from_analysis(&again);
        assert_eq!(stored.tables, ProfileTables::from_analysis(&run.analysis));
        assert_eq!(stored.to_bytes(), first);
    }
}

#[test]
fn every_section_rejects_targeted_bit_flips() {
    let bytes = profile().to_bytes();
    let spans = section_spans(&bytes).unwrap();
    assert!(
        spans
            .iter()
            .map(|(tag, _, _)| tag.as_str())
            .eq(["META", "SAMP", "CNTS", "TABL", "COVR", "UCFG"]),
        "fixture should carry all six sections, got {spans:?}"
    );
    for (tag, start, end) in &spans {
        // First, middle and last payload byte of each section; the store's
        // unit tests sweep every bit of the whole image.
        for pos in [*start, (*start + *end) / 2, *end - 1] {
            let mut damaged = bytes.clone();
            damaged[pos as usize] ^= 0x10;
            let err = match StoredProfile::from_bytes(&damaged) {
                Ok(_) => panic!("flip inside {tag} payload at byte {pos} undetected"),
                Err(e) => e,
            };
            let msg = err.to_string();
            assert!(
                msg.contains("byte"),
                "error for {tag} flip should cite an offset: {msg}"
            );
        }
    }
}

#[test]
fn seeded_fault_corruption_is_always_rejected() {
    let stored = profile();
    let bytes = stored.to_bytes();
    for seed in 0..64u64 {
        let plan = FaultPlan::parse(&format!("seed={seed},corrupt")).unwrap();
        let damaged = plan.corrupt_bytes(&bytes);
        assert_ne!(damaged, bytes, "seed {seed} must flip a bit");
        // Every single-bit flip past the header lands inside a CRC-covered
        // section frame: decoding must fail closed, never panic.
        assert!(
            StoredProfile::from_bytes(&damaged).is_err(),
            "seed {seed}: corrupted image decoded successfully"
        );
    }
}

#[test]
fn truncation_at_every_length_is_rejected_without_panic() {
    let bytes = profile().to_bytes();
    for len in 0..bytes.len() {
        let err = StoredProfile::from_bytes(&bytes[..len])
            .expect_err("every proper prefix must be rejected");
        assert!(matches!(OptiwiseError::from(err).exit_code(), 6));
    }
}

#[test]
fn header_damage_is_diagnosed() {
    let bytes = profile().to_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    let msg = StoredProfile::from_bytes(&bad_magic)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("magic"), "bad magic should be named: {msg}");

    let mut bad_version = bytes.clone();
    bad_version[8] = 0x7f;
    let msg = StoredProfile::from_bytes(&bad_version)
        .unwrap_err()
        .to_string();
    assert!(
        msg.contains("version"),
        "bad version should be named: {msg}"
    );
}

#[test]
fn unknown_sections_are_skipped_for_forward_compatibility() {
    let stored = profile();
    let bytes = stored.to_bytes();
    let sections: Vec<([u8; 4], Vec<u8>)> = read_sections(&bytes)
        .unwrap()
        .iter()
        .map(|s| (s.tag, s.payload.to_vec()))
        .collect();

    // A future writer appends a section this reader has never heard of.
    let mut extended = sections.clone();
    extended.insert(1, (*b"FUTR", b"from-the-future".to_vec()));
    let image = write_store(&extended);
    assert_eq!(&image[..8], &MAGIC);
    let decoded = StoredProfile::from_bytes(&image).unwrap();
    assert_eq!(decoded.tables, stored.tables);
    assert_eq!(decoded.meta.label, stored.meta.label);
}
