//! `optiwise fuzz` — deterministic hostile-input sweep over the serving
//! stack's four decode surfaces.
//!
//! The generic engine (mutators, allocation tracking, invariants) lives in
//! `wiser-chaos`; this module defines what to fuzz: the `.owp` profile
//! decoder, the checkpoint decoder, the archive manifest decoder and the
//! daemon's JSONL codec, each wrapped as a [`Surface`] whose decode
//! re-encodes canonically on acceptance. Seeds fan out on the shared
//! `wiser-par` pool exactly like `selfcheck`, and the report is assembled
//! in seed order, so the output is byte-identical for every `--jobs`
//! count. Any invariant violation exits 13
//! ([`OptiwiseError::FuzzViolation`]) with `surface:seed` reproducers.
//!
//! Every decoder runs under `ResourceLimits::fuzzing()` — the same budget
//! the engine's alloc invariant enforces — so the sweep also proves the
//! decode-side clamps work: re-introduce the decode bomb (the
//! `WISER_STORE_UNSAFE_PREALLOC=1` test bypass) and the planted
//! bomb inputs flip from clean rejections to alloc-budget violations.

use std::fmt::Write as _;

use optiwise::{OptiwiseConfig, OptiwiseError, ResourceLimits};
use rand::Rng;
use wiser_archive::{Manifest, ManifestEntry, RunStatus};
use wiser_chaos::{mutate, run_case, CaseOutcome, Surface};
use wiser_sampler::{Attribution, StackMode};
use wiser_store::{write_store, Checkpoint, CheckpointSpec, StoredProfile};
use wiser_workloads::InputSize;

use crate::jsonl;
use crate::Options;

/// The four decode surfaces, in report order.
pub(crate) const SURFACE_NAMES: [&str; 4] = ["profile", "checkpoint", "manifest", "jsonl"];

/// Declared module-name count of the planted decode bomb: wire-plausible
/// (4 bytes per empty name) but memory-amplified to ~24 bytes each, far
/// past the fuzzing decode budget. Under the production clamps this is a
/// clean typed rejection; with the clamps bypassed it is an alloc-budget
/// violation the engine catches.
const BOMB_NAMES: usize = 2 << 20;

/// A `SAMP` section declaring [`BOMB_NAMES`] empty module names: the
/// canonical decode bomb, valid down to every checksum.
fn samp_bomb() -> Vec<u8> {
    let mut payload = (BOMB_NAMES as u64).to_le_bytes().to_vec();
    // Each empty name is a zero u32 length on the wire, so the declared
    // count exactly matches the bytes that follow — wire-plausible.
    payload.resize(8 + 4 * BOMB_NAMES, 0);
    write_store(&[(*b"SAMP", payload)])
}

/// The rich end of the corpus: a real profile from an end-to-end pipeline
/// run of a small workload, carrying every section kind (META, SAMP,
/// CNTS, TABL, COVR). Deterministic: fixed workload, size and seed.
fn pipeline_profile() -> Result<StoredProfile, OptiwiseError> {
    let modules = crate::build_named_workload("loop_merge", InputSize::Test)?;
    let config = OptiwiseConfig::default();
    let run = optiwise::run_optiwise(&modules, &config)?;
    Ok(StoredProfile::from_run("fuzz-corpus", &run, config.rand_seed, "xeon", config.core))
}

fn profile_corpus() -> Result<Vec<Vec<u8>>, OptiwiseError> {
    let rich = pipeline_profile()?;
    let mut transformed = rich.clone();
    transformed.transforms.notes = vec!["fuzz: corpus variant with XFRM".into()];
    let mut minimal = rich.clone();
    minimal.samples = None;
    minimal.counts = None;
    Ok(vec![rich.to_bytes(), transformed.to_bytes(), minimal.to_bytes()])
}

fn checkpoint_corpus() -> Result<Vec<Vec<u8>>, OptiwiseError> {
    let spec = CheckpointSpec {
        module_hash: 0x0f1e_2d3c_4b5a_6978,
        workload: "loop_merge".into(),
        size: "test".into(),
        arch: "xeon".into(),
        overrides: Vec::new(),
        rand_seed: 0,
        period: 2048,
        jitter: 512,
        sampler_seed: 0x5eed,
        attribution: Attribution::Interrupt,
        stacks: StackMode::Accurate,
        stack_profiling: true,
        merge_threshold: Some(16),
        max_insns: 200_000_000,
        strict: false,
        allow_partial: true,
        checkpoint_every: 10_000,
    };
    let fresh = Checkpoint::fresh(spec);
    let mut partial = fresh.clone();
    let rich = pipeline_profile()?;
    partial.samples = rich.samples;
    partial.counts = rich.counts;
    partial.sample_pos = 1500;
    partial.counts_pos = 900;
    // The single-pass images `optiwise sample --out` and
    // `optiwise instrument --out` write.
    let mut samples_only = partial.clone();
    samples_only.counts = None;
    let mut counts_only = partial.clone();
    counts_only.samples = None;
    Ok(vec![
        fresh.to_bytes(),
        partial.to_bytes(),
        samples_only.to_bytes(),
        counts_only.to_bytes(),
    ])
}

fn manifest_corpus() -> Vec<Vec<u8>> {
    let empty = Manifest::new();
    let mut populated = Manifest::new();
    for (id, status) in [(1, RunStatus::Committed), (2, RunStatus::Quarantined), (3, RunStatus::Committed)] {
        populated.insert(ManifestEntry {
            run_id: id,
            file: ManifestEntry::file_name(id),
            workload: format!("workload-{id}"),
            fingerprint: 0x1000 + id,
            rand_seed: id,
            bytes: 4096 * id,
            crc: 0xc0de_0000 + id as u32,
            status,
        });
    }
    vec![empty.to_bytes(), populated.to_bytes()]
}

fn jsonl_corpus() -> Vec<Vec<u8>> {
    [
        r#"{"cmd":"submit","seed":7,"size":"test","workload":"loop_merge"}"#,
        r#"{"cmd":"ping"}"#,
        r#"{"ok":true,"pending":0,"runs":3}"#,
        r#"{"error":"busy","ok":false}"#,
        "{}",
    ]
    .iter()
    .map(|line| line.as_bytes().to_vec())
    .collect()
}

/// `.owp` structured mutation: mostly frame-aware container surgery, with
/// an occasional planted decode bomb when `bombs` is set.
fn owp_structured(bombs: bool) -> wiser_chaos::StructuredFn {
    Box::new(move |rng, base| {
        if bombs && rng.gen_range(0..10u64) == 0 {
            return samp_bomb();
        }
        mutate::owp_frames(rng, base).unwrap_or_else(|| mutate::bytes(rng, base, &[]))
    })
}

/// Builds the requested surfaces (all four by default), each decoding
/// under the fuzzing resource budget and re-encoding canonically.
fn build_surfaces(opts: &Options) -> Result<Vec<Surface>, OptiwiseError> {
    // `parse_options` has already checked the names; keep the first
    // mention of each, in command-line order.
    let mut wanted: Vec<&str> = Vec::new();
    for name in &opts.surfaces {
        if !wanted.contains(&name.as_str()) {
            wanted.push(name);
        }
    }
    if wanted.is_empty() {
        wanted = SURFACE_NAMES.to_vec();
    }
    let limits = ResourceLimits::fuzzing();
    let budget = limits.max_decode_alloc;
    let mut surfaces = Vec::new();
    for name in wanted {
        surfaces.push(match name {
            "profile" => Surface {
                name: "profile",
                corpus: profile_corpus()?,
                decode: Box::new(move |bytes| {
                    StoredProfile::from_bytes_limited(bytes, &ResourceLimits::fuzzing())
                        .map(|p| p.to_bytes())
                        .map_err(|e| e.to_string())
                }),
                structured: Some(owp_structured(true)),
                alloc_budget: budget,
            },
            "checkpoint" => Surface {
                name: "checkpoint",
                corpus: checkpoint_corpus()?,
                decode: Box::new(move |bytes| {
                    Checkpoint::from_bytes_limited(bytes, &ResourceLimits::fuzzing())
                        .map(|c| c.to_bytes())
                        .map_err(|e| e.to_string())
                }),
                structured: Some(owp_structured(true)),
                alloc_budget: budget,
            },
            "manifest" => Surface {
                name: "manifest",
                corpus: manifest_corpus(),
                decode: Box::new(move |bytes| {
                    Manifest::from_bytes_limited(bytes, &ResourceLimits::fuzzing())
                        .map(|m| m.to_bytes())
                        .map_err(|e| e.to_string())
                }),
                structured: Some(owp_structured(false)),
                alloc_budget: budget,
            },
            "jsonl" => Surface {
                name: "jsonl",
                corpus: jsonl_corpus(),
                decode: Box::new(|bytes| {
                    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
                    let object = jsonl::parse_object(text)?;
                    Ok(jsonl::to_line(&object).into_bytes())
                }),
                structured: Some(Box::new(|rng, _base| mutate::jsonl_line(rng))),
                alloc_budget: budget,
            },
            _ => unreachable!("parse_options checks --surface against SURFACE_NAMES"),
        });
    }
    Ok(surfaces)
}

/// `optiwise fuzz [--seed-range A..B] [--surface NAME]...`: sweep every
/// requested surface with seeded hostile inputs; exit 13 on any invariant
/// violation. See the module docs for the invariants.
pub(crate) fn cmd_fuzz(opts: &Options) -> Result<(), OptiwiseError> {
    let (lo, hi) = opts.seed_range.unwrap_or((0, 256));
    let surfaces = build_surfaces(opts)?;

    // Panics are an expected event under fuzzing (they are precisely what
    // the sweep hunts); silence the default hook for the sweep so a
    // caught panic does not spray backtraces over the report. Violations
    // carry the panic message.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let seeds: Vec<u64> = (lo..hi).collect();
    let results = wiser_par::par_map(opts.jobs, seeds, |_, seed| {
        surfaces
            .iter()
            .map(|surface| (surface.name, run_case(surface, seed)))
            .collect::<Vec<(&'static str, CaseOutcome)>>()
    });
    std::panic::set_hook(previous_hook);
    let per_seed =
        results.map_err(|e| OptiwiseError::Internal(format!("fuzz worker: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(out, "fuzz: seeds {lo}..{hi}, {} surface(s)", surfaces.len());
    let mut reproducers: Vec<String> = Vec::new();
    let mut violation_lines: Vec<String> = Vec::new();
    let mut total_violations = 0usize;
    for surface in &surfaces {
        let (mut cases, mut accepted, mut violations) = (0usize, 0usize, 0usize);
        for row in &per_seed {
            for (name, outcome) in row {
                if *name != surface.name {
                    continue;
                }
                cases += 1;
                accepted += usize::from(outcome.accepted);
                violations += outcome.violations.len();
                for v in &outcome.violations {
                    reproducers.push(format!("{}:{}", surface.name, outcome.seed));
                    violation_lines.push(format!(
                        "  VIOLATION {}:{} [{}] {}",
                        surface.name, outcome.seed, v.invariant, v.detail
                    ));
                }
            }
        }
        total_violations += violations;
        let _ = writeln!(
            out,
            "  {}: {} cases, {} accepted, {} rejected, {} violation(s)",
            surface.name,
            cases,
            accepted,
            cases - accepted,
            violations
        );
    }
    for line in &violation_lines {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(
        out,
        "fuzz: {} cases, {} violation(s)",
        (hi - lo) as usize * surfaces.len(),
        total_violations
    );
    crate::emit(opts, &out)?;

    if total_violations > 0 {
        reproducers.truncate(8);
        return Err(OptiwiseError::FuzzViolation {
            violations: total_violations,
            cases: reproducers,
        });
    }
    Ok(())
}
