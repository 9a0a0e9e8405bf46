//! # wiser-chaos
//!
//! Hermetic, seeded, structure-aware fuzzing engine for the decode
//! surfaces of the OptiWISE serving stack — the offensive half of the
//! robustness story whose defensive half is `optiwise::ResourceLimits`
//! and the fault-injection hooks in `wiser_store::faults`.
//!
//! A *surface* ([`Surface`]) is a decoder under test: a closure from
//! untrusted bytes to either a rejection or the canonical re-encoding of
//! what was decoded. [`run_case`] derives one hostile input per (surface,
//! seed) pair — byte-level mutation ([`mutate::bytes`]), frame-aware
//! `.owp` mutation ([`mutate::owp_frames`]) or a surface-supplied
//! structured generator — and checks three invariants:
//!
//! 1. **Never panic.** Hostile bytes produce `Err`, not unwinding.
//! 2. **Never allocate past budget.** Peak heap growth during the decode
//!    stays under the surface's budget plus input-proportional slack
//!    ([`ALLOC_SLACK`]), measured by [`alloc::TrackingAllocator`] when
//!    the binary installs it.
//! 3. **Accept canonically.** If the decoder accepts, its re-encoding is
//!    a fixed point: decoding the canonical bytes succeeds and re-encodes
//!    to the identical bytes.
//!
//! Everything is a pure function of the seed — no wall clock, no OS
//! entropy — so any violation is a one-line reproducer (`surface:seed`)
//! and a sweep's report is byte-identical at every `--jobs` count.

#![warn(missing_docs)]

pub mod alloc;
pub mod mutate;

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input-independent slack added to a surface's allocation budget before
/// the engine calls a decode's peak heap growth a violation: room for the
/// canonical re-encoding (≈ input sized) and the engine's own bookkeeping.
pub const ALLOC_SLACK: u64 = 1 << 20;

/// A boxed decoder under test: untrusted bytes in; `Err` on rejection, or
/// the canonical re-encoding of the decoded value on acceptance.
pub type DecodeFn = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, String> + Send + Sync>;

/// A boxed structure-aware mutator: derives one hostile input from a
/// corpus item using only the given (seeded) generator.
pub type StructuredFn = Box<dyn Fn(&mut StdRng, &[u8]) -> Vec<u8> + Send + Sync>;

/// A decoder under test.
pub struct Surface {
    /// Name used in reports and reproducers (`profile`, `jsonl`, …).
    pub name: &'static str,
    /// Seed inputs: valid, canonical encodings to mutate from. Must be
    /// non-empty.
    pub corpus: Vec<Vec<u8>>,
    /// The decoder under the invariants.
    pub decode: DecodeFn,
    /// Optional structure-aware mutator (frame shuffling, planted decode
    /// bombs, grammar generation); used for about half the cases when
    /// present, byte-level mutation covers the rest.
    pub structured: Option<StructuredFn>,
    /// Allocation budget the decode must respect (typically the
    /// `max_decode_alloc` the decoder itself was configured with).
    pub alloc_budget: u64,
}

/// One broken invariant, with a bounded human-readable diagnosis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke: `panic`, `alloc-budget` or `round-trip`.
    pub invariant: &'static str,
    /// What happened, bounded for report hygiene.
    pub detail: String,
}

/// The deterministic outcome of one (surface, seed) case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// The case's seed (with the surface name, the full reproducer).
    pub seed: u64,
    /// Bytes of the derived hostile input.
    pub input_len: usize,
    /// Whether the decoder accepted the input (rejection is the normal,
    /// healthy outcome for most mutated inputs).
    pub accepted: bool,
    /// Invariant violations; empty on a clean case.
    pub violations: Vec<Violation>,
}

/// Mixes the surface name into the seed so each surface sees an
/// independent mutation stream for the same seed range.
fn case_rng(surface: &str, seed: u64) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    for b in surface.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn derive_input(surface: &Surface, rng: &mut StdRng) -> Vec<u8> {
    let base = &surface.corpus[rng.gen_range(0..surface.corpus.len() as u64) as usize];
    // One case in sixteen runs the pristine corpus item itself: the
    // corpus must stay decodable and canonical, or every report built on
    // it is fuzzing a broken baseline.
    if rng.gen_range(0..16u64) == 0 {
        return base.clone();
    }
    match &surface.structured {
        Some(structured) if rng.gen_range(0..2u64) == 0 => structured(rng, base),
        _ => mutate::bytes(rng, base, &surface.corpus),
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    bounded(&text)
}

/// Truncates diagnosis text so a pathological error message cannot bloat
/// the report (which must stay byte-stable and reviewable).
fn bounded(text: &str) -> String {
    const MAX: usize = 160;
    if text.len() <= MAX {
        return text.to_string();
    }
    let mut cut = MAX;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &text[..cut])
}

/// Runs one (surface, seed) fuzz case and reports its outcome.
/// Deterministic: same surface definition and seed, same outcome,
/// regardless of thread, process or machine.
pub fn run_case(surface: &Surface, seed: u64) -> CaseOutcome {
    assert!(
        !surface.corpus.is_empty(),
        "surface {} has an empty corpus",
        surface.name
    );
    let mut rng = case_rng(surface.name, seed);
    let input = derive_input(surface, &mut rng);
    let tracking = alloc::tracking_installed();
    let mut violations = Vec::new();

    alloc::reset_peak();
    let first = catch_unwind(AssertUnwindSafe(|| (surface.decode)(&input)));
    let peak = alloc::peak();

    let cap = surface
        .alloc_budget
        .saturating_add(input.len() as u64)
        .saturating_add(ALLOC_SLACK);
    // The alloc invariant only judges decodes that ran to completion: a
    // panicking decode is already fatal, and the unwinding machinery's
    // own allocations (backtrace capture) are not the decoder's.
    if tracking && peak > cap && first.is_ok() {
        violations.push(Violation {
            invariant: "alloc-budget",
            detail: format!("decode peaked at {peak} heap bytes, cap {cap}"),
        });
    }

    let mut accepted = false;
    match first {
        Err(payload) => violations.push(Violation {
            invariant: "panic",
            detail: format!("decode panicked: {}", panic_detail(payload)),
        }),
        Ok(Err(_)) => {} // rejected: fail-closed is the healthy outcome
        Ok(Ok(canonical)) => {
            accepted = true;
            match catch_unwind(AssertUnwindSafe(|| (surface.decode)(&canonical))) {
                Err(payload) => violations.push(Violation {
                    invariant: "panic",
                    detail: format!(
                        "re-decode of canonical bytes panicked: {}",
                        panic_detail(payload)
                    ),
                }),
                Ok(Err(e)) => violations.push(Violation {
                    invariant: "round-trip",
                    detail: format!("canonical re-encoding was rejected: {}", bounded(&e)),
                }),
                Ok(Ok(again)) if again != canonical => violations.push(Violation {
                    invariant: "round-trip",
                    detail: format!(
                        "canonical encoding is not a fixed point ({} vs {} bytes)",
                        again.len(),
                        canonical.len()
                    ),
                }),
                Ok(Ok(_)) => {}
            }
        }
    }

    CaseOutcome {
        seed,
        input_len: input.len(),
        accepted,
        violations,
    }
}

// The test binary installs the tracking allocator so the alloc-budget
// invariant is testable in-crate; library users opt in per binary.
#[cfg(test)]
#[global_allocator]
static TRACKING: alloc::TrackingAllocator = alloc::TrackingAllocator;

#[cfg(test)]
mod tests {
    use super::*;

    fn id_surface(budget: u64) -> Surface {
        Surface {
            name: "identity",
            corpus: vec![b"hello world, a stable corpus line".to_vec()],
            decode: Box::new(|b| Ok(b.to_vec())),
            structured: None,
            alloc_budget: budget,
        }
    }

    #[test]
    fn outcomes_are_deterministic_per_seed() {
        let surface = id_surface(1 << 20);
        for seed in 0..64 {
            let a = run_case(&surface, seed);
            let b = run_case(&surface, seed);
            assert_eq!(a.input_len, b.input_len, "seed {seed}");
            assert_eq!(a.accepted, b.accepted, "seed {seed}");
            assert_eq!(a.violations, b.violations, "seed {seed}");
        }
    }

    #[test]
    fn seeds_actually_diversify_inputs() {
        let surface = id_surface(1 << 20);
        let lens: std::collections::BTreeSet<usize> =
            (0..64).map(|s| run_case(&surface, s).input_len).collect();
        assert!(
            lens.len() > 8,
            "64 seeds produced only {} input shapes",
            lens.len()
        );
    }

    #[test]
    fn identity_decoder_is_a_clean_fixed_point() {
        // Identity accepts everything and is trivially canonical: no
        // violations on any seed.
        let surface = id_surface(1 << 20);
        for seed in 0..128 {
            let out = run_case(&surface, seed);
            assert!(out.accepted, "identity rejected seed {seed}");
            assert_eq!(out.violations, vec![], "seed {seed}");
        }
    }

    #[test]
    fn panics_are_caught_and_reported() {
        let surface = Surface {
            name: "panicky",
            corpus: vec![vec![1, 2, 3]],
            decode: Box::new(|_| panic!("decoder exploded")),
            structured: None,
            alloc_budget: 1 << 20,
        };
        let out = run_case(&surface, 7);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].invariant, "panic");
        assert!(out.violations[0].detail.contains("decoder exploded"));
    }

    #[test]
    fn allocation_bombs_are_caught_when_tracking_is_installed() {
        assert!(
            alloc::tracking_installed(),
            "test binary must install the tracking allocator"
        );
        let surface = Surface {
            name: "bomb",
            corpus: vec![vec![0u8; 16]],
            decode: Box::new(|b| {
                // A decode-bomb stand-in: pre-allocate wildly more than
                // the input justifies, then reject.
                let huge = vec![0u8; 32 << 20];
                std::hint::black_box(&huge);
                Err(format!("rejected {} bytes", b.len()))
            }),
            structured: None,
            alloc_budget: 1 << 20,
        };
        let out = run_case(&surface, 0);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert_eq!(out.violations[0].invariant, "alloc-budget");
    }

    #[test]
    fn non_canonical_encoders_are_caught() {
        // Accepts everything but keeps appending a byte: decode(encode(v))
        // re-encodes differently, so the fixed-point check must fire.
        let surface = Surface {
            name: "drift",
            corpus: vec![vec![9u8; 8]],
            decode: Box::new(|b| {
                let mut out = b.to_vec();
                out.push(0xEE);
                Ok(out)
            }),
            structured: None,
            alloc_budget: 1 << 20,
        };
        let out = run_case(&surface, 3);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert_eq!(out.violations[0].invariant, "round-trip");
    }

    #[test]
    fn structured_mutator_is_used_and_seeded() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hits);
        let surface = Surface {
            name: "structured",
            corpus: vec![vec![5u8; 32]],
            decode: Box::new(|b| Ok(b.to_vec())),
            structured: Some(Box::new(move |rng, base| {
                counter.fetch_add(1, Ordering::Relaxed);
                mutate::bytes(rng, base, &[])
            })),
            alloc_budget: 1 << 20,
        };
        for seed in 0..64 {
            run_case(&surface, seed);
        }
        let n = hits.load(Ordering::Relaxed);
        assert!((8..=56).contains(&n), "structured mutator ran {n}/64 times");
    }

    #[test]
    fn owp_frame_mutator_reframes_with_valid_checksums() {
        use rand::SeedableRng;
        let base = wiser_store::write_store(&[
            (*b"AAAA", vec![1, 2, 3, 4]),
            (*b"BBBB", vec![5, 6, 7, 8, 9]),
        ]);
        let mut parses = 0;
        for seed in 0..64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mutated = mutate::owp_frames(&mut rng, &base).expect("base parses");
            assert_ne!(mutated, Vec::<u8>::new());
            if wiser_store::read_sections(&mutated).is_ok() {
                parses += 1;
            }
        }
        // Most frame mutations re-frame validly (that is the point: get
        // past the CRC gate); the occasional raw smash must also occur.
        assert!(
            parses >= 32,
            "only {parses}/64 frame mutations re-framed validly"
        );
        assert!(parses < 64, "raw-byte smashing never triggered");
        // Garbage input is a polite None, not a panic.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(mutate::owp_frames(&mut rng, b"not a store").is_none());
    }

    #[test]
    fn jsonl_generator_is_deterministic_and_bounded() {
        use rand::SeedableRng;
        for seed in 0..128 {
            let mut a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut b = rand::rngs::StdRng::seed_from_u64(seed);
            let la = mutate::jsonl_line(&mut a);
            let lb = mutate::jsonl_line(&mut b);
            assert_eq!(la, lb, "seed {seed}");
            assert!(la.len() < 4096, "seed {seed}: {} bytes", la.len());
        }
    }
}
