//! Seeded input mutators: byte-level, `.owp`-frame-aware, and a JSONL
//! grammar generator.
//!
//! Every mutator is a pure function of its [`StdRng`], so a (surface,
//! seed) pair always produces the same hostile input — the property the
//! engine's reproducers and the `--jobs`-invariant fuzz reports rest on.

use rand::rngs::StdRng;
use rand::Rng;
use wiser_store::{read_sections, write_store};

/// Hard cap on mutated-input growth relative to the base, so a chain of
/// duplicating mutations cannot snowball across ops.
fn size_cap(base_len: usize) -> usize {
    base_len.saturating_mul(2) + 256
}

/// Structure-blind byte mutations: 1–4 stacked operations drawn from bit
/// flips, overwrites with boundary constants, inserts, deletes,
/// truncations, duplications, zero fills and splices from the corpus.
pub fn bytes(rng: &mut StdRng, base: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut data = base.to_vec();
    let cap = size_cap(base.len());
    let ops = 1 + rng.gen_range(0..4u64);
    for _ in 0..ops {
        byte_op(rng, &mut data, corpus);
        data.truncate(cap);
    }
    data
}

/// Values decoders historically trip over: zeros, sign/width boundaries,
/// and counts large enough to be hostile but small enough to stay
/// wire-plausible in little-endian u32/u64 fields.
const INTERESTING: [u64; 8] = [
    0,
    1,
    0x7f,
    0xff,
    0x7fff_ffff,
    0xffff_ffff,
    0x4000_0000,
    u64::MAX,
];

fn byte_op(rng: &mut StdRng, data: &mut Vec<u8>, corpus: &[Vec<u8>]) {
    let len = data.len();
    match rng.gen_range(0..9u64) {
        0 if len > 0 => {
            // Single bit flip.
            let at = rng.gen_range(0..len as u64) as usize;
            data[at] ^= 1 << rng.gen_range(0..8u64);
        }
        1 if len > 0 => {
            // Random byte overwrite.
            let at = rng.gen_range(0..len as u64) as usize;
            data[at] = rng.gen_range(0..=255u64) as u8;
        }
        2 if len > 0 => {
            // Overwrite a field-sized window with a boundary constant.
            let value = INTERESTING[rng.gen_range(0..INTERESTING.len() as u64) as usize];
            let width = [1usize, 4, 8][rng.gen_range(0..3u64) as usize].min(len);
            let at = rng.gen_range(0..=(len - width) as u64) as usize;
            data[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        }
        3 => {
            // Insert a short burst of random bytes.
            let at = rng.gen_range(0..=len as u64) as usize;
            let burst = 1 + rng.gen_range(0..16u64);
            for i in 0..burst {
                data.insert(at + i as usize, rng.gen_range(0..=255u64) as u8);
            }
        }
        4 if len > 0 => {
            // Delete a range.
            let at = rng.gen_range(0..len as u64) as usize;
            let span = (1 + rng.gen_range(0..64u64) as usize).min(len - at);
            data.drain(at..at + span);
        }
        5 if len > 0 => {
            // Truncate: the classic torn-file shape.
            data.truncate(rng.gen_range(0..len as u64) as usize);
        }
        6 if len > 0 => {
            // Duplicate a window in place.
            let at = rng.gen_range(0..len as u64) as usize;
            let span = (1 + rng.gen_range(0..64u64) as usize).min(len - at);
            let window: Vec<u8> = data[at..at + span].to_vec();
            data.splice(at..at, window);
        }
        7 if len > 0 => {
            // Zero a range: simulates sparse-file holes after a crash.
            let at = rng.gen_range(0..len as u64) as usize;
            let span = (1 + rng.gen_range(0..64u64) as usize).min(len - at);
            data[at..at + span].fill(0);
        }
        8 if !corpus.is_empty() => {
            // Splice a window from another corpus item over this one.
            let donor = &corpus[rng.gen_range(0..corpus.len() as u64) as usize];
            if !donor.is_empty() && len > 0 {
                let from = rng.gen_range(0..donor.len() as u64) as usize;
                let span = (1 + rng.gen_range(0..128u64) as usize).min(donor.len() - from);
                let at = rng.gen_range(0..len as u64) as usize;
                let end = (at + span).min(len);
                data[at..end].copy_from_slice(&donor[from..from + (end - at)]);
            }
        }
        _ => {} // op not applicable to this input shape: a cheap no-op round
    }
}

/// Frame-aware `.owp` mutations: parse the container, mutate at section
/// granularity, and re-frame with *valid* checksums, so the hostile bytes
/// reach the decoders behind the CRC gate instead of bouncing off it.
/// Occasionally smashes one raw byte of the re-framed image too, keeping
/// the CRC-rejection path itself under test.
///
/// Returns `None` when `base` does not parse as a store image (the caller
/// falls back to byte-level mutation).
pub fn owp_frames(rng: &mut StdRng, base: &[u8]) -> Option<Vec<u8>> {
    let parsed = read_sections(base).ok()?;
    let mut sections: Vec<([u8; 4], Vec<u8>)> =
        parsed.iter().map(|s| (s.tag, s.payload.to_vec())).collect();
    if sections.is_empty() {
        return None;
    }
    let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n as u64) as usize;
    match rng.gen_range(0..8u64) {
        0 => {
            // Corrupt payload bytes under a fresh, valid CRC.
            let at = pick(rng, sections.len());
            let payload = &mut sections[at].1;
            if !payload.is_empty() {
                let i = pick(rng, payload.len());
                payload[i] ^= 1 << rng.gen_range(0..8u64);
            }
        }
        1 => {
            // Duplicate a section: decoders must pick a deterministic
            // winner or reject, never blend.
            let at = pick(rng, sections.len());
            let dup = sections[at].clone();
            sections.insert(at, dup);
        }
        2 => {
            // Drop a section: missing-required-section handling.
            sections.remove(pick(rng, sections.len()));
        }
        3 => {
            // Reorder: section order is a file-format accident, not a
            // decoding contract.
            let a = pick(rng, sections.len());
            let b = pick(rng, sections.len());
            sections.swap(a, b);
        }
        4 => {
            // Retag as an unknown section: the forward-compat skip path.
            let at = pick(rng, sections.len());
            let mut tag = [0u8; 4];
            for b in &mut tag {
                *b = b'a' + rng.gen_range(0..26u64) as u8;
            }
            sections[at].0 = tag;
        }
        5 => {
            // Insert an unknown section full of junk.
            let mut junk = vec![0u8; rng.gen_range(0..256u64) as usize];
            for b in &mut junk {
                *b = rng.gen_range(0..=255u64) as u8;
            }
            let at = pick(rng, sections.len() + 1);
            sections.insert(at, (*b"zzzz", junk));
        }
        6 => {
            // Truncate one payload: a torn section behind a valid CRC.
            let at = pick(rng, sections.len());
            let payload = &mut sections[at].1;
            if !payload.is_empty() {
                let keep = pick(rng, payload.len());
                payload.truncate(keep);
            }
        }
        _ => {
            // Extend one payload with trailing garbage.
            let at = pick(rng, sections.len());
            for _ in 0..1 + rng.gen_range(0..32u64) {
                let b = rng.gen_range(0..=255u64) as u8;
                sections[at].1.push(b);
            }
        }
    }
    let mut out = write_store(&sections);
    if rng.gen_range(0..4u64) == 0 && !out.is_empty() {
        // Also smash a raw framed byte: CRC and framing rejection stay
        // exercised even on the structure-aware path.
        let at = rng.gen_range(0..out.len() as u64) as usize;
        out[at] ^= 1 << rng.gen_range(0..8u64);
    }
    Some(out)
}

/// Generates one hostile JSONL request line for the daemon codec: valid
/// objects, duplicate keys, nesting, numeric edge cases, broken escapes,
/// deep nesting and raw non-UTF-8 garbage, all bounded in size.
pub fn jsonl_line(rng: &mut StdRng) -> Vec<u8> {
    match rng.gen_range(0..8u64) {
        0 => {
            // A well-formed flat object: the canonical-round-trip path.
            let mut line = String::from("{");
            let fields = 1 + rng.gen_range(0..4u64);
            for i in 0..fields {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("\"{}\":{}", key(rng), value(rng)));
            }
            line.push('}');
            line.into_bytes()
        }
        1 => {
            // Duplicate keys: must be rejected, not last-wins.
            let k = key(rng);
            format!("{{\"{k}\":1,\"{k}\":2}}").into_bytes()
        }
        2 => {
            // Nested containers: outside the flat-object subset.
            format!("{{\"{}\":{{\"x\":[1,2]}}}}", key(rng)).into_bytes()
        }
        3 => {
            // Numeric edges: overflow, negatives, floats, exponents.
            let n = [
                "18446744073709551616",
                "-1",
                "1.5",
                "1e9",
                "0",
                "18446744073709551615",
            ][rng.gen_range(0..6u64) as usize];
            format!("{{\"{}\":{n}}}", key(rng)).into_bytes()
        }
        4 => {
            // Escape-sequence hostility, surrogates included.
            let esc = ["\\ud800", "\\u0000", "\\x41", "\\", "\\uZZZZ", "\\n\\t\\\""]
                [rng.gen_range(0..6u64) as usize];
            format!("{{\"{}\":\"{esc}\"}}", key(rng)).into_bytes()
        }
        5 => {
            // Raw bytes, deliberately including invalid UTF-8.
            let mut junk = vec![0u8; 1 + rng.gen_range(0..64u64) as usize];
            for b in &mut junk {
                *b = rng.gen_range(0..=255u64) as u8;
            }
            junk
        }
        6 => {
            // Deep nesting: a recursive parser's stack is an allocation
            // budget too.
            let depth = 4 + rng.gen_range(0..60u64) as usize;
            let mut line = String::new();
            for _ in 0..depth {
                line.push_str("{\"a\":");
            }
            line.push('1');
            line.push_str(&"}".repeat(depth));
            line.into_bytes()
        }
        _ => {
            // Long string value with whitespace padding and unicode.
            let body: String = (0..rng.gen_range(0..512u64))
                .map(|_| ['x', '\u{7f}', 'é', '😀', ' '][rng.gen_range(0..5u64) as usize])
                .collect();
            format!("  {{ \"{}\" : \"{body}\" }}  ", key(rng)).into_bytes()
        }
    }
}

fn key(rng: &mut StdRng) -> String {
    ["cmd", "workload", "seed", "size", "k", "émoji"][rng.gen_range(0..6u64) as usize].to_string()
}

fn value(rng: &mut StdRng) -> String {
    match rng.gen_range(0..3u64) {
        0 => format!(
            "\"{}\"",
            ["submit", "status", "ping", "x"][rng.gen_range(0..4u64) as usize]
        ),
        1 => format!("{}", rng.gen_range(0..=u64::MAX)),
        _ => ["true", "false"][rng.gen_range(0..2u64) as usize].to_string(),
    }
}
