//! Report cells written straight into the output text.
//!
//! A report is a few hundred short cells, and `core::fmt` spends more on
//! each than the cell is worth: a `Formatter` per argument, padding through
//! `&dyn Write`, and std's general float-to-decimal algorithm for every
//! fixed-precision number. These writers produce the same text as the
//! `format!` each replaces, with cheaper means:
//!
//! * integers through [`wiser_sim::decimal`], the digits `Display` writes;
//! * padding to a column by `char` count, as std pads (`…` counts one);
//! * fixed-precision floats by exact decimal rounding of the `f64` in
//!   integer arithmetic. A finite `f64` is `m · 2^e` exactly, with `m` below
//!   2^53, so `|x| · 10^p` is `m · 10^p · 2^e`: for `e ≥ 0` an integer, and
//!   for `e < 0` the quotient of an integer by `2^-e`, whose remainder
//!   decides the rounding with nothing lost. Ties go to the even neighbour,
//!   as std's exact formatting does. Below 2^50 and for `p ≤ 4` every
//!   product fits a `u128` and the rounded result a `u64`; anything else
//!   (NaN, ±inf, huge values) goes through std's formatter.

use std::fmt::Write as _;

/// The most decimals [`fixed`] writes through the integer path.
const MAX_PREC: u32 = 4;

/// Appends `text` right-aligned in `width` characters.
pub(crate) fn right(out: &mut String, text: &str, width: usize) {
    pad(out, width.saturating_sub(text.chars().count()));
    out.push_str(text);
}

/// Appends `text` left-aligned in `width` characters.
fn left(out: &mut String, text: &str, width: usize) {
    out.push_str(text);
    pad(out, width.saturating_sub(text.chars().count()));
}

/// Appends `n` spaces.
fn pad(out: &mut String, mut n: usize) {
    const SPACES: &str = "                                ";
    while n > 0 {
        let k = n.min(SPACES.len());
        out.push_str(&SPACES[..k]);
        n -= k;
    }
}

/// A right-aligned ASCII cell, built backwards from the end of a buffer of
/// spaces, so its padding costs nothing up to the buffer's size.
struct Cell {
    buf: [u8; 32],
    at: usize,
}

impl Cell {
    fn new() -> Cell {
        Cell {
            buf: [b' '; 32],
            at: 32,
        }
    }

    fn byte(&mut self, b: u8) {
        self.at -= 1;
        self.buf[self.at] = b;
    }

    /// Prepends the digits of `n`.
    fn digits(&mut self, n: u64) {
        self.at -= wiser_sim::decimal(n, &mut self.buf[..self.at]).len();
    }

    /// Prepends the `count` low decimal digits of `n`, zero-filled, and
    /// returns `n` without them.
    fn low_digits(&mut self, mut n: u64, count: u32) -> u64 {
        for _ in 0..count {
            self.byte(b'0' + (n % 10) as u8);
            n /= 10;
        }
        n
    }

    /// Appends the cell right-aligned in `width` characters.
    fn push(&self, out: &mut String, width: usize) {
        let start = if width > self.buf.len() {
            pad(out, width - self.buf.len());
            0
        } else {
            self.at.min(self.buf.len() - width)
        };
        out.push_str(std::str::from_utf8(&self.buf[start..]).expect("ASCII"));
    }
}

/// Appends `n` right-aligned in `width` characters: `{n:>width$}`.
pub(crate) fn uint(out: &mut String, n: u64, width: usize) {
    let mut cell = Cell::new();
    cell.digits(n);
    cell.push(out, width);
}

/// `n` in lowercase hexadecimal after `0x`, as `{n:#x}` writes it, built
/// at the end of `buf`.
pub(crate) fn hex(n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    let mut rest = n;
    loop {
        at -= 1;
        buf[at] = b"0123456789abcdef"[(rest & 0xf) as usize];
        rest >>= 4;
        if rest == 0 {
            break;
        }
    }
    at -= 2;
    buf[at..at + 2].copy_from_slice(b"0x");
    std::str::from_utf8(&buf[at..]).expect("ASCII")
}

/// Appends `s` left-aligned in `width` characters, cut to `width` bytes
/// when longer, the cut marked `…`. The cut falls on the last character
/// boundary at or before `width - 1` bytes, so a multi-byte character is
/// never split.
pub(crate) fn clip(out: &mut String, s: &str, width: usize) {
    if s.len() <= width {
        return left(out, s, width);
    }
    let mut cut = width.saturating_sub(1);
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    let head = &s[..cut];
    out.push_str(head);
    out.push('…');
    pad(out, width.saturating_sub(head.chars().count() + 1));
}

/// `|x| · 10^prec` rounded half to even, exactly, or `None` when `x` is not
/// finite, `|x| ≥ 2^50` or `prec > MAX_PREC`.
fn scaled(x: f64, prec: u32) -> Option<u64> {
    const POW10: [u64; MAX_PREC as usize + 1] = [1, 10, 100, 1000, 10_000];
    let a = x.abs();
    // NaN fails the comparison too.
    let below_2_50 = a < 1_125_899_906_842_624.0;
    if !below_2_50 || prec > MAX_PREC {
        return None;
    }
    let bits = a.to_bits();
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    // m · 10^prec < 2^53 · 2^14 = 2^67: exact in a u128.
    let v = u128::from(m) * u128::from(POW10[prec as usize]);
    // a < 2^50 puts e at -3 or below: |x| is m / 2^shift.
    let shift = e.unsigned_abs();
    if shift >= 100 {
        // v < 2^67 is far below half of 2^shift: rounds to zero, no tie.
        return Some(0);
    }
    let q = v >> shift;
    let r = v & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    let n = if r > half || (r == half && q & 1 == 1) {
        q + 1
    } else {
        q
    };
    // a < 2^50 keeps n ≤ 2^50 · 10^4 < 2^64.
    Some(n as u64)
}

/// Appends `x` with `prec` decimals right-aligned in `width` characters,
/// signed `+` when `plus` and `x` is not negative: `{x:>width$.prec$}`, or
/// `{x:>+width$.prec$}` with `plus`.
pub(crate) fn fixed(out: &mut String, x: f64, prec: u32, plus: bool, width: usize) {
    let Some(n) = scaled(x, prec) else {
        let p = prec as usize;
        let _ = if plus {
            write!(out, "{x:>+width$.p$}")
        } else {
            write!(out, "{x:>width$.p$}")
        };
        return;
    };
    let mut cell = Cell::new();
    let int = cell.low_digits(n, prec);
    if prec > 0 {
        cell.byte(b'.');
    }
    cell.digits(int);
    // std writes the sign of -0.0 and of negatives that round to zero.
    if x.is_sign_negative() {
        cell.byte(b'-');
    } else if plus {
        cell.byte(b'+');
    }
    cell.push(out, width);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded splitmix64 stream.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Every fixed-precision cell the reports write, as `format!` writes
    /// it: percentages, ratios, loop `INS/ITER`, diff deltas and noise, and
    /// the overall IPC.
    fn assert_cells_match_format(x: f64) {
        let cases: [(u32, bool, usize, String); 7] = [
            (1, false, 6, format!("{x:>6.1}")),
            (0, false, 7, format!("{x:>7.0}")),
            (2, false, 7, format!("{x:>7.2}")),
            (2, false, 8, format!("{x:>8.2}")),
            (1, false, 9, format!("{x:>9.1}")),
            (1, true, 8, format!("{x:>+8.1}")),
            (2, false, 0, format!("{x:.2}")),
        ];
        for (prec, plus, width, want) in cases {
            let mut got = String::new();
            fixed(&mut got, x, prec, plus, width);
            assert_eq!(got, want, "{x:e} at .{prec} plus={plus} width={width}");
        }
    }

    #[test]
    fn fixed_cells_match_format_on_random_values() {
        let mut s = Stream(0x0f71_5e00_ce11_5eed);
        for _ in 0..1_000_000 / 4 {
            // Percentages as the report computes them.
            let whole = s.next() % 1_000_000 + 1;
            let part = s.next() % (whole + 1);
            assert_cells_match_format(100.0 * part as f64 / whole as f64);
            // CPI/IPC up to 10^4, as cycles over executions.
            let execs = s.next() % 100_000 + 1;
            let cycles = s.next() % (execs * 10_000 + 1);
            assert_cells_match_format(cycles as f64 / execs as f64);
            // Signed deltas, and any bit pattern from 2^-80 to 2^70.
            let delta = (s.unit() - 0.5) * 2.0 * 10f64.powi((s.next() % 7) as i32);
            assert_cells_match_format(delta);
            let exponent = 1023 - 80 + s.next() % 151;
            let bits = s.next() & !(0x7ff << 52) | exponent << 52;
            assert_cells_match_format(f64::from_bits(bits));
        }
    }

    #[test]
    fn fixed_cells_match_format_on_every_tie() {
        // Exact binary ties at the last digit: k + 1/2 units of 10^-prec,
        // for each unit a power of two can halve exactly.
        for k in 0..20_000u32 {
            for x in [
                (f64::from(k) + 0.5) / 10.0,
                (f64::from(k) + 0.5) / 100.0,
                f64::from(k) + 0.5,
                f64::from(k) * 0.25,
                f64::from(k) * 0.125,
                f64::from(k) * 0.0625,
            ] {
                assert_cells_match_format(x);
                assert_cells_match_format(-x);
            }
        }
        for (x, prec, want) in [(0.25, 1, "0.2"), (0.375, 2, "0.38"), (0.125, 2, "0.12")] {
            let mut got = String::new();
            fixed(&mut got, x, prec, false, 0);
            assert_eq!(got, want, "{x}");
        }
    }

    #[test]
    fn fixed_cells_match_format_at_the_edges() {
        let two53 = 9_007_199_254_740_992.0_f64;
        let two50 = 1_125_899_906_842_624.0_f64;
        let two63 = 9_223_372_036_854_775_808.0_f64;
        let mut edges = vec![
            99.95,
            99.995,
            100.0,
            -0.04,
            0.0,
            -0.0,
            0.05,
            0.005,
            0.045,
            1e-300,
            f64::MIN_POSITIVE,
            5e-324,
            1e15,
            1e18,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for base in [two50, two53, two63, 1e19, 99.95, 100.0, 0.05] {
            let mut below = base;
            let mut above = base;
            for _ in 0..4 {
                below = below.next_down();
                above = above.next_up();
                edges.extend([below, above]);
            }
        }
        for x in edges {
            assert_cells_match_format(x);
            assert_cells_match_format(-x);
        }
    }

    #[test]
    fn integers_pad_like_format() {
        for n in [0, 7, 42, 12345, u64::MAX] {
            for width in [0, 1, 8, 14, 25] {
                let mut got = String::new();
                uint(&mut got, n, width);
                assert_eq!(got, format!("{n:>width$}"));
            }
        }
        let mut got = String::new();
        right(&mut got, "é…", 4);
        left(&mut got, "é", 3);
        assert_eq!(got, format!("{:>4}{:<3}", "é…", "é"));
    }

    #[test]
    fn hex_matches_format() {
        let mut buf = [0; 20];
        for n in [0, 9, 10, 0x40, 0xdead_beef, u64::MAX] {
            assert_eq!(hex(n, &mut buf), format!("{n:#x}"));
        }
    }

    #[test]
    fn clip_cuts_on_a_char_boundary() {
        let clipped = |s: &str, width: usize| {
            let mut out = String::new();
            clip(&mut out, s, width);
            out
        };
        assert_eq!(clipped("short", 10), "short     ");
        assert_eq!(clipped("averyverylongname", 8), "averyve…");
        // A cut cell pads to its column by characters, `…` counting one.
        assert_eq!(clipped("aé-long", 6), "aé-l… ");
        assert_eq!(clipped("aé-long", 4), "aé… ");
        // The cut would split `é` (bytes 26..28): it moves back before it.
        let name = format!("{}é_long_suffix", "a".repeat(26));
        assert_eq!(clipped(&name, 28), format!("{}… ", "a".repeat(26)));
        for width in 1..name.len() {
            let cell = clipped(&name, width);
            assert!(cell.len() <= width + '…'.len_utf8(), "{cell}");
            assert_eq!(cell.chars().count(), width, "{cell}");
        }
    }
}
