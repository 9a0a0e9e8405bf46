//! The `.owp` container format: framing, checksums, and the primitive
//! byte-level codec.
//!
//! ## Layout
//!
//! ```text
//! magic    "OPWSPROF"                                  8 bytes
//! version  u32 LE (this crate writes FORMAT_VERSION)   4 bytes
//! count    u32 LE number of sections                   4 bytes
//! section* tag[4] + payload_len u64 LE + crc u32 LE + payload
//! ```
//!
//! The CRC of each section covers the tag *and* the payload, so a bit flip
//! anywhere in a section — including one that turns a known tag into an
//! unknown one — fails the checksum instead of being skipped. Readers skip
//! unknown (but checksum-valid) tags, which is the forward-compatibility
//! rule: a newer writer may add sections and an older reader still loads
//! the parts it understands.
//!
//! All integers are little-endian. Strings are `u32` byte length + UTF-8.
//! Every decode error is an [`StoreError`] carrying the absolute byte
//! offset where decoding failed and the section tag if inside one.

use std::borrow::Cow;
use std::cell::Cell;
use std::rc::Rc;

use optiwise::StoreError;

/// File magic, first 8 bytes of every `.owp` file.
pub const MAGIC: [u8; 8] = *b"OPWSPROF";

/// Format version this crate writes. Readers accept exactly this version;
/// compatibility across versions is handled by *sections* (unknown tags are
/// skipped), the version only moves for incompatible framing changes.
pub const FORMAT_VERSION: u32 = 1;

const HEADER_LEN: usize = 16;
const SECTION_FRAME_LEN: usize = 4 + 8 + 4;

/// IEEE CRC-32 lookup tables for slicing-by-8, built at compile time.
/// `CRC_TABLES[0]` is the bytewise table; entry `i` of `CRC_TABLES[k]` is
/// the CRC state of byte `i` followed by `k` zero bytes, so eight bytes fold
/// in with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `data` into the running (inverted) CRC-32 state `crc`: by
/// carry-less multiplication where the CPU has it and the input is long
/// enough to pay for the set-up, else by [`crc_update_portable`], which is
/// the reference both paths are tested against.
fn crc_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU has PCLMULQDQ (checked above), and SSE2 is part
        // of every x86_64 CPU.
        return unsafe { clmul::crc_update(crc, data) };
    }
    crc_update_portable(crc, data)
}

/// [`crc_update`] by slicing-by-8 table lookups, on every architecture.
fn crc_update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// CRC-32 by PCLMULQDQ folding: Intel's "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" for the bit-reflected IEEE
/// polynomial, four 128-bit lanes folded 64 bytes at a time, then one lane
/// 16 bytes at a time, reduced to 64 bits and finished by a Barrett
/// reduction. Bytes past the last whole 16-byte block go to the portable
/// path.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input taken: the four lanes load 64 bytes before folding.
    pub const MIN_LEN: usize = 64;

    // Each constant is `(x^n mod P(x))` bit-reflected and shifted left by
    // one, for the `n` in its comment; `P` is the 33-bit reflected
    // polynomial and `U` is `x^64 / P(x)` reflected.
    const K1: i64 = 0x1_5444_2bd4; // n = 4 * 128 + 32
    const K2: i64 = 0x1_c6e4_1596; // n = 4 * 128 - 32
    const K3: i64 = 0x1_7519_97d0; // n = 128 + 32
    const K4: i64 = 0x0_ccaa_009e; // n = 128 - 32
    const K5: i64 = 0x1_63cd_6124; // n = 64
    const P: i64 = 0x1_db71_0641;
    const U: i64 = 0x1_f701_1641;

    /// [`super::crc_update`] for `data` of at least [`MIN_LEN`] bytes.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq,sse2")]
    pub unsafe fn crc_update(crc: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        let mut x3 = next(&mut data);
        let mut x2 = next(&mut data);
        let mut x1 = next(&mut data);
        let mut x0 = next(&mut data);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, next(&mut data), k1k2);
            x2 = fold(x2, next(&mut data), k1k2);
            x1 = fold(x1, next(&mut data), k1k2);
            x0 = fold(x0, next(&mut data), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold(x, next(&mut data), k3k4);
        }

        // 128 bits to 64, then Barrett: the CRC is bits 32..64 of the sum.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pu = _mm_set_epi64x(U, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let crc = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;
        super::crc_update_portable(crc, data)
    }

    /// Folds lane `a` forward by the distance `keys` encodes and adds `b`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Loads the next 16 bytes of `data` and steps past them.
    #[target_feature(enable = "sse2")]
    fn next(data: &mut &[u8]) -> __m128i {
        let (block, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `block` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }
}

/// IEEE CRC-32 of `data` (the polynomial used by zip/png/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    !crc_update(!0, data)
}

/// CRC-32 of a section's tag followed by its payload.
fn section_crc(tag: [u8; 4], payload: &[u8]) -> u32 {
    !crc_update(crc_update(!0, &tag), payload)
}

/// Frames `sections` into a complete `.owp` byte image.
pub fn write_store(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let body: usize = sections
        .iter()
        .map(|(_, p)| SECTION_FRAME_LEN + p.len())
        .sum();
    let mut out = Vec::with_capacity(HEADER_LEN + body);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&section_crc(*tag, payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// One checksum-verified section of a store image.
#[derive(Debug)]
pub struct RawSection<'a> {
    /// Section tag (e.g. `*b"TABL"`).
    pub tag: [u8; 4],
    /// Absolute offset of the payload's first byte in the file.
    pub payload_offset: u64,
    /// The payload bytes.
    pub payload: &'a [u8],
}

impl RawSection<'_> {
    /// The tag as text, less the spaces that pad a short tag such as
    /// `JOB ` (lossy for non-ASCII tags). Borrowed from the tag unless it
    /// is not UTF-8.
    pub fn tag_name(&self) -> Cow<'_, str> {
        match String::from_utf8_lossy(&self.tag) {
            Cow::Borrowed(name) => Cow::Borrowed(name.trim_end()),
            Cow::Owned(name) => Cow::Owned(name.trim_end().to_owned()),
        }
    }
}

/// Validates the header and every section checksum, returning the sections
/// in file order. Unknown tags are returned too — *policy* on them (skip)
/// belongs to the caller; *integrity* is enforced here for every section.
///
/// # Errors
///
/// Returns a [`StoreError`] locating the first framing or checksum failure.
pub fn read_sections(data: &[u8]) -> Result<Vec<RawSection<'_>>, StoreError> {
    if data.len() < HEADER_LEN {
        return Err(StoreError::at(
            data.len() as u64,
            format!("file too short for header: {} bytes", data.len()),
        ));
    }
    if data[..8] != MAGIC {
        return Err(StoreError::at(0, format!("bad magic {:02x?}", &data[..8])));
    }
    let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::at(
            8,
            format!("unsupported format version {version} (expected {FORMAT_VERSION})"),
        ));
    }
    let count = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes"));
    let mut sections = Vec::new();
    let mut pos = HEADER_LEN;
    for i in 0..count {
        if data.len() - pos < SECTION_FRAME_LEN {
            return Err(StoreError::at(
                pos as u64,
                format!(
                    "file truncated in section {i} frame ({} of {count} sections read)",
                    sections.len()
                ),
            ));
        }
        let tag: [u8; 4] = data[pos..pos + 4].try_into().expect("4 bytes");
        let len = u64::from_le_bytes(data[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(data[pos + 12..pos + 16].try_into().expect("4 bytes"));
        let payload_start = pos + SECTION_FRAME_LEN;
        let payload_len = usize::try_from(len).map_err(|_| {
            StoreError::at(
                pos as u64 + 4,
                format!("section length {len} unrepresentable"),
            )
        })?;
        if data.len() - payload_start < payload_len {
            return Err(StoreError::in_section(
                pos as u64 + 4,
                String::from_utf8_lossy(&tag),
                format!(
                    "declared payload of {payload_len} bytes but only {} remain",
                    data.len() - payload_start
                ),
            ));
        }
        let payload = &data[payload_start..payload_start + payload_len];
        let actual = section_crc(tag, payload);
        if actual != crc {
            return Err(StoreError::in_section(
                pos as u64,
                String::from_utf8_lossy(&tag),
                format!("checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"),
            ));
        }
        sections.push(RawSection {
            tag,
            payload_offset: payload_start as u64,
            payload,
        });
        pos = payload_start + payload_len;
    }
    if pos != data.len() {
        return Err(StoreError::at(
            pos as u64,
            format!("{} trailing bytes after last section", data.len() - pos),
        ));
    }
    Ok(sections)
}

/// Byte spans of a valid store image: `(tag, payload start, payload end)`
/// as absolute file offsets. Lets corruption tests target each section
/// precisely.
///
/// # Errors
///
/// Propagates [`read_sections`] failures on an invalid image.
pub fn section_spans(data: &[u8]) -> Result<Vec<(String, u64, u64)>, StoreError> {
    Ok(read_sections(data)?
        .iter()
        .map(|s| {
            (
                s.tag_name().into_owned(),
                s.payload_offset,
                s.payload_offset + s.payload.len() as u64,
            )
        })
        .collect())
}

/// Append-only encoder for section payloads.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// A fresh writer with room for `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a collection length (`u64`).
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Test instrument: when `WISER_STORE_UNSAFE_PREALLOC=1`, decoders skip
/// the [`DecodeBudget`] charge and pre-allocate straight from declared
/// counts — the exact decode-bomb the budget exists to stop. CI flips this
/// on under the fuzz harness to prove the harness catches the bug class
/// (exit 13); it must never be set in production.
fn unsafe_prealloc() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("WISER_STORE_UNSAFE_PREALLOC").is_some_and(|v| v == "1"))
}

/// Cumulative allocation budget for one decode of untrusted bytes.
///
/// A single `.owp` image decodes through several [`ByteReader`]s (one per
/// section); they share one budget via `Clone`, so the cap bounds the
/// *whole* decode, not each section independently. Declared counts are
/// charged at their in-memory element size *before* any `with_capacity`
/// call, so an adversarial count fails closed with a byte-offset
/// [`StoreError`] instead of driving a multi-gigabyte allocation.
#[derive(Clone, Debug)]
pub struct DecodeBudget {
    limit: u64,
    used: Rc<Cell<u64>>,
}

impl DecodeBudget {
    /// A budget of `limit` bytes of decode-side allocation.
    pub fn new(limit: u64) -> DecodeBudget {
        DecodeBudget {
            limit,
            used: Rc::new(Cell::new(0)),
        }
    }

    /// No cap. For trusted inputs and encode-side readers.
    pub fn unbounded() -> DecodeBudget {
        DecodeBudget::new(u64::MAX)
    }

    /// Bytes charged so far across every reader sharing this budget.
    pub fn used(&self) -> u64 {
        self.used.get()
    }

    /// Whether charging `bytes` now would succeed.
    fn fits(&self, bytes: u64) -> bool {
        self.used.get().saturating_add(bytes) <= self.limit || unsafe_prealloc()
    }

    fn charge(&self, bytes: u64) -> Result<(), u64> {
        let total = self.used.get().saturating_add(bytes);
        if total > self.limit && !unsafe_prealloc() {
            return Err(self.limit);
        }
        self.used.set(total);
        Ok(())
    }
}

/// Bounds-checked decoder over one section's payload. Every failure
/// reports the *absolute* file offset (the payload's base offset plus the
/// cursor) and the section tag, so a corrupted file diagnoses to a byte.
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
    base: u64,
    section: Cow<'a, str>,
    budget: DecodeBudget,
}

impl<'a> ByteReader<'a> {
    /// A reader over `section`'s payload starting at absolute offset
    /// `base`, with no allocation budget (trusted input).
    pub fn new(payload: &'a [u8], base: u64, section: impl Into<Cow<'a, str>>) -> ByteReader<'a> {
        ByteReader::with_budget(payload, base, section, DecodeBudget::unbounded())
    }

    /// A reader whose length and string reads charge `budget` before any
    /// allocation. Share one budget (it is `Clone`) across the readers of
    /// one decode so the cap is cumulative.
    pub fn with_budget(
        payload: &'a [u8],
        base: u64,
        section: impl Into<Cow<'a, str>>,
        budget: DecodeBudget,
    ) -> ByteReader<'a> {
        ByteReader {
            data: payload,
            pos: 0,
            base,
            section: section.into(),
            budget,
        }
    }

    /// Absolute file offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// An error at the current position, tagged with this section.
    pub fn error(&self, message: impl Into<String>) -> StoreError {
        StoreError::in_section(self.offset(), &*self.section, message)
    }

    /// Bytes not yet consumed. Lets decoders accept older images that
    /// simply end before an appended optional tail.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The bytes not yet consumed, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Whether the budget has room for `n × mem_elem_size` bytes more,
    /// charging nothing: for sizing one buffer whose parts are charged
    /// later, one by one.
    pub fn budget_fits(&self, n: usize, mem_elem_size: usize) -> bool {
        self.budget
            .fits((n as u64).saturating_mul(mem_elem_size as u64))
    }

    /// Fails unless the payload was fully consumed.
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.pos != self.data.len() {
            return Err(self.error(format!(
                "{} unexpected trailing bytes in section",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.data.len() - self.pos < n {
            return Err(self.truncated(n, what));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[cold]
    fn truncated(&self, n: usize, what: &str) -> StoreError {
        self.error(format!(
            "section truncated: needed {n} bytes for {what}, {} remain",
            self.data.len() - self.pos
        ))
    }

    /// Reads the next `n` bytes.
    pub fn slice(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        self.take(n, what)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed UTF-8 string, charging its bytes against
    /// the budget (the one decode-side allocation whose size the wire
    /// dictates directly).
    pub fn string(&mut self, what: &str) -> Result<String, StoreError> {
        self.str(what).map(str::to_owned)
    }

    /// [`ByteReader::string`] borrowed from the payload, for a value read
    /// and dropped without being kept. It charges the budget exactly as
    /// `string` does, so both fail on the same bytes with the same error.
    pub fn str(&mut self, what: &str) -> Result<&'a str, StoreError> {
        let at = self.offset();
        let bytes = self.bytes(what)?;
        self.utf8(at, bytes, what)
    }

    /// The bytes of a length-prefixed string, unchecked: [`ByteReader::str`]
    /// without its UTF-8 check, charging the budget as it does.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], StoreError> {
        let at = self.offset();
        let len = self.u32(what)? as usize;
        if self.budget.charge(len as u64).is_err() {
            return Err(StoreError::in_section(
                at,
                &*self.section,
                format!("{what} of {len} bytes exceeds the decode allocation budget"),
            ));
        }
        self.take(len, what)
    }

    /// The UTF-8 check [`ByteReader::str`] makes of `bytes`, a string
    /// whose length prefix is at absolute offset `at`, with the same error.
    pub fn utf8(&self, at: u64, bytes: &'a [u8], what: &str) -> Result<&'a str, StoreError> {
        std::str::from_utf8(bytes).map_err(|e| {
            StoreError::in_section(at, &*self.section, format!("{what} is not UTF-8: {e}"))
        })
    }

    /// Reads a collection length and sanity-checks it against the bytes
    /// remaining: each element needs at least `min_elem_size` bytes, so a
    /// corrupted (huge) length is rejected here instead of driving a
    /// multi-gigabyte allocation.
    pub fn len(&mut self, min_elem_size: usize, what: &str) -> Result<usize, StoreError> {
        let at = self.offset();
        let n = self.u64(what)?;
        let remaining = (self.data.len() - self.pos) as u64;
        let implausible = usize::try_from(n).is_err()
            || n.checked_mul(min_elem_size.max(1) as u64)
                .is_none_or(|need| need > remaining);
        if implausible {
            return Err(StoreError::in_section(
                at,
                &*self.section,
                format!("implausible {what} count {n} ({remaining} bytes remain)"),
            ));
        }
        Ok(n as usize)
    }

    /// Reads a collection length destined for a `with_capacity(n)` call
    /// whose elements occupy `mem_elem_size` bytes *in memory* (as opposed
    /// to `min_elem_size` on the wire). On top of the [`ByteReader::len`]
    /// plausibility check, charges `n × mem_elem_size` against the decode
    /// budget, so a count that is wire-plausible but memory-amplified — a
    /// few wire bytes per element expanding to a fat in-memory struct —
    /// still fails closed before the allocation happens.
    pub fn len_mem(
        &mut self,
        min_elem_size: usize,
        mem_elem_size: usize,
        what: &str,
    ) -> Result<usize, StoreError> {
        let at = self.offset();
        let n = self.len(min_elem_size, what)?;
        self.charge_elems(n, mem_elem_size, at, what)?;
        Ok(n)
    }

    /// Charges `n × mem_elem_size` bytes of upcoming allocation against
    /// the budget. For capacity decisions made *after* the count was read
    /// (e.g. a per-entry map sized from an already-validated count).
    pub fn charge_elems(
        &mut self,
        n: usize,
        mem_elem_size: usize,
        at: u64,
        what: &str,
    ) -> Result<(), StoreError> {
        let need = (n as u64).saturating_mul(mem_elem_size.max(1) as u64);
        if let Err(limit) = self.budget.charge(need) {
            return Err(StoreError::in_section(
                at,
                &*self.section,
                format!(
                    "{what} count {n} needs {need} bytes in memory, \
                     exceeding the {limit}-byte decode allocation budget"
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-byte-at-a-time CRC-32 both fast paths must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (an LCG's top byte).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// The portable path and the dispatched one (carry-less multiplication
    /// on a CPU that has it) equal the bytewise CRC on every length up to
    /// 4 KiB and a few past 64 KiB, at every start offset within 16 bytes,
    /// so every alignment of the 16-byte loads and every tail length is
    /// covered. The portable path is called directly, so it is tested on
    /// every host.
    #[test]
    fn crc_paths_match_bytewise_at_every_length_and_offset() {
        let data = noise(70_000, 0x9e37_79b9_7f4a_7c15);
        for offset in 0..16 {
            // The bytewise state after each byte is the reference for every
            // prefix length in one pass.
            let mut reference = !0u32;
            for len in 0..=4096 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc_update_portable(!0, slice),
                    reference,
                    "portable {offset}+{len}"
                );
                assert_eq!(
                    crc_update(!0, slice),
                    reference,
                    "dispatched {offset}+{len}"
                );
                if let Some(&b) = data.get(offset + len) {
                    reference =
                        (reference >> 8) ^ CRC_TABLES[0][((reference ^ b as u32) & 0xff) as usize];
                }
            }
        }
        for len in [65_536, 65_549, 69_983] {
            let slice = &data[len % 16..][..len];
            let want = crc32_bytewise(slice);
            assert_eq!(!crc_update_portable(!0, slice), want, "portable {len}");
            assert_eq!(crc32(slice), want, "dispatched {len}");
        }
    }

    /// An update split anywhere continues exactly: a section's CRC is its
    /// tag, then its payload.
    #[test]
    fn crc_update_split_at_random_points_matches_one_pass() {
        let data = noise(9_000, 7);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..500 {
            let len = below(data.len() + 1);
            let offset = below(data.len() - len + 1);
            let slice = &data[offset..offset + len];
            let split = below(len + 1);
            let want = crc32_bytewise(slice);
            let (a, b) = slice.split_at(split);
            assert_eq!(
                !crc_update(crc_update(!0, a), b),
                want,
                "{len} split at {split}"
            );
            assert_eq!(
                !crc_update_portable(crc_update_portable(!0, a), b),
                want,
                "portable {len} split at {split}"
            );
        }
        for p in (0..=300usize)
            .chain([1000, 4099])
            .map(|len| noise(len, len as u64))
        {
            let tagged = [b"SAMP".as_slice(), &p].concat();
            assert_eq!(
                section_crc(*b"SAMP", &p),
                crc32_bytewise(&tagged),
                "length {}",
                p.len()
            );
        }
    }

    #[test]
    fn roundtrip_and_spans() {
        let image = write_store(&[
            (*b"AAAA", vec![1, 2, 3]),
            (*b"BBBB", vec![]),
            (*b"CCCC", vec![9; 40]),
        ]);
        let sections = read_sections(&image).unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0].tag, *b"AAAA");
        assert_eq!(sections[0].payload, &[1, 2, 3]);
        assert_eq!(sections[1].payload, &[] as &[u8]);
        assert_eq!(sections[2].payload.len(), 40);

        let spans = section_spans(&image).unwrap();
        assert_eq!(spans[0].0, "AAAA");
        assert_eq!(spans[0].2 - spans[0].1, 3);
        // Spans are absolute: the payload really lives there.
        assert_eq!(&image[spans[0].1 as usize..spans[0].2 as usize], &[1, 2, 3]);
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_localised() {
        let image = write_store(&[(*b"AAAA", vec![7; 10]), (*b"TABL", vec![3; 6])]);
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut bad = image.clone();
                bad[byte] ^= 1 << bit;
                // A flip anywhere must either error or (never) silently
                // change a payload: check payloads when parsing succeeds.
                match read_sections(&bad) {
                    Err(_) => {}
                    Ok(sections) => panic!(
                        "bit flip at byte {byte} bit {bit} went undetected \
                         ({} sections parsed)",
                        sections.len()
                    ),
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let image = write_store(&[(*b"AAAA", vec![7; 10])]);
        for cut in 0..image.len() {
            let err = read_sections(&image[..cut]).unwrap_err();
            assert!(err.offset <= image.len() as u64, "{err}");
        }
        assert!(read_sections(&image).is_ok());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut image = write_store(&[(*b"AAAA", vec![1])]);
        image.push(0);
        let err = read_sections(&image).unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn wrong_version_rejected() {
        let mut image = write_store(&[]);
        image[8] = 99;
        let err = read_sections(&image).unwrap_err();
        assert!(err.message.contains("version 99"), "{err}");
        assert_eq!(err.offset, 8);
    }

    #[test]
    fn reader_reports_absolute_offsets() {
        let mut r = ByteReader::new(&[1, 2], 100, "TEST");
        r.u8("first").unwrap();
        let err = r.u32("missing field").unwrap_err();
        assert_eq!(err.offset, 101);
        assert_eq!(err.section.as_deref(), Some("TEST"));
        assert!(err.message.contains("missing field"), "{err}");
    }

    #[test]
    fn implausible_lengths_rejected_without_allocating() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, 0, "TEST");
        let err = r.len(8, "rows").unwrap_err();
        assert!(err.message.contains("implausible"), "{err}");
    }

    #[test]
    fn writer_primitives_roundtrip_through_reader() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(1 << 40);
        w.string("héllo");
        w.len(3);
        for v in [10u8, 11, 12] {
            w.u8(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, 0, "TEST");
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), 1 << 40);
        assert_eq!(r.string("d").unwrap(), "héllo");
        let n = r.len(1, "e").unwrap();
        assert_eq!(n, 3);
        for v in [10u8, 11, 12] {
            assert_eq!(r.u8("elem").unwrap(), v);
        }
        r.expect_end().unwrap();
    }
}
