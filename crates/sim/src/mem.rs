//! Sparse paged memory for the simulated process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Page size in bytes. Also the alignment granule for module bases.
pub const PAGE_SIZE: u64 = 4096;

type Page = [u8; PAGE_SIZE as usize];

/// Sparse byte-addressed memory backed by 4 KiB pages allocated on demand.
///
/// Reads of untouched memory return zero, which models fresh anonymous
/// mappings and keeps workloads deterministic; reading never allocates.
///
/// An access of up to 8 bytes that stays inside one page costs one page
/// lookup; an access that straddles a page boundary takes the byte-at-a-time
/// path. Addresses wrap at `u64::MAX`: the byte after `u64::MAX` is byte 0,
/// in debug and release builds alike, matching the guest's wrapping
/// effective-address arithmetic.
///
/// # Examples
///
/// ```
/// use wiser_sim::Memory;
/// let mut mem = Memory::new();
/// mem.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(mem.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u64(0x2000), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<Page>, BuildHasherDefault<PageHasher>>,
}

/// Multiply-shift hasher for page numbers: one multiply by an odd constant,
/// with the high half folded onto the low half so both the bucket index
/// (low bits) and the control tag (high bits) see every key bit. Nothing
/// iterates `Memory::pages`, so no output depends on the hash order. Keys
/// are the guest's own page numbers: a program that crafts colliding pages
/// only slows its own simulation.
#[derive(Clone, Copy, Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("page numbers are hashed with write_u64");
    }

    fn write_u64(&mut self, page: u64) {
        let h = page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn page(&self, addr: u64) -> Option<&Page> {
        self.pages.get(&(addr / PAGE_SIZE)).map(|p| &**p)
    }

    fn page_mut(&mut self, addr: u64) -> &mut Page {
        self.pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr)[off] = value;
    }

    /// Reads `n <= 8` bytes little-endian, zero-extended.
    pub fn read_uint(&self, addr: u64, n: u64) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr % PAGE_SIZE) as usize;
        if off + 8 > PAGE_SIZE as usize {
            return self.read_uint_bytewise(addr, n);
        }
        let Some(p) = self.page(addr) else { return 0 };
        let word = u64::from_le_bytes(p[off..off + 8].try_into().expect("8-byte slice"));
        word & u64::MAX.checked_shr(64 - 8 * n as u32).unwrap_or(0)
    }

    /// Writes the low `n <= 8` bytes of `value` little-endian.
    pub fn write_uint(&mut self, addr: u64, value: u64, n: u64) {
        debug_assert!(n <= 8);
        let (off, n) = ((addr % PAGE_SIZE) as usize, n as usize);
        if n == 0 || off + n > PAGE_SIZE as usize {
            return self.write_uint_bytewise(addr, value, n as u64);
        }
        self.page_mut(addr)[off..off + n].copy_from_slice(&value.to_le_bytes()[..n]);
    }

    /// Byte-at-a-time [`Memory::read_uint`]: the path for page-straddling
    /// accesses, and the oracle the in-page path is tested against.
    fn read_uint_bytewise(&self, addr: u64, n: u64) -> u64 {
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Byte-at-a-time [`Memory::write_uint`].
    fn write_uint_bytewise(&mut self, addr: u64, value: u64, n: u64) {
        for i in 0..n {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_uint(addr, 4) as u32
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_uint(addr, value as u64, 4);
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_uint(addr, value, 8);
    }

    /// Reads an `f64` stored little-endian.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` little-endian.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        // Page-at-a-time copy; workloads load whole text/data sections here.
        let mut pos = 0usize;
        while pos < bytes.len() {
            let a = addr.wrapping_add(pos as u64);
            let off = (a % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize) - off).min(bytes.len() - pos);
            self.page_mut(a)[off..off + take].copy_from_slice(&bytes[pos..pos + take]);
            pos += take;
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(u64::MAX - 8), 0);
    }

    #[test]
    fn rw_roundtrip_widths() {
        let mut mem = Memory::new();
        mem.write_u8(5, 0xAB);
        assert_eq!(mem.read_u8(5), 0xAB);
        mem.write_u32(100, 0x1234_5678);
        assert_eq!(mem.read_u32(100), 0x1234_5678);
        mem.write_u64(200, u64::MAX);
        assert_eq!(mem.read_u64(200), u64::MAX);
        mem.write_f64(300, -1.25);
        assert_eq!(mem.read_f64(300), -1.25);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = PAGE_SIZE - 3;
        mem.write_u64(addr, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(addr), 0x0102_0304_0506_0708);
        assert!(mem.page_count() >= 2);
    }

    #[test]
    fn bulk_copy_cross_page() {
        let mut mem = Memory::new();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let addr = PAGE_SIZE - 17;
        mem.write_bytes(addr, &data);
        assert_eq!(mem.read_bytes(addr, data.len()), data);
    }

    #[test]
    fn partial_width_is_zero_extended() {
        let mut mem = Memory::new();
        mem.write_u64(0, u64::MAX);
        mem.write_uint(0, 0x7F, 1);
        assert_eq!(mem.read_uint(0, 1), 0x7F);
        assert_eq!(mem.read_u64(0), 0xFFFF_FFFF_FFFF_FF7F);
    }

    #[test]
    fn access_wraps_at_top_of_address_space() {
        let mut mem = Memory::new();
        let addr = u64::MAX - 3;
        mem.write_u64(addr, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(addr), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u32(0), 0x0102_0304);
        assert_eq!(mem.read_u8(u64::MAX), 0x05);
        assert_eq!(mem.page_count(), 2);
        mem.write_bytes(u64::MAX, &[0xAA, 0xBB]);
        assert_eq!(mem.read_bytes(u64::MAX, 2), [0xAA, 0xBB]);
        assert_eq!(mem.read_u8(0), 0xBB);
    }

    #[test]
    fn reads_and_empty_writes_allocate_nothing() {
        let mut mem = Memory::new();
        for addr in [0, PAGE_SIZE - 1, PAGE_SIZE - 8, u64::MAX - 3] {
            assert_eq!(mem.read_u64(addr), 0);
            assert_eq!(mem.read_bytes(addr, 9), [0; 9]);
            mem.write_uint(addr, u64::MAX, 0);
        }
        assert_eq!(mem.page_count(), 0);
    }

    #[test]
    fn in_page_path_matches_bytewise_near_page_ends() {
        let (mut fast, mut slow) = (Memory::new(), Memory::new());
        let mut value = 0x8877_6655_4433_2211u64;
        for base in [PAGE_SIZE, 2 * PAGE_SIZE, 0] {
            for addr in (0..16).map(|d| base.wrapping_sub(12).wrapping_add(d)) {
                for n in 0..=8 {
                    value = value.rotate_left(8) ^ addr;
                    fast.write_uint(addr, value, n);
                    slow.write_uint_bytewise(addr, value, n);
                    let read = fast.read_uint(addr, n);
                    assert_eq!(read, slow.read_uint_bytewise(addr, n), "{addr:#x} n={n}");
                    assert_eq!(fast.read_bytes(addr, 8), slow.read_bytes(addr, 8));
                }
            }
        }
        assert_eq!(fast.page_count(), slow.page_count());
    }
}
