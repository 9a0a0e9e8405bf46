//! Deterministic system calls.
//!
//! The OptiWISE approach needs the two profiling runs (sampling and
//! instrumentation) to see statistically similar control flow (§IV-F), so
//! every syscall here is deterministic: `time` is a synthetic counter and
//! `rand` a seeded LCG. Workloads use them for inputs that are identical
//! across runs.

use crate::mem::Memory;

/// Syscall numbers (placed in `x0` before `syscall`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyscallNr {
    /// `exit(code)` — terminates the process with `x1` as exit code.
    Exit,
    /// `print_char(c)` — appends the low byte of `x1` to the output buffer.
    PrintChar,
    /// `print_int(v)` — appends the decimal rendering of `x1`.
    PrintInt,
    /// `time()` — returns a deterministic, monotonically increasing counter.
    Time,
    /// `alloc(size)` — bump-allocates `x1` bytes from the heap, returning
    /// the pointer in `x0` (8-byte aligned), or 0 when exhausted.
    Alloc,
    /// `rand()` — returns the next value of a seeded 64-bit LCG.
    Rand,
}

impl SyscallNr {
    /// Decodes a syscall number from `x0`.
    pub fn from_u64(v: u64) -> Option<SyscallNr> {
        match v {
            0 => Some(SyscallNr::Exit),
            1 => Some(SyscallNr::PrintChar),
            2 => Some(SyscallNr::PrintInt),
            3 => Some(SyscallNr::Time),
            4 => Some(SyscallNr::Alloc),
            5 => Some(SyscallNr::Rand),
            _ => None,
        }
    }

    /// The number to place in `x0`.
    pub fn number(self) -> u64 {
        match self {
            SyscallNr::Exit => 0,
            SyscallNr::PrintChar => 1,
            SyscallNr::PrintInt => 2,
            SyscallNr::Time => 3,
            SyscallNr::Alloc => 4,
            SyscallNr::Rand => 5,
        }
    }
}

/// Outcome of servicing a syscall.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallEffect {
    /// Continue executing; `x0` receives the returned value.
    Continue {
        /// Value placed in `x0`.
        ret: u64,
    },
    /// The process exited with this code.
    Exit(i64),
}

/// Kernel-side state backing the deterministic syscalls.
#[derive(Clone, Debug)]
pub struct SyscallState {
    heap_next: u64,
    heap_end: u64,
    time_counter: u64,
    rng_state: u64,
    output: Vec<u8>,
}

impl SyscallState {
    /// Creates syscall state for a process with the given heap range and
    /// RNG seed.
    pub fn new(heap_base: u64, heap_end: u64, rand_seed: u64) -> SyscallState {
        SyscallState {
            heap_next: heap_base,
            heap_end,
            time_counter: 0,
            // splitmix-style scramble so seed 0 is fine.
            rng_state: rand_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            output: Vec::new(),
        }
    }

    /// Bytes written via the print syscalls.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Output interpreted as UTF-8 (lossy).
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// Services one syscall. `args` are `x1..=x3`; memory is available for
    /// future buffer-based calls.
    ///
    /// Unknown syscall numbers return `u64::MAX` in `x0` (like `-ENOSYS`)
    /// rather than faulting, so probing workloads keep running.
    pub fn service(&mut self, nr: u64, args: [u64; 3], _mem: &mut Memory) -> SyscallEffect {
        let Some(nr) = SyscallNr::from_u64(nr) else {
            return SyscallEffect::Continue { ret: u64::MAX };
        };
        match nr {
            SyscallNr::Exit => SyscallEffect::Exit(args[0] as i64),
            SyscallNr::PrintChar => {
                self.output.push(args[0] as u8);
                SyscallEffect::Continue { ret: 0 }
            }
            SyscallNr::PrintInt => {
                self.output
                    .extend_from_slice((args[0] as i64).to_string().as_bytes());
                SyscallEffect::Continue { ret: 0 }
            }
            SyscallNr::Time => {
                // Deterministic "cycle counter": advances a fixed amount per
                // query so timing loops terminate identically in every run.
                self.time_counter += 1000;
                SyscallEffect::Continue {
                    ret: self.time_counter,
                }
            }
            SyscallNr::Alloc => {
                let size = (args[0] + 7) & !7;
                if self.heap_next + size > self.heap_end {
                    return SyscallEffect::Continue { ret: 0 };
                }
                let ptr = self.heap_next;
                self.heap_next += size;
                SyscallEffect::Continue { ret: ptr }
            }
            SyscallNr::Rand => {
                // MMIX LCG constants (Knuth).
                self.rng_state = self
                    .rng_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                SyscallEffect::Continue {
                    ret: self.rng_state,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> SyscallState {
        SyscallState::new(0x1000, 0x2000, 42)
    }

    #[test]
    fn exit_reports_code() {
        let mut s = state();
        let mut mem = Memory::new();
        assert_eq!(s.service(0, [7, 0, 0], &mut mem), SyscallEffect::Exit(7));
    }

    #[test]
    fn alloc_bumps_and_aligns() {
        let mut s = state();
        let mut mem = Memory::new();
        let SyscallEffect::Continue { ret: a } = s.service(4, [12, 0, 0], &mut mem) else {
            panic!()
        };
        let SyscallEffect::Continue { ret: b } = s.service(4, [8, 0, 0], &mut mem) else {
            panic!()
        };
        assert_eq!(a, 0x1000);
        assert_eq!(b, 0x1010);
    }

    #[test]
    fn alloc_exhaustion_returns_null() {
        let mut s = state();
        let mut mem = Memory::new();
        let SyscallEffect::Continue { ret } = s.service(4, [0x10000, 0, 0], &mut mem) else {
            panic!()
        };
        assert_eq!(ret, 0);
    }

    #[test]
    fn rand_is_deterministic() {
        let mut mem = Memory::new();
        let mut a = state();
        let mut b = state();
        for _ in 0..10 {
            assert_eq!(
                a.service(5, [0; 3], &mut mem),
                b.service(5, [0; 3], &mut mem)
            );
        }
    }

    #[test]
    fn print_accumulates() {
        let mut s = state();
        let mut mem = Memory::new();
        s.service(1, [b'h' as u64, 0, 0], &mut mem);
        s.service(1, [b'i' as u64, 0, 0], &mut mem);
        s.service(2, [42, 0, 0], &mut mem);
        assert_eq!(s.output_string(), "hi42");
    }

    #[test]
    fn unknown_nr_is_enosys() {
        let mut s = state();
        let mut mem = Memory::new();
        assert_eq!(
            s.service(99, [0; 3], &mut mem),
            SyscallEffect::Continue { ret: u64::MAX }
        );
    }

    #[test]
    fn time_monotonic() {
        let mut s = state();
        let mut mem = Memory::new();
        let SyscallEffect::Continue { ret: t1 } = s.service(3, [0; 3], &mut mem) else {
            panic!()
        };
        let SyscallEffect::Continue { ret: t2 } = s.service(3, [0; 3], &mut mem) else {
            panic!()
        };
        assert!(t2 > t1);
    }
}
