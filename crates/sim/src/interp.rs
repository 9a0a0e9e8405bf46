//! Functional interpreter.
//!
//! Executes a loaded process architecturally (no timing), producing the
//! retired-instruction stream ([`ExecRecord`]) that both the out-of-order
//! timing model and the DBI engine consume. It also maintains a shadow call
//! stack, which backs the "accurate" stack-unwind mode of the sampling
//! profiler and the stack-profiling attribution checks.

use wiser_isa::{decode_at, Insn, INSN_BYTES};

use crate::error::SimError;
use crate::loader::ProcessImage;
use crate::mem::Memory;
use crate::syscall::{SyscallEffect, SyscallState};
use crate::trace::{BranchOutcome, ExecRecord, FlowEvent};

/// One frame of the shadow call stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Absolute address of the call instruction (or PLT-entered call site).
    pub call_site: u64,
    /// Address the callee returns to.
    pub ret_addr: u64,
    /// Absolute address of the callee entry point.
    pub callee: u64,
}

/// Result of a single interpreter step.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// One instruction retired.
    Retired(ExecRecord),
    /// The process exited with the given code.
    Exited(i64),
}

struct CodeRange {
    base: u64,
    end: u64,
    insns: Vec<Insn>,
}

/// Predecoded code for fast fetch. Built from the loaded (absolute-target)
/// memory image.
struct CodeCache {
    ranges: Vec<CodeRange>,
    hint: usize,
}

impl CodeCache {
    fn build(image: &ProcessImage) -> Result<CodeCache, SimError> {
        let mut ranges = Vec::new();
        for module in &image.modules {
            let bytes = image
                .memory
                .read_bytes(module.base, module.text_size as usize);
            let mut insns = Vec::with_capacity((module.text_size / INSN_BYTES) as usize);
            for i in 0..module.text_size / INSN_BYTES {
                let insn = decode_at(&bytes, i * INSN_BYTES).map_err(|e| {
                    SimError::Load(format!("undecodable text in `{}`: {e}", module.linked.name))
                })?;
                insns.push(insn);
            }
            ranges.push(CodeRange {
                base: module.base,
                end: module.base + module.text_size,
                insns,
            });
        }
        ranges.sort_by_key(|r| r.base);
        Ok(CodeCache { ranges, hint: 0 })
    }

    #[inline]
    fn fetch(&mut self, addr: u64) -> Option<Insn> {
        let hinted = &self.ranges[self.hint];
        if addr >= hinted.base && addr < hinted.end {
            return self.index(self.hint, addr);
        }
        for (i, r) in self.ranges.iter().enumerate() {
            if addr >= r.base && addr < r.end {
                self.hint = i;
                return self.index(i, addr);
            }
        }
        None
    }

    #[inline]
    fn index(&self, range: usize, addr: u64) -> Option<Insn> {
        let r = &self.ranges[range];
        let off = addr - r.base;
        if !off.is_multiple_of(INSN_BYTES) {
            return None;
        }
        r.insns.get((off / INSN_BYTES) as usize).copied()
    }
}

/// Architectural CPU state.
#[derive(Clone, Debug)]
pub struct Cpu {
    /// Program counter.
    pub pc: u64,
    /// General-purpose registers.
    pub gpr: [u64; 16],
    /// Floating-point registers.
    pub fpr: [f64; 8],
}

/// The functional interpreter over a loaded process image.
///
/// # Examples
///
/// ```
/// use wiser_isa::assemble;
/// use wiser_sim::{Interp, ProcessImage};
///
/// let module = assemble(
///     "add",
///     r#"
///     .func _start global
///         li x1, 40
///         addi x1, x1, 2
///         mov x1, x1
///         li x0, 0       ; exit syscall, code in x1
///         syscall
///     .endfunc
///     .entry _start
///     "#,
/// )?;
/// let image = ProcessImage::load_single(&module)?;
/// let mut interp = Interp::new(&image, 0)?;
/// let exit = interp.run(1_000_000)?;
/// assert_eq!(exit, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Interp {
    cpu: Cpu,
    memory: Memory,
    code: CodeCache,
    syscalls: SyscallState,
    shadow_stack: Vec<Frame>,
    seq: u64,
    exited: Option<i64>,
}

impl Interp {
    /// Creates an interpreter over a process image. `rand_seed` seeds the
    /// deterministic `rand` syscall.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Load`] if the image's text fails to decode.
    pub fn new(image: &ProcessImage, rand_seed: u64) -> Result<Interp, SimError> {
        let code = CodeCache::build(image)?;
        let mut cpu = Cpu {
            pc: image.entry,
            gpr: [0; 16],
            fpr: [0.0; 8],
        };
        cpu.gpr[wiser_isa::Gpr::SP.index()] = image.stack_top;
        cpu.gpr[wiser_isa::Gpr::FP.index()] = image.stack_top;
        Ok(Interp {
            cpu,
            memory: image.memory.clone(),
            code,
            syscalls: SyscallState::new(image.heap_base, image.heap_end, rand_seed),
            shadow_stack: Vec::with_capacity(64),
            seq: 0,
            exited: None,
        })
    }

    /// Current architectural state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Current memory state.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The shadow call stack, outermost frame first.
    pub fn shadow_stack(&self) -> &[Frame] {
        &self.shadow_stack
    }

    /// Bytes printed by the program so far.
    pub fn output(&self) -> &[u8] {
        self.syscalls.output()
    }

    /// Program output as a string.
    pub fn output_string(&self) -> String {
        self.syscalls.output_string()
    }

    /// Number of retired instructions.
    pub fn retired(&self) -> u64 {
        self.seq
    }

    /// Exit code, once the program has exited.
    pub fn exit_code(&self) -> Option<i64> {
        self.exited
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Exec`] for fetches outside mapped code or other
    /// execution faults.
    #[inline(always)]
    pub fn step(&mut self) -> Result<Step, SimError> {
        if let Some(code) = self.exited {
            return Ok(Step::Exited(code));
        }
        let addr = self.cpu.pc;
        let insn = self.code.fetch(addr).ok_or_else(|| SimError::Exec {
            pc: addr,
            message: "fetch outside mapped code".into(),
        })?;

        let fallthrough = addr + INSN_BYTES;
        let mut next = fallthrough;
        let mut mem_addr = None;
        let mut branch = None;
        let mut flow = None;

        let gpr = |cpu: &Cpu, r: wiser_isa::Gpr| cpu.gpr[r.index()];
        macro_rules! set_gpr {
            ($r:expr, $v:expr) => {
                self.cpu.gpr[$r.index()] = $v
            };
        }
        macro_rules! set_fpr {
            ($r:expr, $v:expr) => {
                self.cpu.fpr[$r.index()] = $v
            };
        }

        match insn {
            Insn::Nop => {}
            Insn::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(gpr(&self.cpu, rs1), gpr(&self.cpu, rs2));
                set_gpr!(rd, v);
            }
            Insn::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(gpr(&self.cpu, rs1), imm as i64 as u64);
                set_gpr!(rd, v);
            }
            Insn::Li { rd, imm } => set_gpr!(rd, imm as i64 as u64),
            Insn::Lui { rd, imm } => {
                let low = gpr(&self.cpu, rd) & 0xFFFF_FFFF;
                set_gpr!(rd, low | ((imm as u32 as u64) << 32));
            }
            Insn::Mov { rd, rs } => set_gpr!(rd, gpr(&self.cpu, rs)),
            Insn::Cmov { cond, rd, rs, rc } => {
                if cond.eval(gpr(&self.cpu, rc), 0) {
                    set_gpr!(rd, gpr(&self.cpu, rs));
                }
            }
            Insn::SetCond { cond, rd, rs1, rs2 } => {
                let v = cond.eval(gpr(&self.cpu, rs1), gpr(&self.cpu, rs2)) as u64;
                set_gpr!(rd, v);
            }
            Insn::Ld {
                width,
                rd,
                base,
                disp,
            } => {
                let ea = gpr(&self.cpu, base).wrapping_add(disp as i64 as u64);
                mem_addr = Some(ea);
                let v = self.memory.read_uint(ea, width.bytes());
                set_gpr!(rd, v);
            }
            Insn::St {
                width,
                rs,
                base,
                disp,
            } => {
                let ea = gpr(&self.cpu, base).wrapping_add(disp as i64 as u64);
                mem_addr = Some(ea);
                self.memory
                    .write_uint(ea, gpr(&self.cpu, rs), width.bytes());
            }
            Insn::Ldx {
                width,
                rd,
                base,
                index,
                scale,
                disp,
            } => {
                let ea = gpr(&self.cpu, base)
                    .wrapping_add(gpr(&self.cpu, index).wrapping_mul(scale.factor()))
                    .wrapping_add(disp as i64 as u64);
                mem_addr = Some(ea);
                let v = self.memory.read_uint(ea, width.bytes());
                set_gpr!(rd, v);
            }
            Insn::Stx {
                width,
                rs,
                base,
                index,
                scale,
                disp,
            } => {
                let ea = gpr(&self.cpu, base)
                    .wrapping_add(gpr(&self.cpu, index).wrapping_mul(scale.factor()))
                    .wrapping_add(disp as i64 as u64);
                mem_addr = Some(ea);
                self.memory
                    .write_uint(ea, gpr(&self.cpu, rs), width.bytes());
            }
            Insn::Prefetch { base, disp } => {
                // Architecturally a no-op; the timing model warms the cache.
                mem_addr = Some(gpr(&self.cpu, base).wrapping_add(disp as i64 as u64));
            }
            Insn::Push { rs } => {
                let sp = gpr(&self.cpu, wiser_isa::Gpr::SP).wrapping_sub(8);
                set_gpr!(wiser_isa::Gpr::SP, sp);
                mem_addr = Some(sp);
                self.memory.write_u64(sp, gpr(&self.cpu, rs));
            }
            Insn::Pop { rd } => {
                let sp = gpr(&self.cpu, wiser_isa::Gpr::SP);
                mem_addr = Some(sp);
                let v = self.memory.read_u64(sp);
                set_gpr!(wiser_isa::Gpr::SP, sp.wrapping_add(8));
                set_gpr!(rd, v);
            }
            Insn::Jmp { target } => {
                next = target as u64;
                branch = Some(BranchOutcome {
                    kind: wiser_isa::CtiKind::DirectJump,
                    taken: true,
                    target: next,
                });
            }
            Insn::B {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(gpr(&self.cpu, rs1), gpr(&self.cpu, rs2));
                if taken {
                    next = target as u64;
                }
                branch = Some(BranchOutcome {
                    kind: wiser_isa::CtiKind::CondBranch,
                    taken,
                    target: next,
                });
            }
            Insn::Jr { rs } => {
                next = gpr(&self.cpu, rs);
                branch = Some(BranchOutcome {
                    kind: wiser_isa::CtiKind::IndirectJump,
                    taken: true,
                    target: next,
                });
            }
            Insn::JmpGot { slot } => {
                mem_addr = Some(slot as u64);
                next = self.memory.read_u64(slot as u64);
                branch = Some(BranchOutcome {
                    kind: wiser_isa::CtiKind::IndirectJump,
                    taken: true,
                    target: next,
                });
            }
            Insn::Call { target } => {
                let sp = gpr(&self.cpu, wiser_isa::Gpr::SP).wrapping_sub(8);
                set_gpr!(wiser_isa::Gpr::SP, sp);
                mem_addr = Some(sp);
                self.memory.write_u64(sp, fallthrough);
                next = target as u64;
                branch = Some(BranchOutcome {
                    kind: wiser_isa::CtiKind::DirectCall,
                    taken: true,
                    target: next,
                });
                flow = Some(FlowEvent::Call {
                    ret_addr: fallthrough,
                    callee: next,
                });
                self.shadow_stack.push(Frame {
                    call_site: addr,
                    ret_addr: fallthrough,
                    callee: next,
                });
            }
            Insn::Callr { rs } => {
                let callee = gpr(&self.cpu, rs);
                let sp = gpr(&self.cpu, wiser_isa::Gpr::SP).wrapping_sub(8);
                set_gpr!(wiser_isa::Gpr::SP, sp);
                mem_addr = Some(sp);
                self.memory.write_u64(sp, fallthrough);
                next = callee;
                branch = Some(BranchOutcome {
                    kind: wiser_isa::CtiKind::IndirectCall,
                    taken: true,
                    target: next,
                });
                flow = Some(FlowEvent::Call {
                    ret_addr: fallthrough,
                    callee,
                });
                self.shadow_stack.push(Frame {
                    call_site: addr,
                    ret_addr: fallthrough,
                    callee,
                });
            }
            Insn::Ret => {
                let sp = gpr(&self.cpu, wiser_isa::Gpr::SP);
                mem_addr = Some(sp);
                next = self.memory.read_u64(sp);
                set_gpr!(wiser_isa::Gpr::SP, sp.wrapping_add(8));
                branch = Some(BranchOutcome {
                    kind: wiser_isa::CtiKind::Return,
                    taken: true,
                    target: next,
                });
                flow = Some(FlowEvent::Ret { to: next });
                // Pop matching frame; tolerate hand-rolled control flow by
                // popping through non-matching frames.
                if let Some(pos) = self.shadow_stack.iter().rposition(|f| f.ret_addr == next) {
                    self.shadow_stack.truncate(pos);
                } else {
                    self.shadow_stack.pop();
                }
            }
            Insn::Syscall => {
                let nr = self.cpu.gpr[0];
                let args = [self.cpu.gpr[1], self.cpu.gpr[2], self.cpu.gpr[3]];
                branch = Some(BranchOutcome {
                    kind: wiser_isa::CtiKind::Syscall,
                    taken: true,
                    target: fallthrough,
                });
                match self.syscalls.service(nr, args, &mut self.memory) {
                    SyscallEffect::Continue { ret } => self.cpu.gpr[0] = ret,
                    SyscallEffect::Exit(code) => {
                        self.exited = Some(code);
                    }
                }
            }
            Insn::Fp { op, fd, fs1, fs2 } => {
                let v = op.eval(self.cpu.fpr[fs1.index()], self.cpu.fpr[fs2.index()]);
                set_fpr!(fd, v);
            }
            Insn::Fsqrt { fd, fs } => set_fpr!(fd, self.cpu.fpr[fs.index()].sqrt()),
            Insn::Fneg { fd, fs } => set_fpr!(fd, -self.cpu.fpr[fs.index()]),
            Insn::Fmov { fd, fs } => set_fpr!(fd, self.cpu.fpr[fs.index()]),
            Insn::Fcmp { cmp, rd, fs1, fs2 } => {
                let v = cmp.eval(self.cpu.fpr[fs1.index()], self.cpu.fpr[fs2.index()]) as u64;
                set_gpr!(rd, v);
            }
            Insn::Fcvtif { fd, rs } => set_fpr!(fd, gpr(&self.cpu, rs) as i64 as f64),
            Insn::Fcvtfi { rd, fs } => {
                let f = self.cpu.fpr[fs.index()];
                let v = if f.is_nan() {
                    0
                } else {
                    f as i64 // saturating cast semantics of Rust `as`
                };
                set_gpr!(rd, v as u64);
            }
            Insn::Fld { fd, base, disp } => {
                let ea = gpr(&self.cpu, base).wrapping_add(disp as i64 as u64);
                mem_addr = Some(ea);
                set_fpr!(fd, self.memory.read_f64(ea));
            }
            Insn::Fst { fs, base, disp } => {
                let ea = gpr(&self.cpu, base).wrapping_add(disp as i64 as u64);
                mem_addr = Some(ea);
                let v = self.cpu.fpr[fs.index()];
                self.memory.write_f64(ea, v);
            }
            Insn::Fldx {
                fd,
                base,
                index,
                scale,
                disp,
            } => {
                let ea = gpr(&self.cpu, base)
                    .wrapping_add(gpr(&self.cpu, index).wrapping_mul(scale.factor()))
                    .wrapping_add(disp as i64 as u64);
                mem_addr = Some(ea);
                set_fpr!(fd, self.memory.read_f64(ea));
            }
            Insn::Fstx {
                fs,
                base,
                index,
                scale,
                disp,
            } => {
                let ea = gpr(&self.cpu, base)
                    .wrapping_add(gpr(&self.cpu, index).wrapping_mul(scale.factor()))
                    .wrapping_add(disp as i64 as u64);
                mem_addr = Some(ea);
                let v = self.cpu.fpr[fs.index()];
                self.memory.write_f64(ea, v);
            }
        }

        self.cpu.pc = next;
        let record = ExecRecord {
            seq: self.seq,
            addr,
            insn,
            next_addr: next,
            mem_addr,
            branch,
            flow,
        };
        self.seq += 1;
        Ok(Step::Retired(record))
    }

    /// Runs to exit, returning the exit code.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InsnLimit`] if the program does not exit within
    /// `max_insns` instructions, or [`SimError::Exec`] on a fault.
    pub fn run(&mut self, max_insns: u64) -> Result<i64, SimError> {
        loop {
            match self.step()? {
                Step::Retired(_) => {
                    if self.seq >= max_insns {
                        return Err(SimError::InsnLimit(max_insns));
                    }
                }
                Step::Exited(code) => return Ok(code),
            }
        }
    }
}

/// A convenience function: loads, runs and returns `(exit_code, retired,
/// output)` for a single module.
///
/// # Errors
///
/// Propagates loader and execution errors.
pub fn run_module(
    module: &wiser_isa::Module,
    max_insns: u64,
) -> Result<(i64, u64, String), SimError> {
    let image = ProcessImage::load_single(module)?;
    let mut interp = Interp::new(&image, 0)?;
    let code = interp.run(max_insns)?;
    Ok((code, interp.retired(), interp.output_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_isa::assemble;

    fn run_src(src: &str) -> (i64, u64, String) {
        let m = assemble("t", src).unwrap();
        run_module(&m, 10_000_000).unwrap()
    }

    #[test]
    fn arithmetic_loop() {
        // Sum 1..=10 into x2, exit with the sum.
        let (code, _, _) = run_src(
            r#"
            .func _start global
                li x1, 0      ; i
                li x2, 0      ; sum
                li x3, 10
            loop:
                addi x1, x1, 1
                add x2, x2, x1
                bne x1, x3, loop
                mov x1, x2
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 55);
    }

    #[test]
    fn memory_and_indexing() {
        let (code, _, _) = run_src(
            r#"
            .data
            arr: .u64 5, 10, 15, 20
            .func _start global
                la x1, arr
                li x2, 0      ; index
                li x3, 0      ; sum
                li x4, 4
            loop:
                ldx.8 x5, [x1+x2*8]
                add x3, x3, x5
                addi x2, x2, 1
                bne x2, x4, loop
                mov x1, x3
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 50);
    }

    #[test]
    fn calls_and_shadow_stack() {
        let (code, _, _) = run_src(
            r#"
            .func double
                add x0, x1, x1
                ret
            .endfunc
            .func _start global
                li x1, 21
                call double
                mov x1, x0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 42);
    }

    #[test]
    fn recursion() {
        // fib(10) = 55, recursive.
        let (code, _, _) = run_src(
            r#"
            .func fib
                push fp
                mov fp, sp
                li x2, 2
                blt x1, x2, base
                push x1
                subi x1, x1, 1
                call fib
                pop x1
                push x0
                subi x1, x1, 2
                call fib
                pop x2
                add x0, x0, x2
                jmp done
            base:
                mov x0, x1
            done:
                mov sp, fp
                pop fp
                ret
            .endfunc
            .func _start global
                li x1, 10
                call fib
                mov x1, x0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 55);
    }

    #[test]
    fn indirect_call_through_register() {
        let (code, _, _) = run_src(
            r#"
            .func inc
                addi x0, x1, 1
                ret
            .endfunc
            .func _start global
                la x5, inc
                li x1, 41
                callr x5
                mov x1, x0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 42);
    }

    #[test]
    fn fp_arithmetic() {
        let (code, _, _) = run_src(
            r#"
            .data
            vals: .f64 6.0, 7.0
            .func _start global
                la x1, vals
                fld f0, [x1]
                fld f1, [x1+8]
                fmul f2, f0, f1
                fcvtfi x1, f2
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 42);
    }

    #[test]
    fn fdiv_and_sqrt() {
        let (code, _, _) = run_src(
            r#"
            .data
            vals: .f64 1764.0, 1.0
            .func _start global
                la x1, vals
                fld f0, [x1]
                fsqrt f1, f0
                fld f2, [x1+8]
                fdiv f3, f1, f2
                fcvtfi x1, f3
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 42);
    }

    #[test]
    fn print_output() {
        let (_, _, out) = run_src(
            r#"
            .func _start global
                li x0, 2
                li x1, 123
                syscall
                li x0, 1
                li x1, 10  ; '\n'
                syscall
                li x0, 0
                li x1, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(out, "123\n");
    }

    #[test]
    fn alloc_and_use_heap() {
        let (code, _, _) = run_src(
            r#"
            .func _start global
                li x0, 4
                li x1, 64
                syscall       ; x0 = heap ptr
                li x2, 77
                st.8 x2, [x0]
                ld.8 x1, [x0]
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 77);
    }

    #[test]
    fn insn_limit_enforced() {
        let m = assemble(
            "spin",
            ".func _start global\nspin: jmp spin\n.endfunc\n.entry _start",
        )
        .unwrap();
        assert!(matches!(
            run_module(&m, 1000),
            Err(SimError::InsnLimit(1000))
        ));
    }

    #[test]
    fn jump_outside_code_faults() {
        let m = assemble(
            "bad",
            r#"
            .func _start global
                li x1, 1
                jr x1
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        assert!(matches!(run_module(&m, 1000), Err(SimError::Exec { .. })));
    }

    #[test]
    fn cross_module_call_via_plt() {
        let main = assemble(
            "main",
            r#"
            .import triple
            .func _start global
                li x1, 14
                call triple
                mov x1, x0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let lib = assemble(
            "lib",
            r#"
            .func triple global
                add x0, x1, x1
                add x0, x0, x1
                ret
            .endfunc
            "#,
        )
        .unwrap();
        let image =
            ProcessImage::load(&[main, lib], &crate::loader::LoadConfig::default()).unwrap();
        let mut interp = Interp::new(&image, 0).unwrap();
        assert_eq!(interp.run(10_000).unwrap(), 42);
    }

    #[test]
    fn cmov_semantics() {
        let (code, _, _) = run_src(
            r#"
            .func _start global
                li x1, 10
                li x2, 20
                li x3, 0
                cmovz x1, x2, x3   ; x3 == 0, so x1 = 20
                li x4, 1
                li x5, 99
                cmovz x1, x5, x4   ; x4 != 0, so x1 unchanged
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        assert_eq!(code, 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = r#"
            .func _start global
                li x8, 0
                li x9, 100
            loop:
                li x0, 5
                syscall          ; rand
                andi x1, x0, 255
                add x8, x8, x1
                addi x9, x9, -1
                li x2, 0
                bne x9, x2, loop
                mov x1, x8
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a, b);
    }
}
