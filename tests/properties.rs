//! Randomized property tests over the core data structures and invariants
//! of the stack: instruction encoding, memory, profile serialization, and
//! timing-model conservation laws.
//!
//! Deterministic by construction: each case derives its inputs from a fixed
//! seed through the in-tree `rand` generator, so failures reproduce exactly
//! (the hermetic environment has no proptest; these loops cover the same
//! invariants with explicit generators).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use optiwise::OptiwiseConfig;
use wiser_dbi::{instrument_run, DbiConfig};
use wiser_isa::{decode_insn, encode_insn, AluOp, Cond, FpCmp, FpOp, Fpr, Gpr, Insn, Scale, Width};
use wiser_sampler::SampleProfile;
use wiser_sim::{
    run_timed, run_timed_partial_ctl, CommitMode, CoreConfig, FaultPlan, Interp, Memory, NoProbes,
    ProbePoint, Prober, ProcessImage, Step, ARCH_NAMES, MAX_LATENCY, PAGE_SIZE,
};
use wiser_store::{Checkpoint, CheckpointSpec};

/// Deterministic case generator.
struct Gen(StdRng);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(StdRng::seed_from_u64(seed))
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.0.gen_range(lo..hi)
    }

    fn i32(&mut self) -> i32 {
        self.u64() as i32
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn gpr(&mut self) -> Gpr {
        Gpr::new(self.range(0, 16) as u8).unwrap()
    }

    fn fpr(&mut self) -> Fpr {
        Fpr::new(self.range(0, 8) as u8).unwrap()
    }

    fn cond(&mut self) -> Cond {
        [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu][self.range(0, 6) as usize]
    }

    fn alu_op(&mut self) -> AluOp {
        let all = AluOp::all();
        all[self.range(0, all.len() as u64) as usize]
    }

    fn fp_op(&mut self) -> FpOp {
        let all = FpOp::all();
        all[self.range(0, all.len() as u64) as usize]
    }

    fn width(&mut self) -> Width {
        [Width::W1, Width::W4, Width::W8][self.range(0, 3) as usize]
    }

    /// A random valid core: a preset with every pipeline, unit and latency
    /// field redrawn. Latencies are mostly small (so runs stay short) and
    /// occasionally large, up to the validation cap.
    fn core_config(&mut self) -> CoreConfig {
        let mut c = CoreConfig::by_name(ARCH_NAMES[self.range(0, 3) as usize]).unwrap();
        c.fetch_width = self.range(1, 9) as u32;
        c.dispatch_width = self.range(1, 9) as u32;
        c.issue_width = self.range(1, 9) as u32;
        c.commit_width = self.range(1, 9) as u32;
        c.rob_size = self.range(1, 257) as usize;
        c.iq_size = self.range(1, 129) as usize;
        c.commit_mode = if self.range(0, 2) == 0 {
            CommitMode::InOrder
        } else {
            CommitMode::EarlyRelease
        };
        c.int_alu_units = self.range(1, 5) as u32;
        c.int_mul_units = self.range(1, 3) as u32;
        c.int_div_units = self.range(1, 3) as u32;
        c.fp_units = self.range(1, 4) as u32;
        c.fp_div_units = self.range(1, 3) as u32;
        c.load_ports = self.range(1, 4) as u32;
        c.store_ports = self.range(1, 3) as u32;
        c.mshrs = self.range(1, 17) as u32;
        c.frontend_latency = self.latency(0);
        c.mispredict_penalty = self.latency(0);
        c.int_mul_latency = self.latency(1);
        c.int_div_latency = self.latency(1);
        c.fp_latency = self.latency(1);
        c.fp_div_latency = self.latency(1);
        c.fp_sqrt_latency = self.latency(1);
        c.syscall_latency = self.latency(0);
        c.mem.l1i.latency = self.latency(1);
        c.mem.l1d.latency = self.latency(1);
        c.mem.l2.latency = self.latency(1);
        c.mem.l3.latency = self.latency(1);
        c.mem.mem_latency = self.latency(1);
        c.validate().expect("generated config is valid");
        c
    }

    fn latency(&mut self, min: u64) -> u64 {
        match self.range(0, 16) {
            0 => self.range(min, MAX_LATENCY / 1000 + 1),
            1 => MAX_LATENCY.min(min.max(1) * 1000),
            _ => self.range(min, 48),
        }
    }

    fn scale(&mut self) -> Scale {
        [Scale::S1, Scale::S2, Scale::S4, Scale::S8][self.range(0, 4) as usize]
    }

    fn insn(&mut self) -> Insn {
        match self.range(0, 24) {
            0 => Insn::Nop,
            1 => Insn::Ret,
            2 => Insn::Syscall,
            3 => Insn::Alu {
                op: self.alu_op(),
                rd: self.gpr(),
                rs1: self.gpr(),
                rs2: self.gpr(),
            },
            4 => Insn::AluImm {
                op: self.alu_op(),
                rd: self.gpr(),
                rs1: self.gpr(),
                imm: self.i32(),
            },
            5 => Insn::Li {
                rd: self.gpr(),
                imm: self.i32(),
            },
            6 => Insn::Lui {
                rd: self.gpr(),
                imm: self.i32(),
            },
            7 => Insn::Mov {
                rd: self.gpr(),
                rs: self.gpr(),
            },
            8 => Insn::Cmov {
                // Only Eq/Ne are meaningful in the surface syntax.
                cond: if self.range(0, 2) == 0 {
                    Cond::Eq
                } else {
                    Cond::Ne
                },
                rd: self.gpr(),
                rs: self.gpr(),
                rc: self.gpr(),
            },
            9 => Insn::SetCond {
                cond: self.cond(),
                rd: self.gpr(),
                rs1: self.gpr(),
                rs2: self.gpr(),
            },
            10 => Insn::Ld {
                width: self.width(),
                rd: self.gpr(),
                base: self.gpr(),
                disp: self.i32(),
            },
            11 => Insn::Ldx {
                width: self.width(),
                rd: self.gpr(),
                base: self.gpr(),
                index: self.gpr(),
                scale: self.scale(),
                disp: self.i32(),
            },
            12 => Insn::Stx {
                width: self.width(),
                rs: self.gpr(),
                base: self.gpr(),
                index: self.gpr(),
                scale: self.scale(),
                disp: self.i32(),
            },
            13 => Insn::Prefetch {
                base: self.gpr(),
                disp: self.i32(),
            },
            14 => Insn::Push { rs: self.gpr() },
            15 => Insn::Pop { rd: self.gpr() },
            16 => Insn::Jmp { target: self.u32() },
            17 => Insn::B {
                cond: self.cond(),
                rs1: self.gpr(),
                rs2: self.gpr(),
                target: self.u32(),
            },
            18 => Insn::Jr { rs: self.gpr() },
            19 => Insn::JmpGot { slot: self.u32() },
            20 => Insn::Call { target: self.u32() },
            21 => Insn::Callr { rs: self.gpr() },
            22 => Insn::Fp {
                op: self.fp_op(),
                fd: self.fpr(),
                fs1: self.fpr(),
                fs2: self.fpr(),
            },
            23 => match self.range(0, 4) {
                0 => Insn::Fsqrt {
                    fd: self.fpr(),
                    fs: self.fpr(),
                },
                1 => Insn::Fcmp {
                    cmp: [FpCmp::Feq, FpCmp::Flt, FpCmp::Fle][self.range(0, 3) as usize],
                    rd: self.gpr(),
                    fs1: self.fpr(),
                    fs2: self.fpr(),
                },
                2 => Insn::Fld {
                    fd: self.fpr(),
                    base: self.gpr(),
                    disp: self.i32(),
                },
                _ => Insn::Fst {
                    fs: self.fpr(),
                    base: self.gpr(),
                    disp: self.i32(),
                },
            },
            _ => unreachable!(),
        }
    }
}

/// Every instruction round-trips through its 8-byte encoding, and the
/// disassembler renders it non-empty.
#[test]
fn encoding_roundtrip_and_disassembly_total() {
    let mut gen = Gen::new(0x01);
    for case in 0..2000 {
        let insn = gen.insn();
        let bytes = encode_insn(&insn);
        let back = decode_insn(&bytes).expect("valid encoding decodes");
        assert_eq!(back, insn, "case {case}");
        let text = wiser_isa::format_insn(&insn);
        assert!(!text.is_empty(), "case {case}");
    }
}

/// Condition algebra: Lt is the negation of Ge, Ltu of Geu, Eq of Ne.
#[test]
fn cond_negation() {
    let mut gen = Gen::new(0x02);
    for _ in 0..2000 {
        let (a, b) = (gen.u64(), gen.u64());
        assert_eq!(Cond::Lt.eval(a, b), !Cond::Ge.eval(a, b));
        assert_eq!(Cond::Ltu.eval(a, b), !Cond::Geu.eval(a, b));
        assert_eq!(Cond::Eq.eval(a, b), !Cond::Ne.eval(a, b));
    }
}

/// ALU semantics: add/sub inverse, division identity a = q*b + r.
#[test]
fn alu_algebra() {
    let mut gen = Gen::new(0x03);
    for _ in 0..2000 {
        let (a, b) = (gen.u64(), gen.u64());
        let sum = AluOp::Add.eval(a, b);
        assert_eq!(AluOp::Sub.eval(sum, b), a);
        if b != 0 {
            let q = AluOp::Udiv.eval(a, b);
            let r = AluOp::Urem.eval(a, b);
            assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
            assert!(r < b);
        }
    }
}

/// Sparse memory behaves like a flat byte map.
#[test]
fn memory_matches_model() {
    let mut gen = Gen::new(0x04);
    for _ in 0..50 {
        let mut mem = Memory::new();
        let mut model = std::collections::HashMap::new();
        for _ in 0..gen.range(1, 200) {
            let (addr, value) = (gen.range(0, 0x10000), gen.u64() as u8);
            mem.write_u8(addr, value);
            model.insert(addr, value);
        }
        for _ in 0..gen.range(1, 100) {
            let addr = gen.range(0, 0x10000);
            assert_eq!(mem.read_u8(addr), model.get(&addr).copied().unwrap_or(0));
        }
    }
}

/// Address drawn uniformly, or clustered within 8 bytes of a page boundary
/// or of the top of the address space (where accesses wrap to byte 0).
fn memory_addr(gen: &mut Gen) -> u64 {
    match gen.range(0, 4) {
        0 => gen.range(0, 4 * PAGE_SIZE),
        1 => gen.u64(),
        2 => (gen.range(1, 4) * PAGE_SIZE)
            .wrapping_add(gen.range(0, 16))
            .wrapping_sub(8),
        _ => u64::MAX.wrapping_add(gen.range(0, 16)).wrapping_sub(7),
    }
}

/// Every access width, in-page or straddling, agrees with a flat byte map
/// and with a byte-at-a-time oracle built on `read_u8`/`write_u8`; reads
/// never allocate pages.
#[test]
fn memory_widths_match_bytewise() {
    let mut gen = Gen::new(0x06);
    for _ in 0..50 {
        let (mut mem, mut oracle) = (Memory::new(), Memory::new());
        let mut model = std::collections::HashMap::new();
        for _ in 0..gen.range(1, 400) {
            let (addr, n) = (memory_addr(&mut gen), gen.range(0, 9));
            if gen.range(0, 2) == 0 {
                let value = gen.u64();
                mem.write_uint(addr, value, n);
                for i in 0..n {
                    let byte = (value >> (8 * i)) as u8;
                    oracle.write_u8(addr.wrapping_add(i), byte);
                    model.insert(addr.wrapping_add(i), byte);
                }
                assert_eq!(mem.page_count(), oracle.page_count());
            } else {
                let pages = mem.page_count();
                let mut expect = 0u64;
                let mut bytewise = 0u64;
                for i in 0..n {
                    let a = addr.wrapping_add(i);
                    expect |= (model.get(&a).copied().unwrap_or(0) as u64) << (8 * i);
                    bytewise |= (oracle.read_u8(a) as u64) << (8 * i);
                }
                let got = mem.read_uint(addr, n);
                assert_eq!(got, expect, "read {n} bytes at {addr:#x}");
                assert_eq!(got, bytewise, "read {n} bytes at {addr:#x}");
                assert_eq!(mem.page_count(), pages, "read at {addr:#x} allocated");
            }
        }
    }
}

/// Multi-byte reads assemble little-endian from byte writes.
#[test]
fn memory_endianness() {
    let mut gen = Gen::new(0x05);
    for _ in 0..500 {
        let (addr, value) = (gen.range(0, 0xFFFF), gen.u64());
        let mut mem = Memory::new();
        mem.write_u64(addr, value);
        for i in 0..8 {
            assert_eq!(mem.read_u8(addr + i), (value >> (8 * i)) as u8);
        }
        assert_eq!(mem.read_u32(addr), value as u32);
    }
}

/// Sample profiles survive the binary `SAMP` codec (inside the checkpoint
/// image the split workflow writes) for arbitrary contents.
#[test]
fn sample_profile_roundtrip() {
    let mut gen = Gen::new(0x06);
    for _ in 0..100 {
        let period = gen.range(1, 100_000);
        let mut profile = SampleProfile {
            module_names: vec!["a".into(), "b".into(), "c".into()],
            period,
            total_cycles: period * 1000,
            unmapped: 3,
            ..SampleProfile::default()
        };
        for _ in 0..gen.range(0, 40) {
            let stack: Vec<_> = (0..gen.range(0, 4))
                .map(|_| wiser_sim::CodeLoc {
                    module: wiser_sim::ModuleId(gen.range(0, 3) as u32),
                    offset: gen.range(0, 0x10000) & !7,
                })
                .collect();
            let loc = wiser_sim::CodeLoc {
                module: wiser_sim::ModuleId(gen.range(0, 3) as u32),
                offset: gen.range(0, 0x10000) & !7,
            };
            profile.push(loc, gen.range(0, 100_000), stack);
        }
        let mut ckpt = Checkpoint::fresh(CheckpointSpec::from_config(
            0,
            "generated",
            "test",
            "xeon",
            &[],
            &OptiwiseConfig::default(),
            0,
        ));
        ckpt.samples = Some(profile.clone());
        let back = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("roundtrip decodes");
        assert_eq!(back.samples, Some(profile));
    }
}

/// Random loop nests: the reconstructed loop forest recovers the exact
/// nesting depth, back-edge frequencies and invocation counts that the
/// program was generated with.
#[test]
fn loop_forest_recovers_random_nests() {
    use wiser_cfg::{build_cfg, find_all_loops, BlockCounts, MERGE_THRESHOLD};

    let mut gen = Gen::new(0x07);
    for _ in 0..12 {
        let depth = gen.range(1, 4) as usize;
        let iters: Vec<u64> = (0..depth).map(|_| gen.range(2, 6)).collect();

        let mut asm = wiser_isa::asm::Asm::new("nest");
        asm.func("_start", true);
        let zero = Gpr::new(9).unwrap();
        asm.li(zero, 0);
        // Counters x1..=x<depth>; build heads outside-in.
        let heads: Vec<_> = (0..depth).map(|_| asm.new_label()).collect();
        for level in 0..depth {
            let counter = Gpr::new(level as u8 + 1).unwrap();
            asm.li(counter, iters[level] as i32);
            asm.bind(heads[level]);
        }
        // Innermost body.
        let body_reg = Gpr::new(8).unwrap();
        asm.alu_imm(AluOp::Add, body_reg, body_reg, 1);
        // Close the loops inside-out.
        for level in (0..depth).rev() {
            let counter = Gpr::new(level as u8 + 1).unwrap();
            asm.alu_imm(AluOp::Sub, counter, counter, 1);
            asm.b(Cond::Ne, counter, zero, heads[level]);
            if level > 0 {
                // Re-arm this level's counter for the next outer iteration.
                asm.li(counter, iters[level] as i32);
            }
        }
        asm.li(Gpr::new(1).unwrap(), 0);
        asm.li(Gpr::new(0).unwrap(), 0);
        asm.syscall();
        asm.endfunc();
        asm.set_entry("_start");
        let module = asm.finish().expect("nest assembles");
        let image = ProcessImage::load_single(&module).expect("loads");
        let counts = instrument_run(&image, &DbiConfig::default()).expect("instruments");
        let cfg = build_cfg(
            wiser_sim::ModuleId(0),
            &image.modules[0].linked,
            &BlockCounts::stored(&counts),
        );
        let forest = &find_all_loops(&cfg, Some(MERGE_THRESHOLD))[0];

        assert_eq!(forest.loops.len(), depth);
        let mut by_depth: Vec<_> = forest.loops.iter().collect();
        by_depth.sort_by_key(|l| l.depth);
        let mut outer_product = 1u64;
        for (level, l) in by_depth.iter().enumerate() {
            assert_eq!(l.depth, level);
            // Back edges: outer iterations × (own iterations − 1).
            assert_eq!(
                l.back_edge_freq,
                outer_product * (iters[level] - 1),
                "level {level} of {iters:?}"
            );
            outer_product *= iters[level];
        }
    }
}

/// Minimal counter placement is lossless across the whole generated corpus
/// (seeds 0..40, the same range the selfcheck sweep gates): placing counters
/// on an exhaustive profile and recovering by flow conservation reproduces
/// the exhaustive block counts bit for bit.
#[test]
fn placement_recovery_matches_exhaustive_on_generated_seeds() {
    use wiser_workloads::generated;

    let mut suppressed_total = 0u64;
    for seed in 0..40u64 {
        let modules = generated::generate(seed).unwrap();
        let image = ProcessImage::load_single(&modules[0]).expect("loads");
        let linked: Vec<_> = image.modules.iter().map(|m| m.linked.clone()).collect();
        let config = DbiConfig::default();
        let exhaustive = instrument_run(&image, &config).expect("instruments");
        let mut placed = exhaustive.clone();
        wiser_cfg::optimize_placement(&mut placed, &linked, &config.cost);
        let placement = placed
            .placement
            .as_ref()
            .unwrap_or_else(|| panic!("seed {seed}: placement missing"));
        suppressed_total +=
            (placement.vertex_suppressed.len() + placement.fallthrough_suppressed.len()) as u64;
        let recovered = wiser_cfg::recover(&placed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            recovered.blocks, exhaustive.blocks,
            "seed {seed}: recovered counts diverge from exhaustive"
        );
        assert_eq!(
            recovered.total_insns(),
            exhaustive.total_insns(),
            "seed {seed}"
        );
        assert!(
            placed.cost.instrumented_insns <= exhaustive.cost.instrumented_insns,
            "seed {seed}: placement made instrumentation more expensive"
        );
    }
    // The sweep must actually exercise recovery, not just verify no-ops.
    assert!(suppressed_total > 0, "no counters were ever suppressed");
}

/// The full pipeline, with placement on, joins to the same analysis as an
/// exhaustive run — at analysis jobs 1 and 8 (with concurrent passes in the
/// parallel case). A spread of corpus seeds keeps the timed sampling pass
/// affordable; the whole range is covered functionally above and by the
/// `selfcheck --seed-range 0..40` CI gate.
#[test]
fn pipeline_placement_is_jobs_invariant_on_generated_seeds() {
    use optiwise::{run_optiwise, OptiwiseConfig};
    use wiser_workloads::generated;

    for seed in [0u64, 7, 13, 21, 34, 39] {
        let modules = generated::generate(seed).unwrap();
        let exh_cfg = OptiwiseConfig {
            exhaustive_counters: true,
            ..OptiwiseConfig::default()
        };
        let exhaustive = run_optiwise(&modules, &exh_cfg).unwrap();
        assert!(exhaustive.counts.placement.is_none());

        for jobs in [1usize, 8] {
            let mut cfg = OptiwiseConfig::default();
            cfg.analysis.jobs = jobs;
            cfg.concurrent_passes = jobs > 1;
            let run = run_optiwise(&modules, &cfg).unwrap();
            let placement = run
                .counts
                .placement
                .as_ref()
                .unwrap_or_else(|| panic!("seed {seed} jobs {jobs}: placement missing"));
            assert!(!placement.recovered, "seed {seed} jobs {jobs}");
            let recovered = wiser_cfg::recover(&run.counts)
                .unwrap_or_else(|e| panic!("seed {seed} jobs {jobs}: {e}"));
            assert_eq!(
                recovered.blocks, exhaustive.counts.blocks,
                "seed {seed} jobs {jobs}: recovered counts diverge from exhaustive"
            );
            assert_eq!(
                run.analysis.total_insns, exhaustive.analysis.total_insns,
                "seed {seed} jobs {jobs}: analysis totals diverge"
            );
        }
    }
}

/// Random straight-line ALU programs: the timing model retires exactly the
/// instructions the functional run executed, in at least
/// ceil(n / commit_width) cycles.
#[test]
fn timing_conserves_instructions() {
    let mut gen = Gen::new(0x08);
    for _ in 0..20 {
        let n_ops = gen.range(1, 60) as usize;
        let mut asm = wiser_isa::asm::Asm::new("prop");
        asm.func("_start", true);
        for _ in 0..n_ops {
            // Avoid writing x0 (syscall number register is set below).
            asm.alu(
                gen.alu_op(),
                Gpr::new(gen.range(1, 8) as u8).unwrap(),
                Gpr::new(gen.range(1, 8) as u8).unwrap(),
                Gpr::new(gen.range(1, 8) as u8).unwrap(),
            );
        }
        asm.li(Gpr::new(1).unwrap(), 0);
        asm.li(Gpr::new(0).unwrap(), 0);
        asm.syscall();
        asm.endfunc();
        asm.set_entry("_start");
        let module = asm.finish().expect("assembles");
        let image = ProcessImage::load_single(&module).expect("loads");
        let run =
            run_timed(&image, 0, CoreConfig::xeon_like(), &mut NoProbes, 1_000_000).expect("runs");
        let n = n_ops as u64 + 3;
        assert_eq!(run.stats.retired, n);
        assert!(run.stats.cycles >= n / 4);
        // And the DBI engine counts the same instructions.
        let counts = instrument_run(&image, &DbiConfig::default()).expect("instruments");
        assert_eq!(counts.cost.native_insns, n);
        assert_eq!(counts.total_insns(), n);
    }
}

/// Asks for pseudo-random cycles a few dozen apart, like a sampler, and
/// records what it observes there. With `every_cycle` set it asks for every
/// cycle instead, which forbids the core from skipping any, but still records
/// only at its own cycles: the two recordings must match.
struct Sparse {
    every_cycle: bool,
    next: u64,
    rng: StdRng,
    seen: Vec<String>,
}

impl Sparse {
    fn new(every_cycle: bool, seed: u64) -> Sparse {
        Sparse {
            every_cycle,
            next: 0,
            rng: StdRng::seed_from_u64(seed),
            seen: Vec::new(),
        }
    }
}

impl Prober for Sparse {
    fn next_probe_cycle(&self) -> u64 {
        if self.every_cycle {
            0
        } else {
            self.next
        }
    }
    fn probe(&mut self, point: ProbePoint<'_>) {
        if point.cycle >= self.next {
            self.seen.push(format!("{point:?}"));
            self.next = point.cycle + self.rng.gen_range(1..64u64);
        }
    }
}

/// Random valid cores x generated programs (their first 20k instructions,
/// so a debug build steps through every cycle quickly): the timing model
/// never panics, retires exactly what the interpreter retires, and its
/// idle-cycle skipping is exact — stats without probes equal stats when
/// every cycle is probed (and so simulated), and a sparse prober observes
/// the same pipeline whether or not the cycles between its probes are
/// skipped.
#[test]
fn timing_model_is_exact_on_random_cores() {
    use wiser_workloads::generated;

    const INSNS: u64 = 20_000;
    let mut gen = Gen::new(0x0c0e);
    for seed in 0..24u64 {
        let modules = generated::generate(seed).unwrap();
        let image = ProcessImage::load_single(&modules[0]).expect("loads");
        let mut interp = Interp::new(&image, 0).expect("starts");
        while interp.retired() < INSNS {
            if let Step::Exited(_) = interp.step().expect("generated programs run") {
                break;
            }
        }
        for _ in 0..2 {
            let cfg = gen.core_config();
            let (fault, cancel) = (FaultPlan::default(), None);
            let (skipping, _) =
                run_timed_partial_ctl(&image, 0, cfg, &mut NoProbes, INSNS, fault, cancel)
                    .expect("runs");
            let mut sparse = Sparse::new(false, seed);
            run_timed_partial_ctl(&image, 0, cfg, &mut sparse, INSNS, fault, cancel).expect("runs");
            let mut stepped = Sparse::new(true, seed);
            let (stepping, _) =
                run_timed_partial_ctl(&image, 0, cfg, &mut stepped, INSNS, fault, cancel)
                    .expect("runs");
            assert_eq!(
                skipping.stats.retired,
                interp.retired(),
                "seed {seed}: {cfg:?}"
            );
            assert_eq!(
                format!("{:?}", skipping.stats),
                format!("{:?}", stepping.stats),
                "seed {seed}: skipping changed the model under {cfg:?}"
            );
            assert!(
                sparse.seen == stepped.seen,
                "seed {seed}: skipping changed what a prober observes under {cfg:?}"
            );
        }
    }
}
