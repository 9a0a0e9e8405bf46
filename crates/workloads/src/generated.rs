//! Seeded random program generator for the self-check sweep.
//!
//! `optiwise selfcheck` compares the fused sampling+DBI analysis against the
//! oracle over many *generated* programs, because handwritten workloads only
//! exercise the CFG shapes their authors thought of. Each seed produces a
//! deterministic program (via the in-tree `rand` stand-in) stressing the
//! join paths the paper's pipeline depends on:
//!
//! * counted loop nests up to three deep, with per-loop trip counts,
//! * shared-header loops (multiple back edges reaching one header through
//!   a "continue" path — the figure 6 merge input),
//! * indirect calls through a function-pointer table built with `la`,
//! * bounded recursion (exercising the most-recent-instance stack rule),
//! * frame-pointer prologues so stack profiling sees real call chains,
//! * `.loc` line info so the line table has content to check.
//!
//! Programs never read the `rand` syscall: all control flow is baked in at
//! generation time, so the sampling, instrumentation and oracle executions
//! see identical paths (§IV-F), and every loop is counted, so every program
//! terminates (exit code 0) in roughly 20k–300k retired instructions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wiser_isa::asm::Asm;
use wiser_isa::{AluOp, Gpr, IsaError, Module, Scale, Width};

/// Synthetic source file all generated `.loc` info points at.
const SRC_FILE: &str = "gen.c";

fn x(i: u8) -> Gpr {
    Gpr::new(i).unwrap()
}

/// Shape of one generated leaf function.
struct LeafShape {
    name: String,
    /// Nesting depth of the counted loop nest (1..=3).
    depth: usize,
    /// Trip count of each nest level, outermost first.
    trips: Vec<u64>,
    /// ALU instructions in the innermost body.
    body_ops: usize,
    /// Whether the innermost loop gets a second back edge (continue path).
    shared_header: bool,
}

/// Builds the deterministic program for `seed`.
///
/// # Errors
///
/// Returns assembler errors; generated programs are constructed to always
/// assemble (the test suite sweeps a seed range).
pub fn generate(seed: u64) -> Result<Vec<Module>, IsaError> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(seed));
    let mut asm = Asm::new(format!("gen{seed}"));
    let mut line = 1u32;

    let n_leaf = rng.gen_range(2u64..=4) as usize;
    let shapes: Vec<LeafShape> = (0..n_leaf)
        .map(|i| {
            let depth = rng.gen_range(1u64..=3) as usize;
            // Deeper nests get shorter trip counts so run length stays
            // bounded (product of trips caps near 4k iterations).
            let max_trip = match depth {
                1 => 200,
                2 => 40,
                _ => 14,
            };
            LeafShape {
                name: format!("leaf{i}"),
                depth,
                trips: (0..depth).map(|_| rng.gen_range(3u64..=max_trip)).collect(),
                body_ops: rng.gen_range(2u64..=6) as usize,
                shared_header: rng.gen_range(0u64..2) == 1,
            }
        })
        .collect();
    let rec_depth = rng.gen_range(2u64..=6);
    let rec_inner_trip = rng.gen_range(4u64..=24);
    let main_iters = rng.gen_range(40u64..=160);

    // ---- leaf functions ---------------------------------------------------
    // Convention: argument in x1, result in x0; leaves clobber x0..x7 only.
    for shape in &shapes {
        emit_leaf(&mut asm, shape, &mut line, &mut rng);
    }

    // ---- bounded recursion ------------------------------------------------
    // rec(x1 = depth): returns depth + inner-loop checksum, saving x1 across
    // the recursive call. The frame-pointer prologue keeps the unwinder
    // honest through the whole chain.
    asm.func("rec", false);
    asm.loc(SRC_FILE, line);
    asm.prologue();
    let rec_base = asm.new_label();
    let rec_done = asm.new_label();
    asm.li(x(3), 0);
    asm.b(wiser_isa::Cond::Ne, x(1), x(3), rec_base);
    asm.li(x(0), 1);
    asm.jmp(rec_done);
    asm.bind(rec_base);
    line += 1;
    asm.loc(SRC_FILE, line);
    // Small counted loop so samples land inside the recursive frames too.
    asm.li(x(2), rec_inner_trip as i32);
    let rec_loop = asm.label_here();
    asm.alu(AluOp::Add, x(4), x(4), x(2));
    asm.alu_imm(AluOp::Sub, x(2), x(2), 1);
    asm.b(wiser_isa::Cond::Ne, x(2), x(3), rec_loop);
    asm.push(x(1));
    asm.alu_imm(AluOp::Sub, x(1), x(1), 1);
    asm.call("rec");
    asm.pop(x(1));
    asm.alu(AluOp::Add, x(0), x(0), x(1));
    asm.bind(rec_done);
    asm.epilogue();
    asm.ret();
    asm.endfunc();
    line += 1;

    // ---- entry ------------------------------------------------------------
    // x8 = loop counter, x9 = 0, x10 = pointer-table base, x11 = checksum,
    // x12/x13 = scratch. Leaves and rec never touch x8..x13.
    let table = asm.bss_object("fptab", 8 * n_leaf as u64, false);
    let _ = table;
    asm.func("_start", true);
    asm.loc(SRC_FILE, line);
    asm.prologue();
    asm.li(x(9), 0);
    asm.la(x(10), "fptab");
    for (i, shape) in shapes.iter().enumerate() {
        asm.la(x(12), shape.name.clone());
        asm.st(Width::W8, x(12), x(10), (8 * i) as i32);
    }
    asm.li(x(8), main_iters as i32);
    asm.li(x(11), 0);
    line += 1;
    asm.loc(SRC_FILE, line);
    let main_loop = asm.label_here();
    // Indirect dispatch: index = x8 % n_leaf.
    asm.li(x(13), n_leaf as i32);
    asm.alu(AluOp::Urem, x(13), x(8), x(13));
    asm.ldx(Width::W8, x(13), x(10), x(13), Scale::S8, 0);
    asm.mov(x(1), x(8));
    asm.callr(x(13));
    asm.alu(AluOp::Add, x(11), x(11), x(0));
    // Direct call to one fixed leaf (gives the CFG static call edges too).
    asm.mov(x(1), x(11));
    asm.call(shapes[0].name.clone());
    asm.alu(AluOp::Add, x(11), x(11), x(0));
    // Every 8th iteration, run the recursion.
    asm.alu_imm(AluOp::And, x(13), x(8), 7);
    let skip_rec = asm.new_label();
    asm.b(wiser_isa::Cond::Ne, x(13), x(9), skip_rec);
    asm.li(x(1), rec_depth as i32);
    asm.call("rec");
    asm.alu(AluOp::Add, x(11), x(11), x(0));
    asm.bind(skip_rec);
    asm.alu_imm(AluOp::Sub, x(8), x(8), 1);
    asm.b(wiser_isa::Cond::Ne, x(8), x(9), main_loop);
    line += 1;
    asm.loc(SRC_FILE, line);
    asm.epilogue();
    asm.li(x(1), 0);
    asm.li(x(0), 0);
    asm.syscall();
    asm.endfunc();
    asm.set_entry("_start");
    asm.finish().map(|m| vec![m])
}

/// Emits one leaf function: a counted loop nest with optional shared-header
/// continue path, argument in x1, checksum result in x0.
fn emit_leaf(asm: &mut Asm, shape: &LeafShape, line: &mut u32, rng: &mut StdRng) {
    asm.func(shape.name.clone(), false);
    asm.loc(SRC_FILE, *line);
    asm.prologue();
    asm.mov(x(0), x(1));
    asm.li(x(7), 0); // constant zero for loop exits
                     // Counter registers x2 (outer), x3, x4 (innermost); set up outermost.
    let counter = |level: usize| x(2 + level as u8);
    let mut headers: Vec<wiser_isa::asm::Label> = Vec::new();
    for level in 0..shape.depth {
        asm.li(counter(level), shape.trips[level] as i32);
        *line += 1;
        asm.loc(SRC_FILE, *line);
        headers.push(asm.label_here());
    }

    // Innermost body: a run of dependent-ish ALU ops on x5/x6.
    let inner = shape.depth - 1;
    for k in 0..shape.body_ops {
        let op = match rng.gen_range(0u64..4) {
            0 => AluOp::Add,
            1 => AluOp::Xor,
            2 => AluOp::Mul,
            _ => AluOp::Sub,
        };
        let (rd, rs) = if k % 2 == 0 {
            (x(5), x(6))
        } else {
            (x(6), x(5))
        };
        asm.alu(op, rd, rd, rs);
        asm.alu_imm(AluOp::Add, rd, rd, (k + 1) as i32);
    }
    asm.alu(AluOp::Add, x(0), x(0), x(5));

    if shape.shared_header {
        // Continue path: odd counter values jump straight back to the
        // innermost header after decrementing, producing a second back edge
        // into the same header (the shared-header merge input).
        asm.alu_imm(AluOp::Sub, counter(inner), counter(inner), 1);
        let fall = asm.new_label();
        asm.alu_imm(AluOp::And, x(6), counter(inner), 1);
        asm.b(wiser_isa::Cond::Eq, x(6), x(7), fall);
        asm.b(wiser_isa::Cond::Ne, counter(inner), x(7), headers[inner]);
        asm.bind(fall);
        asm.alu(AluOp::Xor, x(5), x(5), counter(inner));
        asm.b(wiser_isa::Cond::Ne, counter(inner), x(7), headers[inner]);
    } else {
        asm.alu_imm(AluOp::Sub, counter(inner), counter(inner), 1);
        asm.b(wiser_isa::Cond::Ne, counter(inner), x(7), headers[inner]);
    }
    // Close the outer levels, innermost-first. Each header re-arms its
    // inner counter (the `li` sits between the outer header and the inner
    // one), so looping back to the outer header restarts the inner nest.
    for level in (0..inner).rev() {
        asm.alu_imm(AluOp::Sub, counter(level), counter(level), 1);
        asm.b(wiser_isa::Cond::Ne, counter(level), x(7), headers[level]);
    }
    *line += 1;
    asm.loc(SRC_FILE, *line);
    asm.epilogue();
    asm.ret();
    asm.endfunc();
    *line += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_assemble_and_validate() {
        for seed in 0..40 {
            let modules =
                generate(seed).unwrap_or_else(|e| panic!("seed {seed} failed to assemble: {e}"));
            assert_eq!(modules.len(), 1);
            modules[0].validate().unwrap();
            assert!(modules[0].entry.is_some());
        }
    }

    #[test]
    fn generated_programs_run_to_clean_exit() {
        for seed in 0..12 {
            let modules = generate(seed).unwrap();
            let (code, retired, _) = wiser_sim::run_module(&modules[0], 5_000_000)
                .unwrap_or_else(|e| panic!("seed {seed} faulted: {e}"));
            assert_eq!(code, 0, "seed {seed}");
            assert!(
                (5_000..2_000_000).contains(&retired),
                "seed {seed} retired {retired}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 1, 17, 123_456] {
            let a = generate(seed).unwrap();
            let b = generate(seed).unwrap();
            assert_eq!(a[0].text, b[0].text);
            assert_eq!(a[0].data, b[0].data);
            assert_eq!(a[0].line_table, b[0].line_table);
        }
    }

    #[test]
    fn seeds_produce_distinct_programs() {
        let a = generate(1).unwrap();
        let b = generate(2).unwrap();
        assert_ne!(a[0].text, b[0].text);
    }
}
