//! Micro-benchmarks driving specific figures of the paper.

use wiser_isa::{assemble, IsaError, Module};

use crate::{InputSize, Kind, Workload};

pub(crate) fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "fig1_motivating",
            description: "hot loop where cheap ALU ops execute 4x more often \
                          than one cache-missing load; per-instruction CPI \
                          exposes the load (figure 1)",
            kind: Kind::Micro,
            builder: fig1_motivating,
        },
        Workload {
            name: "slow_store",
            description: "cache-missing scattered store followed by 16 \
                          independent ALU ops; shows sampling skid and \
                          commit-group leaders (figure 8)",
            kind: Kind::Micro,
            builder: slow_store,
        },
        Workload {
            name: "udiv_chain",
            description: "loop-carried udiv followed by a long chain of \
                          non-abortable dependent adds; under early ROB \
                          release samples land ~IQ-size later (figure 9)",
            kind: Kind::Micro,
            builder: udiv_chain,
        },
        Workload {
            name: "loop_merge",
            description: "five back edges sharing one header: a 3-level nest \
                          whose outer level has three control paths \
                          (figure 6 / Table I)",
            kind: Kind::Micro,
            builder: loop_merge,
        },
        Workload {
            name: "rand_walk",
            description: "control flow driven by the seeded rand syscall: \
                          both the outer trip count and every inner trip \
                          count are drawn from rand; desynced seeds between \
                          the two passes make the runs diverge (§IV-F)",
            kind: Kind::Micro,
            builder: rand_walk,
        },
        Workload {
            name: "recip_loop",
            description: "hot loop computing reciprocals with a loop-carried \
                          udiv: the unoptimised half of the diff-workflow \
                          pair (high CPI on recip.c:3)",
            kind: Kind::Micro,
            builder: recip_loop,
        },
        Workload {
            name: "recip_loop_opt",
            description: "same program with the udiv strength-reduced to \
                          mul+shift — same module/function/line layout as \
                          recip_loop so `optiwise diff` aligns the loop and \
                          flags the CPI change",
            kind: Kind::Micro,
            builder: recip_loop_opt,
        },
        Workload {
            name: "long_haul",
            description: "a deliberately long, cheap loop (~500M retired \
                          instructions at ref): the target for deadline, \
                          cancellation and checkpoint/resume tests, where a \
                          full run must cost real wall-clock time",
            kind: Kind::Micro,
            builder: long_haul,
        },
        Workload {
            name: "stack_attr",
            description: "two loops in different functions calling a shared \
                          callee, plus a second caller chain; validates \
                          stack-profiling attribution (figures 4 and 5)",
            kind: Kind::Micro,
            builder: stack_attr,
        },
    ]
}

fn scale(size: InputSize, test: u64, train: u64, reference: u64) -> u64 {
    match size {
        InputSize::Test => test,
        InputSize::Train => train,
        InputSize::Ref => reference,
    }
}

/// Figure 1: inside one loop, a block of cheap arithmetic runs every
/// iteration while a pointer-chasing load (guaranteed cache miss) runs every
/// fourth iteration. Sampling alone over-reports the cheap block; counting
/// alone over-reports everything equally; CPI singles out the load.
fn fig1_motivating(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let iters = scale(size, 4_000, 120_000, 600_000);
    // 32 MiB working set: far beyond the 8 MiB L3.
    let src = format!(
        r#"
        .func _start global
        .loc "fig1.c" 1
            li x0, 4
            li x1, 0x2000000
            syscall            ; x0 = 32 MiB buffer
            mov x12, x0
            li x8, {iters}
            li x9, 0
            li x10, 0x1234567
        .loc "fig1.c" 3
        loop:
            ; cheap work, every iteration (line 3)
            add x1, x1, x10
            xor x2, x2, x1
            add x3, x3, x2
            xor x4, x4, x3
            add x5, x5, x4
        .loc "fig1.c" 4
            andi x6, x8, 3
            bne x6, x9, skip
        .loc "fig1.c" 5
            ; scattered load, every 4th iteration (line 5)
            li x7, 1103515245
            mul x10, x10, x7
            addi x10, x10, 12345
            shri x6, x10, 7
            li x7, 0x1FFFFF8
            and x6, x6, x7
            ldx.8 x11, [x12+x6*1]
            add x5, x5, x11
        .loc "fig1.c" 6
        skip:
            subi x8, x8, 1
            bne x8, x9, loop
        .loc "fig1.c" 8
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#
    );
    Ok(vec![assemble("fig1_motivating", &src)?])
}

/// Figure 8: a store to pseudo-random addresses in a 64 MiB region (missing
/// all caches) followed by 16 independent single-cycle ALU instructions.
fn slow_store(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let iters = scale(size, 2_000, 60_000, 300_000);
    let mut arith = String::new();
    for i in 0..8 {
        // Alternating xor/add on registers independent of the store chain,
        // mirroring figure 8's instruction sequence.
        arith.push_str(&format!(
            "            xor x{r}, x{r}, x10\n",
            r = 1 + (i % 5)
        ));
        arith.push_str(&format!(
            "            add x{r}, x{r}, x10\n",
            r = 1 + ((i + 2) % 5)
        ));
    }
    let src = format!(
        r#"
        .func _start global
        .loc "store.c" 1
            li x0, 4
            li x1, 0x4000000
            syscall             ; 64 MiB buffer
            mov x12, x0
            li x8, {iters}
            li x9, 0
            li x13, 0x9E3779B9
            li x10, 7
        loop:
        .loc "store.c" 2
            li x6, 1103515245
            mul x13, x13, x6
            addi x13, x13, 12345
            shri x11, x13, 16
            li x6, 0x3FFFFF8
            and x11, x11, x6
        .loc "store.c" 3
            stx.4 x5, [x12+x11*1]   ; the slow store
        .loc "store.c" 4
{arith}
        .loc "store.c" 5
            subi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#
    );
    Ok(vec![assemble("slow_store", &src)?])
}

/// Figure 9: a loop-carried unsigned divide followed by a long run of adds
/// that all depend on the divide but not on each other (they fill the issue
/// queue while the divide executes and cannot abort).
fn udiv_chain(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let iters = scale(size, 1_000, 40_000, 200_000);
    let mut adds = String::new();
    for _ in 0..64 {
        adds.push_str("            add x1, x7, x6\n");
    }
    let src = format!(
        r#"
        .func _start global
        .loc "udiv.c" 1
            li x8, {iters}
            li x9, 0
            li x7, 99999999
            li x6, 1
        loop:
        .loc "udiv.c" 2
            udiv x7, x7, x6        ; slow, loop-carried
        .loc "udiv.c" 3
{adds}
        .loc "udiv.c" 4
            subi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#
    );
    Ok(vec![assemble("udiv_chain", &src)?])
}

/// Figure 6 / Table I: five back edges all targeting the same header,
/// forming a three-level nest whose outermost level has three control
/// paths. Iteration counts are chosen so the heuristic's T = 3 rule
/// separates the two inner levels and merges the three outer paths.
fn loop_merge(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let outer = scale(size, 30, 300, 1_500);
    let src = format!(
        r#"
        .func _start global
        .loc "merge.c" 1
            li x3, {outer}     ; outer iterations
            li x2, 12          ; Y per outer
            li x1, 12          ; X per Y
            li x9, 0
        head:
        .loc "merge.c" 2
            addi x7, x7, 1     ; header work; also loop X body
            subi x1, x1, 1
            bne x1, x9, head   ; back edge 1: loop X (hottest)
        .loc "merge.c" 3
            li x1, 12
            subi x2, x2, 1
            bne x2, x9, head   ; back edge 2: loop Y
        .loc "merge.c" 4
            li x2, 12
            subi x3, x3, 1
            beq x3, x9, done
            andi x5, x3, 3
            li x6, 1
            beq x5, x6, path1
            li x6, 2
            beq x5, x6, path2
        .loc "merge.c" 5
            addi x4, x4, 1
            jmp head           ; back edge 3: outer, path 0
        path1:
        .loc "merge.c" 6
            addi x4, x4, 2
            jmp head           ; back edge 4: outer, path 1
        path2:
        .loc "merge.c" 7
            addi x4, x4, 3
            jmp head           ; back edge 5: outer, path 2
        done:
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#
    );
    Ok(vec![assemble("loop_merge", &src)?])
}

/// §IV-F's determinism assumption, made falsifiable: the whole execution is
/// a function of the `rand` syscall's seed. One draw picks the outer trip
/// count; every outer iteration draws again for the inner trip count. Two
/// runs with the same seed match instruction-for-instruction; two runs with
/// different seeds retire visibly different instruction totals, which the
/// post-join divergence check must flag.
fn rand_walk(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let base = scale(size, 512, 5_000, 20_000);
    let mask = scale(size, 1_023, 8_191, 32_767);
    let src = format!(
        r#"
        .func _start global
        .loc "walk.c" 1
            li x0, 5
            syscall            ; x0 = rand()
            li x3, {mask}
            and x8, x0, x3     ; outer trips: {base}..{base}+{mask}
            addi x8, x8, {base}
            li x9, 0
        outer:
        .loc "walk.c" 3
            li x0, 5
            syscall            ; fresh draw per iteration
            andi x1, x0, 63    ; inner trips: 0..63
        .loc "walk.c" 4
        inner:
            beq x1, x9, next
            addi x2, x2, 1
            subi x1, x1, 1
            jmp inner
        next:
        .loc "walk.c" 6
            subi x8, x8, 1
            bne x8, x9, outer
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#
    );
    Ok(vec![assemble("rand_walk", &src)?])
}

/// The diff-workflow pair: one source program at two "optimisation levels",
/// assembled into identically-named modules with identical function names
/// and `.loc` line layout so the stored-profile differ aligns every row.
/// The unoptimised variant divides by a loop-invariant denominator every
/// iteration; the optimised variant strength-reduces the divide to a
/// multiply + shift. Same loop, same lines — only recip.c:3's CPI moves.
fn recip_loop_src(iters: u64, optimised: bool) -> String {
    let recip = if optimised {
        // x5 = x7 * (2^16 / 9) >> 16: the compiler's reciprocal trick.
        "            mul x5, x7, x11\n            shri x5, x5, 16"
    } else {
        "            udiv x5, x7, x6"
    };
    format!(
        r#"
        .func _start global
        .loc "recip.c" 1
            li x8, {iters}
            li x9, 0
            li x6, 9
            li x11, 7281       ; 2^16/9, used by the optimised variant
            li x7, 1
        loop:
        .loc "recip.c" 3
{recip}
        .loc "recip.c" 4
            add x2, x2, x5
            addi x7, x7, 3
            subi x8, x8, 1
            bne x8, x9, loop
        .loc "recip.c" 6
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#
    )
}

fn recip_loop(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let iters = scale(size, 20_000, 200_000, 1_000_000);
    Ok(vec![assemble("recip_loop", &recip_loop_src(iters, false))?])
}

fn recip_loop_opt(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let iters = scale(size, 20_000, 200_000, 1_000_000);
    Ok(vec![assemble("recip_loop", &recip_loop_src(iters, true))?])
}

/// The robustness-test workload: a flat loop of cheap, independent ALU work
/// with no memory traffic, so retired-instruction count — not simulated
/// stalls — dominates wall-clock cost. At `test` size it finishes in
/// milliseconds; at `ref` it retires roughly half a billion instructions,
/// long enough that a `--deadline` must fire and a mid-run kill leaves a
/// genuinely partial checkpoint.
fn long_haul(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let iters = scale(size, 4_000, 2_000_000, 100_000_000);
    let src = format!(
        r#"
        .func _start global
        .loc "haul.c" 1
            li x8, {iters}
            li x9, 0
            li x10, 0x9E3779B9
        loop:
        .loc "haul.c" 3
            add x1, x1, x10
            xor x2, x2, x1
            subi x8, x8, 1
            bne x8, x9, loop
        .loc "haul.c" 5
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#
    );
    Ok(vec![assemble("long_haul", &src)?])
}

/// Figures 4 and 5: `func3` is called from `loop1` (in `func1`, hot) and
/// from `loop2` (in `func2`, cold) in a 3:1 ratio; `func1` is itself called
/// from `loop0` (in `func0`) and from `func4`. Stack profiling must credit
/// `func3`'s time and instructions to the right loops.
fn stack_attr(size: InputSize) -> Result<Vec<Module>, IsaError> {
    let work = scale(size, 40, 400, 2_000);
    let src = format!(
        r#"
        .func func3
        .loc "attr.c" 3
            push fp
            mov fp, sp
            li x2, {work}
            li x3, 0
        d_loop:
            udiv x4, x2, x2
            subi x2, x2, 1
            bne x2, x3, d_loop
            mov sp, fp
            pop fp
            ret
        .endfunc
        .func func1
        .loc "attr.c" 10
            push fp
            mov fp, sp
            push x8
            push x9
            li x8, 30          ; loop1: calls func3 30 times per invocation
            li x9, 0
        loop1:
            call func3
            subi x8, x8, 1
            bne x8, x9, loop1
            pop x9
            pop x8
            mov sp, fp
            pop fp
            ret
        .endfunc
        .func func2
        .loc "attr.c" 20
            push fp
            mov fp, sp
            push x8
            push x9
            li x8, 100         ; loop2: calls func3 100 times total
            li x9, 0
        loop2:
            call func3
            subi x8, x8, 1
            bne x8, x9, loop2
            pop x9
            pop x8
            mov sp, fp
            pop fp
            ret
        .endfunc
        .func func0
        .loc "attr.c" 30
            push fp
            mov fp, sp
            push x8
            push x9
            li x8, 9           ; loop0: calls func1 9 times (270 func3 calls)
            li x9, 0
        loop0:
            call func1
            subi x8, x8, 1
            bne x8, x9, loop0
            pop x9
            pop x8
            mov sp, fp
            pop fp
            ret
        .endfunc
        .func func4
        .loc "attr.c" 40
            push fp
            mov fp, sp
            call func1         ; one more func1 invocation (30 func3 calls)
            mov sp, fp
            pop fp
            ret
        .endfunc
        .func _start global
        .loc "attr.c" 50
            call func0
            call func4
            call func2
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#
    );
    Ok(vec![assemble("stack_attr", &src)?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_sim::run_module;

    fn runs_clean(name: &str) {
        let modules = crate::by_name(name)
            .unwrap()
            .build(InputSize::Test)
            .unwrap();
        assert_eq!(modules.len(), 1);
        let (code, retired, _) = run_module(&modules[0], 50_000_000).unwrap();
        assert_eq!(code, 0, "{name} exit code");
        assert!(retired > 1_000, "{name} too small: {retired}");
    }

    #[test]
    fn fig1_runs() {
        runs_clean("fig1_motivating");
    }

    #[test]
    fn slow_store_runs() {
        runs_clean("slow_store");
    }

    #[test]
    fn udiv_chain_runs() {
        runs_clean("udiv_chain");
    }

    #[test]
    fn loop_merge_runs() {
        runs_clean("loop_merge");
    }

    #[test]
    fn stack_attr_runs() {
        runs_clean("stack_attr");
    }

    #[test]
    fn long_haul_runs() {
        runs_clean("long_haul");
    }

    #[test]
    fn recip_pair_runs_and_shares_layout() {
        runs_clean("recip_loop");
        runs_clean("recip_loop_opt");
        // The pair must assemble identically-named modules (the differ
        // aligns rows on module *name*), and the optimised build really is
        // cheaper per iteration.
        let unopt = crate::by_name("recip_loop")
            .unwrap()
            .build(InputSize::Test)
            .unwrap();
        let opt = crate::by_name("recip_loop_opt")
            .unwrap()
            .build(InputSize::Test)
            .unwrap();
        assert_eq!(unopt[0].name, "recip_loop");
        assert_eq!(opt[0].name, "recip_loop");
    }

    #[test]
    fn rand_walk_runs() {
        runs_clean("rand_walk");
    }

    #[test]
    fn sizes_scale_instruction_counts() {
        let w = crate::by_name("fig1_motivating").unwrap();
        let small = w.build(InputSize::Test).unwrap();
        let big = w.build(InputSize::Train).unwrap();
        let (_, retired_small, _) = run_module(&small[0], 100_000_000).unwrap();
        let (_, retired_big, _) = run_module(&big[0], 100_000_000).unwrap();
        assert!(retired_big > 10 * retired_small);
    }
}
