//! `bwaves_like` — models 603.bwaves' profile (§VI-C).
//!
//! The paper found significant time in floating-point divide instructions
//! inside a loop, dividing by what is ultimately a constant; without
//! `-ffast-math` the compiler cannot hoist the division. The fix —
//! justified manually — precomputes the inverse and multiplies, for a ~2%
//! whole-program speedup (the divides are only part of the profile).
//!
//! The program runs a simple wave-relaxation stencil: most time is in FP
//! adds/muls over in-cache arrays, with the baseline paying an `fdiv` by a
//! loop-invariant scale factor per element.

use wiser_isa::{assemble, IsaError, Module};

use crate::InputSize;

fn steps(size: InputSize) -> (u64, u64) {
    // (grid points, relaxation sweeps). The grid is large enough that the
    // flux sweep streams from L2/L3, as real bwaves is bandwidth bound.
    match size {
        InputSize::Test => (4_096, 2),
        InputSize::Train => (65_536, 12),
        InputSize::Ref => (131_072, 30),
    }
}

fn build_impl(size: InputSize, optimized: bool) -> Result<Module, IsaError> {
    let (n, sweeps) = steps(size);
    // Per-element update:
    //   u[i] = (u[i-1] + 2*u[i] + u[i+1]) / scale        (baseline)
    //   u[i] = (u[i-1] + 2*u[i] + u[i+1]) * inv_scale    (optimized)
    // `flux` freely clobbers f1..f7, so `pressure` (re)loads its own
    // constant on entry — the baseline loads the scale, the optimized
    // variant the precomputed inverse (0.25 is exactly 1/4, so both
    // variants are bit-identical, as the paper's tolerance check demands).
    let load_const = if optimized {
        "fld f0, [x4+8]         ; precomputed 1/scale"
    } else {
        "fld f4, [x4]           ; scale"
    };
    let update = if optimized {
        r#"
            fmul f3, f3, f0        ; multiply by precomputed 1/scale
        "#
    } else {
        r#"
            fdiv f3, f3, f4        ; divide by loop-invariant scale
        "#
    };
    let src = format!(
        r#"
        .data
        consts: .f64 4.0, 0.25, 1.0, 0.001
        ; flux(x1 = u, x2 = flux out, x3 = n): the dominant streaming
        ; mat-vec-like sweep — pure multiply/add, bandwidth bound.
        .func flux
        .loc "bwaves.f" 10
            push fp
            mov fp, sp
            push x8
            mov x8, x3
            li x3, 1
            subi x8, x8, 1
        flux_loop:
        .loc "bwaves.f" 12
            fld f1, [x1+x3*8-8]
            fld f2, [x1+x3*8]
            fld f4, [x1+x3*8+8]
            fmul f1, f1, f6
            fmul f4, f4, f7
            fadd f3, f1, f4
            fadd f3, f3, f2
            fmul f3, f3, f5
            fst f3, [x2+x3*8]
        .loc "bwaves.f" 14
            addi x3, x3, 1
            bne x3, x8, flux_loop
            pop x8
            mov sp, fp
            pop fp
            ret
        .endfunc
        ; pressure(x1 = u, x2 = flux, x3 = n): every 3rd cell is normalized
        ; by the (loop-invariant) scale — the divide the paper's fix targets.
        .func pressure
        .loc "bwaves.f" 20
            push fp
            mov fp, sp
            push x8
            mov x8, x3
            la x4, consts
            {load_const}
            li x3, 3
        press_loop:
        .loc "bwaves.f" 22
            fld f1, [x1+x3*8]
            fld f2, [x2+x3*8]
            fadd f3, f1, f2
{update}
            fst f3, [x1+x3*8]
        .loc "bwaves.f" 24
            addi x3, x3, 3
            blt x3, x8, press_loop
            pop x8
            mov sp, fp
            pop fp
            ret
        .endfunc
        .func residual
        .loc "bwaves.f" 40
            ; x1 = u base, x2 = n; returns sum |u| scaled, in f0
            push fp
            mov fp, sp
            li x3, 0
            fsub f0, f0, f0        ; 0.0
        res_loop:
            fld f1, [x1+x3*8]
            fmul f2, f1, f1
            fadd f0, f0, f2
            addi x3, x3, 1
            bne x3, x2, res_loop
            fsqrt f0, f0
            mov sp, fp
            pop fp
            ret
        .endfunc
        .func _start global
        .loc "bwaves.f" 60
            li x0, 4
            li x1, {bytes}
            syscall
            mov x8, x0             ; u
            ; init u[i] = ((i*2654435761) >> 16 & 1023) as fp
            li x3, 0
            li x4, {n}
            li x5, 0x9E3779B1
        init:
            mul x6, x3, x5
            shri x6, x6, 16
            andi x6, x6, 1023
            fcvtif f1, x6
            fst f1, [x8+x3*8]
            addi x3, x3, 1
            bne x3, x4, init
        .loc "bwaves.f" 70
            li x0, 4
            li x1, {bytes}
            syscall
            mov x11, x0            ; flux array
            la x1, consts
            fld f4, [x1]           ; scale = 4.0
            fld f5, [x1+8]         ; 0.25
            fld f6, [x1+16]        ; 1.0
            fld f7, [x1+24]        ; 0.001... coefficients
            li x2, 1
            fcvtif f0, x2
            fdiv f0, f0, f4        ; 1/scale, computed ONCE (used when opt)
            li x9, {sweeps}
            li x10, 0
        sweep_outer:
            push x9
            mov x1, x8
            mov x2, x11
            li x3, {n}
            call flux
            mov x1, x8
            mov x2, x11
            li x3, {n}
            call pressure
            pop x9
            subi x9, x9, 1
            bne x9, x10, sweep_outer
        .loc "bwaves.f" 80
            mov x1, x8
            li x2, {n}
            call residual
            fcvtfi x1, f0
            li x0, 2
            syscall                ; print residual for verification
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
        "#,
        bytes = (n + 2) * 8,
    );
    assemble(
        if optimized {
            "bwaves_like_opt"
        } else {
            "bwaves_like"
        },
        &src,
    )
}

/// Baseline.
pub fn build(size: InputSize) -> Result<Vec<Module>, IsaError> {
    Ok(vec![build_impl(size, false)?])
}

/// §VI-C optimized variant (precomputed reciprocal).
pub fn build_opt(size: InputSize) -> Result<Vec<Module>, IsaError> {
    Ok(vec![build_impl(size, true)?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiser_sim::run_module;

    #[test]
    fn baseline_runs_and_prints_residual() {
        let m = build(InputSize::Test).unwrap();
        let (code, _, out) = run_module(&m[0], 50_000_000).unwrap();
        assert_eq!(code, 0);
        assert!(!out.is_empty());
    }

    /// Dividing by 4.0 and multiplying by 0.25 are exact in binary floating
    /// point, so both variants must print the same residual — the paper's
    /// "result remained within the tolerance SPEC allows", but exactly.
    #[test]
    fn variants_agree_numerically() {
        let (_, _, base) = run_module(&build(InputSize::Test).unwrap()[0], 50_000_000).unwrap();
        let (_, _, opt) = run_module(&build_opt(InputSize::Test).unwrap()[0], 50_000_000).unwrap();
        assert_eq!(base, opt);
    }
}
