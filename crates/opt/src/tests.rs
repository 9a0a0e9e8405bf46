use optiwise::TransformKind;
use wiser_dbi::{instrument_run, DbiConfig};
use wiser_isa::{assemble, Module};
use wiser_sim::{Interp, LoadConfig, ProcessImage};

use crate::{optimize_modules, oracle_check, OptimizeOptions};

const MAX_INSNS: u64 = 50_000_000;

fn counts_for(modules: &[Module]) -> wiser_dbi::CountsProfile {
    let image = ProcessImage::load(modules, &LoadConfig::default()).expect("load");
    instrument_run(&image, &DbiConfig::default()).expect("instrument")
}

fn retired(modules: &[Module], seed: u64) -> u64 {
    let image = ProcessImage::load(modules, &LoadConfig::default()).expect("load");
    let mut interp = Interp::new(&image, seed).expect("interp");
    let code = interp.run(MAX_INSNS).expect("run");
    assert_eq!(code, 0, "program exit code");
    interp.retired()
}

fn optimize(
    src: &str,
    opts: &OptimizeOptions,
) -> (Vec<Module>, Vec<Module>, optiwise::TransformLog) {
    let modules = vec![assemble("t", src).expect("assemble")];
    let counts = counts_for(&modules);
    let (rewritten, log) = optimize_modules(&modules, &counts, None, opts).expect("optimize");
    oracle_check(&modules, &rewritten, 20, MAX_INSNS).expect("oracle");
    (modules, rewritten, log)
}

// A loop whose conditional branch takes the "hot" side almost every
// iteration while the fall-through is cold: layout should invert the
// branch so the hot side falls through.
const BIASED_BRANCH: &str = r#"
    .func _start global
        li x8, 0
        li x9, 4000
        li x10, 0
    loop:
        andi x1, x8, 63
        li x2, 0
        bne x1, x2, hot
        addi x10, x10, 7
        addi x10, x10, 9
        addi x10, x10, 11
        jmp join
    hot:
        addi x10, x10, 1
    join:
        addi x8, x8, 1
        bne x8, x9, loop
        li x1, 0
        li x0, 0
        syscall
    .endfunc
    .entry _start
"#;

#[test]
fn layout_straightens_the_hot_path_and_preserves_behaviour() {
    let opts = OptimizeOptions {
        promote: false,
        hoist: false,
        ..OptimizeOptions::default()
    };
    let (_, rewritten, log) = optimize(BIASED_BRANCH, &opts);
    assert!(
        log.records.iter().any(|r| r.kind == TransformKind::Layout),
        "expected a layout record, got {log:?}"
    );
    rewritten[0].validate().expect("valid module");
}

#[test]
fn hoisting_moves_invariants_and_retires_fewer_instructions() {
    // x10*x11 is invariant in the self-loop; x4 accumulates it.
    let src = r#"
        .func _start global
            li x8, 0
            li x9, 3000
            li x10, 17
            li x11, 23
            li x4, 0
        loop:
            mul x3, x10, x11
            add x4, x4, x3
            addi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;
    let opts = OptimizeOptions {
        layout: false,
        promote: false,
        ..OptimizeOptions::default()
    };
    let (baseline, rewritten, log) = optimize(src, &opts);
    assert!(
        log.records
            .iter()
            .any(|r| r.kind == TransformKind::LoopHoist),
        "expected a hoist record, got {log:?}"
    );
    let before = retired(&baseline, 0);
    let after = retired(&rewritten, 0);
    assert!(
        after + 2000 < before,
        "hoisting should drop ~3000 dynamic muls: before {before}, after {after}"
    );
}

#[test]
fn hoisting_leaves_variant_computations_alone() {
    // x3 depends on x8, which the loop increments: nothing is invariant.
    let src = r#"
        .func _start global
            li x8, 0
            li x9, 2000
            li x4, 0
        loop:
            mul x3, x8, x8
            add x4, x4, x3
            addi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;
    let (baseline, rewritten, log) = optimize(src, &OptimizeOptions::default());
    assert!(
        !log.records
            .iter()
            .any(|r| r.kind == TransformKind::LoopHoist),
        "nothing is invariant here: {log:?}"
    );
    assert_eq!(retired(&baseline, 0), retired(&rewritten, 0));
}

#[test]
fn polymorphic_dominant_callr_is_promoted() {
    // fptab[0] = common, fptab[1] = rare; every 64th call is rare, so the
    // site is polymorphic with a ~98% dominant callee.
    let src = r#"
        .bss
        fptab: .space 16
        .func common
            addi x12, x12, 1
            ret
        .endfunc
        .func rare
            addi x12, x12, 3
            ret
        .endfunc
        .func _start global
            la x1, fptab
            la x2, common
            st.8 x2, [x1]
            la x2, rare
            st.8 x2, [x1+8]
            li x8, 0
            li x9, 4000
        loop:
            andi x3, x8, 63
            li x4, 0
            set.eq x5, x3, x4
            ldx.8 x6, [x1+x5*8]
            callr x6
            addi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;
    let opts = OptimizeOptions {
        layout: false,
        hoist: false,
        ..OptimizeOptions::default()
    };
    let (_, rewritten, log) = optimize(src, &opts);
    let promo: Vec<_> = log
        .records
        .iter()
        .filter(|r| r.kind == TransformKind::CallPromotion)
        .collect();
    assert_eq!(promo.len(), 1, "one promoted site: {log:?}");
    assert!(!promo[0].detail.contains("rare"));
    assert!(promo[0].detail.contains("common"), "{:?}", promo[0]);
    rewritten[0].validate().expect("valid module");
}

#[test]
fn monomorphic_callr_is_left_alone() {
    // One callee only: the last-target BTB already predicts this site
    // perfectly, so promotion would be pure overhead.
    let src = r#"
        .bss
        fptab: .space 8
        .func only
            addi x12, x12, 1
            ret
        .endfunc
        .func _start global
            la x1, fptab
            la x2, only
            st.8 x2, [x1]
            li x8, 0
            li x9, 4000
        loop:
            ld.8 x6, [x1]
            callr x6
            addi x8, x8, 1
            bne x8, x9, loop
            li x1, 0
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;
    let (_, _, log) = optimize(src, &OptimizeOptions::default());
    assert!(
        !log.records
            .iter()
            .any(|r| r.kind == TransformKind::CallPromotion),
        "monomorphic site must not be promoted: {log:?}"
    );
}

#[test]
fn rewriting_is_deterministic() {
    let modules = vec![assemble("t", BIASED_BRANCH).expect("assemble")];
    let counts = counts_for(&modules);
    let opts = OptimizeOptions::default();
    let (a, log_a) = optimize_modules(&modules, &counts, None, &opts).expect("first");
    let (b, log_b) = optimize_modules(&modules, &counts, None, &opts).expect("second");
    assert_eq!(a[0].text, b[0].text);
    assert_eq!(format!("{log_a:?}"), format!("{log_b:?}"));
}

#[test]
fn module_without_counts_is_kept_verbatim() {
    let modules = vec![assemble("t", BIASED_BRANCH).expect("assemble")];
    let counts = counts_for(&modules);
    let stranger = assemble("other", BIASED_BRANCH).expect("assemble");
    let (out, log) = optimize_modules(
        std::slice::from_ref(&stranger),
        &counts,
        None,
        &OptimizeOptions::default(),
    )
    .expect("optimize");
    assert_eq!(out[0].text, stranger.text);
    assert!(log.notes.iter().any(|n| n.contains("no instrumentation")));
    drop(modules);
}

#[test]
fn rewritten_modules_round_trip_through_the_text_assembler() {
    let (_, rewritten, _) = optimize(BIASED_BRANCH, &OptimizeOptions::default());
    let text = wiser_isa::module_to_text(&rewritten[0]).expect("render");
    let again = assemble("t", &text).expect("reassemble");
    assert_eq!(rewritten[0].text, again.text);
    assert_eq!(rewritten[0].data, again.data);
}
