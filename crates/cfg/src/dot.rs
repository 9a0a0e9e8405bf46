//! Graphviz (dot) rendering of per-function CFGs with edge frequencies and
//! loop annotations — the debugging view the loop finder's output is easiest
//! to validate with.

use std::fmt::Write as _;

use crate::graph::Cfg;
use crate::loops::LoopForest;

/// Renders one function's CFG as a `dot` digraph. Blocks show their offset
/// range and execution count; edges show traversal counts; loop headers are
/// drawn with a double border and shaded by nesting depth.
pub fn function_to_dot(cfg: &Cfg, function: usize, forest: &LoopForest) -> String {
    let f = &cfg.functions[function];
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", f.name.replace('"', "'"));
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for &b in &f.blocks {
        let block = &cfg.blocks[b];
        let is_header = forest.loops.iter().any(|l| l.header == b);
        let depth = forest
            .loops_containing(b)
            .first()
            .map(|&i| forest.loops[i].depth + 1)
            .unwrap_or(0);
        let fill = match depth {
            0 => "white",
            1 => "gray95",
            2 => "gray88",
            _ => "gray80",
        };
        let _ = writeln!(
            out,
            "  b{b} [label=\"{:#x}..{:#x}\\nexec {}\"{}, style=filled, fillcolor={fill}];",
            block.start,
            block.end(),
            block.count,
            if is_header { ", peripheries=2" } else { "" },
        );
    }
    for &b in &f.blocks {
        for &(succ, count) in &cfg.blocks[b].succs {
            let _ = writeln!(out, "  b{b} -> b{succ} [label=\"{count}\"];");
        }
        for (target, count) in &cfg.blocks[b].call_targets {
            let _ = writeln!(
                out,
                "  b{b} -> \"call {target}\" [label=\"{count}\", style=dashed];"
            );
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::BlockCounts;
    use crate::graph::build_cfg;
    use crate::loops::{find_all_loops, MERGE_THRESHOLD};
    use wiser_dbi::{instrument_run, DbiConfig};
    use wiser_isa::assemble;
    use wiser_sim::{ModuleId, ProcessImage};

    #[test]
    fn dot_output_well_formed() {
        let module = assemble(
            "d",
            r#"
            .func _start global
                li x8, 10
                li x9, 0
            loop:
                subi x8, x8, 1
                bne x8, x9, loop
                li x1, 0
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        )
        .unwrap();
        let image = ProcessImage::load_single(&module).unwrap();
        let counts = instrument_run(&image, &DbiConfig::default()).unwrap();
        let cfg = build_cfg(
            ModuleId(0),
            &image.modules[0].linked,
            &BlockCounts::stored(&counts),
        );
        let forests = find_all_loops(&cfg, Some(MERGE_THRESHOLD));
        let dot = function_to_dot(&cfg, 0, &forests[0]);
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        // The loop header has a double border and the back edge appears.
        assert!(dot.contains("peripheries=2"));
        assert!(dot.contains("->"));
        // Braces balance.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
