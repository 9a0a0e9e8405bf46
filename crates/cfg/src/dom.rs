//! Dominator-tree construction (Cooper–Harvey–Kennedy iterative algorithm).

use crate::graph::{BlockId, Cfg};

/// Marks a block with no immediate dominator (or no reverse-postorder
/// position): unreachable from the entry, or outside the function.
const NONE: usize = usize::MAX;

/// Immediate-dominator table for one function's subgraph.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// Blocks of the function in reverse postorder.
    pub rpo: Vec<BlockId>,
    /// `idom[block]` — immediate dominator; the entry dominates itself.
    /// Blocks unreachable from the entry hold [`NONE`].
    idom: Vec<BlockId>,
    entry: BlockId,
}

impl Dominators {
    /// Computes dominators for the function containing `entry`, following
    /// only intra-function edges of `cfg`.
    pub fn compute(cfg: &Cfg, entry: BlockId) -> Dominators {
        // Reverse postorder over the reachable subgraph; `order_of` marks a
        // block visited before it receives its position.
        let mut order_of = vec![NONE; cfg.blocks.len()];
        let mut rpo = Vec::with_capacity(cfg.blocks.len());
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        order_of[entry] = 0;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = &cfg.blocks[node].succs;
            if *next < succs.len() {
                let (succ, _) = succs[*next];
                *next += 1;
                if order_of[succ] == NONE {
                    order_of[succ] = 0;
                    stack.push((succ, 0));
                }
            } else {
                rpo.push(node);
                stack.pop();
            }
        }
        rpo.reverse();
        for (i, &b) in rpo.iter().enumerate() {
            order_of[b] = i;
        }

        let mut idom = vec![NONE; cfg.blocks.len()];
        idom[entry] = entry;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.blocks[b].preds {
                    if idom[p] == NONE {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(cur, p, &idom, &order_of),
                    });
                }
                if let Some(n) = new_idom {
                    if idom[b] != n {
                        idom[b] = n;
                        changed = true;
                    }
                }
            }
        }
        Dominators { rpo, idom, entry }
    }

    /// Whether `a` dominates `b`. Reflexive. Unreachable blocks dominate
    /// nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            match self.idom[cur] {
                next if next != cur && next != NONE => cur = next,
                _ => return false,
            }
        }
    }

    /// Immediate dominator, if reachable.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b).copied().filter(|&d| d != NONE)
    }

    /// Whether the block is reachable from the entry.
    pub fn reachable(&self, b: BlockId) -> bool {
        self.idom(b).is_some()
    }
}

fn intersect(mut a: BlockId, mut b: BlockId, idom: &[BlockId], order: &[usize]) -> BlockId {
    loop {
        if a == b {
            return a;
        }
        if order[a] > order[b] {
            a = idom[a];
        } else {
            b = idom[b];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::BlockCounts;
    use crate::graph::{build_cfg, Cfg};
    use wiser_dbi::{instrument_run, DbiConfig};
    use wiser_isa::assemble;
    use wiser_sim::{ModuleId, ProcessImage};

    fn cfg_of(src: &str) -> Cfg {
        let module = assemble("t", src).unwrap();
        let image = ProcessImage::load_single(&module).unwrap();
        let counts = instrument_run(&image, &DbiConfig::default()).unwrap();
        build_cfg(
            ModuleId(0),
            &image.modules[0].linked,
            &BlockCounts::stored(&counts),
        )
    }

    #[test]
    fn diamond_dominance() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 10
                li x9, 0
            head:
                andi x1, x8, 1
                beq x1, x9, even
                addi x2, x2, 1      ; odd side
                jmp join
            even:
                addi x3, x3, 1
            join:
                subi x8, x8, 1
                bne x8, x9, head
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let entry = cfg.functions[0].entry.unwrap();
        let dom = Dominators::compute(&cfg, entry);
        let head = cfg.block_at(16).unwrap();
        let odd = cfg.block_containing(32).unwrap();
        let even = cfg.block_at(48).unwrap();
        let join = cfg.block_at(56).unwrap();
        assert!(dom.dominates(entry, head));
        assert!(dom.dominates(head, odd));
        assert!(dom.dominates(head, even));
        assert!(dom.dominates(head, join));
        assert!(!dom.dominates(odd, join));
        assert!(!dom.dominates(even, join));
        // Reflexive.
        assert!(dom.dominates(join, join));
    }

    #[test]
    fn loop_header_dominates_body() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 5
                li x9, 0
            outer:
                li x7, 3
            inner:
                subi x7, x7, 1
                bne x7, x9, inner
                subi x8, x8, 1
                bne x8, x9, outer
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let entry = cfg.functions[0].entry.unwrap();
        let dom = Dominators::compute(&cfg, entry);
        let outer_head = cfg.block_at(16).unwrap();
        let inner_head = cfg.block_at(24).unwrap();
        let after_inner = cfg.block_at(40).unwrap();
        assert!(dom.dominates(outer_head, inner_head));
        assert!(dom.dominates(inner_head, after_inner));
        assert_eq!(dom.idom(inner_head), Some(outer_head));
    }
}
