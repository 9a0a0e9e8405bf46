//! Dominator-tree construction (Cooper–Harvey–Kennedy iterative algorithm).

use wiser_sim::{FastMap, FastSet};

use crate::graph::{BlockId, Cfg};

/// Immediate-dominator table for one function's subgraph.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// Blocks of the function in reverse postorder.
    pub rpo: Vec<BlockId>,
    /// `idom[block]` — immediate dominator; the entry dominates itself.
    /// Blocks unreachable from the entry are absent.
    idom: FastMap<BlockId, BlockId>,
    entry: BlockId,
}

impl Dominators {
    /// Computes dominators for the function containing `entry`, following
    /// only intra-function edges of `cfg`.
    pub fn compute(cfg: &Cfg, entry: BlockId) -> Dominators {
        // Reverse postorder over the reachable subgraph.
        let mut visited = FastSet::default();
        let mut postorder = Vec::new();
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited.insert(entry);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = &cfg.blocks[node].succs;
            if *next < succs.len() {
                let (succ, _) = succs[*next];
                *next += 1;
                if visited.insert(succ) {
                    stack.push((succ, 0));
                }
            } else {
                postorder.push(node);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = postorder.iter().rev().copied().collect();
        let order_of: FastMap<BlockId, usize> =
            rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();

        let mut idom: FastMap<BlockId, BlockId> = Default::default();
        idom.insert(entry, entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.blocks[b].preds {
                    if !idom.contains_key(&p) {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(cur, p, &idom, &order_of),
                    });
                }
                if let Some(n) = new_idom {
                    if idom.get(&b) != Some(&n) {
                        idom.insert(b, n);
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
        if !self.idom.contains_key(&b) {
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
            match self.idom.get(&cur) {
                Some(&next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }

    /// Immediate dominator, if reachable.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(&b).copied()
    }

    /// Whether the block is reachable from the entry.
    pub fn reachable(&self, b: BlockId) -> bool {
        self.idom.contains_key(&b)
    }
}

fn intersect(
    mut a: BlockId,
    mut b: BlockId,
    idom: &FastMap<BlockId, BlockId>,
    order: &FastMap<BlockId, usize>,
) -> BlockId {
    loop {
        if a == b {
            return a;
        }
        let (oa, ob) = (order[&a], order[&b]);
        if oa > ob {
            a = idom[&a];
        } else {
            b = idom[&b];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build_cfg, Cfg};
    use wiser_dbi::{instrument_run, DbiConfig};
    use wiser_isa::assemble;
    use wiser_sim::{ModuleId, ProcessImage};

    fn cfg_of(src: &str) -> Cfg {
        let module = assemble("t", src).unwrap();
        let image = ProcessImage::load_single(&module).unwrap();
        let counts = instrument_run(&image, &DbiConfig::default()).unwrap();
        build_cfg(ModuleId(0), &image.modules[0].linked, &counts)
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
