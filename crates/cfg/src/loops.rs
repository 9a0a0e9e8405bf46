//! Loop finding and the OptiWISE loop-merging heuristic.
//!
//! Loops are found by the conventional back-edge/natural-loop approach
//! (§II-C). When several back edges share a header the paper's heuristic
//! (algorithm 2, threshold T = 3) decides which are distinct *nested* loops
//! and which are merely different control paths of one program loop
//! (figure 6 / Table I).

use std::collections::{BTreeMap, BTreeSet};

use crate::dom::Dominators;
use crate::graph::{BlockId, Cfg};

/// The paper's relative back-edge-frequency threshold (T in algorithm 2).
pub const MERGE_THRESHOLD: u64 = 3;

/// One loop after merging.
#[derive(Clone, Debug)]
pub struct Loop {
    /// Loop header block.
    pub header: BlockId,
    /// Blocks in the loop body (header included).
    pub body: BTreeSet<BlockId>,
    /// Total traversals of this loop's back edges (≈ iteration count).
    pub back_edge_freq: u64,
    /// Function index in the CFG.
    pub function: usize,
    /// Index of the innermost enclosing loop in the forest, if any.
    pub parent: Option<usize>,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
}

impl Loop {
    /// Times the loop was entered from outside its body: header executions
    /// minus arrivals from inside the body. For loops sharing a header with
    /// a nested loop this correctly discounts the *inner* loop's back edges
    /// too, so a figure-6-style outer loop reports its true entry count.
    pub fn invocations(&self, cfg: &Cfg) -> u64 {
        let header_count = cfg.blocks[self.header].count;
        let mut from_inside = 0;
        for &p in &cfg.blocks[self.header].preds {
            if self.body.contains(&p) {
                from_inside += cfg.blocks[p]
                    .succs
                    .iter()
                    .filter(|&&(t, _)| t == self.header)
                    .map(|&(_, c)| c)
                    .sum::<u64>();
            }
        }
        header_count.saturating_sub(from_inside)
    }

    /// Average iterations per invocation.
    pub fn iterations_per_invocation(&self, cfg: &Cfg) -> f64 {
        let inv = self.invocations(cfg);
        if inv == 0 {
            0.0
        } else {
            // Header executions = invocations + back-edge traversals.
            (self.back_edge_freq + inv) as f64 / inv as f64
        }
    }
}

/// One natural loop before merging: a single back edge.
#[derive(Clone, Debug)]
struct RawLoop {
    header: BlockId,
    tail: BlockId,
    body: BTreeSet<BlockId>,
    back_edge_freq: u64,
}

/// Record of one `while` iteration of algorithm 2, for Table I.
#[derive(Clone, Debug)]
pub struct MergeIteration {
    /// Header shared by the loops being processed.
    pub header: BlockId,
    /// Back-edge tails of the loops merged into this level's program loop.
    pub merged_tails: Vec<BlockId>,
    /// Back-edge tails still classified as nested (processed later).
    pub remaining_tails: Vec<BlockId>,
}

/// The result of loop analysis on one function.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    /// All loops, outermost-first within each header group.
    pub loops: Vec<Loop>,
    /// Algorithm 2 trace (only headers with multiple back edges appear).
    pub merge_trace: Vec<MergeIteration>,
}

impl LoopForest {
    /// Loops containing the given block, innermost first.
    ///
    /// The returned loops always form a nesting chain: each loop's body is a
    /// superset of every earlier one. With merging enabled the forest is
    /// laminar and the filter is a no-op; with merging disabled
    /// (`t = None`), partially-overlapping same-header loops can *both*
    /// contain a block on a shared path (e.g. the join after two `continue`
    /// arms), and crediting all of them would double-attribute the block's
    /// weight. In that case the block belongs to the smallest containing
    /// loop and only its strict supersets.
    pub fn loops_containing(&self, block: BlockId) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.body.contains(&block))
            .map(|(i, _)| i)
            .collect();
        // Innermost = smallest body. Stable sort keeps declaration order for
        // equal sizes, so the winner among same-size overlapping bodies is
        // deterministic.
        ids.sort_by_key(|&i| self.loops[i].body.len());
        // Keep only loops nesting everything already kept: each block is
        // attributed to exactly one loop per nesting level.
        let mut chain: Vec<usize> = Vec::with_capacity(ids.len());
        for id in ids {
            if chain
                .iter()
                .all(|&kept| self.loops[id].body.is_superset(&self.loops[kept].body))
            {
                chain.push(id);
            }
        }
        chain
    }

    /// The innermost loop containing the block.
    pub fn innermost(&self, block: BlockId) -> Option<usize> {
        self.loops_containing(block).first().copied()
    }

    /// Verifies that the forest is a laminar family with consistent parent
    /// links — the invariant the merged (algorithm 2) forest must satisfy
    /// so every block is attributed to exactly one loop per nesting level:
    ///
    /// * any two loop bodies are disjoint or nested,
    /// * a parent's body contains its child's and its depth is smaller,
    /// * the per-level exclusive block sets of a header group partition the
    ///   group's region (sum of per-loop exclusive block counts equals the
    ///   region block count).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_laminar(&self) -> Result<(), String> {
        for i in 0..self.loops.len() {
            for j in i + 1..self.loops.len() {
                let a = &self.loops[i].body;
                let b = &self.loops[j].body;
                let inter = a.intersection(b).count();
                if inter != 0 && inter != a.len().min(b.len()) {
                    return Err(format!(
                        "loops {i} (header {}) and {j} (header {}) partially \
                         overlap: {inter} shared blocks, bodies {} and {}",
                        self.loops[i].header,
                        self.loops[j].header,
                        a.len(),
                        b.len()
                    ));
                }
            }
        }
        for (i, l) in self.loops.iter().enumerate() {
            let Some(p) = l.parent else { continue };
            if p == i {
                return Err(format!("loop {i} is its own parent"));
            }
            let parent = &self.loops[p];
            if !parent.body.is_superset(&l.body) {
                return Err(format!("parent {p} of loop {i} does not contain its body"));
            }
            if parent.depth >= l.depth {
                return Err(format!(
                    "parent {p} (depth {}) of loop {i} (depth {}) is not shallower",
                    parent.depth, l.depth
                ));
            }
        }
        // Per-header partition: the levels a shared header was split into
        // must form an inclusion chain whose per-level *exclusive* block
        // sets partition the region, so each block of the region is
        // attributed to exactly one split sibling (sum of per-loop exclusive
        // block counts == region block count).
        let mut by_header: BTreeMap<BlockId, Vec<usize>> = BTreeMap::new();
        for (i, l) in self.loops.iter().enumerate() {
            by_header.entry(l.header).or_default().push(i);
        }
        for (header, mut ids) in by_header {
            ids.sort_by_key(|&i| (self.loops[i].body.len(), i));
            let region = &self.loops[*ids.last().unwrap()].body;
            let mut exclusive_total = 0usize;
            let mut prev_len = 0usize;
            for (k, &i) in ids.iter().enumerate() {
                if k > 0 && !self.loops[i].body.is_superset(&self.loops[ids[k - 1]].body) {
                    return Err(format!(
                        "header {header}: split levels {} and {i} are not nested",
                        ids[k - 1]
                    ));
                }
                exclusive_total += self.loops[i].body.len() - prev_len;
                prev_len = self.loops[i].body.len();
            }
            if exclusive_total != region.len() {
                return Err(format!(
                    "header {header}: per-level exclusive block counts sum to \
                     {exclusive_total}, region has {} blocks",
                    region.len()
                ));
            }
        }
        Ok(())
    }
}

/// Finds loops in one function and applies the merging heuristic with
/// threshold `t` (pass [`MERGE_THRESHOLD`] for the paper's value; `None`
/// disables merging, yielding one loop per back edge).
pub fn find_loops(cfg: &Cfg, dom: &Dominators, function: usize, t: Option<u64>) -> LoopForest {
    // 1. Back edges: u -> v where v dominates u.
    let mut raw: Vec<RawLoop> = Vec::new();
    for &u in &cfg.functions[function].blocks {
        if !dom.reachable(u) {
            continue;
        }
        for &(v, freq) in &cfg.blocks[u].succs {
            if dom.dominates(v, u) {
                let body = natural_loop_body(cfg, v, u);
                raw.push(RawLoop {
                    header: v,
                    tail: u,
                    body,
                    back_edge_freq: freq,
                });
            }
        }
    }

    // 2. Group by header, each group's loops in discovery order; merge
    //    per algorithm 2.
    let mut by_header: Vec<(BlockId, usize, BlockId)> = raw
        .iter()
        .enumerate()
        .map(|(i, l)| (l.header, i, l.tail))
        .collect();
    by_header.sort_by_key(|&(header, _, _)| header);

    let mut merged: Vec<Loop> = Vec::new();
    let mut merge_trace: Vec<MergeIteration> = Vec::new();
    for group in by_header.chunk_by(|a, b| a.0 == b.0) {
        let header = group[0].0;
        if group.len() == 1 || t.is_none() {
            for &(_, i, _) in group {
                merged.push(Loop {
                    header,
                    body: std::mem::take(&mut raw[i].body),
                    back_edge_freq: raw[i].back_edge_freq,
                    function,
                    parent: None,
                    depth: 0,
                });
            }
            continue;
        }
        let t = t.unwrap();
        // Algorithm 2. `inner_loops` sorted by body size ascending.
        let mut inner: Vec<(usize, BlockId)> =
            group.iter().map(|&(_, i, tail)| (i, tail)).collect();
        inner.sort_by_key(|&(i, _)| raw[i].body.len());
        while !inner.is_empty() {
            let mut current: Vec<(usize, BlockId)> = Vec::new();
            let mut remaining: Vec<(usize, BlockId)> = Vec::new();
            for &(i, tail) in &inner {
                let freq_sum: u64 = inner
                    .iter()
                    .filter(|&&(j, _)| {
                        j != i
                            && raw[i].body.is_subset(&raw[j].body)
                            && raw[i].body.len() < raw[j].body.len()
                    })
                    .map(|&(j, _)| raw[j].back_edge_freq)
                    .sum();
                if freq_sum == 0 || t * freq_sum > raw[i].back_edge_freq {
                    current.push((i, tail));
                } else {
                    remaining.push((i, tail));
                }
            }
            if current.is_empty() {
                // Defensive: guarantee progress.
                current.push(remaining.remove(0));
            }
            // The union of `current` is this level's program loop.
            let mut body = BTreeSet::new();
            let mut freq = 0;
            for &(i, _) in &current {
                body.extend(raw[i].body.iter().copied());
                freq += raw[i].back_edge_freq;
            }
            merge_trace.push(MergeIteration {
                header,
                merged_tails: current.iter().map(|&(_, t)| t).collect(),
                remaining_tails: remaining.iter().map(|&(_, t)| t).collect(),
            });
            merged.push(Loop {
                header,
                body,
                back_edge_freq: freq,
                function,
                parent: None,
                depth: 0,
            });
            inner = remaining;
        }
    }

    // 3. Nesting: parent = smallest strict superset (ties broken by header).
    let mut order: Vec<usize> = (0..merged.len()).collect();
    order.sort_by_key(|&i| merged[i].body.len());
    for idx_pos in 0..order.len() {
        let i = order[idx_pos];
        let mut best: Option<usize> = None;
        for &j in &order {
            if j == i {
                continue;
            }
            let (small, big) = (&merged[i], &merged[j]);
            let strict = small.body.len() < big.body.len()
                || (small.body.len() == big.body.len() && small.header != big.header);
            if strict && small.body.is_subset(&big.body) {
                let better = match best {
                    None => true,
                    Some(b) => merged[j].body.len() < merged[b].body.len(),
                };
                if better {
                    best = Some(j);
                }
            }
        }
        merged[i].parent = best;
    }
    // Depths.
    for i in 0..merged.len() {
        let mut depth = 0;
        let mut cur = merged[i].parent;
        let mut guard = 0;
        while let Some(p) = cur {
            depth += 1;
            cur = merged[p].parent;
            guard += 1;
            if guard > merged.len() {
                break; // defensive against accidental cycles
            }
        }
        merged[i].depth = depth;
    }

    LoopForest {
        loops: merged,
        merge_trace,
    }
}

/// Standard natural-loop body: all blocks that reach `tail` without passing
/// through `header`, plus the header.
fn natural_loop_body(cfg: &Cfg, header: BlockId, tail: BlockId) -> BTreeSet<BlockId> {
    let mut body: BTreeSet<BlockId> = BTreeSet::new();
    body.insert(header);
    let mut stack = vec![tail];
    while let Some(b) = stack.pop() {
        if body.insert(b) {
            for &p in &cfg.blocks[b].preds {
                stack.push(p);
            }
        }
    }
    body
}

/// Convenience: loop analysis for every function of a CFG, with the paper's
/// merge threshold.
pub fn find_all_loops(cfg: &Cfg, t: Option<u64>) -> Vec<LoopForest> {
    cfg.functions
        .iter()
        .enumerate()
        .map(|(fidx, f)| match f.entry {
            Some(entry) => {
                let dom = Dominators::compute(cfg, entry);
                find_loops(cfg, &dom, fidx, t)
            }
            None => LoopForest::default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::BlockCounts;
    use crate::graph::build_cfg;
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
    fn single_loop_found() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 10
                li x9, 0
            loop:
                addi x1, x1, 1
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let forests = find_all_loops(&cfg, Some(MERGE_THRESHOLD));
        let f = &forests[0];
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].back_edge_freq, 9);
        assert_eq!(f.loops[0].invocations(&cfg), 1);
        assert!((f.loops[0].iterations_per_invocation(&cfg) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn nested_loops_nest() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 5
                li x9, 0
            outer:
                li x7, 20
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
        let forests = find_all_loops(&cfg, Some(MERGE_THRESHOLD));
        let f = &forests[0];
        assert_eq!(f.loops.len(), 2);
        let inner = f
            .loops
            .iter()
            .position(|l| l.body.len() < 3)
            .expect("inner loop");
        let outer = 1 - inner;
        assert_eq!(f.loops[inner].parent, Some(outer));
        assert_eq!(f.loops[inner].depth, 1);
        assert_eq!(f.loops[outer].depth, 0);
        // Inner: 19 back edges × 5 invocations.
        assert_eq!(f.loops[inner].back_edge_freq, 95);
        assert_eq!(f.loops[outer].back_edge_freq, 4);
    }

    /// A loop with a `continue`-style second back edge: both back edges
    /// share the header and should be merged into one loop.
    #[test]
    fn continue_paths_merge() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 30
                li x9, 0
            head:
                subi x8, x8, 1
                andi x1, x8, 1
                beq x1, x9, even
                bne x8, x9, head     ; odd-path back edge
                jmp done
            even:
                addi x2, x2, 1
                bne x8, x9, head     ; even-path back edge
            done:
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let forests = find_all_loops(&cfg, Some(MERGE_THRESHOLD));
        let f = &forests[0];
        // Merged into a single loop covering both paths.
        assert_eq!(f.loops.len(), 1, "loops: {:?}", f.loops);
        assert!(!f.merge_trace.is_empty());
        assert_eq!(f.merge_trace[0].merged_tails.len(), 2);
    }

    /// Figure 6-style: an inner nested loop shares the outer loop's header;
    /// the inner back edge is ≥3× hotter, so the heuristic splits it out.
    #[test]
    fn hot_shared_header_loop_splits() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 10
                li x9, 0
            head:
                li x7, 50
            spin:
                ; inner loop body jumping back to its own head `spin`?
                ; No — construct the shared-header shape: inner back edge
                ; targets `head` itself.
                subi x7, x7, 1
                li x6, 0
                beq x7, x6, exit_inner
                jmp back_to_head
            exit_inner:
                subi x8, x8, 1
                bne x8, x9, head      ; outer back edge (freq 9)
                jmp done
            back_to_head:
                jmp head_inner
            head_inner:
                jmp spin              ; stay in inner
            done:
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        // This shape is approximate; the precise figure 6 topology is
        // exercised in the fig06 bench. Here we only require analysis to
        // terminate and produce loops.
        let forests = find_all_loops(&cfg, Some(MERGE_THRESHOLD));
        assert!(!forests[0].loops.is_empty());
    }

    #[test]
    fn merging_disabled_keeps_raw_loops() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 30
                li x9, 0
            head:
                subi x8, x8, 1
                andi x1, x8, 1
                beq x1, x9, even
                bne x8, x9, head
                jmp done
            even:
                addi x2, x2, 1
                bne x8, x9, head
            done:
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let forests = find_all_loops(&cfg, None);
        assert_eq!(forests[0].loops.len(), 2);
    }

    /// Regression: with merging disabled the odd/even continue paths are two
    /// partially-overlapping raw loops that both contain the shared header.
    /// Attribution must credit each block along a single nesting chain, not
    /// once per overlapping sibling (the double-attribution join bug).
    #[test]
    fn overlapping_raw_loops_attribute_each_block_to_one_chain() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 30
                li x9, 0
            head:
                subi x8, x8, 1
                andi x1, x8, 1
                beq x1, x9, even
                bne x8, x9, head
                jmp done
            even:
                addi x2, x2, 1
                bne x8, x9, head
            done:
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
        );
        let forests = find_all_loops(&cfg, None);
        let f = &forests[0];
        assert_eq!(f.loops.len(), 2);
        // The raw pair genuinely overlaps without nesting (this is what the
        // laminar check must reject)...
        assert!(f.check_laminar().is_err());
        // ...so the per-block attribution set must be filtered to a chain.
        for b in 0..cfg.blocks.len() {
            let containing = f.loops_containing(b);
            for w in containing.windows(2) {
                assert!(
                    f.loops[w[1]].body.is_superset(&f.loops[w[0]].body),
                    "block {b}: loops {containing:?} are not a nesting chain"
                );
            }
        }
        // The shared header lies in both raw bodies; exactly one may be
        // credited at that nesting level.
        let head = f.loops[0].header;
        assert_eq!(f.loops_containing(head).len(), 1);
    }

    /// The merged forest of the same CFG is laminar and passes the
    /// split/merge partition invariant.
    #[test]
    fn merged_forests_are_laminar() {
        for src in [
            r#"
            .func _start global
                li x8, 30
                li x9, 0
            head:
                subi x8, x8, 1
                andi x1, x8, 1
                beq x1, x9, even
                bne x8, x9, head
                jmp done
            even:
                addi x2, x2, 1
                bne x8, x9, head
            done:
                li x0, 0
                syscall
            .endfunc
            .entry _start
            "#,
            r#"
            .func _start global
                li x8, 5
                li x9, 0
            outer:
                li x7, 20
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
        ] {
            let cfg = cfg_of(src);
            for f in find_all_loops(&cfg, Some(MERGE_THRESHOLD)) {
                f.check_laminar().unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn check_laminar_rejects_partial_overlap_and_bad_parents() {
        let mk = |body: &[BlockId], parent, depth| Loop {
            header: body[0],
            body: body.iter().copied().collect(),
            back_edge_freq: 1,
            function: 0,
            parent,
            depth,
        };
        // Partial overlap.
        let f = LoopForest {
            loops: vec![mk(&[0, 1, 2], None, 0), mk(&[2, 3], None, 0)],
            merge_trace: vec![],
        };
        assert!(f.check_laminar().unwrap_err().contains("overlap"));
        // Parent that does not contain the child.
        let f = LoopForest {
            loops: vec![mk(&[0, 1], Some(1), 1), mk(&[5, 6], None, 0)],
            merge_trace: vec![],
        };
        assert!(f.check_laminar().is_err());
        // Parent not shallower than the child.
        let f = LoopForest {
            loops: vec![mk(&[0, 1], Some(1), 0), mk(&[0, 1, 2], None, 0)],
            merge_trace: vec![],
        };
        assert!(f.check_laminar().unwrap_err().contains("shallower"));
    }

    #[test]
    fn loops_containing_orders_innermost_first() {
        let cfg = cfg_of(
            r#"
            .func _start global
                li x8, 3
                li x9, 0
            outer:
                li x7, 30
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
        let forests = find_all_loops(&cfg, Some(MERGE_THRESHOLD));
        let f = &forests[0];
        let inner_header = cfg.block_at(24).unwrap();
        let containing = f.loops_containing(inner_header);
        assert_eq!(containing.len(), 2);
        assert!(f.loops[containing[0]].body.len() <= f.loops[containing[1]].body.len());
        assert_eq!(f.innermost(inner_header), Some(containing[0]));
    }
}
