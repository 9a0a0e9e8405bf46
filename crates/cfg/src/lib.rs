//! # wiser-cfg
//!
//! CFG reconstruction, dominance analysis, natural-loop finding and the
//! OptiWISE loop-merging heuristic (algorithm 2, T = 3) over the
//! instrumentation profiles produced by `wiser-dbi`.

#![warn(missing_docs)]

mod dom;
mod dot;
mod flow;
mod graph;
mod loops;

pub use dom::Dominators;
pub use dot::function_to_dot;
pub use flow::{optimize_placement, recover, BlockCounts};
pub use graph::{build_cfg, BlockId, Cfg, CfgBlock, FuncCfg};
pub use loops::{find_all_loops, find_loops, Loop, LoopForest, MergeIteration, MERGE_THRESHOLD};
