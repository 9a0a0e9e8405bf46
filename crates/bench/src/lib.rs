//! # wiser-bench
//!
//! The experiment harness: one generator per figure/table of the paper.
//! Each `fig*` function computes the data; the [`figures`] table renders
//! it in the paper's shape, and the `figures` binary writes the files
//! under an output directory (`results/` by default).

#![warn(missing_docs)]

pub mod experiments;
pub mod figures;

pub use experiments::*;
