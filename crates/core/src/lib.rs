//! # optiwise
//!
//! The core of the OptiWISE reproduction (CGO 2024): fuses a low-overhead
//! sampling profile with an instrumentation profile to produce granular
//! cycles-per-instruction analysis at instruction, basic-block, loop,
//! source-line and function granularity.
//!
//! The pipeline (paper figure 3):
//!
//! 1. sample the program under the out-of-order timing model (`wiser-sampler`),
//! 2. instrument a second execution for exact edge counts and stack
//!    profiling (`wiser-dbi`),
//! 3. reconstruct the CFG, find and merge loops (`wiser-cfg`),
//! 4. join the two profiles on `(module, offset)` keys and aggregate
//!    ([`Analysis`]).
//!
//! Use [`run_optiwise`] for the whole pipeline in one call, or drive the
//! stages separately for custom workflows.

#![warn(missing_docs)]

mod analysis;
mod blocks;
pub mod diff;
mod error;
pub mod export;
mod limits;
pub mod report;
mod runner;
pub mod selfcheck;
pub mod sweep;
mod tables;
mod types;
mod xfrm;

pub use analysis::{
    Analysis, AnalysisMode, AnalysisOptions, JoinDiagnostics, ModuleAnalysis,
    DEFAULT_DIVERGENCE_THRESHOLD,
};
pub use blocks::{block_stats, blocks_table, BlockStats};
pub use diff::{diff_tables, DiffClass, DiffMetric, DiffOptions, DiffReport, DiffRow, DiffSide};
pub use error::{OptiwiseError, Pass, StoreError};
pub use limits::ResourceLimits;
pub use runner::{
    counts_pass, module_fingerprint, run_optiwise, run_optiwise_ctl, sampling_pass, OptiwiseConfig,
    OptiwiseRun, PassEvent, ResumeState, RetryPolicy, RunControl, DEFAULT_HOT_THRESHOLD,
};
pub use sweep::{reduce_fleet, SweepCell, SweepConfig, SweepGrid, SweepResult, SweepWorkload};
pub use tables::ProfileTables;
pub use types::{Coverage, FuncStats, InsnRow, LineStats, LoopStats};
pub use wiser_sim::{CancelCause, CancelToken};
pub use xfrm::{TransformKind, TransformLog, TransformRecord};
