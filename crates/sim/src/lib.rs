//! # wiser-sim
//!
//! Process loader, functional interpreter and out-of-order superscalar
//! timing model for the OptiWISE reproduction.

#![warn(missing_docs)]

mod error;
mod fault;
mod interp;
mod loader;
mod mem;
mod oracle;
mod syscall;
mod timed;
mod trace;
pub mod uarch;
pub mod unwind;

pub use error::SimError;
pub use fault::{FaultPlan, TruncationReason};
pub use interp::{run_module, Cpu, Frame, Interp, Step};
pub use loader::{CodeLoc, LoadConfig, LoadedModule, ModuleId, ProcessImage};
pub use mem::{Memory, PAGE_SIZE};
pub use oracle::{run_oracle, OracleProfile};
pub use syscall::{SyscallEffect, SyscallNr, SyscallState};
pub use timed::{run_timed, run_timed_partial_ctl, RunControl, TimedRun};
// Re-exported so dependents reach the cancellation primitive without a
// direct `wiser-par` dependency.
pub use wiser_par::{CancelCause, CancelToken};
pub use uarch::{
    BpredConfig, BpredStats, CacheConfig, CacheStats, CommitMode, ConfigError, ConfigErrorKind,
    CoreConfig, CoreStats, MemHierConfig, NoProbes, OoOCore, ProbePoint, Prober, ARCH_NAMES,
    MAX_LATENCY,
};
pub use trace::{BranchOutcome, ExecRecord, FlowEvent};
