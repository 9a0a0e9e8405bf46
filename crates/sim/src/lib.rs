//! # wiser-sim
//!
//! Process loader, functional interpreter and out-of-order superscalar
//! timing model for the OptiWISE reproduction.

#![warn(missing_docs)]

mod control;
mod error;
mod fault;
mod hash;
mod interp;
mod loader;
mod mem;
mod oracle;
mod syscall;
mod timed;
mod trace;
pub mod uarch;
pub mod unwind;

pub use control::{poll_cancel, PassControl, CANCEL_POLL_INSNS};
pub use error::SimError;
pub use fault::{FaultPlan, TruncationReason};
pub use hash::{FastHasher, FastMap, FastSet, FastState};
pub use interp::{run_module, Cpu, Frame, Interp, Step};
pub use loader::{CodeLoc, LoadConfig, LoadedModule, ModuleId, ProcessImage};
pub use mem::{Memory, PAGE_SIZE};
pub use oracle::{run_oracle, OracleProfile};
pub use syscall::{SyscallEffect, SyscallNr, SyscallState};
pub use timed::{run_timed, run_timed_partial_ctl, TimedRun};
// Re-exported so dependents reach the cancellation primitive without a
// direct `wiser-par` dependency.
pub use trace::{BranchOutcome, ExecRecord, FlowEvent};
pub use uarch::{
    decimal, BpredConfig, BpredStats, CacheConfig, CacheStats, CommitMode, ConfigError,
    ConfigErrorKind, ConfigField, CoreConfig, CoreStats, CoreWork, MemHierConfig, NoProbes,
    OoOCore, ProbePoint, Prober, ARCH_NAMES, MAX_LATENCY,
};
pub use wiser_par::{CancelCause, CancelToken};
