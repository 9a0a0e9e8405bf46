//! The out-of-order superscalar timing model.

pub mod bpred;
pub mod cache;
pub mod config;
pub mod core;

pub use bpred::{BpredStats, BranchPredictor};
pub use cache::{Cache, CacheStats, Hierarchy};
pub use config::{
    BpredConfig, CacheConfig, CommitMode, ConfigError, ConfigErrorKind, CoreConfig, MemHierConfig,
    ARCH_NAMES, MAX_LATENCY,
};
pub use core::{CoreStats, CoreWork, NoProbes, OoOCore, ProbePoint, Prober};
