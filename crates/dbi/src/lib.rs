//! # wiser-dbi
//!
//! DynamoRIO-substitute dynamic binary instrumentation engine for the
//! OptiWISE reproduction: runtime block discovery, vertex/edge profiling
//! with per-terminator instrumentation strategies, stack profiling
//! (algorithm 1 of the paper), and a calibrated instrumentation-overhead
//! model for the figure 7 experiment.

#![warn(missing_docs)]

mod cost;
mod counts;
mod engine;

pub use cost::CostModel;
pub use counts::{BlockCount, CounterPlacement, CountsProfile, InstrumentationCost, TermKind};
pub use engine::{instrument_run, instrument_run_ctl, DbiConfig};
