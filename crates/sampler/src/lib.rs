//! # wiser-sampler
//!
//! perf-style periodic sampling profiler for the OptiWISE reproduction:
//! attaches to the out-of-order timing model, records `(PC, cycle-weight,
//! call stack)` triples keyed by `(module, offset)`, and reproduces the
//! sampling quirks of real out-of-order processors (skid, commit groups,
//! early-release displacement) that motivate combining sampling with
//! instrumentation.

#![warn(missing_docs)]

mod config;
mod profile;
mod sampler;

pub use config::{Attribution, SamplerConfig, StackMode};
pub use profile::{FrameRange, Sample, SampleProfile};
pub use sampler::{
    sample_run, sample_run_ctl, sampling_overhead, PerfSampler, SAMPLE_SERVICE_COST,
};
