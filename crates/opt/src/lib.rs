//! # wiser-opt
//!
//! Profile-guided binary rewriting over `wiser-isa`: the "optimize" half of
//! the OptiWISE loop. Where the profiler tells you *where* the cycles go,
//! this crate spends that knowledge, rewriting a module set with three
//! transforms driven by the stored instrumentation profile:
//!
//! 1. **Basic-block layout** — greedy chain formation on measured edge
//!    counts; the heaviest successor becomes the fall-through and cold
//!    blocks sink to the function tail. Taken branches end the fetch group
//!    on the modelled core, so hot-path straightening buys real cycles.
//! 2. **Indirect-call promotion** — `callr` sites whose DBI callee
//!    distribution is polymorphic but dominated by one target become a
//!    guarded direct `call` with the original `callr` kept as the slow
//!    path.
//! 3. **Loop-invariant hoisting** — pure register computations move out of
//!    hot single-block self-loops into a preheader, hinted by the high-CPI
//!    loops in the profile tables.
//!
//! Every transform preserves semantics by construction (see the per-pass
//! documentation in [`mod@self`]'s internals), and the crate insists on
//! proof: rewritten modules must pass `Module::validate`, and
//! [`oracle_check`] runs baseline and rewritten programs on a battery of
//! generated inputs — including inputs the profile never saw — requiring
//! identical observable behaviour.
//!
//! The rewriter is deliberately conservative. Functions with address-taken
//! anchors or computed jumps keep their original block order (they are
//! still re-linked), and any module-level surprise — unexpected
//! relocations, text not covered by function symbols — keeps the whole
//! module byte-compatible and records why in the [`TransformLog`].

#![warn(missing_docs)]

mod ir;
mod oracle;
mod regs;
mod transforms;

use optiwise::{ProfileTables, TransformLog};
use wiser_cfg::{build_cfg, BlockCounts};
use wiser_dbi::CountsProfile;
use wiser_isa::{IsaError, Module};
use wiser_sim::ModuleId;

pub use oracle::oracle_check;

/// Tuning knobs for the rewrite passes.
#[derive(Clone, Debug)]
pub struct OptimizeOptions {
    /// Reorder basic blocks for fall-through on hot edges.
    pub layout: bool,
    /// Promote dominant indirect calls to guarded direct calls.
    pub promote: bool,
    /// Hoist loop-invariant register computations into preheaders.
    pub hoist: bool,
    /// Minimum dynamic calls at a `callr` site before promotion.
    pub promote_min_total: u64,
    /// Minimum share (percent) the dominant callee must hold.
    pub promote_min_share_pct: u64,
    /// Minimum back-edge traversals before a self-loop is hoisted.
    pub hoist_min_backedge: u64,
}

impl Default for OptimizeOptions {
    fn default() -> OptimizeOptions {
        OptimizeOptions {
            layout: true,
            promote: true,
            hoist: true,
            promote_min_total: 1000,
            promote_min_share_pct: 75,
            hoist_min_backedge: 100,
        }
    }
}

/// Errors from rewriting or verification.
#[derive(Debug)]
pub enum OptError {
    /// An internal rewrite invariant was broken, or the oracle could not
    /// even load one of the module sets.
    Rewrite(String),
    /// A rewritten module failed `Module::validate` — a rewriter bug.
    Invalid(IsaError),
    /// The rewritten program behaved observably differently.
    Divergence(String),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Rewrite(msg) => write!(f, "rewrite failed: {msg}"),
            OptError::Invalid(e) => write!(f, "rewritten module is invalid: {e}"),
            OptError::Divergence(msg) => write!(f, "oracle divergence: {msg}"),
        }
    }
}

impl std::error::Error for OptError {}

/// Rewrites `modules` using the edge counts and callee distributions in
/// `counts` (which must already be recovered if counter placement was
/// optimized) plus the loop hints in `tables`.
///
/// Modules without instrumentation counts, and modules using constructs the
/// rewriter cannot prove safe, are passed through unchanged with a note in
/// the returned [`TransformLog`]. The output vector is index-aligned with
/// the input.
///
/// # Errors
///
/// Only genuine rewriter bugs surface as errors (a rewritten module failing
/// validation); everything recoverable degrades to an identity rewrite.
pub fn optimize_modules(
    modules: &[Module],
    counts: &CountsProfile,
    tables: Option<&ProfileTables>,
    opts: &OptimizeOptions,
) -> Result<(Vec<Module>, TransformLog), OptError> {
    let mut log = TransformLog::default();
    let mut out = Vec::with_capacity(modules.len());
    for module in modules {
        let module_id = counts
            .module_names
            .iter()
            .position(|n| n == &module.name)
            .map(|i| i as u32);
        let Some(module_id) = module_id else {
            log.notes.push(format!(
                "{}: no instrumentation counts, kept original",
                module.name
            ));
            out.push(module.clone());
            continue;
        };
        let cfg = build_cfg(ModuleId(module_id), module, &BlockCounts::stored(counts));
        let ctx = transforms::Ctx {
            module,
            module_id,
            opts,
            tables,
        };
        match ir::decompose(module, Some(&cfg)) {
            Err(ir::Bail(reason)) => {
                log.notes
                    .push(format!("{}: kept original ({reason})", module.name));
                out.push(module.clone());
            }
            Ok(mut mir) => {
                transforms::note_freezes(&mir, &ctx, &mut log);
                transforms::promote_calls(&mut mir, &cfg, &ctx, &mut log);
                transforms::hoist_invariants(&mut mir, &ctx, &mut log);
                transforms::layout_blocks(&mut mir, &ctx, &mut log);
                let rewritten = ir::emit(module, &mut mir)
                    .map_err(|ir::Bail(reason)| OptError::Rewrite(reason))?;
                rewritten.validate().map_err(OptError::Invalid)?;
                out.push(rewritten);
            }
        }
    }
    Ok((out, log))
}

#[cfg(test)]
mod tests;
