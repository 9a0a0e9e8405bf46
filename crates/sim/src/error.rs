//! Error types for the simulator crate.

use std::error::Error;
use std::fmt;

/// Errors produced by loading or executing a process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The loader rejected the module set.
    Load(String),
    /// Execution failed (undecodable instruction, bad jump target, stack
    /// exhaustion, unknown syscall).
    Exec {
        /// Program counter at the fault.
        pc: u64,
        /// Description of the fault.
        message: String,
    },
    /// The configured instruction budget was exhausted before the program
    /// exited.
    InsnLimit(u64),
    /// An injected crash (`FaultPlan::kill_after_insns`) terminated the
    /// pass after this many retired instructions. Models `kill -9`: no
    /// graceful truncation, no partial profile — the pass simply dies, and
    /// only previously persisted checkpoints survive.
    Killed(u64),
    /// The timing model cannot go on: it made no progress for the deadlock
    /// window (5M cycles; only a latency no validated `CoreConfig` allows
    /// gets there), or it was handed a memory access without an address.
    ModelStuck {
        /// Cycle at which the model gave up.
        cycle: u64,
        /// What stopped it.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Load(msg) => write!(f, "load error: {msg}"),
            SimError::Exec { pc, message } => write!(f, "execution fault at {pc:#x}: {message}"),
            SimError::InsnLimit(limit) => {
                write!(f, "instruction limit of {limit} exhausted before exit")
            }
            SimError::Killed(n) => {
                write!(f, "injected crash killed the pass after {n} instructions")
            }
            SimError::ModelStuck { cycle, message } => {
                write!(f, "timing model stuck at cycle {cycle}: {message}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!SimError::Load("x".into()).to_string().is_empty());
        assert!(SimError::Exec {
            pc: 16,
            message: "bad".into()
        }
        .to_string()
        .contains("0x10"));
        assert!(SimError::InsnLimit(5).to_string().contains('5'));
    }
}
