//! Provenance of profile-guided transformations.
//!
//! The optimizer (`wiser-opt`) records every transform it applies here, and
//! the store serialises the log into the `.owp` file's `XFRM` section so a
//! later `show`/`diff` can tell which rewrites produced the profile it is
//! looking at. The types live in the core crate because both the optimizer
//! and the store depend on it, in that order.

use std::fmt;

/// The profile-driven transform families the optimizer can apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformKind {
    /// Basic-block layout: the hottest successor chain becomes fall-through,
    /// cold blocks sink to the function tail.
    Layout,
    /// Indirect-call promotion: a dominant callee from the DBI target table
    /// becomes a guarded direct call with the indirect slow path kept.
    CallPromotion,
    /// Loop-invariant hoisting out of a high-CPI single-block loop into a
    /// fresh preheader.
    LoopHoist,
}

impl TransformKind {
    /// Stable on-disk code for the `XFRM` section.
    pub fn code(self) -> u8 {
        match self {
            TransformKind::Layout => 1,
            TransformKind::CallPromotion => 2,
            TransformKind::LoopHoist => 3,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for codes written by a future
    /// version.
    pub fn from_code(code: u8) -> Option<TransformKind> {
        match code {
            1 => Some(TransformKind::Layout),
            2 => Some(TransformKind::CallPromotion),
            3 => Some(TransformKind::LoopHoist),
            _ => None,
        }
    }
}

impl fmt::Display for TransformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransformKind::Layout => "layout",
            TransformKind::CallPromotion => "call-promotion",
            TransformKind::LoopHoist => "loop-hoist",
        })
    }
}

/// One transform application within one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransformRecord {
    /// Module index (into the run's module table).
    pub module: u32,
    /// Function the transform fired in.
    pub function: String,
    /// Which transform fired.
    pub kind: TransformKind,
    /// Human-readable specifics, e.g. `"reordered 4 blocks"` or
    /// `"callr@0x58 -> helper (97.2%)"`.
    pub detail: String,
}

/// The optimizer's full provenance log for one rewritten module set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransformLog {
    /// Every transform that fired, in (module, function, discovery) order.
    pub records: Vec<TransformRecord>,
    /// Module-level notes: identity bail-outs, frozen functions, skipped
    /// candidates — anything the optimizer declined to do and why.
    pub notes: Vec<String>,
}

impl TransformLog {
    /// Whether any transform fired at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the log as the `optimize` subcommand's transform summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("== transforms ==\n");
        if self.records.is_empty() {
            out.push_str("(none fired)\n");
        }
        for r in &self.records {
            let _ = writeln!(
                out,
                "{:<16} {:<24} {}",
                r.kind.to_string(),
                r.function,
                r.detail
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for kind in [
            TransformKind::Layout,
            TransformKind::CallPromotion,
            TransformKind::LoopHoist,
        ] {
            assert_eq!(TransformKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(TransformKind::from_code(0), None);
        assert_eq!(TransformKind::from_code(200), None);
    }

    #[test]
    fn render_lists_records_and_notes() {
        let log = TransformLog {
            records: vec![TransformRecord {
                module: 0,
                function: "hot".into(),
                kind: TransformKind::Layout,
                detail: "reordered 4 blocks".into(),
            }],
            notes: vec!["frozen: weird_func (reloc on unexpected insn)".into()],
        };
        let text = log.render();
        assert!(text.contains("layout"), "{text}");
        assert!(text.contains("reordered 4 blocks"), "{text}");
        assert!(text.contains("note: frozen"), "{text}");
        assert!(!log.is_empty());
        assert!(TransformLog::default().is_empty());
    }
}
