//! Timing-model configuration.

/// How instructions leave the reorder buffer (§V-B of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitMode {
    /// x86-style: an instruction leaves the ROB only once it has executed
    /// and is the oldest. Slow instructions therefore pin the ROB head, and
    /// periodic samples land on (the successor of) the stalled instruction
    /// — the figure 8 behaviour.
    InOrder,
    /// Neoverse-N1-style early release: a dispatched instruction that cannot
    /// abort (no memory access, no branch) and is not speculative leaves the
    /// ROB even before executing. Long chains of non-abortable operations
    /// behind a slow divide drain from the ROB until back-pressure (a full
    /// issue queue) stalls dispatch, so samples land roughly `iq_size`
    /// instructions after the divide — the figure 9 behaviour.
    EarlyRelease,
}

/// A typed configuration error: which field was invalid and why.
///
/// Returned by [`CoreConfig::validate`], the override parser and
/// [`CoreConfig::resolve`] so that user-supplied grids (CLI `--set`, daemon
/// job specs, sweep config specs) surface as usage errors instead of
/// panicking inside the timing model — e.g. the `CacheConfig::sets()`
/// divide-by-zero a zero `assoc` used to hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field or override key (e.g. `l1d.line`), or `arch`.
    pub field: String,
    /// What is wrong with its value.
    pub message: String,
    /// Which step of building a configuration failed.
    pub kind: ConfigErrorKind,
}

/// The step of [`CoreConfig::resolve`] a [`ConfigError`] comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigErrorKind {
    /// No preset has the requested arch name.
    UnknownArch,
    /// The override key is unrecognised (possibly a field from a newer
    /// tool version). Decoders of persisted override lists skip these for
    /// forward compatibility while still failing closed on bad values.
    UnknownKey,
    /// The override value does not parse for its key.
    BadValue,
    /// The assembled configuration fails [`CoreConfig::validate`].
    Invalid,
}

impl ConfigError {
    fn new(field: &str, message: impl Into<String>) -> ConfigError {
        ConfigError::of(ConfigErrorKind::Invalid, field, message)
    }

    fn of(kind: ConfigErrorKind, field: &str, message: impl Into<String>) -> ConfigError {
        ConfigError {
            field: field.to_string(),
            message: message.into(),
            kind,
        }
    }

    fn unknown(field: &str) -> ConfigError {
        ConfigError::of(ConfigErrorKind::UnknownKey, field, "unknown config key")
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Upper bound on every latency and penalty, in cycles. It keeps
/// `cycle + latency` (and a resolved branch's `done + mispredict_penalty`)
/// far from `u64` overflow, and every single wait in the timing model well
/// inside its 5M-cycle deadlock window.
pub const MAX_LATENCY: u64 = 1_000_000;

/// Checks a latency against [`MAX_LATENCY`] and, when `nonzero`, against 0.
fn check_latency(field: &str, value: u64, nonzero: bool) -> Result<(), ConfigError> {
    if nonzero && value == 0 {
        return Err(ConfigError::new(field, "must be non-zero"));
    }
    if value > MAX_LATENCY {
        return Err(ConfigError::new(
            field,
            format!("must be at most {MAX_LATENCY} cycles, got {value}"),
        ));
    }
    Ok(())
}

/// One cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u64,
    /// Associativity (ways).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Hit latency in cycles, measured from issue.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets. Degenerate geometries (zero line/assoc, which
    /// [`CacheConfig::validate`] rejects anyway) clamp to one set rather
    /// than dividing by zero.
    pub fn sets(&self) -> usize {
        let set_bytes = (self.line * self.assoc as u64).max(1);
        (self.size / set_bytes).max(1) as usize
    }

    /// Checks the geometry this level needs to index correctly: non-zero
    /// size/assoc/line and a power-of-two line (set indexing is a shift,
    /// so a non-power-of-two line silently mis-indexes).
    pub fn validate(&self, level: &str) -> Result<(), ConfigError> {
        let field = |suffix: &str| format!("{level}.{suffix}");
        if self.size == 0 {
            return Err(ConfigError::new(&field("size"), "must be non-zero"));
        }
        if self.assoc == 0 {
            return Err(ConfigError::new(&field("assoc"), "must be non-zero"));
        }
        if self.line == 0 {
            return Err(ConfigError::new(&field("line"), "must be non-zero"));
        }
        if !self.line.is_power_of_two() {
            return Err(ConfigError::new(
                &field("line"),
                format!("must be a power of two, got {}", self.line),
            ));
        }
        if self.size < self.line.saturating_mul(self.assoc as u64) {
            return Err(ConfigError::new(
                &field("size"),
                format!(
                    "smaller than one set ({} B line x {} ways)",
                    self.line, self.assoc
                ),
            ));
        }
        check_latency(&field("latency"), self.latency, true)
    }
}

/// The three-level data hierarchy plus an instruction cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemHierConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
}

/// Branch-predictor sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BpredConfig {
    /// log2 of the gshare pattern-history table size.
    pub pht_bits: u32,
    /// Entries in the branch target buffer (indirect-target prediction).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
}

/// Full core configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions dispatched (renamed) per cycle.
    pub dispatch_width: u32,
    /// Instructions issued to functional units per cycle.
    pub issue_width: u32,
    /// Instructions committed (released from the ROB) per cycle. The paper's
    /// evaluation machine commits 4 per cycle, producing the "commit group"
    /// sampling pattern of figure 8.
    pub commit_width: u32,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Issue-queue entries. In [`CommitMode::EarlyRelease`] this bounds how
    /// far past an unexecuted instruction the ROB can drain (figure 9's "48
    /// instructions").
    pub iq_size: usize,
    /// Cycles between fetching an instruction and it being dispatchable.
    pub frontend_latency: u64,
    /// Extra cycles of fetch stall after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Commit/release policy.
    pub commit_mode: CommitMode,
    /// Simple-integer ALUs (latency 1, pipelined).
    pub int_alu_units: u32,
    /// Integer multipliers (pipelined).
    pub int_mul_units: u32,
    /// Integer dividers (unpipelined).
    pub int_div_units: u32,
    /// FP add/mul/misc units (pipelined).
    pub fp_units: u32,
    /// FP divide/sqrt units (unpipelined).
    pub fp_div_units: u32,
    /// Load ports.
    pub load_ports: u32,
    /// Store ports.
    pub store_ports: u32,
    /// Miss-status-holding registers (L1 fill buffers): maximum concurrent
    /// outstanding misses. This bounds memory-level parallelism; when full,
    /// further misses cannot issue — the mechanism that makes a stream of
    /// cache-missing stores stall the ROB head (figure 8).
    pub mshrs: u32,
    /// Integer multiply latency.
    pub int_mul_latency: u64,
    /// Integer divide latency (unpipelined).
    pub int_div_latency: u64,
    /// FP add/sub/mul/cmp/cvt latency.
    pub fp_latency: u64,
    /// FP divide latency (unpipelined).
    pub fp_div_latency: u64,
    /// FP square-root latency (unpipelined).
    pub fp_sqrt_latency: u64,
    /// Syscall service latency (serializing).
    pub syscall_latency: u64,
    /// Memory hierarchy.
    pub mem: MemHierConfig,
    /// Branch predictor.
    pub bpred: BpredConfig,
}

/// Architecture names accepted by [`CoreConfig::by_name`] — the single
/// naming source shared by the CLI `--arch` flag, daemon job specs,
/// checkpoint resume and sweep config specs.
pub const ARCH_NAMES: &[&str] = &["xeon", "neoverse", "tiny"];

fn parse_uint<T: std::str::FromStr>(field: &str, value: &str) -> Result<T, ConfigError> {
    value.parse().map_err(|_| {
        ConfigError::of(
            ConfigErrorKind::BadValue,
            field,
            format!("expected an unsigned integer, got `{value}`"),
        )
    })
}

fn parse_commit_mode(value: &str) -> Result<CommitMode, ConfigError> {
    match value {
        "in_order" | "inorder" => Ok(CommitMode::InOrder),
        "early_release" | "early" => Ok(CommitMode::EarlyRelease),
        other => Err(ConfigError::of(
            ConfigErrorKind::BadValue,
            "commit_mode",
            format!("expected `in_order` or `early_release`, got `{other}`"),
        )),
    }
}

fn commit_mode_name(mode: CommitMode) -> &'static str {
    match mode {
        CommitMode::InOrder => "in_order",
        CommitMode::EarlyRelease => "early_release",
    }
}

impl CoreConfig {
    /// A Xeon-W-2195-like configuration: 4-wide, in-order ROB release,
    /// 1 MiB L2 per core, large shared L3 — the paper's evaluation machine.
    pub fn xeon_like() -> CoreConfig {
        CoreConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 224,
            iq_size: 97,
            frontend_latency: 5,
            mispredict_penalty: 14,
            commit_mode: CommitMode::InOrder,
            int_alu_units: 4,
            int_mul_units: 1,
            int_div_units: 1,
            fp_units: 2,
            fp_div_units: 1,
            load_ports: 2,
            store_ports: 1,
            mshrs: 10,
            int_mul_latency: 3,
            int_div_latency: 36,
            fp_latency: 4,
            fp_div_latency: 18,
            fp_sqrt_latency: 20,
            syscall_latency: 40,
            mem: MemHierConfig {
                l1i: CacheConfig {
                    size: 32 * 1024,
                    assoc: 8,
                    line: 64,
                    latency: 8,
                },
                l1d: CacheConfig {
                    size: 32 * 1024,
                    assoc: 8,
                    line: 64,
                    latency: 4,
                },
                l2: CacheConfig {
                    size: 1024 * 1024,
                    assoc: 16,
                    line: 64,
                    latency: 14,
                },
                l3: CacheConfig {
                    size: 8 * 1024 * 1024,
                    assoc: 11,
                    line: 64,
                    latency: 44,
                },
                mem_latency: 230,
            },
            bpred: BpredConfig {
                pht_bits: 14,
                btb_entries: 4096,
                ras_depth: 16,
            },
        }
    }

    /// A Neoverse-N1-like configuration: early ROB release with a 48-entry
    /// window, reproducing the paper's AArch64 sampling anomaly (figure 9).
    pub fn neoverse_like() -> CoreConfig {
        let mut cfg = CoreConfig::xeon_like();
        cfg.commit_mode = CommitMode::EarlyRelease;
        cfg.rob_size = 128;
        cfg.iq_size = 48;
        cfg.int_div_latency = 24;
        cfg.mispredict_penalty = 11;
        cfg
    }

    /// A deliberately small configuration for fast unit tests.
    pub fn tiny() -> CoreConfig {
        let mut cfg = CoreConfig::xeon_like();
        cfg.rob_size = 32;
        cfg.iq_size = 16;
        cfg.mem.l1d.size = 4 * 1024;
        cfg.mem.l2.size = 16 * 1024;
        cfg.mem.l3.size = 64 * 1024;
        cfg
    }

    /// Looks up a preset by its canonical name (see [`ARCH_NAMES`]).
    pub fn by_name(name: &str) -> Option<CoreConfig> {
        match name {
            "xeon" => Some(CoreConfig::xeon_like()),
            "neoverse" => Some(CoreConfig::neoverse_like()),
            "tiny" => Some(CoreConfig::tiny()),
            _ => None,
        }
    }

    /// The preset named `arch` with `overrides` applied in order, then
    /// validated: the one way the CLI, the daemon, sweep specs and
    /// checkpoint resume turn a stored or typed `(arch, overrides)` pair
    /// into a core model.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] whose `kind` names the failing step: an unknown
    /// arch, an unknown override key, an unparsable value, or a result
    /// that fails [`CoreConfig::validate`].
    pub fn resolve(arch: &str, overrides: &[(String, String)]) -> Result<CoreConfig, ConfigError> {
        let mut core = CoreConfig::by_name(arch).ok_or_else(|| {
            ConfigError::of(
                ConfigErrorKind::UnknownArch,
                "arch",
                format!("unknown arch `{arch}`; one of: {}", ARCH_NAMES.join(", ")),
            )
        })?;
        for (key, value) in overrides {
            core.apply_override(key, value)?;
        }
        core.validate()?;
        Ok(core)
    }

    /// Checks every field a user-supplied grid can break: pipeline widths,
    /// window sizes, unit/port counts and execution latencies must be
    /// non-zero, every latency and penalty at most [`MAX_LATENCY`], and
    /// each cache level must have an indexable geometry. The first invalid
    /// field wins.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let nonzero_u32 = |field: &str, v: u32| {
            if v == 0 {
                Err(ConfigError::new(field, "must be non-zero"))
            } else {
                Ok(())
            }
        };
        nonzero_u32("fetch_width", self.fetch_width)?;
        nonzero_u32("dispatch_width", self.dispatch_width)?;
        nonzero_u32("issue_width", self.issue_width)?;
        nonzero_u32("commit_width", self.commit_width)?;
        if self.rob_size == 0 {
            return Err(ConfigError::new("rob_size", "must be non-zero"));
        }
        if self.iq_size == 0 {
            return Err(ConfigError::new("iq_size", "must be non-zero"));
        }
        check_latency("frontend_latency", self.frontend_latency, false)?;
        check_latency("mispredict_penalty", self.mispredict_penalty, false)?;
        nonzero_u32("int_alu_units", self.int_alu_units)?;
        nonzero_u32("int_mul_units", self.int_mul_units)?;
        nonzero_u32("int_div_units", self.int_div_units)?;
        nonzero_u32("fp_units", self.fp_units)?;
        nonzero_u32("fp_div_units", self.fp_div_units)?;
        nonzero_u32("load_ports", self.load_ports)?;
        nonzero_u32("store_ports", self.store_ports)?;
        nonzero_u32("mshrs", self.mshrs)?;
        check_latency("int_mul_latency", self.int_mul_latency, true)?;
        check_latency("int_div_latency", self.int_div_latency, true)?;
        check_latency("fp_latency", self.fp_latency, true)?;
        check_latency("fp_div_latency", self.fp_div_latency, true)?;
        check_latency("fp_sqrt_latency", self.fp_sqrt_latency, true)?;
        check_latency("syscall_latency", self.syscall_latency, false)?;
        self.mem.l1i.validate("l1i")?;
        self.mem.l1d.validate("l1d")?;
        self.mem.l2.validate("l2")?;
        self.mem.l3.validate("l3")?;
        check_latency("mem_latency", self.mem.mem_latency, true)?;
        if self.bpred.pht_bits == 0 || self.bpred.pht_bits > 30 {
            return Err(ConfigError::new(
                "pht_bits",
                format!("must be in 1..=30, got {}", self.bpred.pht_bits),
            ));
        }
        if self.bpred.btb_entries == 0 {
            return Err(ConfigError::new("btb_entries", "must be non-zero"));
        }
        if self.bpred.ras_depth == 0 {
            return Err(ConfigError::new("ras_depth", "must be non-zero"));
        }
        Ok(())
    }

    /// Sets one field by its override key (the names emitted by
    /// [`CoreConfig::to_pairs`]). Cache fields are dotted (`l1d.size`);
    /// `commit_mode` accepts `in_order`/`inorder` and
    /// `early_release`/`early`. Unknown keys and unparsable values return a
    /// typed error; the value is **not** re-validated here — call
    /// [`CoreConfig::validate`] once all overrides are applied.
    pub fn apply_override(&mut self, key: &str, value: &str) -> Result<(), ConfigError> {
        let key = key.trim();
        let value = value.trim();
        match key {
            "fetch_width" => self.fetch_width = parse_uint(key, value)?,
            "dispatch_width" => self.dispatch_width = parse_uint(key, value)?,
            "issue_width" => self.issue_width = parse_uint(key, value)?,
            "commit_width" => self.commit_width = parse_uint(key, value)?,
            "rob_size" => self.rob_size = parse_uint(key, value)?,
            "iq_size" => self.iq_size = parse_uint(key, value)?,
            "frontend_latency" => self.frontend_latency = parse_uint(key, value)?,
            "mispredict_penalty" => self.mispredict_penalty = parse_uint(key, value)?,
            "commit_mode" => self.commit_mode = parse_commit_mode(value)?,
            "int_alu_units" => self.int_alu_units = parse_uint(key, value)?,
            "int_mul_units" => self.int_mul_units = parse_uint(key, value)?,
            "int_div_units" => self.int_div_units = parse_uint(key, value)?,
            "fp_units" => self.fp_units = parse_uint(key, value)?,
            "fp_div_units" => self.fp_div_units = parse_uint(key, value)?,
            "load_ports" => self.load_ports = parse_uint(key, value)?,
            "store_ports" => self.store_ports = parse_uint(key, value)?,
            "mshrs" => self.mshrs = parse_uint(key, value)?,
            "int_mul_latency" => self.int_mul_latency = parse_uint(key, value)?,
            "int_div_latency" => self.int_div_latency = parse_uint(key, value)?,
            "fp_latency" => self.fp_latency = parse_uint(key, value)?,
            "fp_div_latency" => self.fp_div_latency = parse_uint(key, value)?,
            "fp_sqrt_latency" => self.fp_sqrt_latency = parse_uint(key, value)?,
            "syscall_latency" => self.syscall_latency = parse_uint(key, value)?,
            "mem_latency" => self.mem.mem_latency = parse_uint(key, value)?,
            "pht_bits" => self.bpred.pht_bits = parse_uint(key, value)?,
            "btb_entries" => self.bpred.btb_entries = parse_uint(key, value)?,
            "ras_depth" => self.bpred.ras_depth = parse_uint(key, value)?,
            _ => {
                let (level, field) = key
                    .split_once('.')
                    .ok_or_else(|| ConfigError::unknown(key))?;
                let cache = match level {
                    "l1i" => &mut self.mem.l1i,
                    "l1d" => &mut self.mem.l1d,
                    "l2" => &mut self.mem.l2,
                    "l3" => &mut self.mem.l3,
                    _ => return Err(ConfigError::unknown(key)),
                };
                match field {
                    "size" => cache.size = parse_uint(key, value)?,
                    "assoc" => cache.assoc = parse_uint(key, value)?,
                    "line" => cache.line = parse_uint(key, value)?,
                    "latency" => cache.latency = parse_uint(key, value)?,
                    _ => return Err(ConfigError::unknown(key)),
                }
            }
        }
        Ok(())
    }

    /// Splits a `key=value` override spec (as passed to `--set`) into its
    /// halves, trimming whitespace.
    pub fn parse_set(spec: &str) -> Result<(String, String), ConfigError> {
        match spec.split_once('=') {
            Some((k, v)) if !k.trim().is_empty() && !v.trim().is_empty() => {
                Ok((k.trim().to_string(), v.trim().to_string()))
            }
            _ => Err(ConfigError::of(
                ConfigErrorKind::BadValue,
                spec,
                "expected key=value",
            )),
        }
    }

    /// Serialises the full configuration as `(key, value)` pairs in a fixed
    /// order, exhaustively covering every field [`CoreConfig::apply_override`]
    /// accepts: applying the pairs of any config onto any base reconstructs
    /// it exactly. This is the wire form of the `UCFG` store section.
    pub fn to_pairs(&self) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut p = |k: &str, v: String| pairs.push((k.to_string(), v));
        p("fetch_width", self.fetch_width.to_string());
        p("dispatch_width", self.dispatch_width.to_string());
        p("issue_width", self.issue_width.to_string());
        p("commit_width", self.commit_width.to_string());
        p("rob_size", self.rob_size.to_string());
        p("iq_size", self.iq_size.to_string());
        p("frontend_latency", self.frontend_latency.to_string());
        p("mispredict_penalty", self.mispredict_penalty.to_string());
        p("commit_mode", commit_mode_name(self.commit_mode).to_string());
        p("int_alu_units", self.int_alu_units.to_string());
        p("int_mul_units", self.int_mul_units.to_string());
        p("int_div_units", self.int_div_units.to_string());
        p("fp_units", self.fp_units.to_string());
        p("fp_div_units", self.fp_div_units.to_string());
        p("load_ports", self.load_ports.to_string());
        p("store_ports", self.store_ports.to_string());
        p("mshrs", self.mshrs.to_string());
        p("int_mul_latency", self.int_mul_latency.to_string());
        p("int_div_latency", self.int_div_latency.to_string());
        p("fp_latency", self.fp_latency.to_string());
        p("fp_div_latency", self.fp_div_latency.to_string());
        p("fp_sqrt_latency", self.fp_sqrt_latency.to_string());
        p("syscall_latency", self.syscall_latency.to_string());
        for (name, c) in [
            ("l1i", &self.mem.l1i),
            ("l1d", &self.mem.l1d),
            ("l2", &self.mem.l2),
            ("l3", &self.mem.l3),
        ] {
            p(&format!("{name}.size"), c.size.to_string());
            p(&format!("{name}.assoc"), c.assoc.to_string());
            p(&format!("{name}.line"), c.line.to_string());
            p(&format!("{name}.latency"), c.latency.to_string());
        }
        p("mem_latency", self.mem.mem_latency.to_string());
        p("pht_bits", self.bpred.pht_bits.to_string());
        p("btb_entries", self.bpred.btb_entries.to_string());
        p("ras_depth", self.bpred.ras_depth.to_string());
        pairs
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::xeon_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_counts() {
        let cfg = CoreConfig::xeon_like();
        assert_eq!(cfg.mem.l1d.sets(), 64);
        assert_eq!(cfg.mem.l2.sets(), 1024);
    }

    #[test]
    fn presets_differ() {
        let x = CoreConfig::xeon_like();
        let n = CoreConfig::neoverse_like();
        assert_eq!(x.commit_mode, CommitMode::InOrder);
        assert_eq!(n.commit_mode, CommitMode::EarlyRelease);
        assert_eq!(n.iq_size, 48);
    }

    #[test]
    fn sets_never_divides_by_zero() {
        // Degenerate geometries used to panic on `size / (line * assoc)`.
        for (assoc, line) in [(0usize, 64u64), (8, 0), (0, 0)] {
            let c = CacheConfig {
                size: 32 * 1024,
                assoc,
                line,
                latency: 4,
            };
            assert!(c.sets() >= 1);
        }
    }

    #[test]
    fn validate_accepts_presets() {
        for name in ARCH_NAMES {
            CoreConfig::by_name(name).unwrap().validate().unwrap();
        }
        let mut capped = CoreConfig::tiny();
        capped.fp_latency = MAX_LATENCY;
        capped.mispredict_penalty = MAX_LATENCY;
        capped.mem.mem_latency = MAX_LATENCY;
        capped.validate().unwrap();
    }

    fn expect_invalid(mutate: impl FnOnce(&mut CoreConfig), field: &str) {
        let mut cfg = CoreConfig::xeon_like();
        mutate(&mut cfg);
        let err = cfg.validate().expect_err(field);
        assert_eq!(err.field, field, "{err}");
    }

    #[test]
    fn validate_rejects_each_invalid_field() {
        expect_invalid(|c| c.fetch_width = 0, "fetch_width");
        expect_invalid(|c| c.dispatch_width = 0, "dispatch_width");
        expect_invalid(|c| c.issue_width = 0, "issue_width");
        expect_invalid(|c| c.commit_width = 0, "commit_width");
        expect_invalid(|c| c.rob_size = 0, "rob_size");
        expect_invalid(|c| c.iq_size = 0, "iq_size");
        expect_invalid(|c| c.int_alu_units = 0, "int_alu_units");
        expect_invalid(|c| c.int_div_units = 0, "int_div_units");
        expect_invalid(|c| c.load_ports = 0, "load_ports");
        expect_invalid(|c| c.store_ports = 0, "store_ports");
        expect_invalid(|c| c.mshrs = 0, "mshrs");
        expect_invalid(|c| c.int_div_latency = 0, "int_div_latency");
        expect_invalid(|c| c.mem.l1d.assoc = 0, "l1d.assoc");
        expect_invalid(|c| c.mem.l1d.line = 0, "l1d.line");
        expect_invalid(|c| c.mem.l2.line = 48, "l2.line");
        expect_invalid(|c| c.mem.l3.size = 0, "l3.size");
        expect_invalid(|c| c.mem.l1i.latency = 0, "l1i.latency");
        expect_invalid(|c| c.mem.mem_latency = 0, "mem_latency");
        expect_invalid(|c| c.frontend_latency = MAX_LATENCY + 1, "frontend_latency");
        expect_invalid(|c| c.mispredict_penalty = u64::MAX, "mispredict_penalty");
        expect_invalid(|c| c.int_mul_latency = MAX_LATENCY + 1, "int_mul_latency");
        expect_invalid(|c| c.int_div_latency = MAX_LATENCY + 1, "int_div_latency");
        expect_invalid(|c| c.fp_latency = u64::MAX, "fp_latency");
        expect_invalid(|c| c.fp_div_latency = MAX_LATENCY + 1, "fp_div_latency");
        expect_invalid(|c| c.fp_sqrt_latency = MAX_LATENCY + 1, "fp_sqrt_latency");
        expect_invalid(|c| c.syscall_latency = u64::MAX, "syscall_latency");
        expect_invalid(|c| c.mem.l1d.latency = MAX_LATENCY + 1, "l1d.latency");
        expect_invalid(|c| c.mem.l3.latency = u64::MAX, "l3.latency");
        expect_invalid(|c| c.mem.mem_latency = MAX_LATENCY + 1, "mem_latency");
        expect_invalid(|c| c.bpred.pht_bits = 0, "pht_bits");
        expect_invalid(|c| c.bpred.btb_entries = 0, "btb_entries");
        expect_invalid(|c| c.bpred.ras_depth = 0, "ras_depth");
    }

    #[test]
    fn by_name_covers_arch_names() {
        for name in ARCH_NAMES {
            assert!(CoreConfig::by_name(name).is_some(), "{name}");
        }
        assert!(CoreConfig::by_name("wiser-ooo").is_none());
        assert!(CoreConfig::by_name("").is_none());
    }

    #[test]
    fn pairs_round_trip_onto_any_base() {
        // Applying the pairs of one preset onto another reconstructs the
        // source exactly — the property the UCFG store section relies on.
        for name in ARCH_NAMES {
            let source = CoreConfig::by_name(name).unwrap();
            let mut rebuilt = CoreConfig::neoverse_like();
            for (k, v) in source.to_pairs() {
                rebuilt.apply_override(&k, &v).unwrap();
            }
            assert_eq!(rebuilt, source, "round trip for {name}");
        }
    }

    #[test]
    fn overrides_parse_and_reject() {
        let mut cfg = CoreConfig::xeon_like();
        cfg.apply_override("rob_size", "128").unwrap();
        cfg.apply_override("commit_mode", "early").unwrap();
        cfg.apply_override("l1d.size", "16384").unwrap();
        assert_eq!(cfg.rob_size, 128);
        assert_eq!(cfg.commit_mode, CommitMode::EarlyRelease);
        assert_eq!(cfg.mem.l1d.size, 16384);

        let kind = |key: &str, value: &str| {
            let mut scratch = cfg;
            scratch.apply_override(key, value).unwrap_err().kind
        };
        assert_eq!(kind("warp_drive", "9"), ConfigErrorKind::UnknownKey);
        assert_eq!(kind("l4.size", "1"), ConfigErrorKind::UnknownKey);
        assert_eq!(kind("l1d.colour", "1"), ConfigErrorKind::UnknownKey);
        assert_eq!(kind("rob_size", "lots"), ConfigErrorKind::BadValue);
        assert_eq!(kind("commit_mode", "sideways"), ConfigErrorKind::BadValue);

        assert_eq!(
            CoreConfig::parse_set("rob_size=64").unwrap(),
            ("rob_size".to_string(), "64".to_string())
        );
        assert!(CoreConfig::parse_set("rob_size").is_err());
        assert!(CoreConfig::parse_set("=64").is_err());
    }

    #[test]
    fn resolve_applies_overrides_then_validates() {
        // Every preset resolves from its own pairs back to itself.
        for name in ARCH_NAMES {
            let preset = CoreConfig::by_name(name).unwrap();
            assert_eq!(CoreConfig::resolve(name, &preset.to_pairs()), Ok(preset), "{name}");
        }
        let pair = |k: &str, v: &str| vec![(k.to_string(), v.to_string())];
        let tuned = CoreConfig::resolve("neoverse", &pair("rob_size", "64")).unwrap();
        assert_eq!(tuned.rob_size, 64);
        assert_eq!(tuned.commit_mode, CommitMode::EarlyRelease);

        let kind = |arch: &str, overrides: &[(String, String)]| {
            CoreConfig::resolve(arch, overrides).unwrap_err().kind
        };
        assert_eq!(kind("vax", &[]), ConfigErrorKind::UnknownArch);
        assert_eq!(kind("xeon", &pair("warp_drive", "9")), ConfigErrorKind::UnknownKey);
        assert_eq!(kind("xeon", &pair("rob_size", "lots")), ConfigErrorKind::BadValue);
        assert_eq!(kind("xeon", &pair("rob_size", "0")), ConfigErrorKind::Invalid);
    }
}
