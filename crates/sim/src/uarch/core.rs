//! Trace-driven out-of-order superscalar core.
//!
//! The functional interpreter supplies the retired-instruction stream; this
//! model replays it through a fetch/dispatch/issue/commit pipeline with a
//! reorder buffer, issue queue, functional units, branch predictor and cache
//! hierarchy, producing cycle counts and — crucially for OptiWISE — the
//! identity of the **ROB-head instruction at any cycle**, which is what
//! perf-style periodic sampling actually observes (§II-A, figures 2, 8, 9).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use wiser_isa::{AluOp, FpOp, Insn};

use crate::trace::{ExecRecord, FlowEvent};
use crate::uarch::bpred::{BpredStats, BranchPredictor};
use crate::uarch::cache::{CacheStats, Hierarchy};
use crate::uarch::config::{CommitMode, CoreConfig};

/// No register.
const NO_REG: u8 = u8::MAX;
/// No producer.
const NO_PRODUCER: u64 = u64::MAX;

/// What a periodic interrupt would observe at one cycle.
#[derive(Clone, Copy, Debug)]
pub struct ProbePoint<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// Sequence number and address of the oldest instruction still in the
    /// ROB — the instruction perf's interrupt attributes the sample to.
    pub rob_head: Option<(u64, u64)>,
    /// Next instruction waiting to enter the ROB (used when the ROB is
    /// empty, e.g. after early release drained it).
    pub pending_addr: Option<u64>,
    /// Address of the most recently committed instruction.
    pub last_commit_addr: Option<u64>,
    /// Instructions committed (or early-released) during this cycle. A
    /// pending interrupt is serviced at a commit boundary, which is what
    /// produces perf's one-instruction "skid" (figure 8).
    pub commits_this_cycle: u32,
    /// Address of the first instruction committed this cycle, if any. An
    /// interrupt that was already pending when the cycle began is taken at
    /// this retirement boundary (instruction-granular, like real hardware).
    pub first_commit_addr: Option<u64>,
    /// The architectural next instruction after the first commit of this
    /// cycle — where the program counter points when such an interrupt is
    /// taken, i.e. the skid target one past a long-stalled instruction.
    pub first_commit_next_addr: Option<u64>,
    /// Architectural call stack as of the committed state: return addresses,
    /// outermost first.
    pub arch_stack: &'a [u64],
    /// Instructions committed (plus early-released) so far in the whole
    /// run. Lets a prober mark progress — e.g. checkpoint boundaries —
    /// without access to the interpreter.
    pub retired: u64,
}

/// A consumer of per-cycle pipeline observations (the sampling profiler).
///
/// # Contract
///
/// The core calls [`Prober::probe`] at **every** cycle `c` with
/// `c >= next_probe_cycle()`, reading `next_probe_cycle()` afresh after each
/// cycle. It may skip (not simulate) earlier cycles, but only cycles in
/// which no pipeline state changes: nothing commits, issues, dispatches or
/// fetches. So a prober observes exactly the cycles it asks for, and the
/// pipeline it observes is the one a cycle-by-cycle simulation would show.
/// A prober that returns 0 (or any past cycle) is called every cycle and
/// forbids skipping while it does — this is how a pending
/// `PerfSampler` interrupt keeps per-cycle stepping until the next commit
/// boundary, which preserves skid and commit-group attribution.
pub trait Prober {
    /// The next cycle at which [`Prober::probe`] should be called;
    /// `u64::MAX` disables probing.
    fn next_probe_cycle(&self) -> u64;
    /// Observes the pipeline at one cycle.
    fn probe(&mut self, point: ProbePoint<'_>);
}

/// A [`Prober`] that never fires.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbes;

impl Prober for NoProbes {
    fn next_probe_cycle(&self) -> u64 {
        u64::MAX
    }
    fn probe(&mut self, _point: ProbePoint<'_>) {}
}

/// Aggregate statistics of one timed run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions committed (plus early-released).
    pub retired: u64,
    /// Branch predictor statistics.
    pub bpred: BpredStats,
    /// L1 instruction cache.
    pub l1i: CacheStats,
    /// L1 data cache.
    pub l1d: CacheStats,
    /// L2 cache.
    pub l2: CacheStats,
    /// L3 cache.
    pub l3: CacheStats,
    /// Cycles on which dispatch stalled because the ROB was full.
    pub rob_full_stalls: u64,
    /// Cycles on which dispatch stalled because the issue queue was full.
    pub iq_full_stalls: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired as f64
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum FuClass {
    IntAlu,
    IntMul,
    IntDiv,
    Fp,
    FpDiv,
    Load,
    Store,
    Syscall,
}

impl FuClass {
    /// Every class, indexed by its discriminant.
    const ALL: [FuClass; 8] = [
        FuClass::IntAlu,
        FuClass::IntMul,
        FuClass::IntDiv,
        FuClass::Fp,
        FuClass::FpDiv,
        FuClass::Load,
        FuClass::Store,
        FuClass::Syscall,
    ];
}

struct Uses {
    srcs: [u8; 4],
    dest: u8,
}

/// Architectural register uses of an instruction, encoded as `0..16` for
/// GPRs and `16..24` for FPRs. The stack pointer is deliberately excluded
/// from push/pop/call/ret dependences (stack-engine renaming, as on real
/// x86/Arm cores) so stack traffic does not serialize artificially.
fn uses_of(insn: &Insn) -> Uses {
    let g = |r: wiser_isa::Gpr| r.raw();
    let f = |r: wiser_isa::Fpr| r.raw() + 16;
    let (srcs, dest): ([u8; 4], u8) = match *insn {
        Insn::Nop | Insn::Jmp { .. } | Insn::JmpGot { .. } | Insn::Call { .. } | Insn::Ret => {
            ([NO_REG; 4], NO_REG)
        }
        Insn::Alu { rd, rs1, rs2, .. } => ([g(rs1), g(rs2), NO_REG, NO_REG], g(rd)),
        Insn::AluImm { rd, rs1, .. } => ([g(rs1), NO_REG, NO_REG, NO_REG], g(rd)),
        Insn::Li { rd, .. } => ([NO_REG; 4], g(rd)),
        Insn::Lui { rd, .. } => ([g(rd), NO_REG, NO_REG, NO_REG], g(rd)),
        Insn::Mov { rd, rs } => ([g(rs), NO_REG, NO_REG, NO_REG], g(rd)),
        Insn::Cmov { rd, rs, rc, .. } => ([g(rd), g(rs), g(rc), NO_REG], g(rd)),
        Insn::SetCond { rd, rs1, rs2, .. } => ([g(rs1), g(rs2), NO_REG, NO_REG], g(rd)),
        Insn::Ld { rd, base, .. } => ([g(base), NO_REG, NO_REG, NO_REG], g(rd)),
        Insn::St { rs, base, .. } => ([g(rs), g(base), NO_REG, NO_REG], NO_REG),
        Insn::Ldx { rd, base, index, .. } => ([g(base), g(index), NO_REG, NO_REG], g(rd)),
        Insn::Stx {
            rs, base, index, ..
        } => ([g(rs), g(base), g(index), NO_REG], NO_REG),
        Insn::Prefetch { base, .. } => ([g(base), NO_REG, NO_REG, NO_REG], NO_REG),
        Insn::Push { rs } => ([g(rs), NO_REG, NO_REG, NO_REG], NO_REG),
        Insn::Pop { rd } => ([NO_REG; 4], g(rd)),
        Insn::B { rs1, rs2, .. } => ([g(rs1), g(rs2), NO_REG, NO_REG], NO_REG),
        Insn::Jr { rs } | Insn::Callr { rs } => ([g(rs), NO_REG, NO_REG, NO_REG], NO_REG),
        Insn::Syscall => ([0, 1, 2, 3], 0),
        Insn::Fp { fd, fs1, fs2, .. } => ([f(fs1), f(fs2), NO_REG, NO_REG], f(fd)),
        Insn::Fsqrt { fd, fs } | Insn::Fneg { fd, fs } | Insn::Fmov { fd, fs } => {
            ([f(fs), NO_REG, NO_REG, NO_REG], f(fd))
        }
        Insn::Fcmp { rd, fs1, fs2, .. } => ([f(fs1), f(fs2), NO_REG, NO_REG], g(rd)),
        Insn::Fcvtif { fd, rs } => ([g(rs), NO_REG, NO_REG, NO_REG], f(fd)),
        Insn::Fcvtfi { rd, fs } => ([f(fs), NO_REG, NO_REG, NO_REG], g(rd)),
        Insn::Fld { fd, base, .. } => ([g(base), NO_REG, NO_REG, NO_REG], f(fd)),
        Insn::Fst { fs, base, .. } => ([f(fs), g(base), NO_REG, NO_REG], NO_REG),
        Insn::Fldx {
            fd, base, index, ..
        } => ([g(base), g(index), NO_REG, NO_REG], f(fd)),
        Insn::Fstx {
            fs, base, index, ..
        } => ([f(fs), g(base), g(index), NO_REG], NO_REG),
    };
    Uses { srcs, dest }
}

fn fu_of(insn: &Insn, cfg: &CoreConfig) -> (FuClass, u64) {
    match insn {
        Insn::Alu { op, .. } | Insn::AluImm { op, .. } => match op {
            AluOp::Mul => (FuClass::IntMul, cfg.int_mul_latency),
            op if op.is_divide() => (FuClass::IntDiv, cfg.int_div_latency),
            _ => (FuClass::IntAlu, 1),
        },
        Insn::Nop
        | Insn::Li { .. }
        | Insn::Lui { .. }
        | Insn::Mov { .. }
        | Insn::Cmov { .. }
        | Insn::SetCond { .. }
        | Insn::Jmp { .. }
        | Insn::B { .. }
        | Insn::Jr { .. }
        | Insn::Callr { .. } => (FuClass::IntAlu, 1),
        Insn::Ld { .. }
        | Insn::Ldx { .. }
        | Insn::Fld { .. }
        | Insn::Fldx { .. }
        | Insn::Pop { .. }
        | Insn::Ret
        | Insn::JmpGot { .. } => (FuClass::Load, 0),
        Insn::St { .. }
        | Insn::Stx { .. }
        | Insn::Fst { .. }
        | Insn::Fstx { .. }
        | Insn::Push { .. }
        | Insn::Call { .. } => (FuClass::Store, 0),
        Insn::Prefetch { .. } => (FuClass::Load, 1),
        Insn::Syscall => (FuClass::Syscall, cfg.syscall_latency),
        Insn::Fp { op, .. } => {
            if op == &FpOp::Fdiv {
                (FuClass::FpDiv, cfg.fp_div_latency)
            } else {
                (FuClass::Fp, cfg.fp_latency)
            }
        }
        Insn::Fsqrt { .. } => (FuClass::FpDiv, cfg.fp_sqrt_latency),
        Insn::Fneg { .. } | Insn::Fmov { .. } | Insn::Fcmp { .. } => (FuClass::Fp, cfg.fp_latency),
        Insn::Fcvtif { .. } | Insn::Fcvtfi { .. } => (FuClass::Fp, cfg.fp_latency),
    }
}

/// `done_cycle` of an instruction that has not issued.
const NOT_DONE: u64 = u64::MAX;
/// End of a consumer list.
const NO_LINK: u64 = u64::MAX;
/// Producers an instruction can wait on: four register sources plus the
/// older store to the same block.
const DEPS: usize = 5;
/// Cycles without progress after which the model is declared deadlocked.
const DEADLOCK_CYCLES: u64 = 5_000_000;

/// A consumer-list link: the consumer's seq and which of its `deps` slots
/// holds the next link.
fn link(seq: u64, slot: usize) -> u64 {
    seq << 3 | slot as u64
}

/// One fetched instruction, from fetch until it has both left the ROB and
/// executed. The slab holds seqs `base_seq..next_seq` contiguously: seqs
/// below `rob_head` have committed (or been released), `rob_head..dispatched`
/// are in the ROB and `dispatched..next_seq` wait in the fetch queue.
struct InFlight {
    addr: u64,
    mem_addr: Option<u64>,
    flow: Option<FlowEvent>,
    base_latency: u64,
    /// Cycle its result is available; [`NOT_DONE`] until it issues. Set
    /// once, never changed.
    done_cycle: u64,
    /// In the fetch queue: the first cycle it may dispatch. After dispatch:
    /// the first cycle all its producers' results are available.
    ready_at: u64,
    /// Until dispatch: producer seqs ([`NO_PRODUCER`] when unused). After
    /// dispatch, slot `k` is the next link of the consumer list this
    /// instruction joined through producer `k` ([`NO_LINK`] otherwise).
    deps: [u64; DEPS],
    /// Head of the list of dispatched consumers still waiting on this
    /// instruction to issue.
    consumers: u64,
    /// Producers that had not issued when it dispatched and still have not.
    waiting_on: u8,
    fu: FuClass,
    abortable: bool,
    is_prefetch: bool,
}

/// An issue candidate: its seq and functional-unit class packed so that keys
/// order by age and issue can test the class without touching the slab.
fn issue_key(seq: u64, fu: FuClass) -> u64 {
    seq << 3 | fu as u64
}

/// Inserts `key` into the age-ordered ready list.
fn insert_by_age(ready: &mut Vec<u64>, key: u64) {
    let at = ready.partition_point(|&k| k < key);
    ready.insert(at, key);
}

/// The out-of-order core. Create one per run.
pub struct OoOCore {
    cfg: CoreConfig,
    hier: Hierarchy,
    bpred: BranchPredictor,
}

impl OoOCore {
    /// Builds a core from a configuration.
    pub fn new(cfg: CoreConfig) -> OoOCore {
        OoOCore {
            hier: Hierarchy::new(&cfg.mem),
            bpred: BranchPredictor::new(&cfg.bpred),
            cfg,
        }
    }

    /// Replays a retired-instruction stream through the pipeline.
    ///
    /// `next_rec` yields records in program order and `None` at the end.
    /// `prober` is consulted every simulated cycle (cheaply) and invoked at
    /// its requested cycles — this is where the sampling profiler hooks in.
    ///
    /// The scheduler is event-driven but cycle-exact: issue considers only
    /// instructions whose producers have all produced (woken through
    /// consumer lists), and after a cycle in which nothing happened the
    /// clock jumps to the next cycle at which something can (see the
    /// [`Prober`] contract and DESIGN.md's timing-model section).
    pub fn run<F, P>(&mut self, mut next_rec: F, prober: &mut P) -> CoreStats
    where
        F: FnMut() -> Option<ExecRecord>,
        P: Prober,
    {
        let cfg = self.cfg;
        let mut stats = CoreStats::default();

        let mut slab: VecDeque<InFlight> = VecDeque::with_capacity(cfg.rob_size * 2);
        let mut base_seq: u64 = 0;
        let mut rob_head: u64 = 0;
        let mut dispatched: u64 = 0;
        let mut next_seq = 0u64;
        // Dispatched, not yet issued (issue-queue occupancy).
        let mut iq_len = 0usize;
        // Issue keys of the candidates whose operands are available, oldest
        // first.
        let mut ready: Vec<u64> = Vec::with_capacity(cfg.iq_size);
        // Woken this cycle, ready next cycle.
        let mut wake_next: Vec<u64> = Vec::with_capacity(cfg.iq_size);
        // Woken, ready at a later cycle: (ready_at, issue key).
        let mut wake_later: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut arch_stack: Vec<u64> = Vec::with_capacity(64);
        let mut last_commit_addr: Option<u64> = None;

        let mut last_writer: [u64; 24] = [NO_PRODUCER; 24];
        let mut last_store_blk: HashMap<u64, u64> = HashMap::new();

        // Non-pipelined units: busy-until cycles.
        let mut div_busy: Vec<u64> = vec![0; cfg.int_div_units as usize];
        let mut fpdiv_busy: Vec<u64> = vec![0; cfg.fp_div_units as usize];
        // Outstanding cache misses (completion cycles); bounds MLP.
        let mut mshr_busy: Vec<u64> = Vec::with_capacity(cfg.mshrs as usize);

        let mut lookahead: Option<ExecRecord> = next_rec();
        let mut fetch_stall_until: u64 = 0;
        let mut blocked_on: Option<u64> = None;
        let mut last_fetch_line: u64 = u64::MAX;

        let mut cycle: u64 = 0;
        let mut last_progress = 0u64;

        // Fetch buffer bound: fetch stops when this many instructions are
        // waiting to dispatch (decoupling queue).
        let fetch_buffer = u64::from(cfg.fetch_width) * 4;

        loop {
            // Whether anything changed this cycle; an idle cycle lets the
            // clock jump to the next event.
            let mut active = false;

            // ---- commit / early release ------------------------------------
            let mut commits = 0;
            let mut first_commit_addr = None;
            let mut first_commit_next_addr = None;
            while commits < cfg.commit_width && rob_head < dispatched {
                let e = &slab[(rob_head - base_seq) as usize];
                if e.done_cycle <= cycle {
                    if let Some(flow) = e.flow {
                        match flow {
                            FlowEvent::Call { ret_addr, .. } => arch_stack.push(ret_addr),
                            FlowEvent::Ret { .. } => {
                                arch_stack.pop();
                            }
                        }
                    }
                    let committed_addr = e.addr;
                    last_commit_addr = Some(committed_addr);
                    rob_head += 1;
                    if commits == 0 {
                        first_commit_addr = Some(committed_addr);
                        // The ROB and the fetch queue are contiguous in the
                        // slab: the next instruction in program order.
                        first_commit_next_addr = slab
                            .get((rob_head - base_seq) as usize)
                            .map(|n| n.addr)
                            .or(lookahead.map(|r| r.addr));
                    }
                } else if cfg.commit_mode == CommitMode::EarlyRelease && !e.abortable {
                    // Dispatched, cannot abort, and everything older has
                    // already left the ROB: release it before execution.
                    rob_head += 1;
                } else {
                    break;
                }
                stats.retired += 1;
                commits += 1;
                last_progress = cycle;
            }
            active |= commits > 0;

            // ---- issue -------------------------------------------------------
            for key in wake_next.drain(..) {
                insert_by_age(&mut ready, key);
            }
            while let Some(&Reverse((at, key))) = wake_later.peek() {
                if at > cycle {
                    break;
                }
                wake_later.pop();
                insert_by_age(&mut ready, key);
            }
            if !ready.is_empty() {
                mshr_busy.retain(|&done| done > cycle);
                let mut alu_used = 0u32;
                let mut mul_used = 0u32;
                let mut fp_used = 0u32;
                let mut load_used = 0u32;
                let mut store_used = 0u32;
                let mut issued_budget = cfg.issue_width;
                let mut kept = 0;
                let mut i = 0;
                while i < ready.len() && issued_budget > 0 {
                    let key = ready[i];
                    i += 1;
                    // Check functional-unit availability. Memory operations
                    // also need a free MSHR if they are about to miss.
                    let fu = FuClass::ALL[(key & 7) as usize];
                    let unit_free = match fu {
                        FuClass::IntAlu => alu_used < cfg.int_alu_units,
                        FuClass::IntMul => mul_used < cfg.int_mul_units,
                        FuClass::Fp => fp_used < cfg.fp_units,
                        FuClass::Load => load_used < cfg.load_ports,
                        FuClass::Store => store_used < cfg.store_ports,
                        FuClass::IntDiv => div_busy.iter().any(|&b| b <= cycle),
                        FuClass::FpDiv => fpdiv_busy.iter().any(|&b| b <= cycle),
                        FuClass::Syscall => true,
                    };
                    let idx = ((key >> 3) - base_seq) as usize;
                    let would_miss = unit_free
                        && matches!(fu, FuClass::Load | FuClass::Store)
                        && !slab[idx].is_prefetch
                        && slab[idx].mem_addr.is_some_and(|a| !self.hier.l1d.probe(a));
                    if !unit_free || (would_miss && mshr_busy.len() >= cfg.mshrs as usize) {
                        ready[kept] = key;
                        kept += 1;
                        continue;
                    }
                    // Issue it.
                    let e = &mut slab[idx];
                    let latency = match fu {
                        FuClass::IntAlu => {
                            alu_used += 1;
                            e.base_latency
                        }
                        FuClass::IntMul => {
                            mul_used += 1;
                            e.base_latency
                        }
                        FuClass::Fp => {
                            fp_used += 1;
                            e.base_latency
                        }
                        FuClass::Load => {
                            load_used += 1;
                            if e.is_prefetch {
                                if let Some(a) = e.mem_addr {
                                    self.hier.access_data(a);
                                }
                                1
                            } else {
                                let a = e.mem_addr.expect("load without address");
                                let lat = self.hier.access_data(a);
                                if would_miss {
                                    mshr_busy.push(cycle + lat);
                                }
                                lat
                            }
                        }
                        FuClass::Store => {
                            store_used += 1;
                            let a = e.mem_addr.expect("store without address");
                            let lat = self.hier.access_data(a);
                            if would_miss {
                                mshr_busy.push(cycle + lat);
                            }
                            lat
                        }
                        FuClass::IntDiv => {
                            let unit = div_busy
                                .iter_mut()
                                .find(|b| **b <= cycle)
                                .expect("checked free divider");
                            *unit = cycle + e.base_latency;
                            e.base_latency
                        }
                        FuClass::FpDiv => {
                            let unit = fpdiv_busy
                                .iter_mut()
                                .find(|b| **b <= cycle)
                                .expect("checked free fp divider");
                            *unit = cycle + e.base_latency;
                            e.base_latency
                        }
                        FuClass::Syscall => e.base_latency,
                    };
                    let done = cycle + latency.max(1);
                    e.done_cycle = done;
                    issued_budget -= 1;
                    iq_len -= 1;
                    // Wake the consumers: each waits for its last producer's
                    // result, and nothing woken now issues before next cycle.
                    let mut next = std::mem::replace(&mut e.consumers, NO_LINK);
                    while next != NO_LINK {
                        let (cseq, slot) = (next >> 3, (next & 7) as usize);
                        let c = &mut slab[(cseq - base_seq) as usize];
                        next = c.deps[slot];
                        c.ready_at = c.ready_at.max(done);
                        c.waiting_on -= 1;
                        if c.waiting_on == 0 {
                            let key = issue_key(cseq, c.fu);
                            if c.ready_at == cycle + 1 {
                                wake_next.push(key);
                            } else {
                                wake_later.push(Reverse((c.ready_at, key)));
                            }
                        }
                    }
                }
                if kept < i {
                    // Close the gaps the issued entries left.
                    ready.copy_within(i.., kept);
                    ready.truncate(ready.len() - (i - kept));
                    active = true;
                    last_progress = cycle;
                }
            }

            // ---- dispatch ----------------------------------------------------
            let mut rob_stall = false;
            let mut iq_stall = false;
            let mut dispatches = 0;
            while dispatches < cfg.dispatch_width && dispatched < next_seq {
                let idx = (dispatched - base_seq) as usize;
                if slab[idx].ready_at > cycle {
                    break;
                }
                if (dispatched - rob_head) as usize >= cfg.rob_size {
                    stats.rob_full_stalls += 1;
                    rob_stall = true;
                    break;
                }
                if iq_len >= cfg.iq_size {
                    stats.iq_full_stalls += 1;
                    iq_stall = true;
                    break;
                }
                // Join the consumer list of every distinct producer that has
                // not issued yet; the rest only bound the ready cycle.
                let seq = dispatched;
                let deps = slab[idx].deps;
                let mut links = [NO_LINK; DEPS];
                let mut waiting_on = 0u8;
                let mut ready_at = 0u64;
                for (slot, &p) in deps.iter().enumerate() {
                    if p == NO_PRODUCER || p < base_seq || deps[..slot].contains(&p) {
                        continue;
                    }
                    let producer = &mut slab[(p - base_seq) as usize];
                    if producer.done_cycle == NOT_DONE {
                        links[slot] = producer.consumers;
                        producer.consumers = link(seq, slot);
                        waiting_on += 1;
                    } else {
                        ready_at = ready_at.max(producer.done_cycle);
                    }
                }
                let e = &mut slab[idx];
                e.deps = links;
                e.waiting_on = waiting_on;
                e.ready_at = ready_at;
                if waiting_on == 0 {
                    let key = issue_key(seq, e.fu);
                    if ready_at <= cycle + 1 {
                        // The youngest in the queue: appending keeps age order.
                        ready.push(key);
                    } else {
                        wake_later.push(Reverse((ready_at, key)));
                    }
                }
                dispatched += 1;
                iq_len += 1;
                dispatches += 1;
                last_progress = cycle;
            }
            active |= dispatches > 0;

            // ---- fetch -------------------------------------------------------
            let mut may_fetch = cycle >= fetch_stall_until;
            if let Some(b) = blocked_on {
                if b < base_seq {
                    blocked_on = None;
                } else {
                    let d = slab[(b - base_seq) as usize].done_cycle;
                    if d != NOT_DONE && cycle >= d + cfg.mispredict_penalty {
                        blocked_on = None;
                    } else {
                        may_fetch = false;
                    }
                }
                if blocked_on.is_none() {
                    // Redirected fetch restarts at a new line.
                    last_fetch_line = u64::MAX;
                    active = true;
                }
            }
            if may_fetch && blocked_on.is_none() {
                let mut fetched = 0;
                while fetched < cfg.fetch_width && next_seq - dispatched < fetch_buffer {
                    let Some(rec) = lookahead else {
                        break;
                    };
                    // Instruction-cache access at line granularity.
                    let line = rec.addr >> 6;
                    if line != last_fetch_line {
                        let extra = self.hier.access_insn(rec.addr);
                        last_fetch_line = line;
                        active = true;
                        if extra > 0 {
                            fetch_stall_until = cycle + extra;
                            break;
                        }
                    }
                    // Consume the record.
                    lookahead = next_rec();
                    let seq = next_seq;
                    next_seq += 1;
                    debug_assert_eq!(seq, rec.seq);

                    let uses = uses_of(&rec.insn);
                    let mut deps = [NO_PRODUCER; DEPS];
                    for (slot, &r) in deps.iter_mut().zip(uses.srcs.iter()) {
                        if r != NO_REG {
                            *slot = last_writer[r as usize];
                        }
                    }
                    let (fu, base_latency) = fu_of(&rec.insn, &cfg);
                    if let Some(a) = rec.mem_addr {
                        let blk = a >> 3;
                        if rec.is_load() {
                            deps[DEPS - 1] =
                                last_store_blk.get(&blk).copied().unwrap_or(NO_PRODUCER);
                        }
                        if rec.is_store() {
                            last_store_blk.insert(blk, seq);
                        }
                    }
                    if uses.dest != NO_REG {
                        last_writer[uses.dest as usize] = seq;
                    }
                    let abortable =
                        rec.insn.is_load() || rec.insn.is_store() || rec.insn.is_cti();
                    let correct = self.bpred.process(&rec);
                    slab.push_back(InFlight {
                        addr: rec.addr,
                        mem_addr: rec.mem_addr,
                        flow: rec.flow,
                        base_latency,
                        done_cycle: NOT_DONE,
                        ready_at: cycle + cfg.frontend_latency,
                        deps,
                        consumers: NO_LINK,
                        waiting_on: 0,
                        fu,
                        abortable,
                        is_prefetch: matches!(rec.insn, Insn::Prefetch { .. }),
                    });
                    fetched += 1;
                    last_progress = cycle;
                    active = true;
                    if !correct {
                        blocked_on = Some(seq);
                        break;
                    }
                    if rec.branch.map(|b| b.taken).unwrap_or(false) {
                        // Taken branches end the fetch group.
                        last_fetch_line = u64::MAX;
                        break;
                    }
                }
            }

            // ---- probe (sampling interrupt) ----------------------------------
            if prober.next_probe_cycle() <= cycle {
                let addr_of = |seq: u64| slab[(seq - base_seq) as usize].addr;
                let rob_head_point = (rob_head < dispatched).then(|| (rob_head, addr_of(rob_head)));
                let pending_addr = (dispatched < next_seq)
                    .then(|| addr_of(dispatched))
                    .or(lookahead.map(|r| r.addr));
                prober.probe(ProbePoint {
                    cycle,
                    rob_head: rob_head_point,
                    pending_addr,
                    last_commit_addr,
                    commits_this_cycle: commits,
                    first_commit_addr,
                    first_commit_next_addr,
                    arch_stack: &arch_stack,
                    retired: stats.retired,
                });
            }

            // ---- cleanup & termination ---------------------------------------
            // Committed (or released) and executed: drop from the slab. Stale
            // store-block entries are dropped lazily; the map only needs
            // producers that are still in flight, and lookups tolerate retired
            // seqs (they read as "ready").
            while base_seq < rob_head && slab[0].done_cycle <= cycle {
                slab.pop_front();
                base_seq += 1;
                active = true;
            }
            if last_store_blk.len() > 1 << 16 {
                last_store_blk.retain(|_, &mut seq| seq >= base_seq);
            }

            if lookahead.is_none() && slab.is_empty() {
                break;
            }
            assert!(
                cycle - last_progress < DEADLOCK_CYCLES,
                "timing model made no progress for 5M cycles (deadlock at cycle {cycle})"
            );
            if active {
                cycle += 1;
                continue;
            }

            // ---- idle: jump to the next cycle at which anything can happen --
            // Nothing changed, so the next cycle repeats this one until one of
            // these times arrives. The prober's cycle is always honoured.
            let mut next = prober
                .next_probe_cycle()
                .max(cycle + 1)
                .min(last_progress + DEADLOCK_CYCLES);
            let mut event_at = |at: u64| {
                if at > cycle {
                    next = next.min(at);
                }
            };
            if rob_head < dispatched {
                event_at(slab[(rob_head - base_seq) as usize].done_cycle);
            }
            if let Some(front) = slab.front() {
                event_at(front.done_cycle);
            }
            if let Some(b) = blocked_on {
                // Idle, so the fetch stage found `b` still in the slab.
                let d = slab[(b - base_seq) as usize].done_cycle;
                if d != NOT_DONE {
                    event_at(d + cfg.mispredict_penalty);
                }
            }
            // Only an issue fills `wake_next`, and an issue makes the cycle active.
            debug_assert!(wake_next.is_empty());
            if let Some(&Reverse((at, _))) = wake_later.peek() {
                event_at(at);
            }
            if dispatched < next_seq {
                event_at(slab[(dispatched - base_seq) as usize].ready_at);
            }
            event_at(fetch_stall_until);
            if !ready.is_empty() {
                // Ready but refused a unit: a divider or an MSHR must free.
                for &free_at in div_busy.iter().chain(&fpdiv_busy).chain(&mshr_busy) {
                    event_at(free_at);
                }
            }
            // Every skipped cycle would have counted this cycle's stall.
            let skipped = next - cycle - 1;
            if rob_stall {
                stats.rob_full_stalls += skipped;
            }
            if iq_stall {
                stats.iq_full_stalls += skipped;
            }
            cycle = next;
        }

        stats.cycles = cycle;
        stats.bpred = self.bpred.stats;
        stats.l1i = self.hier.l1i.stats;
        stats.l1d = self.hier.l1d.stats;
        stats.l2 = self.hier.l2.stats;
        stats.l3 = self.hier.l3.stats;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Step};
    use crate::loader::ProcessImage;
    use wiser_isa::assemble;

    fn time_src(src: &str, cfg: CoreConfig) -> CoreStats {
        let m = assemble("t", src).unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        let mut interp = Interp::new(&image, 0).unwrap();
        let mut core = OoOCore::new(cfg);
        let mut err = None;
        let stats = core.run(
            || match interp.step() {
                Ok(Step::Retired(rec)) => Some(rec),
                Ok(Step::Exited(_)) => None,
                Err(e) => {
                    err = Some(e);
                    None
                }
            },
            &mut NoProbes,
        );
        assert!(err.is_none(), "{err:?}");
        stats
    }

    const INDEPENDENT_ADDS: &str = r#"
        .func _start global
            li x8, 1000
        loop:
            addi x1, x1, 1
            addi x2, x2, 1
            addi x3, x3, 1
            addi x4, x4, 1
            addi x5, x5, 1
            addi x6, x6, 1
            subi x8, x8, 1
            li x9, 0
            bne x8, x9, loop
            li x0, 0
            syscall
        .endfunc
        .entry _start
    "#;

    #[test]
    fn superscalar_ipc_above_one() {
        let stats = time_src(INDEPENDENT_ADDS, CoreConfig::xeon_like());
        assert!(
            stats.ipc() > 1.5,
            "expected ILP to give IPC > 1.5, got {:.2}",
            stats.ipc()
        );
    }

    #[test]
    fn dependent_chain_is_serial() {
        let src = r#"
            .func _start global
                li x8, 1000
            loop:
                add x1, x1, x1
                add x1, x1, x1
                add x1, x1, x1
                add x1, x1, x1
                subi x8, x8, 1
                li x9, 0
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let stats = time_src(src, CoreConfig::xeon_like());
        // 4 serial adds per iteration bound IPC near ~7 insns / >=4 cycles.
        assert!(stats.ipc() < 2.0, "got {:.2}", stats.ipc());
    }

    #[test]
    fn divides_are_slow() {
        let fast = time_src(INDEPENDENT_ADDS, CoreConfig::xeon_like());
        let src = r#"
            .func _start global
                li x8, 1000
                li x7, 3
            loop:
                div x1, x8, x7
                div x2, x1, x7
                subi x8, x8, 1
                li x9, 0
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let slow = time_src(src, CoreConfig::xeon_like());
        assert!(
            slow.cpi() > 5.0 * fast.cpi(),
            "divides should dominate: slow {:.2} vs fast {:.2}",
            slow.cpi(),
            fast.cpi()
        );
    }

    #[test]
    fn cache_misses_slow_execution() {
        // Stride through a 16 MiB region: misses everywhere.
        let miss_src = r#"
            .func _start global
                li x0, 4
                li x1, 0x1000000
                syscall
                mov x7, x0        ; base
                li x8, 20000      ; iterations
                li x2, 0          ; offset
            loop:
                ldx.8 x3, [x7+x2*1]
                addi x2, x2, 832  ; prime-ish stride, stays in 16MiB
                lui x4, 0
                andi x2, x2, 0xFFFFFF
                subi x8, x8, 1
                li x9, 0
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let hit_src = r#"
            .func _start global
                li x0, 4
                li x1, 0x1000000
                syscall
                mov x7, x0
                li x8, 20000
                li x2, 0
            loop:
                ldx.8 x3, [x7+x2*1]
                addi x2, x2, 8
                lui x4, 0
                andi x2, x2, 0xFFF  ; stay in 4 KiB: always hot
                subi x8, x8, 1
                li x9, 0
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let missy = time_src(miss_src, CoreConfig::xeon_like());
        let hitty = time_src(hit_src, CoreConfig::xeon_like());
        assert!(
            missy.cycles > 2 * hitty.cycles,
            "missy {} vs hitty {}",
            missy.cycles,
            hitty.cycles
        );
        assert!(missy.l1d.miss_ratio() > 0.5);
        assert!(hitty.l1d.miss_ratio() < 0.1);
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // Data-dependent unpredictable branch driven by LCG randomness.
        let unpredictable = r#"
            .func _start global
                li x8, 5000
            loop:
                li x0, 5
                syscall            ; x0 = rand
                shri x1, x0, 62    ; high LCG bits are well mixed
                andi x1, x1, 1
                li x9, 0
                beq x1, x9, skip
                addi x2, x2, 1
            skip:
                subi x8, x8, 1
                bne x8, x9, loop
                li x0, 0
                syscall
            .endfunc
            .entry _start
        "#;
        let stats = time_src(unpredictable, CoreConfig::xeon_like());
        assert!(
            stats.bpred.cond_mispredicts > 1000,
            "got {}",
            stats.bpred.cond_mispredicts
        );
    }

    #[test]
    fn probe_sees_rob_head() {
        struct EveryCycle {
            seen: Vec<Option<u64>>,
        }
        impl Prober for EveryCycle {
            fn next_probe_cycle(&self) -> u64 {
                0
            }
            fn probe(&mut self, point: ProbePoint<'_>) {
                self.seen.push(point.rob_head.map(|(_, addr)| addr));
            }
        }
        let m = assemble("t", INDEPENDENT_ADDS).unwrap();
        let image = ProcessImage::load_single(&m).unwrap();
        let mut interp = Interp::new(&image, 0).unwrap();
        let mut core = OoOCore::new(CoreConfig::xeon_like());
        let mut probes = EveryCycle { seen: Vec::new() };
        core.run(
            || match interp.step() {
                Ok(Step::Retired(rec)) => Some(rec),
                _ => None,
            },
            &mut probes,
        );
        assert!(probes.seen.iter().any(|s| s.is_some()));
    }

    #[test]
    fn early_release_drains_past_unexecuted_divide() {
        // The figure 9 micro-benchmark: a loop-carried slow divide followed
        // by a long chain of dependent, non-abortable adds. In EarlyRelease
        // mode the ROB drains past the unexecuted chain until issue-queue
        // back-pressure, so the observed "head" sits tens of instructions
        // after the divide; in InOrder mode it crawls through the chain.
        let mut src = String::from(
            ".func _start global\n li x8, 200\n li x7, 99999\n li x6, 1\nloop:\n udiv x7, x7, x6\n mov x1, x7\n",
        );
        for _ in 0..80 {
            // Each add depends on the divide (not on each other), so they
            // all wait in the issue queue while the divide executes.
            src.push_str(" add x1, x7, x6\n");
        }
        src.push_str(" subi x8, x8, 1\n li x9, 0\n bne x8, x9, loop\n li x0, 0\n syscall\n.endfunc\n.entry _start\n");

        struct HeadTracker {
            heads: std::collections::HashMap<u64, u64>,
        }
        impl Prober for HeadTracker {
            fn next_probe_cycle(&self) -> u64 {
                0
            }
            fn probe(&mut self, point: ProbePoint<'_>) {
                if let Some(addr) = point.rob_head.map(|(_, a)| a).or(point.pending_addr) {
                    *self.heads.entry(addr).or_insert(0) += 1;
                }
            }
        }

        let run_mode = |cfg: CoreConfig, src: &str| {
            let m = assemble("t", src).unwrap();
            let image = ProcessImage::load_single(&m).unwrap();
            let mut interp = Interp::new(&image, 0).unwrap();
            let mut core = OoOCore::new(cfg);
            let mut probes = HeadTracker {
                heads: Default::default(),
            };
            core.run(
                || match interp.step() {
                    Ok(Step::Retired(rec)) => Some(rec),
                    _ => None,
                },
                &mut probes,
            );
            probes.heads
        };

        let image = ProcessImage::load_single(&assemble("t", &src).unwrap()).unwrap();
        let base = image.modules[0].base;
        // The udiv is the 4th instruction: offset 24.
        let udiv_addr = base + 24;
        let chain_lo = udiv_addr + 16; // first addi
        let chain_hi = udiv_addr + 16 + 80 * 8;

        let inorder = run_mode(CoreConfig::xeon_like(), &src);
        let early = run_mode(CoreConfig::neoverse_like(), &src);

        let peak = |heads: &std::collections::HashMap<u64, u64>| -> (u64, u64) {
            heads
                .iter()
                .filter(|(a, _)| **a >= chain_lo && **a < chain_hi)
                .map(|(a, c)| (*a, *c))
                .max_by_key(|(_, c)| *c)
                .unwrap_or((0, 0))
        };
        let (in_peak_addr, in_peak) = peak(&inorder);
        let (early_peak_addr, early_peak) = peak(&early);
        // In-order: the serial chain commits ~1/cycle, so observations are
        // spread roughly evenly (~200 per add). Early release: concentrated
        // at the back-pressure point, dozens of instructions downstream.
        assert!(
            early_peak > 4 * in_peak,
            "early-release should concentrate: early peak {early_peak} at +{}, \
             in-order peak {in_peak} at +{}",
            (early_peak_addr - udiv_addr) / 8,
            (in_peak_addr - udiv_addr) / 8,
        );
        assert!(
            early_peak_addr >= udiv_addr + 30 * 8,
            "early-release peak should be tens of instructions after the \
             divide, got +{} insns",
            (early_peak_addr - udiv_addr) / 8
        );
    }
}
