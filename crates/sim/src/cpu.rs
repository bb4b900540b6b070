//! The per-core CPU handle: ordinary loads/stores, compare-and-swap, and
//! the six mark-bit instructions of the HASTM ISA extension (§3).
//!
//! Every method models exactly one (possibly multi-µop) instruction: it
//! waits for this core's logical-clock turn, performs the operation against
//! the shared memory system, and advances the core's clock by the
//! instruction's cycle cost.
//!
//! The one operation that need not wait is a stall ([`Cpu::tick`], and with
//! it [`Cpu::exec`] and [`Cpu::mark_branch_penalty`]): it touches nothing
//! but this core's own clock. On a plain run a stall is therefore
//! *deferred* — added to the handle's own copy of the clock and to
//! `Cpu::stalled_cycles` — and published into the shared clock by the next
//! operation that does take a turn, before the gate decides on it: at
//! admission, or, for a core that runs alone and so keeps its guard, at
//! its next op. No other operation starts at a different `(clock, core)`
//! for that, and the gate still admits them in that order; see DESIGN §5c.
//!
//! Every per-op method is `#[inline]`, so a caller in another crate runs
//! the op's fast arm in its own body rather than calling into this one
//! (without LTO a crate edge is a real call). What a core that runs alone
//! skips, or meets once per miss — admission, the gated stall, the
//! epilogue of a run that is not plain, and the cache model's miss and
//! upgrade paths — stays out of line.

use crate::addr::{Addr, LINE_SIZE};
use crate::cache::FilterId;
use crate::config::CostModel;
use crate::gate::StateGuard;
use crate::hierarchy::{AccessKind, MarkOp, WatchKind, WatchViolation};
use crate::machine::{Shared, SimState};
use crate::mutant::{armed, Mutant};
use crate::trace::{TimedEvent, TraceEvent};
use crate::words::RedoLog;

/// How many consecutive stalls a core may defer before one of them takes a
/// real turn. A worker that only stalls (spinning on host state another
/// core will set) must still let the others run: contexts switch nowhere
/// but in the gate. Any value is exact; this one is far above the handful
/// of stalls between two memory operations of real workloads, so it costs
/// them nothing.
const STALL_DEFER_CAP: u64 = 16;

/// Execution handle for one simulated core.
///
/// Obtained inside a worker closure passed to [`crate::Machine::run`]; see
/// that method for an end-to-end example.
pub struct Cpu<'a> {
    id: usize,
    shared: &'a Shared,
    cost: CostModel,
    /// Instruction-issue accumulator for ILP amortization (see
    /// [`CostModel::ipc`]).
    insn_acc: u64,
    /// `log2(ipc)` when the IPC is a power of two (the default is 2), so
    /// [`Cpu::issue`] can shift and mask instead of dividing.
    ipc_shift: Option<u32>,
    /// The solo hold: the state guard this core kept at the end of its
    /// last op because it was the only active core, which it stays until
    /// its worker ends. Released by `Drop`.
    held: Option<StateGuard<'a>>,
    /// [`SimState::plain_run`]: the run has nothing to do after an op but
    /// advance the clock and count it, and nothing but clocks decides the
    /// turn. Its inputs change only through `&mut Machine`, which no run
    /// can overlap, so the flag read when the worker started holds for the
    /// whole run.
    plain: bool,
    /// Cycles of the stalls deferred since this core last took a turn, not
    /// yet in `clocks[id]`. Nonzero only on a plain run.
    stalled_cycles: u64,
    /// How many stalls those were: not yet in `op_count`, and capped at
    /// [`STALL_DEFER_CAP`].
    stalled_ops: u64,
    /// Whether structured tracing was armed when this worker started;
    /// cached so [`Cpu::trace`] is one branch when tracing is off.
    tracing: bool,
    /// Software-layer events ([`Cpu::trace`]) stamped locally and flushed
    /// into this core's ring at the next gated op (or into the tail buffer
    /// at worker end).
    trace_pending: Vec<TimedEvent>,
    /// This core's clock, mirrored at gate admission and after every op so
    /// [`Cpu::now`] and the stamp for software-layer events need not reach
    /// for the state.
    last_clock: u64,
}

impl std::fmt::Debug for Cpu<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu").field("id", &self.id).finish()
    }
}

impl Drop for Cpu<'_> {
    fn drop(&mut self) {
        // Worker end: spill any still-buffered trace events into the
        // recorder's per-core tail (kept apart from the rings because
        // worker exits happen at host-racy times relative to other cores'
        // flushes), then release a kept guard so this worker's
        // deactivation guard, which runs after this drop, can take it.
        if let Some(mut st) = self.held.take() {
            if self.tracing && !self.trace_pending.is_empty() {
                st.sys.trace_push_tail(self.id, &mut self.trace_pending);
            }
            self.fold_stalls(&mut st);
            self.shared.handoff(st, self.id);
        } else if self.tracing && !self.trace_pending.is_empty() {
            let mut st = self.shared.state.lock();
            st.sys.trace_push_tail(self.id, &mut self.trace_pending);
        }
        // Stalls still deferred reach the clock the run reports before
        // this core deactivates.
        self.publish_stalls();
    }
}

impl<'a> Cpu<'a> {
    pub(crate) fn new(id: usize, shared: &'a Shared) -> Self {
        let (cost, tracing, plain) = {
            let st = shared.state.lock();
            (st.sys_cost(), st.sys.tracing(), st.plain_run())
        };
        Cpu {
            id,
            shared,
            cost,
            insn_acc: 0,
            ipc_shift: cost
                .ipc
                .is_power_of_two()
                .then(|| cost.ipc.trailing_zeros()),
            plain,
            stalled_cycles: 0,
            stalled_ops: 0,
            held: None,
            tracing,
            trace_pending: Vec::new(),
            last_clock: 0,
        }
    }

    /// Whether structured tracing is armed for this run. Software layers
    /// (STM/HTM) can use this to skip building event payloads.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Records a software-layer trace event against this core, stamped with
    /// the core's clock as of its last completed operation. One never-taken
    /// branch (and no allocation) when tracing is off; never a gated op and
    /// never charges cycles.
    #[inline]
    pub fn trace(&mut self, ev: TraceEvent) {
        if self.tracing {
            self.trace_pending.push(TimedEvent {
                cycle: self.last_clock,
                ev,
            });
        }
    }

    /// Converts `insns` issued instructions into cycles at the configured
    /// IPC, carrying the remainder forward.
    #[inline]
    fn issue(&mut self, insns: u64) -> u64 {
        let ipc = self.cost.ipc;
        let total = self.insn_acc + insns * self.cost.tick;
        let (cycles, carry) = if total < ipc {
            (0, total)
        } else if let Some(shift) = self.ipc_shift {
            (total >> shift, total & (ipc - 1))
        } else {
            (total / ipc, total % ipc)
        };
        self.insn_acc = carry;
        cycles
    }

    /// This core's id (0-based).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Reads the simulator state without gating. Must go through the kept
    /// guard when this core holds one — the state cell is not reentrant:
    /// taking it again would panic on the context target (a second
    /// exclusive borrow) and self-deadlock on the thread target.
    #[inline]
    fn with_state<R>(&self, f: impl FnOnce(&SimState) -> R) -> R {
        match &self.held {
            Some(st) => f(st),
            None => f(&self.shared.state.lock()),
        }
    }

    /// This core's logical clock, in cycles.
    #[inline]
    pub fn now(&self) -> u64 {
        self.last_clock
    }

    /// The machine's current run epoch (see [`crate::Machine::run_epoch`]).
    pub fn run_epoch(&self) -> u64 {
        self.with_state(|st| st.run_epoch)
    }

    /// Waits until it is this core's turn, then returns the locked state.
    /// A core that kept its guard is alone: its turn needs no gate.
    #[inline]
    fn turn(&mut self) -> StateGuard<'a> {
        match self.held.take() {
            Some(mut st) => {
                if self.stalled_ops != 0 {
                    self.fold_stalls(&mut st);
                }
                st
            }
            None => self.admit(),
        }
    }

    /// Adds the stalls deferred by [`Cpu::tick`] to this core's clock and
    /// to the op count.
    fn fold_stalls(&mut self, st: &mut SimState) {
        st.clocks[self.id] += std::mem::take(&mut self.stalled_cycles);
        st.op_count += std::mem::take(&mut self.stalled_ops);
    }

    /// Gate admission, out of line: a core that runs alone skips it.
    #[inline(never)]
    fn admit(&mut self) -> StateGuard<'a> {
        // The gate must decide on this core's true clock.
        self.publish_stalls();
        let mut st = self.shared.wait_turn(self.id);
        if !self.plain {
            st.note_admission(self.id);
        }
        self.last_clock = st.clocks[self.id];
        st
    }

    /// Folds the stalls deferred with no guard kept into the shared state.
    /// That moves the turn like any other clock advance, so it ends in a
    /// handoff: on host threads a core parked behind the stale clock is
    /// woken by nothing else.
    fn publish_stalls(&mut self) {
        if self.stalled_ops == 0 {
            return;
        }
        let mut st = self.shared.state.lock();
        self.fold_stalls(&mut st);
        self.shared.handoff(st, self.id);
    }

    /// Completes an op that cost `cycles`: advances the clock, runs what
    /// the run hangs on the end of an op, and either keeps the guard or
    /// gives up the turn.
    #[inline]
    fn finish(&mut self, mut st: StateGuard<'a>, cycles: u64) {
        let clock = st.clocks[self.id] + cycles;
        st.clocks[self.id] = clock;
        self.last_clock = clock;
        let static_schedule = if self.plain {
            // `SimState::after_op` would count the op and find every hook
            // absent.
            st.op_count += 1;
            true
        } else {
            self.observe_op(&mut st)
        };
        // The solo hold: a core that is the only active core stays so
        // until its worker ends, so its next turn is certain and it keeps
        // the guard. Admitting a lone core op by op costs `sim_solo` about
        // a third of its throughput (0.66x). Every other op goes through
        // `SimState::admission`, and a dynamic schedule (fuzz jitter
        // re-draws, PCT demotions, preemption directives, fault plans)
        // hands off after every op.
        if static_schedule && st.active_count == 1 {
            self.held = Some(st);
            return;
        }
        self.shared.handoff(st, self.id);
    }

    /// The end of an op on a run that is not plain — fuzzed, PCT,
    /// preempted, faulted, schedule-recorded or traced. Returns whether the
    /// schedule is static, so that a core that runs alone may keep its
    /// guard.
    #[inline(never)]
    fn observe_op(&mut self, st: &mut SimState) -> bool {
        if self.tracing && !self.trace_pending.is_empty() {
            // Route software-layer events buffered since the last gated op
            // (already stamped) into this core's ring, ahead of this op's
            // own events.
            st.sys.trace_push_stamped(self.id, &mut self.trace_pending);
        }
        // Counts the op, logs it, fires due directives and faults, re-draws
        // priorities, routes the op's trace events.
        st.after_op(self.id);
        !st.dynamic_schedule()
    }

    /// Stalls until [`Cpu::now`] reaches `tick`; returns at once if it
    /// already has. The open-loop arrival wait of every simulated
    /// `TmExec`.
    #[inline]
    pub fn idle_until(&mut self, tick: u64) {
        let now = self.now();
        if tick > now {
            self.tick(tick - now);
        }
    }

    /// Advances this core's clock by `cycles` of raw stall/wait time (spin
    /// backoff, kernel time). For instruction work, use [`Cpu::exec`].
    ///
    /// Long stalls double as PCT yield points: under
    /// [`crate::SchedulePolicy::Pct`] a stall of
    /// `machine::PCT_YIELD_CYCLES` or more demotes this core, so
    /// spin-waiters cannot starve the core they wait on.
    #[inline]
    pub fn tick(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if self.plain && self.stalled_ops < STALL_DEFER_CAP {
            // Nothing to observe and nothing to touch but this core's own
            // clock: the stall takes no turn (module docs).
            self.stalled_cycles += cycles;
            self.stalled_ops += 1;
            self.last_clock += cycles;
            return;
        }
        self.gated_tick(cycles);
    }

    /// A stall that takes a turn: on a run that is not plain, or past
    /// [`STALL_DEFER_CAP`]. Out of line, so the deferred arm above is all
    /// that inlines into a caller.
    #[inline(never)]
    fn gated_tick(&mut self, cycles: u64) {
        let mut st = self.turn();
        if cycles >= crate::machine::PCT_YIELD_CYCLES {
            st.pct_note_yield(self.id);
        }
        self.finish(st, cycles);
    }

    /// Executes `insns` non-memory instructions, charged at the cost
    /// model's sustained IPC (fractions carry over between calls).
    #[inline]
    pub fn exec(&mut self, insns: u64) {
        let cycles = self.issue(insns);
        self.tick(cycles);
    }

    /// Executes `insns` instructions and runs `f` while this core holds
    /// the state lock.
    ///
    /// This is the ordering primitive for side-band host state: shared
    /// bookkeeping that is not simulated memory (e.g. a version store's
    /// stamp issue or ring probe). Such state generates no simulated
    /// traffic, so the trace cannot order it — and host code running
    /// *between* gated ops runs in whatever order the cores happen to
    /// reach it (on host threads it even races). Running the closure
    /// inside the gated op makes its effect atomic with the op and totally
    /// ordered by the deterministic admission schedule.
    #[inline]
    pub fn exec_sync<R>(&mut self, insns: u64, f: impl FnOnce() -> R) -> R {
        let cycles = self.issue(insns);
        let st = self.turn();
        let r = f();
        self.finish(st, cycles);
        r
    }

    /// Loads a naturally aligned `u64`.
    #[inline]
    pub fn load_u64(&mut self, addr: Addr) -> u64 {
        let issue = self.issue(1);
        let mut st = self.turn();
        let lat = st.sys.access(self.id, addr, AccessKind::Load);
        let v = st.mem.read_u64(addr);
        self.finish(st, issue + lat);
        v
    }

    /// Loads a `u64` and registers a watch on its line in the *same*
    /// logical-time step — the HTM access primitive. Load and watch must be
    /// indivisible: were they two gated ops, a remote commit could land
    /// between them and the conflict it implies would never be delivered
    /// (a lost update).
    #[inline]
    pub fn load_watch_u64(&mut self, addr: Addr, kind: WatchKind) -> u64 {
        let issue = self.issue(1);
        let mut st = self.turn();
        let lat = st.sys.access(self.id, addr, AccessKind::Load);
        let v = st.mem.read_u64(addr);
        st.sys.watch(self.id, addr.line(), kind);
        self.finish(st, issue + lat);
        v
    }

    /// Stores a naturally aligned `u64`.
    #[inline]
    pub fn store_u64(&mut self, addr: Addr, value: u64) {
        let issue = self.issue(1);
        let mut st = self.turn();
        let lat = st.sys.access(self.id, addr, AccessKind::Store);
        st.mem.write_u64(addr, value);
        self.finish(st, issue + lat);
    }

    /// Atomic compare-and-swap on a `u64`. Returns the value observed at
    /// `addr`; the swap succeeded iff the return value equals `expected`.
    #[inline]
    pub fn cas_u64(&mut self, addr: Addr, expected: u64, new: u64) -> u64 {
        let issue = self.issue(1);
        let mut st = self.turn();
        st.sys.core_stats_mut(self.id).cas_ops += 1;
        // CAS acquires exclusive ownership regardless of outcome and is
        // fully serializing (no store-buffer absorption).
        let lat = st.sys.access(self.id, addr, AccessKind::Rmw);
        let old = st.mem.read_u64(addr);
        if old == expected {
            st.mem.write_u64(addr, new);
        }
        self.finish(st, issue + lat + self.cost.cas_extra);
        old
    }

    #[inline]
    fn mark_load(&mut self, addr: Addr, len: u64, op: MarkOp, filter: FilterId) -> (u64, bool) {
        // Mark-setting loads issue an extra µop (store-queue entry, §7).
        let issue = self.issue(if op == MarkOp::Test { 1 } else { 2 });
        let mut st = self.turn();
        let (lat, flag) = st.sys.mark_access(self.id, addr, len, op, filter);
        let v = st.mem.read_u64(addr);
        let extra = match op {
            MarkOp::Set | MarkOp::Reset => self.cost.mark_op_extra,
            MarkOp::Test => 0,
        };
        self.finish(st, issue + lat + extra);
        (v, flag)
    }

    /// `loadsetmark(addr)`: loads the `u64` at `addr` and sets the mark bit
    /// of its 16-byte sub-block (primary filter).
    #[inline]
    pub fn load_set_mark_u64(&mut self, addr: Addr) -> u64 {
        self.mark_load(addr, 8, MarkOp::Set, FilterId::READ).0
    }

    /// `loadresetmark(addr)`: loads the `u64` at `addr` and clears the mark
    /// bit of its sub-block (primary filter).
    #[inline]
    pub fn load_reset_mark_u64(&mut self, addr: Addr) -> u64 {
        self.mark_load(addr, 8, MarkOp::Reset, FilterId::READ).0
    }

    /// `loadtestmark(addr)`: loads the `u64` at `addr`; the returned flag is
    /// the mark bit of its sub-block (primary filter; the paper's carry
    /// flag).
    #[inline]
    pub fn load_test_mark_u64(&mut self, addr: Addr) -> (u64, bool) {
        self.mark_load(addr, 8, MarkOp::Test, FilterId::READ)
    }

    /// Filtered `loadsetmark`: operates on an explicit mark filter (§3.1's
    /// multiple-independent-filters extension).
    #[inline]
    pub fn load_set_mark_u64_f(&mut self, filter: FilterId, addr: Addr) -> u64 {
        self.mark_load(addr, 8, MarkOp::Set, filter).0
    }

    /// Filtered `loadresetmark`.
    #[inline]
    pub fn load_reset_mark_u64_f(&mut self, filter: FilterId, addr: Addr) -> u64 {
        self.mark_load(addr, 8, MarkOp::Reset, filter).0
    }

    /// Filtered `loadtestmark`.
    #[inline]
    pub fn load_test_mark_u64_f(&mut self, filter: FilterId, addr: Addr) -> (u64, bool) {
        self.mark_load(addr, 8, MarkOp::Test, filter)
    }

    /// Line-granularity mark load: marks/tests the *whole line* but loads
    /// the addressed word, matching the paper's
    /// `loadsetmark_granularity64 eax, [addr]`.
    #[inline]
    fn mark_load_line(&mut self, addr: Addr, op: MarkOp) -> (u64, bool) {
        let issue = self.issue(if op == MarkOp::Test { 1 } else { 2 });
        let mut st = self.turn();
        let (lat, flag) =
            st.sys
                .mark_access(self.id, addr.line_base(), LINE_SIZE, op, FilterId::READ);
        let v = st.mem.read_u64(addr);
        let extra = match op {
            MarkOp::Set | MarkOp::Reset => self.cost.mark_op_extra,
            MarkOp::Test => 0,
        };
        self.finish(st, issue + lat + extra);
        (v, flag)
    }

    /// `loadsetmark_granularity64`: loads the `u64` at `addr` and sets all
    /// four mark bits of its line.
    #[inline]
    pub fn load_set_mark_line(&mut self, addr: Addr) -> u64 {
        self.mark_load_line(addr, MarkOp::Set).0
    }

    /// `loadresetmark_granularity64`: loads the `u64` at `addr` and clears
    /// the whole line's mark bits.
    #[inline]
    pub fn load_reset_mark_line(&mut self, addr: Addr) -> u64 {
        self.mark_load_line(addr, MarkOp::Reset).0
    }

    /// `loadtestmark_granularity64`: loads the `u64` at `addr`; the flag is
    /// the AND of all four mark bits of the line.
    #[inline]
    pub fn load_test_mark_line(&mut self, addr: Addr) -> (u64, bool) {
        self.mark_load_line(addr, MarkOp::Test)
    }

    /// `resetmarkall()`: clears every primary-filter mark bit in this
    /// core's L1 and increments the primary mark counter.
    pub fn reset_mark_all(&mut self) {
        self.reset_mark_all_f(FilterId::READ);
    }

    /// Filtered `resetmarkall()`.
    pub fn reset_mark_all_f(&mut self, filter: FilterId) {
        let issue = self.issue(1);
        let mut st = self.turn();
        st.sys.reset_mark_all(self.id, filter);
        self.finish(st, issue);
    }

    /// `readmarkcounter()`: reads this core's primary saturating mark
    /// counter.
    pub fn read_mark_counter(&mut self) -> u64 {
        self.read_mark_counter_f(FilterId::READ)
    }

    /// Filtered `readmarkcounter()`.
    pub fn read_mark_counter_f(&mut self, filter: FilterId) -> u64 {
        let issue = self.issue(1);
        let st = self.turn();
        let v = st.sys.mark_counter(self.id, filter);
        self.finish(st, issue);
        v
    }

    /// Reads this core's marked-line losses split by cause as
    /// `(capacity, conflict)` — evictions plus back-invalidations vs
    /// remote-writer snoops. A diagnostics register read (one gated
    /// instruction): remote cores bump the conflict share during *their*
    /// admitted ops, so the read must take a canonical turn to observe a
    /// deterministic value.
    pub fn marked_loss_by_cause(&mut self) -> (u64, u64) {
        let issue = self.issue(1);
        let st = self.turn();
        let s = &st.sys.core_stats[self.id];
        let v = (s.marked_lost_capacity, s.marked_lost_conflict);
        self.finish(st, issue);
        v
    }

    /// `resetmarkcounter()`: zeroes this core's primary mark counter.
    pub fn reset_mark_counter(&mut self) {
        self.reset_mark_counter_f(FilterId::READ)
    }

    /// Filtered `resetmarkcounter()`.
    pub fn reset_mark_counter_f(&mut self, filter: FilterId) {
        let issue = self.issue(1);
        let mut st = self.turn();
        st.sys.reset_mark_counter(self.id, filter);
        self.finish(st, issue);
    }

    /// Models an OS priority (ring) transition, e.g. a context switch or
    /// page fault: the implementation discards all mark bits
    /// (`resetmarkall`, §3) and charges `cycles` of kernel time.
    pub fn os_transition(&mut self, cycles: u64) {
        let mut st = self.turn();
        for f in 0..crate::cache::NUM_FILTERS {
            st.sys.reset_mark_all(self.id, FilterId(f as u8));
        }
        self.finish(st, cycles.max(1));
    }

    /// Charges the extra delay of a conditional branch that depends on the
    /// immediately preceding `loadtestmark` (§7.3).
    #[inline]
    pub fn mark_branch_penalty(&mut self) {
        let extra = self.cost.mark_branch_extra;
        self.tick(extra);
    }

    /// Atomically commits a speculative store buffer: in one indivisible
    /// step (a single point in logical time, as a hardware transaction's
    /// cache flash-commit is), re-checks this core's watch violation and —
    /// only if clean — performs every buffered store and clears the watch
    /// set.
    ///
    /// # Errors
    ///
    /// Returns the pending violation without writing anything, and without
    /// touching `done`, if the transaction was doomed. On success, `done`
    /// holds `(addr, pre-commit value, committed value)` per store, in the
    /// log's order — the committed state transition, captured at the
    /// single commit instant, for verification layers that journal
    /// committed writes.
    ///
    /// [`Mutant::HtmCommitSplit`] splits the violation re-check and the
    /// write-back into *two* gated ops, reintroducing the classic commit
    /// TOCTOU: two transactions that both passed their checks can
    /// interleave write-backs and lose an update. PCT and the
    /// bounded-exhaustive enumerator must both rediscover the race.
    pub fn commit_stores(
        &mut self,
        writes: &RedoLog,
        done: &mut Vec<(Addr, u64, u64)>,
    ) -> Result<(), WatchViolation> {
        let issue = self.issue(writes.len() as u64);
        let mut st = self.turn();
        if let Some(v) = st.sys.violation(self.id) {
            st.sys.clear_watches(self.id);
            self.finish(st, issue);
            return Err(v);
        }
        let mut lat = issue;
        if armed(Mutant::HtmCommitSplit) {
            // BUG (planted): the check above is one gated op and the
            // write-back another; a remote commit admitted between them
            // escapes detection and its update is overwritten.
            self.finish(st, issue);
            st = self.turn();
            lat = 0;
        }
        done.clear();
        for &(addr, value) in writes.entries() {
            let addr = Addr(addr);
            lat += st.sys.access(self.id, addr, AccessKind::Store);
            done.push((addr, st.mem.read_u64(addr), value));
            st.mem.write_u64(addr, value);
        }
        st.sys.clear_watches(self.id);
        self.finish(st, lat);
        Ok(())
    }

    /// Reads simulated memory with no timing or cache effects (debug /
    /// verification aid; not an ISA instruction).
    pub fn peek_u64(&self, addr: Addr) -> u64 {
        self.with_state(|st| st.mem.read_u64(addr))
    }

    /// Allocates from `heap` at this core's logical-clock turn, with no
    /// cycle cost (allocator instruction costs are charged separately by
    /// the caller where they matter, e.g. log-overflow slow paths).
    ///
    /// Worker code must allocate through this method rather than calling
    /// [`crate::SimHeap`] directly: the gate orders concurrent allocations
    /// by logical time, so every run hands out identical addresses — heap
    /// layout, and with it cache behavior and cycle counts, stays
    /// reproducible. Host-side setup code (before `Machine::run`) may use
    /// the heap directly; it is single-threaded and therefore already
    /// deterministic.
    pub fn alloc(&mut self, heap: &crate::SimHeap, size: u64) -> Addr {
        self.alloc_aligned(heap, size, 16)
    }

    /// [`Cpu::alloc`] with explicit alignment (a power of two, ≥ 8).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or is smaller than 8.
    pub fn alloc_aligned(&mut self, heap: &crate::SimHeap, size: u64, align: u64) -> Addr {
        let st = self.turn();
        let addr = heap.alloc_aligned(size, align);
        self.finish(st, 0);
        addr
    }

    // --- HTM substrate: line watches (zero-cost bookkeeping) ---
    //
    // Zero *cycle* cost, but every one of these still synchronizes on the
    // logical-clock gate: watch registration, violation polling, and watch
    // clearing are ordered against other cores' stores by logical time,
    // not host time. (They used to take the state lock without gating,
    // which made HTM abort timing — and therefore the makespan — depend
    // on host thread scheduling; the hastm-check determinism sweep caught
    // the resulting run-to-run wobble.)

    /// Registers a watch on `addr`'s line; see [`WatchKind`].
    #[inline]
    pub fn watch(&mut self, addr: Addr, kind: WatchKind) {
        let mut st = self.turn();
        st.sys.watch(self.id, addr.line(), kind);
        self.finish(st, 0);
    }

    /// Drops all watches and any pending violation.
    pub fn clear_watches(&mut self) {
        let mut st = self.turn();
        st.sys.clear_watches(self.id);
        self.finish(st, 0);
    }

    /// The first violation recorded against this core's watches, if any.
    #[inline]
    pub fn violation(&mut self) -> Option<WatchViolation> {
        let st = self.turn();
        let v = st.sys.violation(self.id);
        self.finish(st, 0);
        v
    }

    /// Number of lines currently watched.
    pub fn watched_lines(&mut self) -> usize {
        let st = self.turn();
        let n = st.sys.watched_lines(self.id);
        self.finish(st, 0);
        n
    }

    /// The configured cost model (read-only).
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use crate::addr::Addr;
    use crate::config::{CostModel, IsaLevel, MachineConfig};
    use crate::machine::Machine;

    #[test]
    fn mark_instructions_roundtrip() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| {
            cpu.reset_mark_counter();
            cpu.store_u64(Addr(0x100), 77);
            let v = cpu.load_set_mark_u64(Addr(0x100));
            assert_eq!(v, 77);
            let (v2, marked) = cpu.load_test_mark_u64(Addr(0x100));
            assert_eq!(v2, 77);
            assert!(marked);
            let _ = cpu.load_reset_mark_u64(Addr(0x100));
            let (_, marked) = cpu.load_test_mark_u64(Addr(0x100));
            assert!(!marked);
            assert_eq!(cpu.read_mark_counter(), 0);
        });
    }

    #[test]
    fn line_granularity_instructions() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| {
            cpu.store_u64(Addr(0x148), 5);
            // All line-granularity variants load the *addressed* word
            // (`loadsetmark_granularity64 eax, [addr]`) while operating on
            // the whole line's mark bits.
            let v = cpu.load_set_mark_line(Addr(0x148));
            assert_eq!(v, 5);
            let (v2, marked) = cpu.load_test_mark_line(Addr(0x148));
            assert_eq!(v2, 5);
            assert!(marked);
            // A word elsewhere in the same line is also covered.
            let (_, marked) = cpu.load_test_mark_line(Addr(0x170));
            assert!(marked);
            let _ = cpu.load_reset_mark_line(Addr(0x148));
            let (_, marked) = cpu.load_test_mark_line(Addr(0x148));
            assert!(!marked);
        });
    }

    #[test]
    fn reset_mark_all_bumps_counter() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| {
            cpu.reset_mark_counter();
            cpu.load_set_mark_u64(Addr(0x200));
            cpu.reset_mark_all();
            assert_eq!(cpu.read_mark_counter(), 1);
            let (_, marked) = cpu.load_test_mark_u64(Addr(0x200));
            assert!(!marked);
        });
    }

    #[test]
    fn os_transition_discards_marks() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| {
            cpu.reset_mark_counter();
            cpu.load_set_mark_u64(Addr(0x200));
            let before = cpu.now();
            cpu.os_transition(500);
            assert!(cpu.now() >= before + 500);
            let (_, marked) = cpu.load_test_mark_u64(Addr(0x200));
            assert!(!marked);
            assert!(cpu.read_mark_counter() >= 1);
        });
    }

    #[test]
    fn default_isa_degenerates_gracefully() {
        let mut m = Machine::new(MachineConfig {
            isa: IsaLevel::Default,
            ..MachineConfig::default()
        });
        m.run_one(|cpu| {
            cpu.reset_mark_counter();
            cpu.store_u64(Addr(0x100), 3);
            assert_eq!(cpu.load_set_mark_u64(Addr(0x100)), 3);
            assert_eq!(cpu.read_mark_counter(), 1, "set bumps the counter");
            let (v, marked) = cpu.load_test_mark_u64(Addr(0x100));
            assert_eq!(v, 3);
            assert!(!marked, "test always reports clear");
        });
    }

    #[test]
    fn cas_success_and_failure() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| {
            cpu.store_u64(Addr(0x300), 10);
            assert_eq!(cpu.cas_u64(Addr(0x300), 10, 11), 10);
            assert_eq!(cpu.load_u64(Addr(0x300)), 11);
            assert_eq!(cpu.cas_u64(Addr(0x300), 10, 12), 11, "failed CAS");
            assert_eq!(cpu.load_u64(Addr(0x300)), 11);
        });
    }

    #[test]
    fn costs_accumulate() {
        let mut m = Machine::new(MachineConfig::default());
        let (_, report) = m.run_one(|cpu| {
            let c = cpu.cost_model();
            let t0 = cpu.now();
            cpu.load_u64(Addr(0x400)); // cold miss pays the memory latency
            let cold = cpu.now() - t0;
            assert!(
                cold >= c.mem && cold <= c.mem + c.tick,
                "cold load cost {cold}"
            );
            let t1 = cpu.now();
            cpu.load_u64(Addr(0x400)); // hit pays at most l1_hit + issue
            let hit = cpu.now() - t1;
            assert!(hit <= c.l1_hit + c.tick, "hit cost {hit}");
        });
        assert!(report.makespan() > 0);
    }

    proptest::proptest! {
        /// `issue` is `total / ipc` cycles carrying `total % ipc`, whatever
        /// shortcut it takes: clocks after each `exec` match that
        /// definition for every cost model, power-of-two IPC or not. The
        /// trailing single instructions flush out a wrong final carry.
        #[test]
        fn issue_matches_the_division_definition(
            ipc in 1..=8u64,
            tick in 1..=3u64,
            insns in proptest::collection::vec(0..20u64, 0..60),
        ) {
            let mut m = Machine::new(MachineConfig {
                cost: CostModel { ipc, tick, ..CostModel::default() },
                ..MachineConfig::default()
            });
            let program: Vec<u64> =
                insns.into_iter().chain(std::iter::repeat_n(1, ipc as usize)).collect();
            let (clocks, _) = m.run_one(|cpu| {
                let after = |&n| {
                    cpu.exec(n);
                    cpu.now()
                };
                program.iter().map(after).collect::<Vec<u64>>()
            });
            let (mut clock, mut carry) = (0, 0);
            let want: Vec<u64> = program.iter().map(|n| {
                let total = carry + n * tick;
                clock += total / ipc;
                carry = total % ipc;
                clock
            }).collect();
            proptest::prop_assert_eq!(clocks, want);
        }
    }

    #[test]
    fn exec_amortizes_at_ipc() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| {
            let ipc = cpu.cost_model().ipc;
            let t0 = cpu.now();
            for _ in 0..30 {
                cpu.exec(1);
            }
            assert_eq!(cpu.now() - t0, 30 / ipc, "30 instructions at IPC");
        });
    }
}
