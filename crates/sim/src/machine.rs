//! The simulated machine and its deterministic scheduler.
//!
//! Workloads run as ordinary Rust closures, but every simulated operation
//! is admitted by a *conservative logical-clock gate*: the core with the
//! smallest `(clock, core_id)` pair executes its next operation, pays its
//! cycle cost, and hands off to the next core. Given
//! deterministic workload code, the interleaving of simulated operations —
//! and therefore every cache, coherence, and mark-bit event — is fully
//! deterministic and reproducible, which the paper's §7.4 argues is
//! essential for observing spurious-abort effects ("this also shows the
//! importance of precise simulation").
//!
//! # Where the cores run
//!
//! The schedule is a function of simulated state only: every decision
//! reads `SimState` (clocks, activity, the seeded policy layers) and
//! nothing of the host. How the admitted core then gets to *execute* is
//! the business of `gate.rs`. On x86-64 Unix the cores of a run are
//! cooperatively switched contexts on the thread that called
//! [`Machine::run`]: a core whose turn it is not switches directly to the
//! core whose turn it is, and a finished worker switches to the next one
//! or back to the caller. Exactly one core's code runs at any host moment,
//! so determinism needs no argument about locks, wakeups or memory
//! ordering — host code between gated ops cannot race either. (Elsewhere
//! each core is a host thread parked on a condition variable; the
//! schedule, and every simulated number, is the same.) A run of one worker
//! is simply a call of its closure on the caller's stack.
//!
//! The state sits in `gate.rs`'s `StateCell`, and whoever touches it holds
//! the cell's guard. Every op is admitted by `SimState::admission`, with
//! one exception: a core that is the only active core keeps its guard from
//! op to op until its worker ends (`Cpu::finish`) — cores activate only at
//! run start, so a core that is alone stays alone. With contexts the cell
//! is a `RefCell` — one host thread, so exclusive access is a checked
//! borrow and nothing is ever waited for; the one rule is that a core never
//! switches away while holding the guard (`Shared::wait_turn` is reached
//! only with no guard kept, and asserts it in debug builds). With threads
//! it is the mutex the gate blocks on. Everything that takes
//! `&mut Machine` reaches the state with no guard at all.

use crate::config::{FaultEvent, FaultKind, MachineConfig, Preemption, SchedulePolicy};
use crate::cpu::Cpu;
use crate::gate::{StateCell, Turns};
use crate::heap::SimHeap;
use crate::hierarchy::MemSystem;
use crate::mem::Memory;
use crate::stats::RunReport;

/// Upper bound (exclusive) on the per-core priority jitter drawn by the
/// fuzzed scheduler, in cycles. Large enough to reorder cores whose clocks
/// are within a typical memory-access latency of each other, small enough
/// that the schedule still respects coarse logical-time ordering (a core
/// that `tick`s far ahead still runs last).
const FUZZ_JITTER_RANGE: u64 = 64;

/// One in this many completed operations injects cache pressure under the
/// fuzzed scheduler (a spurious L1 eviction or L2 back-invalidation).
const FUZZ_PRESSURE_PERIOD: u64 = 24;

/// Horizon (exclusive) from which [`SchedulePolicy::Pct`] draws its
/// priority-change points, in global gated ops. Classical PCT draws change
/// points from the run's exact op count `k`, which the simulator cannot
/// know up front; a fixed horizon keeps the policy a pure function of
/// `(seed, depth)`. Sized to cover the small workloads schedule search
/// targets (a few hundred to ~1k gated ops) — change points drawn past the
/// end of a shorter run simply never fire, exactly as classical PCT treats
/// an overestimated `k`.
pub const PCT_CHANGE_HORIZON: u64 = 1024;

/// Priority bit that demotes every non-favored core while an explicit
/// preemption directive is in force. Logical clocks stay far below this,
/// so favored-mode priorities never collide with clock-based ones.
const FAVOR_DEMOTED: u64 = 1 << 63;

/// Stall length (in cycles of one `Cpu::tick`) at or above which a
/// PCT-scheduled core counts as *yielding* and is demoted below every
/// other core — PCT's standard treatment of yields. Strict rank priority
/// would otherwise let a spin-waiting core starve the very core it waits
/// on (livelock): every unbounded wait loop in this repository backs off
/// with ticks that reach at least 16 cycles (spinlock exponential backoff,
/// STM/HTM contention waits), so each spin
/// iteration demotes the waiter and the owner runs.
pub(crate) const PCT_YIELD_CYCLES: u64 = 16;

/// SplitMix64: a full-period 64-bit PRNG in three multiplies. Shared by
/// every seeded scheduler layer so replays depend only on the seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// State of the seeded schedule-perturbation layer
/// ([`SchedulePolicy::Fuzzed`]).
///
/// All draws happen under the machine's state mutex, in the order the gate
/// admits cores, so the perturbation sequence is a pure function of the
/// seed and the workload — fully replayable.
pub(crate) struct FuzzState {
    /// SplitMix64 PRNG state.
    rng: u64,
    /// Current per-core gate-priority jitter, re-drawn after each op.
    jitter: Vec<u64>,
}

impl FuzzState {
    fn new(seed: u64, cores: usize) -> Self {
        let mut f = FuzzState {
            rng: seed,
            jitter: vec![0; cores],
        };
        for c in 0..cores {
            f.jitter[c] = f.next() % FUZZ_JITTER_RANGE;
        }
        f
    }

    fn next(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }
}

/// State of the PCT scheduler ([`SchedulePolicy::Pct`]): a random priority
/// rank per core (lower runs first) plus `depth - 1` sorted change points.
/// Rebuilt from the seed at the start of every [`Machine::run`], so each
/// run — in particular the measured run after a setup run — replays the
/// same rank permutation and change points.
pub(crate) struct PctState {
    /// Current priority rank of each core; lower rank wins the gate.
    ranks: Vec<u64>,
    /// Sorted global op indices at which the running core is demoted.
    change_points: Vec<u64>,
    /// Next unfired entry of `change_points`.
    next_change: usize,
    /// Rank handed to the next demoted core: starts past every initial
    /// rank, so each demotion sends the core below all others.
    next_demote: u64,
}

impl PctState {
    fn new(seed: u64, depth: u32, cores: usize) -> Self {
        let mut rng = seed;
        // Fisher–Yates permutation of 0..cores as the initial ranks.
        let mut ranks: Vec<u64> = (0..cores as u64).collect();
        for i in (1..cores).rev() {
            let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
            ranks.swap(i, j);
        }
        let mut change_points: Vec<u64> = (0..depth.saturating_sub(1))
            .map(|_| splitmix64(&mut rng) % PCT_CHANGE_HORIZON)
            .collect();
        change_points.sort_unstable();
        PctState {
            ranks,
            change_points,
            next_change: 0,
            next_demote: cores as u64,
        }
    }
}

pub(crate) struct SimState {
    pub(crate) mem: Memory,
    pub(crate) sys: MemSystem,
    pub(crate) clocks: Vec<u64>,
    pub(crate) active: Vec<bool>,
    /// Number of `true` entries in `active`, maintained by `Machine::run`
    /// and the workers' deactivation guards. Lets the gate skip the
    /// minimality scan when a single core is running (every
    /// populate/digest phase, and all 1-thread cells).
    pub(crate) active_count: usize,
    /// Monotonic count of [`Machine::run`] invocations. Logical clocks
    /// reset to zero at each run, so `(run_epoch, clock)` is what uniquely
    /// orders events across a machine's whole lifetime (used by
    /// verification layers that correlate events across runs).
    pub(crate) run_epoch: u64,
    /// Seeded scheduler perturbation; `None` under
    /// [`SchedulePolicy::Deterministic`] (that path is bit-identical to
    /// the historical scheduler).
    pub(crate) fuzz: Option<FuzzState>,
    /// PCT scheduler state; `None` unless [`SchedulePolicy::Pct`]. Rebuilt
    /// from the seed at the start of each run.
    pub(crate) pct: Option<PctState>,
    /// Global count of gated ops completed in the current run.
    pub(crate) op_count: u64,
    /// Explicit preemption trace (sorted by `at_op`); see
    /// [`Machine::set_preemptions`].
    preemptions: Vec<Preemption>,
    /// Next unfired entry of `preemptions`.
    trace_pos: usize,
    /// Core currently favored by the preemption trace: it runs
    /// exclusively, overriding every schedule policy. Always an active
    /// core: the pin ends (`SimState::end_pin`) when it stalls or finishes,
    /// and a directive naming a finished core ends it too.
    favored: Option<usize>,
    /// Fault-injection plan (sorted by `at_op`); see
    /// [`Machine::set_faults`].
    faults: Vec<FaultEvent>,
    /// Next unfired entry of `faults`.
    fault_pos: usize,
    /// End time (cycles) of the latest completed op (kept on runs that are
    /// not plain). PCT ranks and a preemption trace's favored pin admit
    /// cores out of clock order; a core admitted with a lagging clock was
    /// descheduled, not executing in the past, so its clock jumps to this
    /// watermark at admission, and every waiting core's does when a pin
    /// ends. That keeps per-core clocks embeddable in one global timeline —
    /// the property the serializability oracle's commit-window analysis
    /// relies on.
    serial_now: u64,
}

impl SimState {
    /// Gate priority of `core` (lower wins). In order of precedence: an
    /// in-force preemption directive pins the favored core to priority 0
    /// and demotes everyone else; under PCT the priority is the core's
    /// current rank; otherwise it is the logical clock, plus the fuzzed
    /// jitter term when schedule perturbation is on.
    fn priority(&self, core: usize) -> u64 {
        if let Some(f) = self.favored {
            return if core == f {
                0
            } else {
                self.clocks[core] | FAVOR_DEMOTED
            };
        }
        if let Some(pct) = &self.pct {
            return pct.ranks[core];
        }
        let jitter = self.fuzz.as_ref().map_or(0, |f| f.jitter[core]);
        self.clocks[core] + jitter
    }

    /// Whether any scheduling layer can change priorities (or must observe
    /// state) between ops: a jitter re-draw, PCT demotion, preemption
    /// directive or fault can fire after any op, so even a core that runs
    /// alone hands off after every op.
    pub(crate) fn dynamic_schedule(&self) -> bool {
        self.fuzz.is_some()
            || self.pct.is_some()
            || !self.preemptions.is_empty()
            || !self.faults.is_empty()
    }

    /// Whether [`SimState::after_op`] has nothing to do in this run but
    /// count the op: no dynamic schedule layer and no tracing. Both are
    /// installed through `&mut Machine`, between runs, so the answer holds
    /// from a run's first admission to its last.
    pub(crate) fn plain_run(&self) -> bool {
        !self.dynamic_schedule() && !self.sys.tracing()
    }

    /// Whether every priority is the core's clock: no favored pin, PCT
    /// rank or fuzz jitter is installed. The pin can start and end within
    /// a run; the other two are fixed from a run's first admission to its
    /// last.
    #[inline]
    fn clock_priorities(&self) -> bool {
        self.favored.is_none() && self.pct.is_none() && self.fuzz.is_none()
    }

    /// Minimal `(priority, id)` among active cores — the core the gate
    /// admits next. `None` when no core is active. One pass, computing
    /// each active core's priority once; on clock priorities it compares
    /// `(clock, id)` directly.
    #[inline(always)]
    pub(crate) fn min_active(&self) -> Option<(u64, usize)> {
        if self.clock_priorities() {
            self.min_active_by(|id| self.clocks[id])
        } else {
            self.min_active_by(|id| self.priority(id))
        }
    }

    /// Minimal `(priority(id), id)` over the active cores. Ids are visited
    /// in increasing order, so a tie keeps the earlier core.
    #[inline(always)]
    fn min_active_by(&self, priority: impl Fn(usize) -> u64) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for (id, &active) in self.active.iter().enumerate() {
            if active {
                let p = priority(id);
                if best.is_none_or(|(b, _)| p < b) {
                    best = Some((p, id));
                }
            }
        }
        best
    }

    /// The gate's decision for active core `core`: `Ok` when it is the
    /// minimal active core, or `Err` with the core it must wait for.
    #[inline]
    pub(crate) fn admission(&self, core: usize) -> Result<(), usize> {
        debug_assert!(
            self.active[core],
            "core {core} asks for a turn while inactive"
        );
        // Fast path: a sole active core never has anyone to defer to.
        if self.active_count == 1 {
            return Ok(());
        }
        match self.min_active() {
            Some((_, id)) if id != core => Err(id),
            _ => Ok(()),
        }
    }

    /// Adds `cycles` of stalls, `ops` of them, that `core` deferred to its
    /// clock and to the op count.
    #[inline]
    pub(crate) fn add_stalls(&mut self, core: usize, cycles: u64, ops: u64) {
        self.clocks[core] += cycles;
        self.op_count += ops;
    }

    /// Admission hook: while cores are admitted by rank rather than clock
    /// (under PCT, or while a preemption directive's pin is in force),
    /// pulls the admitted core's clock up to the end of the latest
    /// completed op, so an op's cycle window never precedes work that was
    /// admitted before it. Outside a pin the clocks order admission again,
    /// and a core's stall must not move anyone else's clock: otherwise
    /// backoff never separates contenders.
    pub(crate) fn note_admission(&mut self, core: usize) {
        if (self.pct.is_some() || self.favored.is_some()) && self.clocks[core] < self.serial_now {
            self.clocks[core] = self.serial_now;
        }
    }

    /// Ends the preemption pin, if one is in force: raises every active
    /// core's clock to the watermark once, so the cores that waited out the
    /// pin resume after the work it admitted, and the clocks stay
    /// embeddable in one timeline.
    fn end_pin(&mut self) {
        if self.favored.take().is_some() {
            for (clock, &active) in self.clocks.iter_mut().zip(&self.active) {
                if active && *clock < self.serial_now {
                    *clock = self.serial_now;
                }
            }
        }
    }

    /// Post-operation hook, called by the CPU layer (under the state lock)
    /// each time `core` completes one simulated operation. Advances the
    /// global op counter, fires due preemption directives / fault events /
    /// PCT change points, under the fuzzed scheduler re-draws the core's
    /// priority jitter and occasionally injects cache pressure, and routes
    /// the op's trace events.
    pub(crate) fn after_op(&mut self, core: usize) {
        self.op_count += 1;
        self.serial_now = self.serial_now.max(self.clocks[core]);
        self.fire_due_events();
        if let Some(pct) = &mut self.pct {
            // Each change point the run crosses demotes the *currently
            // running* core below every other, per the PCT algorithm.
            while pct.next_change < pct.change_points.len()
                && self.op_count >= pct.change_points[pct.next_change]
            {
                pct.ranks[core] = pct.next_demote;
                pct.next_demote += 1;
                pct.next_change += 1;
            }
        }
        if let Some(fuzz) = &mut self.fuzz {
            fuzz.jitter[core] = fuzz.next() % FUZZ_JITTER_RANGE;
            let roll = fuzz.next();
            if roll % FUZZ_PRESSURE_PERIOD == 0 {
                let nth = (roll >> 32) as usize;
                if roll % (2 * FUZZ_PRESSURE_PERIOD) == 0 {
                    self.sys.inject_back_invalidation(nth);
                } else {
                    self.sys.inject_l1_eviction(core, nth);
                }
            }
        }
        if self.sys.tracing() {
            // Record the gate admission and route everything this op staged
            // (including injected-fault fallout above) at the executing
            // core's clock. Purely observational: never a gated op itself.
            let cycle = self.clocks[core];
            self.sys.trace_op_end(core, self.op_count - 1, cycle);
        }
    }

    /// Yield hook ([`PCT_YIELD_CYCLES`]): called by `Cpu::tick` for long
    /// stalls (spin backoff, contention probes, retry backoff). Under PCT
    /// it demotes `core` below every other core, as PCT demotes a thread
    /// at an explicit yield. Under a preemption trace it releases the
    /// favored pin when the *favored* core stalls — otherwise a favored
    /// core spinning on a lock or record held by a demoted core would
    /// starve the owner forever. Both effects are deterministic functions
    /// of the executed ops, so replays and the exhaustive explorer see
    /// identical behavior.
    pub(crate) fn pct_note_yield(&mut self, core: usize) {
        if let Some(pct) = &mut self.pct {
            pct.ranks[core] = pct.next_demote;
            pct.next_demote += 1;
        }
        if self.favored == Some(core) {
            self.end_pin();
        }
    }

    /// Fires every preemption directive and fault event whose `at_op` the
    /// global op counter has reached. Called after each gated op and once
    /// at run start (so `at_op == 0` entries apply before the first op).
    fn fire_due_events(&mut self) {
        while self.trace_pos < self.preemptions.len()
            && self.preemptions[self.trace_pos].at_op <= self.op_count
        {
            let core = self.preemptions[self.trace_pos].core;
            self.trace_pos += 1;
            if self.active[core] {
                self.favored = Some(core);
            } else {
                self.end_pin();
            }
        }
        while self.fault_pos < self.faults.len()
            && self.faults[self.fault_pos].at_op <= self.op_count
        {
            let ev = self.faults[self.fault_pos];
            self.fault_pos += 1;
            match ev.kind {
                FaultKind::EvictL1 { nth } => {
                    self.sys.inject_l1_eviction(ev.core, nth);
                }
                FaultKind::BackInvalidate { nth } => {
                    self.sys.inject_back_invalidation(nth);
                }
                FaultKind::SpuriousAbort => {
                    self.sys.inject_spurious_abort(ev.core);
                }
            }
        }
    }
}

pub(crate) struct Shared {
    pub(crate) state: StateCell,
    /// Host side of the gate: what the cores run on and how they wait
    /// (see `gate.rs`, which also holds `wait_turn` and `handoff`).
    pub(crate) turns: Turns,
}

impl Shared {
    /// One core's part of a run: `worker` on a fresh [`Cpu`], then — on
    /// return *and* on panic, so the other cores' waits never wedge — the
    /// core's deactivation.
    pub(crate) fn run_core(&self, id: usize, worker: WorkerFn<'_>) {
        struct Deactivate<'a>(&'a Shared, usize);
        impl Drop for Deactivate<'_> {
            fn drop(&mut self) {
                let Deactivate(shared, id) = *self;
                let mut st = shared.state.lock();
                if st.active[id] {
                    st.active[id] = false;
                    st.active_count -= 1;
                }
                if st.favored == Some(id) {
                    st.end_pin();
                }
                // Deactivation can promote another core to minimal.
                shared.handoff(st, id);
            }
        }
        let _guard = Deactivate(self, id);
        // Dropped before the guard, releasing a guard it still keeps.
        let mut cpu = Cpu::new(id, self);
        worker(&mut cpu);
    }
}

/// A worker closure run on one simulated core.
pub type WorkerFn<'env> = Box<dyn FnOnce(&mut Cpu) + Send + 'env>;

/// A simulated multi-core machine.
///
/// Memory contents, cache state, and mark state *persist across
/// [`Machine::run`] calls*, so an experiment can populate a data structure
/// in a setup run and then measure a separate timed run, as the paper does
/// ("all the data structures were populated before the experimental run").
/// Statistics are reset at the start of each run.
///
/// # Examples
///
/// ```
/// use hastm_sim::{Addr, Machine, MachineConfig};
///
/// let mut machine = Machine::new(MachineConfig::with_cores(2));
/// let report = machine.run(vec![
///     Box::new(|cpu: &mut hastm_sim::Cpu| {
///         cpu.store_u64(Addr(0x100), 7);
///     }),
///     Box::new(|cpu: &mut hastm_sim::Cpu| {
///         cpu.tick(1000); // run after the store in logical time
///         assert_eq!(cpu.load_u64(Addr(0x100)), 7);
///     }),
/// ]);
/// assert!(report.makespan() > 0);
/// ```
pub struct Machine {
    config: MachineConfig,
    shared: Shared,
    heap: SimHeap,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds a machine from `config`.
    pub fn new(config: MachineConfig) -> Self {
        let fuzz = match config.schedule {
            SchedulePolicy::Deterministic | SchedulePolicy::Pct { .. } => None,
            SchedulePolicy::Fuzzed { seed } => Some(FuzzState::new(seed, config.cores)),
        };
        let state = SimState {
            mem: Memory::new(),
            sys: MemSystem::new(&config),
            clocks: vec![0; config.cores],
            active: vec![false; config.cores],
            active_count: 0,
            run_epoch: 0,
            fuzz,
            pct: None,
            op_count: 0,
            preemptions: Vec::new(),
            trace_pos: 0,
            favored: None,
            serial_now: 0,
            faults: Vec::new(),
            fault_pos: 0,
        };
        Machine {
            shared: Shared {
                state: StateCell::new(state),
                turns: Turns::new(config.cores),
            },
            config,
            heap: SimHeap::new(),
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// A handle to the machine's simulated heap. Handles are cheap to clone
    /// and can be captured by worker closures.
    pub fn heap(&self) -> SimHeap {
        self.heap.clone()
    }

    /// Empties all caches (cold-start the next run). Mark counters are
    /// bumped for lost marked lines, as a real flush would.
    pub fn flush_caches(&mut self) {
        self.shared.state.get_mut().sys.flush_caches();
    }

    /// Replaces the preemption trace applied to subsequent runs (`trace`
    /// must be sorted by `at_op`). Lets a harness run setup phases
    /// unsteered and install the trace for the measured run only.
    pub fn set_preemptions(&mut self, trace: Vec<Preemption>) {
        debug_assert!(
            trace.windows(2).all(|w| w[0].at_op <= w[1].at_op),
            "preemption trace must be sorted by at_op"
        );
        self.shared.state.get_mut().preemptions = trace;
    }

    /// Replaces the fault-injection plan applied to subsequent runs
    /// (`plan` must be sorted by `at_op`).
    pub fn set_faults(&mut self, plan: Vec<FaultEvent>) {
        debug_assert!(
            plan.windows(2).all(|w| w[0].at_op <= w[1].at_op),
            "fault plan must be sorted by at_op"
        );
        self.shared.state.get_mut().faults = plan;
    }

    /// Arms (with `Some`) or disarms (with `None`) structured event tracing
    /// for subsequent runs. Lets a harness run setup phases untraced and
    /// trace the measured run only. Tracing is purely observational: it
    /// charges no cycles, gates no ops, and leaves the simulated run
    /// bit-identical to an untraced run.
    pub fn set_tracing(&mut self, config: Option<crate::trace::TraceConfig>) {
        self.shared.state.get_mut().sys.set_trace(config);
    }

    /// Harvests the trace recorded by the most recent run (the recorder
    /// stays armed and empty). `None` unless tracing is armed.
    pub fn take_trace(&mut self) -> Option<crate::trace::TraceLog> {
        self.shared.state.get_mut().sys.take_trace()
    }

    /// Runs one closure per core, gated by the deterministic scheduler, and
    /// returns the per-run statistics.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty or larger than the configured core
    /// count, or if any worker panics (the first panic is re-raised once
    /// the remaining workers have run to completion).
    pub fn run<'env>(&mut self, mut workers: Vec<WorkerFn<'env>>) -> RunReport {
        let n = workers.len();
        assert!(
            n >= 1 && n <= self.config.cores,
            "worker count {n} must be in 1..={}",
            self.config.cores
        );
        {
            let st = self.shared.state.get_mut();
            st.sys.reset_stats();
            st.run_epoch += 1;
            for c in 0..self.config.cores {
                st.clocks[c] = 0;
                st.active[c] = c < n;
            }
            st.active_count = n;
            // Schedule-exploration state is per-run: the op counter,
            // preemption trace, fault plan, and PCT ranks/change points all
            // restart, so a plan installed between runs targets exactly the
            // next run (and two identical runs replay identically).
            st.op_count = 0;
            st.trace_pos = 0;
            st.fault_pos = 0;
            st.favored = None;
            st.serial_now = 0;
            st.pct = match self.config.schedule {
                SchedulePolicy::Pct { seed, depth } => {
                    Some(PctState::new(seed, depth, self.config.cores))
                }
                _ => None,
            };
            st.sys.trace_reset();
            st.fire_due_events();
            // Events staged by at_op==0 faults above carry cycle 0.
            st.sys.trace_flush(0);
        }

        if n == 1 {
            // Nobody to take turns with: the worker is a plain call.
            let worker = workers.pop().expect("n == 1");
            self.shared.run_core(0, worker);
        } else if let Err(payload) = self.shared.run_workers(workers) {
            std::panic::resume_unwind(payload);
        }

        let st = self.shared.state.get_mut();
        let mut report = RunReport {
            cores: st.sys.core_stats.clone(),
            machine: st.sys.machine_stats.clone(),
        };
        for (c, stats) in report.cores.iter_mut().enumerate() {
            stats.cycles = st.clocks[c];
        }
        report.cores.truncate(n);
        report
    }

    /// Runs a single worker on core 0 and returns its value along with the
    /// run report. Convenient for setup phases and single-thread
    /// experiments.
    pub fn run_one<R, F>(&mut self, f: F) -> (R, RunReport)
    where
        R: Send,
        F: FnOnce(&mut Cpu) -> R + Send,
    {
        let mut out: Option<R> = None;
        let report = {
            let slot = &mut out;
            self.run(vec![Box::new(move |cpu: &mut Cpu| {
                *slot = Some(f(cpu));
            })])
        };
        (out.expect("worker ran"), report)
    }

    /// The current run epoch: how many [`Machine::run`] calls have started.
    /// Clocks reset each run, so `(run_epoch, clock)` orders events across
    /// the machine's lifetime.
    pub fn run_epoch(&self) -> u64 {
        self.shared.state.lock().run_epoch
    }

    /// Reads a `u64` from simulated memory without going through a core
    /// (no timing effects). Intended for test assertions and result
    /// extraction after a run.
    pub fn peek_u64(&self, addr: crate::addr::Addr) -> u64 {
        self.shared.state.lock().mem.read_u64(addr)
    }

    /// Pages of simulated memory materialized so far: a page is only at
    /// its first write.
    pub fn resident_pages(&self) -> usize {
        self.shared.state.lock().mem.resident_pages()
    }

    /// Writes a `u64` to simulated memory without timing effects. Intended
    /// for test setup. Does not invalidate cached copies; use only before
    /// the first run touching `addr`.
    pub fn poke_u64(&mut self, addr: crate::addr::Addr, value: u64) {
        self.shared.state.get_mut().mem.write_u64(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    /// The gate's decision as the general rule states it, in two scans:
    /// the minimal `(priority, id)` among `core`'s active competitors, and
    /// whether it is ahead of `core`'s own.
    fn admission_by_the_priority_rule(st: &SimState, core: usize) -> Result<(), usize> {
        let others = (0..st.clocks.len()).filter(|&id| st.active[id] && id != core);
        match others.map(|id| (st.priority(id), id)).min() {
            Some(ahead) if ahead < (st.priority(core), core) => Err(ahead.1),
            _ => Ok(()),
        }
    }

    /// `SimState::admission` scans once and, with no favored pin, PCT rank
    /// or jitter installed, compares clocks without asking `priority`.
    /// Random states on 1–8 cores — clocks drawn from a narrow range so
    /// ties are common, or a wide one; inactive cores; and each layer,
    /// alone or under a pin — must reach the general rule's decision, for
    /// every active core, and name the same next core.
    #[test]
    fn clock_only_admission_matches_the_priority_rule() {
        let mut rng = 0x00ad_1551_0e0e_u64;
        let mut layers_seen = [0u32; 4];
        for case in 0..20_000u32 {
            let cores = 1 + (splitmix64(&mut rng) % 8) as usize;
            let mut m = Machine::new(MachineConfig::with_cores(cores));
            let st = m.shared.state.get_mut();
            let span = if case % 2 == 0 { 4 } else { 1 << 40 };
            for c in 0..cores {
                st.clocks[c] = splitmix64(&mut rng) % span;
                st.active[c] = !splitmix64(&mut rng).is_multiple_of(4);
            }
            let first = (splitmix64(&mut rng) % cores as u64) as usize;
            st.active[first] = true;
            st.active_count = st.active.iter().filter(|&&a| a).count();
            let layer = (splitmix64(&mut rng) % 4) as usize;
            layers_seen[layer] += 1;
            match layer {
                0 => {}
                1 => {
                    let mut pct = PctState::new(splitmix64(&mut rng), 3, cores);
                    for rank in &mut pct.ranks {
                        *rank = splitmix64(&mut rng) % (cores as u64 + 2);
                    }
                    st.pct = Some(pct);
                }
                2 => st.fuzz = Some(FuzzState::new(splitmix64(&mut rng), cores)),
                _ => {}
            }
            if layer == 3 || splitmix64(&mut rng).is_multiple_of(4) {
                st.favored = Some(first);
            }
            let st = &*st;
            let reference = (0..cores)
                .filter(|&id| st.active[id])
                .map(|id| (st.priority(id), id))
                .min();
            assert_eq!(
                st.min_active().map(|(_, id)| id),
                reference.map(|(_, id)| id)
            );
            for core in (0..cores).filter(|&c| st.active[c]) {
                assert_eq!(
                    st.admission(core),
                    admission_by_the_priority_rule(st, core),
                    "case {case}: core {core} of {cores}, clocks {:?}, active {:?}",
                    st.clocks,
                    st.active
                );
            }
        }
        assert!(layers_seen.iter().all(|&n| n > 4_000), "{layers_seen:?}");
    }

    #[test]
    fn single_worker_runs_and_reports() {
        let mut m = Machine::new(MachineConfig::default());
        let (val, report) = m.run_one(|cpu| {
            cpu.store_u64(Addr(0x40), 42);
            cpu.load_u64(Addr(0x40))
        });
        assert_eq!(val, 42);
        assert_eq!(report.cores.len(), 1);
        assert!(report.makespan() > 0);
        assert_eq!(report.cores[0].stores, 1);
        assert_eq!(report.cores[0].loads, 1);
    }

    #[test]
    fn state_persists_across_runs() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| cpu.store_u64(Addr(0x80), 9));
        let (v, report) = m.run_one(|cpu| cpu.load_u64(Addr(0x80)));
        assert_eq!(v, 9);
        // Warm hit: the line stayed cached from the previous run.
        assert_eq!(report.cores[0].l1_hits, 1);
        assert_eq!(report.cores[0].l1_misses, 0);
    }

    #[test]
    fn flush_makes_next_access_cold() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| cpu.store_u64(Addr(0x80), 9));
        m.flush_caches();
        let (_, report) = m.run_one(|cpu| cpu.load_u64(Addr(0x80)));
        assert_eq!(report.cores[0].l1_misses, 1);
    }

    #[test]
    fn deterministic_interleaving() {
        // Two cores race increments on the same location with CAS; the
        // logical-clock gate makes the outcome identical across runs.
        fn race() -> (u64, u64) {
            let mut m = Machine::new(MachineConfig::with_cores(2));
            let report = m.run(
                (0..2)
                    .map(|_| {
                        Box::new(|cpu: &mut Cpu| {
                            for _ in 0..50 {
                                loop {
                                    let v = cpu.load_u64(Addr(0x100));
                                    if cpu.cas_u64(Addr(0x100), v, v + 1) == v {
                                        break;
                                    }
                                }
                            }
                        }) as WorkerFn<'_>
                    })
                    .collect(),
            );
            (m.peek_u64(Addr(0x100)), report.makespan())
        }
        let (v1, t1) = race();
        let (v2, t2) = race();
        assert_eq!(v1, 100);
        assert_eq!((v1, t1), (v2, t2), "simulation must be deterministic");
    }

    #[test]
    fn logical_time_ordering() {
        // Worker 1 waits 10_000 cycles, so worker 0's store is ordered first.
        let mut m = Machine::new(MachineConfig::with_cores(2));
        m.run(vec![
            Box::new(|cpu: &mut Cpu| {
                cpu.store_u64(Addr(0x200), 5);
            }),
            Box::new(|cpu: &mut Cpu| {
                cpu.tick(10_000);
                assert_eq!(cpu.load_u64(Addr(0x200)), 5);
            }),
        ]);
    }

    /// Shared harness for the scheduler tests: two cores race CAS
    /// increments; returns the final count and the makespan.
    fn cas_race(schedule: crate::config::SchedulePolicy) -> (u64, u64) {
        let mut m = Machine::new(MachineConfig {
            schedule,
            ..MachineConfig::with_cores(2)
        });
        let report = m.run(
            (0..2)
                .map(|_| {
                    Box::new(|cpu: &mut Cpu| {
                        for _ in 0..50 {
                            loop {
                                let v = cpu.load_u64(Addr(0x100));
                                if cpu.cas_u64(Addr(0x100), v, v + 1) == v {
                                    break;
                                }
                            }
                        }
                    }) as WorkerFn<'_>
                })
                .collect(),
        );
        (m.peek_u64(Addr(0x100)), report.makespan())
    }

    #[test]
    fn fuzzed_schedule_is_replayable_from_its_seed() {
        use crate::config::SchedulePolicy;
        let a = cas_race(SchedulePolicy::Fuzzed { seed: 0xf00d });
        let b = cas_race(SchedulePolicy::Fuzzed { seed: 0xf00d });
        assert_eq!(a.0, 100, "no increment may be lost under fuzzing");
        assert_eq!(a, b, "same seed must replay the same run exactly");
    }

    #[test]
    fn fuzz_seeds_explore_different_schedules() {
        use crate::config::SchedulePolicy;
        let base = cas_race(SchedulePolicy::Deterministic);
        assert_eq!(base.0, 100);
        // Across several seeds, at least one must diverge in timing from
        // the canonical schedule (that's the entire point of fuzzing);
        // every seed must still preserve the program's answer.
        let mut saw_divergence = false;
        for seed in 0..8u64 {
            let f = cas_race(SchedulePolicy::Fuzzed { seed });
            assert_eq!(f.0, 100, "seed {seed} lost an increment");
            saw_divergence |= f.1 != base.1;
        }
        assert!(saw_divergence, "no fuzz seed perturbed the schedule");
    }

    #[test]
    fn pct_schedule_is_replayable_from_its_seed() {
        use crate::config::SchedulePolicy;
        for depth in [1, 2, 3] {
            let policy = SchedulePolicy::Pct {
                seed: 0xabcd,
                depth,
            };
            let a = cas_race(policy);
            let b = cas_race(policy);
            assert_eq!(a.0, 100, "PCT depth {depth} lost an increment");
            assert_eq!(a, b, "PCT depth {depth} must replay exactly");
        }
    }

    #[test]
    fn pct_seeds_explore_different_schedules() {
        use crate::config::SchedulePolicy;
        let base = cas_race(SchedulePolicy::Deterministic);
        let mut saw_divergence = false;
        for seed in 0..8u64 {
            let p = cas_race(SchedulePolicy::Pct { seed, depth: 3 });
            assert_eq!(p.0, 100, "PCT seed {seed} lost an increment");
            saw_divergence |= p.1 != base.1;
        }
        assert!(saw_divergence, "no PCT seed perturbed the schedule");
    }

    #[test]
    fn preemption_trace_favors_a_core() {
        use crate::config::Preemption;
        // Core 0 would normally run first (clock tie broken by id); the
        // directive favors core 1 from op 0, so its store is ordered
        // before core 0's load.
        let mut m = Machine::new(MachineConfig::with_cores(2));
        m.set_preemptions(vec![Preemption { at_op: 0, core: 1 }]);
        m.run(vec![
            Box::new(|cpu: &mut Cpu| {
                assert_eq!(
                    cpu.load_u64(Addr(0x500)),
                    7,
                    "favored core 1 must commit its store first"
                );
            }),
            Box::new(|cpu: &mut Cpu| {
                cpu.store_u64(Addr(0x500), 7);
            }),
        ]);
    }

    #[test]
    fn preemption_trace_switches_at_op_and_is_logged() {
        use crate::config::Preemption;
        let mut m = Machine::new(MachineConfig::with_cores(2));
        m.set_preemptions(vec![
            Preemption { at_op: 0, core: 1 },
            Preemption { at_op: 2, core: 0 },
        ]);
        m.set_tracing(Some(crate::trace::TraceConfig));
        m.run(vec![
            Box::new(|cpu: &mut Cpu| {
                for i in 0..4 {
                    cpu.store_u64(Addr(0x600), i);
                }
            }),
            Box::new(|cpu: &mut Cpu| {
                for i in 0..4 {
                    cpu.store_u64(Addr(0x640), i);
                }
            }),
        ]);
        let log = m.take_trace().expect("armed").schedule();
        let cores: Vec<usize> = log.iter().map(|e| e.core).collect();
        // Core 1 runs ops 0..2, then core 0 is favored for its whole
        // worker, then core 1 drains.
        assert_eq!(cores, vec![1, 1, 0, 0, 0, 0, 1, 1]);
        assert!(log.iter().enumerate().all(|(i, e)| e.op == i as u64));
        assert!(
            log.iter().all(|e| e.line.is_some_and(|(_, w)| w)),
            "every op here is a store and must be logged as a write"
        );
    }

    #[test]
    fn no_trace_without_arming() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| cpu.store_u64(Addr(0x40), 1));
        assert!(m.take_trace().is_none());
    }

    #[test]
    fn fault_plan_evicts_and_back_invalidates() {
        use crate::config::{FaultEvent, FaultKind};
        // Op 1 = reset counter, op 2 = marking load; the fault fires once
        // op 2 completes and evicts the only resident L1 line — the marked
        // one — bumping the counter exactly like an organic eviction.
        let mut m = Machine::new(MachineConfig::default());
        m.set_faults(vec![FaultEvent {
            at_op: 2,
            core: 0,
            kind: FaultKind::EvictL1 { nth: 0 },
        }]);
        let (counter, _) = m.run_one(|cpu| {
            cpu.reset_mark_counter();
            cpu.load_set_mark_u64(Addr(0x700));
            cpu.read_mark_counter()
        });
        assert_eq!(counter, 1, "forced eviction must bump the mark counter");

        let mut m = Machine::new(MachineConfig::default());
        m.set_faults(vec![FaultEvent {
            at_op: 2,
            core: 0,
            kind: FaultKind::BackInvalidate { nth: 0 },
        }]);
        let (counter, _) = m.run_one(|cpu| {
            cpu.reset_mark_counter();
            cpu.load_set_mark_u64(Addr(0x700));
            cpu.read_mark_counter()
        });
        assert_eq!(
            counter, 1,
            "forced back-invalidation must reach the marked L1 copy"
        );
    }

    #[test]
    fn fault_plan_injects_spurious_abort() {
        use crate::config::{FaultEvent, FaultKind};
        use crate::hierarchy::{ViolationCause, WatchKind};
        let mut m = Machine::new(MachineConfig::default());
        m.set_faults(vec![FaultEvent {
            at_op: 1,
            core: 0,
            kind: FaultKind::SpuriousAbort,
        }]);
        let (violation, _) = m.run_one(|cpu| {
            cpu.load_watch_u64(Addr(0x800), WatchKind::Read);
            cpu.violation()
        });
        assert_eq!(
            violation.map(|v| v.cause),
            Some(ViolationCause::Spurious),
            "the watched transaction must observe the injected abort"
        );
    }

    #[test]
    fn spurious_abort_without_watches_is_a_noop() {
        use crate::config::{FaultEvent, FaultKind};
        let mut m = Machine::new(MachineConfig::default());
        m.set_faults(vec![FaultEvent {
            at_op: 1,
            core: 0,
            kind: FaultKind::SpuriousAbort,
        }]);
        let (v, _) = m.run_one(|cpu| {
            cpu.load_u64(Addr(0x800));
            cpu.tick(5);
            cpu.load_u64(Addr(0x840))
        });
        assert_eq!(v, 0, "plain code is unaffected by a spurious abort");
    }

    #[test]
    fn plans_installed_between_runs_target_the_next_run_only() {
        use crate::config::{FaultEvent, FaultKind, Preemption};
        use crate::trace::TraceConfig;
        // `Cpu` decides at gate admission whether the run has any per-op
        // hook (`Cpu::plain`). Each hook is installed on a machine whose
        // previous run was plain: that very run must observe it, and the
        // run after clearing it must be the plain run again, counter for
        // counter.
        const X: Addr = Addr(0xa00);
        const OPS: usize = 14;
        let mut m = Machine::new(MachineConfig::with_cores(2));
        // Core 1 publishes the run's number; core 0's first op reads it.
        // Core 0 goes first on the plain schedule and sees the previous
        // run's number; it sees this run's when core 1 is favored.
        let mut run_no = 0;
        let mut run = |m: &mut Machine| -> (bool, RunReport) {
            run_no += 1;
            m.flush_caches(); // every run starts cold: reports compare
            let mut seen = 0;
            let report = m.run(vec![
                Box::new(|cpu: &mut Cpu| {
                    seen = cpu.load_set_mark_u64(X);
                    for i in 0..6 {
                        cpu.load_set_mark_u64(Addr(0xb00 + i * 64));
                    }
                }),
                Box::new(|cpu: &mut Cpu| {
                    cpu.store_u64(X, run_no);
                    for i in 0..6 {
                        cpu.load_u64(Addr(0xc00 + i * 64));
                    }
                }),
            ]);
            assert!(seen == run_no || seen == run_no - 1);
            (seen == run_no, report)
        };
        type Run<'a> = dyn FnMut(&mut Machine) -> (bool, RunReport) + 'a;
        let run_plain_again = |m: &mut Machine, run: &mut Run, plain: &RunReport, cleared: &str| {
            let (core_1_first, report) = run(m);
            assert!(!core_1_first, "schedule after clearing {cleared}");
            assert_eq!(&report, plain, "report after clearing {cleared}");
            assert!(m.take_trace().is_none(), "{cleared} cleared");
        };

        let (core_1_first, plain) = run(&mut m);
        assert!(!core_1_first);

        m.set_tracing(Some(TraceConfig));
        let (_, traced) = run(&mut m);
        let log = m.take_trace().expect("armed");
        assert_eq!(log.schedule().len(), OPS, "every op of that run");
        assert_eq!(traced, plain, "tracing only observes");
        m.set_tracing(None);
        run_plain_again(&mut m, &mut run, &plain, "tracing");

        // Late in the run every line in core 0's L1 is marked.
        m.set_faults(vec![FaultEvent {
            at_op: OPS as u64 - 2,
            core: 0,
            kind: FaultKind::EvictL1 { nth: 0 },
        }]);
        let (_, faulted) = run(&mut m);
        assert_eq!(
            faulted.cores[0].marked_lost_capacity,
            plain.cores[0].marked_lost_capacity + 1,
            "the planted eviction happened in that run"
        );
        m.set_faults(Vec::new());
        run_plain_again(&mut m, &mut run, &plain, "the fault plan");

        m.set_preemptions(vec![Preemption { at_op: 0, core: 1 }]);
        for _ in 0..2 {
            // The trace restarts with every run it stays installed for.
            let (core_1_first, _) = run(&mut m);
            assert!(core_1_first, "the favored core ran first in that run");
        }
        m.set_preemptions(Vec::new());
        run_plain_again(&mut m, &mut run, &plain, "the preemption trace");
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(vec![
                Box::new(|_cpu: &mut Cpu| panic!("boom")),
                Box::new(|cpu: &mut Cpu| {
                    for _ in 0..10 {
                        cpu.load_u64(Addr(0x300));
                    }
                }),
            ]);
        }));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn too_many_workers_rejected() {
        let mut m = Machine::new(MachineConfig::with_cores(1));
        let _ = m.run(vec![
            Box::new(|_: &mut Cpu| {}) as WorkerFn<'_>,
            Box::new(|_: &mut Cpu| {}) as WorkerFn<'_>,
        ]);
    }

    #[test]
    fn stats_reset_between_runs() {
        let mut m = Machine::new(MachineConfig::default());
        m.run_one(|cpu| {
            cpu.load_u64(Addr(0x40));
        });
        let (_, r2) = m.run_one(|cpu| {
            cpu.load_u64(Addr(0x40));
            cpu.load_u64(Addr(0x80));
        });
        assert_eq!(r2.cores[0].loads, 2);
    }

    #[test]
    fn workers_can_borrow_environment() {
        let data = vec![1u64, 2, 3];
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let sum = std::sync::atomic::AtomicU64::new(0);
        m.run(
            (0..2)
                .map(|_| {
                    let data = &data;
                    let sum = &sum;
                    Box::new(move |cpu: &mut Cpu| {
                        cpu.tick(1);
                        sum.fetch_add(
                            data.iter().sum::<u64>(),
                            std::sync::atomic::Ordering::Relaxed,
                        );
                    }) as WorkerFn<'_>
                })
                .collect(),
        );
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 12);
    }
}
