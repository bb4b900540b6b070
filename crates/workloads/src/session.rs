//! The run session: one per backend.
//!
//! Every experiment here is one experiment — hold a workload fixed, swap
//! the scheme underneath it, read the counters — and a session is its
//! harness, written once. [`SimSession`] owns a simulated machine, the STM
//! runtime on it and the global lock; [`NativeSession`] is its twin over
//! the TL2 runtime and host threads. A workload only the simulator runs
//! (the map driver, the synthetic kernels) describes its phases as
//! closures over [`ThreadExec`]; a workload *both* backends run is a
//! [`Definition`], which sits above the sessions so that one definition
//! is what both execute and judge.
//!
//! A session issues no simulated operation of its own: the phase order a
//! caller writes (the map driver's populate → warm-up → measured) is the
//! order of gated ops, and that order is what every golden and pinned
//! fingerprint fixes. What comes after the last run — the digest walk,
//! [`SimSession::judge`], the oracle settling — reads memory at rest
//! ([`AtRest`]) and issues none.

use std::time::{Duration, Instant};

use hastm::{ObjRef, SerializationViolation, StmConfig, StmRuntime, TmContext, TmExec, TxResult};
use hastm_locks::SpinLock;
use hastm_native::{NativeConfig, NativeExec, NativeRuntime, NativeStats};
use hastm_sim::{
    Addr, Cpu, FaultEvent, GateMode, Machine, MachineConfig, Preemption, RunReport, ScheduleEvent,
    SimHeap, TraceConfig, TraceLog, WorkerFn,
};

use crate::scheme::{ExecStats, Scheme, ThreadExec};

/// Extra machinery applied to one [`SimSession::run`] only (sequential
/// phases and every other run stay unperturbed). The empty default is a
/// plain run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunPlan {
    /// Preemption directives, sorted by `at_op` (favored-core switches).
    pub preemptions: Vec<Preemption>,
    /// Fault events, sorted by `at_op` (evictions, back-invalidations,
    /// spurious HTM aborts).
    pub faults: Vec<FaultEvent>,
    /// Record the run's per-op schedule ([`SimRun::schedule`]).
    pub record_schedule: bool,
    /// Record the run's structured event trace ([`SimRun::trace`]).
    pub trace: Option<TraceConfig>,
    /// Gate admission mode of the machine the plan is for. The gate
    /// belongs to the machine, not to a run: whoever builds the session
    /// copies this into its [`MachineConfig`]. No binary sets it; the
    /// gate-equivalence test selects [`GateMode::PerOp`], the reference
    /// schedule the default quantum gate must reproduce op for op.
    pub gate: GateMode,
}

/// What one [`SimSession::run`] produced.
#[derive(Debug)]
pub struct SimRun<T> {
    /// The run's machine report.
    pub report: RunReport,
    /// What each thread's body returned, indexed by core.
    pub outputs: Vec<T>,
    /// Every thread's executor counters, merged.
    pub stats: ExecStats,
    /// The run's event trace (`None` unless the plan armed one).
    pub trace: Option<TraceLog>,
    /// The run's per-op schedule (empty unless the plan recorded it).
    pub schedule: Vec<ScheduleEvent>,
}

/// The simulator session: one machine, the STM runtime on it and the
/// global lock, allocated in that order so every scheme sees one heap
/// layout.
#[derive(Debug)]
pub struct SimSession {
    scheme: Scheme,
    machine: Machine,
    runtime: StmRuntime,
    lock: SpinLock,
}

impl SimSession {
    /// A session of `machine.cores` threads under `scheme`. What a
    /// [`RunPlan`] arms replaces `machine`'s fields of the same names.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` is [`Scheme::Sequential`] with more than one
    /// core.
    pub fn new(scheme: Scheme, machine: MachineConfig, stm: StmConfig) -> Self {
        assert!(
            scheme != Scheme::Sequential || machine.cores == 1,
            "sequential execution is single-threaded"
        );
        let mut machine = Machine::new(machine);
        let runtime = StmRuntime::new(&mut machine, stm);
        let lock = SpinLock::alloc(runtime.heap());
        SimSession {
            scheme,
            machine,
            runtime,
            lock,
        }
    }

    /// The simulated heap, for allocations outside any executor.
    pub fn heap(&self) -> &SimHeap {
        self.runtime.heap()
    }

    /// Runs `phase` on core 0 under [`Scheme::Sequential`] with nothing
    /// armed: the setup and walk phases, whose memory layout and cost must
    /// not depend on the scheme under test.
    pub fn sequential<T: Send>(
        &mut self,
        phase: impl FnOnce(&mut ThreadExec<'_, '_>) -> T + Send,
    ) -> T {
        let (runtime, lock) = (&self.runtime, self.lock);
        let on_core_0 = move |cpu: &mut Cpu| {
            let mut ex = ThreadExec::new(Scheme::Sequential, runtime, cpu, lock);
            phase(&mut ex)
        };
        self.machine.run_one(on_core_0).0
    }

    /// Runs `body(executor, tid)` on every core at once under the
    /// session's scheme, with `plan` armed for this run only.
    ///
    /// # Panics
    ///
    /// Re-raises a body's panic once the other cores have finished.
    pub fn run<T: Send>(
        &mut self,
        plan: &RunPlan,
        body: impl Fn(&mut ThreadExec<'_, '_>, usize) -> T + Sync,
    ) -> SimRun<T> {
        let (scheme, runtime, lock, body) = (self.scheme, &self.runtime, self.lock, &body);
        let machine = &mut self.machine;
        machine.set_preemptions(plan.preemptions.clone());
        machine.set_faults(plan.faults.clone());
        machine.set_record_schedule(plan.record_schedule);
        machine.set_tracing(plan.trace);

        let mut slots: Vec<Option<(T, ExecStats)>> = Vec::new();
        slots.resize_with(machine.config().cores, || None);
        let workers = slots
            .iter_mut()
            .enumerate()
            .map(|(tid, slot)| {
                Box::new(move |cpu: &mut Cpu| {
                    let mut ex = ThreadExec::new(scheme, runtime, cpu, lock);
                    let output = body(&mut ex, tid);
                    *slot = Some((output, ex.stats()));
                }) as WorkerFn<'_>
            })
            .collect();
        let report = machine.run(workers);

        let schedule = machine.take_schedule_log();
        let trace = machine.take_trace();
        machine.set_preemptions(Vec::new());
        machine.set_faults(Vec::new());
        machine.set_record_schedule(false);
        machine.set_tracing(None);

        let mut stats = ExecStats::default();
        let outputs = slots
            .into_iter()
            .map(|slot| {
                let (output, thread_stats) = slot.expect("every core ran its body");
                stats.merge(&thread_stats);
                output
            })
            .collect();
        SimRun {
            report,
            outputs,
            stats,
            trace,
            schedule,
        }
    }

    /// Settles the oracle's deferred serializability obligations against
    /// the committed-write journal, with the machine at rest. Empty unless
    /// the runtime records for the oracle.
    ///
    /// # Panics
    ///
    /// Panics on the first violation under [`hastm::OracleMode::Panic`].
    pub fn settle(&self) -> Vec<SerializationViolation> {
        self.runtime.verify_serializability(&self.machine)
    }

    /// Reads one word of simulated memory at rest, bypassing the TM.
    pub fn peek(&self, addr: Addr) -> u64 {
        self.machine.peek_u64(addr)
    }

    /// An executor over memory at rest, for walking what a finished run
    /// left behind.
    pub fn at_rest(&self) -> AtRest<'_> {
        AtRest(&self.machine)
    }

    /// Sets `w` up sequentially, then runs its bodies under `plan`.
    pub fn run_definition<W: Definition>(
        &mut self,
        w: &W,
        plan: &RunPlan,
    ) -> (W::Shared, SimRun<W::Output>) {
        let shared = self.sequential(|ex| w.setup(ex));
        let run = self.run(plan, |ex, tid| w.body(ex, &shared, tid));
        (shared, run)
    }

    /// Walks `w`'s final state at rest and checks it.
    ///
    /// # Errors
    ///
    /// Returns the invariant [`Definition::check`] found violated.
    pub fn judge<W: Definition>(&self, w: &W, shared: &W::Shared) -> Result<u64, String> {
        let walked = w.walk(&mut self.at_rest(), shared);
        w.check(shared, walked, &|addr| self.peek(addr))
    }
}

/// Simulated memory at rest behind the executor interface, reads only: a
/// walk over it is a series of [`Machine::peek_u64`]s. Walking a finished
/// run's structures through a core instead would put every load through
/// the cache model and the gate, for a report nobody reads.
#[derive(Debug)]
pub struct AtRest<'m>(&'m Machine);

impl TmContext for AtRest<'_> {
    fn ctx_read(&mut self, obj: ObjRef, index: u32) -> TxResult<u64> {
        Ok(self.0.peek_u64(obj.word(index)))
    }

    fn ctx_write(&mut self, _: ObjRef, _: u32, _: u64) -> TxResult<()> {
        panic!("write to memory at rest")
    }

    fn ctx_alloc(&mut self, _: u32) -> ObjRef {
        panic!("allocation in memory at rest")
    }

    fn ctx_work(&mut self, _: u64) {}
}

impl TmExec for AtRest<'_> {
    fn atomic<R>(&mut self, mut f: impl FnMut(&mut dyn TmContext) -> TxResult<R>) -> R {
        f(self).expect("a read of memory at rest cannot abort")
    }

    fn alloc_obj(&mut self, data_words: u32) -> ObjRef {
        self.ctx_alloc(data_words)
    }
}

/// What one [`NativeSession::run`] produced.
#[derive(Debug)]
pub struct NativeRun<T> {
    /// What each thread's body returned, indexed by thread.
    pub outputs: Vec<T>,
    /// Every thread's TL2 counters, merged.
    pub stats: NativeStats,
    /// Host time from the first spawn to the last join.
    pub elapsed: Duration,
}

/// The native session: one TL2 runtime, bodies on host threads.
#[derive(Debug)]
pub struct NativeSession {
    runtime: NativeRuntime,
}

impl NativeSession {
    /// A session over a fresh TL2 runtime.
    pub fn new(config: NativeConfig) -> Self {
        NativeSession {
            runtime: NativeRuntime::new(config),
        }
    }

    /// Runs `phase` on a fresh executor of the calling thread.
    pub fn sequential<T>(&self, phase: impl FnOnce(&mut NativeExec<'_>) -> T) -> T {
        phase(&mut NativeExec::new(&self.runtime))
    }

    /// Runs `body(executor, tid)` on `threads` host threads at once.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero; re-raises a body's panic once every
    /// thread has been joined.
    pub fn run<T: Send>(
        &self,
        threads: usize,
        body: impl Fn(&mut NativeExec<'_>, usize) -> T + Sync,
    ) -> NativeRun<T> {
        assert!(threads >= 1, "a run needs a thread");
        let (runtime, body) = (&self.runtime, &body);
        let start = Instant::now();
        let joined: Vec<_> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..threads)
                .map(|tid| {
                    scope.spawn(move || {
                        let mut ex = NativeExec::new(runtime);
                        let output = body(&mut ex, tid);
                        (output, ex.stats().clone())
                    })
                })
                .collect();
            spawned.into_iter().map(|thread| thread.join()).collect()
        });
        let elapsed = start.elapsed();
        let mut stats = NativeStats::default();
        let outputs = joined
            .into_iter()
            .map(|thread| {
                let (output, thread_stats) =
                    thread.unwrap_or_else(|p| std::panic::resume_unwind(p));
                stats.merge(&thread_stats);
                output
            })
            .collect();
        NativeRun {
            outputs,
            stats,
            elapsed,
        }
    }

    /// Reads one word of the heap at rest, bypassing the TM.
    pub fn peek(&self, addr: Addr) -> u64 {
        self.runtime.peek(addr)
    }

    /// Sets `w` up on the calling thread, then runs its bodies on
    /// `threads` host threads.
    pub fn run_definition<W: Definition>(
        &self,
        w: &W,
        threads: usize,
    ) -> (W::Shared, NativeRun<W::Output>) {
        let shared = self.sequential(|ex| w.setup(ex));
        let run = self.run(threads, |ex, tid| w.body(ex, &shared, tid));
        (shared, run)
    }

    /// Walks `w`'s final state on the calling thread and checks it.
    ///
    /// # Errors
    ///
    /// Returns the invariant [`Definition::check`] found violated.
    pub fn judge<W: Definition>(&self, w: &W, shared: &W::Shared) -> Result<u64, String> {
        let walked = self.sequential(|ex| w.walk(ex, shared));
        w.check(shared, walked, &|addr| self.peek(addr))
    }
}

/// One workload, as every backend runs it: `{setup, per-thread body,
/// walk, final-state check → digest}`, generic over [`TmExec`], so the
/// simulator and the host threads run the *same* operations and judge the
/// *same* final state — the property a differential checker stands on.
pub trait Definition: Sync {
    /// What setup leaves in transactional memory for the threads to share.
    type Shared: Send + Sync;

    /// What one thread's body hands back to whoever ran it.
    type Output: Send;

    /// Builds the shared state on one executor, before any worker starts.
    fn setup<E: TmExec>(&self, ex: &mut E) -> Self::Shared;

    /// Thread `tid`'s whole operation stream.
    fn body<E: TmExec>(&self, ex: &mut E, shared: &Self::Shared, tid: usize) -> Self::Output;

    /// Digests whatever final state is only reachable by walking a
    /// structure transactionally, on a fresh sequential executor once
    /// every worker has finished. Workloads whose state sits in known
    /// words leave this out and `peek` in [`Definition::check`].
    fn walk<E: TmExec>(&self, _ex: &mut E, _shared: &Self::Shared) -> u64 {
        0
    }

    /// Judges the final state and digests it; `walked` is what
    /// [`Definition::walk`] returned.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant.
    fn check(&self, shared: &Self::Shared, walked: u64, peek: Peek<'_>) -> Result<u64, String>;
}

/// Reads one word of a backend's memory at rest, bypassing the TM.
pub type Peek<'a> = &'a dyn Fn(Addr) -> u64;

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use hastm::{Granularity, ObjRef};
    use hastm_sim::{FaultKind, SchedulePolicy};

    use super::*;

    /// A three-core hybrid-TM session over one zeroed counter.
    fn counter_session(schedule: SchedulePolicy) -> (SimSession, ObjRef) {
        let machine = MachineConfig {
            schedule,
            ..MachineConfig::with_cores(3)
        };
        let stm = Scheme::Hytm.stm_config(Granularity::CacheLine, 3);
        let mut session = SimSession::new(Scheme::Hytm, machine, stm);
        let cell = session.sequential(new_counter);
        (session, cell)
    }

    /// A counter on a cache line of its own.
    fn new_counter(ex: &mut ThreadExec<'_, '_>) -> ObjRef {
        let cell = ex.alloc_obj(8);
        ex.atomic(|ctx| ctx.ctx_write(cell, 0, 0));
        cell
    }

    fn increments(ex: &mut ThreadExec<'_, '_>, cell: ObjRef, n: u64) {
        for _ in 0..n {
            ex.atomic(|ctx| {
                let v = ctx.ctx_read(cell, 0)?;
                ctx.ctx_write(cell, 0, v + 1)
            });
        }
    }

    #[test]
    fn a_plan_armed_for_one_run_is_gone_afterwards() {
        // Spurious aborts on every core, a forced switch, and both
        // recorders: everything a plan can arm.
        let faulted = RunPlan {
            preemptions: vec![Preemption { at_op: 12, core: 2 }],
            faults: (0..9)
                .map(|i| FaultEvent {
                    at_op: 8 + 6 * i,
                    core: (i % 3) as usize,
                    kind: FaultKind::SpuriousAbort,
                })
                .collect(),
            record_schedule: true,
            trace: Some(TraceConfig::default()),
            gate: GateMode::default(),
        };
        // Each core counts on a line of its own: however the run was
        // perturbed, it leaves every cache holding what a plain run leaves.
        let history = |plan: &RunPlan| {
            let (mut session, shared) = counter_session(SchedulePolicy::Deterministic);
            let own = session.sequential(|ex| [(); 3].map(|()| new_counter(ex)));
            let body = |ex: &mut ThreadExec<'_, '_>, tid: usize| increments(ex, own[tid], 8);
            let first = session.run(plan, body);

            let left = session.machine.config();
            assert!(left.preemptions.is_empty() && left.faults.is_empty());
            assert!(!left.record_schedule && left.trace.is_none());

            let between = session.sequential(|ex| {
                increments(ex, shared, 1);
                ex.clock()
            });
            assert!(session.machine.take_trace().is_none());
            assert!(session.machine.take_schedule_log().is_empty());

            let second = session.run(&RunPlan::default(), body);
            assert!(own.iter().all(|cell| session.peek(cell.word(0)) == 16));
            (first, between, second)
        };

        let (armed, armed_between, after) = history(&faulted);
        let (plain, plain_between, fresh) = history(&RunPlan::default());
        assert!(armed.stats.hytm.hw_aborts_spurious > 0, "the faults fired");
        assert_ne!(armed.report, plain.report, "and cost something");
        assert!(armed.trace.is_some() && !armed.schedule.is_empty());
        assert!(plain.trace.is_none() && plain.schedule.is_empty());

        assert_eq!(armed_between, plain_between);
        assert_eq!(after.report, fresh.report);
        assert_eq!(after.stats, fresh.stats);
        assert!(after.trace.is_none() && after.schedule.is_empty());
    }

    #[test]
    fn outputs_come_back_in_core_order_and_a_panic_keeps_its_payload() {
        let (mut session, cell) = counter_session(SchedulePolicy::Fuzzed { seed: 7 });
        // Core 0 does the most work and core 2 the least, so they finish
        // in the reverse of core order.
        let run = session.run(&RunPlan::default(), |ex, tid| {
            increments(ex, cell, 12 * (3 - tid as u64));
            (tid, ex.clock())
        });
        let (tids, ends): (Vec<usize>, Vec<u64>) = run.outputs.into_iter().unzip();
        assert_eq!(tids, [0, 1, 2]);
        assert!(ends[0] > ends[1] && ends[1] > ends[2], "{ends:?}");
        assert_eq!(run.stats.commits(), 12 * (3 + 2 + 1));

        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            session.run(&RunPlan::default(), |ex, tid| {
                if tid == 1 {
                    std::panic::panic_any(Payload(41));
                }
                increments(ex, cell, 2);
            })
        }));
        let payload = panicked.expect_err("core 1 panicked");
        assert_eq!(payload.downcast_ref(), Some(&Payload(41)));

        let native = NativeSession::new(NativeConfig::default());
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            native.run(3, |_ex, tid| {
                if tid == 1 {
                    std::panic::panic_any(Payload(42));
                }
                tid
            })
        }));
        let payload = panicked.expect_err("thread 1 panicked");
        assert_eq!(payload.downcast_ref(), Some(&Payload(42)));
        assert_eq!(native.run(3, |_ex, tid| tid).outputs, [0, 1, 2]);
    }
}
