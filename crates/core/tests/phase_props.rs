//! Property tests for the PhTM-style global phase machine
//! ([`hastm::SharedModeState`]): random commit/abort/capacity-event
//! scripts driven against an independently written reference model must
//! never violate the transition invariants — one-level moves only, the
//! hysteresis window respected, the serial phase draining to exactly one
//! token holder, and recovery back to `Hw` after quiescence. A final
//! multi-core simulator smoke exercises the whole entry/drain protocol
//! end to end, serial phase included.

use std::sync::Mutex;

use hastm::phase::{refresh_view, Access, Entry, SharedModeState, Wait};
use hastm::{
    Granularity, ModePolicy, ObjRef, Phase, PhaseEvent, PhasedParams, StmConfig, StmRuntime,
    TxThread, TxnStats,
};
use hastm_sim::{Machine, MachineConfig, WorkerFn};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference model: the transition rules, restated from scratch.
// ---------------------------------------------------------------------------

/// An independent restatement of the phase-transition rules from the
/// issue (NOT a copy of `phase.rs` internals): streak counters, a
/// hysteresis window, single-level demotion on persistent interference,
/// single-level promotion on persistent clean commits, and a serial
/// phase that only its own (serial) commits can reopen.
#[derive(Debug)]
struct RefModel {
    params: PhasedParams,
    phase: Phase,
    bad: u32,
    good: u32,
    since: u32,
}

impl RefModel {
    fn new(params: PhasedParams) -> Self {
        RefModel {
            params,
            phase: Phase::Hw,
            bad: 0,
            good: 0,
            since: 0,
        }
    }

    /// Applies one event; returns the transition it published, if any.
    fn on_event(&mut self, ev: PhaseEvent) -> Option<(Phase, Phase)> {
        self.since += 1;
        let bad = matches!(
            ev,
            PhaseEvent::DirtyCommit | PhaseEvent::CapacityAbort | PhaseEvent::ConflictAbort
        );
        if bad {
            self.bad += 1;
            self.good = 0;
        } else {
            self.good += 1;
            self.bad = 0;
        }
        if self.since < self.params.hysteresis {
            return None;
        }
        let from = self.phase;
        let to = if from == Phase::Serial {
            if ev == PhaseEvent::SerialCommit && self.good >= self.params.promote_after {
                Phase::Cautious
            } else {
                return None;
            }
        } else if self.bad >= self.params.demote_after {
            match from {
                Phase::Hw => Phase::Aggressive,
                Phase::Aggressive => Phase::Cautious,
                Phase::Cautious | Phase::Serial => Phase::Serial,
            }
        } else if self.good >= self.params.promote_after && from != Phase::Hw {
            match from {
                Phase::Hw | Phase::Aggressive => Phase::Hw,
                Phase::Cautious => Phase::Aggressive,
                Phase::Serial => Phase::Cautious,
            }
        } else {
            return None;
        };
        if to == from {
            return None;
        }
        self.phase = to;
        self.bad = 0;
        self.good = 0;
        self.since = 0;
        Some((from, to))
    }
}

fn event_strategy() -> impl Strategy<Value = PhaseEvent> {
    prop_oneof![
        4 => Just(PhaseEvent::CleanCommit),
        2 => Just(PhaseEvent::DirtyCommit),
        2 => Just(PhaseEvent::CapacityAbort),
        2 => Just(PhaseEvent::ConflictAbort),
        3 => Just(PhaseEvent::SerialCommit),
    ]
}

fn params_strategy() -> impl Strategy<Value = PhasedParams> {
    (1u32..6, 1u32..6, 1u32..10, 1u32..4).prop_map(|(d, p, h, b)| PhasedParams {
        demote_after: d,
        promote_after: p,
        hysteresis: h,
        hw_retry_budget: b,
    })
}

fn one_level_apart(from: Phase, to: Phase) -> bool {
    to != from && (to == from.demote() || to == from.promote())
}

/// The other threads, as the entrant under test meets them: a counting
/// [`Access`] whose steps run at once and whose waits are where somebody
/// else moves.
struct Others<'a> {
    shared: &'a SharedModeState,
    /// Optimistic transactions still running; each drain wait sees the
    /// last of them leave.
    in_flight: Vec<(Entry, u64)>,
    /// The current token holder and the number of token waits it sits
    /// through before leaving.
    holder: Option<(u64, u64)>,
    /// Waits so far.
    waits: u64,
}

impl<'a> Others<'a> {
    fn new(shared: &'a SharedModeState) -> Self {
        Others {
            shared,
            in_flight: Vec::new(),
            holder: None,
            waits: 0,
        }
    }
}

impl Access for Others<'_> {
    fn sync<T>(&mut self, step: impl FnOnce() -> T) -> T {
        step()
    }

    fn pause(&mut self, wait: Wait) {
        self.waits += 1;
        // The one leaving takes its own steps, none of which wait.
        let mut leaver = Others::new(self.shared);
        match wait {
            Wait::Drain => {
                let (entry, id) = self
                    .in_flight
                    .pop()
                    .expect("drain wait with nobody in flight");
                self.shared.leave(entry, id, None, &mut leaver);
            }
            Wait::Token(n) => {
                let (holder, patience) = self.holder.expect("token wait with the token free");
                assert_eq!(n, self.waits, "token waits are counted from one");
                assert_eq!(self.shared.token_holder(), holder, "token changed hands");
                if n == patience {
                    self.shared.leave(Entry::Serial, holder, None, &mut leaver);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random event scripts: the real machine and the reference model
    /// publish *identical* transition sequences, every transition moves
    /// exactly one lattice level, and at least `hysteresis` events
    /// separate consecutive transitions.
    #[test]
    fn scripts_match_reference_model_and_invariants(
        params in params_strategy(),
        script in proptest::collection::vec(event_strategy(), 1..400),
    ) {
        let shared = SharedModeState::new(params);
        let mut model = RefModel::new(params);
        let mut events_since_transition = 0u32;
        for (i, &ev) in script.iter().enumerate() {
            let got = shared.on_event(ev);
            let want = model.on_event(ev);
            prop_assert_eq!(got, want, "step {}: machine and model diverged", i);
            events_since_transition += 1;
            if let Some((from, to)) = got {
                prop_assert!(
                    one_level_apart(from, to),
                    "step {}: skip-level jump {:?} -> {:?}", i, from, to
                );
                prop_assert!(
                    events_since_transition >= params.hysteresis,
                    "step {}: transition after only {} events (hysteresis {})",
                    i, events_since_transition, params.hysteresis
                );
                events_since_transition = 0;
            }
            prop_assert_eq!(shared.phase(), model.phase, "step {}: phase drifted", i);
        }
    }

    /// Out of `Serial`, only serial commits promote: any script suffix of
    /// purely *optimistic* clean commits leaves a serial phase serial.
    #[test]
    fn stragglers_cannot_reopen_the_serial_phase(
        params in params_strategy(),
        optimistic_commits in 1usize..200,
    ) {
        let shared = SharedModeState::new(params);
        // Drive straight down to Serial with bad events.
        while shared.phase() != Phase::Serial {
            shared.on_event(PhaseEvent::CapacityAbort);
        }
        for _ in 0..optimistic_commits {
            prop_assert_eq!(shared.on_event(PhaseEvent::CleanCommit), None);
            prop_assert_eq!(shared.phase(), Phase::Serial);
        }
    }

    /// Recovery after quiescence: from the state any random script leaves
    /// behind, a long enough run of clean outcomes (serial commits while
    /// serial, clean commits otherwise) always climbs back to `Hw`, one
    /// level at a time.
    #[test]
    fn quiescence_always_recovers_to_hw(
        params in params_strategy(),
        script in proptest::collection::vec(event_strategy(), 0..200),
    ) {
        let shared = SharedModeState::new(params);
        for &ev in &script {
            shared.on_event(ev);
        }
        let worst = (params.hysteresis.max(params.promote_after) as usize + 1) * 4;
        let mut climbed = Vec::new();
        for _ in 0..worst {
            let ev = if shared.phase() == Phase::Serial {
                PhaseEvent::SerialCommit
            } else {
                PhaseEvent::CleanCommit
            };
            if let Some(tr) = shared.on_event(ev) {
                climbed.push(tr);
            }
            if shared.phase() == Phase::Hw {
                break;
            }
        }
        prop_assert_eq!(shared.phase(), Phase::Hw, "no recovery after {} clean events", worst);
        for &(from, to) in &climbed {
            prop_assert_eq!(to, from.promote(), "recovery demoted: {:?} -> {:?}", from, to);
        }
    }

    /// The serial token is exclusive and the phase drains, through the
    /// protocol itself ([`SharedModeState::enter`]/[`SharedModeState::leave`]
    /// over a counting [`Access`]): with `n` optimistic transactions in
    /// flight the first serial entrant is let through only after exactly
    /// `n` drain waits have each seen one of them leave, and every later
    /// entrant waits on the token — which never changes hands meanwhile —
    /// for as long as the holder keeps it.
    #[test]
    fn serial_drains_to_exactly_one_token_holder(
        params in params_strategy(),
        optimistic in 0usize..12,
        entrants in 1u64..8,
        patience in 1u64..5,
    ) {
        let shared = SharedModeState::new(params);
        // Optimistic transactions enter while the phase is still open.
        let mut others = Others::new(&shared);
        for i in 0..optimistic {
            let id = ((entrants + i as u64) << 1) | 1;
            let entry = shared.enter(id, &mut others);
            prop_assert_eq!(entry, Entry::Optimistic(Phase::Hw));
            others.in_flight.push((entry, id));
        }
        prop_assert_eq!(others.waits, 0, "open entry waited");
        while shared.phase() != Phase::Serial {
            shared.on_event(PhaseEvent::ConflictAbort);
        }
        prop_assert_eq!(SharedModeState::active_count(shared.word()), optimistic as u64);

        // The first entrant takes the free token and must wait out the
        // drain: one wait per transaction still in flight, no more.
        let ids: Vec<u64> = (0..entrants).map(|i| (i << 1) | 1).collect();
        prop_assert_eq!(shared.enter(ids[0], &mut others), Entry::Serial);
        prop_assert_eq!(others.waits, optimistic as u64);
        prop_assert!(others.in_flight.is_empty());
        prop_assert_eq!(SharedModeState::active_count(shared.word()), 0);
        prop_assert_eq!(shared.token_holder(), ids[0]);

        // Every other entrant finds the token busy until its holder
        // leaves, then takes over with nothing left to drain.
        for pair in ids.windows(2) {
            let mut others = Others::new(&shared);
            others.holder = Some((pair[0], patience));
            prop_assert_eq!(shared.enter(pair[1], &mut others), Entry::Serial);
            prop_assert_eq!(others.waits, patience);
            prop_assert_eq!(shared.token_holder(), pair[1]);
        }
        shared.leave(Entry::Serial, ids[ids.len() - 1], None, &mut Others::new(&shared));
        prop_assert_eq!(shared.token_holder(), 0);
    }

    /// `refresh_view` (unmutated) adopts the freshly observed word
    /// wholesale, so a retry always re-examines a raced-in publication.
    #[test]
    fn refresh_view_adopts_the_current_word(seen in any::<u64>(), cur in any::<u64>()) {
        prop_assert_eq!(refresh_view(seen, cur), cur);
        prop_assert_eq!(Phase::decode(refresh_view(seen, cur)), Phase::decode(cur));
    }
}

// ---------------------------------------------------------------------------
// End-to-end simulator smoke: the full entry/drain protocol, serial
// phase included, on a real multi-core machine.
// ---------------------------------------------------------------------------

/// Hair-trigger params: every bad event demotes, so a contended counter
/// drives the scheme all the way to `Serial`; `promote_after` is large
/// enough that the phase stays serial once reached.
fn hair_trigger() -> PhasedParams {
    PhasedParams {
        demote_after: 1,
        promote_after: 64,
        hysteresis: 1,
        hw_retry_budget: 2,
    }
}

fn run_phased_counter(cores: usize, iters: u64, params: PhasedParams) -> (u64, TxnStats) {
    let cfg = StmConfig::hastm(Granularity::CacheLine, ModePolicy::Phased(params));
    let mut m = Machine::new(MachineConfig::with_cores(cores));
    let rt = StmRuntime::new(&mut m, cfg);
    let counter: ObjRef = m.run_one(|cpu| TxThread::new(&rt, cpu).alloc_obj(1)).0;

    let rt_ref = &rt;
    let merged = Mutex::new(TxnStats::default());
    let merged_ref = &merged;
    let mut workers: Vec<WorkerFn<'_>> = Vec::new();
    for _ in 0..cores {
        workers.push(Box::new(move |cpu: &mut hastm_sim::Cpu| {
            let mut tx = TxThread::new(rt_ref, cpu);
            for _ in 0..iters {
                tx.atomic(|tx| {
                    let v = tx.read_word(counter, 0)?;
                    tx.cpu().tick(20);
                    tx.write_word(counter, 0, v + 1)
                });
            }
            merged_ref.lock().unwrap().merge(tx.stats());
        }));
    }
    m.run(workers);

    let total = m.peek_u64(counter.word(0));
    (total, merged.into_inner().unwrap())
}

/// The whole protocol under real simulated contention: the counter sum
/// is exact (serial execution is sound), the scheme demoted into the
/// serial phase and committed irrevocable transactions there, and every
/// begin is accounted to exactly one phase.
#[test]
fn phased_counter_is_exact_and_reaches_the_serial_phase() {
    let cores = 4;
    let iters = 40u64;
    let (total, st) = run_phased_counter(cores, iters, hair_trigger());
    assert_eq!(total, cores as u64 * iters, "lost updates under Phased");
    assert_eq!(st.commits, cores as u64 * iters);
    assert!(
        st.phase_transitions > 0,
        "no transitions despite hair-trigger params"
    );
    assert!(
        st.serial_commits > 0,
        "contention never reached the serial phase: {st:?}"
    );
    assert!(st.phase_begins[Phase::Serial.idx()] >= st.serial_commits);
    let begins: u64 = st.phase_begins.iter().sum();
    assert_eq!(
        begins,
        st.commits + st.aborts(),
        "begins not partitioned by phase"
    );
}

/// Default params on the same workload: still exact, and with the full
/// hysteresis window the scheme must not ping-pong — the transition
/// count stays far below the event count.
#[test]
fn phased_counter_is_exact_under_default_params() {
    let cores = 4;
    let iters = 40u64;
    let (total, st) = run_phased_counter(cores, iters, PhasedParams::default());
    assert_eq!(total, cores as u64 * iters, "lost updates under Phased");
    let events = st.commits + st.aborts();
    assert!(
        st.phase_transitions <= events / u64::from(PhasedParams::default().hysteresis) + 1,
        "transitions {} exceed the hysteresis ceiling for {} events",
        st.phase_transitions,
        events
    );
}
