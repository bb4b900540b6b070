//! The PhTM-style global phase machine behind [`crate::ModePolicy::Phased`].
//!
//! Unlike the per-thread [`crate::ModeController`], the phase machine is
//! *scheme-wide*: one [`SharedModeState`] per runtime publishes the
//! current execution phase to every thread through a single CAS-published
//! word. The phase lattice mirrors the hybrid-TM fallback chain:
//!
//! ```text
//!   Hw  ⇄  Aggressive  ⇄  Cautious  ⇄  Serial
//! ```
//!
//! * **Hw** — the HTM-analog fast path: attempts run aggressive (no read
//!   logging) with a per-phase retry budget before an attempt falls back
//!   to a cautious re-execution.
//! * **Aggressive** — first attempts aggressive, re-executions cautious
//!   (the paper's §6 policy).
//! * **Cautious** — every attempt cautious (§5 barriers, full read log).
//! * **Serial** — irrevocable execution under a global token: exactly one
//!   transaction runs at a time, with no validation and no aborts.
//!
//! Transitions move **one level at a time** (no skip-level jumps), are
//! driven by capacity-abort persistence (consecutive interference events
//! demote; consecutive clean commits promote), and respect a hysteresis
//! window (a minimum number of events between transitions) so a single
//! noisy burst cannot ping-pong the whole scheme.
//!
//! ## The packed phase word
//!
//! All entry/exit coordination lives in one `AtomicU64`:
//!
//! ```text
//!   [ epoch : bits 19.. ][ active : bits 3..19 ][ phase : bits 0..3 ]
//! ```
//!
//! `phase` is the published [`Phase`], `active` counts in-flight
//! *optimistic* (non-serial) transactions, and `epoch` increments on
//! every phase publication so any CAS racing a transition observes a
//! changed word. A beginning transaction reads the word and, unless the
//! phase is [`Phase::Serial`], CASes `active + 1` in; a serial entrant
//! instead acquires the global token and waits for `active` to drain to
//! zero, after which it is provably alone.
//!
//! ## One protocol, two backends
//!
//! Entry and exit are written once, in [`SharedModeState::enter`] and
//! [`SharedModeState::leave`]; a backend supplies only an [`Access`]: how
//! one step on the shared words is issued and how a wait passes time.
//!
//! The phase word is side-band host state — it is not simulated memory,
//! so the admission gate cannot order accesses to it by itself. The
//! simulator's [`Access::sync`] therefore runs each step inside
//! `Cpu::exec_sync` (canonical admission), which makes it atomic with one
//! gated instruction and totally ordered by the deterministic admission
//! schedule: the same seed yields the same transition history across gate
//! modes and host sweep widths. The native backend's `sync` calls the
//! step directly: the steps are `SeqCst` atomics already.
//!
//! ## The `phase-seeded-bug` mutation
//!
//! With the `phase-seeded-bug` cargo feature, [`refresh_view`] keeps the
//! *stale* phase bits after a failed entry CAS: the retry then writes the
//! old phase back, silently dropping a concurrent phase publication — a
//! thread can keep running aggressive inside the `Serial` phase while the
//! token holder believes it is alone. `hastm-check`'s differential suite
//! must catch the resulting lost updates (`tests/phase_mutation.rs`); the
//! one entry loop means both backends are mutated at once.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;

use crate::config::Mode;

/// `false` only under the `phase-seeded-bug` mutation: a failed entry CAS
/// re-reads the whole word (including a phase publication that raced in).
const PHASE_RECHECK: bool = cfg!(not(feature = "phase-seeded-bug"));

/// Bit layout of the packed phase word.
const PHASE_MASK: u64 = 0b111;
const ACTIVE_SHIFT: u64 = 3;
const ACTIVE_MASK: u64 = 0xFFFF << ACTIVE_SHIFT;
/// One in-flight optimistic transaction, in packed-word units.
pub const ACTIVE_ONE: u64 = 1 << ACTIVE_SHIFT;
const EPOCH_SHIFT: u64 = 19;

/// One level of the global phase lattice (ordered fastest to safest).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// HTM-analog fast path: aggressive attempts with a retry budget.
    Hw = 0,
    /// HASTM-aggressive: first attempt aggressive, retries cautious.
    Aggressive = 1,
    /// HASTM-cautious: every attempt cautious.
    Cautious = 2,
    /// Irrevocable serial execution under the global token.
    Serial = 3,
}

impl Phase {
    /// All phases, lattice order.
    pub const ALL: [Phase; 4] = [Phase::Hw, Phase::Aggressive, Phase::Cautious, Phase::Serial];

    /// Stable index (for per-phase counter arrays).
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Short label for tables and metrics.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Hw => "hw",
            Phase::Aggressive => "aggr",
            Phase::Cautious => "caut",
            Phase::Serial => "serial",
        }
    }

    /// Decodes the phase bits of a packed word.
    pub fn decode(word: u64) -> Phase {
        match word & PHASE_MASK {
            0 => Phase::Hw,
            1 => Phase::Aggressive,
            2 => Phase::Cautious,
            _ => Phase::Serial,
        }
    }

    /// One level down the lattice (toward `Serial`); saturates.
    pub fn demote(self) -> Phase {
        match self {
            Phase::Hw => Phase::Aggressive,
            Phase::Aggressive => Phase::Cautious,
            Phase::Cautious | Phase::Serial => Phase::Serial,
        }
    }

    /// One level up the lattice (toward `Hw`); saturates.
    pub fn promote(self) -> Phase {
        match self {
            Phase::Serial => Phase::Cautious,
            Phase::Cautious => Phase::Aggressive,
            Phase::Aggressive | Phase::Hw => Phase::Hw,
        }
    }

    /// The per-attempt [`Mode`] this phase prescribes. `Serial` has no
    /// barrier mode (the serial path bypasses barriers); it maps to
    /// cautious for descriptor-publication purposes.
    pub fn mode_for(self, attempt: u32, hw_retry_budget: u32) -> Mode {
        match self {
            Phase::Hw => {
                if attempt < hw_retry_budget.max(1) {
                    Mode::Aggressive
                } else {
                    Mode::Cautious
                }
            }
            Phase::Aggressive => {
                if attempt == 0 {
                    Mode::Aggressive
                } else {
                    Mode::Cautious
                }
            }
            Phase::Cautious | Phase::Serial => Mode::Cautious,
        }
    }
}

/// Tuning of [`crate::ModePolicy::Phased`]. All plain integers so the
/// policy stays `Copy`/`Eq` and shares cleanly with the native backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PhasedParams {
    /// Consecutive interference events (capacity-classified aborts,
    /// conflict aborts, or dirty commits) before demoting one level.
    pub demote_after: u32,
    /// Consecutive clean commits before promoting one level.
    pub promote_after: u32,
    /// Minimum events between transitions (the hysteresis window): after
    /// any transition, at least this many commit/abort events must be
    /// observed before the next transition can publish.
    pub hysteresis: u32,
    /// Aggressive attempts the `Hw` phase grants before an attempt falls
    /// back to a cautious re-execution (clamped to ≥ 1).
    pub hw_retry_budget: u32,
}

impl Default for PhasedParams {
    fn default() -> Self {
        PhasedParams {
            demote_after: 4,
            promote_after: 8,
            hysteresis: 16,
            hw_retry_budget: 2,
        }
    }
}

/// A commit/abort outcome fed to the phase heuristics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PhaseEvent {
    /// An optimistic commit whose mark counter stayed clean.
    CleanCommit,
    /// An optimistic commit that needed a software validation.
    DirtyCommit,
    /// An abort classified as capacity pressure (evictions,
    /// back-invalidations — the "spurious" HTM analog).
    CapacityAbort,
    /// An abort classified as a true data conflict.
    ConflictAbort,
    /// A committed serial (irrevocable) transaction.
    SerialCommit,
}

impl PhaseEvent {
    fn is_bad(self) -> bool {
        matches!(
            self,
            PhaseEvent::DirtyCommit | PhaseEvent::CapacityAbort | PhaseEvent::ConflictAbort
        )
    }
}

/// What [`SharedModeState::enter`] is waiting for when it pauses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Wait {
    /// The token is held and `Serial` re-verified; optimistic
    /// transactions are still in flight.
    Drain,
    /// Another thread holds the serial token. Carries how many times
    /// this entry has found it busy (1, 2, …).
    Token(u64),
}

/// How a backend reaches the shared phase state. Everything the entry
/// and exit protocol does to the phase word and the token goes through
/// `sync`, so a test can substitute a fake that records the order of
/// steps and moves the other threads between them.
pub trait Access {
    /// Runs `step` — one load, CAS or read-modify-write of the shared
    /// state — as a single step of this thread.
    fn sync<T>(&mut self, step: impl FnOnce() -> T) -> T;

    /// Lets time pass before the entry loop looks again.
    fn pause(&mut self, wait: Wait);
}

/// How one attempt entered the phase gate; handed back to
/// [`SharedModeState::leave`] when the attempt ends.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Entry {
    /// Counted into the active window under the carried phase.
    Optimistic(Phase),
    /// Holds the serial token with the active window drained to zero.
    Serial,
}

impl Entry {
    /// The phase the attempt runs under.
    pub fn phase(self) -> Phase {
        match self {
            Entry::Optimistic(p) => p,
            Entry::Serial => Phase::Serial,
        }
    }
}

/// Heuristic state behind the transitions, serialized by a host mutex.
/// On the simulator backend the mutex is uncontended by construction
/// (every `on_event` runs inside one gated op); on the native backend it
/// is a real, short critical section.
#[derive(Debug, Default)]
struct Heur {
    streak_bad: u32,
    streak_good: u32,
    since_transition: u32,
}

/// The scheme-wide shared phase state (the `SharedModeState` seam): one
/// per [`crate::StmRuntime`] (and one per native runtime), created only
/// under [`crate::ModePolicy::Phased`].
#[derive(Debug)]
pub struct SharedModeState {
    params: PhasedParams,
    /// The packed phase word (see module docs for the layout).
    word: AtomicU64,
    /// Serial-execution token: 0 when free, else the holder's nonzero id.
    serial_token: AtomicU64,
    heur: Mutex<Heur>,
}

impl SharedModeState {
    /// Fresh state in [`Phase::Hw`] with zero active transactions.
    pub fn new(params: PhasedParams) -> Self {
        SharedModeState {
            params,
            word: AtomicU64::new(Phase::Hw as u64),
            serial_token: AtomicU64::new(0),
            heur: Mutex::new(Heur::default()),
        }
    }

    /// The configured tuning.
    pub fn params(&self) -> PhasedParams {
        self.params
    }

    /// The raw packed word (one load — callers on the simulator backend
    /// wrap this in a gated op).
    pub fn word(&self) -> u64 {
        self.word.load(SeqCst)
    }

    /// The published phase.
    pub fn phase(&self) -> Phase {
        Phase::decode(self.word())
    }

    /// In-flight optimistic transactions encoded in `word`.
    pub fn active_count(word: u64) -> u64 {
        (word & ACTIVE_MASK) >> ACTIVE_SHIFT
    }

    /// Publication epoch encoded in `word`.
    pub fn epoch(word: u64) -> u64 {
        word >> EPOCH_SHIFT
    }

    /// One optimistic-entry CAS: tries to move the word from `expected`
    /// to "`seen`'s phase, `expected`'s epoch, active + 1". In the
    /// correct protocol `seen == expected` and this is a plain counted
    /// entry; under the seeded mutation `seen` may carry stale phase bits
    /// (see [`refresh_view`]) and a success then *overwrites* a phase
    /// publication that raced in — the planted lost-transition bug.
    ///
    /// # Errors
    ///
    /// Returns the freshly observed word when the CAS loses.
    pub(crate) fn cas_enter(&self, expected: u64, seen: u64) -> Result<Phase, u64> {
        let target = ((expected & !PHASE_MASK) | (seen & PHASE_MASK)) + ACTIVE_ONE;
        match self.word.compare_exchange(expected, target, SeqCst, SeqCst) {
            Ok(_) => Ok(Phase::decode(seen)),
            Err(cur) => Err(cur),
        }
    }

    /// Retires one optimistic transaction (commit or abort).
    pub(crate) fn exit_optimistic(&self) {
        let prev = self.word.fetch_sub(ACTIVE_ONE, SeqCst);
        debug_assert!(
            Self::active_count(prev) > 0,
            "optimistic exit without a matching entry"
        );
    }

    /// Tries to take the serial token for holder `id` (nonzero).
    pub(crate) fn try_acquire_token(&self, id: u64) -> bool {
        debug_assert_ne!(id, 0, "token holder id must be nonzero");
        self.serial_token
            .compare_exchange(0, id, SeqCst, SeqCst)
            .is_ok()
    }

    /// Releases the serial token held by `id`.
    pub(crate) fn release_token(&self, id: u64) {
        let prev = self.serial_token.swap(0, SeqCst);
        debug_assert_eq!(prev, id, "token released by a non-holder");
    }

    /// Current token holder id (0 when free). Diagnostics and tests.
    pub fn token_holder(&self) -> u64 {
        self.serial_token.load(SeqCst)
    }

    /// Enters the phase gate for one attempt on behalf of token-holder id
    /// `id` (nonzero): counts into the active window with a CAS, or — when
    /// the published phase is [`Phase::Serial`] — takes the global token
    /// and waits for the window to drain, after which the caller is
    /// provably alone. Each load/CAS is its own [`Access::sync`] step,
    /// mirroring the separate instructions real hardware would execute,
    /// so concurrent publications interleave between them.
    pub fn enter(&self, id: u64, bus: &mut impl Access) -> Entry {
        let mut seen = bus.sync(|| self.word());
        let mut expected = seen;
        let mut spins = 0u64;
        loop {
            if Phase::decode(seen) != Phase::Serial {
                match bus.sync(|| self.cas_enter(expected, seen)) {
                    Ok(p) => return Entry::Optimistic(p),
                    Err(cur) => {
                        expected = cur;
                        seen = refresh_view(seen, cur);
                    }
                }
                continue;
            }
            if !bus.sync(|| self.try_acquire_token(id)) {
                // Token busy: back off and re-read — the holder may have
                // promoted the phase, reopening optimistic entry.
                spins += 1;
                bus.pause(Wait::Token(spins));
                seen = bus.sync(|| self.word());
                expected = seen;
                continue;
            }
            // Token held — but the previous holder may have promoted the
            // phase (its SerialCommit event fires before it releases the
            // token), so re-verify Serial is still published. Holding a
            // token for a phase that is gone would mean running
            // irrevocably while optimistic transactions enter freely.
            let w = bus.sync(|| self.word());
            if Phase::decode(w) != Phase::Serial {
                bus.sync(|| self.release_token(id));
                seen = w;
                expected = w;
                continue;
            }
            // Wait for the optimistic population to drain. No optimistic
            // transaction can re-enter (the published phase is Serial),
            // and once the token is held with Serial re-verified no
            // SerialCommit can promote the phase (serial commits require
            // this token), so after the drain this thread is alone.
            while Self::active_count(bus.sync(|| self.word())) > 0 {
                bus.pause(Wait::Drain);
            }
            return Entry::Serial;
        }
    }

    /// Leaves the phase gate at the end of the attempt `entry` began,
    /// feeding `event` (the attempt's outcome, if it is one the
    /// heuristics count) to [`Self::on_event`] in the same step. Returns
    /// the transition the event published, if any.
    ///
    /// * Optimistic: retire from the active window, then the event.
    /// * Serial commit (`Some(SerialCommit)`): the event **first**, the
    ///   token release second — a successor acquiring the token must
    ///   observe the (possibly promoted) phase this commit published.
    /// * Serial abort (`None`; only user aborts reach it): release only.
    pub fn leave(
        &self,
        entry: Entry,
        id: u64,
        event: Option<PhaseEvent>,
        bus: &mut impl Access,
    ) -> Option<(Phase, Phase)> {
        bus.sync(|| match entry {
            Entry::Optimistic(_) => {
                self.exit_optimistic();
                event.and_then(|ev| self.on_event(ev))
            }
            Entry::Serial => {
                let moved = event.and_then(|ev| self.on_event(ev));
                self.release_token(id);
                moved
            }
        })
    }

    /// Publishes `to` as the new phase (epoch + 1, active count
    /// preserved). Returns `false` if the phase already equals `to`.
    fn publish_phase(&self, to: Phase) -> bool {
        loop {
            let w = self.word.load(SeqCst);
            if Phase::decode(w) == to {
                return false;
            }
            let epoch = Self::epoch(w) + 1;
            let new = (epoch << EPOCH_SHIFT) | (w & ACTIVE_MASK) | to as u64;
            if self.word.compare_exchange(w, new, SeqCst, SeqCst).is_ok() {
                return true;
            }
        }
    }

    /// Feeds one transaction outcome to the transition heuristics,
    /// possibly publishing a phase change. Returns the `(from, to)` pair
    /// when a transition was performed by this call.
    ///
    /// Rules (checked against the reference model by
    /// `tests/phase_props.rs`):
    ///
    /// * streaks: a bad event (dirty commit, capacity or conflict abort)
    ///   extends `streak_bad` and zeroes `streak_good`; clean and serial
    ///   commits do the reverse;
    /// * hysteresis: no transition until `hysteresis` events have been
    ///   observed since the last one;
    /// * demotion: `streak_bad >= demote_after` moves one level down;
    /// * promotion: `streak_good >= promote_after` moves one level up —
    ///   but out of [`Phase::Serial`] only *serial* commits count, so a
    ///   straggling optimistic commit cannot reopen the phase while the
    ///   token holder believes it is alone.
    pub fn on_event(&self, ev: PhaseEvent) -> Option<(Phase, Phase)> {
        let mut h = self.heur.lock().unwrap();
        h.since_transition = h.since_transition.saturating_add(1);
        if ev.is_bad() {
            h.streak_bad = h.streak_bad.saturating_add(1);
            h.streak_good = 0;
        } else {
            h.streak_good = h.streak_good.saturating_add(1);
            h.streak_bad = 0;
        }
        if h.since_transition < self.params.hysteresis {
            return None;
        }
        let cur = self.phase();
        let next = if cur == Phase::Serial {
            // Only the token holder's own commits can reopen the scheme.
            (ev == PhaseEvent::SerialCommit && h.streak_good >= self.params.promote_after)
                .then(|| cur.promote())
        } else if h.streak_bad >= self.params.demote_after {
            Some(cur.demote())
        } else if h.streak_good >= self.params.promote_after && cur != Phase::Hw {
            Some(cur.promote())
        } else {
            None
        };
        let next = next.filter(|&n| n != cur)?;
        if !self.publish_phase(next) {
            return None;
        }
        h.since_transition = 0;
        h.streak_bad = 0;
        h.streak_good = 0;
        Some((cur, next))
    }
}

/// The view of the phase word an entry loop should retry against after a
/// failed CAS. Correct behavior: adopt the freshly observed `cur`
/// wholesale (any concurrent phase publication is re-examined). Under the
/// `phase-seeded-bug` mutation the stale phase bits of `seen` survive the
/// refresh — the retry then drops a concurrent publication on the floor.
#[inline]
pub fn refresh_view(seen: u64, cur: u64) -> u64 {
    if PHASE_RECHECK {
        cur
    } else {
        (cur & !PHASE_MASK) | (seen & PHASE_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(demote: u32, promote: u32, hyst: u32) -> PhasedParams {
        PhasedParams {
            demote_after: demote,
            promote_after: promote,
            hysteresis: hyst,
            hw_retry_budget: 2,
        }
    }

    #[test]
    fn word_encoding_round_trips() {
        for p in Phase::ALL {
            assert_eq!(Phase::decode(p as u64), p);
            assert_eq!(Phase::ALL[p.idx()], p);
        }
        let s = SharedModeState::new(PhasedParams::default());
        assert_eq!(s.phase(), Phase::Hw);
        assert_eq!(SharedModeState::active_count(s.word()), 0);
        assert_eq!(SharedModeState::epoch(s.word()), 0);
    }

    #[test]
    fn lattice_moves_one_level_and_saturates() {
        assert_eq!(Phase::Hw.demote(), Phase::Aggressive);
        assert_eq!(Phase::Aggressive.demote(), Phase::Cautious);
        assert_eq!(Phase::Cautious.demote(), Phase::Serial);
        assert_eq!(Phase::Serial.demote(), Phase::Serial);
        assert_eq!(Phase::Serial.promote(), Phase::Cautious);
        assert_eq!(Phase::Hw.promote(), Phase::Hw);
    }

    #[test]
    fn mode_mapping_honors_the_hw_retry_budget() {
        assert_eq!(Phase::Hw.mode_for(0, 2), Mode::Aggressive);
        assert_eq!(Phase::Hw.mode_for(1, 2), Mode::Aggressive);
        assert_eq!(Phase::Hw.mode_for(2, 2), Mode::Cautious);
        assert_eq!(
            Phase::Hw.mode_for(0, 0),
            Mode::Aggressive,
            "budget clamps to 1"
        );
        assert_eq!(Phase::Hw.mode_for(1, 0), Mode::Cautious);
        assert_eq!(Phase::Aggressive.mode_for(0, 2), Mode::Aggressive);
        assert_eq!(Phase::Aggressive.mode_for(1, 2), Mode::Cautious);
        assert_eq!(Phase::Cautious.mode_for(0, 2), Mode::Cautious);
        assert_eq!(Phase::Serial.mode_for(0, 2), Mode::Cautious);
    }

    #[test]
    fn optimistic_entry_counts_and_drains() {
        let s = SharedModeState::new(PhasedParams::default());
        let w = s.word();
        assert_eq!(s.cas_enter(w, w), Ok(Phase::Hw));
        let w = s.word();
        assert_eq!(SharedModeState::active_count(w), 1);
        assert_eq!(s.cas_enter(w, w), Ok(Phase::Hw));
        assert_eq!(SharedModeState::active_count(s.word()), 2);
        s.exit_optimistic();
        s.exit_optimistic();
        assert_eq!(SharedModeState::active_count(s.word()), 0);
    }

    #[test]
    fn stale_entry_cas_loses_and_refresh_reexamines_the_phase() {
        let s = SharedModeState::new(PhasedParams::default());
        let stale = s.word();
        assert!(s.publish_phase(Phase::Serial), "publication moves the word");
        let err = s.cas_enter(stale, stale).unwrap_err();
        assert_eq!(Phase::decode(err), Phase::Serial);
        // The correct refresh adopts the published phase.
        #[cfg(not(feature = "phase-seeded-bug"))]
        assert_eq!(Phase::decode(refresh_view(stale, err)), Phase::Serial);
    }

    #[test]
    fn serial_token_is_exclusive() {
        let s = SharedModeState::new(PhasedParams::default());
        assert!(s.try_acquire_token(7));
        assert!(
            !s.try_acquire_token(9),
            "held token rejects a second holder"
        );
        assert_eq!(s.token_holder(), 7);
        s.release_token(7);
        assert!(s.try_acquire_token(9));
        s.release_token(9);
    }

    /// One recorded [`Access`] call. A `Sync` carries the shared state
    /// right after its step: (phase, active count, token holder).
    #[derive(Debug, PartialEq)]
    enum Call {
        Sync(Phase, u64, u64),
        Pause(Wait),
    }
    use Call::{Pause, Sync};

    /// A move some other thread makes between two of this thread's calls.
    type Move = fn(&SharedModeState);

    /// The fake [`Access`]: records every call and plays the other
    /// threads, `others = [(n, move)]` running `move` just before this
    /// thread's call number `n` (for a pause: while it waits).
    struct Recorder<'a> {
        state: &'a SharedModeState,
        others: Vec<(usize, Move)>,
        calls: Vec<Call>,
    }

    impl<'a> Recorder<'a> {
        fn new(state: &'a SharedModeState, others: Vec<(usize, Move)>) -> Self {
            Recorder {
                state,
                others,
                calls: Vec::new(),
            }
        }

        fn others_move(&self) {
            for (at, other) in &self.others {
                if *at == self.calls.len() {
                    other(self.state);
                }
            }
        }
    }

    impl Access for Recorder<'_> {
        fn sync<T>(&mut self, step: impl FnOnce() -> T) -> T {
            self.others_move();
            let out = step();
            let w = self.state.word();
            self.calls.push(Sync(
                Phase::decode(w),
                SharedModeState::active_count(w),
                self.state.token_holder(),
            ));
            out
        }

        fn pause(&mut self, wait: Wait) {
            self.others_move();
            self.calls.push(Pause(wait));
        }
    }

    #[test]
    #[cfg(not(feature = "phase-seeded-bug"))]
    fn optimistic_entry_that_loses_a_cas_reenters_under_the_published_phase() {
        let s = SharedModeState::new(PhasedParams::default());
        let mut bus = Recorder::new(
            &s,
            vec![(1, |s| assert!(s.publish_phase(Phase::Aggressive)))],
        );
        assert_eq!(s.enter(7, &mut bus), Entry::Optimistic(Phase::Aggressive));
        assert_eq!(
            bus.calls,
            [
                Sync(Phase::Hw, 0, 0),         // load
                Sync(Phase::Aggressive, 0, 0), // CAS loses to the publication
                Sync(Phase::Aggressive, 1, 0), // CAS wins on the fresh word
            ]
        );
    }

    #[test]
    fn serial_entry_waits_for_the_token_then_for_the_drain() {
        let s = SharedModeState::new(PhasedParams::default());
        for _ in 0..2 {
            let w = s.word();
            s.cas_enter(w, w).unwrap();
        }
        assert!(s.publish_phase(Phase::Serial));
        assert!(s.try_acquire_token(9));
        let mut bus = Recorder::new(
            &s,
            vec![
                (2, |s| s.release_token(9)),
                (7, |s| s.exit_optimistic()),
                (9, |s| s.exit_optimistic()),
            ],
        );
        assert_eq!(s.enter(7, &mut bus), Entry::Serial);
        assert_eq!(
            bus.calls,
            [
                Sync(Phase::Serial, 2, 9), // load
                Sync(Phase::Serial, 2, 9), // token busy
                Pause(Wait::Token(1)),     // the holder releases meanwhile
                Sync(Phase::Serial, 2, 0), // re-read: still Serial
                Sync(Phase::Serial, 2, 7), // token taken
                Sync(Phase::Serial, 2, 7), // Serial re-verified
                Sync(Phase::Serial, 2, 7), // drain: two in flight
                Pause(Wait::Drain),
                Sync(Phase::Serial, 1, 7), // drain: one
                Pause(Wait::Drain),
                Sync(Phase::Serial, 0, 7), // alone
            ]
        );
    }

    #[test]
    fn token_won_for_a_promoted_phase_is_given_back() {
        let s = SharedModeState::new(PhasedParams::default());
        assert!(s.publish_phase(Phase::Serial));
        assert!(s.try_acquire_token(9));
        // The previous holder's commit lands between this thread's load
        // and its token CAS: event (a promotion) first, release second.
        let mut bus = Recorder::new(
            &s,
            vec![(1, |s| {
                assert!(s.publish_phase(Phase::Cautious));
                s.release_token(9);
            })],
        );
        assert_eq!(s.enter(7, &mut bus), Entry::Optimistic(Phase::Cautious));
        assert_eq!(
            bus.calls,
            [
                Sync(Phase::Serial, 0, 9),   // load
                Sync(Phase::Cautious, 0, 7), // token taken
                Sync(Phase::Cautious, 0, 7), // re-verify: Serial is gone
                Sync(Phase::Cautious, 0, 0), // token given back
                Sync(Phase::Cautious, 1, 0), // optimistic entry instead
            ]
        );
    }

    #[test]
    fn leaving_is_one_step_in_each_of_its_three_shapes() {
        // Hair-trigger: every event may move the phase.
        let s = SharedModeState::new(params(1, 1, 1));
        let none = Vec::new;

        // Optimistic: retired from the window and the event fed, at once.
        let entry = s.enter(7, &mut Recorder::new(&s, none()));
        let mut bus = Recorder::new(&s, none());
        let moved = s.leave(entry, 7, Some(PhaseEvent::ConflictAbort), &mut bus);
        assert_eq!(moved, Some((Phase::Hw, Phase::Aggressive)));
        assert_eq!(bus.calls, [Sync(Phase::Aggressive, 0, 0)]);
        // ... and with no event (a user abort) it only retires.
        let entry = s.enter(7, &mut Recorder::new(&s, none()));
        let mut bus = Recorder::new(&s, none());
        assert_eq!(s.leave(entry, 7, None, &mut bus), None);
        assert_eq!(bus.calls, [Sync(Phase::Aggressive, 0, 0)]);

        // Serial abort: the token goes back, nothing else moves.
        s.publish_phase(Phase::Serial);
        assert_eq!(s.enter(7, &mut Recorder::new(&s, none())), Entry::Serial);
        let mut bus = Recorder::new(&s, none());
        assert_eq!(s.leave(Entry::Serial, 7, None, &mut bus), None);
        assert_eq!(bus.calls, [Sync(Phase::Serial, 0, 0)]);

        // Serial commit: promoted and released in the same step.
        assert_eq!(s.enter(7, &mut Recorder::new(&s, none())), Entry::Serial);
        let mut bus = Recorder::new(&s, none());
        let moved = s.leave(Entry::Serial, 7, Some(PhaseEvent::SerialCommit), &mut bus);
        assert_eq!(moved, Some((Phase::Serial, Phase::Cautious)));
        assert_eq!(bus.calls, [Sync(Phase::Cautious, 0, 0)]);
    }

    #[test]
    fn the_event_comes_before_the_release_and_after_the_exit() {
        // Inside one step the order cannot be seen from outside, so make
        // the event die: a poisoned heuristics mutex panics `on_event`,
        // and whatever `leave` does before the event has happened while
        // whatever it does after has not.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let s = SharedModeState::new(PhasedParams::default());
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = s.heur.lock().unwrap();
                panic!("poisoning the heuristics mutex on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        let none = Vec::new;

        let entry = s.enter(7, &mut Recorder::new(&s, none()));
        let died = catch_unwind(AssertUnwindSafe(|| {
            s.leave(
                entry,
                7,
                Some(PhaseEvent::CleanCommit),
                &mut Recorder::new(&s, none()),
            )
        }));
        assert!(died.is_err());
        assert_eq!(
            SharedModeState::active_count(s.word()),
            0,
            "an optimistic transaction retires before its event"
        );

        s.publish_phase(Phase::Serial);
        assert_eq!(s.enter(7, &mut Recorder::new(&s, none())), Entry::Serial);
        let died = catch_unwind(AssertUnwindSafe(|| {
            s.leave(
                Entry::Serial,
                7,
                Some(PhaseEvent::SerialCommit),
                &mut Recorder::new(&s, none()),
            )
        }));
        assert!(died.is_err());
        assert_eq!(
            s.token_holder(),
            7,
            "a serial commit's event fires while the token is still held"
        );
    }

    #[test]
    fn bad_streak_demotes_one_level_after_hysteresis() {
        let s = SharedModeState::new(params(3, 8, 5));
        // Four bad events: streak reaches demote_after but hysteresis (5)
        // is not yet satisfied.
        for _ in 0..4 {
            assert_eq!(s.on_event(PhaseEvent::CapacityAbort), None);
        }
        assert_eq!(
            s.on_event(PhaseEvent::CapacityAbort),
            Some((Phase::Hw, Phase::Aggressive)),
            "fifth event satisfies hysteresis with the streak intact"
        );
        assert_eq!(s.phase(), Phase::Aggressive);
        // The transition reset the streaks; the next demotion needs a
        // fresh hysteresis window.
        for _ in 0..4 {
            assert_eq!(s.on_event(PhaseEvent::ConflictAbort), None);
        }
        assert_eq!(
            s.on_event(PhaseEvent::ConflictAbort),
            Some((Phase::Aggressive, Phase::Cautious))
        );
    }

    #[test]
    fn clean_streak_recovers_all_the_way_to_hw() {
        let s = SharedModeState::new(params(2, 3, 3));
        // Drive down to Serial.
        while s.phase() != Phase::Serial {
            s.on_event(PhaseEvent::ConflictAbort);
        }
        // Optimistic stragglers cannot reopen a serial phase.
        for _ in 0..20 {
            assert_eq!(s.on_event(PhaseEvent::CleanCommit), None);
        }
        assert_eq!(s.phase(), Phase::Serial);
        // Serial commits promote, one level per hysteresis window.
        while s.phase() != Phase::Hw {
            let before = s.phase();
            let mut moved = false;
            for _ in 0..8 {
                if let Some((from, to)) = s.on_event(PhaseEvent::SerialCommit) {
                    assert_eq!(from, before);
                    assert_eq!(to, before.promote(), "single-level move");
                    moved = true;
                    break;
                }
            }
            assert!(
                moved,
                "quiescence must eventually promote out of {before:?}"
            );
        }
    }

    #[test]
    fn publication_preserves_the_active_count() {
        let s = SharedModeState::new(PhasedParams::default());
        let w = s.word();
        s.cas_enter(w, w).unwrap();
        assert!(s.publish_phase(Phase::Aggressive));
        let w = s.word();
        assert_eq!(SharedModeState::active_count(w), 1);
        assert_eq!(SharedModeState::epoch(w), 1);
        assert_eq!(Phase::decode(w), Phase::Aggressive);
    }
}
