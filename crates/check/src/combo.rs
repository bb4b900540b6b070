//! The configuration matrix as data.
//!
//! [`AXES`] has one row per axis: its name, its slug-component ↔ value
//! pairs in sweep order, which schemes have it, and how the suite relates
//! same-seed trials that differ only along it. [`Combo::all`],
//! [`Combo::slug`], [`Combo::parse`] (hence `--list-combos`), the
//! per-axis erase key and the suite's cross-check loop all read that one
//! table, so **adding an axis is one [`Combo`] field plus one row**.

use hastm::{Granularity, ModePolicy, PhasedParams, StmConfig, Versioning};
use hastm_sim::IsaLevel;
use hastm_workloads::Scheme;

use crate::Fingerprint;

/// One point in the configuration matrix under differential test.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Combo {
    /// Concurrency-control scheme.
    pub scheme: Scheme,
    /// Conflict-detection granularity of the STM runtime.
    pub granularity: Granularity,
    /// Mark-bit ISA implementation level of the simulated machine.
    pub isa: IsaLevel,
    /// Mode policy override; `Some` only for [`Scheme::Hastm`], which is
    /// the one scheme whose policy is not implied by the scheme itself.
    pub policy: Option<ModePolicy>,
    /// Version retention of the STM runtime. Under [`Versioning::Multi`]
    /// the map workloads' lookups run as declared read-only snapshot
    /// transactions, which must commit abort-free.
    pub versioning: Versioning,
}

/// What parsing starts from: the first value of every positional axis,
/// and the meaning of an omitted optional component.
const BASE: Combo = Combo {
    scheme: Scheme::Sequential,
    granularity: Granularity::Object,
    isa: IsaLevel::Full,
    policy: None,
    versioning: Versioning::Single,
};

/// What same-seed twins must agree on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Comparator {
    /// The final state only: the axis legitimately changes per-op cycle
    /// costs, hence interleavings and makespans, but every suite workload
    /// makes its final state interleaving-independent by construction.
    FinalState,
}

impl Comparator {
    /// Whether two twins' fingerprints agree under this comparator.
    pub fn agrees(self, a: Fingerprint, b: Fingerprint) -> bool {
        match self {
            Comparator::FinalState => a.state == b.state,
        }
    }

    /// The compared part of a fingerprint, as a divergence report prints it.
    pub fn show(self, fp: Fingerprint) -> String {
        match self {
            Comparator::FinalState => format!("final state {:#018x}", fp.state),
        }
    }
}

/// How the suite relates same-seed trials that differ only along one axis.
#[derive(Debug)]
pub struct Relation {
    /// What a failure and the report's comparison count call it.
    pub label: &'static str,
    /// What the twins must agree on.
    pub comparator: Comparator,
    /// Which combos take part (the others are left unrelated).
    pub among: fn(&Combo) -> bool,
    /// Why the twins must agree, as a failure says it.
    pub claim: &'static str,
}

/// One value of an axis: its slug component, and the assignment that
/// installs it in a combo.
type Value = (&'static str, fn(&mut Combo));

/// One axis of the matrix.
#[derive(Debug)]
pub struct Axis {
    /// Axis name, as parse errors print it.
    pub name: &'static str,
    /// The axis's values in sweep order. A combo's value reads back as
    /// the entry whose assignment leaves it unchanged. The first entry is
    /// what [`Axis::erase`] canonicalizes to.
    values: &'static [Value],
    /// How many leading `values` the matrix sweeps; the rest only parse.
    swept: usize,
    /// `None` for a positional axis every slug spells out. `Some(has)` for
    /// an optional suffix: only schemes with `has(scheme)` sweep it or may
    /// carry a non-[`BASE`] value, and the `BASE` value is never spelled.
    pub only: Option<fn(Scheme) -> bool>,
    /// The cross-check along this axis, if any.
    pub relation: Option<Relation>,
}

const WATERMARK: ModePolicy = ModePolicy::AbortRatioWatermark { watermark: 0.1 };

/// Tighter than the library defaults so the small suite workloads actually
/// exercise transitions (including the serial phase) within a trial's few
/// hundred transactions.
const PHASED: ModePolicy = ModePolicy::Phased(PhasedParams {
    demote_after: 2,
    promote_after: 4,
    hysteresis: 4,
    hw_retry_budget: 2,
});

/// Every axis, in slug (and sweep-nesting) order.
pub static AXES: [Axis; 5] = [
    Axis {
        name: "scheme",
        values: &[
            ("seq", |c| c.scheme = Scheme::Sequential),
            ("lock", |c| c.scheme = Scheme::Lock),
            ("stm", |c| c.scheme = Scheme::Stm),
            ("hastm-cautious", |c| c.scheme = Scheme::HastmCautious),
            ("hastm", |c| c.scheme = Scheme::Hastm),
            ("hastm-noreuse", |c| c.scheme = Scheme::HastmNoReuse),
            ("naive-aggressive", |c| c.scheme = Scheme::NaiveAggressive),
            ("hytm", |c| c.scheme = Scheme::Hytm),
        ],
        swept: 8,
        only: None,
        relation: None,
    },
    Axis {
        name: "granularity",
        values: &[
            ("obj", |c| c.granularity = Granularity::Object),
            ("line", |c| c.granularity = Granularity::CacheLine),
        ],
        swept: 2,
        only: None,
        relation: None,
    },
    Axis {
        name: "isa level",
        values: &[
            ("full", |c| c.isa = IsaLevel::Full),
            ("default", |c| c.isa = IsaLevel::Default),
        ],
        swept: 2,
        only: None,
        relation: None,
    },
    Axis {
        name: "policy",
        values: &[
            ("cautious", |c| c.policy = Some(ModePolicy::AlwaysCautious)),
            ("single", |c| {
                c.policy = Some(ModePolicy::SingleThreadAggressive)
            }),
            ("watermark", |c| c.policy = Some(WATERMARK)),
            ("naive", |c| c.policy = Some(ModePolicy::NaiveAggressive)),
            ("ph", |c| c.policy = Some(PHASED)),
        ],
        swept: 5,
        only: Some(|scheme| scheme == Scheme::Hastm),
        // Restricted to the phased / watermark pair: the phase controller
        // must be observationally invisible in the final state (serial-phase
        // soundness included).
        relation: Some(Relation {
            label: "phase-policy",
            comparator: Comparator::FinalState,
            among: |c| {
                matches!(
                    c.policy,
                    Some(ModePolicy::Phased(_) | ModePolicy::AbortRatioWatermark { .. })
                )
            },
            claim: "the phase controller must not change what transactions commit",
        }),
    },
    Axis {
        name: "versioning",
        values: &[
            ("v1", |c| c.versioning = Versioning::Single),
            ("v3", |c| c.versioning = Versioning::Multi { k: 3 }),
            ("v2", |c| c.versioning = Versioning::Multi { k: 2 }),
        ],
        swept: 2,
        only: Some(Scheme::is_stm_based),
        relation: Some(Relation {
            label: "versioning",
            comparator: Comparator::FinalState,
            among: |_| true,
            claim: "multi-version writers must reach the single-version state",
        }),
    },
];

impl Axis {
    /// `combo` with `set` applied.
    fn with(combo: &Combo, set: fn(&mut Combo)) -> Combo {
        let mut c = *combo;
        set(&mut c);
        c
    }

    /// The slug component this axis contributes for `combo`: none for an
    /// optional axis at its [`BASE`] value, or for a value the table does
    /// not name (a test's hand-built policy).
    fn component(&self, combo: &Combo) -> Option<&'static str> {
        let (slug, set) = self
            .values
            .iter()
            .find(|(_, set)| Axis::with(combo, *set) == *combo)?;
        (self.only.is_none() || Axis::with(&BASE, *set) != BASE).then_some(*slug)
    }

    /// `combo` with this axis canonicalized away — the key the suite's
    /// cross-check groups this axis's twins by.
    pub fn erase(&self, combo: &Combo) -> Combo {
        Axis::with(combo, self.values[0].1)
    }
}

impl Combo {
    /// The full matrix: the product of every axis's swept values, an
    /// optional axis expanding only the schemes that have it — 48
    /// single-version combinations ([`Scheme::Hastm`] swept over every mode
    /// policy) plus a [`Versioning::Multi`]`{k: 3}` twin of each of the 36
    /// STM-based ones, 84 total. Later axes nest innermost, so a twin rides
    /// directly after its single-version original.
    pub fn all() -> Vec<Combo> {
        let mut combos = vec![BASE];
        for axis in &AXES {
            combos = combos
                .iter()
                .flat_map(|c| {
                    if axis.only.is_none_or(|has| has(c.scheme)) {
                        let swept = &axis.values[..axis.swept];
                        swept.iter().map(|(_, set)| Axis::with(c, *set)).collect()
                    } else {
                        vec![*c]
                    }
                })
                .collect();
        }
        combos
    }

    /// Stable machine-parseable identifier, e.g. `hastm:obj:full:watermark`
    /// or `stm:line:full:v3`.
    pub fn slug(&self) -> String {
        let parts: Vec<&str> = AXES.iter().filter_map(|a| a.component(self)).collect();
        parts.join(":")
    }

    /// Parses a [`Combo::slug`]: `scheme:gran:isa[:policy][:v1|v2|v3]`,
    /// the optional suffixes in that order (`v1` spells the single-version
    /// default out; `v2`/`v3` are 2- and 3-deep snapshot rings — the only
    /// depths the versioning axis names, so `v4` is rejected).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed component.
    pub fn parse(s: &str) -> Result<Combo, String> {
        const SHAPE: &str = "want scheme:gran:isa[:policy][:v1|v2|v3]";
        let mut parts = s.split(':').peekable();
        let mut combo = BASE;
        for axis in &AXES {
            let named = parts
                .peek()
                .and_then(|part| axis.values.iter().find(|(slug, _)| slug == part));
            match named {
                Some((part, set)) => {
                    set(&mut combo);
                    // The scheme is parsed first, so it is final here.
                    if axis.only.is_some_and(|has| !has(combo.scheme))
                        && axis.component(&combo).is_some()
                    {
                        return Err(format!(
                            "combo `{s}`: this scheme has no {} axis, so `{part}` cannot apply",
                            axis.name
                        ));
                    }
                    parts.next();
                }
                None if axis.only.is_some() => {}
                None => {
                    let part = parts.peek().unwrap_or(&"");
                    return Err(format!(
                        "combo `{s}`: unknown {} `{part}`; {SHAPE}",
                        axis.name
                    ));
                }
            }
        }
        if let Some(part) = parts.next() {
            return Err(if part == "perop" || part == "quantum" {
                format!(
                    "combo `{s}`: the gate is no longer a combo axis — drop `{part}` \
                     (every trial runs the quantum gate; per-op equivalence is a test)"
                )
            } else {
                format!("combo `{s}`: `{part}` is unknown, repeated, or out of place; {SHAPE}")
            });
        }
        Ok(combo)
    }

    /// The STM runtime configuration of this combination.
    pub(crate) fn stm_config(&self, threads: usize) -> StmConfig {
        self.scheme
            .stm_config_under(self.granularity, threads, self.policy)
            .with_versioning(self.versioning)
    }
}

impl std::fmt::Display for Combo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_components_are_rejected_by_name() {
        // Replay lines printed before the gate left the matrix must fail
        // loudly, not run under a different meaning.
        for old in [
            "stm:obj:full:perop",
            "stm:obj:full:quantum",
            "hastm:line:default:naive:perop",
            "hastm:obj:full:watermark:quantum:v3",
        ] {
            let err = Combo::parse(old).expect_err(old);
            assert!(err.contains("no longer a combo axis"), "{old}: {err}");
        }
    }

    #[test]
    fn an_unnamed_ring_depth_is_rejected_naming_the_accepted_ones() {
        let err = Combo::parse("stm:line:full:v4").expect_err("v4");
        let [.., versioning] = &AXES;
        let accepted: Vec<&str> = versioning.values.iter().map(|(slug, _)| *slug).collect();
        assert_eq!(accepted, ["v1", "v3", "v2"]);
        assert!(err.contains("`v4`") && err.contains("v1|v2|v3"), "{err}");
    }

    #[test]
    fn erase_and_comparators_follow_the_table() {
        let twin = Combo::parse("hastm:obj:full:ph:v3").unwrap();
        let [.., policy, versioning] = &AXES;
        assert_eq!(policy.erase(&twin).slug(), "hastm:obj:full:cautious:v3");
        assert_eq!(versioning.erase(&twin).slug(), "hastm:obj:full:ph");
        let among = policy.relation.as_ref().unwrap().among;
        assert!(among(&twin));
        assert!(!among(&Combo::parse("hastm:obj:full:naive").unwrap()));
        assert!(!among(&Combo::parse("stm:obj:full").unwrap()));

        let a = Fingerprint {
            state: 1,
            makespan: 10,
        };
        let b = Fingerprint { makespan: 11, ..a };
        assert!(Comparator::FinalState.agrees(a, b));
        assert!(!Comparator::FinalState.agrees(a, Fingerprint { state: 2, ..a }));
    }
}
