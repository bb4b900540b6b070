//! The configuration matrix as data.
//!
//! [`AXES`] has one row per axis: its name, its slug-component ↔ value
//! pairs in sweep order, which schemes read it, and how the suite relates
//! same-seed trials that differ only along it. [`Combo::all`],
//! [`Combo::slug`], [`Combo::parse`] (hence `--list-combos`), the
//! per-axis erase key and the suite's cross-check loop all read that one
//! table, so **adding an axis is one [`Combo`] field plus one row**.

use hastm::{BarrierKind, Granularity, ModePolicy, PhasedParams, StmConfig, Versioning};
use hastm_sim::IsaLevel;
use hastm_workloads::Scheme;

/// One point in the configuration matrix under differential test.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Combo {
    /// Concurrency-control scheme.
    pub scheme: Scheme,
    /// Conflict-detection granularity of the STM runtime.
    pub granularity: Granularity,
    /// Mark-bit ISA implementation level of the simulated machine.
    pub isa: IsaLevel,
    /// Mode policy; `Some` only for [`Scheme::Hastm`], which
    /// `Combo::stm_config` then runs as [`Scheme::HastmUnder`] that
    /// policy. `None` leaves the thread count to choose it.
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

/// How the suite relates same-seed trials that differ only along one axis:
/// they must reach the same final state. The axis may legitimately change
/// per-op cycle costs, hence interleavings and makespans, but every suite
/// workload makes its final state interleaving-independent by construction.
#[derive(Debug)]
pub struct Relation {
    /// What a failure and the report's comparison count call it.
    pub label: &'static str,
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
    /// `false` for a positional axis every slug spells out; `true` for an
    /// optional suffix, whose [`BASE`] value is never spelled.
    optional: bool,
    /// Which schemes read this axis. Every other scheme keeps its `BASE`
    /// value: the matrix does not sweep the axis there, and a slug may not
    /// set another value.
    pub only: fn(Scheme) -> bool,
    /// The cross-check along this axis, if any.
    pub relation: Option<Relation>,
}

const WATERMARK: ModePolicy = ModePolicy::AbortRatioWatermark;

/// Tighter than the library defaults so the small suite workloads actually
/// exercise transitions (including the serial phase) within a trial's few
/// hundred transactions.
const PHASED: ModePolicy = ModePolicy::Phased(PhasedParams {
    demote_after: 2,
    promote_after: 4,
    hysteresis: 4,
    hw_retry_budget: 2,
});

/// Whether `scheme`'s executor consults transaction records — the STM
/// engine, and the hybrid's hardware path and software fallback — which is
/// all the granularity changes. Sequential and lock executors do not.
fn reads_records(scheme: Scheme) -> bool {
    scheme.is_stm_based() || scheme == Scheme::Hytm
}

/// Whether `scheme`'s barriers execute mark instructions, the only code the
/// ISA level changes.
fn uses_marks(scheme: Scheme) -> bool {
    scheme.stm_config(BASE.granularity, 1).barrier == BarrierKind::Hastm
}

/// Every axis, in slug (and sweep-nesting) order.
pub static AXES: [Axis; 5] = [
    Axis {
        name: "scheme",
        // `hastm-cautious` and `naive-aggressive` only parse: each is
        // `Scheme::HastmUnder` the `cautious` or `naive` policy, which the
        // policy axis sweeps under `hastm`.
        values: &[
            ("seq", |c| c.scheme = Scheme::Sequential),
            ("lock", |c| c.scheme = Scheme::Lock),
            ("stm", |c| c.scheme = Scheme::Stm),
            ("hastm", |c| c.scheme = Scheme::Hastm),
            ("hastm-noreuse", |c| c.scheme = Scheme::HastmNoReuse),
            ("hytm", |c| c.scheme = Scheme::Hytm),
            ("hastm-cautious", |c| {
                c.scheme = Scheme::HastmUnder(ModePolicy::AlwaysCautious)
            }),
            ("naive-aggressive", |c| {
                c.scheme = Scheme::HastmUnder(ModePolicy::NaiveAggressive)
            }),
        ],
        swept: 6,
        optional: false,
        only: |_| true,
        relation: None,
    },
    Axis {
        name: "granularity",
        values: &[
            ("obj", |c| c.granularity = Granularity::Object),
            ("line", |c| c.granularity = Granularity::CacheLine),
        ],
        swept: 2,
        optional: false,
        only: reads_records,
        relation: None,
    },
    Axis {
        name: "isa level",
        values: &[
            ("full", |c| c.isa = IsaLevel::Full),
            ("default", |c| c.isa = IsaLevel::Default),
        ],
        swept: 2,
        optional: false,
        only: uses_marks,
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
        optional: true,
        only: |scheme| scheme == Scheme::Hastm,
        // Restricted to the phased / watermark pair: the phase controller
        // must be observationally invisible in the final state (serial-phase
        // soundness included).
        relation: Some(Relation {
            label: "phase-policy",
            among: |c| {
                matches!(
                    c.policy,
                    Some(ModePolicy::Phased(_) | ModePolicy::AbortRatioWatermark)
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
        optional: true,
        only: Scheme::is_stm_based,
        relation: Some(Relation {
            label: "versioning",
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
        (!self.optional || Axis::with(&BASE, *set) != BASE).then_some(*slug)
    }

    /// `combo` with this axis canonicalized away — the key the suite's
    /// cross-check groups this axis's twins by.
    pub fn erase(&self, combo: &Combo) -> Combo {
        Axis::with(combo, self.values[0].1)
    }
}

impl Combo {
    /// The full matrix: the product of every axis's swept values, each
    /// axis expanding only the schemes that read it — 30 single-version
    /// combinations (sequential and lock once each, STM and the hybrid per
    /// granularity, the two HASTM barriers per granularity and ISA level,
    /// [`Scheme::Hastm`] under every mode policy) plus a
    /// [`Versioning::Multi`]`{k: 3}` twin of each of the 26 STM-based ones,
    /// 56 total. Later axes nest innermost, so a twin rides directly after
    /// its single-version original.
    pub fn all() -> Vec<Combo> {
        let mut combos = vec![BASE];
        for axis in &AXES {
            combos = combos
                .iter()
                .flat_map(|c| {
                    if (axis.only)(c.scheme) {
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
                    if !(axis.only)(combo.scheme) && Axis::with(&BASE, *set) != BASE {
                        return Err(format!(
                            "combo `{s}`: this scheme has no {} axis, so `{part}` cannot apply",
                            axis.name
                        ));
                    }
                    parts.next();
                }
                None if axis.optional => {}
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
                     (the simulator has one admission rule)"
                )
            } else {
                format!("combo `{s}`: `{part}` is unknown, repeated, or out of place; {SHAPE}")
            });
        }
        Ok(combo)
    }

    /// The STM runtime configuration of this combination: its scheme's,
    /// or [`Scheme::HastmUnder`] its policy when it names one.
    pub(crate) fn stm_config(&self, threads: usize) -> StmConfig {
        self.policy
            .map_or(self.scheme, Scheme::HastmUnder)
            .stm_config(self.granularity, threads)
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
    use crate::{run_trial_plan, schedule_hash, RunPlan, Sched, Trial, Workload};
    use hastm_sim::mutant::arm;

    /// The matrix once swept every scheme name, and granularity and ISA
    /// level under every scheme: 84 combos. Each one it no longer sweeps
    /// must run seed 0 of every workload bit for bit like the swept combo
    /// it maps to, and no two swept combos may run alike.
    #[test]
    fn every_dropped_combo_reruns_a_swept_one_bit_for_bit() {
        let _quiet = arm(None);
        // What the matrix swept before: every scheme name, and granularity
        // and ISA level under every scheme.
        let mut old = vec![BASE];
        for (i, axis) in AXES.iter().enumerate() {
            let values = if i == 0 {
                axis.values
            } else {
                &axis.values[..axis.swept]
            };
            old = old
                .iter()
                .flat_map(|c| {
                    if axis.optional && !(axis.only)(c.scheme) {
                        vec![*c]
                    } else {
                        values.iter().map(|(_, set)| Axis::with(c, *set)).collect()
                    }
                })
                .collect();
        }
        assert_eq!(old.len(), 84);
        // The swept combo each old one maps to.
        let kept = |c: &Combo| {
            let mut k = *c;
            if let Scheme::HastmUnder(policy) = c.scheme {
                (k.scheme, k.policy) = (Scheme::Hastm, Some(policy));
            }
            if !reads_records(k.scheme) {
                k.granularity = BASE.granularity;
            }
            if !uses_marks(k.scheme) {
                k.isa = BASE.isa;
            }
            k
        };
        let plan = RunPlan {
            trace: Some(hastm_sim::TraceConfig),
            ..RunPlan::default()
        };
        let run = |combo: Combo| -> Vec<_> {
            Workload::ALL
                .iter()
                .map(|&workload| {
                    let trial = Trial {
                        combo,
                        workload,
                        seed: 0,
                        threads: 3,
                        ops: 8,
                        sched: Sched::Fuzzed,
                    };
                    let (fp, obs) =
                        run_trial_plan(&trial, &plan).unwrap_or_else(|e| panic!("{trial}: {e}"));
                    let (hash, causes) = (schedule_hash(&obs.schedule()), obs.abort_causes());
                    (fp, obs.stats, causes, hash, obs.report)
                })
                .collect()
        };
        let all = Combo::all();
        let swept: Vec<_> = all.iter().map(|&c| run(c)).collect();
        // The watermark policy starts cautious and turns aggressive only
        // once its dirty ratio falls under the watermark, which trials
        // this short rarely reach: that pair may coincide by behaviour,
        // not by construction, so both stay swept.
        let stayed_cautious = |a: &Combo, b: &Combo| {
            let [.., policy, _] = &AXES;
            let pair = [a.policy, b.policy];
            policy.erase(a) == policy.erase(b)
                && pair.contains(&Some(WATERMARK))
                && pair.contains(&Some(ModePolicy::AlwaysCautious))
        };
        let mut alike = vec![];
        for (i, a) in swept.iter().enumerate() {
            let same = |&j: &usize| swept[j] == *a && !stayed_cautious(&all[i], &all[j]);
            for j in (0..i).filter(same) {
                alike.push(format!("{} = {}", all[i], all[j]));
            }
        }
        assert!(alike.is_empty(), "swept combos that run alike: {alike:?}");
        let mut dropped = 0;
        for c in &old {
            let k = kept(c);
            let i = all.iter().position(|s| *s == k);
            let i = i.unwrap_or_else(|| panic!("{c} maps to {k}, which is not swept"));
            if k != *c {
                assert_eq!(run(*c), swept[i], "{c} must run exactly like {k}");
                dropped += 1;
            }
        }
        assert_eq!(dropped, 84 - all.len());
    }

    /// The checker's public spelling: `--list-combos` prints these 56
    /// slugs, in this order. Replay lines, CI rows and the docs quote them.
    #[test]
    fn the_swept_slugs_are_pinned_in_order() {
        const SLUGS: [&str; 56] = [
            "seq:obj:full",
            "lock:obj:full",
            "stm:obj:full",
            "stm:obj:full:v3",
            "stm:line:full",
            "stm:line:full:v3",
            "hastm:obj:full:cautious",
            "hastm:obj:full:cautious:v3",
            "hastm:obj:full:single",
            "hastm:obj:full:single:v3",
            "hastm:obj:full:watermark",
            "hastm:obj:full:watermark:v3",
            "hastm:obj:full:naive",
            "hastm:obj:full:naive:v3",
            "hastm:obj:full:ph",
            "hastm:obj:full:ph:v3",
            "hastm:obj:default:cautious",
            "hastm:obj:default:cautious:v3",
            "hastm:obj:default:single",
            "hastm:obj:default:single:v3",
            "hastm:obj:default:watermark",
            "hastm:obj:default:watermark:v3",
            "hastm:obj:default:naive",
            "hastm:obj:default:naive:v3",
            "hastm:obj:default:ph",
            "hastm:obj:default:ph:v3",
            "hastm:line:full:cautious",
            "hastm:line:full:cautious:v3",
            "hastm:line:full:single",
            "hastm:line:full:single:v3",
            "hastm:line:full:watermark",
            "hastm:line:full:watermark:v3",
            "hastm:line:full:naive",
            "hastm:line:full:naive:v3",
            "hastm:line:full:ph",
            "hastm:line:full:ph:v3",
            "hastm:line:default:cautious",
            "hastm:line:default:cautious:v3",
            "hastm:line:default:single",
            "hastm:line:default:single:v3",
            "hastm:line:default:watermark",
            "hastm:line:default:watermark:v3",
            "hastm:line:default:naive",
            "hastm:line:default:naive:v3",
            "hastm:line:default:ph",
            "hastm:line:default:ph:v3",
            "hastm-noreuse:obj:full",
            "hastm-noreuse:obj:full:v3",
            "hastm-noreuse:obj:default",
            "hastm-noreuse:obj:default:v3",
            "hastm-noreuse:line:full",
            "hastm-noreuse:line:full:v3",
            "hastm-noreuse:line:default",
            "hastm-noreuse:line:default:v3",
            "hytm:obj:full",
            "hytm:line:full",
        ];
        let slugs: Vec<String> = Combo::all().iter().map(Combo::slug).collect();
        assert_eq!(slugs, SLUGS);
    }

    /// The parse-only scheme names are `hastm` under the policy they name:
    /// the same runtime at every granularity, ISA level and thread count.
    #[test]
    fn the_parse_only_schemes_build_the_policy_combos_config() {
        for (scheme, policy) in [
            ("hastm-cautious", "cautious"),
            ("naive-aggressive", "naive"),
        ] {
            for gran in ["obj", "line"] {
                for isa in ["full", "default"] {
                    let alias = Combo::parse(&format!("{scheme}:{gran}:{isa}")).unwrap();
                    let swept = Combo::parse(&format!("hastm:{gran}:{isa}:{policy}")).unwrap();
                    assert_eq!(
                        (alias.granularity, alias.isa),
                        (swept.granularity, swept.isa)
                    );
                    for threads in [1, 2, 4] {
                        assert_eq!(
                            alias.stm_config(threads),
                            swept.stm_config(threads),
                            "{alias} vs {swept} at {threads} threads"
                        );
                    }
                }
            }
        }
    }

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
        // The suite groups twins by the erased combo's value.
        let parse = |slug| Combo::parse(slug).unwrap();
        assert_eq!(policy.erase(&twin), parse("hastm:obj:full:cautious:v3"));
        assert_eq!(
            policy.erase(&twin),
            policy.erase(&parse("hastm:obj:full:watermark:v3"))
        );
        assert_eq!(versioning.erase(&twin), parse("hastm:obj:full:ph"));
        assert_eq!(
            versioning.erase(&twin),
            versioning.erase(&parse("hastm:obj:full:ph:v1"))
        );
        let among = policy.relation.as_ref().unwrap().among;
        assert!(among(&twin));
        assert!(!among(&Combo::parse("hastm:obj:full:naive").unwrap()));
        assert!(!among(&Combo::parse("stm:obj:full").unwrap()));
    }
}
