//! The recursive mining kernel `Compute_Frequent` (Figure 3).
//!
//! ```text
//! Begin Compute_Frequent(E_{k-1})
//!   for all itemsets I1 and I2 in E_{k-1}
//!     if ((I1.tidlist ∩ I2.tidlist) ≥ minsup)
//!       add (I1 ∪ I2) to L_k
//!   Partition L_k into equivalence classes
//!   for each equivalence class E_k in L_k
//!     Compute_Frequent(E_k)
//! End
//! ```
//!
//! The kernel is generic over the members' vertical representation
//! ([`TidSet`]): the same recursion mines tid-lists, d-Eclat diffsets,
//! or the mid-recursion [`tidlist::AdaptiveSet`] switcher. All pairwise
//! candidate generation in this crate funnels through `join_level` —
//! the one place the `I1 × I2` loop exists.
//!
//! Once a level's members are joined, the parent tid-lists are dropped
//! before recursing — *"once L_k has been determined, we can delete
//! L_{k-1}; we thus need main memory space only for the itemsets in
//! L_{k-1} within one equivalence class"* (§5.3).

use crate::equivalence::{repartition, ClassMember, EquivalenceClass};
use crate::schedule::ScheduleHeuristic;
use mining_types::stats::KernelStats;
use mining_types::{FrequentSet, FxHashSet, Itemset, OpMeter};
use tidlist::TidSet;

/// Which vertical representation the per-class recursion runs on (S17).
///
/// Every variant's driver builds `L2` classes as tid-lists (that is what
/// the vertical transform produces); this knob decides what happens below
/// `L2`. `pipeline::on_representation` is the one place it is matched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Representation {
    /// Plain sorted tid-lists — the paper's §4.2 layout.
    #[default]
    TidList,
    /// d-Eclat diffsets: the very first join below `L2` converts
    /// `d(xy·z) = t(xy) − t(xz)` and the subtree continues on diffsets.
    Diffset,
    /// Start on tid-lists and convert each branch to diffsets after
    /// `depth` further join levels. `depth = 0` is exactly [`Diffset`];
    /// a depth deeper than the lattice never switches (pure tid-lists).
    ///
    /// [`Diffset`]: Representation::Diffset
    AutoSwitch {
        /// Tid-list join levels below `L2` before the switch.
        depth: u32,
    },
    /// Fixed-width bitmaps: every class converts to `u64` bitmap words
    /// over the class's tid window and joins become word `AND` +
    /// popcount (`tidlist::BitmapSet`). A big win on dense databases,
    /// a memory/work loss on sparse ones — `AutoDensity` picks per class.
    ///
    /// [`AutoDensity`]: Representation::AutoDensity
    Bitmap,
    /// Per-class density dispatch: a class whose average member density
    /// (`Σ support / (members · window span)`) is at least
    /// `permille / 1000` mines on bitmaps; sparser classes mine on
    /// diffsets, exactly as [`Diffset`] does.
    ///
    /// [`Diffset`]: Representation::Diffset
    AutoDensity {
        /// Density threshold in thousandths. The default
        /// [`DEFAULT_DENSITY_PERMILLE`] sits at the bitmap-vs-merge
        /// op-count crossover: a `w`-word bitmap join costs `w` word ops
        /// while a tid-list merge costs about `2·d·64·w` element probes, so
        /// the bitmap is cheaper once density `d ≳ 1/128 ≈ 8‰`. The
        /// sparse arm is diffsets, whose cost that crossover does not
        /// model; the threshold is not calibrated on measured seconds.
        permille: u32,
    },
}

/// Default `auto-density` threshold: 8‰, the bitmap-vs-merge op-count
/// crossover. Classes below it mine on diffsets (see
/// [`Representation::AutoDensity`]).
pub const DEFAULT_DENSITY_PERMILLE: u32 = 8;

impl std::fmt::Display for Representation {
    /// Stable lowercase form used by the CLI flag parser and the stats
    /// JSON: `tidlist`, `diffset`, `autoswitch:N`, `bitmap`,
    /// `auto-density:N`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Representation::TidList => f.write_str("tidlist"),
            Representation::Diffset => f.write_str("diffset"),
            Representation::AutoSwitch { depth } => write!(f, "autoswitch:{depth}"),
            Representation::Bitmap => f.write_str("bitmap"),
            Representation::AutoDensity { permille } => write!(f, "auto-density:{permille}"),
        }
    }
}

/// Tuning switches for Eclat (all variants).
#[derive(Clone, Debug)]
pub struct EclatConfig {
    /// §5.3 short-circuited intersections: abandon a join the moment the
    /// result provably cannot reach the minimum support.
    pub short_circuit: bool,
    /// §5.3 "Pruning Candidates": check a candidate's conclusive
    /// `(k−1)`-subsets (those under the same class root, which are fully
    /// mined before deeper recursion) before intersecting. The paper
    /// found this *"of little or no help"* with the vertical layout; the
    /// toggle exists to reproduce that ablation (A3).
    pub prune: bool,
    /// Also report frequent 1-itemsets. The paper's Eclat skips them
    /// (*"We don't count the support of single elements"*, §5.1); turning
    /// this on adds a cheap piggybacked count during the first scan so
    /// the output is a complete downward-closed set for rule generation.
    pub include_singletons: bool,
    /// Vertical representation used below `L2` (tid-lists, diffsets, or
    /// the depth-triggered switch).
    pub representation: Representation,
    /// Use the adaptive galloping intersection for tid-list joins below
    /// `L2`: exponential search through the longer operand when the
    /// lengths are skewed by more than 16×, two-pointer merge otherwise.
    /// Applies to [`Representation::TidList`] only — diffset differences
    /// have no galloping analogue. Galloping computes full intersections
    /// (no §5.3 short-circuit), so `short_circuit` has no effect on the
    /// joins it handles.
    pub gallop: bool,
    /// Class-scheduling heuristic (cluster/hybrid/parallel variants).
    pub heuristic: ScheduleHeuristic,
    /// Transmit/receive buffer for the §6.3 exchange (cluster variant).
    pub buffer_bytes: u64,
}

impl Default for EclatConfig {
    fn default() -> Self {
        EclatConfig {
            short_circuit: true,
            prune: false,
            include_singletons: false,
            representation: Representation::TidList,
            gallop: false,
            heuristic: ScheduleHeuristic::GreedyPairs,
            buffer_bytes: 2 * 1024 * 1024, // the paper's 2 MB buffers
        }
    }
}

impl EclatConfig {
    /// Config that also emits frequent 1-itemsets.
    pub fn with_singletons() -> Self {
        EclatConfig {
            include_singletons: true,
            ..Default::default()
        }
    }

    /// Config mining on the given representation, rest default.
    pub fn with_representation(representation: Representation) -> Self {
        EclatConfig {
            representation,
            ..Default::default()
        }
    }
}

/// What a `join_level` caller does with each candidate: an optional
/// pre-join filter (the A3 pruning hook) and the outcome sink. One trait
/// instead of two closures because both hooks typically borrow the same
/// caller state mutably.
pub(crate) trait JoinHandler<S> {
    /// Called before the join; returning `false` skips the candidate
    /// entirely (no intersection is performed).
    fn accept(&mut self, _candidate: &Itemset, _meter: &mut OpMeter) -> bool {
        true
    }

    /// Outcome of joining members `i` and `j`: `Some` with the candidate's
    /// vertical data when frequent, `None` when below `minsup`.
    fn on_result(&mut self, i: usize, j: usize, candidate: Itemset, joined: Option<S>);
}

/// One level of Figure 3's `for all itemsets I1 and I2` loop: join every
/// ordered member pair of a class, honoring `cfg.short_circuit`, and
/// report each outcome to the handler.
///
/// This is the **only** pairwise-join loop in the crate — the recursive
/// kernel, the maximal-clique variant, and MaxEclat's fallback level all
/// route through it, so candidate and comparison metering is identical
/// across variants.
pub(crate) fn join_level<S: TidSet>(
    members: &[ClassMember<S>],
    minsup: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    handler: &mut impl JoinHandler<S>,
) {
    // Short-circuited joins bail below `minsup` (§5.3); plain joins run to
    // completion and the support filter decides.
    let bound = cfg.short_circuit.then_some(minsup);
    for i in 0..members.len() {
        for j in i + 1..members.len() {
            let candidate = members[i]
                .itemset
                .join(&members[j].itemset)
                .expect("class members share a prefix and are ordered");
            meter.cand_gen += 1;

            if !handler.accept(&candidate, meter) {
                continue;
            }

            let joined = members[i]
                .tids
                .join(&members[j].tids, bound, meter)
                .filter(|t| t.support() >= minsup);
            handler.on_result(i, j, candidate, joined);
        }
    }
}

/// Mine everything derivable from one equivalence class, on whatever
/// representation the class carries.
///
/// The members of `class` itself must already be recorded in `out` by
/// the caller.
pub fn compute_frequent<S: TidSet>(
    class: EquivalenceClass<S>,
    minsup: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
) {
    compute_frequent_stats(class, minsup, cfg, meter, out, &mut KernelStats::new());
}

/// [`compute_frequent`] that additionally fills a [`KernelStats`] with
/// per-level candidate/frequent counts, the short-circuit hit rate, the
/// peak live tid-set footprint, and `AdaptiveSet` switch events.
pub fn compute_frequent_stats<S: TidSet>(
    class: EquivalenceClass<S>,
    minsup: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
    stats: &mut KernelStats,
) {
    // The A3 pruning state is scoped to the class subtree: a processor
    // mining its own classes has no cross-class knowledge — exactly the
    // locality limitation that makes pruning "of little or no help" for
    // Eclat (§5.3).
    let mut infrequent: FxHashSet<Itemset> = FxHashSet::default();
    compute_rec(class, minsup, cfg, meter, out, &mut infrequent, stats);
}

/// The recursive kernel's per-level handler: collect frequent joins as
/// next-level members, record them in the output, and feed the A3
/// infrequent cache and the kernel stats.
struct FrequentCollector<'a, S> {
    next: Vec<ClassMember<S>>,
    out: &'a mut FrequentSet,
    infrequent: &'a mut FxHashSet<Itemset>,
    prune: bool,
    stats: &'a mut KernelStats,
    /// Whether `cfg.short_circuit` was on — an infrequent outcome then
    /// came from a bounded join that bailed early.
    short_circuit: bool,
    /// Representation state of this level's members; a frequent child
    /// reporting `is_switched()` when the parents did not is one
    /// `AdaptiveSet` conversion event.
    parent_switched: bool,
    /// Total byte footprint of the frequent children collected so far.
    child_bytes: u64,
}

impl<S: TidSet> JoinHandler<S> for FrequentCollector<'_, S> {
    fn accept(&mut self, candidate: &Itemset, meter: &mut OpMeter) -> bool {
        self.stats.record_candidate(candidate.len() as u64);
        if self.prune && !prune_ok(candidate, self.infrequent, meter) {
            self.infrequent.insert(candidate.clone());
            return false;
        }
        true
    }

    fn on_result(&mut self, _i: usize, _j: usize, candidate: Itemset, joined: Option<S>) {
        match joined {
            Some(tids) => {
                self.stats.record_frequent(candidate.len() as u64);
                if !self.parent_switched && tids.is_switched() {
                    self.stats.record_switch();
                }
                self.child_bytes += tids.byte_size();
                self.out.insert(candidate.clone(), tids.support());
                self.next.push(ClassMember {
                    itemset: candidate,
                    tids,
                });
            }
            None => {
                self.stats.record_infrequent(self.short_circuit);
                if self.prune {
                    self.infrequent.insert(candidate);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn compute_rec<S: TidSet>(
    class: EquivalenceClass<S>,
    minsup: u32,
    cfg: &EclatConfig,
    meter: &mut OpMeter,
    out: &mut FrequentSet,
    infrequent: &mut FxHashSet<Itemset>,
    stats: &mut KernelStats,
) {
    if class.size() < 2 {
        return;
    }
    let members = class.members;
    let parent_bytes: u64 = members.iter().map(|m| m.tids.byte_size()).sum();
    let parent_switched = members[0].tids.is_switched();
    let mut collector = FrequentCollector {
        next: Vec::new(),
        out,
        infrequent,
        prune: cfg.prune,
        stats,
        short_circuit: cfg.short_circuit,
        parent_switched,
        child_bytes: 0,
    };
    join_level(&members, minsup, cfg, meter, &mut collector);
    let FrequentCollector {
        next, child_bytes, ..
    } = collector;
    // Peak memory for this level: parents and their frequent children are
    // live simultaneously during the joins (§5.3's memory argument).
    stats.observe_level_bytes(parent_bytes + child_bytes);
    // Parent tid-lists are no longer needed — free them before recursing.
    drop(members);

    for sub in repartition(next) {
        compute_rec(sub, minsup, cfg, meter, out, infrequent, stats);
    }
}

/// A3 pruning check: a candidate can be skipped when one of its
/// `(k−1)`-subsets is *known* infrequent. Only subsets already rejected
/// inside this class subtree are known — subsets in sibling or remote
/// classes are unavailable in the DFS order, so the check rarely fires.
fn prune_ok(candidate: &Itemset, infrequent: &FxHashSet<Itemset>, meter: &mut OpMeter) -> bool {
    // The two subsets dropping the last / second-to-last item are the
    // join parents — frequent by construction; skip them.
    let k = candidate.len();
    for idx in 0..k.saturating_sub(2) {
        let sub = candidate.without_index(idx);
        meter.hash_probe += 1;
        if infrequent.contains(&sub) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mining_types::Itemset;
    use tidlist::{AdaptiveSet, TidList};

    fn member(raw: &[u32], tids: &[u32]) -> ClassMember {
        ClassMember {
            itemset: Itemset::of(raw),
            tids: TidList::of(tids),
        }
    }

    /// Class \[0\] where {0,1},{0,2} overlap heavily and {0,3} does not.
    fn sample_class() -> EquivalenceClass {
        EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: vec![
                member(&[0, 1], &[1, 2, 3, 4]),
                member(&[0, 2], &[1, 2, 3, 9]),
                member(&[0, 3], &[7, 8]),
            ],
        }
    }

    #[test]
    fn finds_three_itemsets_and_recurses() {
        let mut out = FrequentSet::new();
        let mut meter = OpMeter::new();
        compute_frequent(
            sample_class(),
            2,
            &EclatConfig::default(),
            &mut meter,
            &mut out,
        );
        // {0,1}∩{0,2} = {1,2,3} → support 3 ✓; {0,1}∩{0,3} = ∅; {0,2}∩{0,3} = ∅
        assert_eq!(out.support_of(&Itemset::of(&[0, 1, 2])), Some(3));
        assert_eq!(out.len(), 1);
        assert!(meter.cand_gen == 3);
        assert!(meter.tid_cmp > 0);
    }

    #[test]
    fn deep_recursion_mines_all_levels() {
        // Four members all sharing tids {1,2,3}: every superset up to
        // {0,1,2,3,4} is frequent at minsup 3.
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: (1..=4).map(|b| member(&[0, b], &[1, 2, 3])).collect(),
        };
        let mut out = FrequentSet::new();
        let mut meter = OpMeter::new();
        compute_frequent(class, 3, &EclatConfig::default(), &mut meter, &mut out);
        // sizes: C(4,2)=6 threes, C(4,3)=4 fours, C(4,4)=1 five
        assert_eq!(out.counts_by_size(), vec![0, 0, 6, 4, 1]);
        assert_eq!(out.support_of(&Itemset::of(&[0, 1, 2, 3, 4])), Some(3));
    }

    #[test]
    fn short_circuit_and_plain_agree() {
        for short_circuit in [true, false] {
            let cfg = EclatConfig {
                short_circuit,
                ..Default::default()
            };
            let mut out = FrequentSet::new();
            let mut meter = OpMeter::new();
            compute_frequent(sample_class(), 2, &cfg, &mut meter, &mut out);
            assert_eq!(out.support_of(&Itemset::of(&[0, 1, 2])), Some(3));
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn short_circuit_saves_comparisons() {
        // Large disjoint lists: bounded intersection bails early.
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: vec![
                member(&[0, 1], &(0..400).collect::<Vec<_>>()),
                member(&[0, 2], &(1000..1400).collect::<Vec<_>>()),
            ],
        };
        let run = |sc: bool| {
            let mut out = FrequentSet::new();
            let mut meter = OpMeter::new();
            compute_frequent(
                class.clone(),
                399,
                &EclatConfig {
                    short_circuit: sc,
                    ..Default::default()
                },
                &mut meter,
                &mut out,
            );
            meter.tid_cmp
        };
        assert!(run(true) * 5 < run(false));
    }

    #[test]
    fn prune_does_not_change_results() {
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: (1..=5)
                .map(|b| member(&[0, b], &(1..=(b + 2)).collect::<Vec<_>>()))
                .collect(),
        };
        let run = |prune: bool| {
            let mut out = FrequentSet::new();
            let mut meter = OpMeter::new();
            compute_frequent(
                class.clone(),
                2,
                &EclatConfig {
                    prune,
                    ..Default::default()
                },
                &mut meter,
                &mut out,
            );
            (out, meter)
        };
        let (plain, m_plain) = run(false);
        let (pruned, m_pruned) = run(true);
        assert_eq!(plain, pruned, "pruning must never change the answer");
        assert!(m_pruned.hash_probe > 0, "pruning costs probes");
        assert_eq!(m_plain.hash_probe, 0);
    }

    #[test]
    fn singleton_class_is_a_noop() {
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: vec![member(&[0, 1], &[1, 2])],
        };
        let mut out = FrequentSet::new();
        let mut meter = OpMeter::new();
        compute_frequent(class, 1, &EclatConfig::default(), &mut meter, &mut out);
        assert!(out.is_empty());
        assert_eq!(meter.cand_gen, 0);
    }

    #[test]
    fn kernel_stats_count_joins_and_outcomes() {
        use mining_types::stats::KernelStats;
        let mut out = FrequentSet::new();
        let mut stats = KernelStats::new();
        compute_frequent_stats(
            sample_class(),
            2,
            &EclatConfig::default(),
            &mut OpMeter::new(),
            &mut out,
            &mut stats,
        );
        // 3 candidates at level 3: one frequent, two infrequent (both
        // caught by the bounded join since short_circuit defaults on).
        assert_eq!(stats.joins, 3);
        assert_eq!(stats.frequent, 1);
        assert_eq!(stats.infrequent, 2);
        assert_eq!(stats.short_circuit_hits, 2);
        assert_eq!(stats.short_circuit_rate(), 1.0);
        assert_eq!(stats.levels.len(), 1);
        assert_eq!(stats.levels[0].size, 3);
        assert_eq!(stats.levels[0].candidates, 3);
        assert_eq!(stats.levels[0].frequent, 1);
        assert!(stats.peak_tid_bytes > 0);
        assert_eq!(stats.switch_events, 0, "plain tid-lists never switch");

        // Without short-circuiting the infrequent outcomes are full joins.
        let mut plain = KernelStats::new();
        compute_frequent_stats(
            sample_class(),
            2,
            &EclatConfig {
                short_circuit: false,
                ..Default::default()
            },
            &mut OpMeter::new(),
            &mut FrequentSet::new(),
            &mut plain,
        );
        assert_eq!(plain.infrequent, 2);
        assert_eq!(plain.short_circuit_hits, 0);
    }

    #[test]
    fn kernel_stats_see_adaptive_switches() {
        use mining_types::stats::KernelStats;
        // Dense class: every join is frequent, so with fuel 1 the
        // second-level joins all convert to diffsets.
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: (1..=4)
                .map(|b| ClassMember {
                    itemset: Itemset::of(&[0, b]),
                    tids: AdaptiveSet::with_fuel(TidList::of(&[1, 2, 3]), 1),
                })
                .collect(),
        };
        let mut stats = KernelStats::new();
        compute_frequent_stats(
            class,
            3,
            &EclatConfig::default(),
            &mut OpMeter::new(),
            &mut FrequentSet::new(),
            &mut stats,
        );
        // C(4,3)=4 level-4 members are the first produced at fuel 0.
        assert_eq!(stats.switch_events, 4);
        assert_eq!(stats.frequent, 6 + 4 + 1);
    }

    #[test]
    fn generic_kernel_agrees_across_representations() {
        // The same class mined on tid-lists and on AdaptiveSet with every
        // fuel level must produce identical frequent sets.
        let class = EquivalenceClass {
            prefix: Itemset::of(&[0]),
            members: (1..=4)
                .map(|b| {
                    member(
                        &[0, b],
                        &(0..30).filter(|x| x % b != 0 || b == 1).collect::<Vec<_>>(),
                    )
                })
                .collect(),
        };
        let mut expected = FrequentSet::new();
        compute_frequent(
            class.clone(),
            3,
            &EclatConfig::default(),
            &mut OpMeter::new(),
            &mut expected,
        );
        for fuel in [0u32, 1, 2, 10] {
            let adaptive = EquivalenceClass {
                prefix: class.prefix.clone(),
                members: class
                    .members
                    .iter()
                    .map(|m| ClassMember {
                        itemset: m.itemset.clone(),
                        tids: AdaptiveSet::with_fuel(m.tids.clone(), fuel),
                    })
                    .collect(),
            };
            for short_circuit in [true, false] {
                let cfg = EclatConfig {
                    short_circuit,
                    ..Default::default()
                };
                let mut out = FrequentSet::new();
                compute_frequent(adaptive.clone(), 3, &cfg, &mut OpMeter::new(), &mut out);
                assert_eq!(out, expected, "fuel {fuel} sc {short_circuit}");
            }
        }
    }
}
