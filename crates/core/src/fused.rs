//! Fused multi-cell evaluation: one engine call serves every policy cell
//! of a `(destination, deployment, announcers)` scenario.
//!
//! The paper's headline figures evaluate the *same* `(m, d, S)` scenario
//! under every security model × LP variant × attack-strategy rung.
//! [`FusedDeltaEngine`] serves such a grid with one
//! [`Engine::compute_cells`] call per attack, which shares work along two
//! axes:
//!
//! 1. **Cell dedup.** A [`CellSet`] canonicalizes every cell's strategy
//!    through [`AttackStrategy::canonical`], so the `path1`/fake-link and
//!    `path0`/hijack spellings can never run the same cell twice; input
//!    indices map onto deduped *lanes*.
//! 2. **Lane collapse.** At a deployment with **zero validating ASes**
//!    (`Deployment::full_count() == 0` — every Baseline cell and the first
//!    rungs of every rollout sweep), policies differing only in their
//!    security model are behaviorally identical: `preference_key`'s
//!    non-validating arm ignores the model, no secure offer can ever be
//!    assembled (a secure push requires the *receiver* to validate), and
//!    the models' drain schedules differ only in stages that act on the
//!    empty secure queues. The unique stable state (Theorem 2.1) of such
//!    lanes therefore coincides bit for bit, and one computation serves
//!    the whole model group. `tests/fused_equivalence.rs` pins this
//!    equivalence against per-cell computes.
//!
//! Every lane that does not collapse is served by the ordinary
//! single-cell [`Engine::compute`], so fused results are `≡` per-cell
//! results bit for bit.

use sbgp_topology::{AsGraph, AsId};

use crate::attack::AttackStrategy;
use crate::deployment::Deployment;
use crate::engine::Engine;
use crate::outcome::{MultiOutcome, Outcome};
use crate::policy::Policy;

/// One policy cell of a fused pass: a complete routing policy plus the
/// attack-strategy rung every announcer uses. Construction canonicalizes
/// the strategy spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PolicyCell {
    /// The routing policy (security model × LP variant).
    pub policy: Policy,
    /// The announcers' forged-path rung, canonicalized.
    pub strategy: AttackStrategy,
}

impl PolicyCell {
    /// A cell with `strategy` collapsed through
    /// [`AttackStrategy::canonical`].
    pub fn new(policy: Policy, strategy: AttackStrategy) -> PolicyCell {
        PolicyCell {
            policy,
            strategy: strategy.canonical(),
        }
    }
}

/// A deduplicated set of policy cells evaluated together by one fused
/// pass. Input cell order is preserved: input index `i` maps to lane
/// [`CellSet::lane_of`]`(i)`, and duplicate spellings (same policy, same
/// canonical strategy) share a lane instead of running twice.
#[derive(Clone, Debug)]
pub struct CellSet {
    lanes: Vec<PolicyCell>,
    lane_of: Vec<usize>,
}

impl CellSet {
    /// Dedup `cells` (in first-seen order) into lanes.
    ///
    /// # Panics
    ///
    /// Panics when `cells` is empty or deduplicates to more than 64 lanes
    /// (the grid cap the planner protocol advertises).
    pub fn new(cells: &[PolicyCell]) -> CellSet {
        assert!(!cells.is_empty(), "a CellSet needs at least one cell");
        let mut lanes: Vec<PolicyCell> = Vec::new();
        let mut lane_of = Vec::with_capacity(cells.len());
        for &c in cells {
            let c = PolicyCell::new(c.policy, c.strategy);
            let j = lanes.iter().position(|&l| l == c).unwrap_or_else(|| {
                lanes.push(c);
                lanes.len() - 1
            });
            lane_of.push(j);
        }
        assert!(
            lanes.len() <= 64,
            "at most 64 unique cells per fused pass, got {}",
            lanes.len()
        );
        CellSet { lanes, lane_of }
    }

    /// The row-major `policies × strategies` grid as a cell set.
    pub fn grid(policies: &[Policy], strategies: &[AttackStrategy]) -> CellSet {
        let cells: Vec<PolicyCell> = policies
            .iter()
            .flat_map(|&p| strategies.iter().map(move |&s| PolicyCell::new(p, s)))
            .collect();
        CellSet::new(&cells)
    }

    /// A single-strategy set, one cell per policy.
    pub fn per_policy(policies: &[Policy], strategy: AttackStrategy) -> CellSet {
        CellSet::grid(policies, &[strategy])
    }

    /// The unique lanes, in first-seen input order.
    pub fn lanes(&self) -> &[PolicyCell] {
        &self.lanes
    }

    /// Number of unique lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Number of input cells (before dedup).
    pub fn input_len(&self) -> usize {
        self.lane_of.len()
    }

    /// The lane serving input cell `i`.
    pub fn lane_of(&self, i: usize) -> usize {
        self.lane_of[i]
    }
}

/// How a fused engine's attacks were served (cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Lanes served by copying a behaviorally identical sibling lane's
    /// computation (lane collapse), summed over attacks.
    pub collapsed_lanes: usize,
    /// Always zero. Kept only because `perfbench/` reads it; the next
    /// benchmark change removes it.
    pub forced_fallbacks: usize,
}

/// How many computations a fused engine ran (cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Always zero. Kept only because `perfbench/` reads it; the next
    /// benchmark change removes it.
    pub delta_attacks: usize,
    /// Single-cell [`Engine::compute`] runs: one per non-collapsed lane
    /// per attack.
    pub full_recomputes: usize,
}

impl DeltaStats {
    /// Total computations run.
    pub fn attacks(&self) -> usize {
        self.delta_attacks + self.full_recomputes
    }
}

/// The fused multi-cell engine: one [`Engine`] and one [`MultiOutcome`]
/// per worker. [`FusedDeltaEngine::begin`] records the
/// `(destination, deployment)` pair, then each
/// [`FusedDeltaEngine::attack`] / [`FusedDeltaEngine::attack_set`] runs
/// one [`Engine::compute_cells`] over every cell; results are read back
/// per *input* cell index or per lane.
#[derive(Debug)]
pub struct FusedDeltaEngine<'g> {
    engine: Engine<'g>,
    cells: CellSet,
    out: MultiOutcome,
    destination: AsId,
    deployment: Option<Deployment>,
    stats: FusedStats,
    delta: DeltaStats,
}

impl<'g> FusedDeltaEngine<'g> {
    /// Create a fused engine for `graph` serving `cells`.
    pub fn new(graph: &'g AsGraph, cells: CellSet) -> FusedDeltaEngine<'g> {
        FusedDeltaEngine {
            engine: Engine::new(graph),
            cells,
            out: MultiOutcome::new(),
            destination: AsId(0),
            deployment: None,
            stats: FusedStats::default(),
            delta: DeltaStats::default(),
        }
    }

    /// Cumulative lane-collapse statistics.
    pub fn stats(&self) -> FusedStats {
        self.stats
    }

    /// Cumulative computation counts.
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta
    }

    /// Fix the `(destination, deployment)` pair for the following attacks.
    /// Computes nothing.
    pub fn begin(&mut self, destination: AsId, deployment: &Deployment) {
        self.destination = destination;
        self.deployment = Some(deployment.clone());
    }

    /// Serve `attacker` for every cell (see
    /// [`FusedDeltaEngine::attack_set`]).
    pub fn attack(&mut self, attacker: AsId) {
        self.attack_set(&[attacker]);
    }

    /// Serve a colluding announcer set for every cell with one
    /// [`Engine::compute_cells`] call.
    ///
    /// # Panics
    ///
    /// Panics before [`FusedDeltaEngine::begin`], or when `attackers`
    /// violates [`crate::AttackScenario::colluding`]'s preconditions.
    pub fn attack_set(&mut self, attackers: &[AsId]) {
        let deployment = self
            .deployment
            .as_ref()
            .expect("FusedDeltaEngine::begin not called");
        let computed = self.engine.compute_cells(
            self.destination,
            attackers,
            deployment,
            &self.cells,
            &mut self.out,
        );
        self.delta.full_recomputes += computed;
        self.stats.collapsed_lanes += self.cells.lane_count() - computed;
    }

    /// The last served outcome of input cell `cell` — bit-identical to
    /// what [`Engine::compute`] returns for that cell.
    pub fn outcome(&self, cell: usize) -> &Outcome {
        self.lane_outcome(self.cells.lane_of(cell))
    }

    /// Happy-source bounds of the last served attack of input cell `cell`.
    pub fn count_happy(&self, cell: usize) -> (usize, usize) {
        self.lane_happy(self.cells.lane_of(cell))
    }

    /// As [`FusedDeltaEngine::outcome`], indexed by *lane* (unique cell)
    /// instead of input cell — for drivers that iterate
    /// [`CellSet::lanes`] directly (e.g. handing each lane to a
    /// [`crate::SweepEngine`]).
    pub fn lane_outcome(&self, lane: usize) -> &Outcome {
        self.out.lane(lane)
    }

    /// As [`FusedDeltaEngine::count_happy`], indexed by lane.
    pub fn lane_happy(&self, lane: usize) -> (usize, usize) {
        self.out.happy(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackScenario;
    use crate::policy::{LpVariant, SecurityModel};
    use sbgp_topology::GraphBuilder;

    /// The Figure 2 downgrade gadget plus a second provider chain.
    fn gadget() -> AsGraph {
        let mut b = GraphBuilder::new(8);
        b.add_provider(AsId(1), AsId(0)).unwrap();
        b.add_peering(AsId(1), AsId(2)).unwrap();
        b.add_peering(AsId(0), AsId(2)).unwrap();
        b.add_provider(AsId(3), AsId(2)).unwrap();
        b.add_provider(AsId(4), AsId(3)).unwrap();
        b.add_provider(AsId(5), AsId(0)).unwrap();
        b.add_provider(AsId(6), AsId(5)).unwrap();
        b.add_provider(AsId(7), AsId(6)).unwrap();
        b.build()
    }

    fn all_policies() -> Vec<Policy> {
        let mut out = Vec::new();
        for model in SecurityModel::ALL {
            for variant in [LpVariant::Standard, LpVariant::LpK(2)] {
                out.push(Policy::with_variant(model, variant));
            }
        }
        out
    }

    #[test]
    fn cell_set_dedups_canonical_spellings() {
        let p = Policy::new(SecurityModel::Security3rd);
        let cells = CellSet::new(&[
            PolicyCell::new(p, AttackStrategy::FakePath { hops: 1 }),
            PolicyCell::new(p, AttackStrategy::FakeLink),
            PolicyCell::new(p, AttackStrategy::FakePath { hops: 0 }),
            PolicyCell::new(p, AttackStrategy::OriginHijack),
            PolicyCell::new(p, AttackStrategy::FakePath { hops: 2 }),
        ]);
        assert_eq!(cells.input_len(), 5);
        assert_eq!(
            cells.lane_count(),
            3,
            "fake-link and hijack spellings collapse"
        );
        assert_eq!(cells.lane_of(0), cells.lane_of(1));
        assert_eq!(cells.lane_of(2), cells.lane_of(3));
    }

    #[test]
    fn fused_matches_per_cell_engines_everywhere() {
        let g = gadget();
        let cells = CellSet::grid(
            &all_policies(),
            &[
                AttackStrategy::FakeLink,
                AttackStrategy::FakePath { hops: 2 },
            ],
        );
        let deps = [
            Deployment::empty(8),
            Deployment::full_from_iter(8, [AsId(0), AsId(1), AsId(2)]),
        ];
        let mut fused = FusedDeltaEngine::new(&g, cells.clone());
        let mut solo = Engine::new(&g);
        for dep in &deps {
            for d in [AsId(0), AsId(2)] {
                fused.begin(d, dep);
                for m in 0..8u32 {
                    let m = AsId(m);
                    if m == d {
                        continue;
                    }
                    fused.attack(m);
                    for (i, cell) in cells.lanes().iter().enumerate() {
                        let scenario = AttackScenario::attack(m, d).with_strategy(cell.strategy);
                        let want = solo.compute(scenario, dep, cell.policy);
                        let got = fused.outcome(i);
                        for v in g.ases() {
                            assert_eq!(
                                got.route(v),
                                want.route(v),
                                "cell {cell:?} d={d} m={m} at {v}"
                            );
                            assert_eq!(got.next_hop(v), want.next_hop(v), "cell {cell:?}");
                        }
                        assert_eq!(
                            fused.count_happy(i),
                            want.count_happy(),
                            "cell {cell:?} d={d} m={m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn models_collapse_without_validators() {
        let g = gadget();
        let policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
        let cells = CellSet::per_policy(&policies, AttackStrategy::FakeLink);
        let mut fused = FusedDeltaEngine::new(&g, cells);
        let mut computations = |dep: &Deployment| {
            let before = fused.delta_stats().full_recomputes;
            fused.begin(AsId(0), dep);
            fused.attack(AsId(4));
            fused.delta_stats().full_recomputes - before
        };
        assert_eq!(
            computations(&Deployment::empty(8)),
            1,
            "three models, one computation"
        );
        // Simplex-only deployments still collapse: signing without
        // validation never assembles a secure route.
        let mut dep = Deployment::empty(8);
        dep.insert_simplex(AsId(0));
        assert_eq!(computations(&dep), 1);
        // A single validator splits the models apart again.
        assert_eq!(computations(&Deployment::full_from_iter(8, [AsId(1)])), 3);
        assert_eq!(fused.stats().collapsed_lanes, 4);
    }

    #[test]
    fn compute_cells_matches_engine_compute() {
        let g = gadget();
        let cells = CellSet::grid(
            &all_policies(),
            &[AttackStrategy::OriginHijack, AttackStrategy::FakeLink],
        );
        let dep = Deployment::full_from_iter(8, [AsId(0), AsId(2)]);
        let mut engine = Engine::new(&g);
        let mut fresh = Engine::new(&g);
        let mut multi = crate::MultiOutcome::new();
        for attackers in [vec![], vec![AsId(4)], vec![AsId(3), AsId(6)]] {
            let computed = engine.compute_cells(AsId(0), &attackers, &dep, &cells, &mut multi);
            assert!(computed <= cells.lane_count());
            assert_eq!(multi.lane_count(), cells.lane_count());
            for (j, cell) in cells.lanes().iter().enumerate() {
                let scenario = if attackers.is_empty() {
                    AttackScenario::normal(AsId(0))
                } else {
                    AttackScenario::colluding(&attackers, AsId(0)).with_strategy(cell.strategy)
                };
                let want = fresh.compute(scenario, &dep, cell.policy);
                let got = multi.lane(j);
                for v in g.ases() {
                    assert_eq!(got.route(v), want.route(v), "lane {j} at {v}");
                    assert_eq!(got.next_hop(v), want.next_hop(v), "lane {j} at {v}");
                }
                assert_eq!(multi.happy(j), want.count_happy(), "lane {j}");
            }
        }
    }
}
