//! Fused multi-cell engine pass: one snapshot traversal serves every
//! policy cell of a `(destination, deployment)` pair.
//!
//! The paper's headline figures evaluate the *same* `(d, S)` pair under
//! every security model × LP variant × attack-strategy rung, and the
//! contested regions of those policy cells overlap heavily: the bogus
//! announcement spreads through the same neighborhoods, just priced by a
//! slightly different preference order per cell. [`FusedDeltaEngine`]
//! exploits that overlap along three independent axes:
//!
//! 1. **Cell dedup.** A [`CellSet`] canonicalizes every cell's strategy
//!    through [`AttackStrategy::canonical`], so the `path1`/fake-link and
//!    `path0`/hijack spellings can never run the same cell twice; input
//!    indices map onto deduped *lanes*.
//! 2. **Model collapse.** At a deployment with **zero validating ASes**
//!    (`Deployment::full_count() == 0` — every Baseline cell and the first
//!    rungs of every rollout sweep), policies differing only in their
//!    security model are behaviorally identical: `preference_key`'s
//!    non-validating arm ignores the model, no secure offer can ever be
//!    assembled (a secure push requires the *receiver* to validate), and
//!    the models' drain schedules differ only in stages that act on the
//!    empty secure queues. The unique stable state (Theorem 2.1) of such
//!    lanes therefore coincides bit for bit, and the fused pass runs one
//!    *computation* for the whole model group. `tests/fused_equivalence.rs`
//!    pins this equivalence against per-cell engines.
//! 3. **Shared contested-region discovery.** For the computations that do
//!    remain distinct, one multi-lane forward scan
//!    (`region::MultiScan`) walks the snapshot neighborhood once
//!    with a per-frontier-entry lane bitmask and discovers every lane's
//!    seed ball simultaneously — the **shared-region invariant**: the scan
//!    is a per-lane *superset/subset-tolerant seeding*, never an exactness
//!    input, because the verify-and-grow loop reaches local consistency
//!    from any seed set and Theorem 2.1 uniqueness then forces the same
//!    stable outcome. Only fallback decisions and statistics may differ
//!    from what each lane's private scan would have produced.
//!
//! **Per-lane fallback exactness.** When the shared scan proves a lane's
//! ball exceeds its adjacency-mass budget, that lane alone is served by a
//! full single-cell [`Engine::compute`]
//! (`AttackDeltaEngine::attack_set_full`); the other lanes keep their
//! patches. Fused results are therefore `≡` per-cell results bit for bit
//! in every case — the fused pass only ever changes *how* an outcome is
//! reached, never *which* outcome.

use sbgp_topology::{AsGraph, AsId};

use crate::attack::AttackStrategy;
use crate::delta::{AttackDeltaEngine, CachedBase, DeltaStats};
use crate::deployment::Deployment;
use crate::outcome::Outcome;
use crate::policy::Policy;
use crate::region::{MultiScan, ScanLane};

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
    /// (the fused scan packs lane membership into a `u64`).
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

/// How a fused engine's lanes were served (cumulative across begins).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Cells fixed ([`FusedDeltaEngine::begin`] calls).
    pub begins: usize,
    /// Lanes that shared a sibling computation outright (model collapse).
    pub collapsed_lanes: usize,
    /// Base outcomes adopted from a sibling computation of the same
    /// policy group instead of being recomputed (strategy-only siblings).
    pub shared_bases: usize,
    /// Per-computation attacks served from the shared multi-lane scan.
    pub seeded_attacks: usize,
    /// Per-computation attacks the shared scan already proved over budget
    /// (served by a full compute without any patch work).
    pub forced_fallbacks: usize,
    /// Base outcomes adopted from an *external* cache
    /// ([`FusedDeltaEngine::begin_with_bases`]) instead of being computed.
    pub cached_bases: usize,
}

/// One distinct computation of the current cell: the policy it actually
/// runs (the representative of its collapsed model group), its strategy,
/// and the computation whose normal-conditions base it shares.
#[derive(Clone, Copy, Debug)]
struct Comp {
    policy: Policy,
    strategy: AttackStrategy,
    base: usize,
}

/// The fused multi-cell attacker-delta engine: an [`AttackDeltaEngine`]
/// per *distinct* computation of a [`CellSet`], driven by one shared
/// contested-region traversal per attack. See the module docs for the
/// sharing axes and the exactness argument.
///
/// Create one per worker and reuse it across destinations:
/// [`FusedDeltaEngine::begin`] fixes the `(destination, deployment)` pair
/// for every cell at once, then each [`FusedDeltaEngine::attack`] /
/// [`FusedDeltaEngine::attack_set`] serves all cells; results are read
/// back per *input* cell index.
#[derive(Debug)]
pub struct FusedDeltaEngine<'g> {
    graph: &'g AsGraph,
    cells: CellSet,
    /// One engine per computation, grown lazily; `engines[..comps.len()]`
    /// are live for the current cell.
    engines: Vec<AttackDeltaEngine<'g>>,
    comps: Vec<Comp>,
    /// Lane index → computation index, rebuilt per begin (model collapse
    /// depends on the deployment).
    comp_of: Vec<usize>,
    scan: MultiScan,
    seeds: Vec<Vec<AsId>>,
    over: Vec<bool>,
    destination: AsId,
    deployment: Option<Deployment>,
    stats: FusedStats,
}

impl<'g> FusedDeltaEngine<'g> {
    /// Create a fused engine for `graph` serving `cells`.
    pub fn new(graph: &'g AsGraph, cells: CellSet) -> FusedDeltaEngine<'g> {
        FusedDeltaEngine {
            graph,
            cells,
            engines: Vec::new(),
            comps: Vec::new(),
            comp_of: Vec::new(),
            scan: MultiScan::new(graph.len()),
            seeds: Vec::new(),
            over: Vec::new(),
            destination: AsId(0),
            deployment: None,
            stats: FusedStats::default(),
        }
    }

    /// The cell set this engine serves.
    pub fn cells(&self) -> &CellSet {
        &self.cells
    }

    /// The topology this engine runs on.
    pub fn graph(&self) -> &'g AsGraph {
        self.graph
    }

    /// Distinct computations of the current cell (after model collapse);
    /// meaningful only after [`FusedDeltaEngine::begin`].
    pub fn computations(&self) -> usize {
        self.comps.len()
    }

    /// Cumulative fused-pass statistics.
    pub fn stats(&self) -> FusedStats {
        self.stats
    }

    /// Summed statistics of the per-computation delta engines.
    pub fn delta_stats(&self) -> DeltaStats {
        let mut sum = DeltaStats::default();
        for e in &self.engines {
            let s = e.stats();
            sum.base_computes += s.base_computes;
            sum.adopted_bases += s.adopted_bases;
            sum.delta_attacks += s.delta_attacks;
            sum.full_recomputes += s.full_recomputes;
            sum.refixed_ases += s.refixed_ases;
            sum.grow_rounds += s.grow_rounds;
        }
        sum
    }

    /// Fix the `(destination, deployment)` pair for every cell: group the
    /// lanes into distinct computations (collapsing models when the
    /// deployment has no validators), compute each policy group's
    /// normal-conditions base once, and share it across the group.
    pub fn begin(&mut self, destination: AsId, deployment: &Deployment) {
        self.begin_with_bases(destination, deployment, |_| None);
    }

    /// As [`FusedDeltaEngine::begin`], adopting externally cached base
    /// states where available: for each distinct base computation,
    /// `base(policy)` may supply a [`CachedBase`] exported earlier from
    /// the **same** `(destination, deployment, policy)` cell, which is
    /// then re-adopted through [`AttackDeltaEngine::begin_from_base`]
    /// instead of recomputed.
    ///
    /// This is the planner service's cache-adoption hook. Exactness is the
    /// caller's contract: a supplied base must be bit-identical to what a
    /// fresh computation of that cell would produce (which holds
    /// trivially when it *was* produced by one — the engines are
    /// deterministic), so results are bit-identical at any cache state.
    /// Freshly computed bases can be harvested afterwards via
    /// [`FusedDeltaEngine::export_bases`].
    ///
    /// # Panics
    ///
    /// Panics when a supplied base carries an attacker, covers a
    /// different graph size, or names a different destination.
    pub fn begin_with_bases<'b, F>(&mut self, destination: AsId, deployment: &Deployment, base: F)
    where
        F: FnMut(Policy) -> Option<&'b CachedBase>,
    {
        let mut lookup = base;
        self.stats.begins += 1;
        self.destination = destination;
        let collapse = deployment.full_count() == 0;
        let same_policy = |a: Policy, b: Policy| a == b || (collapse && a.variant == b.variant);
        let lane_cells: Vec<PolicyCell> = self.cells.lanes().to_vec();
        self.comps.clear();
        self.comp_of.clear();
        for cell in lane_cells {
            match self
                .comps
                .iter()
                .position(|c| same_policy(c.policy, cell.policy) && c.strategy == cell.strategy)
            {
                Some(ci) => {
                    // A behaviorally identical computation already exists:
                    // this lane rides it outright.
                    self.comp_of.push(ci);
                    self.stats.collapsed_lanes += 1;
                }
                None => {
                    let base = self
                        .comps
                        .iter()
                        .position(|c| same_policy(c.policy, cell.policy))
                        .unwrap_or(self.comps.len());
                    self.comps.push(Comp {
                        policy: cell.policy,
                        strategy: cell.strategy,
                        base,
                    });
                    self.comp_of.push(self.comps.len() - 1);
                }
            }
        }
        while self.engines.len() < self.comps.len() {
            self.engines.push(AttackDeltaEngine::new(self.graph));
        }
        self.seeds.resize_with(self.comps.len(), Vec::new);
        self.over.resize(self.comps.len(), false);
        for ci in 0..self.comps.len() {
            let Comp { policy, base, .. } = self.comps[ci];
            if base == ci {
                if let Some(cached) = lookup(policy) {
                    assert_eq!(
                        cached.outcome().destination(),
                        destination,
                        "cached base outcome names a different destination"
                    );
                    self.engines[ci].begin_from_base(cached, deployment, policy);
                    self.stats.cached_bases += 1;
                } else {
                    self.engines[ci].begin(destination, deployment, policy);
                }
            } else {
                // Strategy-only sibling: the normal-conditions outcome
                // does not depend on the strategy, adopt the group base.
                debug_assert!(base < ci);
                let (head, tail) = self.engines.split_at_mut(ci);
                tail[0].begin_from_normal(head[base].normal_outcome(), deployment, policy);
                self.stats.shared_bases += 1;
            }
        }
        self.deployment = Some(deployment.clone());
    }

    /// Serve `attacker` for every cell (see
    /// [`FusedDeltaEngine::attack_set`]).
    pub fn attack(&mut self, attacker: AsId) {
        self.attack_set(&[attacker]);
    }

    /// Serve a colluding announcer set for every cell: one shared
    /// multi-lane scan discovers all computations' seed balls, then each
    /// computation patches (or, over budget, fully recomputes) its lane.
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
        let ncomp = self.comps.len();
        let mut lanes: Vec<ScanLane<'_>> = Vec::with_capacity(ncomp);
        for (comp, engine) in self.comps.iter().zip(&self.engines) {
            lanes.push(ScanLane {
                policy: comp.policy,
                root_depth: comp.strategy.root_depth(),
                cell_keys: engine.cell_keys(),
                budget: engine.mass_budget(),
            });
        }
        self.scan.run(
            self.graph,
            self.destination,
            attackers,
            deployment,
            &lanes,
            &mut self.seeds[..ncomp],
            &mut self.over[..ncomp],
        );
        drop(lanes);
        for ci in 0..ncomp {
            let strategy = self.comps[ci].strategy;
            if self.over[ci] {
                self.stats.forced_fallbacks += 1;
                self.engines[ci].attack_set_full(attackers, strategy);
            } else {
                self.stats.seeded_attacks += 1;
                self.engines[ci].attack_set_seeded(attackers, strategy, &self.seeds[ci]);
            }
        }
    }

    fn engine_for(&self, cell: usize) -> &AttackDeltaEngine<'g> {
        &self.engines[self.comp_of[self.cells.lane_of(cell)]]
    }

    /// The last served outcome of input cell `cell` — bit-identical to
    /// what a dedicated [`AttackDeltaEngine`] (and hence
    /// [`Engine::compute`]) returns for that cell.
    pub fn outcome(&self, cell: usize) -> &Outcome {
        self.engine_for(cell).last_outcome()
    }

    /// Happy-source bounds of the last served attack of input cell `cell`.
    pub fn count_happy(&self, cell: usize) -> (usize, usize) {
        self.engine_for(cell).count_happy()
    }

    /// The normal-conditions outcome of input cell `cell`.
    pub fn normal_outcome(&self, cell: usize) -> &Outcome {
        self.engine_for(cell).normal_outcome()
    }

    /// Happy bounds of input cell `cell`'s normal-conditions outcome.
    pub fn normal_happy(&self, cell: usize) -> (usize, usize) {
        self.engine_for(cell).normal_happy()
    }

    /// As [`FusedDeltaEngine::outcome`], indexed by *lane* (unique cell)
    /// instead of input cell — for drivers that iterate
    /// [`CellSet::lanes`] directly (e.g. handing each lane to a
    /// [`crate::SweepEngine`]).
    pub fn lane_outcome(&self, lane: usize) -> &Outcome {
        self.engines[self.comp_of[lane]].last_outcome()
    }

    /// As [`FusedDeltaEngine::count_happy`], indexed by lane.
    pub fn lane_happy(&self, lane: usize) -> (usize, usize) {
        self.engines[self.comp_of[lane]].count_happy()
    }

    /// The current cell's distinct base computations as
    /// `(policy, exported base)` pairs — one per computation that owns its
    /// own base (model collapse reports the group's representative
    /// policy). This is the harvest side of
    /// [`FusedDeltaEngine::begin_with_bases`]: a caching layer keeps the
    /// bases it did not supply and re-adopts them on later queries.
    pub fn export_bases(&self) -> impl Iterator<Item = (Policy, CachedBase)> + '_ {
        self.comps
            .iter()
            .enumerate()
            .filter(|(ci, c)| c.base == *ci)
            .map(|(ci, c)| (c.policy, self.engines[ci].export_base()))
    }
}

// `Engine` is only mentioned in docs; keep the link target alive.
#[allow(unused_imports)]
use crate::engine::Engine;

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
        let mut solo = AttackDeltaEngine::new(&g);
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
                        solo.begin(d, dep, cell.policy);
                        solo.attack(m, cell.strategy);
                        let want = solo.last_outcome();
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
                            solo.count_happy(),
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
        fused.begin(AsId(0), &Deployment::empty(8));
        assert_eq!(fused.computations(), 1, "three models, one computation");
        // Simplex-only deployments still collapse: signing without
        // validation never assembles a secure route.
        let mut dep = Deployment::empty(8);
        dep.insert_simplex(AsId(0));
        fused.begin(AsId(0), &dep);
        assert_eq!(fused.computations(), 1);
        // A single validator splits the models apart again.
        fused.begin(AsId(0), &Deployment::full_from_iter(8, [AsId(1)]));
        assert_eq!(fused.computations(), 3);
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
            engine.compute_cells(AsId(0), &attackers, &dep, &cells, &mut multi);
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
            // Lane 0 is never dirty against itself.
            for v in g.ases() {
                assert_eq!(multi.dirty_mask(v) & 1, 0);
            }
        }
    }
}
