//! The fused multi-cell equivalence property suite: on random
//! valley-free graphs, one fused pass over a whole policy grid —
//! [`Engine::compute_cells`] directly, and [`FusedDeltaEngine`] as the
//! per-worker attacker loop — must reproduce a dedicated per-cell
//! [`Engine::compute`] **bit for bit** (route class, length, flags,
//! representative next hop, and happy bounds) for every input cell of the
//! grid: all three security models, the `LP2`/`LPinf` variants, the full
//! `FakePath` ladder plus the duplicate `FakeLink`/`OriginHijack`
//! spellings, and colluding announcer sets via
//! [`FusedDeltaEngine::attack_set`]. `tests/equivalence.rs` pins the
//! engine against simulated S*BGP, closing the chain fused ≡ engine ≡
//! simulation. A fixed-seed determinism test additionally pins the fused
//! destination-major driver (`sweep::metric`, one deployment and a whole
//! sweep) bit-identical across thread counts, to its single-cell calls,
//! and (one deployment) to a per-pair [`Engine::compute`] fold.

use proptest::prelude::*;

use bgp_juice::prelude::*;
use bgp_juice::sim::sweep as simsweep;

/// Build a random valley-free topology from pairwise edge codes.
/// Providers always have smaller ids, so the hierarchy is acyclic.
fn graph_from_codes(n: usize, codes: &[u8]) -> AsGraph {
    let mut b = GraphBuilder::new(n);
    let mut k = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            match codes[k] % 8 {
                // Sparse: most pairs are unconnected.
                0..=3 => {}
                4 => b.add_peering(AsId(i as u32), AsId(j as u32)).unwrap(),
                // i is the provider of j.
                _ => b.add_provider(AsId(j as u32), AsId(i as u32)).unwrap(),
            }
            k += 1;
        }
    }
    b.build()
}

/// A monotone 4-step deployment sequence from per-AS join codes: bits 0–1
/// give the AS's join step (3 = never), bit 2 picks simplex mode, and bit 3
/// upgrades a simplex member to full one step after joining.
fn deployment_sequence(n: usize, join_codes: &[u8]) -> Vec<Deployment> {
    (0..4usize)
        .map(|step| {
            let mut dep = Deployment::empty(n);
            for (i, &code) in join_codes.iter().enumerate() {
                let join = usize::from(code & 3);
                if join == 3 || join > step {
                    continue;
                }
                let v = AsId(i as u32);
                let simplex = code & 4 != 0;
                let upgrades = code & 8 != 0;
                if simplex && !(upgrades && step > join) {
                    dep.insert_simplex(v);
                } else {
                    dep.insert_full(v);
                }
            }
            dep
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    codes: Vec<u8>,
    join_codes: Vec<u8>,
    destination: usize,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (4usize..10).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec(any::<u8>(), pairs),
            proptest::collection::vec(any::<u8>(), n),
            0..n,
        )
            .prop_map(|(n, codes, join_codes, destination)| Instance {
                n,
                codes,
                join_codes,
                destination,
            })
    })
}

/// The policy axis of the test grid: all three models under standard
/// local pref, plus the `LP2` and `LPinf` variants.
fn grid_policies() -> Vec<Policy> {
    let mut policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
    policies.push(Policy::with_variant(
        SecurityModel::Security2nd,
        LpVariant::LpK(2),
    ));
    policies.push(Policy::with_variant(
        SecurityModel::Security3rd,
        LpVariant::LpInf,
    ));
    policies
}

/// The strategy axis: the full forged-path ladder **plus** the duplicate
/// `FakeLink`/`OriginHijack` spellings, so canonical dedup is exercised
/// on every grid (the duplicates must share their rung's lane).
fn grid_rungs() -> Vec<AttackStrategy> {
    let mut rungs = AttackStrategy::LADDER.to_vec();
    rungs.push(AttackStrategy::FakeLink);
    rungs.push(AttackStrategy::OriginHijack);
    rungs
}

fn assert_outcomes_match(got: &Outcome, want: &Outcome, graph: &AsGraph, ctx: &str) {
    for v in graph.ases() {
        assert_eq!(got.route(v), want.route(v), "route mismatch at {v}, {ctx}");
        assert_eq!(
            got.next_hop(v),
            want.next_hop(v),
            "next-hop mismatch at {v}, {ctx}"
        );
    }
}

/// One fused snapshot pass ([`Engine::compute_cells`]) vs a dedicated
/// [`Engine::compute`] per input cell, read back through the
/// [`MultiOutcome`] store.
fn check_compute_cells(inst: &Instance) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    // The duplicate spellings fold away: FakePath{0}/{1} share lanes with
    // OriginHijack/FakeLink, so the grid dedups to 4 rungs per policy.
    assert_eq!(cells.input_len(), policies.len() * rungs.len());
    assert_eq!(
        cells.lane_count(),
        policies.len() * AttackStrategy::LADDER.len()
    );
    for (p, _) in policies.iter().enumerate() {
        let row = p * rungs.len();
        assert_eq!(
            cells.lane_of(row + 1),
            cells.lane_of(row + 4),
            "FakeLink dup"
        );
        assert_eq!(
            cells.lane_of(row),
            cells.lane_of(row + 5),
            "OriginHijack dup"
        );
    }

    let mut engine = Engine::new(&graph);
    let mut fresh = Engine::new(&graph);
    let mut out = MultiOutcome::new();
    for (k, dep) in steps.iter().enumerate() {
        // Normal conditions (empty announcer slice) and every
        // single-attacker scenario.
        let mut scenarios: Vec<Vec<AsId>> = vec![Vec::new()];
        scenarios.extend(graph.ases().filter(|&m| m != d).map(|m| vec![m]));
        for attackers in &scenarios {
            engine.compute_cells(d, attackers, dep, &cells, &mut out);
            assert_eq!(out.lane_count(), cells.lane_count());
            for (i, (p, r)) in (0..policies.len())
                .flat_map(|p| (0..rungs.len()).map(move |r| (p, r)))
                .enumerate()
            {
                let scenario = if attackers.is_empty() {
                    AttackScenario::normal(d)
                } else {
                    AttackScenario::colluding(attackers, d).with_strategy(rungs[r])
                };
                let want = fresh.compute(scenario, dep, policies[p]);
                let lane = cells.lane_of(i);
                assert_outcomes_match(
                    out.lane(lane),
                    want,
                    &graph,
                    &format!(
                        "cell {i} ({}, {}), m={attackers:?}, step {k}: {inst:?}",
                        policies[p], rungs[r]
                    ),
                );
                assert_eq!(
                    out.happy(lane),
                    want.count_happy(),
                    "happy mismatch at cell {i}, m={attackers:?}, step {k}: {inst:?}"
                );
            }
        }
    }
}

/// The fused engine vs a dedicated [`Engine::compute`] per input cell:
/// every attacker of every deployment step, checked through the
/// input-cell view (duplicate spellings must read back their shared
/// lane's values).
fn check_fused_delta(inst: &Instance) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    let mut fused = FusedDeltaEngine::new(&graph, cells.clone());
    let mut fresh = Engine::new(&graph);
    for (k, dep) in steps.iter().enumerate() {
        fused.begin(d, dep);
        for m in graph.ases().filter(|&m| m != d) {
            fused.attack(m);
            for (p, &policy) in policies.iter().enumerate() {
                for (r, &rung) in rungs.iter().enumerate() {
                    let i = p * rungs.len() + r;
                    let scenario = AttackScenario::attack(m, d).with_strategy(rung);
                    let want = fresh.compute(scenario, dep, policy);
                    assert_outcomes_match(
                        fused.outcome(i),
                        want,
                        &graph,
                        &format!("cell {i} ({policy}, {rung}), m={m}, step {k}: {inst:?}"),
                    );
                    assert_eq!(
                        fused.count_happy(i),
                        want.count_happy(),
                        "happy mismatch at cell {i}, m={m}, step {k}: {inst:?}"
                    );
                }
            }
        }
    }
}

/// Colluding announcer sets (pairs and triples sliding over the AS space)
/// through [`FusedDeltaEngine::attack_set`] vs a dedicated colluding
/// [`Engine::compute`] per cell, over the first two deployment steps.
fn check_fused_collusion(inst: &Instance) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let n = inst.n as u32;
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    let mut fused = FusedDeltaEngine::new(&graph, cells.clone());
    let mut fresh = Engine::new(&graph);
    for (k, dep) in steps.iter().enumerate().take(2) {
        fused.begin(d, dep);
        for start in 0..n {
            for size in [2usize, 3] {
                let set: Vec<AsId> = (0..size as u32)
                    .map(|i| AsId((start + i) % n))
                    .filter(|&m| m != d)
                    .collect();
                if set.len() < 2 {
                    continue;
                }
                fused.attack_set(&set);
                for (p, &policy) in policies.iter().enumerate() {
                    for (r, &rung) in rungs.iter().enumerate() {
                        let i = p * rungs.len() + r;
                        let scenario = AttackScenario::colluding(&set, d).with_strategy(rung);
                        let want = fresh.compute(scenario, dep, policy);
                        assert_outcomes_match(
                            fused.outcome(i),
                            want,
                            &graph,
                            &format!("cell {i}, set={set:?}, step {k}: {inst:?}"),
                        );
                        assert_eq!(
                            fused.count_happy(i),
                            want.count_happy(),
                            "happy mismatch at cell {i}, set={set:?}, step {k}: {inst:?}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One fused snapshot pass serves the whole grid, bit-identical to a
    /// dedicated compute per cell, for normal conditions and every
    /// single-attacker scenario at every deployment step.
    #[test]
    fn compute_cells_matches_per_cell_compute(inst in arb_instance()) {
        check_compute_cells(&inst);
    }

    /// The fused engine reproduces a dedicated compute per policy cell,
    /// for every attacker at every deployment step.
    #[test]
    fn fused_delta_matches_per_cell_compute(inst in arb_instance()) {
        check_fused_delta(&inst);
    }

    /// Colluding sets through the fused `attack_set` match dedicated
    /// colluding computes per cell.
    #[test]
    fn fused_collusion_matches_per_cell_compute(inst in arb_instance()) {
        check_fused_collusion(&inst);
    }
}

/// A monotone three-step rollout over the synthetic tiers (empty →
/// Tier 1s full → Tier 1s + largest Tier 2s full).
fn rollout_steps(net: &Internet) -> Vec<Deployment> {
    let t1 = net.tiers.tier1();
    let t2 = net.tiers.tier2();
    let step1 = Deployment::full_from_iter(net.len(), t1.iter().copied());
    let step2 =
        Deployment::full_from_iter(net.len(), t1.iter().chain(&t2[..t2.len().min(5)]).copied());
    vec![Deployment::empty(net.len()), step1, step2]
}

/// The fused destination-major runners are bit-identical across thread
/// counts and to their single-cell counterparts — the exactness contract
/// the experiment drivers rely on when they group a whole grid onto one
/// fused engine per worker.
#[test]
fn fused_runners_are_bit_identical_across_thread_counts() {
    let net = Internet::synthetic(300, 9);
    let attackers = sample::sample_non_stubs(&net, 5, 21);
    let dests: Vec<AsId> = sample::sample_all(&net, 7, 22)
        .into_iter()
        .filter(|d| !attackers.contains(d))
        .collect();
    let pairs = sample::pairs(&attackers, &dests);
    let deployments = rollout_steps(&net);
    let (policies, rungs) = (grid_policies(), grid_rungs());
    let cells = CellSet::grid(&policies, &rungs);
    let parallelisms = [
        Parallelism::sequential(),
        Parallelism(2),
        Parallelism::auto(),
    ];

    let bounds = |accs: &[Vec<bgp_juice::core::metric::MetricAccumulator>]| -> Vec<Vec<Bounds>> {
        accs.iter()
            .map(|row| row.iter().map(|a| a.value()).collect())
            .collect()
    };
    let bits = |rows: &[Vec<Bounds>]| -> Vec<Vec<(u64, u64)>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|b| (b.lower.to_bits(), b.upper.to_bits()))
                    .collect()
            })
            .collect()
    };
    let run = |deps: &[Deployment], cells: &CellSet, par| {
        bounds(&simsweep::metric(&net, &pairs, deps, cells, par).0)
    };

    let mut steps: Vec<&[Deployment]> = deployments.chunks(1).collect();
    steps.push(&deployments);
    for deps in steps {
        let reference = run(deps, &cells, Parallelism::sequential());
        assert_eq!(reference.len(), cells.input_len());
        // Across thread counts: bit-identical, not approximately equal.
        for par in parallelisms {
            assert_eq!(
                bits(&run(deps, &cells, par)),
                bits(&reference),
                "{} steps @ {par:?}",
                deps.len()
            );
        }
        // Against single-cell calls, cell by cell.
        for (i, row) in reference.iter().enumerate() {
            let (p, rung) = (i / rungs.len(), rungs[i % rungs.len()]);
            let one = CellSet::per_policy(&[policies[p]], rung);
            let solo = run(deps, &one, Parallelism::sequential());
            assert_eq!(
                bits(&solo[..1]),
                bits(std::slice::from_ref(row)),
                "solo cell {i}"
            );
            // One deployment: against a per-pair compute fold.
            if let [dep] = deps {
                let fold = compute_metric(&net, &pairs, dep, policies[p], rung);
                assert_eq!(bits(&[vec![fold]]), bits(&solo[..1]), "fold cell {i}");
            }
        }
    }
}

/// `H_{M,D}(S)` for one cell from a per-pair [`Engine::compute`], folded
/// in the drivers' (group, attacker) order.
fn compute_metric(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    dep: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
) -> Bounds {
    let mut engine = Engine::new(&net.graph);
    let mut total = bgp_juice::core::metric::MetricAccumulator::default();
    for (d, attackers) in sample::group_by_destination(pairs) {
        let mut acc = bgp_juice::core::metric::MetricAccumulator::default();
        for m in attackers.into_iter().filter(|&m| m != d) {
            let scenario = AttackScenario::attack(m, d).with_strategy(strategy);
            let (lower, upper) = engine.compute(scenario, dep, policy).count_happy();
            acc.add(HappyCount {
                lower,
                upper,
                sources: net.len() - 2,
            });
        }
        total.merge(acc);
    }
    total.value()
}
