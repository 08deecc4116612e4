//! The sweep-equivalence property suite: on random valley-free graphs,
//! [`SweepEngine`] outcomes after **any** deployment sequence — monotone
//! rollouts and arbitrary churn (joins, retirements, simplex↔full flips,
//! the destination signing and un-signing) alike — must be identical —
//! route class, length, security, flags, representative next hop, and
//! happy bounds — to a fresh [`Engine::compute`] at every step, for every
//! security model, the `LP2`/`LPinf` variants, and both attack kinds.
//! Sweeps adopted mid-flight from a fused lane
//! ([`SweepEngine::begin_from`]) are held to the same bar. The
//! message-level simulator oracle (`tests/equivalence.rs`) pins
//! `Engine::compute` itself to the protocol, so together these close the
//! chain: sweep ≡ engine ≡ simulated S*BGP.

use proptest::prelude::*;

use bgp_juice::prelude::*;

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
    attacker: usize,
    destination: usize,
    /// Use the origin-hijack strategy instead of the fake link.
    hijack: bool,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (4usize..10).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec(any::<u8>(), pairs),
            proptest::collection::vec(any::<u8>(), n),
            0..n,
            0..n,
            any::<bool>(),
        )
            .prop_map(
                |(n, codes, join_codes, attacker, destination, hijack)| Instance {
                    n,
                    codes,
                    join_codes,
                    attacker,
                    destination,
                    hijack,
                },
            )
    })
}

fn check_instance(inst: &Instance, policy: Policy) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    // The sequence must actually be monotone, or the whole premise breaks.
    for w in steps.windows(2) {
        assert!(w[1].is_monotone_extension_of(&w[0]), "generator bug");
    }

    let d = AsId(inst.destination as u32);
    let m = AsId(inst.attacker as u32);
    let scenario = if m == d {
        AttackScenario::normal(d)
    } else if inst.hijack {
        AttackScenario::hijack(m, d)
    } else {
        AttackScenario::attack(m, d)
    };

    let mut sweep = SweepEngine::new(&graph);
    let mut fresh = Engine::new(&graph);
    sweep.begin(scenario, policy);
    for (k, dep) in steps.iter().enumerate() {
        let got = sweep.advance(dep);
        let want = fresh.compute(scenario, dep, policy);
        for v in graph.ases() {
            assert_eq!(
                got.route(v),
                want.route(v),
                "route mismatch at {v}, step {k}: {inst:?} {policy}"
            );
            assert_eq!(
                got.next_hop(v),
                want.next_hop(v),
                "next-hop mismatch at {v}, step {k}: {inst:?} {policy}"
            );
        }
        assert_eq!(
            sweep.count_happy(),
            want.count_happy(),
            "happy-bound mismatch at step {k}: {inst:?} {policy}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_matches_fresh_engine_standard_lp(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_instance(&inst, Policy::new(model));
        }
    }

    #[test]
    fn sweep_matches_fresh_engine_lp_variants(inst in arb_instance()) {
        for model in SecurityModel::ALL {
            check_instance(&inst, Policy::with_variant(model, LpVariant::LpK(2)));
            check_instance(&inst, Policy::with_variant(model, LpVariant::LpInf));
        }
    }
}

/// A sweep adopted mid-flight: [`Engine::compute_cells`] serves the first
/// deployment for a whole policy grid, [`SweepEngine::begin_from`] adopts
/// each lane, and every later advance must match a fresh compute. The
/// `hijack` bit swaps the single attacker for a colluding pair.
fn check_adopted_lanes(inst: &Instance) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = deployment_sequence(inst.n, &inst.join_codes);
    let d = AsId(inst.destination as u32);
    let m = AsId(inst.attacker as u32);
    let partner = AsId((m.0 + 1) % inst.n as u32);
    let attackers = match (m == d, inst.hijack && partner != d) {
        (true, _) => vec![],
        (false, true) => vec![m, partner],
        (false, false) => vec![m],
    };
    let mut policies: Vec<Policy> = SecurityModel::ALL.map(Policy::new).to_vec();
    policies.push(Policy::with_variant(
        SecurityModel::Security2nd,
        LpVariant::LpK(2),
    ));
    let cells = CellSet::grid(
        &policies,
        &[
            AttackStrategy::FakeLink,
            AttackStrategy::FakePath { hops: 2 },
        ],
    );
    let mut lanes = MultiOutcome::new();
    Engine::new(&graph).compute_cells(d, &attackers, &steps[0], &cells, &mut lanes);
    let mut sweep = SweepEngine::new(&graph);
    let mut fresh = Engine::new(&graph);
    for (j, cell) in cells.lanes().iter().enumerate() {
        let scenario = if attackers.is_empty() {
            AttackScenario::normal(d)
        } else {
            AttackScenario::colluding(&attackers, d).with_strategy(cell.strategy)
        };
        sweep.begin_from(
            scenario,
            cell.policy,
            &steps[0],
            lanes.lane(j),
            lanes.happy(j),
        );
        for (k, dep) in steps.iter().enumerate().skip(1) {
            let got = sweep.advance(dep);
            let want = fresh.compute(scenario, dep, cell.policy);
            for v in graph.ases() {
                assert_eq!(
                    got.route(v),
                    want.route(v),
                    "route mismatch at {v}, lane {j}, step {k}: {inst:?}"
                );
                assert_eq!(
                    got.next_hop(v),
                    want.next_hop(v),
                    "next-hop mismatch at {v}, lane {j}, step {k}: {inst:?}"
                );
            }
            assert_eq!(
                sweep.count_happy(),
                want.count_happy(),
                "happy-bound mismatch at lane {j}, step {k}: {inst:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_adopted_from_fused_lanes_matches_fresh_engine(inst in arb_instance()) {
        check_adopted_lanes(&inst);
    }
}

/// A fixed-length any-direction deployment sequence: each AS gets an
/// independent state per step (absent / simplex / full), so joins,
/// retirements, and simplex↔full flips all occur — including on the
/// destination, whose flips exercise the signing seed.
const CHURN_STEPS: usize = 6;

fn churn_sequence(n: usize, state_codes: &[u8]) -> Vec<Deployment> {
    (0..CHURN_STEPS)
        .map(|step| {
            let mut dep = Deployment::empty(n);
            for i in 0..n {
                let v = AsId(i as u32);
                match state_codes[step * n + i] % 8 {
                    // Biased toward absent so the secure set stays sparse
                    // and actually churns instead of saturating.
                    0..=3 => {}
                    4 | 5 => dep.insert_simplex(v),
                    _ => dep.insert_full(v),
                }
            }
            dep
        })
        .collect()
}

#[derive(Debug, Clone)]
struct ChurnInstance {
    n: usize,
    codes: Vec<u8>,
    /// One state code per (step, AS) — `churn_sequence` input.
    state_codes: Vec<u8>,
    attacker: usize,
    destination: usize,
    hijack: bool,
}

fn arb_churn_instance() -> impl Strategy<Value = ChurnInstance> {
    (4usize..10).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            Just(n),
            proptest::collection::vec(any::<u8>(), pairs),
            proptest::collection::vec(any::<u8>(), n * CHURN_STEPS),
            0..n,
            0..n,
            any::<bool>(),
        )
            .prop_map(|(n, codes, state_codes, attacker, destination, hijack)| {
                ChurnInstance {
                    n,
                    codes,
                    state_codes,
                    attacker,
                    destination,
                    hijack,
                }
            })
    })
}

fn check_churn_instance(inst: &ChurnInstance, policy: Policy) {
    let graph = graph_from_codes(inst.n, &inst.codes);
    let steps = churn_sequence(inst.n, &inst.state_codes);

    let d = AsId(inst.destination as u32);
    let m = AsId(inst.attacker as u32);
    let scenario = if m == d {
        AttackScenario::normal(d)
    } else if inst.hijack {
        AttackScenario::hijack(m, d)
    } else {
        AttackScenario::attack(m, d)
    };

    let mut sweep = SweepEngine::new(&graph);
    let mut fresh = Engine::new(&graph);
    sweep.begin(scenario, policy);
    for (k, dep) in steps.iter().enumerate() {
        let got = sweep.advance(dep);
        let want = fresh.compute(scenario, dep, policy);
        for v in graph.ases() {
            assert_eq!(
                got.route(v),
                want.route(v),
                "route mismatch at {v}, step {k}: {inst:?} {policy}"
            );
            assert_eq!(
                got.next_hop(v),
                want.next_hop(v),
                "next-hop mismatch at {v}, step {k}: {inst:?} {policy}"
            );
        }
        assert_eq!(
            sweep.count_happy(),
            want.count_happy(),
            "happy-bound mismatch at step {k}: {inst:?} {policy}"
        );
    }
    // Step-direction accounting must close over whatever the sequence did.
    let s = sweep.stats();
    assert_eq!(
        s.monotone_steps + s.retracting_steps + s.mixed_steps,
        s.incremental_steps,
        "direction accounting broke: {inst:?} {policy}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_matches_fresh_engine_under_churn(inst in arb_churn_instance()) {
        for model in SecurityModel::ALL {
            check_churn_instance(&inst, Policy::new(model));
        }
    }

    #[test]
    fn sweep_matches_fresh_engine_under_churn_lp_variants(inst in arb_churn_instance()) {
        for model in SecurityModel::ALL {
            check_churn_instance(&inst, Policy::with_variant(model, LpVariant::LpK(2)));
            check_churn_instance(&inst, Policy::with_variant(model, LpVariant::LpInf));
        }
    }
}

/// Build the colluding forged-path scenario for the strategic sweep tests:
/// the given attacker plus up to two extra announcers (deduplicated,
/// destination dropped), all announcing `FakePath { hops }`.
fn strategic_scenario(
    attacker: usize,
    destination: usize,
    extra: &[usize],
    hops: u8,
) -> AttackScenario {
    let d = AsId(destination as u32);
    let candidates: Vec<AsId> = std::iter::once(&attacker)
        .chain(extra)
        .map(|&i| AsId(i as u32))
        .collect();
    let ms = AttackScenario::filter_announcers(&candidates, d);
    if ms.is_empty() {
        AttackScenario::normal(d)
    } else {
        AttackScenario::colluding(&ms, d).with_strategy(AttackStrategy::FakePath { hops })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every new strategy through the sweep: `FakePath{k}` for k ∈ 0..=3
    /// announced by 1–3 colluders (who may sit inside the secure set —
    /// the join codes are independent of the announcer sample), swept
    /// over monotone deployments and compared to fresh computes per step,
    /// across all models and the LP2/LPinf variants.
    #[test]
    fn sweep_matches_fresh_engine_strategic(
        args in (arb_instance(), proptest::collection::vec(0usize..10, 0..3), 0u8..4)
    ) {
        let (inst, extra, hops) = args;
        let extra: Vec<usize> = extra.into_iter().filter(|&i| i < inst.n).collect();
        let graph = graph_from_codes(inst.n, &inst.codes);
        let steps = deployment_sequence(inst.n, &inst.join_codes);
        let scenario = strategic_scenario(inst.attacker, inst.destination, &extra, hops);
        for policy in [
            Policy::new(SecurityModel::Security1st),
            Policy::new(SecurityModel::Security2nd),
            Policy::new(SecurityModel::Security3rd),
            Policy::with_variant(SecurityModel::Security2nd, LpVariant::LpK(2)),
            Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpInf),
        ] {
            let mut sweep = SweepEngine::new(&graph);
            let mut fresh = Engine::new(&graph);
            sweep.begin(scenario, policy);
            for (k, dep) in steps.iter().enumerate() {
                let got = sweep.advance(dep);
                let want = fresh.compute(scenario, dep, policy);
                for v in graph.ases() {
                    prop_assert_eq!(
                        got.route(v),
                        want.route(v),
                        "route mismatch at {} step {}: {:?} {} hops {}",
                        v, k, inst, policy, hops
                    );
                    prop_assert_eq!(
                        got.next_hop(v),
                        want.next_hop(v),
                        "next-hop mismatch at {} step {}: {:?} {}",
                        v, k, inst, policy
                    );
                }
                prop_assert_eq!(
                    sweep.count_happy(),
                    want.count_happy(),
                    "happy-bound mismatch at step {}: {:?} {}",
                    k, inst, policy
                );
            }
        }
    }

    /// The strategy ladder under churn: `FakePath{k}` for k ∈ 0..=3
    /// announced by 1–3 colluders (who may churn in and out of the secure
    /// set themselves), swept over an arbitrary-direction sequence and
    /// compared to fresh computes per step.
    #[test]
    fn sweep_matches_fresh_engine_strategic_under_churn(
        args in (arb_churn_instance(), proptest::collection::vec(0usize..10, 0..3), 0u8..4)
    ) {
        let (inst, extra, hops) = args;
        let extra: Vec<usize> = extra.into_iter().filter(|&i| i < inst.n).collect();
        let graph = graph_from_codes(inst.n, &inst.codes);
        let steps = churn_sequence(inst.n, &inst.state_codes);
        let scenario = strategic_scenario(inst.attacker, inst.destination, &extra, hops);
        for policy in [
            Policy::new(SecurityModel::Security1st),
            Policy::new(SecurityModel::Security2nd),
            Policy::new(SecurityModel::Security3rd),
            Policy::with_variant(SecurityModel::Security2nd, LpVariant::LpK(2)),
            Policy::with_variant(SecurityModel::Security3rd, LpVariant::LpInf),
        ] {
            let mut sweep = SweepEngine::new(&graph);
            let mut fresh = Engine::new(&graph);
            sweep.begin(scenario, policy);
            for (k, dep) in steps.iter().enumerate() {
                let got = sweep.advance(dep);
                let want = fresh.compute(scenario, dep, policy);
                for v in graph.ases() {
                    prop_assert_eq!(
                        got.route(v),
                        want.route(v),
                        "route mismatch at {} step {}: {:?} {} hops {}",
                        v, k, inst, policy, hops
                    );
                    prop_assert_eq!(
                        got.next_hop(v),
                        want.next_hop(v),
                        "next-hop mismatch at {} step {}: {:?} {}",
                        v, k, inst, policy
                    );
                }
                prop_assert_eq!(
                    sweep.count_happy(),
                    want.count_happy(),
                    "happy-bound mismatch at step {}: {:?} {}",
                    k, inst, policy
                );
            }
        }
    }
}

/// The same equivalence on a structured (generated) topology with a real
/// rollout, where the incremental path is actually exercised (proptest's
/// tiny graphs often fall back to full recomputes via the region cap).
#[test]
fn sweep_matches_fresh_engine_on_generated_internet() {
    let net = Internet::synthetic(400, 17);
    let steps: Vec<Deployment> = [
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 2, 2).deployment.clone(),
        scenario::tier12_step(&net, 5, 8).deployment.clone(),
        scenario::tier12_step(&net, 13, 30).deployment.clone(),
    ]
    .to_vec();
    let m = net.tiers.tier2()[1];
    let d = net.content_providers[0];
    let attack = AttackScenario::attack(m, d);
    let mut incremental_seen = false;
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let mut sweep = SweepEngine::new(&net.graph);
        let mut fresh = Engine::new(&net.graph);
        sweep.begin(attack, policy);
        for (k, dep) in steps.iter().enumerate() {
            let got = sweep.advance(dep);
            let want = fresh.compute(attack, dep, policy);
            for v in net.graph.ases() {
                assert_eq!(got.route(v), want.route(v), "{model} step {k} at {v}");
            }
            assert_eq!(sweep.count_happy(), want.count_happy(), "{model} step {k}");
        }
        incremental_seen |= sweep.stats().incremental_steps > 0;
    }
    assert!(incremental_seen, "rollout never took the incremental path");
}

/// The same equivalence on a generated topology over a full wax-and-wane
/// churn trajectory, where the *retraction* path is actually exercised
/// incrementally (not just bailed to the region-cap fallback).
#[test]
fn sweep_matches_fresh_engine_on_generated_internet_churn() {
    let net = Internet::synthetic(400, 17);
    let steps = scenario::churn_trajectory(&net, 4);
    assert_eq!(steps.len(), 7, "wax-and-wane at peak 4");
    let m = net.tiers.tier2()[1];
    let d = net.content_providers[0];
    let attack = AttackScenario::attack(m, d);
    let mut retraction_seen = false;
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let mut sweep = SweepEngine::new(&net.graph);
        let mut fresh = Engine::new(&net.graph);
        sweep.begin(attack, policy);
        for (k, dep) in steps.iter().enumerate() {
            let got = sweep.advance(dep);
            let want = fresh.compute(attack, dep, policy);
            for v in net.graph.ases() {
                assert_eq!(got.route(v), want.route(v), "{model} step {k} at {v}");
            }
            assert_eq!(sweep.count_happy(), want.count_happy(), "{model} step {k}");
        }
        retraction_seen |= sweep.stats().retracting_steps > 0;
    }
    assert!(
        retraction_seen,
        "churn trajectory never took the incremental retraction path"
    );
}
