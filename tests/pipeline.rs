//! End-to-end integration tests spanning all crates: generate a synthetic
//! Internet, classify it, deploy, attack, measure — the same pipeline every
//! figure binary runs — plus CAIDA round-trips and the hardness optimizers
//! on a realistic topology.

use bgp_juice::hardness;
use bgp_juice::prelude::*;
use bgp_juice::sim::experiments::{baseline, rollout, ExperimentConfig};
use bgp_juice::topology::tier::{Tier, TierConfig};
use bgp_juice::topology::{io, prune, stats::GraphStats};

fn net() -> Internet {
    Internet::synthetic(1_500, 77)
}

/// The fake-link metric of one policy at each deployment, in order.
fn metric(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployments: &[Deployment],
    policy: Policy,
) -> Vec<Bounds> {
    let cells = CellSet::per_policy(&[policy], AttackStrategy::FakeLink);
    let (accs, _) = sweep::metric(net, pairs, deployments, &cells, Parallelism(1));
    accs[0].iter().map(|a| a.value()).collect()
}

#[test]
fn generated_internet_has_paper_shape() {
    let net = net();
    let stats = GraphStats::compute(&net.graph);
    assert!(net.graph.provider_hierarchy_is_acyclic());
    assert!(net.graph.is_connected());
    assert!(
        stats.stub_share() > 0.75,
        "stub share {}",
        stats.stub_share()
    );
    assert_eq!(net.tiers.tier1().len(), 13);
    assert_eq!(net.tiers.tier2().len(), 100);
    assert_eq!(net.content_providers.len(), 17);
    // Tier 1s are transit-free and peer-meshed.
    for &t1 in net.tiers.tier1() {
        assert_eq!(net.graph.provider_degree(t1), 0);
        assert!(net.graph.peer_degree(t1) >= 12);
    }
}

#[test]
fn rollout_improves_metric_in_model_order() {
    let net = net();
    let cfg = ExperimentConfig::small(3);
    let result = rollout::figure7(&net, &cfg);
    let last = result.points.last().unwrap();
    // Security 1st ≥ security 3rd at the biggest deployment (midpoints).
    assert!(last.delta[0].mid() >= last.delta[2].mid() - 1e-9);
    // Security 3rd never hurts (Theorem 6.1): lower-bound deltas ≥ 0.
    for p in &result.points {
        assert!(p.delta[2].lower >= -1e-9, "{}", p.label);
    }
    // Simplex-at-stubs tracks the full deployment closely (§5.3.2).
    for p in &result.points {
        for i in 0..3 {
            assert!((p.delta[i].mid() - p.delta_simplex[i].mid()).abs() < 0.12);
        }
    }
}

#[test]
fn baseline_beats_half_and_figures_are_consistent() {
    let net = net();
    let cfg = ExperimentConfig::small(5);
    let b = baseline::baseline_metric(&net, &cfg);
    assert!(b.metric.lower > 0.5, "{}", b.metric);

    // The deployment-invariant upper bound must dominate any concrete
    // deployment's metric for the same pairs.
    let attackers = sample::sample_all(&net, cfg.attackers, cfg.seed);
    let destinations = sample::sample_all(&net, cfg.destinations, cfg.seed ^ 0xD);
    let pairs = sample::pairs(&attackers, &destinations);
    let policy = Policy::new(SecurityModel::Security2nd);
    let parts = runner::partitions(&net, &pairs, policy, Parallelism(1));
    let everyone = Deployment::full_from_iter(net.len(), net.graph.ases());
    let h_full = metric(&net, &pairs, &[everyone], policy)[0];
    let upper = 1.0 - parts.doomed as f64 / parts.sources() as f64;
    assert!(
        h_full.upper <= upper + 1e-9,
        "full deployment {h_full} exceeds invariant bound {upper}"
    );
}

#[test]
fn caida_round_trip_preserves_experiments() {
    // Serialize a generated graph to serial-1 text, parse it back, rebuild
    // the Internet via the public tier config, and check an experiment
    // produces identical numbers.
    let original = Internet::synthetic(700, 13);
    let text = io::write_relationships(&original.graph);
    let reparsed = io::parse_relationships(text.as_bytes()).unwrap();
    assert_eq!(reparsed.len(), original.graph.len());

    // Map the CP list through ASN labels (ids may be permuted).
    let cps: Vec<AsId> = original
        .content_providers
        .iter()
        .map(|&cp| {
            let label = original.graph.asn_label(cp);
            reparsed
                .ases()
                .find(|&v| reparsed.asn_label(v) == label)
                .expect("cp preserved")
        })
        .collect();
    let rebuilt = Internet::from_graph(
        reparsed,
        &TierConfig {
            content_providers: cps,
            ..TierConfig::default()
        },
        "reparsed",
    );

    let h_a = baseline::baseline_metric(&original, &ExperimentConfig::small(1));
    let h_b = baseline::baseline_metric(&rebuilt, &ExperimentConfig::small(1));
    // Ids are permuted so the samples differ; both must land in the same
    // regime rather than be bitwise equal.
    assert!((h_a.metric.lower - h_b.metric.lower).abs() < 0.25);
}

#[test]
fn pruning_composes_with_classification() {
    let net = net();
    let pruned = prune::prune_orphans(&net.graph, 3, net.tiers.tier1());
    assert!(pruned.graph.len() <= net.graph.len());
    assert!(pruned.graph.provider_hierarchy_is_acyclic());
    let lc = prune::largest_component(&pruned.graph);
    assert!(lc.graph.is_connected());
}

#[test]
fn greedy_early_adopters_beat_random_ones_on_average() {
    // A cross-crate use of the hardness optimizers: greedily protect one
    // victim CP against one fixed attacker, and compare with securing the
    // same *number* of arbitrary ASes.
    let net = Internet::synthetic(400, 21);
    let d = net.content_providers[0];
    let m = net.tiers.tier2()[0];
    let policy = Policy::new(SecurityModel::Security2nd);
    let g = hardness::greedy(&net.graph, m, d, 4, policy);
    let arbitrary: Vec<AsId> = (0..4).map(|i| AsId(i * 7 + 50)).collect();
    let h_arbitrary = hardness::happy_lower_bound(&net.graph, m, d, &arbitrary, policy);
    assert!(
        g.happy >= h_arbitrary,
        "greedy {} < arbitrary {}",
        g.happy,
        h_arbitrary
    );
}

#[test]
fn tier_census_is_stable_across_ixp_augmentation() {
    let base = Internet::synthetic(900, 31);
    let aug = Internet::synthetic_with_ixp(900, 31);
    // Tier 1 and CP sets are structural; augmentation must not move them.
    assert_eq!(base.tiers.tier1(), aug.tiers.tier1());
    assert_eq!(base.content_providers, aug.content_providers);
    // Stub-x count can only grow (stubs gaining peers).
    let count = |net: &Internet, t: Tier| net.tiers.count(t);
    assert!(count(&aug, Tier::StubX) >= count(&base, Tier::StubX));
}

#[test]
fn simplex_stub_destinations_still_get_protection() {
    // §5.3.2's point (3): a simplex stub acts as a secure *destination*.
    let net = net();
    let full = scenario::tier12_step(&net, 13, 37);
    let simplex = scenario::simplex_variant(&net, &full);
    // Pick a stub destination inside the deployment.
    let stub_dest = scenario::secure_destinations(&full)
        .into_iter()
        .find(|&v| net.graph.customer_degree(v) == 0 && net.graph.provider_degree(v) >= 2)
        .expect("a multihomed secure stub exists");
    let attackers = sample::sample_non_stubs(&net, 8, 2);
    let pairs: Vec<(AsId, AsId)> = attackers
        .iter()
        .filter(|&&m| m != stub_dest)
        .map(|&m| (m, stub_dest))
        .collect();
    let policy = Policy::new(SecurityModel::Security1st);
    let [h_full, h_simplex, h_none] = metric(
        &net,
        &pairs,
        &[
            full.deployment.clone(),
            simplex.deployment.clone(),
            Deployment::empty(net.len()),
        ],
        policy,
    )[..] else {
        unreachable!("three deployments, three values")
    };
    assert!(
        h_simplex.lower >= h_none.lower - 1e-9,
        "simplex hurt the stub destination"
    );
    // Simplex tracks full closely for this destination.
    assert!((h_full.lower - h_simplex.lower).abs() < 0.2);
}
