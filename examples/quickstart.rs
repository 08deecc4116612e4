//! Quickstart: build a synthetic Internet, attack a destination, and ask
//! whether partially-deployed S*BGP helped.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bgp_juice::prelude::*;

fn main() {
    // A 2000-AS Internet with the paper's shape: 13-AS Tier-1 clique,
    // ~100 Tier 2s, 17 content providers, ~85% stubs.
    let net = Internet::synthetic(2_000, 42);
    println!(
        "generated {}: {} ASes, {} customer->provider edges, {} peer edges",
        net.name,
        net.graph.len(),
        net.graph.num_customer_provider_edges(),
        net.graph.num_peer_edges()
    );

    // One concrete attack: a Tier-2 ISP fakes adjacency to a content
    // provider ("m, d" via legacy BGP, §3.1 of the paper).
    let attacker = net.tiers.tier2()[3];
    let victim = net.content_providers[0];
    println!("\nattacker {attacker} (Tier 2) vs destination {victim} (content provider)");

    // Evaluate under each security model with half the rollout deployed.
    let step = scenario::tier12_step(&net, 13, 50);
    println!(
        "deployment: {} ({} secure ASes)\n",
        step.label,
        step.deployment.secure_count()
    );

    let mut engine = Engine::new(&net.graph);
    for model in SecurityModel::ALL {
        let outcome = engine.compute(
            AttackScenario::attack(attacker, victim),
            &step.deployment,
            Policy::new(model),
        );
        let (lo, hi) = outcome.count_happy();
        let sources = net.graph.len() - 2;
        println!(
            "{}: happy sources in [{:.1}%, {:.1}%], {} on secure routes",
            model,
            100.0 * lo as f64 / sources as f64,
            100.0 * hi as f64 / sources as f64,
            outcome.count_secure_sources(),
        );
    }

    // The paper's headline question: averaged over many attacks, how much
    // does this deployment improve on origin authentication alone?
    let attackers = sample::sample_non_stubs(&net, 10, 1);
    let dests = sample::sample_all(&net, 20, 2);
    let pairs = sample::pairs(&attackers, &dests);
    // One pass over [∅, S] serves every model: h[model][step].
    let cells = CellSet::per_policy(
        &SecurityModel::ALL.map(Policy::new),
        AttackStrategy::FakeLink,
    );
    let deployments = [Deployment::empty(net.len()), step.deployment.clone()];
    let (h, _) = sweep::metric(&net, &pairs, &deployments, &cells, Parallelism(1));
    // At S = ∅ no route is secure, so every model gives the same H(∅).
    let baseline = h[0][0].value();
    println!("\nH(∅)  = {baseline}  (origin authentication only)");
    for (model, h) in SecurityModel::ALL.into_iter().zip(&h) {
        println!(
            "H(S) − H(∅) under {model}: {}",
            h[1].value().minus(baseline)
        );
    }
    println!("\n(the juice: big under security 1st, meagre under security 3rd)");
}
