//! Paper-scale smoke test: a 40k-AS synthetic Internet — the size class of
//! the paper's UCLA/Cyclops snapshot (~39k ASes, Appendix H) — must
//! generate with the calibrated Table 1 shape intact, and the engine must
//! serve a full destination group on it within a wall-clock guard.
//!
//! `#[ignore]`d in tier-1 (it is a scale test, not a correctness test);
//! the CI bench-smoke job runs it in release via
//! `cargo test --release --test scale_smoke -- --ignored`.

use std::time::Instant;

use bgp_juice::prelude::*;
use bgp_juice::sim::sample;
use bgp_juice::topology::tier::Tier;

const ASNS: usize = 40_000;

#[test]
#[ignore = "40k-AS scale smoke; run by CI bench-smoke with --ignored"]
fn scale_smoke_40k_generation_and_destination_group() {
    let t0 = Instant::now();
    let net = Internet::synthetic(ASNS, 42);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(net.len(), ASNS);

    // --- Table 1 shape invariants at paper scale -----------------------
    // 13 transit-free Tier 1s forming a full peering clique.
    let t1 = net.tiers.tier1();
    assert_eq!(t1.len(), 13);
    for (i, &a) in t1.iter().enumerate() {
        assert_eq!(net.graph.provider_degree(a), 0, "{a} buys transit");
        for &b in &t1[i + 1..] {
            assert!(
                net.graph.peers(a).contains(&b),
                "Tier-1 clique broken: {a} does not peer with {b}"
            );
        }
    }
    // Stub fraction near the UCLA snapshot's ~85%.
    let stubs = net.graph.ases().filter(|&v| net.tiers.is_stub(v)).count();
    let stub_share = stubs as f64 / net.len() as f64;
    assert!(
        (0.80..=0.92).contains(&stub_share),
        "stub share {stub_share}"
    );
    // Customer→provider : peer–peer edge ratio within the calibrated band
    // (UCLA 2012: 73442/62129 ≈ 1.18).
    let ratio = net.graph.num_customer_provider_edges() as f64 / net.graph.num_peer_edges() as f64;
    assert!((0.7..=2.0).contains(&ratio), "c2p/p2p ratio {ratio}");
    // The tier classifier found its full populations.
    assert_eq!(net.tiers.tier2().len(), 100);
    assert_eq!(net.tiers.tier3().len(), 100);
    assert_eq!(net.tiers.count(Tier::SmallCp), 300);
    assert_eq!(net.content_providers.len(), 17);

    // --- One destination group, end to end ------------------------------
    // A Tier-2 destination against a spread of non-stub attackers: one
    // compute per attacker, exactly the unit of work every campaign cell
    // repeats.
    let attackers = sample::sample_non_stubs(&net, 40, 7);
    let d = net.tiers.tier2()[0];
    let dep = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
    let policy = Policy::new(SecurityModel::Security2nd);
    let t_group = Instant::now();
    let mut engine = Engine::new(&net.graph);
    let mut served = 0usize;
    for &m in &attackers {
        if m == d {
            continue;
        }
        let (lower, upper) = engine
            .compute(AttackScenario::attack(m, d), &dep, policy)
            .count_happy();
        assert!(lower <= upper && upper <= net.len() - 2);
        served += 1;
    }
    let group_ms = t_group.elapsed().as_secs_f64() * 1e3;
    assert!(served >= 39, "only {served} attackers served");

    // Wall-clock guard: generation plus one full destination group must
    // stay comfortably interactive even at paper scale (the guard is
    // generous to absorb dev-profile and CI-runner noise; release runs
    // come in far under it).
    let total_s = (gen_ms + group_ms) / 1e3;
    assert!(
        total_s < 300.0,
        "40k-AS generation + destination group took {total_s:.1}s (gen {gen_ms:.0}ms, group {group_ms:.0}ms)"
    );
    println!(
        "40k smoke: gen {gen_ms:.0} ms, {served}-attacker destination group {group_ms:.0} ms, \
         stub share {stub_share:.3}, c2p/p2p {ratio:.2}"
    );
}

/// The `--file` ingestion pipeline at beyond-paper scale: serialize a
/// 100k-AS synthetic Internet to CAIDA serial-1 text, load it back through
/// [`Internet::from_file`] (parse → bulk CSR build → hierarchy validation
/// → label-aware tier classification), and serve one destination group on
/// the loaded snapshot.
#[test]
#[ignore = "100k-AS ingest smoke; run by CI bench-smoke with --ignored"]
fn scale_smoke_100k_ingest_and_destination_group() {
    use bgp_juice::topology::io;

    const N: usize = 100_000;
    let net = Internet::synthetic(N, 42);
    let cp_asns: Vec<u32> = net
        .content_providers
        .iter()
        .map(|&v| net.graph.asn_label(v))
        .collect();
    let path = std::env::temp_dir().join(format!("scale_smoke_100k_{}.as-rel", std::process::id()));
    std::fs::write(&path, io::write_relationships(&net.graph)).unwrap();

    let t0 = Instant::now();
    let loaded = Internet::from_file(&path, &cp_asns).unwrap();
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);

    // The loaded snapshot is the synthetic net under relabeled dense ids:
    // same size and edge counts, same tier populations, and every CP
    // resolved back through its preserved ASN label.
    assert_eq!(loaded.len(), N);
    assert_eq!(
        loaded.graph.num_customer_provider_edges(),
        net.graph.num_customer_provider_edges()
    );
    assert_eq!(loaded.graph.num_peer_edges(), net.graph.num_peer_edges());
    assert_eq!(loaded.tiers.tier1().len(), 13);
    assert_eq!(loaded.tiers.tier2().len(), 100);
    assert_eq!(loaded.content_providers.len(), net.content_providers.len());
    let mut want: Vec<u32> = cp_asns.clone();
    let mut got: Vec<u32> = loaded
        .content_providers
        .iter()
        .map(|&v| loaded.graph.asn_label(v))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want, "CPs survive the round trip by ASN");

    // One destination group on the loaded graph, same shape as the 40k
    // smoke above.
    let attackers = sample::sample_non_stubs(&loaded, 40, 7);
    let d = loaded.tiers.tier2()[0];
    let dep = Deployment::full_from_iter(loaded.len(), loaded.tiers.tier1().iter().copied());
    let t_group = Instant::now();
    let policy = Policy::new(SecurityModel::Security2nd);
    let mut engine = Engine::new(&loaded.graph);
    let mut served = 0usize;
    for &m in &attackers {
        if m == d {
            continue;
        }
        let (lower, upper) = engine
            .compute(AttackScenario::attack(m, d), &dep, policy)
            .count_happy();
        assert!(lower <= upper && upper <= loaded.len() - 2);
        served += 1;
    }
    let group_ms = t_group.elapsed().as_secs_f64() * 1e3;
    assert!(served >= 39, "only {served} attackers served");
    let total_s = (load_ms + group_ms) / 1e3;
    assert!(
        total_s < 300.0,
        "100k-AS load + destination group took {total_s:.1}s (load {load_ms:.0}ms, group {group_ms:.0}ms)"
    );
    println!(
        "100k ingest smoke: load {load_ms:.0} ms, {served}-attacker destination group {group_ms:.0} ms"
    );
}
