//! Exhaustive-oracle conformance for the stratified estimator.
//!
//! Two properties anchor `sbgp_sim::stats` to ground truth on graphs small
//! enough to enumerate (`sample::pairs_exhaustive`):
//!
//! 1. **Full budget ⇒ exhaustive.** With the pair budget set to the
//!    universe size, every stratum's nested sample is the whole stratum:
//!    the sampled pair *set* equals the exhaustive grid exactly, the
//!    confidence half-width is exactly zero (finite-population
//!    correction), and the population-weighted estimate equals the plain
//!    mean over `pairs_exhaustive` to floating-point addition order.
//! 2. **Nominal coverage.** Across many seeds, the 95% confidence
//!    interval of a genuinely partial sample must cover the exhaustive
//!    value at (at least close to) the nominal rate. Measured over ≥ 200
//!    seeded trials spanning all three security models, the LP2/LPinf
//!    variants, and forged paths k ∈ {0, 1, 2}, the acceptance bar is
//!    ≥ 90% at nominal 95%.

use std::collections::HashSet;

use proptest::prelude::*;

use bgp_juice::prelude::*;
use bgp_juice::sim::stats::{self, EstimatorConfig};

/// Strategy / model / variant combinations that jointly cover all three
/// models, both LP variants, and FakePath k ∈ {0, 1, 2}.
const COMBOS: [(SecurityModel, LpVariant, u8); 6] = [
    (SecurityModel::Security1st, LpVariant::LpK(2), 1),
    (SecurityModel::Security2nd, LpVariant::LpInf, 0),
    (SecurityModel::Security3rd, LpVariant::LpK(2), 2),
    (SecurityModel::Security1st, LpVariant::LpInf, 2),
    (SecurityModel::Security2nd, LpVariant::LpK(2), 0),
    (SecurityModel::Security3rd, LpVariant::LpInf, 1),
];

/// The exhaustive-oracle metric: a plain mean of per-pair happy fractions
/// over the full `m ≠ d` grid, through the explicit-pair driver.
fn oracle(
    net: &Internet,
    attackers: &[AsId],
    dests: &[AsId],
    dep: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
) -> Bounds {
    let pairs = sample::pairs_exhaustive(attackers, dests);
    let cells = CellSet::per_policy(&[policy], strategy);
    let (accs, _) = sweep::metric(
        net,
        &pairs,
        std::slice::from_ref(dep),
        &cells,
        Parallelism(2),
    );
    accs[0][0].value()
}

/// The stratified estimate of one cell under one deployment.
fn estimate(
    net: &Internet,
    attackers: &[AsId],
    dests: &[AsId],
    dep: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    cfg: &EstimatorConfig,
) -> stats::AdaptiveRun {
    stats::estimate_metric_sweep_cells(
        net,
        attackers,
        dests,
        std::slice::from_ref(dep),
        &[policy],
        strategy,
        cfg,
        Parallelism(2),
    )
    .swap_remove(0)
}

/// Full-budget estimation: sampled set ≡ exhaustive grid, half-width ≡ 0,
/// value ≡ oracle.
fn check_full_budget(
    net: &Internet,
    attackers: &[AsId],
    dests: &[AsId],
    dep: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    seed: u64,
) {
    let truth = oracle(net, attackers, dests, dep, policy, strategy);
    let cfg = EstimatorConfig::with_budget(u64::MAX, seed);
    let run = estimate(net, attackers, dests, dep, policy, strategy, &cfg);
    let exhaustive: HashSet<(AsId, AsId)> = sample::pairs_exhaustive(attackers, dests)
        .into_iter()
        .collect();
    let sampled: HashSet<(AsId, AsId)> = run.sampled.iter().copied().collect();
    assert_eq!(sampled.len(), run.sampled.len(), "duplicate sampled pairs");
    assert_eq!(sampled, exhaustive, "full budget must enumerate everything");
    assert_eq!(run.population, exhaustive.len() as u64);
    let e = run.estimates[0];
    assert_eq!(e.pairs, exhaustive.len() as u64);
    assert_eq!(e.halfwidth.lower, 0.0, "exhausted strata have no CI width");
    assert_eq!(e.halfwidth.upper, 0.0);
    assert!(
        (e.value.lower - truth.lower).abs() < 1e-12,
        "lower: estimate {} vs oracle {}",
        e.value.lower,
        truth.lower
    );
    assert!(
        (e.value.upper - truth.upper).abs() < 1e-12,
        "upper: estimate {} vs oracle {}",
        e.value.upper,
        truth.upper
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1 over random graphs, pools, deployments and the full
    /// combo space (model × LP variant × forged-path depth).
    #[test]
    fn full_budget_reproduces_the_exhaustive_oracle(
        args in (150usize..260, 1u64..1000, 0usize..COMBOS.len(), any::<bool>())
    ) {
        let (asns, seed, combo, deployed) = args;
        let net = Internet::synthetic(asns, seed);
        let attackers = sample::sample_non_stubs(&net, 25, seed ^ 0xA);
        let dests = sample::sample_all(&net, 30, seed ^ 0xB);
        let dep = if deployed {
            Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied())
        } else {
            Deployment::empty(net.len())
        };
        let (model, variant, hops) = COMBOS[combo];
        let policy = Policy::with_variant(model, variant);
        let strategy = AttackStrategy::FakePath { hops }.canonical();
        check_full_budget(&net, &attackers, &dests, &dep, policy, strategy, seed ^ 0x5A);
    }
}

/// Property 1 once more, over the *whole* `V × V` population of a 200-AS
/// graph — the paper's Appendix H setting in miniature.
#[test]
fn full_budget_equals_exhaustive_over_the_whole_population() {
    let net = Internet::synthetic(200, 7);
    let pool: Vec<AsId> = net.graph.ases().collect();
    let dep = Deployment::empty(net.len());
    check_full_budget(
        &net,
        &pool,
        &pool,
        &dep,
        Policy::new(SecurityModel::Security3rd),
        AttackStrategy::FakeLink,
        99,
    );
}

/// Property 2: measured CI coverage across ≥ 200 seeded trials (two bound
/// statistics per trial) is at least 90% at nominal 95%, pooled over the
/// full combo space; no single combo collapses either.
#[test]
fn ci_coverage_meets_the_nominal_rate() {
    let net = Internet::synthetic(240, 7);
    let attackers = net.tiers.non_stubs();
    let dests = sample::sample_all(&net, 40, 0xD1);
    let dep = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
    const TRIALS: u64 = 34; // 6 combos × 34 trials = 204 ≥ 200
    const BUDGET: u64 = 1_000; // genuinely partial (~20% of the universe)

    let (mut covered, mut total) = (0u32, 0u32);
    for (c, &(model, variant, hops)) in COMBOS.iter().enumerate() {
        let policy = Policy::with_variant(model, variant);
        let strategy = AttackStrategy::FakePath { hops }.canonical();
        let truth = oracle(&net, &attackers, &dests, &dep, policy, strategy);
        let (mut combo_cov, mut combo_total) = (0u32, 0u32);
        for trial in 0..TRIALS {
            let cfg = EstimatorConfig::with_budget(BUDGET, 0x9000 + 64 * c as u64 + trial);
            let run = estimate(&net, &attackers, &dests, &dep, policy, strategy, &cfg);
            assert_eq!(run.sampled.len() as u64, BUDGET);
            let e = run.estimates[0];
            assert!(
                e.max_halfwidth() > 0.0,
                "a partial sample must carry CI width"
            );
            for (value, hw, t) in [
                (e.value.lower, e.halfwidth.lower, truth.lower),
                (e.value.upper, e.halfwidth.upper, truth.upper),
            ] {
                combo_total += 1;
                if (value - t).abs() <= hw {
                    combo_cov += 1;
                }
            }
        }
        covered += combo_cov;
        total += combo_total;
        assert!(
            f64::from(combo_cov) >= 0.75 * f64::from(combo_total),
            "{model}/{variant}/k={hops}: coverage {combo_cov}/{combo_total} collapsed"
        );
    }
    assert!(total >= 400, "fewer than 200 trials ({total} bound events)");
    let rate = f64::from(covered) / f64::from(total);
    assert!(
        rate >= 0.90,
        "measured coverage {rate:.3} ({covered}/{total}) below 0.90 at nominal 95%"
    );
}

/// The estimator must stay unbiased under *any* allocation: pin the
/// stratified estimate at full budget against the oracle when the pools
/// are deliberately lopsided (a single-tier destination pool).
#[test]
fn full_budget_is_exact_for_lopsided_pools() {
    let net = Internet::synthetic(220, 3);
    let attackers = net.tiers.non_stubs();
    let dests = net.tiers.tier2().to_vec();
    let dep = Deployment::empty(net.len());
    check_full_budget(
        &net,
        &attackers,
        &dests,
        &dep,
        Policy::new(SecurityModel::Security2nd),
        AttackStrategy::OriginHijack,
        5,
    );
}
