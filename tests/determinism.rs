//! Thread-count determinism: the explicit-pair and per-destination
//! drivers (one deployment, sweeps and churn, merged `SweepStats`
//! included), the strategic-attacker runners (strategy ladder, collusion)
//! and the adaptive estimators must produce **bit-identical** results at
//! any [`Parallelism`] — including the floating-point metric bounds, not
//! just integer counts. The reduction guarantees this by merging work
//! items in item order, no matter which worker computed which item.

use bgp_juice::prelude::*;
use bgp_juice::sim::stats::{self, EstimatorConfig};
use bgp_juice::sim::strategy;
use bgp_juice::sim::sweep;
use std::collections::HashSet;

fn net() -> Internet {
    Internet::synthetic(600, 5)
}

fn parallelisms() -> [Parallelism; 3] {
    [
        Parallelism::sequential(),
        Parallelism(2),
        Parallelism::auto(),
    ]
}

/// One fake-link policy along `deps`: the per-step value and standard
/// error bounds as raw bits, and the merged sweep stats.
fn metric_bits(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deps: &[Deployment],
    policy: Policy,
    par: Parallelism,
) -> (Vec<[u64; 4]>, SweepStats) {
    let cells = CellSet::per_policy(&[policy], AttackStrategy::FakeLink);
    let (accs, stats) = sweep::metric(net, pairs, deps, &cells, par);
    let bits = accs[0]
        .iter()
        .map(|a| {
            let (v, e) = (a.value(), a.stderr());
            [v.lower, v.upper, e.lower, e.upper].map(f64::to_bits)
        })
        .collect();
    (bits, stats)
}

#[test]
fn metric_is_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 7, 1);
    let dests = sample::sample_all(&net, 11, 2);
    let pairs = sample::pairs(&attackers, &dests);
    let dep = [Deployment::full_from_iter(
        net.len(),
        net.tiers.tier1().iter().copied(),
    )];
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let reference = metric_bits(&net, &pairs, &dep, policy, Parallelism::sequential());
        for par in parallelisms() {
            // Bit-identical, not approximately equal.
            let got = metric_bits(&net, &pairs, &dep, policy, par);
            assert_eq!(got.0, reference.0, "{model} @ {par:?}");
        }
    }
}

#[test]
fn metric_with_stderr_is_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 5, 3);
    let dests = sample::sample_all(&net, 9, 4);
    let pairs = sample::pairs(&attackers, &dests);
    let dep = [Deployment::empty(net.len())];
    let policy = Policy::new(SecurityModel::Security3rd);
    let (reference, _) = metric_bits(&net, &pairs, &dep, policy, Parallelism::sequential());
    // The standard error is nonzero, so its bits are really compared.
    assert_ne!(reference[0][2], 0);
    for par in parallelisms() {
        let (got, _) = metric_bits(&net, &pairs, &dep, policy, par);
        assert_eq!(got, reference, "{par:?}");
    }
}

#[test]
fn sweep_results_are_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 5, 7);
    let dests = sample::sample_all(&net, 8, 8);
    let pairs = sample::pairs(&attackers, &dests);
    let deps = vec![
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 3, 5).deployment.clone(),
        scenario::tier12_step(&net, 5, 20).deployment.clone(),
    ];
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let (reference, _) = metric_bits(&net, &pairs, &deps, policy, Parallelism::sequential());
        assert_eq!(reference.len(), deps.len());
        for par in parallelisms() {
            let (got, _) = metric_bits(&net, &pairs, &deps, policy, par);
            assert_eq!(got, reference, "{model} @ {par:?}");
        }
    }
}

#[test]
fn churn_metric_is_bit_identical_across_thread_counts() {
    // The non-monotone drivers inherit the item-order reduction, and the
    // merged SweepStats are a sum of per-group deltas — so the *stats*
    // (fallback counts, step directions, re-fixed ASes) are pinned too,
    // not just the float bounds.
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 5, 15);
    let dests = sample::sample_all(&net, 7, 16);
    let pairs = sample::pairs(&attackers, &dests);
    let deps = scenario::churn_trajectory(&net, 4);
    for model in SecurityModel::ALL {
        let policy = Policy::new(model);
        let (reference, ref_stats) =
            metric_bits(&net, &pairs, &deps, policy, Parallelism::sequential());
        for par in parallelisms() {
            let (got, stats) = metric_bits(&net, &pairs, &deps, policy, par);
            assert_eq!(got, reference, "{model} @ {par:?}");
            assert_eq!(stats, ref_stats, "{model} sweep stats @ {par:?}");
        }
    }
}

#[test]
fn churn_by_destination_is_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 4, 17);
    let dests = sample::sample_all(&net, 6, 18);
    let deps = scenario::churn_trajectory(&net, 3);
    let cells = CellSet::per_policy(
        &[Policy::new(SecurityModel::Security2nd)],
        AttackStrategy::FakeLink,
    );
    let run = |par| sweep::metric_by_destination(&net, &attackers, &dests, &deps, &cells, par);
    let (reference, ref_stats) = run(Parallelism::sequential());
    for par in parallelisms() {
        let (got, stats) = run(par);
        assert_eq!(got, reference, "{par:?}");
        assert_eq!(stats, ref_stats, "sweep stats @ {par:?}");
    }
}

#[test]
fn sweep_by_destination_is_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 4, 9);
    let dests = sample::sample_all(&net, 6, 10);
    let deps = vec![
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 4, 10).deployment.clone(),
    ];
    // The whole model grid in one pass.
    let cells = CellSet::per_policy(
        &SecurityModel::ALL.map(Policy::new),
        AttackStrategy::FakeLink,
    );
    let run = |par| sweep::metric_by_destination(&net, &attackers, &dests, &deps, &cells, par);
    let reference = run(Parallelism::sequential());
    for par in parallelisms() {
        assert_eq!(run(par), reference, "{par:?}");
    }
}

#[test]
fn strategy_ladder_is_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 5, 11);
    let dests = sample::sample_all(&net, 7, 12);
    let pairs = sample::pairs(&attackers, &dests);
    let dep = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
    let policies = SecurityModel::ALL.map(Policy::new);
    let ladder = |par| {
        strategy::metric_strategy_ladder(
            &net,
            &pairs,
            &dep,
            &policies,
            &AttackStrategy::LADDER,
            par,
        )
    };
    let references = ladder(Parallelism::sequential());
    for par in parallelisms() {
        let gots = ladder(par);
        for ((got, reference), model) in gots.iter().zip(&references).zip(SecurityModel::ALL) {
            assert_eq!(got.wins, reference.wins, "{model} wins @ {par:?}");
            assert_eq!(got.pairs, reference.pairs, "{model} pairs @ {par:?}");
            assert_eq!(
                got.optimal.lower.to_bits(),
                reference.optimal.lower.to_bits(),
                "{model} optimal lower @ {par:?}"
            );
            assert_eq!(
                got.optimal.upper.to_bits(),
                reference.optimal.upper.to_bits(),
                "{model} optimal upper @ {par:?}"
            );
            for (k, (g, r)) in got.per_rung.iter().zip(&reference.per_rung).enumerate() {
                assert_eq!(
                    g.lower.to_bits(),
                    r.lower.to_bits(),
                    "{model} rung {k} lower @ {par:?}"
                );
                assert_eq!(
                    g.upper.to_bits(),
                    r.upper.to_bits(),
                    "{model} rung {k} upper @ {par:?}"
                );
            }
        }
    }
}

#[test]
fn stratified_adaptive_runs_are_bit_identical_across_thread_counts() {
    // The estimation subsystem inherits the group-order reduction: the
    // whole adaptive run — estimates (floating point included), CI-width
    // trajectory, and the realized sample — is bit-identical at any
    // thread count.
    let net = net();
    let attackers = net.tiers.non_stubs();
    let dests: Vec<AsId> = net.graph.ases().collect();
    let deps = vec![
        Deployment::empty(net.len()),
        scenario::tier12_step(&net, 3, 5).deployment.clone(),
        scenario::tier12_step(&net, 5, 20).deployment.clone(),
    ];
    let cfg = EstimatorConfig::with_budget(600, 21).with_ci(0.004);
    let policies = SecurityModel::ALL.map(Policy::new);
    let estimate = |par| {
        stats::estimate_metric_sweep_cells(
            &net,
            &attackers,
            &dests,
            &deps,
            &policies,
            AttackStrategy::FakeLink,
            &cfg,
            par,
        )
    };
    let references = estimate(Parallelism::sequential());
    for par in parallelisms() {
        let gots = estimate(par);
        for ((got, reference), model) in gots.iter().zip(&references).zip(SecurityModel::ALL) {
            assert_eq!(got.sampled, reference.sampled, "{model} sample @ {par:?}");
            assert_eq!(got.rounds, reference.rounds, "{model} rounds @ {par:?}");
            assert_eq!(got.estimates.len(), reference.estimates.len());
            for (k, (g, r)) in got.estimates.iter().zip(&reference.estimates).enumerate() {
                for (a, b) in [
                    (g.value.lower, r.value.lower),
                    (g.value.upper, r.value.upper),
                    (g.halfwidth.lower, r.halfwidth.lower),
                    (g.halfwidth.upper, r.halfwidth.upper),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{model} step {k} @ {par:?}");
                }
            }
        }
    }
}

#[test]
fn adaptive_stopping_is_monotone_in_the_ci_target() {
    // The round schedule does not depend on the CI target, so a tighter
    // target can only run *more* rounds: its sample must be a superset of
    // every looser target's sample, and the realized sizes must be
    // monotone. The budget is a hard cap regardless of the target.
    let net = net();
    let attackers = net.tiers.non_stubs();
    let dests: Vec<AsId> = net.graph.ases().collect();
    let dep = Deployment::empty(net.len());
    let policy = Policy::new(SecurityModel::Security3rd);
    const BUDGET: u64 = 2_000;
    let run_with = |target: Option<f64>| {
        let mut cfg = EstimatorConfig::with_budget(BUDGET, 77);
        if let Some(t) = target {
            cfg = cfg.with_ci(t);
        }
        stats::estimate_metric_sweep_cells(
            &net,
            &attackers,
            &dests,
            std::slice::from_ref(&dep),
            &[policy],
            AttackStrategy::FakeLink,
            &cfg,
            Parallelism(2),
        )
        .swap_remove(0)
    };
    // Loosest to tightest; `None` runs to the budget, the floor for all.
    let targets = [Some(0.05), Some(0.02), Some(0.01), Some(0.004), None];
    let runs: Vec<_> = targets.iter().map(|&t| run_with(t)).collect();
    for w in runs.windows(2) {
        let (loose, tight) = (&w[0], &w[1]);
        assert!(loose.sampled.len() <= tight.sampled.len());
        let loose_set: HashSet<(AsId, AsId)> = loose.sampled.iter().copied().collect();
        let tight_set: HashSet<(AsId, AsId)> = tight.sampled.iter().copied().collect();
        assert!(
            loose_set.is_subset(&tight_set),
            "tighter target must sample a superset"
        );
        // Nested samples agree round by round while both ran.
        let shared = loose.rounds.len().min(tight.rounds.len());
        assert_eq!(loose.rounds[..shared], tight.rounds[..shared]);
    }
    for (t, run) in targets.iter().zip(&runs) {
        assert!(
            run.sampled.len() as u64 <= BUDGET,
            "budget overrun at target {t:?}"
        );
        if let Some(t) = t {
            // Stopped early ⇒ the target was actually met.
            if (run.sampled.len() as u64) < BUDGET {
                assert!(run.max_halfwidth() <= *t, "stopped without meeting ±{t}");
            }
        }
    }
    // The loosest target really does stop early on this workload, so the
    // monotonicity above is not vacuous.
    assert!(runs[0].sampled.len() < runs.last().unwrap().sampled.len());
}

#[test]
fn collusion_metric_is_bit_identical_across_thread_counts() {
    let net = net();
    let attackers = sample::sample_non_stubs(&net, 6, 13);
    let sets: Vec<Vec<AsId>> = attackers.chunks(2).map(|c| c.to_vec()).collect();
    let dests = sample::sample_all(&net, 6, 14);
    let dep = Deployment::empty(net.len());
    let policy = Policy::new(SecurityModel::Security2nd);
    let reference = strategy::metric_collusion(
        &net,
        &sets,
        &dests,
        &dep,
        policy,
        AttackStrategy::FakeLink,
        Parallelism::sequential(),
    );
    for par in parallelisms() {
        let got = strategy::metric_collusion(
            &net,
            &sets,
            &dests,
            &dep,
            policy,
            AttackStrategy::FakeLink,
            par,
        );
        assert_eq!(got.cells, reference.cells, "{par:?}");
        for (g, r) in [
            (got.colluding, reference.colluding),
            (got.best_single, reference.best_single),
            (got.solo, reference.solo),
        ] {
            assert_eq!(g.lower.to_bits(), r.lower.to_bits(), "{par:?}");
            assert_eq!(g.upper.to_bits(), r.upper.to_bits(), "{par:?}");
        }
    }
}
