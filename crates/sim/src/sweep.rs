//! The explicit-pair metric drivers: `H_{M,D}(S_k)` over a caller-chosen
//! pair sample (or attacker × destination grid), for every policy cell of a
//! [`CellSet`] along a sequence of deployments. A one-deployment call is
//! the plain metric `H_{M,D}(S)`; the figure drivers use nothing else.
//!
//! Both drivers evaluate destination-major through the crate's one
//! per-pair kernel, [`SweepCellsEval`]. For every claimed destination a
//! worker iterates `for m (one fused attack serving every lane's first
//! step) → for S_k (each lane's sweep along the remaining steps)`:
//!
//! * the [`sbgp_core::FusedDeltaEngine`] computes each pair's **first
//!   step** for every lane at once, collapsing identical lanes;
//! * a per-lane [`sbgp_core::SweepEngine`] adopts that outcome, and the
//!   remaining steps ride the deployment axis, whose dirty regions are
//!   tiny (~4% of AS-steps) because the bogus announcement's spread is
//!   *shared* between consecutive steps instead of being recomputed per
//!   step.
//!
//! This ordering keeps the cheaper axis innermost; the transposed
//! `for S_k → for m` order would recompute every attack at every step.
//! Sequences may churn in any direction — grow,
//! shrink, or both per step — and still ride the deployment axis
//! incrementally; only a dirty-region blow-up falls back to a full
//! recomputation, and both drivers return the merged [`SweepStats`]
//! (fallback rate, refixed fraction, step directions) so that cost is
//! observable instead of silent.
//!
//! Every `(cell, step)` result is bit-identical to a fresh computation of
//! that cell at that step folded in the same order: the per-outcome
//! version of this claim is pinned by the sweep- and fused-equivalence
//! property suites, and the fold order is fixed by
//! [`crate::runner::map_reduce`].

use sbgp_core::metric::MetricAccumulator;
use sbgp_core::{CellSet, Deployment, HappyCount, SweepEngine, SweepStats};
use sbgp_topology::AsId;

use crate::runner::{map_reduce, Parallelism};
use crate::stats::{CellEval, SweepCellsEval};
use crate::{sample, Internet};

/// Serve one destination: anchor the kernel on `d`, run every attacker
/// `m ≠ d` through it (self-attacks are outside the paper's metric), and
/// add the lanes' sweep-counter deltas to `stats`.
fn serve_destination<'a>(
    eval: &SweepCellsEval<'a>,
    w: &mut <SweepCellsEval<'a> as CellEval>::Worker,
    stats: &mut SweepStats,
    d: AsId,
    attackers: &[AsId],
    mut record: impl FnMut(usize, usize, HappyCount),
) {
    let before: Vec<SweepStats> = w.1.iter().map(SweepEngine::stats).collect();
    eval.begin(w, d);
    for &m in attackers {
        if m != d {
            eval.eval_counts(w, m, d, &mut record);
        }
    }
    for (sweep, before) in w.1.iter().zip(&before) {
        stats.merge(&sweep.stats().delta_since(before));
    }
}

/// `H_{M,D}(S_k)` over explicit pairs for every input cell `c` of `cells`
/// and every deployment `S_k`: `accs[c][k]` (read
/// [`MetricAccumulator::value`] and [`MetricAccumulator::stderr`]), plus
/// the merged [`SweepStats`] of every lane's sweep engine.
///
/// Pairs are grouped by destination ([`sample::group_by_destination`]);
/// each group folds its pairs in `(attacker, step)` order and groups merge
/// in group order, so the accumulators are bit-identical at any
/// [`Parallelism`], and so are the stats (sums of per-group counter
/// deltas). A cell's column does not depend on the other cells it shares
/// the pass with.
pub fn metric(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployments: &[Deployment],
    cells: &CellSet,
    par: Parallelism,
) -> (Vec<Vec<MetricAccumulator>>, SweepStats) {
    if deployments.is_empty() {
        return (vec![Vec::new(); cells.input_len()], SweepStats::default());
    }
    let eval = SweepCellsEval::with_cells(net, deployments, cells.clone());
    let groups = sample::group_by_destination(pairs);
    map_reduce(
        par,
        &groups,
        || eval.make_worker(),
        || {
            (
                vec![vec![MetricAccumulator::default(); deployments.len()]; cells.input_len()],
                SweepStats::default(),
            )
        },
        |w, (acc, stats), (d, attackers)| {
            serve_destination(&eval, w, stats, *d, attackers, |c, k, count| {
                acc[c][k].add(count)
            });
        },
        |(a, s), (b, t)| {
            for (xs, ys) in a.iter_mut().zip(b) {
                for (x, y) in xs.iter_mut().zip(ys) {
                    x.merge(y);
                }
            }
            s.merge(&t);
        },
    )
    .unwrap()
}

/// Per-destination happy counts, summed over `attackers`, for every input
/// cell `c` of `cells` and every deployment `S_k`: `counts[c][k][i]` is
/// `destinations[i]` (the per-destination sequences of Figures 7(b), 9,
/// 10 and 12), plus the merged [`SweepStats`]. Counts and stats are both
/// bit-identical at any [`Parallelism`].
pub fn metric_by_destination(
    net: &Internet,
    attackers: &[AsId],
    destinations: &[AsId],
    deployments: &[Deployment],
    cells: &CellSet,
    par: Parallelism,
) -> (Vec<Vec<Vec<HappyCount>>>, SweepStats) {
    if deployments.is_empty() {
        return (vec![Vec::new(); cells.input_len()], SweepStats::default());
    }
    let eval = SweepCellsEval::with_cells(net, deployments, cells.clone());
    let shape = || vec![vec![Vec::new(); deployments.len()]; cells.input_len()];
    map_reduce(
        par,
        destinations,
        || eval.make_worker(),
        || (shape(), SweepStats::default()),
        |w, (acc, stats), &d| {
            let mut sums = vec![vec![HappyCount::default(); deployments.len()]; cells.input_len()];
            serve_destination(&eval, w, stats, d, attackers, |c, k, count| {
                sums[c][k] += count
            });
            for (row, sums) in acc.iter_mut().zip(sums) {
                for (col, sum) in row.iter_mut().zip(sums) {
                    col.push(sum);
                }
            }
        },
        |(a, s), (b, t)| {
            for (xs, ys) in a.iter_mut().zip(b) {
                for (x, y) in xs.iter_mut().zip(ys) {
                    x.extend(y);
                }
            }
            s.merge(&t);
        },
    )
    .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample, scenario};
    use sbgp_core::{AttackScenario, AttackStrategy, Bounds, Engine, Policy, SecurityModel};

    fn net() -> Internet {
        Internet::synthetic(600, 5)
    }

    /// A small monotone sweep: ∅ plus two growing Tier 1+2 steps.
    fn deployments(net: &Internet) -> Vec<Deployment> {
        let mut deps = vec![Deployment::empty(net.len())];
        deps.push(scenario::tier12_step(net, 3, 5).deployment);
        deps.push(scenario::tier12_step(net, 3, 20).deployment);
        deps
    }

    fn one(policy: Policy, strategy: AttackStrategy) -> CellSet {
        CellSet::per_policy(&[policy], strategy)
    }

    /// Per-step values of a single-cell [`metric`] call.
    fn values(
        net: &Internet,
        pairs: &[(AsId, AsId)],
        deps: &[Deployment],
        policy: Policy,
        strategy: AttackStrategy,
        par: Parallelism,
    ) -> Vec<Bounds> {
        let (accs, _) = metric(net, pairs, deps, &one(policy, strategy), par);
        accs[0].iter().map(MetricAccumulator::value).collect()
    }

    /// The metric from a fresh `Engine::compute` per pair, folded in the
    /// drivers' (group, attacker) order.
    fn oracle(
        net: &Internet,
        pairs: &[(AsId, AsId)],
        dep: &Deployment,
        policy: Policy,
        strategy: AttackStrategy,
    ) -> Bounds {
        let mut engine = Engine::new(&net.graph);
        let mut total = MetricAccumulator::default();
        for (d, attackers) in sample::group_by_destination(pairs) {
            let mut acc = MetricAccumulator::default();
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

    #[test]
    fn sweep_metric_equals_per_step_metric() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 4, 1);
        let dests = sample::sample_all(&net, 6, 2);
        let pairs = sample::pairs(&attackers, &dests);
        let deps = deployments(&net);
        let fake_link = AttackStrategy::FakeLink;
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let swept = values(&net, &pairs, &deps, policy, fake_link, Parallelism(2));
            assert_eq!(swept.len(), deps.len());
            for (k, dep) in deps.iter().enumerate() {
                // Bit-identical, not approximately equal: every path adds
                // the same per-pair fractions in the same (group, attacker)
                // order, whatever serves the outcomes.
                let single = std::slice::from_ref(dep);
                let fresh = values(&net, &pairs, single, policy, fake_link, Parallelism(2));
                assert_eq!(swept[k], fresh[0], "{model} step {k}");
                assert_eq!(
                    swept[k],
                    oracle(&net, &pairs, dep, policy, fake_link),
                    "{model} step {k} vs fresh computes"
                );
            }
        }
    }

    #[test]
    fn sweep_by_destination_equals_per_step_runs() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 7);
        let dests = sample::sample_all(&net, 5, 8);
        let deps = deployments(&net);
        let (policy, fake_link) = (
            Policy::new(SecurityModel::Security2nd),
            AttackStrategy::FakeLink,
        );
        let cells = one(policy, fake_link);
        let (swept, _) =
            metric_by_destination(&net, &attackers, &dests, &deps, &cells, Parallelism(2));
        assert_eq!(swept[0].len(), deps.len());
        for (k, dep) in deps.iter().enumerate() {
            let (fresh, _) = metric_by_destination(
                &net,
                &attackers,
                &dests,
                std::slice::from_ref(dep),
                &cells,
                Parallelism(2),
            );
            assert_eq!(swept[0][k], fresh[0][0], "step {k}");
            // A destination's summed count is the metric over its pairs.
            let pairs: Vec<(AsId, AsId)> = attackers.iter().map(|&m| (m, dests[0])).collect();
            let direct = values(
                &net,
                &pairs,
                std::slice::from_ref(dep),
                policy,
                fake_link,
                Parallelism(1),
            );
            let f = swept[0][k][0].fraction();
            assert!((f.lower - direct[0].lower).abs() < 1e-12, "step {k}");
            assert!((f.upper - direct[0].upper).abs() < 1e-12, "step {k}");
        }
    }

    #[test]
    fn sweep_honors_the_attack_strategy() {
        // A k-hop forged path changes the swept metric versus the fake
        // link (longer claimed paths attract less), and the swept result
        // still matches fresh computes under the same strategy.
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 5);
        let dests = sample::sample_all(&net, 4, 6);
        let pairs = sample::pairs(&attackers, &dests);
        let deps = deployments(&net);
        let policy = Policy::new(SecurityModel::Security3rd);
        let forged = AttackStrategy::FakePath { hops: 3 };
        let swept = values(&net, &pairs, &deps, policy, forged, Parallelism(2));
        for (k, dep) in deps.iter().enumerate() {
            assert_eq!(
                swept[k],
                oracle(&net, &pairs, dep, policy, forged),
                "step {k}"
            );
        }
        let fake_link = values(
            &net,
            &pairs,
            &deps,
            policy,
            AttackStrategy::FakeLink,
            Parallelism(2),
        );
        assert!(
            swept[0].lower >= fake_link[0].lower - 1e-12,
            "a 3-hop forged path cannot attract more than the fake link: \
             {:?} vs {:?}",
            swept[0],
            fake_link[0]
        );
    }

    #[test]
    fn churn_metric_equals_per_step_metric_and_reports_stats() {
        // A wax-and-wane trajectory: the wane half is pure retractions,
        // and the merged stats must show them served incrementally.
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 11);
        let dests = sample::sample_all(&net, 4, 12);
        let pairs = sample::pairs(&attackers, &dests);
        let traj = scenario::churn_trajectory(&net, 3);
        assert_eq!(traj.len(), 5);
        let policy = Policy::new(SecurityModel::Security2nd);
        let cells = one(policy, AttackStrategy::FakeLink);
        let (accs, stats) = metric(&net, &pairs, &traj, &cells, Parallelism(2));
        let churned: Vec<Bounds> = accs[0].iter().map(MetricAccumulator::value).collect();
        for (k, dep) in traj.iter().enumerate() {
            let fresh = oracle(&net, &pairs, dep, policy, AttackStrategy::FakeLink);
            assert_eq!(churned[k], fresh, "step {k}");
        }
        // Wax-and-wane symmetry: step k and its mirror see the same S.
        assert_eq!(churned[0], churned[4]);
        assert_eq!(churned[1], churned[3]);
        assert!(stats.retracting_steps > 0, "{stats:?}");
        assert!(stats.monotone_steps > 0, "{stats:?}");
        assert_eq!(
            stats.monotone_steps + stats.retracting_steps + stats.mixed_steps,
            stats.incremental_steps,
            "{stats:?}"
        );
        assert!(stats.fallback_rate() < 1.0, "{stats:?}");
        assert!(stats.refixed_fraction(net.len()) <= 1.0, "{stats:?}");
    }

    #[test]
    fn churn_stats_are_parallelism_invariant() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 21);
        let dests = sample::sample_all(&net, 5, 22);
        let pairs = sample::pairs(&attackers, &dests);
        let traj = scenario::churn_trajectory(&net, 2);
        let cells = one(
            Policy::new(SecurityModel::Security3rd),
            AttackStrategy::FakeLink,
        );
        let runs: Vec<_> = [Parallelism(1), Parallelism(2), Parallelism::auto()]
            .into_iter()
            .map(|par| {
                let (accs, stats) = metric(&net, &pairs, &traj, &cells, par);
                let values: Vec<Bounds> = accs[0].iter().map(MetricAccumulator::value).collect();
                (values, stats)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        let by_dest = |par| metric_by_destination(&net, &attackers, &dests, &traj, &cells, par);
        assert_eq!(by_dest(Parallelism(2)), by_dest(Parallelism(1)));
    }

    #[test]
    fn sweep_handles_empty_and_singleton_sequences() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 2, 3);
        let dests = sample::sample_all(&net, 3, 4);
        let pairs = sample::pairs(&attackers, &dests);
        let policy = Policy::new(SecurityModel::Security3rd);
        let fake_link = AttackStrategy::FakeLink;
        assert!(values(&net, &pairs, &[], policy, fake_link, Parallelism(1)).is_empty());
        let (counts, stats) = metric_by_destination(
            &net,
            &attackers,
            &dests,
            &[],
            &one(policy, fake_link),
            Parallelism(1),
        );
        assert_eq!(counts, vec![Vec::<Vec<HappyCount>>::new()]);
        assert_eq!(stats, SweepStats::default());
        let single = vec![Deployment::empty(net.len())];
        let swept = values(&net, &pairs, &single, policy, fake_link, Parallelism(1));
        let fresh = oracle(&net, &pairs, &single[0], policy, fake_link);
        assert_eq!(swept, vec![fresh]);
    }
}
