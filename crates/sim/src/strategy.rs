//! Strategic attackers: per-pair optimal-strategy ladders and colluding
//! announcer sets.
//!
//! The paper fixes the attacker's announcement to the one-hop `"m, d"`
//! fake link, but inherits from Goldberg et al.'s taxonomy (\[22\]) that
//! this is neither the only nor always the optimal strategy. The runners
//! here quantify that choice on the same metric:
//!
//! * [`metric_strategy_ladder`] — for every `(m, d)` pair, evaluate a
//!   ladder of strategies (by default [`AttackStrategy::LADDER`]: forged
//!   paths of claimed distance 0..=3) and report, besides each rung's
//!   average metric, the metric under the **per-pair damage-maximizing
//!   choice** — the strategy a strategic attacker would actually pick —
//!   and how often each rung wins.
//! * [`metric_collusion`] — for small sets of colluding announcers,
//!   compare the metric under simultaneous announcement against the
//!   strongest single member, exposing the *collusion dividend*.
//!
//! Both run destination-major through the crate's one reduction
//! ([`crate::runner::map_reduce`]), so results are bit-identical at any
//! thread count. The ladder folds the integer happy counts of the shared
//! ladder kernel, [`LadderCellsEval`] (the same kernel behind the
//! estimated ladder): the (policy × rung) grid is one
//! [`sbgp_core::CellSet`] deduped
//! through [`AttackStrategy::canonical`] (so the `path1`/fake-link and
//! `path0`/hijack spellings can never run the same cell twice), every
//! attack serves all policies' whole ladders from one fused pass, and
//! duplicate rungs report their shared lane's value — with ties still
//! going to the earlier input rung, win attribution is unchanged.
//! [`metric_collusion`] runs a plain [`Engine`] (one cell per call, and
//! the set-aware source count).

use sbgp_core::metric::MetricAccumulator;
use sbgp_core::{AttackScenario, AttackStrategy, Bounds, Deployment, Engine, HappyCount, Policy};
use sbgp_topology::AsId;

use crate::runner::{map_reduce, Parallelism};
use crate::stats::{CellEval, LadderCellsEval};
use crate::{sample, Internet};

/// Ladder evaluation over a pair sample (see [`metric_strategy_ladder`]).
#[derive(Clone, Debug)]
pub struct LadderResult {
    /// The evaluated rungs, in ladder order.
    pub rungs: Vec<AttackStrategy>,
    /// `H_{M,D}(S)` with every attacker fixed to the corresponding rung.
    pub per_rung: Vec<Bounds>,
    /// `H_{M,D}(S)` when every pair uses its damage-maximizing rung: the
    /// happy-count-minimizing strategy, compared lexicographically on
    /// `(lower, upper)` with ties going to the earlier (shorter) rung.
    pub optimal: Bounds,
    /// How many pairs each rung won under that rule (sums to `pairs`).
    pub wins: Vec<usize>,
    /// Pairs evaluated.
    pub pairs: usize,
}

/// Per-group ladder accumulator of one policy (merged in group order).
#[derive(Clone)]
struct LadderAcc {
    per_rung: Vec<MetricAccumulator>,
    optimal: MetricAccumulator,
    wins: Vec<usize>,
}

/// Evaluate `rungs` for every `(m, d)` pair under one deployment, for every
/// policy of `policies`: the per-rung metrics, the per-pair optimal metric,
/// and the win counts, one [`LadderResult`] per input policy.
///
/// # Panics
///
/// Panics when `rungs` is empty.
pub fn metric_strategy_ladder(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policies: &[Policy],
    rungs: &[AttackStrategy],
    par: Parallelism,
) -> Vec<LadderResult> {
    assert!(
        !rungs.is_empty(),
        "the strategy ladder needs at least one rung"
    );
    let nr = rungs.len();
    let eval = LadderCellsEval::new(net, deployment, policies, rungs);
    let groups = sample::group_by_destination(pairs);
    let empty = LadderAcc {
        per_rung: vec![MetricAccumulator::default(); nr],
        optimal: MetricAccumulator::default(),
        wins: vec![0; nr],
    };
    let accs = map_reduce(
        par,
        &groups,
        || eval.make_worker(),
        || vec![empty.clone(); policies.len()],
        |fused, acc, (d, attackers)| {
            eval.begin(fused, *d);
            for &m in attackers {
                if m == *d {
                    continue;
                }
                // Each policy's rungs arrive in order, then its optimum:
                // the winner is the first rung reaching the minimum.
                let mut best = (usize::MAX, usize::MAX, 0);
                eval.eval_counts(fused, m, |p, r, count| {
                    if r < nr {
                        acc[p].per_rung[r].add(count);
                        if (count.lower, count.upper) < (best.0, best.1) {
                            best = (count.lower, count.upper, r);
                        }
                    } else {
                        acc[p].optimal.add(count);
                        acc[p].wins[best.2] += 1;
                        best = (usize::MAX, usize::MAX, 0);
                    }
                });
            }
        },
        |a, b| {
            for (a, b) in a.iter_mut().zip(b) {
                for (x, y) in a.per_rung.iter_mut().zip(b.per_rung) {
                    x.merge(y);
                }
                a.optimal.merge(b.optimal);
                for (x, y) in a.wins.iter_mut().zip(b.wins) {
                    *x += y;
                }
            }
        },
    )
    .unwrap();
    accs.into_iter()
        .map(|acc| LadderResult {
            rungs: rungs.to_vec(),
            per_rung: acc.per_rung.iter().map(|a| a.value()).collect(),
            optimal: acc.optimal.value(),
            wins: acc.wins,
            pairs: acc.optimal.pairs(),
        })
        .collect()
}

/// Collusion evaluation over announcer sets (see [`metric_collusion`]).
#[derive(Clone, Copy, Debug)]
pub struct CollusionResult {
    /// `(set, d)` cells evaluated. A cell is skipped when fewer than two
    /// distinct members survive after deduplication and removing the
    /// destination, so every counted cell is genuinely colluding.
    pub cells: usize,
    /// Average happy fraction with the whole set announcing at once
    /// (per the set-aware counting rule, sources = `n − 1 − |set|`).
    pub colluding: Bounds,
    /// Average happy fraction under each cell's strongest single member
    /// (the damage-maximizing solo choice; sources = `n − 2`).
    pub best_single: Bounds,
    /// Average happy fraction over *all* single-member attacks.
    pub solo: Bounds,
}

/// Compare colluding announcer `sets` against their members attacking
/// alone, averaged over `destinations`, with every announcement using
/// `strategy`.
pub fn metric_collusion(
    net: &Internet,
    sets: &[Vec<AsId>],
    destinations: &[AsId],
    deployment: &Deployment,
    policy: Policy,
    strategy: AttackStrategy,
    par: Parallelism,
) -> CollusionResult {
    let n = net.graph.len();
    let acc = map_reduce(
        par,
        destinations,
        || Engine::new(&net.graph),
        || {
            (
                MetricAccumulator::default(), // colluding
                MetricAccumulator::default(), // best single
                MetricAccumulator::default(), // all solos
            )
        },
        |engine, acc, &d| {
            for set in sets {
                let members = AttackScenario::filter_announcers(set, d);
                if members.len() < 2 {
                    continue;
                }
                let mut best = (usize::MAX, usize::MAX);
                for &m in &members {
                    let scenario = AttackScenario::attack(m, d).with_strategy(strategy);
                    let (lower, upper) = engine.compute(scenario, deployment, policy).count_happy();
                    acc.2.add(HappyCount {
                        lower,
                        upper,
                        sources: n - 2,
                    });
                    best = best.min((lower, upper));
                }
                acc.1.add(HappyCount {
                    lower: best.0,
                    upper: best.1,
                    sources: n - 2,
                });
                let scenario = AttackScenario::colluding(&members, d).with_strategy(strategy);
                let (lower, upper) = engine.compute(scenario, deployment, policy).count_happy();
                acc.0.add(HappyCount {
                    lower,
                    upper,
                    sources: n - 1 - members.len(),
                });
            }
        },
        |a, b| {
            a.0.merge(b.0);
            a.1.merge(b.1);
            a.2.merge(b.2);
        },
    )
    .unwrap();
    CollusionResult {
        cells: acc.0.pairs(),
        colluding: acc.0.value(),
        best_single: acc.1.value(),
        solo: acc.2.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_core::{CellSet, Engine, SecurityModel};

    fn net() -> Internet {
        Internet::synthetic(600, 5)
    }

    #[test]
    fn ladder_optimal_dominates_every_rung() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 4, 1);
        let dests = sample::sample_all(&net, 6, 2);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        let policies = SecurityModel::ALL.map(Policy::new);
        let ladders = metric_strategy_ladder(
            &net,
            &pairs,
            &dep,
            &policies,
            &AttackStrategy::LADDER,
            Parallelism(2),
        );
        for (r, model) in ladders.iter().zip(SecurityModel::ALL) {
            assert_eq!(r.pairs, pairs.len());
            assert_eq!(r.wins.iter().sum::<usize>(), r.pairs, "{model}");
            // The optimal choice is at least as damaging as every fixed
            // rung (it minimizes happy counts pair by pair).
            for (k, rung) in r.per_rung.iter().enumerate() {
                assert!(
                    r.optimal.lower <= rung.lower + 1e-12,
                    "{model} rung {k}: optimal {:?} vs {:?}",
                    r.optimal,
                    rung
                );
            }
        }
    }

    #[test]
    fn ladder_rung_matches_fixed_strategy_runner() {
        // Each rung's column is exactly the fixed-strategy metric.
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 3, 3);
        let dests = sample::sample_all(&net, 5, 4);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security3rd);
        let r = &metric_strategy_ladder(
            &net,
            &pairs,
            &dep,
            &[policy],
            &AttackStrategy::LADDER,
            Parallelism(2),
        )[0];
        for (k, &rung) in r.rungs.iter().enumerate() {
            let cells = CellSet::per_policy(&[policy], rung);
            let (fixed, _) = crate::sweep::metric(
                &net,
                &pairs,
                std::slice::from_ref(&dep),
                &cells,
                Parallelism(2),
            );
            assert_eq!(r.per_rung[k], fixed[0][0].value(), "rung {k}");
        }
    }

    #[test]
    fn collusion_is_at_least_as_damaging_per_cell() {
        // Verify the colluding outcome against fresh computes on a few
        // cells, and the aggregate shape of the result.
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 4, 7);
        let sets: Vec<Vec<AsId>> = attackers.chunks(2).map(|c| c.to_vec()).collect();
        let dests = sample::sample_all(&net, 4, 8);
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security3rd);
        let r = metric_collusion(
            &net,
            &sets,
            &dests,
            &dep,
            policy,
            AttackStrategy::FakeLink,
            Parallelism(2),
        );
        assert!(r.cells > 0);
        assert!(r.best_single.lower <= r.solo.lower + 1e-12, "min ≤ mean");
        // Spot-check one cell against the engine directly, with the
        // set-aware source count.
        let d = dests[0];
        let members: Vec<AsId> = sets[0].iter().copied().filter(|&m| m != d).collect();
        if members.len() == 2 {
            let one = metric_collusion(
                &net,
                &sets[..1],
                &[d],
                &dep,
                policy,
                AttackStrategy::FakeLink,
                Parallelism(1),
            );
            let mut engine = Engine::new(&net.graph);
            let scenario = sbgp_core::AttackScenario::colluding(&members, d);
            let (lower, upper) = engine.compute(scenario, &dep, policy).count_happy();
            let want = HappyCount {
                lower,
                upper,
                sources: net.len() - 1 - members.len(),
            };
            assert_eq!(one.colluding, want.fraction());
        }
    }
}
