//! Figures 7, 8, 11 and the §5.3.1 early-adopter comparison: metric
//! improvements along partial-deployment rollouts.
//!
//! Rollouts grow `S` monotonically, so each destination is evaluated as
//! one [`crate::sweep`] pass over `[∅, S_1, S_2, …]`: each attack is
//! computed at the first step and patched incrementally between steps,
//! and the `S = ∅` step doubles as the per-destination baseline. Non-monotone step lists, like the
//! §5.3.1 early-adopter scenarios, are still exact *and* still
//! incremental: the engine serves shrinking and mixed steps through its
//! retraction path, falling back to a full recomputation only on a
//! dirty-region blow-up. Per-run [`SweepStats`] record that split and are
//! surfaced in reports when [`ExperimentConfig::sweep_stats`] is set.

use sbgp_core::{Bounds, CellSet, Deployment, HappyCount, Policy, SecurityModel, SweepStats};
use sbgp_topology::AsId;

use crate::experiments::ExperimentConfig;
use crate::scenario::{self, NamedDeployment};
use crate::{sample, sweep, Internet};

/// One rollout step's measured improvements.
#[derive(Clone, Debug)]
pub struct RolloutPoint {
    /// Step label ("13 T1 + 37 T2 + stubs").
    pub label: String,
    /// Non-stub ASes in `S` (the paper's x-axis).
    pub non_stub_count: usize,
    /// Secure ASes in total.
    pub secure_count: usize,
    /// `H_{M',D}(S) − H_{M',D}(∅)` per model (paper order).
    pub delta: [Bounds; 3],
    /// The same with stubs running simplex S\*BGP (Figure 7's error bars).
    pub delta_simplex: [Bounds; 3],
    /// Figure 7(b): the improvement averaged over secure destinations
    /// `d ∈ S` only.
    pub delta_secure_dest: [Bounds; 3],
}

/// A measured rollout (sequence of steps).
#[derive(Clone, Debug)]
pub struct RolloutResult {
    /// What was rolled out ("Tier 1+2", ...).
    pub name: String,
    /// Destination-set description for reports.
    pub destinations: String,
    /// Steps, in deployment order.
    pub points: Vec<RolloutPoint>,
    /// Merged sweep-engine stats per model (paper order), covering every
    /// sweep this rollout ran (plain, simplex, and secure-destination).
    /// Rendered only under `--sweep-stats`.
    pub stats: [SweepStats; 3],
}

/// Average per-destination improvement of `with` over `baseline`.
fn delta_over_destinations(with: &[HappyCount], baseline: &[HappyCount]) -> Bounds {
    let mut lower = 0.0;
    let mut upper = 0.0;
    let mut n = 0usize;
    for (w, b) in with.iter().zip(baseline) {
        if w.sources == 0 || b.sources == 0 {
            continue;
        }
        let d = w.fraction().minus(b.fraction());
        lower += d.lower;
        upper += d.upper;
        n += 1;
    }
    Bounds {
        lower: lower / n.max(1) as f64,
        upper: upper / n.max(1) as f64,
    }
}

/// A step list prefixed with the `S = ∅` baseline, ready for a sweep.
fn with_baseline(n: usize, deployments: impl IntoIterator<Item = Deployment>) -> Vec<Deployment> {
    let mut deps = vec![Deployment::empty(n)];
    deps.extend(deployments);
    deps
}

/// Evaluate a rollout: for each step and each model, the metric improvement
/// over the baseline for (a) the given destination sample and (b) the
/// step's secure destinations, plus the simplex variant of (a). Each
/// `(m, d, model)` triple is one incremental sweep over `[∅, steps…]`, the
/// `∅` entry serving as that model's baseline (at `S = ∅` all models agree,
/// so this matches the shared-baseline formulation exactly).
pub fn evaluate_rollout(
    net: &Internet,
    cfg: &ExperimentConfig,
    name: &str,
    steps: &[NamedDeployment],
    destinations: &[AsId],
    destinations_label: &str,
) -> RolloutResult {
    let attackers = sample::sample_non_stubs(net, cfg.attackers, cfg.seed);
    let plain = with_baseline(net.len(), steps.iter().map(|s| s.deployment.clone()));
    let simplex = with_baseline(
        net.len(),
        steps
            .iter()
            .map(|s| scenario::simplex_variant(net, s).deployment),
    );
    // Secure destinations per step (sampled for tractability). Their
    // destination set changes with the step, so each step is its own
    // two-point `[∅, S]` sweep.
    let secure_dests: Vec<Vec<AsId>> = steps
        .iter()
        .map(|step| {
            sample::sample_from(
                &scenario::secure_destinations(step),
                cfg.destinations,
                cfg.seed ^ 0x5ec,
            )
        })
        .collect();

    let mut delta = vec![[Bounds::default(); 3]; steps.len()];
    let mut delta_simplex = vec![[Bounds::default(); 3]; steps.len()];
    let mut delta_secure = vec![[Bounds::default(); 3]; steps.len()];
    let mut stats = [SweepStats::default(); 3];
    for (i, model) in SecurityModel::ALL.into_iter().enumerate() {
        // One model per call, so each model's sweep stats stay apart.
        let cells = CellSet::per_policy(&[Policy::new(model)], cfg.strategy);
        let mut by_destination = |dests: &[AsId], deps: &[Deployment]| {
            let (mut counts, s) =
                sweep::metric_by_destination(net, &attackers, dests, deps, &cells, cfg.parallelism);
            stats[i].merge(&s);
            counts.swap_remove(0)
        };
        let counts = by_destination(destinations, &plain);
        let simplex_counts = by_destination(destinations, &simplex);
        for (k, step) in steps.iter().enumerate() {
            delta[k][i] = delta_over_destinations(&counts[k + 1], &counts[0]);
            delta_simplex[k][i] =
                delta_over_destinations(&simplex_counts[k + 1], &simplex_counts[0]);
            let pair = with_baseline(net.len(), [step.deployment.clone()]);
            let secure_counts = by_destination(&secure_dests[k], &pair);
            delta_secure[k][i] = delta_over_destinations(&secure_counts[1], &secure_counts[0]);
        }
    }

    let points = steps
        .iter()
        .enumerate()
        .map(|(k, step)| RolloutPoint {
            label: step.label.clone(),
            non_stub_count: step.non_stub_count,
            secure_count: step.deployment.secure_count(),
            delta: delta[k],
            delta_simplex: delta_simplex[k],
            delta_secure_dest: delta_secure[k],
        })
        .collect();
    RolloutResult {
        name: name.to_string(),
        destinations: destinations_label.to_string(),
        points,
        stats,
    }
}

/// Figure 7: the Tier 1+2 rollout over all destinations.
pub fn figure7(net: &Internet, cfg: &ExperimentConfig) -> RolloutResult {
    let destinations = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    evaluate_rollout(
        net,
        cfg,
        "Tier 1+2 rollout",
        &scenario::tier12_rollout(net),
        &destinations,
        "all destinations (sampled)",
    )
}

/// Figure 8: the Tier 1+2+CP rollout, metric over CP destinations only.
pub fn figure8(net: &Internet, cfg: &ExperimentConfig) -> RolloutResult {
    evaluate_rollout(
        net,
        cfg,
        "Tier 1+2+CP rollout",
        &scenario::tier12_cp_rollout(net),
        &net.content_providers.clone(),
        "the 17 content providers",
    )
}

/// Figure 11: the Tier-2-only rollout over all destinations.
pub fn figure11(net: &Internet, cfg: &ExperimentConfig) -> RolloutResult {
    let destinations = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    evaluate_rollout(
        net,
        cfg,
        "Tier 2 rollout",
        &scenario::tier2_rollout(net),
        &destinations,
        "all destinations (sampled)",
    )
}

/// §5.2.4's final scenario: secure all non-stubs (a single step).
pub fn non_stub_scenario(net: &Internet, cfg: &ExperimentConfig) -> RolloutResult {
    let destinations = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    evaluate_rollout(
        net,
        cfg,
        "All non-stubs",
        &[scenario::all_non_stubs(net)],
        &destinations,
        "all destinations (sampled)",
    )
}

/// §5.3.1: early-adopter scenarios compared by their average improvement
/// over **secure destinations** (the paper's `H_{M',d}(S) − H_{M',d}(∅)`
/// averaged over `d ∈ S`).
pub fn early_adopters(net: &Internet, cfg: &ExperimentConfig) -> RolloutResult {
    let steps = vec![
        scenario::tier1_and_stubs(net),
        scenario::tier1_stubs_and_cps(net),
        scenario::top_tier2_and_stubs(net, 13),
    ];
    // The destination sample here is unused by the secure-destination
    // column but keeps the shared shape; use the CPs for economy.
    evaluate_rollout(
        net,
        cfg,
        "Early adopters (§5.3.1)",
        &steps,
        &net.content_providers.clone(),
        "CP destinations",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Internet {
        Internet::synthetic(1_200, 23)
    }

    #[test]
    fn figure7_orderings_hold() {
        let net = net();
        let r = figure7(&net, &ExperimentConfig::small(1));
        assert_eq!(r.points.len(), 3);
        let last = r.points.last().unwrap();
        // Security 1st gains the most; security 3rd the least (paper's
        // main ordering), comparing midpoints to avoid bound noise.
        let mid = |b: Bounds| b.mid();
        assert!(
            mid(last.delta[0]) >= mid(last.delta[2]) - 1e-9,
            "sec1 {:?} < sec3 {:?}",
            last.delta[0],
            last.delta[2]
        );
        // Improvements are nonnegative for security 3rd (monotone model).
        for p in &r.points {
            assert!(p.delta[2].lower >= -1e-9, "{}: {:?}", p.label, p.delta[2]);
        }
        // The rollout grows.
        assert!(r.points[0].secure_count < r.points[2].secure_count);
    }

    #[test]
    fn simplex_variant_changes_little() {
        // §5.3.2: simplex S*BGP at stubs barely moves the metric.
        let net = net();
        let r = figure7(&net, &ExperimentConfig::small(2));
        for p in &r.points {
            for i in 0..3 {
                let gap = (p.delta[i].mid() - p.delta_simplex[i].mid()).abs();
                assert!(
                    gap < 0.1,
                    "{} model {i}: full {:?} vs simplex {:?}",
                    p.label,
                    p.delta[i],
                    p.delta_simplex[i]
                );
            }
        }
    }

    #[test]
    fn early_adopter_table_has_three_rows() {
        let net = net();
        let r = early_adopters(&net, &ExperimentConfig::small(3));
        assert_eq!(r.points.len(), 3);
    }

    #[test]
    fn rollout_surfaces_sweep_stats() {
        let net = net();
        let r = figure7(&net, &ExperimentConfig::small(4));
        for (i, s) in r.stats.iter().enumerate() {
            assert!(s.steps() > 0, "model {i}: {s:?}");
            assert_eq!(
                s.monotone_steps + s.retracting_steps + s.mixed_steps,
                s.incremental_steps,
                "model {i}: {s:?}"
            );
            assert!(s.fallback_rate() <= 1.0, "model {i}: {s:?}");
        }
    }
}
