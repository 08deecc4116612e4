//! §4.2 — how much security origin authentication alone already provides.
//!
//! The paper computes a lower bound on `H_{V,V}(∅)` — the average happy
//! fraction when *no* AS runs S\*BGP and the attacker announces `"m, d"` —
//! and finds ≥ 60% on the UCLA graph (≥ 62% IXP-augmented): origin
//! authentication already blunts the attack for most sources because the
//! bogus path is one hop longer than the truth.

use sbgp_core::{Bounds, CellSet, Deployment, Policy, SecurityModel};

use crate::experiments::ExperimentConfig;
use crate::{sample, sweep, Internet};

/// The baseline metric and the sample sizes it was estimated from.
#[derive(Clone, Copy, Debug)]
pub struct BaselineResult {
    /// `H_{V,V}(∅)` bounds.
    pub metric: Bounds,
    /// Standard error of the sampled means.
    pub stderr: Bounds,
    /// Number of attacker–destination pairs evaluated.
    pub pairs: usize,
}

/// Estimate `H_{V,V}(∅)`.
///
/// Rides the destination-major [`sweep::metric`] driver: every sampled
/// pair is one fused attack.
pub fn baseline_metric(net: &Internet, cfg: &ExperimentConfig) -> BaselineResult {
    let attackers = sample::sample_all(net, cfg.attackers, cfg.seed);
    let destinations = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    let pairs = sample::pairs(&attackers, &destinations);
    // With S = ∅ all three models coincide (no route is secure).
    let cells = CellSet::per_policy(&[Policy::new(SecurityModel::Security3rd)], cfg.strategy);
    let (accs, _) = sweep::metric(
        net,
        &pairs,
        &[Deployment::empty(net.len())],
        &cells,
        cfg.parallelism,
    );
    BaselineResult {
        metric: accs[0][0].value(),
        stderr: accs[0][0].stderr(),
        pairs: pairs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_papers_order_of_magnitude() {
        // §4.2: "more than half of the AS graph is already happy before
        // S*BGP is deployed".
        let net = Internet::synthetic(1_500, 7);
        let r = baseline_metric(&net, &ExperimentConfig::small(1));
        assert!(r.pairs > 0);
        assert!(
            r.metric.lower > 0.5,
            "baseline lower bound too low: {}",
            r.metric
        );
        assert!(r.metric.upper <= 1.0 + 1e-12);
    }

    #[test]
    fn all_models_agree_at_the_baseline() {
        let net = Internet::synthetic(800, 3);
        let cfg = ExperimentConfig::small(2);
        let attackers = sample::sample_all(&net, cfg.attackers, cfg.seed);
        let destinations = sample::sample_all(&net, cfg.destinations, cfg.seed ^ 0xD);
        let pairs = sample::pairs(&attackers, &destinations);
        let cells = CellSet::per_policy(&SecurityModel::ALL.map(Policy::new), cfg.strategy);
        let dep = [Deployment::empty(net.len())];
        let (accs, _) = sweep::metric(&net, &pairs, &dep, &cells, cfg.parallelism);
        let vals: Vec<Bounds> = accs.iter().map(|a| a[0].value()).collect();
        for w in vals.windows(2) {
            assert!((w[0].lower - w[1].lower).abs() < 1e-12);
            assert!((w[0].upper - w[1].upper).abs() < 1e-12);
        }
    }
}
