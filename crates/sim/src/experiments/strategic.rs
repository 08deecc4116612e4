//! The strategic-attacker tables: optimal-strategy ladders per security
//! model and deployment, plus the colluding-pair comparison.
//!
//! These extend the paper's fixed `"m, d"` threat model along Goldberg et
//! al.'s taxonomy (\[22\]): a strategic attacker picks, per `(m, d)` cell,
//! the forged-path length that maximizes damage, and colluding announcers
//! flood simultaneously. Rendered by the `table_strategy_ladder` binary.

use sbgp_core::{AttackStrategy, Deployment, Policy, SecurityModel};
use sbgp_topology::AsId;

use crate::experiments::ExperimentConfig;
use crate::strategy::{self, CollusionResult, LadderResult};
use crate::{sample, scenario, Internet};

/// One deployment's ladder table: a [`LadderResult`] per security model.
#[derive(Clone, Debug)]
pub struct LadderExperiment {
    /// Deployment label for the report.
    pub deployment_label: String,
    /// One `(model, result)` row per model, paper order.
    pub rows: Vec<(SecurityModel, LadderResult)>,
}

/// Evaluate [`AttackStrategy::LADDER`] for every model under `S = ∅` and
/// under the §5.2.1 Tier 1+2 deployment (same sampling as the RPKI-value
/// ladder, so the tables are comparable).
pub fn ladder(net: &Internet, cfg: &ExperimentConfig) -> Vec<LadderExperiment> {
    let attackers = sample::sample_non_stubs(net, cfg.attackers, cfg.seed);
    let dests = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    let pairs = sample::pairs(&attackers, &dests);
    let step = scenario::tier12_step(net, 13, 100);
    let deployments = [
        ("S = ∅".to_string(), Deployment::empty(net.len())),
        (step.label.clone(), step.deployment.clone()),
    ];
    deployments
        .into_iter()
        .map(|(deployment_label, deployment)| LadderExperiment {
            deployment_label,
            rows: SecurityModel::ALL
                .into_iter()
                .zip(strategy::metric_strategy_ladder(
                    net,
                    &pairs,
                    &deployment,
                    &SecurityModel::ALL.map(Policy::new),
                    &AttackStrategy::LADDER,
                    cfg.parallelism,
                ))
                .collect(),
        })
        .collect()
}

/// The colluding-pair table: consecutive pairs from the attacker sample
/// announce together, per security model.
#[derive(Clone, Debug)]
pub struct CollusionExperiment {
    /// Deployment label for the report.
    pub deployment_label: String,
    /// Announcer pairs evaluated per destination.
    pub sets: usize,
    /// One `(model, result)` row per model, paper order.
    pub rows: Vec<(SecurityModel, CollusionResult)>,
}

/// Compare colluding pairs against their strongest single member under the
/// Tier 1+2 deployment, using the configured announcement strategy.
pub fn collusion(net: &Internet, cfg: &ExperimentConfig) -> CollusionExperiment {
    let attackers = sample::sample_non_stubs(net, cfg.attackers, cfg.seed);
    let sets: Vec<Vec<AsId>> = attackers
        .chunks(2)
        .filter(|c| c.len() == 2)
        .map(|c| c.to_vec())
        .collect();
    let dests = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    let step = scenario::tier12_step(net, 13, 100);
    CollusionExperiment {
        deployment_label: step.label.clone(),
        sets: sets.len(),
        rows: SecurityModel::ALL
            .into_iter()
            .map(|model| {
                (
                    model,
                    strategy::metric_collusion(
                        net,
                        &sets,
                        &dests,
                        &step.deployment,
                        Policy::new(model),
                        cfg.strategy,
                        cfg.parallelism,
                    ),
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_experiment_shape() {
        let net = Internet::synthetic(500, 41);
        let exps = ladder(&net, &ExperimentConfig::small(1));
        assert_eq!(exps.len(), 2, "∅ and the T1+T2 step");
        for exp in &exps {
            assert_eq!(exp.rows.len(), 3);
            for (model, r) in &exp.rows {
                assert_eq!(r.rungs.len(), 4, "{model}");
                assert!(r.pairs > 0, "{model}");
                // The fake-link rung is the paper's scenario: its metric
                // can never beat the per-pair optimum.
                assert!(r.optimal.lower <= r.per_rung[1].lower + 1e-12, "{model}");
            }
        }
    }

    #[test]
    fn collusion_experiment_shape() {
        let net = Internet::synthetic(500, 41);
        let exp = collusion(&net, &ExperimentConfig::small(2));
        assert!(exp.sets > 0);
        assert_eq!(exp.rows.len(), 3);
        for (model, r) in &exp.rows {
            assert!(r.cells > 0, "{model}");
            for b in [r.colluding, r.best_single, r.solo] {
                assert!((0.0..=1.0 + 1e-12).contains(&b.lower), "{model}");
                assert!(b.lower <= b.upper + 1e-12, "{model}");
            }
        }
    }
}
