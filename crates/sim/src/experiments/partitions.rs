//! Figures 3–6 (and Appendix K's Figures 24–25): the doomed / protectable
//! / immune decomposition.

use sbgp_core::{
    AttackStrategy, Bounds, CellSet, Deployment, PartitionComputer, Policy, SecurityModel,
};
use sbgp_topology::tier::{Tier, FIGURE_TIER_ORDER};
use sbgp_topology::AsId;

use crate::experiments::ExperimentConfig;
use crate::runner::{self, Parallelism};
use crate::{sample, sweep, Internet};

/// Average immune/protectable/doomed fractions over a pair set.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartitionShare {
    /// Fraction of sources immune for every deployment.
    pub immune: f64,
    /// Fraction whose fate depends on the deployment.
    pub protectable: f64,
    /// Fraction doomed for every deployment.
    pub doomed: f64,
}

impl PartitionShare {
    fn from_counts(c: &sbgp_core::PartitionCounts) -> PartitionShare {
        let total = c.sources().max(1) as f64;
        PartitionShare {
            immune: c.immune as f64 / total,
            // Unreachable sources can help neither side; we fold them into
            // "immune to this attacker" for presentation, as the paper's
            // graphs have no such class (its graph is connected).
            protectable: c.protectable as f64 / total,
            doomed: c.doomed as f64 / total,
        }
    }

    /// Upper bound on `H` over all deployments (`1 − doomed`).
    pub fn upper_bound(&self) -> f64 {
        1.0 - self.doomed
    }
}

/// The fake-link baseline `H(∅)` over `pairs` (the figures' heavy lines).
fn baseline_metric(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    policy: Policy,
    par: Parallelism,
) -> Bounds {
    let cells = CellSet::per_policy(&[policy], AttackStrategy::FakeLink);
    let (accs, _) = sweep::metric(net, pairs, &[Deployment::empty(net.len())], &cells, par);
    accs[0][0].value()
}

/// Figure 3: shares per security model, over an all-AS pair sample, plus
/// the baseline `H_{V,V}(∅)` lower bound (the figure's heavy line).
#[derive(Clone, Debug)]
pub struct Figure3 {
    /// `(model, shares)` in paper order.
    pub models: Vec<(SecurityModel, PartitionShare)>,
    /// Baseline metric bounds at `S = ∅`.
    pub baseline: Bounds,
    /// Pairs evaluated.
    pub pairs: usize,
}

/// Compute Figure 3 with an optional LP variant (Appendix K's Figure 24 is
/// exactly this with `LpVariant::LpK(2)`).
pub fn figure3(net: &Internet, cfg: &ExperimentConfig, variant: sbgp_core::LpVariant) -> Figure3 {
    let attackers = sample::sample_all(net, cfg.attackers, cfg.seed);
    let destinations = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    let pairs = sample::pairs(&attackers, &destinations);

    let models = SecurityModel::ALL
        .iter()
        .map(|&model| {
            let counts = runner::partitions(
                net,
                &pairs,
                Policy::with_variant(model, variant),
                cfg.parallelism,
            );
            (model, PartitionShare::from_counts(&counts))
        })
        .collect();

    let baseline = baseline_metric(
        net,
        &pairs,
        Policy::with_variant(SecurityModel::Security3rd, variant),
        cfg.parallelism,
    );
    Figure3 {
        models,
        baseline,
        pairs: pairs.len(),
    }
}

/// One tier's row in Figures 4/5/6: shares plus the tier's baseline metric.
#[derive(Clone, Debug)]
pub struct TierRow {
    /// The bucketing tier.
    pub tier: Tier,
    /// Partition shares.
    pub share: PartitionShare,
    /// Baseline `H(∅)` restricted to this bucket (the per-bar heavy line).
    pub baseline: Bounds,
    /// Number of bucket members sampled.
    pub sampled: usize,
}

/// Figures 4 and 5: partitions bucketed by **destination** tier, for the
/// given model (security 3rd = Figure 4, security 2nd = Figure 5; with
/// `LpVariant::LpK(2)` these are Appendix K's Figure 25 panels).
pub fn by_destination_tier(net: &Internet, cfg: &ExperimentConfig, policy: Policy) -> Vec<TierRow> {
    let attackers = sample::sample_all(net, cfg.attackers, cfg.seed);
    FIGURE_TIER_ORDER
        .iter()
        .filter_map(|&tier| {
            let dests = sample::sample_tier(net, tier, cfg.per_tier, cfg.seed ^ tier as u64);
            if dests.is_empty() {
                return None;
            }
            let pairs = sample::pairs(&attackers, &dests);
            let counts = runner::partitions(net, &pairs, policy, cfg.parallelism);
            let baseline = baseline_metric(net, &pairs, policy, cfg.parallelism);
            Some(TierRow {
                tier,
                share: PartitionShare::from_counts(&counts),
                baseline,
                sampled: dests.len(),
            })
        })
        .collect()
}

/// Figure 6: partitions bucketed by **attacker** tier (security 3rd in the
/// paper).
pub fn by_attacker_tier(net: &Internet, cfg: &ExperimentConfig, policy: Policy) -> Vec<TierRow> {
    let destinations = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    FIGURE_TIER_ORDER
        .iter()
        .filter_map(|&tier| {
            let attackers =
                sample::sample_tier(net, tier, cfg.per_tier, cfg.seed ^ 0x100 ^ tier as u64);
            if attackers.is_empty() {
                return None;
            }
            let pairs = sample::pairs(&attackers, &destinations);
            let counts = runner::partitions(net, &pairs, policy, cfg.parallelism);
            let baseline = baseline_metric(net, &pairs, policy, cfg.parallelism);
            Some(TierRow {
                tier,
                share: PartitionShare::from_counts(&counts),
                baseline,
                sampled: attackers.len(),
            })
        })
        .collect()
}

/// §4.7's closing observation: partitions bucketed by **source** tier are
/// roughly uniform (~60% immune / 15% protectable / 25% doomed). Returns
/// rows in figure tier order.
pub fn by_source_tier(net: &Internet, cfg: &ExperimentConfig, policy: Policy) -> Vec<TierRow> {
    let attackers = sample::sample_all(net, cfg.attackers, cfg.seed);
    let destinations = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    let pairs = sample::pairs(&attackers, &destinations);

    // Custom reduction: bucket each source's fate by its tier.
    let buckets = runner::map_reduce(
        cfg.parallelism,
        &pairs,
        || PartitionComputer::new(&net.graph),
        || vec![sbgp_core::PartitionCounts::default(); FIGURE_TIER_ORDER.len()],
        |computer, acc, &(m, d)| {
            let fates = computer.compute(m, d, policy);
            for (i, fate) in fates.iter().enumerate() {
                let v = AsId(i as u32);
                if v == m || v == d {
                    continue;
                }
                let tier = net.tiers.tier(v);
                let slot = FIGURE_TIER_ORDER
                    .iter()
                    .position(|&t| t == tier)
                    .expect("tier in order");
                match fate {
                    sbgp_core::Fate::Immune => acc[slot].immune += 1,
                    sbgp_core::Fate::Protectable => acc[slot].protectable += 1,
                    sbgp_core::Fate::Doomed => acc[slot].doomed += 1,
                    sbgp_core::Fate::Unreachable => acc[slot].unreachable += 1,
                }
            }
        },
        |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                x.add(&y);
            }
        },
    )
    .unwrap();

    FIGURE_TIER_ORDER
        .iter()
        .zip(buckets)
        .filter(|(_, c)| c.sources() > 0)
        .map(|(&tier, counts)| TierRow {
            tier,
            share: PartitionShare::from_counts(&counts),
            baseline: Bounds::default(),
            sampled: counts.sources() / pairs.len().max(1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_core::LpVariant;

    fn net() -> Internet {
        Internet::synthetic(1_200, 17)
    }

    #[test]
    fn figure3_shape_matches_paper() {
        let f = figure3(&net(), &ExperimentConfig::small(3), LpVariant::Standard);
        assert_eq!(f.models.len(), 3);
        let share = |m: SecurityModel| {
            f.models
                .iter()
                .find(|(mm, _)| *mm == m)
                .map(|(_, s)| *s)
                .unwrap()
        };
        let s1 = share(SecurityModel::Security1st);
        let s2 = share(SecurityModel::Security2nd);
        let s3 = share(SecurityModel::Security3rd);
        // Paper ordering: upper bound (1 − doomed) shrinks as security
        // drops in priority: ~100% (1st) ≥ ~89% (2nd) ≥ ~75% (3rd).
        assert!(s1.upper_bound() >= s2.upper_bound() - 1e-9);
        assert!(s2.upper_bound() >= s3.upper_bound() - 1e-9);
        // Security 1st has (almost) no immune or doomed ASes.
        assert!(s1.immune < 0.2, "sec1 immune {}", s1.immune);
        assert!(s1.doomed < 0.1, "sec1 doomed {}", s1.doomed);
        // The baseline lies between the bounds for every model.
        for (_, s) in &f.models {
            assert!(f.baseline.lower <= s.upper_bound() + 1e-9);
            assert!(s.immune <= f.baseline.lower + 1e-9);
        }
        // Shares sum to ~1 (allowing the unreachable fold).
        for (_, s) in &f.models {
            let sum = s.immune + s.protectable + s.doomed;
            assert!((0.99..=1.01).contains(&sum), "sum {sum}");
        }
    }

    #[test]
    fn tier1_destinations_are_mostly_doomed_in_sec3() {
        // §4.6: when Tier 1 destinations are attacked under security 3rd,
        // far more sources are doomed than for any other tier (the paper
        // reports ~80% at 39k ASes; the effect is scale-dependent and
        // smaller on a 1.2k-AS graph, but the ordering is structural).
        let net = net();
        let cfg = ExperimentConfig {
            attackers: 12,
            destinations: 20,
            per_tier: 8,
            seed: 5,
            parallelism: crate::Parallelism(2),
            ..ExperimentConfig::default()
        };
        let rows = by_destination_tier(&net, &cfg, Policy::new(SecurityModel::Security3rd));
        let t1 = rows.iter().find(|r| r.tier == Tier::Tier1).unwrap();
        let stub = rows.iter().find(|r| r.tier == Tier::Stub).unwrap();
        assert!(
            t1.share.doomed > 1.2 * stub.share.doomed,
            "T1 {} vs stub {}",
            t1.share.doomed,
            stub.share.doomed
        );
        assert!(t1.share.doomed > 0.25, "T1 doomed {}", t1.share.doomed);
        // Figure 4's visual claim: the Tier 1 bar has the smallest upper
        // bound (1 − doomed) of all destination tiers. (The paper's "least
        // immune" reading is scale-dependent and does not survive a 1.2k-AS
        // graph, where stub buckets lose immunity to sampling noise.)
        for r in &rows {
            if r.tier != Tier::Tier1 {
                assert!(
                    t1.share.upper_bound() < r.share.upper_bound() + 1e-9,
                    "T1 upper bound {} vs {:?} {}",
                    t1.share.upper_bound(),
                    r.tier,
                    r.share.upper_bound()
                );
            }
        }
    }

    #[test]
    fn tier1_attackers_are_weak_in_sec3() {
        // §4.7 / Figure 6: a Tier 1 attacker's bogus route looks like a
        // provider route to almost everyone, so most sources are immune.
        let net = net();
        let cfg = ExperimentConfig {
            attackers: 12,
            destinations: 20,
            per_tier: 8,
            seed: 5,
            parallelism: crate::Parallelism(2),
            ..ExperimentConfig::default()
        };
        let rows = by_attacker_tier(&net, &cfg, Policy::new(SecurityModel::Security3rd));
        let t1 = rows.iter().find(|r| r.tier == Tier::Tier1).unwrap();
        let t2 = rows.iter().find(|r| r.tier == Tier::Tier2).unwrap();
        assert!(
            t1.share.immune > t2.share.immune,
            "T1 attacker immune {} vs T2 {}",
            t1.share.immune,
            t2.share.immune
        );
        assert!(
            t1.share.doomed < t2.share.doomed,
            "T1 attacker must doom fewer sources than a T2 attacker"
        );
    }

    #[test]
    fn source_tier_rows_cover_tiers() {
        let net = net();
        let rows = by_source_tier(
            &net,
            &ExperimentConfig::small(9),
            Policy::new(SecurityModel::Security3rd),
        );
        assert!(rows.len() >= 6);
        for r in &rows {
            let sum = r.share.immune + r.share.protectable + r.share.doomed;
            assert!((0.98..=1.02).contains(&sum), "{:?}: {sum}", r.tier);
        }
    }
}
