//! Beyond the paper's figures: the §8 mitigation ideas and two robustness
//! extensions, implemented so their value can be measured with the same
//! metric.
//!
//! * [`rpki_value`] — how much origin authentication *itself* buys: the
//!   same metric under classic prefix hijacking (no RPKI), under the
//!   paper's fake-link attack (RPKI deployed), and with a large S\*BGP
//!   deployment on top.
//! * [`hysteresis`] — §8: "one could add hysteresis to S\*BGP, so that an
//!   AS does not immediately drop a secure route when a 'better' insecure
//!   route appears". Simulated at the message level: converge, launch the
//!   attack, compare downgrade damage with and without hysteresis.
//! * [`islands`] — §8: "deployment scenarios that create islands of secure
//!   ASes that agree to prioritize security 1st". The secure core ranks
//!   security 1st while everyone else stays at security 3rd, which the
//!   engine cannot express but the protocol simulator can.
//! * [`weighted_baseline`] — the §4.5 caveat: the metric reweighted by a
//!   hypergiant-skewed traffic model.

use sbgp_core::{
    AttackScenario, AttackStrategy, Bounds, CellSet, Deployment, Engine, Policy, SecurityModel,
};
use sbgp_proto::{Schedule, Simulator, SourceCensus};
use sbgp_topology::AsId;

use crate::experiments::ExperimentConfig;
use crate::weights::TrafficWeights;
use crate::{runner, sample, scenario, sweep, Internet};

/// One row of the RPKI-value ladder.
#[derive(Clone, Debug)]
pub struct SecurityLadderRow {
    /// Human-readable defense level.
    pub label: String,
    /// Happy-fraction bounds.
    pub metric: Bounds,
}

/// The "security stack" ladder: nothing → RPKI → RPKI + S\*BGP.
///
/// The two fake-link security-3rd rows share their `(policy, strategy)` and
/// differ only in the growing deployment, so they are served by a single
/// `[∅, S]` sweep (both amortization axes composed); the remaining rows
/// change the attack strategy or the model and are one-step calls of the
/// same destination-major [`sweep::metric`] driver, which still shares
/// each destination's base computation across its attackers.
pub fn rpki_value(net: &Internet, cfg: &ExperimentConfig) -> Vec<SecurityLadderRow> {
    let attackers = sample::sample_non_stubs(net, cfg.attackers, cfg.seed);
    let dests = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    let pairs = sample::pairs(&attackers, &dests);
    let empty = Deployment::empty(net.len());
    let step = scenario::tier12_step(net, 13, 100);
    let sec3 = Policy::new(SecurityModel::Security3rd);
    let sec1 = Policy::new(SecurityModel::Security1st);

    let metric_with = |deployments: &[Deployment], policy: Policy, strategy: AttackStrategy| {
        let cells = CellSet::per_policy(&[policy], strategy);
        let (accs, _) = sweep::metric(net, &pairs, deployments, &cells, cfg.parallelism);
        accs[0].iter().map(|a| a.value()).collect::<Vec<Bounds>>()
    };

    let fake_link_sec3 = metric_with(
        &[empty.clone(), step.deployment.clone()],
        sec3,
        AttackStrategy::FakeLink,
    );

    vec![
        SecurityLadderRow {
            label: "no RPKI (prefix hijack possible)".into(),
            metric: metric_with(&[empty], sec3, AttackStrategy::OriginHijack)[0],
        },
        SecurityLadderRow {
            label: "RPKI only (attacker must fake a link)".into(),
            metric: fake_link_sec3[0],
        },
        SecurityLadderRow {
            label: "RPKI + S*BGP at T1+T2+stubs, security 3rd".into(),
            metric: fake_link_sec3[1],
        },
        SecurityLadderRow {
            label: "RPKI + S*BGP at T1+T2+stubs, security 1st".into(),
            metric: metric_with(&[step.deployment], sec1, AttackStrategy::FakeLink)[0],
        },
    ]
}

/// Hysteresis A/B result for one security model.
#[derive(Clone, Debug)]
pub struct HysteresisRow {
    /// The model both runs used.
    pub model: SecurityModel,
    /// Census after the attack, without hysteresis.
    pub plain: SourceCensus,
    /// Census after the attack, with hysteresis.
    pub with_hysteresis: SourceCensus,
    /// Attacks simulated.
    pub attacks: usize,
}

/// §8 hysteresis: protocol-level A/B over a handful of attacks on secure
/// destinations. (Message-level simulation is orders of magnitude slower
/// than the engine, so this uses deliberately small samples.)
pub fn hysteresis(net: &Internet, cfg: &ExperimentConfig) -> Vec<HysteresisRow> {
    let step = scenario::tier12_step(net, 13, 37);
    let attackers = sample::sample_non_stubs(net, cfg.attackers.min(4), cfg.seed);
    let dests = sample::sample_from(
        &scenario::secure_destinations(&step),
        cfg.destinations.min(4),
        cfg.seed ^ 0x4a,
    );

    let mut rows = Vec::new();
    for model in [SecurityModel::Security2nd, SecurityModel::Security3rd] {
        let policy = Policy::new(model);
        let mut plain = SourceCensus::default();
        let mut with_h = SourceCensus::default();
        let mut attacks = 0usize;
        for &d in &dests {
            for &m in &attackers {
                if m == d {
                    continue;
                }
                attacks += 1;
                for hysteresis in [false, true] {
                    let mut sim = Simulator::new(
                        &net.graph,
                        &step.deployment,
                        policy,
                        AttackScenario::normal(d),
                    );
                    sim.set_hysteresis(hysteresis);
                    sim.run(Schedule::Fifo, 50_000_000);
                    sim.launch_attack(m, AttackStrategy::FakeLink);
                    sim.run(Schedule::Fifo, 50_000_000);
                    let census = sim.census();
                    let target = if hysteresis { &mut with_h } else { &mut plain };
                    target.sources += census.sources;
                    target.happy += census.happy;
                    target.unhappy += census.unhappy;
                    target.routeless += census.routeless;
                    target.secure += census.secure;
                }
            }
        }
        rows.push(HysteresisRow {
            model,
            plain,
            with_hysteresis: with_h,
            attacks,
        });
    }
    rows
}

/// Result of the islands experiment for one configuration.
#[derive(Clone, Debug)]
pub struct IslandRow {
    /// Description of the priority assignment.
    pub label: String,
    /// Aggregate census over the sampled attacks.
    pub census: SourceCensus,
}

/// §8 islands: the secure core ranks security 1st; the rest of the world
/// ranks `outside`. Compared against uniform-priority baselines on the
/// same attacks (island destinations only — protecting the island is the
/// point).
///
/// Structural note: because the SecP step exists only at validating ASes,
/// the island assignment achieves *exactly* the uniform-security-1st
/// outcome for island destinations — the interesting deltas are against
/// the uniform-`outside` row, and the fact (demonstrated in
/// `examples/islands.rs`) that non-island destinations see no routing
/// changes at all.
pub fn islands(net: &Internet, cfg: &ExperimentConfig, outside: SecurityModel) -> Vec<IslandRow> {
    let step = scenario::tier12_step(net, 13, 37);
    let attackers = sample::sample_non_stubs(net, cfg.attackers.min(4), cfg.seed);
    let dests = sample::sample_from(
        &scenario::secure_destinations(&step),
        cfg.destinations.min(4),
        cfg.seed ^ 0x15,
    );

    let island: Vec<AsId> = scenario::secure_destinations(&step);
    let run = |island_first: bool, uniform: Option<SecurityModel>| -> SourceCensus {
        let mut total = SourceCensus::default();
        for &d in &dests {
            for &m in &attackers {
                if m == d {
                    continue;
                }
                let base_model = uniform.unwrap_or(outside);
                let mut sim = Simulator::new(
                    &net.graph,
                    &step.deployment,
                    Policy::new(base_model),
                    AttackScenario::attack(m, d),
                );
                if island_first && uniform.is_none() {
                    for &v in &island {
                        sim.set_rank(v, SecurityModel::Security1st);
                    }
                }
                sim.run(Schedule::Fifo, 50_000_000);
                let census = sim.census();
                total.sources += census.sources;
                total.happy += census.happy;
                total.unhappy += census.unhappy;
                total.routeless += census.routeless;
                total.secure += census.secure;
            }
        }
        total
    };

    vec![
        IslandRow {
            label: format!("uniform {}", outside.label()),
            census: run(false, Some(outside)),
        },
        IslandRow {
            label: format!("island sec-1st core, {} outside", outside.label()),
            census: run(true, None),
        },
        IslandRow {
            label: "uniform Sec 1st".into(),
            census: run(false, Some(SecurityModel::Security1st)),
        },
    ]
}

/// §4.5 caveat: the baseline metric under uniform vs traffic-skewed
/// source weights. Destination-major like the unweighted runners: the
/// weighted sum needs every AS's flags, so each attacker reads a full
/// [`Engine`] outcome.
pub fn weighted_baseline(net: &Internet, cfg: &ExperimentConfig) -> Vec<(String, Bounds)> {
    let attackers = sample::sample_non_stubs(net, cfg.attackers, cfg.seed);
    let dests = sample::sample_all(net, cfg.destinations, cfg.seed ^ 0xD);
    let groups = sample::group_by_destination(&sample::pairs(&attackers, &dests));
    let empty = Deployment::empty(net.len());
    let policy = Policy::new(SecurityModel::Security3rd);

    let run = |weights: &TrafficWeights| -> Bounds {
        let (sum, count) = runner::map_reduce(
            cfg.parallelism,
            &groups,
            || Engine::new(&net.graph),
            || (Bounds::default(), 0usize),
            |engine, acc, (d, ms)| {
                for &m in ms {
                    let o = engine.compute(AttackScenario::attack(m, *d), &empty, policy);
                    let b = weights.weighted_happy(o);
                    acc.0.lower += b.lower;
                    acc.0.upper += b.upper;
                    acc.1 += 1;
                }
            },
            |a, b| {
                a.0.lower += b.0.lower;
                a.0.upper += b.0.upper;
                a.1 += b.1;
            },
        )
        .unwrap();
        Bounds {
            lower: sum.lower / count.max(1) as f64,
            upper: sum.upper / count.max(1) as f64,
        }
    };

    vec![
        (
            "uniform source weights".to_string(),
            run(&TrafficWeights::uniform(net.len())),
        ),
        (
            "hypergiant-skewed weights".to_string(),
            run(&TrafficWeights::cp_heavy(net)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Internet {
        Internet::synthetic(500, 41)
    }

    #[test]
    fn rpki_ladder_is_monotone() {
        let rows = rpki_value(&net(), &ExperimentConfig::small(1));
        assert_eq!(rows.len(), 4);
        // Hijacking (no RPKI) is at least as damaging as the fake link,
        // and the full sec-1st deployment is the best defense.
        assert!(
            rows[0].metric.lower <= rows[1].metric.lower + 1e-9,
            "RPKI helps"
        );
        assert!(
            rows[3].metric.lower >= rows[1].metric.lower - 1e-9,
            "S*BGP sec-1st helps further"
        );
    }

    #[test]
    fn hysteresis_never_loses_secure_routes() {
        let rows = hysteresis(&net(), &ExperimentConfig::small(2));
        for r in &rows {
            assert_eq!(r.plain.sources, r.with_hysteresis.sources);
            assert!(
                r.with_hysteresis.secure >= r.plain.secure,
                "{}: hysteresis {} < plain {}",
                r.model,
                r.with_hysteresis.secure,
                r.plain.secure
            );
            assert!(r.with_hysteresis.happy >= r.plain.happy, "{}", r.model);
            assert!(r.attacks > 0);
        }
    }

    #[test]
    fn islands_sit_between_uniform_models() {
        let rows = islands(
            &net(),
            &ExperimentConfig::small(3),
            SecurityModel::Security3rd,
        );
        assert_eq!(rows.len(), 3);
        let uniform3 = rows[0].census.happy as f64 / rows[0].census.sources as f64;
        let island = rows[1].census.happy as f64 / rows[1].census.sources as f64;
        let uniform1 = rows[2].census.happy as f64 / rows[2].census.sources as f64;
        assert!(
            island >= uniform3 - 0.02,
            "island {island} vs uniform sec3 {uniform3}"
        );
        assert!(
            island <= uniform1 + 0.02,
            "island {island} vs uniform sec1 {uniform1}"
        );
    }

    #[test]
    fn weighted_baseline_has_two_rows() {
        let rows = weighted_baseline(&net(), &ExperimentConfig::small(4));
        assert_eq!(rows.len(), 2);
        for (_, b) in &rows {
            assert!(b.lower <= b.upper + 1e-12);
            assert!((0.0..=1.0).contains(&b.lower));
        }
    }
}
