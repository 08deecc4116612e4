//! End-to-end harness throughput: the metric over a pair batch, as used by
//! every figure binary.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use sbgp_core::{AttackStrategy, CellSet, Policy, SecurityModel};
use sbgp_sim::{runner, sample, scenario, sweep, Internet, Parallelism};

fn harness_benches(c: &mut Criterion) {
    let net = Internet::synthetic(4_000, 11);
    let attackers = sample::sample_non_stubs(&net, 8, 1);
    let dests = sample::sample_all(&net, 12, 2);
    let pairs = sample::pairs(&attackers, &dests);
    let step = scenario::tier12_step(&net, 13, 37);

    let mut group = c.benchmark_group("metric-96-pairs");
    group.sample_size(10);
    let deployment = std::slice::from_ref(&step.deployment);
    for model in SecurityModel::ALL {
        let cells = CellSet::per_policy(&[Policy::new(model)], AttackStrategy::FakeLink);
        group.bench_function(model.label(), |b| {
            b.iter(|| {
                black_box(sweep::metric(
                    &net,
                    &pairs,
                    deployment,
                    &cells,
                    Parallelism(1),
                ))
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("per-figure");
    group.sample_size(10);
    group.bench_function("figure13-one-cp", |b| {
        let cp = net.content_providers[0];
        let cp_pairs: Vec<_> = attackers.iter().map(|&m| (m, cp)).collect();
        b.iter(|| {
            black_box(runner::analysis(
                &net,
                &cp_pairs,
                &step.deployment,
                Policy::new(SecurityModel::Security3rd),
                Parallelism(1),
            ))
        });
    });
    group.bench_function("partitions-one-tier", |b| {
        b.iter(|| {
            black_box(runner::partitions(
                &net,
                &pairs,
                Policy::new(SecurityModel::Security2nd),
                Parallelism(1),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, harness_benches);
criterion_main!(benches);
