//! The one parallel reduction of the crate, and the two non-metric runners.
//!
//! The paper ran its `O(|M||D|(|V|+|E|))` computations with MPI on Blue
//! Gene and Blacklight (Appendix H); here a `std::thread::scope` plays the
//! same role on one machine. Every driver of the crate reduces through
//! [`map_reduce`]: workers claim work items (destination groups, whole
//! destinations, or pairs) one at a time from an atomic counter, each
//! worker owns its reusable scratch (an engine), so there is no shared
//! mutable state, and the main thread merges per-item accumulators **in
//! item order** — results are bit-identical at any [`Parallelism`],
//! floating-point sums included.
//!
//! The metric drivers built on it live elsewhere: explicit pairs and
//! per-destination counts in [`crate::sweep`], the strategy ladder and
//! collusion in [`crate::strategy`], and the adaptive estimators in
//! [`crate::stats`]. This module keeps the root-cause [`analysis`] and the
//! doomed/protectable/immune [`partitions`] runners.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use sbgp_core::{
    Deployment, PairAnalysis, PairAnalyzer, PartitionComputer, PartitionCounts, Policy,
};
use sbgp_topology::AsId;

use crate::Internet;

/// Number of worker threads to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism(pub usize);

impl Parallelism {
    /// One worker per available hardware thread.
    pub fn auto() -> Parallelism {
        Parallelism(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Strictly sequential execution.
    pub fn sequential() -> Parallelism {
        Parallelism(1)
    }
}

/// A panic payload caught by [`map_reduce`].
pub type Panic = Box<dyn Any + Send>;

/// What [`map_reduce`] returns: the merged accumulator of every item whose
/// step completed, and the items whose step panicked.
pub struct Reduced<Acc> {
    /// The surviving items' accumulators, merged in item order.
    pub acc: Acc,
    /// `(item index, panic payload)` of every lost item, in item order.
    pub lost: Vec<(usize, Panic)>,
}

impl<Acc> Reduced<Acc> {
    /// The merged accumulator, re-raising the first lost item's panic:
    /// the form for callers that have no use for a partial result.
    pub fn unwrap(self) -> Acc {
        if let Some((_, panic)) = self.lost.into_iter().next() {
            resume_unwind(panic);
        }
        self.acc
    }
}

/// Parallel map-reduce over `items`, one item per claim.
///
/// `make_worker` builds per-thread scratch (typically an engine); `step`
/// folds one item into a fresh accumulator from `make_acc`; item
/// accumulators are merged into an accumulator that starts from
/// `make_acc()` with `merge`, **in item order**, regardless of which worker
/// computed which item. With a deterministic `step` the result is
/// therefore bit-identical across every [`Parallelism`], floating-point
/// reductions included, which `tests/determinism.rs` pins down. Items are
/// claimed singly because the common item is heavy (a destination's base
/// fix plus all of its attackers): batching would cap the worker count at
/// the batch count and leave cores idle on small workloads.
///
/// Every step runs under `catch_unwind`, so one poisoned item (a bug, or an
/// injected fault) loses *that item* instead of tearing down the
/// reduction: it is reported in [`Reduced::lost`], and the worker scratch
/// is rebuilt before the next item (an engine mid-panic is in no state to
/// serve it). With no lost items the isolation changes nothing. Callers
/// that cannot use a partial result call [`Reduced::unwrap`]. Worker
/// scratch is dropped before this function returns.
pub fn map_reduce<T, W, Acc>(
    par: Parallelism,
    items: &[T],
    make_worker: impl Fn() -> W + Sync,
    make_acc: impl Fn() -> Acc + Sync,
    step: impl Fn(&mut W, &mut Acc, &T) + Sync,
    mut merge: impl FnMut(&mut Acc, Acc),
) -> Reduced<Acc>
where
    T: Sync,
    Acc: Send,
{
    let n = items.len();
    let threads = par.0.clamp(1, n.max(1));
    // The closures are not UnwindSafe in the type-system sense only because
    // they borrow shared state; a poisoned worker is discarded and rebuilt,
    // and a poisoned item accumulator never escapes, so the assertion is
    // sound.
    let run_item = |worker: &mut Option<W>, i: usize| -> Result<Acc, Panic> {
        let w = worker.get_or_insert_with(&make_worker);
        let out = catch_unwind(AssertUnwindSafe(|| {
            let mut acc = make_acc();
            step(w, &mut acc, &items[i]);
            acc
        }));
        if out.is_err() {
            *worker = None;
        }
        out
    };
    let mut out = Reduced {
        acc: make_acc(),
        lost: Vec::new(),
    };
    let mut fold = |out: &mut Reduced<Acc>, i: usize, item: Result<Acc, Panic>| match item {
        Ok(acc) => merge(&mut out.acc, acc),
        Err(panic) => out.lost.push((i, panic)),
    };

    if threads == 1 {
        let mut worker: Option<W> = None;
        for i in 0..n {
            let item = run_item(&mut worker, i);
            fold(&mut out, i, item);
        }
        drop(worker);
        return out;
    }

    // Workers stream item accumulators to the main thread, which merges
    // them the moment the next-expected item is available: the reduction
    // order stays fixed, and only out-of-order items are ever buffered
    // (bounded by scheduling skew, not by item count).
    let cursor = AtomicUsize::new(0);
    let mut merged = 0usize;
    let mut pending: HashMap<usize, Result<Acc, Panic>> = HashMap::new();
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<Acc, Panic>)>();
        for _ in 0..threads {
            let cursor = &cursor;
            let run_item = &run_item;
            let tx = tx.clone();
            scope.spawn(move || {
                let mut worker: Option<W> = None;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, run_item(&mut worker, i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, item) in rx {
            pending.insert(i, item);
            while let Some(item) = pending.remove(&merged) {
                fold(&mut out, merged, item);
                merged += 1;
            }
        }
    });
    assert_eq!(merged, n, "a worker died outside its catch");
    out
}

/// Summed root-cause analysis over pairs (Figures 13 and 16).
pub fn analysis(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    deployment: &Deployment,
    policy: Policy,
    par: Parallelism,
) -> PairAnalysis {
    map_reduce(
        par,
        pairs,
        || PairAnalyzer::new(&net.graph),
        PairAnalysis::default,
        |analyzer, acc, &(m, d)| {
            *acc += analyzer.analyze(m, d, deployment, policy);
        },
        |a, b| *a += b,
    )
    .unwrap()
}

/// Summed doomed/protectable/immune partition counts over pairs
/// (Figures 3–6).
pub fn partitions(
    net: &Internet,
    pairs: &[(AsId, AsId)],
    policy: Policy,
    par: Parallelism,
) -> PartitionCounts {
    map_reduce(
        par,
        pairs,
        || PartitionComputer::new(&net.graph),
        PartitionCounts::default,
        |computer, acc, &(m, d)| {
            acc.add(&computer.counts(m, d, policy));
        },
        |a, b| a.add(&b),
    )
    .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample, sweep};
    use sbgp_core::{AttackStrategy, Bounds, CellSet, SecurityModel};

    fn net() -> Internet {
        Internet::synthetic(600, 5)
    }

    /// The fake-link metric of one policy under one deployment.
    fn metric(
        net: &Internet,
        pairs: &[(AsId, AsId)],
        dep: &Deployment,
        policy: Policy,
        par: Parallelism,
    ) -> Bounds {
        let cells = CellSet::per_policy(&[policy], AttackStrategy::FakeLink);
        let (accs, _) = sweep::metric(net, pairs, std::slice::from_ref(dep), &cells, par);
        accs[0][0].value()
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 6, 1);
        let dests = sample::sample_all(&net, 10, 2);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security3rd);
        let seq = metric(&net, &pairs, &dep, policy, Parallelism(1));
        let par = metric(&net, &pairs, &dep, policy, Parallelism(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn isolated_map_reduce_drops_only_poisoned_items() {
        let items: Vec<usize> = (0..40).collect();
        let poison = |i: usize| i % 13 == 5;
        for threads in [1, 4] {
            let out = map_reduce(
                Parallelism(threads),
                &items,
                || (),
                || 0usize,
                |_, acc, &i| {
                    assert!(!poison(i), "poisoned {i}");
                    *acc += i;
                },
                |a, b| *a += b,
            );
            let lost: Vec<usize> = out.lost.iter().map(|(i, _)| *i).collect();
            assert_eq!(lost, vec![5, 18, 31], "threads={threads}");
            let expect: usize = items.iter().filter(|&&i| !poison(i)).sum();
            assert_eq!(out.acc, expect, "threads={threads}");
            // `unwrap` re-raises the first lost item's own panic.
            let raised = std::panic::catch_unwind(AssertUnwindSafe(|| out.unwrap()));
            let payload = raised.expect_err("lost items must re-raise");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("poisoned 5"), "threads={threads}");
        }
        // No poison: nothing lost, every item merged.
        let clean = map_reduce(
            Parallelism(3),
            &items,
            || (),
            || 0usize,
            |_, acc, &i| *acc += i,
            |a, b| *a += b,
        );
        assert!(clean.lost.is_empty());
        assert_eq!(clean.unwrap(), items.iter().sum::<usize>());
    }

    #[test]
    fn drivers_still_panic_on_a_poisoned_group() {
        // Only the adaptive estimators drop lost groups; an explicit-pair
        // driver handed an out-of-range attacker aborts at any thread
        // count instead of returning a partial metric.
        let net = net();
        let dests = sample::sample_all(&net, 4, 2);
        let mut pairs = sample::pairs(&sample::sample_non_stubs(&net, 2, 1), &dests);
        pairs.push((AsId(net.len() as u32 + 7), dests[1]));
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security2nd);
        for threads in [1, 2] {
            let run = std::panic::catch_unwind(|| {
                metric(&net, &pairs, &dep, policy, Parallelism(threads))
            });
            assert!(
                run.is_err(),
                "threads={threads}: a poisoned group must panic"
            );
        }
    }

    #[test]
    fn baseline_metric_is_majority_happy() {
        // §4.2: with origin authentication alone, well over half the
        // sources stay happy on average.
        let net = net();
        let attackers = sample::sample_all(&net, 12, 3);
        let dests = sample::sample_all(&net, 12, 4);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        let b = metric(
            &net,
            &pairs,
            &dep,
            Policy::new(SecurityModel::Security3rd),
            Parallelism(2),
        );
        assert!(b.lower > 0.5, "baseline lower bound {b}");
        assert!(b.upper >= b.lower);
    }

    #[test]
    fn per_destination_counts_align() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 5, 1);
        let dests = sample::sample_all(&net, 6, 2);
        let dep = Deployment::empty(net.len());
        let policy = Policy::new(SecurityModel::Security2nd);
        let cells = CellSet::per_policy(&[policy], AttackStrategy::FakeLink);
        let (counts, _) = sweep::metric_by_destination(
            &net,
            &attackers,
            &dests,
            std::slice::from_ref(&dep),
            &cells,
            Parallelism(2),
        );
        let per = &counts[0][0];
        assert_eq!(per.len(), dests.len());
        // Cross-check one destination against a direct metric call.
        let pairs: Vec<(AsId, AsId)> = attackers
            .iter()
            .filter(|&&m| m != dests[0])
            .map(|&m| (m, dests[0]))
            .collect();
        let direct = metric(&net, &pairs, &dep, policy, Parallelism(1));
        let f = per[0].fraction();
        assert!((f.lower - direct.lower).abs() < 1e-12);
    }

    #[test]
    fn analysis_identity_holds_in_aggregate() {
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 4, 9);
        let dests = sample::sample_all(&net, 6, 10);
        let pairs = sample::pairs(&attackers, &dests);
        let dep = Deployment::full_from_iter(net.len(), net.tiers.tier1().iter().copied());
        for model in SecurityModel::ALL {
            let a = analysis(&net, &pairs, &dep, Policy::new(model), Parallelism(2));
            assert!(a.metric_change_identity_holds(), "{model}");
            assert_eq!(a.pairs, pairs.len());
        }
    }

    #[test]
    fn partition_fractions_bound_the_metric() {
        // Immune fraction ≤ baseline happy ≤ 1 − doomed fraction, per pair
        // set (§4.3's whole point).
        let net = net();
        let attackers = sample::sample_non_stubs(&net, 5, 21);
        let dests = sample::sample_all(&net, 8, 22);
        let pair_list = sample::pairs(&attackers, &dests);
        let dep = Deployment::empty(net.len());
        for model in SecurityModel::ALL {
            let policy = Policy::new(model);
            let parts = partitions(&net, &pair_list, policy, Parallelism(2));
            let total = parts.sources() as f64;
            let immune = parts.immune as f64 / total;
            let doomed = parts.doomed as f64 / total;
            let h = metric(&net, &pair_list, &dep, policy, Parallelism(2));
            assert!(
                immune <= h.lower + 1e-9,
                "{model}: immune {immune} vs H {h}"
            );
            assert!(
                h.upper <= 1.0 - doomed + 1e-9,
                "{model}: doomed {doomed} vs H {h}"
            );
        }
    }
}
