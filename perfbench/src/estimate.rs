//! The estimation workloads: uniform attacker × destination pairs from the
//! stratified pair universe, three security models fused, fake-link
//! attacks, a fixed pair budget per estimate.
//!
//! * `baseline`: `PairUniverse(all, all)` at `S = ∅` (one deployment).
//! * `churn`: `PairUniverse(non_stubs, all)` over `[∅] ++
//!   scenario::churn_trajectory(net, 5)` — the campaign rollout waxing to
//!   its peak, then retracting back down.
//!
//! Timed runs evaluate through [`RecordingEval`], a pass-through wrapper
//! around the library's `SweepCellsEval` that keeps every pair's emitted
//! bounds; a seeded sample of them is recomputed afterwards, untimed, with
//! a fresh `Engine::compute` per model and step. The traced run evaluates
//! through [`TracedEval`], which re-enacts `SweepCellsEval` through the
//! engines' public calls with a span around each, and must reproduce the
//! untraced estimates bit for bit.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sbgp_core::{
    AttackScenario, AttackStrategy, Bounds, CellSet, DeltaStats, Deployment, Engine,
    FusedDeltaEngine, FusedStats, Policy, SweepEngine, SweepStats,
};
use sbgp_sim::stats::{
    estimate_adaptive_cells_eval, AdaptiveRun, CellEval, EstimatorConfig, PairUniverse,
    SweepCellsEval,
};
use sbgp_sim::{scenario, Internet, Parallelism};
use sbgp_topology::AsId;

use crate::snapshot::{self, LoadSpans, Snapshot};
use crate::util::{median, mix, peak_rss_mb, quantile, secs, Checks, Report, Rng};
use crate::MODELS;

/// Times each snapshot's set-up is repeated in a run; the median over all
/// of them is `setup_s`.
const SETUP_REPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Baseline,
    Churn,
}

impl Kind {
    /// Pair budget of one estimate.
    fn budget(self) -> u64 {
        match self {
            Kind::Baseline => 512,
            Kind::Churn => 128,
        }
    }

    /// Sampled pairs whose bounds are recomputed from first principles
    /// after the timed part of a run.
    fn verify_pairs(self) -> usize {
        match self {
            Kind::Baseline => 16,
            Kind::Churn => 4,
        }
    }
}

fn policies() -> Vec<Policy> {
    MODELS.iter().map(|&m| Policy::new(m)).collect()
}

/// Everything an estimate needs besides its sampler seed.
struct Setup {
    net: Internet,
    universe: PairUniverse,
    deployments: Vec<Deployment>,
}

fn build(kind: Kind, net: Internet) -> Setup {
    let all: Vec<AsId> = net.graph.ases().collect();
    let (universe, deployments) = match kind {
        Kind::Baseline => (
            PairUniverse::new(&net, &all, &all),
            vec![Deployment::empty(net.len())],
        ),
        Kind::Churn => {
            let mut deps = vec![Deployment::empty(net.len())];
            deps.extend(scenario::churn_trajectory(&net, 5));
            (PairUniverse::new(&net, &net.tiers.non_stubs(), &all), deps)
        }
    };
    Setup {
        net,
        universe,
        deployments,
    }
}

fn config(kind: Kind, seed: u64, rep: u64) -> EstimatorConfig {
    EstimatorConfig::with_budget(kind.budget(), mix(seed, rep))
}

// ---------------------------------------------------------------------------
// Recording pass-through evaluator (timed runs)
// ---------------------------------------------------------------------------

/// One evaluated pair and the `(cell, step, bounds)` it emitted.
type Record = (AsId, AsId, Vec<(usize, usize, Bounds)>);

/// What the recording evaluator keeps: every pair's bounds, and the wall
/// time of every destination group (its base plus all its pairs — the
/// unit of work the runner hands a worker).
#[derive(Default)]
struct Recorded {
    records: Vec<Record>,
    group_ms: Vec<f64>,
}

struct RecordingEval<'a> {
    inner: SweepCellsEval<'a>,
    sink: Arc<Mutex<Recorded>>,
}

/// Worker scratch that hands what it recorded to the shared sink when the
/// runner drops it at the end of a round.
struct RecWorker<W> {
    inner: W,
    local: Recorded,
    /// Start of the current destination group and end of its last pair.
    group: Option<(Instant, Instant)>,
    sink: Arc<Mutex<Recorded>>,
}

impl<W> RecWorker<W> {
    fn close_group(&mut self) {
        if let Some((start, end)) = self.group.take() {
            self.local.group_ms.push((end - start).as_secs_f64() * 1e3);
        }
    }
}

impl<W> Drop for RecWorker<W> {
    fn drop(&mut self) {
        self.close_group();
        if let Ok(mut sink) = self.sink.lock() {
            sink.records.append(&mut self.local.records);
            sink.group_ms.append(&mut self.local.group_ms);
        }
    }
}

impl<'a> CellEval for RecordingEval<'a> {
    type Worker = RecWorker<<SweepCellsEval<'a> as CellEval>::Worker>;

    fn cell_stats(&self) -> Vec<usize> {
        self.inner.cell_stats()
    }

    fn make_worker(&self) -> Self::Worker {
        RecWorker {
            inner: self.inner.make_worker(),
            local: Recorded::default(),
            group: None,
            sink: Arc::clone(&self.sink),
        }
    }

    fn begin(&self, w: &mut Self::Worker, d: AsId) {
        w.close_group();
        let start = Instant::now();
        self.inner.begin(&mut w.inner, d);
        w.group = Some((start, Instant::now()));
    }

    fn eval_pair(
        &self,
        w: &mut Self::Worker,
        m: AsId,
        d: AsId,
        emit: &mut dyn FnMut(usize, usize, Bounds),
    ) {
        let mut values = Vec::new();
        self.inner.eval_pair(&mut w.inner, m, d, &mut |c, k, b| {
            values.push((c, k, b));
            emit(c, k, b);
        });
        w.local.records.push((m, d, values));
        if let Some((_, end)) = &mut w.group {
            *end = Instant::now();
        }
    }
}

/// One estimate through the recording evaluator: the runs, the wall time
/// of the estimate call, and what the evaluator recorded.
fn run_recorded(
    setup: &Setup,
    cfg: &EstimatorConfig,
    par: Parallelism,
) -> (Vec<AdaptiveRun>, f64, Recorded) {
    let sink = Arc::new(Mutex::new(Recorded::default()));
    let eval = RecordingEval {
        inner: SweepCellsEval::new(
            &setup.net,
            &setup.deployments,
            &policies(),
            AttackStrategy::FakeLink,
        ),
        sink: Arc::clone(&sink),
    };
    let t = Instant::now();
    let runs = estimate_adaptive_cells_eval(&setup.universe, cfg, &eval, par);
    let wall = secs(t);
    drop(eval);
    let recorded = std::mem::take(&mut *sink.lock().expect("record sink"));
    (runs, wall, recorded)
}

/// Structural checks of one estimate, then a seeded sample of its pairs
/// recomputed with a fresh `Engine::compute` per model and step; every
/// recomputed bound must match the emitted one bit for bit.
fn verify(
    setup: &Setup,
    runs: &[AdaptiveRun],
    mut records: Vec<Record>,
    sample: usize,
    rng: &mut Rng,
    checks: &mut Checks,
) {
    let steps = setup.deployments.len();
    let sampled = runs.first().map_or(0, |r| r.sampled.len());
    checks.check(
        runs.len() == MODELS.len()
            && runs.iter().all(|r| {
                r.sampled.len() == sampled
                    && r.lost_groups == 0
                    && r.estimates.len() == steps
                    && r.estimates.iter().all(|e| e.pairs == sampled as u64)
            })
            && records.len() == sampled,
        || {
            format!(
                "estimate shape: {} records, {sampled} sampled",
                records.len()
            )
        },
    );
    records.sort_by_key(|r| (r.1, r.0));
    let policies = policies();
    let sources = (setup.net.len() - 2).max(1) as f64;
    let mut engine = Engine::new(&setup.net.graph);
    for i in rng.distinct(records.len(), sample) {
        let (m, d, values) = &records[i];
        checks.check(values.len() == MODELS.len() * steps, || {
            format!("pair ({m}, {d}) emitted {} bounds", values.len())
        });
        for &(c, k, b) in values {
            let (lower, upper) = engine
                .compute(
                    AttackScenario::attack(*m, *d),
                    &setup.deployments[k],
                    policies[c],
                )
                .count_happy();
            let want = (lower as f64 / sources, upper as f64 / sources);
            checks.check(
                want.0.to_bits() == b.lower.to_bits() && want.1.to_bits() == b.upper.to_bits(),
                || format!("pair ({m}, {d}) cell {c} step {k}: got {b:?}, recomputed {want:?}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Tracing evaluator (traced run)
// ---------------------------------------------------------------------------

/// Spans and counters of the evaluator, summed over workers.
#[derive(Clone, Default)]
struct Trace {
    base_s: f64,
    base_calls: u64,
    attack_s: f64,
    count_happy_s: f64,
    begin_from_s: f64,
    advance_wax_s: f64,
    advance_wane_s: f64,
    advances: u64,
    /// Outer spans: every `begin` and `eval_pair` call, end to end.
    busy_s: f64,
    fused: FusedStats,
    delta: DeltaStats,
    sweep: SweepStats,
}

impl Trace {
    fn add(&mut self, o: &Trace) {
        self.base_s += o.base_s;
        self.base_calls += o.base_calls;
        self.attack_s += o.attack_s;
        self.count_happy_s += o.count_happy_s;
        self.begin_from_s += o.begin_from_s;
        self.advance_wax_s += o.advance_wax_s;
        self.advance_wane_s += o.advance_wane_s;
        self.advances += o.advances;
        self.busy_s += o.busy_s;
        self.fused.collapsed_lanes += o.fused.collapsed_lanes;
        self.fused.forced_fallbacks += o.fused.forced_fallbacks;
        self.delta.delta_attacks += o.delta.delta_attacks;
        self.delta.full_recomputes += o.delta.full_recomputes;
        self.sweep.merge(&o.sweep);
    }
}

/// `SweepCellsEval` re-enacted through public engine calls, with a span
/// around each call.
struct TracedEval<'a> {
    net: &'a Internet,
    deployments: &'a [Deployment],
    cells: CellSet,
    sources: f64,
    /// `wax[k]`: step `k` grows (or keeps) the secure set.
    wax: Vec<bool>,
    sink: Arc<Mutex<Trace>>,
}

struct TraceWorker<'a> {
    fused: FusedDeltaEngine<'a>,
    sweeps: Vec<SweepEngine<'a>>,
    local: Trace,
    sink: Arc<Mutex<Trace>>,
}

impl Drop for TraceWorker<'_> {
    fn drop(&mut self) {
        self.local.fused = self.fused.stats();
        self.local.delta = self.fused.delta_stats();
        for s in &self.sweeps {
            self.local.sweep.merge(&s.stats());
        }
        if let Ok(mut sink) = self.sink.lock() {
            sink.add(&self.local);
        }
    }
}

impl<'a> TracedEval<'a> {
    fn fraction(&self, (lower, upper): (usize, usize)) -> Bounds {
        Bounds {
            lower: lower as f64 / self.sources,
            upper: upper as f64 / self.sources,
        }
    }
}

impl<'a> CellEval for TracedEval<'a> {
    type Worker = TraceWorker<'a>;

    fn cell_stats(&self) -> Vec<usize> {
        vec![self.deployments.len(); self.cells.input_len()]
    }

    fn make_worker(&self) -> Self::Worker {
        TraceWorker {
            fused: FusedDeltaEngine::new(&self.net.graph, self.cells.clone()),
            sweeps: (0..self.cells.lane_count())
                .map(|_| SweepEngine::new(&self.net.graph))
                .collect(),
            local: Trace::default(),
            sink: Arc::clone(&self.sink),
        }
    }

    fn begin(&self, w: &mut Self::Worker, d: AsId) {
        let t = Instant::now();
        if let Some(first) = self.deployments.first() {
            w.fused.begin(d, first);
        }
        let s = secs(t);
        w.local.base_s += s;
        w.local.base_calls += 1;
        w.local.busy_s += s;
    }

    fn eval_pair(
        &self,
        w: &mut Self::Worker,
        m: AsId,
        d: AsId,
        emit: &mut dyn FnMut(usize, usize, Bounds),
    ) {
        let start = Instant::now();
        w.fused.attack(m);
        let mut t = Instant::now();
        w.local.attack_s += (t - start).as_secs_f64();
        for c in 0..self.cells.input_len() {
            emit(c, 0, self.fraction(w.fused.count_happy(c)));
        }
        let mut now = Instant::now();
        w.local.count_happy_s += (now - t).as_secs_f64();
        t = now;
        if self.deployments.len() > 1 {
            for (j, (lane, sweep)) in self
                .cells
                .lanes()
                .iter()
                .zip(w.sweeps.iter_mut())
                .enumerate()
            {
                sweep.begin_from(
                    AttackScenario::attack(m, d).with_strategy(lane.strategy),
                    lane.policy,
                    &self.deployments[0],
                    w.fused.lane_outcome(j),
                    w.fused.lane_happy(j),
                );
            }
            now = Instant::now();
            w.local.begin_from_s += (now - t).as_secs_f64();
            t = now;
            for (k, dep) in self.deployments.iter().enumerate().skip(1) {
                for sweep in w.sweeps.iter_mut() {
                    sweep.advance(dep);
                }
                now = Instant::now();
                let s = (now - t).as_secs_f64();
                if self.wax[k] {
                    w.local.advance_wax_s += s;
                } else {
                    w.local.advance_wane_s += s;
                }
                w.local.advances += w.sweeps.len() as u64;
                t = now;
                for c in 0..self.cells.input_len() {
                    let lane = self.cells.lane_of(c);
                    emit(c, k, self.fraction(w.sweeps[lane].count_happy()));
                }
                now = Instant::now();
                w.local.count_happy_s += (now - t).as_secs_f64();
                t = now;
            }
        }
        w.local.busy_s += (t - start).as_secs_f64();
    }
}

fn run_traced(
    setup: &Setup,
    cfg: &EstimatorConfig,
    par: Parallelism,
) -> (Vec<AdaptiveRun>, f64, Trace) {
    let deps = &setup.deployments;
    let wax = (0..deps.len())
        .map(|k| k == 0 || deps[k].secure_count() >= deps[k - 1].secure_count())
        .collect();
    let sink = Arc::new(Mutex::new(Trace::default()));
    let eval = TracedEval {
        net: &setup.net,
        deployments: deps,
        cells: CellSet::per_policy(&policies(), AttackStrategy::FakeLink),
        sources: (setup.net.len() - 2).max(1) as f64,
        wax,
        sink: Arc::clone(&sink),
    };
    let t = Instant::now();
    let runs = estimate_adaptive_cells_eval(&setup.universe, cfg, &eval, par);
    let wall = secs(t);
    drop(eval);
    let trace = sink.lock().expect("trace sink").clone();
    (runs, wall, trace)
}

/// Bit-for-bit equality of two estimation results.
fn identical(a: &[AdaptiveRun], b: &[AdaptiveRun]) -> bool {
    let bits = |x: Bounds| (x.lower.to_bits(), x.upper.to_bits());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.sampled == y.sampled
                && x.population == y.population
                && x.rounds.len() == y.rounds.len()
                && x.rounds.iter().zip(&y.rounds).all(|(r, s)| {
                    r.pairs == s.pairs && r.max_halfwidth.to_bits() == s.max_halfwidth.to_bits()
                })
                && x.estimates.len() == y.estimates.len()
                && x.estimates.iter().zip(&y.estimates).all(|(e, f)| {
                    e.pairs == f.pairs
                        && bits(e.value) == bits(f.value)
                        && bits(e.halfwidth) == bits(f.halfwidth)
                })
        })
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// The end-to-end run: set-up time, pair and destination-group
/// throughput, group latency and peak memory.
pub fn run(
    kind: Kind,
    snaps: &[Snapshot],
    seed: u64,
    seconds: f64,
    par: Parallelism,
    checks: &mut Checks,
) -> Result<Report, String> {
    let mut setup_times = Vec::new();
    let mut setups = Vec::with_capacity(snaps.len());
    for snap in snaps {
        let mut setup = None;
        for _ in 0..SETUP_REPS {
            drop(setup.take());
            let t = Instant::now();
            setup = Some(build(kind, snapshot::load(snap)?));
            setup_times.push(secs(t));
        }
        setups.push(setup.expect("SETUP_REPS > 0"));
    }

    let mut rng = Rng::new(mix(seed, 0x7e51));
    let (mut pairs, mut wall, mut group_ms) = (0, 0.0, Vec::new());
    let start = Instant::now();
    let mut rep = 0;
    while rep == 0 || secs(start) < seconds {
        let setup = &setups[rep as usize % setups.len()];
        let (runs, w, recorded) = run_recorded(setup, &config(kind, seed, rep), par);
        pairs += runs[0].sampled.len();
        wall += w;
        group_ms.extend_from_slice(&recorded.group_ms);
        verify(
            setup,
            &runs,
            recorded.records,
            kind.verify_pairs(),
            &mut rng,
            checks,
        );
        rep += 1;
    }
    eprintln!(
        "{} snapshots of {} ASes, {} steps, {rep} estimates of {} pairs, {} threads",
        setups.len(),
        setups[0].net.len(),
        setups[0].deployments.len(),
        kind.budget(),
        par.0
    );

    let mut report = Report::default();
    report.put("setup_s", median(&setup_times), "s");
    report.put("pairs_per_s", pairs as f64 / wall, "1/s");
    report.put("query_p50_ms", quantile(&group_ms, 0.50), "ms");
    report.put("query_p95_ms", quantile(&group_ms, 0.95), "ms");
    report.put("queries_per_s", group_ms.len() as f64 / wall, "1/s");
    report.put("peak_rss_mb", peak_rss_mb(None)?, "MiB");
    Ok(report)
}

/// The traced run: one estimate per snapshot, untraced and traced, the two
/// compared bit for bit, and the per-layer metrics of the traced ones. The
/// work is fixed, so per-layer totals compare across commits.
pub fn run_trace(
    kind: Kind,
    snaps: &[Snapshot],
    seed: u64,
    par: Parallelism,
    checks: &mut Checks,
) -> Result<Report, String> {
    let mut load = LoadSpans::default();
    let mut universe_s = 0.0;
    let mut setups = Vec::with_capacity(snaps.len());
    for snap in snaps {
        let net = snapshot::load_traced(snap, &mut load)?;
        let t = Instant::now();
        setups.push(build(kind, net));
        universe_s += secs(t);
    }

    let mut rng = Rng::new(mix(seed, 0x7e51));
    let mut trace = Trace::default();
    let (mut plain_wall, mut traced_wall, mut rounds, mut pairs) = (0.0, 0.0, 0u64, 0u64);
    for (rep, setup) in setups.iter().enumerate() {
        let rep = rep as u64;
        // Alternate which pass goes first, so warm-up favours neither.
        let cfg = config(kind, seed, rep);
        let early = (rep % 2 == 1).then(|| run_traced(setup, &cfg, par));
        let (plain, w, recorded) = run_recorded(setup, &cfg, par);
        plain_wall += w;
        verify(
            setup,
            &plain,
            recorded.records,
            kind.verify_pairs(),
            &mut rng,
            checks,
        );
        let (traced, w, t) = early.unwrap_or_else(|| run_traced(setup, &cfg, par));
        traced_wall += w;
        trace.add(&t);
        checks.check(identical(&plain, &traced), || {
            format!("estimate {rep}: traced estimates differ from untraced ones")
        });
        rounds += traced[0].rounds.len() as u64;
        pairs += traced[0].sampled.len() as u64;
    }
    let threads = par.0 as f64;
    let coverage = trace.busy_s / (threads * traced_wall);
    let overhead = traced_wall / plain_wall;
    eprintln!(
        "span coverage {:.2}% of {threads} threads x {traced_wall:.3} s; \
         tracing overhead {overhead:.4}x ({traced_wall:.3} s traced vs {plain_wall:.3} s untraced)",
        coverage * 100.0
    );

    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let attacks = trace.delta.attacks();
    let sweep = &trace.sweep;
    let mut r = Report::default();
    r.put("core.base_s", trace.base_s, "s");
    r.put("core.base_calls", trace.base_calls as f64, "count");
    r.put("core.attack_s", trace.attack_s, "s");
    r.put("core.attacks", attacks as f64, "count");
    r.put(
        "core.attack_patched",
        trace.delta.delta_attacks as f64,
        "count",
    );
    r.put(
        "core.attack_fallback",
        trace.delta.full_recomputes as f64,
        "count",
    );
    r.put(
        "core.patch_ratio",
        ratio(trace.delta.delta_attacks, attacks),
        "ratio",
    );
    r.put(
        "core.forced_fallbacks",
        trace.fused.forced_fallbacks as f64,
        "count",
    );
    r.put(
        "core.collapsed_lanes",
        trace.fused.collapsed_lanes as f64,
        "count",
    );
    r.put("core.count_happy_s", trace.count_happy_s, "s");
    r.put("sweep.begin_from_s", trace.begin_from_s, "s");
    r.put("sweep.advance_wax_s", trace.advance_wax_s, "s");
    r.put("sweep.advance_wane_s", trace.advance_wane_s, "s");
    r.put("sweep.advances", trace.advances as f64, "count");
    r.put(
        "sweep.incremental_steps",
        sweep.incremental_steps as f64,
        "count",
    );
    r.put("sweep.monotone_steps", sweep.monotone_steps as f64, "count");
    r.put(
        "sweep.retracting_steps",
        sweep.retracting_steps as f64,
        "count",
    );
    r.put("sweep.fallback_steps", sweep.fallback_steps as f64, "count");
    r.put(
        "sweep.full_recomputes",
        sweep.full_recomputes as f64,
        "count",
    );
    r.put("sweep.refixed_ases", sweep.refixed_ases as f64, "count");
    r.put(
        "sweep.incremental_ratio",
        ratio(sweep.incremental_steps, trace.advances as usize),
        "ratio",
    );
    crate::put_topology(&mut r, &load, universe_s);
    r.put("runner.busy_s", trace.busy_s, "s");
    r.put("runner.idle_s", threads * traced_wall - trace.busy_s, "s");
    r.put("stats.rounds", rounds as f64, "count");
    r.put("stats.pairs", pairs as f64, "count");
    r.put("trace.coverage", coverage, "ratio");
    r.put("trace.overhead", overhead, "ratio");
    Ok(r)
}
