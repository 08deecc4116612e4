//! Churn benchmark, and the repo's one sweep-vs-scratch bench: a
//! wax-and-wane deployment trajectory (the Tier-2 rollout ladder of the
//! paper's §5 figures climbed to its peak and eroded back down) evaluated
//! from scratch (one [`Engine::compute`] per step) against the
//! retraction-capable [`SweepEngine`] path — cross-checked for identical
//! happy counts and emitted as `BENCH_churn.json` for the perf trajectory
//! and the CI bench-smoke job.
//!
//! Each half is timed on its own. The wax half is a monotone rollout, so
//! its ratio (`growth_speedup`) is what incremental sweeps buy the
//! rollout figures; the wane half is pure retractions, so its timings
//! isolate the engine's retraction path. The acceptance gate requires
//! those retraction steps to be at least 2× faster than the
//! full-recompute fallback at 4000 ASes, and `--validate` rejects a file
//! whose enforced gate is below it.
//!
//! ```text
//! bench_churn --asns 4000 --seed 42 --out BENCH_churn.json
//! bench_churn --validate BENCH_churn.json   # schema and gate check
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sbgp_bench::{require_gate, require_numbers, require_tag, validate_json};
use sbgp_core::{
    AttackScenario, Deployment, Engine, Policy, SecurityModel, SweepEngine, SweepStats,
};
use sbgp_sim::json::Json;
use sbgp_sim::{sample, scenario, Internet};
use sbgp_topology::AsId;

/// Timed repetitions per side; the minimum is reported.
const REPS: usize = 3;
/// Gate threshold: retraction steps vs the full-recompute fallback.
const GATE_SPEEDUP: f64 = 2.0;
/// Gate applies at this scale and above (the acceptance scenario).
const GATE_ASNS: usize = 4_000;

struct Args {
    asns: usize,
    seed: u64,
    peak: usize,
    out: PathBuf,
    validate: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        asns: 4_000,
        seed: 42,
        peak: 10,
        out: PathBuf::from("BENCH_churn.json"),
        validate: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--asns" => {
                a.asns = take("--asns")?
                    .parse()
                    .map_err(|_| "--asns wants a number".to_string())?
            }
            "--seed" => {
                a.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a number".to_string())?
            }
            "--peak" => {
                a.peak = take("--peak")?
                    .parse()
                    .map_err(|_| "--peak wants a number".to_string())?;
                if a.peak < 2 {
                    return Err("--peak wants at least 2 (one wax + one wane step)".into());
                }
            }
            "--out" => a.out = PathBuf::from(take("--out")?),
            "--validate" => a.validate = Some(PathBuf::from(take("--validate")?)),
            "--help" | "-h" => return Err("help requested".into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

/// Schema and gate check for an emitted JSON (the CI drift gate).
fn validate(path: &std::path::Path) -> Result<(), String> {
    validate_json(path, |doc| {
        require_tag(doc, "bench", "churn")?;
        require_numbers(
            doc,
            &[
                "asns",
                "seed",
                "peak",
                "steps",
                "pairs",
                "overall_speedup",
                "growth_speedup",
            ],
        )?;
        require_gate(doc, "retraction_speedup", GATE_ASNS as f64, GATE_SPEEDUP)?;
        for m in doc.req("models", "an array", Json::as_array)? {
            require_numbers(
                m,
                &[
                    "scratch_ms",
                    "sweep_ms",
                    "speedup",
                    "wax_scratch_ms",
                    "wax_sweep_ms",
                    "growth_speedup",
                    "wane_scratch_ms",
                    "wane_sweep_ms",
                    "retraction_speedup",
                    "retracting_steps",
                    "fallback_steps",
                    "refixed_fraction",
                ],
            )?;
        }
        Ok(())
    })
}

/// Wall times of one side: the whole trajectory and each half, summed
/// over the pairs.
#[derive(Clone, Copy, Default)]
struct Times {
    total: Duration,
    wax: Duration,
    wane: Duration,
}

impl Times {
    const MAX: Times = Times {
        total: Duration::MAX,
        wax: Duration::MAX,
        wane: Duration::MAX,
    };

    /// The per-field minimum: each side reports its best of [`REPS`].
    fn min(self, o: Times) -> Times {
        Times {
            total: self.total.min(o.total),
            wax: self.wax.min(o.wax),
            wane: self.wane.min(o.wane),
        }
    }
}

/// One timed pass over every pair: `run(pair, half, first)` walks the wax
/// half (`first` set) and then the wane half, returning the happy count
/// summed over the half's steps. Returns the pass's times and its total
/// happy count.
fn timed_pass(
    pairs: &[(AsId, AsId)],
    wax: &[Deployment],
    wane: &[Deployment],
    mut run: impl FnMut((AsId, AsId), &[Deployment], bool) -> usize,
) -> (Times, usize) {
    let mut times = Times::default();
    let mut happy = 0;
    let start = Instant::now();
    for &pair in pairs {
        let t_wax = Instant::now();
        happy += run(pair, wax, true);
        let t_wane = Instant::now();
        happy += run(pair, wane, false);
        times.wax += t_wane - t_wax;
        times.wane += t_wane.elapsed();
    }
    times.total = start.elapsed();
    (times, happy)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(scratch: Duration, sweep: Duration) -> f64 {
    scratch.as_secs_f64() / sweep.as_secs_f64().max(1e-12)
}

struct ModelResult {
    model: SecurityModel,
    scratch: Times,
    sweep: Times,
    stats: SweepStats,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("usage: [--asns N] [--seed S] [--peak P] [--out FILE] [--validate FILE]");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.validate {
        match validate(path) {
            Ok(()) => {
                println!("{}: churn bench schema ok", path.display());
                return;
            }
            Err(msg) => {
                eprintln!("schema drift: {msg}");
                std::process::exit(1);
            }
        }
    }

    let t0 = Instant::now();
    let net = Internet::synthetic(args.asns, args.seed);
    let traj = scenario::churn_trajectory(&net, args.peak);
    // The wax half climbs to the peak; the wane half (indices
    // peak..(2*peak-1)) is every one a pure retraction.
    let (wax, wane) = traj.split_at(args.peak);
    let attackers = sample::sample_non_stubs(&net, 3, args.seed);
    let dests: Vec<AsId> = sample::sample_all(&net, 2, args.seed ^ 0xD)
        .into_iter()
        .filter(|d| !attackers.contains(d))
        .collect();
    let pairs: Vec<(AsId, AsId)> = sample::pairs(&attackers, &dests);
    assert!(!pairs.is_empty(), "no (m, d) pairs sampled");
    println!(
        "graph synthetic-{} seed {}: generated in {:.1} ms",
        args.asns,
        args.seed,
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!(
        "trajectory: {} steps (peak {}, {} retraction steps); {} (m, d) pairs",
        traj.len(),
        args.peak,
        wane.len(),
        pairs.len()
    );
    println!();

    let mut results = Vec::new();
    for model in SecurityModel::ALL {
        let policy = Policy::with_variant(model, sbgp_core::LpVariant::Standard);

        // Side 1: every step from scratch — what the engine's fallback
        // does, and what a sweep without an incremental path would do for
        // every step.
        let mut scratch = Times::MAX;
        let mut scratch_counts = 0;
        let mut engine = Engine::new(&net.graph);
        for _ in 0..REPS {
            let (t, happy) = timed_pass(&pairs, wax, wane, |(m, d), steps, _| {
                let attack = AttackScenario::attack(m, d);
                steps
                    .iter()
                    .map(|dep| engine.compute(attack, dep, policy).count_happy().0)
                    .sum()
            });
            scratch = scratch.min(t);
            scratch_counts = happy;
        }

        // Side 2: one retraction-capable sweep per pair.
        let mut swept = Times::MAX;
        let mut sweep_counts = 0;
        let mut sweep = SweepEngine::new(&net.graph);
        let mut stats = SweepStats::default();
        for _ in 0..REPS {
            let before = sweep.stats();
            let (t, happy) = timed_pass(&pairs, wax, wane, |(m, d), steps, first| {
                if first {
                    sweep.begin(AttackScenario::attack(m, d), policy);
                }
                steps
                    .iter()
                    .map(|dep| {
                        sweep.advance(dep);
                        sweep.count_happy().0
                    })
                    .sum()
            });
            swept = swept.min(t);
            sweep_counts = happy;
            stats = sweep.stats().delta_since(&before);
        }

        assert_eq!(
            scratch_counts, sweep_counts,
            "{model}: churn sweep diverged from from-scratch outcomes"
        );
        let r = ModelResult {
            model,
            scratch,
            sweep: swept,
            stats,
        };
        println!(
            "{:<8} scratch {:>9.1} ms   sweep {:>9.1} ms   speedup {:>5.2}x   \
             growth steps {:>5.2}x   retraction steps {:>5.2}x   ({} retracting / \
             {} monotone / {} fallback steps, re-fixed {:>4.1}% of AS-steps)",
            r.model.label(),
            ms(r.scratch.total),
            ms(r.sweep.total),
            ratio(r.scratch.total, r.sweep.total),
            ratio(r.scratch.wax, r.sweep.wax),
            ratio(r.scratch.wane, r.sweep.wane),
            r.stats.retracting_steps,
            r.stats.monotone_steps,
            r.stats.fallback_steps,
            100.0 * r.stats.refixed_fraction(net.len())
        );
        results.push(r);
    }

    let sum = |f: fn(&ModelResult) -> Duration| results.iter().map(f).sum::<Duration>();
    let overall = ratio(sum(|r| r.scratch.total), sum(|r| r.sweep.total));
    let growth = ratio(sum(|r| r.scratch.wax), sum(|r| r.sweep.wax));
    let retraction = ratio(sum(|r| r.scratch.wane), sum(|r| r.sweep.wane));
    println!();
    println!(
        "overall speedup: {overall:.2}x; growth steps: {growth:.2}x; \
         retraction steps vs fallback: {retraction:.2}x"
    );

    let gated = args.asns >= GATE_ASNS;
    if gated {
        assert!(
            retraction >= GATE_SPEEDUP,
            "acceptance gate: retraction steps must be ≥{GATE_SPEEDUP}x the \
             full-recompute fallback at {GATE_ASNS}+ ASes, measured {retraction:.2}x"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"churn\",");
    let _ = writeln!(json, "  \"asns\": {},", net.graph.len());
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"peak\": {},", args.peak);
    let _ = writeln!(json, "  \"steps\": {},", traj.len());
    let _ = writeln!(json, "  \"pairs\": {},", pairs.len());
    let _ = writeln!(json, "  \"models\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"model\": \"{}\", \"scratch_ms\": {:.3}, \"sweep_ms\": {:.3}, \
             \"speedup\": {:.3}, \"wax_scratch_ms\": {:.3}, \"wax_sweep_ms\": {:.3}, \
             \"growth_speedup\": {:.3}, \"wane_scratch_ms\": {:.3}, \"wane_sweep_ms\": {:.3}, \
             \"retraction_speedup\": {:.3}, \"retracting_steps\": {}, \
             \"monotone_steps\": {}, \"fallback_steps\": {}, \"refixed_fraction\": {:.5}}}{}",
            r.model.label(),
            ms(r.scratch.total),
            ms(r.sweep.total),
            ratio(r.scratch.total, r.sweep.total),
            ms(r.scratch.wax),
            ms(r.sweep.wax),
            ratio(r.scratch.wax, r.sweep.wax),
            ms(r.scratch.wane),
            ms(r.sweep.wane),
            ratio(r.scratch.wane, r.sweep.wane),
            r.stats.retracting_steps,
            r.stats.monotone_steps,
            r.stats.fallback_steps,
            r.stats.refixed_fraction(net.len()),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"overall_speedup\": {overall:.3},");
    let _ = writeln!(json, "  \"growth_speedup\": {growth:.3},");
    let _ = writeln!(
        json,
        "  \"gate\": {{\"asns\": {}, \"threshold\": {GATE_SPEEDUP}, \"enforced\": {gated}, \
         \"retraction_speedup\": {retraction:.3}}}",
        net.graph.len()
    );
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!("wrote {}", args.out.display());
    if let Err(msg) = validate(&args.out) {
        eprintln!("self-check failed: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(name: &str, model: &str, gate: &str) -> Result<(), String> {
        let path = std::env::temp_dir().join(format!(
            "bench_churn_gate_{}_{name}.json",
            std::process::id()
        ));
        let text = format!(
            "{{\"bench\": \"churn\", \"asns\": 4000, \"seed\": 42, \"peak\": 10, \
             \"steps\": 19, \"pairs\": 6, \"models\": [{model}], \"overall_speedup\": 6.2, \
             \"growth_speedup\": 4.9, \"gate\": {gate}}}"
        );
        std::fs::write(&path, text).unwrap();
        let result = validate(&path);
        let _ = std::fs::remove_file(&path);
        result
    }

    const MODEL: &str = "{\"model\": \"Sec 1st\", \"scratch_ms\": 33, \"sweep_ms\": 5.4, \
                         \"speedup\": 6.2, \"wax_scratch_ms\": 18, \"wax_sweep_ms\": 3.6, \
                         \"growth_speedup\": 5, \"wane_scratch_ms\": 15, \"wane_sweep_ms\": 1.7, \
                         \"retraction_speedup\": 8.8, \"retracting_steps\": 54, \
                         \"monotone_steps\": 54, \"fallback_steps\": 0, \"refixed_fraction\": 0.05}";

    #[test]
    fn validate_enforces_the_retraction_gate() {
        let gate = |asns: u32, enforced: bool, speedup: f64| {
            format!(
                "{{\"asns\": {asns}, \"threshold\": 2, \"enforced\": {enforced}, \
                 \"retraction_speedup\": {speedup}}}"
            )
        };
        check("pass", MODEL, &gate(4000, true, 9.0)).unwrap();
        // Below the threshold is fine where the gate does not apply (the smoke).
        check("small", MODEL, &gate(600, false, 1.2)).unwrap();
        for (name, g) in [
            ("fail", gate(4000, true, 1.2)),
            ("claimed", gate(600, true, 1.2)),
        ] {
            let err = check(name, MODEL, &g).unwrap_err();
            assert!(err.contains("retraction_speedup 1.2 is below 2"), "{err}");
        }
        // The growth fields are required per model.
        let no_wax = MODEL.replace("\"wax_sweep_ms\"", "\"wax_sweep\"");
        let err = check("no_wax", &no_wax, &gate(4000, true, 9.0)).unwrap_err();
        assert!(err.contains("wax_sweep_ms"), "{err}");
    }
}
