//! Churn benchmark: a wax-and-wane deployment trajectory (the Tier-2
//! ladder climbed to its peak and eroded back down) evaluated from
//! scratch (one [`Engine::compute`] per step) against the retraction-
//! capable [`SweepEngine`] path — cross-checked for identical happy
//! counts and emitted as `BENCH_churn.json` for the perf trajectory and
//! the CI bench-smoke job.
//!
//! The wane half is pure retractions, so its timings isolate the engine's
//! retraction path; the acceptance gate requires those steps to be at
//! least 2× faster than the full-recompute fallback at 4000 ASes.
//!
//! ```text
//! bench_churn --asns 4000 --seed 42 --out BENCH_churn.json
//! bench_churn --validate BENCH_churn.json   # schema drift check
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sbgp_bench::{require_numbers, require_tag, validate_json};
use sbgp_core::{AttackScenario, Engine, Policy, SecurityModel, SweepEngine, SweepStats};
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

/// Schema check for an emitted JSON (the CI drift gate).
fn validate(path: &std::path::Path) -> Result<(), String> {
    validate_json(path, |doc| {
        require_tag(doc, "bench", "churn")?;
        require_numbers(
            doc,
            &["asns", "seed", "peak", "steps", "pairs", "overall_speedup"],
        )?;
        doc.req("gate", "an object", Json::as_object)?;
        for m in doc.req("models", "an array", Json::as_array)? {
            require_numbers(
                m,
                &[
                    "scratch_ms",
                    "sweep_ms",
                    "speedup",
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

struct ModelResult {
    model: SecurityModel,
    scratch_ms: f64,
    sweep_ms: f64,
    wane_scratch_ms: f64,
    wane_sweep_ms: f64,
    stats: SweepStats,
}

impl ModelResult {
    fn speedup(&self) -> f64 {
        self.scratch_ms / self.sweep_ms.max(1e-9)
    }
    fn retraction_speedup(&self) -> f64 {
        self.wane_scratch_ms / self.wane_sweep_ms.max(1e-9)
    }
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
    // The wane half: indices peak..(2*peak-1), every one a pure retraction.
    let wane_from = args.peak;
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
        traj.len() - wane_from,
        pairs.len()
    );
    println!();

    let mut results = Vec::new();
    for model in SecurityModel::ALL {
        let policy = Policy::with_variant(model, sbgp_core::LpVariant::Standard);

        // Side 1: every step from scratch — what the engine's fallback
        // does, and what a sweep without a retraction path would do for
        // every wane step.
        let mut scratch = Duration::MAX;
        let mut wane_scratch = Duration::MAX;
        let mut scratch_counts = 0usize;
        let mut engine = Engine::new(&net.graph);
        for _ in 0..REPS {
            let mut wane = Duration::ZERO;
            let t = Instant::now();
            scratch_counts = 0;
            for &(m, d) in &pairs {
                for (k, dep) in traj.iter().enumerate() {
                    let t_step = Instant::now();
                    let o = engine.compute(AttackScenario::attack(m, d), dep, policy);
                    scratch_counts += o.count_happy().0;
                    if k >= wane_from {
                        wane += t_step.elapsed();
                    }
                }
            }
            scratch = scratch.min(t.elapsed());
            wane_scratch = wane_scratch.min(wane);
        }

        // Side 2: one retraction-capable sweep per pair.
        let mut swept = Duration::MAX;
        let mut wane_swept = Duration::MAX;
        let mut sweep_counts = 0usize;
        let mut sweep = SweepEngine::new(&net.graph);
        let mut stats = SweepStats::default();
        for _ in 0..REPS {
            let before = sweep.stats();
            let mut wane = Duration::ZERO;
            let t = Instant::now();
            sweep_counts = 0;
            for &(m, d) in &pairs {
                sweep.begin(AttackScenario::attack(m, d), policy);
                for (k, dep) in traj.iter().enumerate() {
                    let t_step = Instant::now();
                    sweep.advance(dep);
                    sweep_counts += sweep.count_happy().0;
                    if k >= wane_from {
                        wane += t_step.elapsed();
                    }
                }
            }
            swept = swept.min(t.elapsed());
            wane_swept = wane_swept.min(wane);
            stats = sweep.stats().delta_since(&before);
        }

        assert_eq!(
            scratch_counts, sweep_counts,
            "{model}: churn sweep diverged from from-scratch outcomes"
        );
        let r = ModelResult {
            model,
            scratch_ms: scratch.as_secs_f64() * 1e3,
            sweep_ms: swept.as_secs_f64() * 1e3,
            wane_scratch_ms: wane_scratch.as_secs_f64() * 1e3,
            wane_sweep_ms: wane_swept.as_secs_f64() * 1e3,
            stats,
        };
        println!(
            "{:<8} scratch {:>9.1} ms   sweep {:>9.1} ms   speedup {:>5.2}x   \
             retraction steps {:>5.2}x   ({} retracting / {} monotone / {} fallback steps, \
             re-fixed {:>4.1}% of AS-steps)",
            r.model.label(),
            r.scratch_ms,
            r.sweep_ms,
            r.speedup(),
            r.retraction_speedup(),
            r.stats.retracting_steps,
            r.stats.monotone_steps,
            r.stats.fallback_steps,
            100.0 * r.stats.refixed_fraction(net.len())
        );
        results.push(r);
    }

    let scratch_total: f64 = results.iter().map(|r| r.scratch_ms).sum();
    let sweep_total: f64 = results.iter().map(|r| r.sweep_ms).sum();
    let overall = scratch_total / sweep_total.max(1e-9);
    let wane_scratch_total: f64 = results.iter().map(|r| r.wane_scratch_ms).sum();
    let wane_sweep_total: f64 = results.iter().map(|r| r.wane_sweep_ms).sum();
    let retraction = wane_scratch_total / wane_sweep_total.max(1e-9);
    println!();
    println!("overall speedup: {overall:.2}x; retraction steps vs fallback: {retraction:.2}x");

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
             \"speedup\": {:.3}, \"wane_scratch_ms\": {:.3}, \"wane_sweep_ms\": {:.3}, \
             \"retraction_speedup\": {:.3}, \"retracting_steps\": {}, \
             \"monotone_steps\": {}, \"fallback_steps\": {}, \"refixed_fraction\": {:.5}}}{}",
            r.model.label(),
            r.scratch_ms,
            r.sweep_ms,
            r.speedup(),
            r.wane_scratch_ms,
            r.wane_sweep_ms,
            r.retraction_speedup(),
            r.stats.retracting_steps,
            r.stats.monotone_steps,
            r.stats.fallback_steps,
            r.stats.refixed_fraction(net.len()),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"overall_speedup\": {overall:.3},");
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
