//! The repository benchmark: the paper's estimation workload and the
//! planner service, end to end, with a separate traced run that breaks
//! the time down by layer.
//!
//! ```text
//! perfbench --workload baseline|churn|planner --seed N --seconds S --trace 0|1 \
//!           [--planner PATH]
//! ```
//!
//! Inputs are generated from `--seed` into a scratch directory under the
//! working directory and removed afterwards. An end-to-end run (`--trace
//! 0`) measures for `--seconds`; a traced run (`--trace 1`) does a fixed
//! amount of work. The last line of stdout is one JSON record: `correct`,
//! `attempted`, `failed` (correctness checks) and `metrics` — the
//! end-to-end metrics, or the per-layer ones when traced. Human-readable
//! lines go to stderr. The exit code is non-zero when any check fails.

mod estimate;
mod json;
mod planner;
mod snapshot;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use sbgp_core::SecurityModel;
use sbgp_sim::Parallelism;

use crate::estimate::Kind;
use crate::snapshot::LoadSpans;
use crate::util::{Checks, Report};

/// The security models every workload evaluates, in cell order.
const MODELS: [SecurityModel; 3] = [
    SecurityModel::Security1st,
    SecurityModel::Security2nd,
    SecurityModel::Security3rd,
];

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.base_s", "s"),
    ("core.base_calls", "count"),
    ("core.attack_s", "s"),
    ("core.attacks", "count"),
    ("core.attack_patched", "count"),
    ("core.attack_fallback", "count"),
    ("core.patch_ratio", "ratio"),
    ("core.forced_fallbacks", "count"),
    ("core.collapsed_lanes", "count"),
    ("core.count_happy_s", "s"),
    ("sweep.begin_from_s", "s"),
    ("sweep.advance_wax_s", "s"),
    ("sweep.advance_wane_s", "s"),
    ("sweep.advances", "count"),
    ("sweep.incremental_steps", "count"),
    ("sweep.monotone_steps", "count"),
    ("sweep.retracting_steps", "count"),
    ("sweep.fallback_steps", "count"),
    ("sweep.full_recomputes", "count"),
    ("sweep.refixed_ases", "count"),
    ("sweep.incremental_ratio", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.answer_exact_s", "s"),
    ("serve.answer_estimate_s", "s"),
    ("serve.queries_exact", "count"),
    ("serve.queries_estimate", "count"),
    ("serve.parse_s", "s"),
    ("serve.frame_io_s", "s"),
    ("topology.parse_s", "s"),
    ("topology.classify_s", "s"),
    ("topology.ases", "count"),
    ("topology.edges", "count"),
    ("stats.universe_s", "s"),
    ("runner.busy_s", "s"),
    ("runner.idle_s", "s"),
    ("stats.rounds", "count"),
    ("stats.pairs", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Snapshots a run cycles through: throughput on one synthetic topology
/// depends on that topology, so a run averages over several. Each
/// snapshot of the planner workload gets its own planner process.
const ESTIMATION_SNAPSHOTS: usize = 6;
const PLANNER_SNAPSHOTS: usize = 3;

/// The `topology` layer's metrics and the universe build time.
pub fn put_topology(r: &mut Report, load: &LoadSpans, universe_s: f64) {
    r.put("topology.parse_s", load.parse_s, "s");
    r.put("topology.classify_s", load.classify_s, "s");
    r.put("topology.ases", load.ases as f64, "count");
    r.put("topology.edges", load.edges as f64, "count");
    r.put("stats.universe_s", universe_s, "s");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    planner: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut planner = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            "--planner" => planner = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        planner,
    })
}

/// Parent of every run's scratch directory, under the working directory.
const WORK_ROOT: &str = ".bench_work";

/// A run's scratch directory, removed on drop (with the parent, once no
/// other run is using it).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn run(args: &Args, checks: &mut Checks) -> Result<Report, String> {
    let kind = match args.workload.as_str() {
        "baseline" => Some(Kind::Baseline),
        "churn" => Some(Kind::Churn),
        "planner" => None,
        other => {
            return Err(format!(
                "unknown workload {other:?} (baseline|churn|planner)"
            ))
        }
    };
    let dir = WorkDir(PathBuf::from(format!(
        "{WORK_ROOT}/{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let count = if kind.is_some() {
        ESTIMATION_SNAPSHOTS
    } else {
        PLANNER_SNAPSHOTS
    };
    let snaps = snapshot::write_all(&dir.0, args.seed, count)?;
    let par = Parallelism::auto();
    let (seed, secs) = (args.seed, args.seconds);
    let mut report = match (kind, args.trace) {
        (Some(kind), false) => estimate::run(kind, &snaps, seed, secs, par, checks)?,
        (Some(kind), true) => estimate::run_trace(kind, &snaps, seed, par, checks)?,
        (None, trace) => {
            let bin = args
                .planner
                .as_deref()
                .ok_or("the planner workload needs --planner")?;
            if trace {
                planner::run_trace(bin, &snaps, seed, par, checks)?
            } else {
                planner::run(bin, &snaps, seed, secs, par, checks)?
            }
        }
    };
    if args.trace {
        report.complete(PER_LAYER);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    match run(&args, &mut checks) {
        Ok(report) => {
            eprintln!(
                "{} (seed {}, {} pass):",
                args.workload,
                args.seed,
                if args.trace { "traced" } else { "end-to-end" }
            );
            report.print(&checks);
            if checks.failed == 0 && checks.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
