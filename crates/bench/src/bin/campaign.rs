//! The large-graph estimation campaign runner.
//!
//! Runs a (figure × asns × seed × model) grid of stratified-estimation
//! cells — synthetic graphs up to 40k ASes and beyond — with **per-cell
//! JSON checkpointing and resume**: every finished cell is written
//! atomically to the checkpoint directory, so a killed campaign restarted
//! with the same flags recomputes only the missing cells. The assembled
//! `BENCH_campaign.json` records wall-clock, pairs/sec and the CI-width
//! trajectory of every cell, and feeds the CI bench-smoke job.
//!
//! The model axis is **fused**: all models of one `(figure, asns, seed)`
//! group run through a single multi-cell estimator pass
//! (`estimate_metric_sweep_cells` & friends), so one snapshot traversal serves
//! every model's lane — and at zero validators the models collapse onto
//! one computation outright. Fused ≡ per-model bit for bit (pinned in
//! `sbgp_sim::stats`), and a cell's estimates are independent of which
//! lanes share its pass (the adaptive round schedule depends only on the
//! universe and seed), so checkpoints stay per-model cells with the
//! `campaign-cell-v1` schema and resume granularity is unchanged: a
//! restarted group fuses only its *missing* model cells.
//!
//! The graph axis is synthetic by default; `--file <as-rel>` swaps it for
//! a **parsed CAIDA snapshot next to its synthetic twin** — each seed runs
//! every figure × model cell on the parsed graph *and* on a synthetic
//! graph of the same size, so real-snapshot numbers always sit beside a
//! like-for-like baseline. Parsed cells carry the snapshot name in their
//! checkpoint id and an extra `"graph"` field in their JSON; synthetic
//! cells keep their existing ids and bytes, so old checkpoints and the
//! committed campaign JSON stay valid. `--cps <asn,asn,...>` names the
//! content providers by real ASN (resolved through the snapshot's
//! labels).
//!
//! `--workers N` swaps the in-process thread pool for a **supervised
//! fleet of N worker processes** (this binary re-invoked with
//! `--worker`), speaking length-prefixed JSON over stdin/stdout: worker
//! crashes, hangs and garbage replies walk a retry ladder (kill →
//! exponential-backoff respawn → reassign → after `--strikes` failures
//! mark the cell *degraded* and keep going), and the merge order is
//! group-exact, so an N-worker run is **bit-identical** to the
//! single-process run. Every checkpoint carries an FNV-1a content
//! checksum; resume quarantines torn/corrupted/zero-byte cells to
//! `<name>.json.quarantined` and recomputes them, and `--validate`
//! audits the checksums of an assembled campaign JSON. `--fault-plan`
//! arms deterministic fault injection (`sbgp_sim::faultpoint`; needs the
//! `fault-injection` build feature) to exercise all of the above.
//!
//! ```text
//! campaign --figures baseline,rollout --asns 4000,40000 --seeds 42 \
//!          --models sec1,sec2,sec3 --pairs 2000 --ci 0.01
//! campaign --file cyclops.as-rel --cps 15169,8075 --seeds 42
//! campaign --smoke                 # the tiny CI grid
//! campaign --smoke --workers 4     # same bytes, four worker processes
//! campaign --validate BENCH_campaign.json   # schema drift check
//! ```

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sbgp_bench::sweep_rollout_steps;
use sbgp_core::{AttackStrategy, Deployment, Policy, SecurityModel};
use sbgp_sim::faultpoint;
use sbgp_sim::stats::{self, AdaptiveRun, EstimatorConfig, PairUniverse};
use sbgp_sim::supervise::{self, Supervisor, SupervisorConfig, WorkerMsg};
use sbgp_sim::{Internet, Parallelism};
use sbgp_topology::AsId;

/// Cell-file schema marker; bump on any layout change.
const CELL_SCHEMA: &str = "campaign-cell-v1";
/// Top-level schema marker.
const CAMPAIGN_SCHEMA: &str = "campaign-v1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Figure {
    /// `H_{V,V}(∅)` — the §4.2 baseline.
    Baseline,
    /// `H_{M',V}(S_k)` along a monotone Tier-2 rollout.
    Rollout,
    /// The per-pair optimal forged-path ladder at `S = ∅`.
    Ladder,
}

impl Figure {
    fn parse(s: &str) -> Result<Figure, String> {
        match s {
            "baseline" => Ok(Figure::Baseline),
            "rollout" => Ok(Figure::Rollout),
            "ladder" => Ok(Figure::Ladder),
            other => Err(format!(
                "unknown figure {other:?} (baseline|rollout|ladder)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Figure::Baseline => "baseline",
            Figure::Rollout => "rollout",
            Figure::Ladder => "ladder",
        }
    }
}

fn model_token(m: SecurityModel) -> &'static str {
    match m {
        SecurityModel::Security1st => "sec1",
        SecurityModel::Security2nd => "sec2",
        SecurityModel::Security3rd => "sec3",
    }
}

fn parse_model(s: &str) -> Result<SecurityModel, String> {
    match s {
        "sec1" => Ok(SecurityModel::Security1st),
        "sec2" => Ok(SecurityModel::Security2nd),
        "sec3" => Ok(SecurityModel::Security3rd),
        other => Err(format!("unknown model {other:?} (sec1|sec2|sec3)")),
    }
}

#[derive(Clone, Debug)]
struct Args {
    figures: Vec<Figure>,
    asns: Vec<usize>,
    seeds: Vec<u64>,
    models: Vec<SecurityModel>,
    ci: Option<f64>,
    pairs: u64,
    rollout_steps: usize,
    threads: Parallelism,
    checkpoint_dir: PathBuf,
    out: PathBuf,
    validate: Option<PathBuf>,
    file: Option<PathBuf>,
    cps: Vec<u32>,
    /// Number of supervised worker processes; 0 = in-process thread pool.
    workers: usize,
    /// Run as a supervised worker child (internal; set by the coordinator).
    worker: bool,
    /// Worker incarnation id (internal; distinguishes respawns in fault
    /// plans and diagnostics).
    worker_id: u64,
    fault_plan: Option<PathBuf>,
    watchdog_ms: u64,
    strikes: u32,
    backoff_ms: u64,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            figures: vec![Figure::Baseline, Figure::Rollout],
            asns: vec![4_000],
            seeds: vec![42],
            models: SecurityModel::ALL.to_vec(),
            ci: None,
            pairs: 2_000,
            rollout_steps: 5,
            threads: Parallelism::auto(),
            checkpoint_dir: PathBuf::from("campaign_ckpt"),
            out: PathBuf::from("BENCH_campaign.json"),
            validate: None,
            file: None,
            cps: Vec::new(),
            workers: 0,
            worker: false,
            worker_id: 0,
            fault_plan: None,
            watchdog_ms: 120_000,
            strikes: 3,
            backoff_ms: 50,
        }
    }
}

fn parse_list<T, E: std::fmt::Display>(
    s: &str,
    f: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| f(t.trim()).map_err(|e| e.to_string()))
        .collect()
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    let mut asns_explicit = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--figures" => a.figures = parse_list(&take("--figures")?, Figure::parse)?,
            "--asns" => {
                a.asns = parse_list(&take("--asns")?, |t| t.parse::<usize>())?;
                asns_explicit = true;
            }
            "--seeds" => a.seeds = parse_list(&take("--seeds")?, |t| t.parse::<u64>())?,
            "--models" => a.models = parse_list(&take("--models")?, parse_model)?,
            "--ci" => {
                let target: f64 = take("--ci")?
                    .parse()
                    .map_err(|_| "--ci wants a number".to_string())?;
                // Same contract as the shared figure CLI: a fractional
                // half-width, not percentage points.
                if !(target > 0.0 && target < 1.0) {
                    return Err(format!("--ci wants a half-width in (0, 1), got {target}"));
                }
                a.ci = Some(target);
            }
            "--pairs" => {
                a.pairs = take("--pairs")?
                    .parse()
                    .map_err(|_| "--pairs wants a number".to_string())?
            }
            "--rollout-steps" => {
                a.rollout_steps = take("--rollout-steps")?
                    .parse()
                    .map_err(|_| "--rollout-steps wants a number".to_string())?
            }
            "--threads" => {
                a.threads = Parallelism(
                    take("--threads")?
                        .parse()
                        .map_err(|_| "--threads wants a number".to_string())?,
                )
            }
            "--checkpoint-dir" => a.checkpoint_dir = PathBuf::from(take("--checkpoint-dir")?),
            "--out" => a.out = PathBuf::from(take("--out")?),
            "--validate" => a.validate = Some(PathBuf::from(take("--validate")?)),
            "--file" => a.file = Some(PathBuf::from(take("--file")?)),
            "--cps" => a.cps = parse_list(&take("--cps")?, |t| t.parse::<u32>())?,
            "--workers" => {
                a.workers = take("--workers")?
                    .parse()
                    .map_err(|_| "--workers wants a number".to_string())?
            }
            "--worker" => a.worker = true,
            "--worker-id" => {
                a.worker_id = take("--worker-id")?
                    .parse()
                    .map_err(|_| "--worker-id wants a number".to_string())?
            }
            "--fault-plan" => a.fault_plan = Some(PathBuf::from(take("--fault-plan")?)),
            "--watchdog-ms" => {
                a.watchdog_ms = take("--watchdog-ms")?
                    .parse()
                    .map_err(|_| "--watchdog-ms wants a number".to_string())?
            }
            "--strikes" => {
                a.strikes = take("--strikes")?
                    .parse()
                    .map_err(|_| "--strikes wants a number".to_string())?;
                if a.strikes == 0 {
                    return Err("--strikes wants at least 1".into());
                }
            }
            "--backoff-ms" => {
                a.backoff_ms = take("--backoff-ms")?
                    .parse()
                    .map_err(|_| "--backoff-ms wants a number".to_string())?
            }
            "--smoke" => {
                // The CI grid: small enough for a PR gate, still covering
                // two figures, every model, checkpoint + resume and the
                // full JSON schema. Writes to scratch paths so running it
                // from the repo root never clobbers the committed
                // release-grid BENCH_campaign.json (later --out /
                // --checkpoint-dir flags still override).
                a.figures = vec![Figure::Baseline, Figure::Rollout];
                a.asns = vec![400];
                a.seeds = vec![11];
                a.models = SecurityModel::ALL.to_vec();
                a.pairs = 300;
                a.rollout_steps = 3;
                a.out = PathBuf::from("BENCH_campaign_smoke.json");
                a.checkpoint_dir = PathBuf::from("campaign_smoke_ckpt");
            }
            "--help" | "-h" => return Err("help requested".into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.figures.is_empty() || a.asns.is_empty() || a.seeds.is_empty() || a.models.is_empty() {
        return Err("empty grid axis".into());
    }
    if !a.cps.is_empty() && a.file.is_none() {
        return Err("--cps only makes sense with --file (real ASNs need a snapshot)".into());
    }
    if asns_explicit && a.file.is_some() {
        return Err("--asns conflicts with --file (the snapshot fixes the graph size)".into());
    }
    Ok(a)
}

/// Minimal field extraction from our own cell JSON (numbers only; the
/// files are machine-written, never hand-edited).
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].split('.').next()?.parse().ok()
}

struct CellOutcome {
    id: String,
    json: String,
    wall_ms: f64,
    pairs: u64,
    resumed: bool,
    /// Some destination groups were lost to worker strikes; the cell's
    /// estimates cover only the surviving sample.
    degraded: bool,
}

/// Statistics tracked per pair for a figure — `"steps"` in the cell JSON,
/// and part of the resume-compatibility check.
fn expected_steps(figure: Figure, args: &Args) -> usize {
    match figure {
        Figure::Baseline => 1,
        Figure::Rollout => args.rollout_steps + 1, // ∅ first
        Figure::Ladder => AttackStrategy::LADDER.len() + 1, // rungs + optimal
    }
}

/// Render one cell's JSON object (two-space indent under `cells`).
///
/// `graph` is `Some(label)` for parsed-snapshot cells only; synthetic
/// cells omit the field entirely so their bytes (and the committed
/// release-grid JSON) are unchanged.
#[allow(clippy::too_many_arguments)]
fn cell_json(
    figure: Figure,
    asns: usize,
    seed: u64,
    model: SecurityModel,
    graph: Option<&str>,
    args: &Args,
    run: &AdaptiveRun,
    step_count: usize,
    wall_ms: f64,
) -> String {
    let pairs = run.sampled.len() as u64;
    let pairs_per_sec = pairs as f64 / (wall_ms / 1e3).max(1e-9);
    let mut j = String::new();
    let _ = writeln!(j, "    {{");
    let _ = writeln!(j, "      \"schema\": \"{CELL_SCHEMA}\",");
    let _ = writeln!(j, "      \"figure\": \"{}\",", figure.name());
    let _ = writeln!(j, "      \"asns\": {asns},");
    if let Some(g) = graph {
        let _ = writeln!(j, "      \"graph\": \"{g}\",");
    }
    let _ = writeln!(j, "      \"seed\": {seed},");
    let _ = writeln!(j, "      \"model\": \"{}\",", model_token(model));
    let _ = writeln!(j, "      \"steps\": {step_count},");
    let _ = writeln!(j, "      \"budget\": {},", args.pairs);
    match args.ci {
        Some(t) => {
            let _ = writeln!(j, "      \"ci_target\": {t},");
        }
        None => {
            let _ = writeln!(j, "      \"ci_target\": null,");
        }
    }
    let _ = writeln!(j, "      \"population\": {},", run.population);
    let _ = writeln!(j, "      \"strata\": {},", run.strata);
    let _ = writeln!(j, "      \"pairs\": {pairs},");
    if run.lost_groups > 0 || run.lost_pairs > 0 {
        // Supervised-run damage report: these groups exhausted the retry
        // ladder. The estimates below cover only the surviving sample;
        // resume never trusts a degraded cell, so a rerun repairs it.
        let _ = writeln!(j, "      \"degraded\": true,");
        let _ = writeln!(j, "      \"lost_groups\": {},", run.lost_groups);
        let _ = writeln!(j, "      \"lost_pairs\": {},", run.lost_pairs);
    }
    let _ = writeln!(j, "      \"wall_ms\": {wall_ms:.3},");
    let _ = writeln!(j, "      \"pairs_per_sec\": {pairs_per_sec:.3},");
    let _ = writeln!(j, "      \"max_halfwidth\": {:.6},", run.max_halfwidth());
    let _ = writeln!(j, "      \"ci_trajectory\": [");
    for (i, r) in run.rounds.iter().enumerate() {
        let _ = writeln!(
            j,
            "        {{\"pairs\": {}, \"max_halfwidth\": {:.6}}}{}",
            r.pairs,
            r.max_halfwidth,
            if i + 1 < run.rounds.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "      ],");
    let _ = writeln!(j, "      \"estimates\": [");
    for (k, e) in run.estimates.iter().enumerate() {
        let _ = writeln!(
            j,
            "        {{\"step\": {k}, \"lower\": {:.6}, \"upper\": {:.6}, \
             \"hw_lower\": {:.6}, \"hw_upper\": {:.6}}}{}",
            e.value.lower,
            e.value.upper,
            e.halfwidth.lower,
            e.halfwidth.upper,
            if k + 1 < run.estimates.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "      ]");
    let _ = write!(j, "    }}");
    // Self-embedded content checksum (the `"checksum":` line elides
    // itself from the hash), so resume and --validate can detect any
    // corruption of the surrounding bytes.
    let sum = supervise::checksum_hex(&j);
    let anchor = format!("      \"schema\": \"{CELL_SCHEMA}\",\n");
    let pos = j.find(&anchor).expect("schema line") + anchor.len();
    j.insert_str(pos, &format!("      \"checksum\": \"{sum}\",\n"));
    j
}

/// The checkpoint file name of one model cell. Parsed-snapshot cells
/// prefix the size with the snapshot label, so they never collide with
/// their synthetic twin's checkpoints (whose ids keep the historical
/// format).
fn cell_id(
    figure: Figure,
    asns: usize,
    seed: u64,
    model: SecurityModel,
    graph: Option<&str>,
) -> String {
    match graph {
        Some(g) => format!(
            "{}_{}-{}_{}_{}",
            figure.name(),
            g,
            asns,
            seed,
            model_token(model)
        ),
        None => format!("{}_{}_{}_{}", figure.name(), asns, seed, model_token(model)),
    }
}

/// Move a damaged checkpoint aside so it is never trusted again (and a
/// human can still autopsy it), then warn.
fn quarantine(path: &Path, cell_id: &str, why: &str) {
    let qpath = path.with_extension("json.quarantined");
    match std::fs::rename(path, &qpath) {
        Ok(()) => eprintln!(
            "warning: cell {cell_id}: checkpoint {why}; quarantined to {}, recomputing",
            qpath.display()
        ),
        Err(e) => eprintln!(
            "warning: cell {cell_id}: checkpoint {why}; quarantine rename failed ({e}), recomputing"
        ),
    }
}

/// Attempt to reuse one model cell from its checkpoint file.
///
/// Integrity comes first: a zero-byte file (a crashed `write(2)` that got
/// as far as `create`), a torn tail, or an embedded-checksum mismatch is
/// **quarantined** to `<name>.json.quarantined` and recomputed — resume
/// never trusts checkpoint bytes it cannot verify. A checkpoint that
/// predates content checksums, or one marked `"degraded"` by a supervised
/// run, is recomputed in place (the file itself is healthy).
fn try_resume(
    figure: Figure,
    net: &Internet,
    seed: u64,
    model: SecurityModel,
    graph: Option<&str>,
    args: &Args,
) -> Option<CellOutcome> {
    let cell_id = cell_id(figure, net.graph.len(), seed, model, graph);
    let path = args.checkpoint_dir.join(format!("{cell_id}.json"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!("warning: cell {cell_id}: cannot read checkpoint: {e}; recomputing");
            return None;
        }
    };
    let complete = text.contains(&format!("\"schema\": \"{CELL_SCHEMA}\"")) && text.ends_with('}');
    let damage = if text.is_empty() {
        Some("is zero bytes (torn write)")
    } else if !complete {
        Some("is torn or not a campaign cell")
    } else {
        match supervise::verify_checksum(&text) {
            supervise::ChecksumStatus::Valid | supervise::ChecksumStatus::Missing => None,
            supervise::ChecksumStatus::Mismatch => Some("fails its content checksum"),
        }
    };
    if let Some(why) = damage {
        quarantine(&path, &cell_id, why);
        return None;
    }
    if matches!(
        supervise::verify_checksum(&text),
        supervise::ChecksumStatus::Missing
    ) {
        // Healthy pre-hardening checkpoint: recompute (don't quarantine)
        // so every trusted cell carries a checksum going forward.
        println!("cell {cell_id}: checkpoint predates content checksums, recomputing");
        return None;
    }
    if text.contains("\"degraded\": true") {
        println!("cell {cell_id}: checkpoint is degraded (lost groups), recomputing to repair");
        return None;
    }
    // A reusable checkpoint was also produced under the *same estimation
    // parameters* — we write these lines ourselves, so exact string
    // matches are a full check. A rerun with a different --pairs / --ci
    // / --rollout-steps recomputes the cell instead of silently reusing
    // stale estimates under a new grid header.
    let ci_line = match args.ci {
        Some(t) => format!("\"ci_target\": {t},"),
        None => "\"ci_target\": null,".to_string(),
    };
    let same_params = text.contains(&format!("\"budget\": {},", args.pairs))
        && text.contains(&ci_line)
        && text.contains(&format!("\"steps\": {},", expected_steps(figure, args)));
    if !same_params {
        println!("cell {cell_id}: checkpoint has different estimation parameters, recomputing");
        return None;
    }
    let wall_ms = json_u64(&text, "wall_ms").unwrap_or(0) as f64;
    let pairs = json_u64(&text, "pairs").unwrap_or(0);
    println!("cell {cell_id}: resumed from checkpoint");
    Some(CellOutcome {
        id: cell_id,
        json: text,
        wall_ms,
        pairs,
        resumed: true,
        degraded: false,
    })
}

/// Write one cell checkpoint atomically (tmp + rename), warning and
/// continuing on I/O failure — a lost checkpoint only costs a recompute
/// on the next resume, never the campaign. The `ckpt.write` /
/// `ckpt.rename` fault points tear, corrupt or drop the write under a
/// `--fault-plan` to prove exactly that.
fn write_checkpoint(dir: &Path, cell_id: &str, json: &str) {
    let path = dir.join(format!("{cell_id}.json"));
    let tmp = dir.join(format!("{cell_id}.json.tmp"));
    let mut content = json.to_string();
    match faultpoint::check("ckpt.write", cell_id) {
        Some(faultpoint::Fault::Torn) => {
            content.truncate(content.len() / 2);
            eprintln!("faultpoint: tearing checkpoint {cell_id}");
        }
        Some(faultpoint::Fault::Corrupt) => {
            // Flip one digit mid-file: still valid UTF-8 and JSON, but
            // the content checksum no longer matches.
            if let Some(pos) = content.rfind(|c: char| c.is_ascii_digit()) {
                let b = content.as_bytes()[pos];
                let flipped = (b'0' + (b - b'0' + 1) % 10) as char;
                content.replace_range(pos..pos + 1, &flipped.to_string());
            }
            eprintln!("faultpoint: corrupting checkpoint {cell_id}");
        }
        Some(faultpoint::Fault::Garbage) => {
            content = "garbage\n".to_string();
            eprintln!("faultpoint: scribbling over checkpoint {cell_id}");
        }
        Some(faultpoint::Fault::Err) => {
            eprintln!(
                "faultpoint: simulated ENOSPC writing checkpoint {cell_id}; \
                 continuing without checkpoint"
            );
            return;
        }
        None => {}
    }
    if let Err(e) = std::fs::write(&tmp, &content) {
        eprintln!(
            "warning: cannot write checkpoint {}: {e}; continuing without checkpoint",
            tmp.display()
        );
        return;
    }
    if faultpoint::check("ckpt.rename", cell_id).is_some() {
        // A crash between write and rename: the tmp file survives, the
        // final name never appears.
        eprintln!("faultpoint: simulated rename failure for checkpoint {cell_id}");
        return;
    }
    if let Err(e) = std::fs::rename(&tmp, &path) {
        eprintln!(
            "warning: cannot finalize checkpoint {}: {e}; continuing without checkpoint",
            path.display()
        );
    }
}

/// Run every model cell of one `(figure, graph, seed)` group — one fused
/// multi-cell estimator pass serving every model whose checkpoint is
/// missing or stale, while present cells resume untouched (each cell's
/// estimates don't depend on which lanes shared its pass, so partial
/// groups recompute only their gaps). Results are in `args.models`
/// order, one [`CellOutcome`] per model; wall-clock is attributed evenly
/// across the group's computed cells, so per-cell `pairs_per_sec`
/// reflects the fused amortization.
///
/// With `sup` set, the group's destination groups are sharded across the
/// supervised worker fleet instead of the in-process pool; merge order is
/// group-exact, so the estimates are bit-identical either way.
fn run_figure_group(
    figure: Figure,
    net: &Internet,
    seed: u64,
    graph: Option<&str>,
    args: &Args,
    sup: Option<&mut Supervisor>,
) -> Vec<CellOutcome> {
    let resumed: Vec<Option<CellOutcome>> = args
        .models
        .iter()
        .map(|&m| try_resume(figure, net, seed, m, graph, args))
        .collect();
    let missing: Vec<SecurityModel> = args
        .models
        .iter()
        .zip(&resumed)
        .filter(|(_, r)| r.is_none())
        .map(|(&m, _)| m)
        .collect();
    if missing.is_empty() {
        return resumed.into_iter().flatten().collect();
    }

    let est = {
        let mut e = EstimatorConfig::with_budget(args.pairs, seed);
        if let Some(t) = args.ci {
            e = e.with_ci(t);
        }
        e
    };
    // One policy cell per missing model; the fused estimators dedup them
    // through `AttackStrategy::canonical()` and the zero-validator model
    // collapse, and reproduce each model's solo estimator bit for bit.
    let policies: Vec<Policy> = missing.iter().map(|&m| Policy::new(m)).collect();
    let all: Vec<AsId> = net.graph.ases().collect();
    let non_stubs = net.tiers.non_stubs();
    let t0 = Instant::now();
    let runs: Vec<AdaptiveRun> = if let Some(sup) = sup {
        // Distributed path: the workers rebuild this exact graph and
        // evaluator from the group spec, stream raw Welford triples
        // back, and the coordinator merges them in group order — the
        // same merge sequence as the in-process pool, so the estimates
        // are bit-identical to `--workers 0`.
        let spec = group_spec_json(figure, net, seed, &missing, graph, args);
        let universe = match figure {
            Figure::Baseline => PairUniverse::new(net, &all, &all),
            Figure::Rollout | Figure::Ladder => PairUniverse::new(net, &non_stubs, &all),
        };
        let cell_stats = vec![expected_steps(figure, args); missing.len()];
        supervise::estimate_adaptive_supervised(&universe, &est, &cell_stats, &spec, sup)
    } else {
        match figure {
            Figure::Baseline => stats::estimate_metric_sweep_cells(
                net,
                &all,
                &all,
                &[Deployment::empty(net.len())],
                &policies,
                AttackStrategy::FakeLink,
                &est,
                args.threads,
            ),
            Figure::Rollout => {
                let mut deps = vec![Deployment::empty(net.len())];
                deps.extend(sweep_rollout_steps(net, args.rollout_steps));
                debug_assert_eq!(deps.len(), expected_steps(figure, args));
                stats::estimate_metric_sweep_cells(
                    net,
                    &non_stubs,
                    &all,
                    &deps,
                    &policies,
                    AttackStrategy::FakeLink,
                    &est,
                    args.threads,
                )
            }
            Figure::Ladder => stats::estimate_strategy_ladder_cells(
                net,
                &non_stubs,
                &all,
                &Deployment::empty(net.len()),
                &policies,
                &AttackStrategy::LADDER,
                &est,
                args.threads,
            )
            .into_iter()
            .map(|l| {
                debug_assert_eq!(l.rungs.len() + 1, expected_steps(figure, args));
                l.run
            })
            .collect(),
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let share_ms = wall_ms / missing.len().max(1) as f64;
    let computed: Vec<CellOutcome> = missing
        .iter()
        .zip(&runs)
        .map(|(&model, run)| {
            let cell_id = cell_id(figure, net.graph.len(), seed, model, graph);
            let json = cell_json(
                figure,
                net.graph.len(),
                seed,
                model,
                graph,
                args,
                run,
                expected_steps(figure, args),
                share_ms,
            );
            // Atomic checkpoint: a kill mid-write leaves only the tmp
            // file behind.
            write_checkpoint(&args.checkpoint_dir, &cell_id, &json);
            let degraded = run.lost_groups > 0 || run.lost_pairs > 0;
            println!(
                "cell {cell_id}: {} pairs in {:.1} ms fused share ({:.0} pairs/s), max CI ±{:.3}pp{}",
                run.sampled.len(),
                share_ms,
                run.sampled.len() as f64 / (share_ms / 1e3).max(1e-9),
                100.0 * run.max_halfwidth(),
                if degraded {
                    format!(
                        " [DEGRADED: {} group(s), {} pair(s) lost]",
                        run.lost_groups, run.lost_pairs
                    )
                } else {
                    String::new()
                }
            );
            CellOutcome {
                id: cell_id,
                json,
                wall_ms: share_ms,
                pairs: run.sampled.len() as u64,
                resumed: false,
                degraded,
            }
        })
        .collect();
    // Stitch the freshly computed cells back into `args.models` order.
    let mut computed = computed.into_iter();
    resumed
        .into_iter()
        .map(|r| r.unwrap_or_else(|| computed.next().expect("one run per missing model")))
        .collect()
}

/// Schema check for an assembled campaign JSON (the CI drift gate).
fn validate(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for key in [
        &format!("\"schema\": \"{CAMPAIGN_SCHEMA}\"") as &str,
        &format!("\"schema\": \"{CELL_SCHEMA}\""),
        "\"grid\"",
        "\"cells\"",
        "\"totals\"",
        "\"figure\"",
        "\"asns\"",
        "\"seed\"",
        "\"model\"",
        "\"population\"",
        "\"strata\"",
        "\"pairs\"",
        "\"wall_ms\"",
        "\"pairs_per_sec\"",
        "\"max_halfwidth\"",
        "\"ci_trajectory\"",
        "\"estimates\"",
        "\"hw_lower\"",
        "\"hw_upper\"",
    ] {
        if !text.contains(key) {
            return Err(format!("{}: missing {key}", path.display()));
        }
    }
    // Audit the embedded content checksum of every cell block that has
    // one (pre-hardening campaign files carry none — still accepted).
    // Cell blocks sit at exactly four spaces of indent, so the scan
    // can't confuse them with the one-line trajectory/estimate objects.
    let mut cell: Vec<&str> = Vec::new();
    let mut in_cell = false;
    for line in text.lines() {
        if line == "    {" {
            in_cell = true;
            cell.clear();
        }
        if in_cell {
            cell.push(line);
            if line == "    }" || line == "    }," {
                in_cell = false;
                let mut block = cell.join("\n");
                if block.ends_with(',') {
                    block.pop(); // restore the exact checkpointed bytes
                }
                if supervise::verify_checksum(&block) == supervise::ChecksumStatus::Mismatch {
                    let id = block
                        .lines()
                        .find_map(|l| l.trim().strip_prefix("\"figure\": "))
                        .unwrap_or("?")
                        .trim_matches(|c| c == '"' || c == ',');
                    return Err(format!(
                        "{}: cell checksum mismatch (figure {id})",
                        path.display()
                    ));
                }
            }
        }
    }
    Ok(())
}

fn list_json<T: std::fmt::Display>(xs: &[T], quoted: bool) -> String {
    let mut s = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        if quoted {
            let _ = write!(s, "\"{x}\"");
        } else {
            let _ = write!(s, "{x}");
        }
    }
    s.push(']');
    s
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: [--figures baseline,rollout,ladder] [--asns N,...] [--seeds S,...] \
                 [--models sec1,sec2,sec3] [--ci H] [--pairs B] [--rollout-steps K] \
                 [--threads T] [--checkpoint-dir DIR] [--out FILE] [--smoke] \
                 [--file AS-REL [--cps ASN,...]] [--validate FILE] \
                 [--workers N [--watchdog-ms MS] [--strikes K] [--backoff-ms MS]] \
                 [--fault-plan FILE]"
            );
            std::process::exit(2);
        }
    };
    if args.worker {
        worker_main(&args);
    }
    faultpoint::set_role("coord");
    if let Some(plan) = &args.fault_plan {
        match faultpoint::load_plan(plan) {
            Ok(n) => println!("fault plan: {n} fault(s) armed from {}", plan.display()),
            Err(e) => {
                eprintln!("cannot load fault plan {}: {e}", plan.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &args.validate {
        match validate(path) {
            Ok(()) => {
                println!("{}: schema {CAMPAIGN_SCHEMA} ok", path.display());
                return;
            }
            Err(msg) => {
                eprintln!("schema drift: {msg}");
                std::process::exit(1);
            }
        }
    }

    if let Err(e) = std::fs::create_dir_all(&args.checkpoint_dir) {
        eprintln!(
            "cannot create checkpoint dir {}: {e}",
            args.checkpoint_dir.display()
        );
        std::process::exit(1);
    }
    println!(
        "campaign: {} figure(s) × {} × {} seed(s) × {} model(s), \
         budget {} pairs{}, checkpoints in {}{}",
        args.figures.len(),
        match &args.file {
            Some(p) => format!("snapshot {} + synthetic twin", p.display()),
            None => format!("{} size(s)", args.asns.len()),
        },
        args.seeds.len(),
        args.models.len(),
        args.pairs,
        args.ci
            .map(|t| format!(", CI target ±{:.2}pp", 100.0 * t))
            .unwrap_or_default(),
        args.checkpoint_dir.display(),
        if args.workers > 0 {
            format!(", {} supervised worker(s)", args.workers)
        } else {
            String::new()
        }
    );
    let mut sup: Option<Supervisor> = if args.workers > 0 {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cannot locate own executable for worker spawn: {e}");
                std::process::exit(1);
            }
        };
        let mut argv = vec![exe.display().to_string(), "--worker".to_string()];
        if let Some(plan) = &args.fault_plan {
            argv.push("--fault-plan".to_string());
            argv.push(plan.display().to_string());
        }
        Some(Supervisor::new(SupervisorConfig {
            workers: args.workers,
            argv,
            watchdog: Duration::from_millis(args.watchdog_ms),
            strikes: args.strikes,
            backoff: Duration::from_millis(args.backoff_ms),
        }))
    } else {
        None
    };

    let mut cells: Vec<String> = Vec::new();
    let mut degraded_ids: Vec<String> = Vec::new();
    let (mut total_ms, mut total_pairs) = (0f64, 0u64);
    let (mut resumed, mut computed) = (0usize, 0usize);
    {
        // One figure × model sweep over a graph; appends its cells in
        // figure-major, model-minor order.
        let mut sweep = |net: &Internet, seed: u64, graph: Option<&str>| {
            for &figure in &args.figures {
                // All models of the figure in one fused pass (or all
                // resumed).
                for out in run_figure_group(figure, net, seed, graph, &args, sup.as_mut()) {
                    total_ms += out.wall_ms;
                    total_pairs += out.pairs;
                    if out.resumed {
                        resumed += 1;
                    } else {
                        computed += 1;
                    }
                    if out.degraded {
                        degraded_ids.push(out.id);
                    }
                    cells.push(out.json);
                }
            }
        };
        if let Some(path) = &args.file {
            // The parsed-snapshot axis: load once, then per seed run the
            // snapshot's cells followed by a synthetic twin of the same
            // size so the real graph always has a like-for-like baseline.
            let t0 = Instant::now();
            let parsed = match Internet::from_file(path, &args.cps) {
                Ok(net) => net,
                Err(e) => {
                    eprintln!("cannot load snapshot {}: {e}", path.display());
                    std::process::exit(1);
                }
            };
            // Checkpoint ids are file names: keep the label to safe chars.
            let label: String = parsed
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            println!(
                "graph {} ({} ASes, {} CPs): parsed in {:.1} ms",
                parsed.name,
                parsed.len(),
                parsed.content_providers.len(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            for &seed in &args.seeds {
                sweep(&parsed, seed, Some(&label));
                let t0 = Instant::now();
                let twin = Internet::synthetic(parsed.len(), seed);
                println!(
                    "graph synthetic-{} seed {seed} (twin): generated in {:.1} ms",
                    parsed.len(),
                    t0.elapsed().as_secs_f64() * 1e3
                );
                sweep(&twin, seed, None);
            }
        } else {
            for &asns in &args.asns {
                for &seed in &args.seeds {
                    // One graph per (asns, seed), shared by every figure ×
                    // model cell of the two inner loops.
                    let t0 = Instant::now();
                    let net = Internet::synthetic(asns, seed);
                    println!(
                        "graph synthetic-{asns} seed {seed}: generated in {:.1} ms",
                        t0.elapsed().as_secs_f64() * 1e3
                    );
                    sweep(&net, seed, None);
                }
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"{CAMPAIGN_SCHEMA}\",");
    let _ = writeln!(json, "  \"grid\": {{");
    let figures: Vec<&str> = args.figures.iter().map(|f| f.name()).collect();
    let models: Vec<&str> = args.models.iter().map(|&m| model_token(m)).collect();
    let _ = writeln!(json, "    \"figures\": {},", list_json(&figures, true));
    if let Some(path) = &args.file {
        // Only parsed-snapshot runs carry these keys; the synthetic grid
        // (and the committed release JSON) is byte-for-byte unchanged.
        let _ = writeln!(json, "    \"snapshot\": \"{}\",", path.display());
        let _ = writeln!(json, "    \"cps\": {},", list_json(&args.cps, false));
    }
    let _ = writeln!(json, "    \"asns\": {},", list_json(&args.asns, false));
    let _ = writeln!(json, "    \"seeds\": {},", list_json(&args.seeds, false));
    let _ = writeln!(json, "    \"models\": {},", list_json(&models, true));
    match args.ci {
        Some(t) => {
            let _ = writeln!(json, "    \"ci\": {t},");
        }
        None => {
            let _ = writeln!(json, "    \"ci\": null,");
        }
    }
    let _ = writeln!(json, "    \"pairs\": {},", args.pairs);
    let _ = writeln!(json, "    \"rollout_steps\": {}", args.rollout_steps);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(json, "{c}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    // Cells whose supervised run exhausted the retry ladder; the grid
    // still validates, and a rerun repairs them from their (untrusted)
    // degraded checkpoints.
    let _ = writeln!(json, "  \"degraded\": {},", list_json(&degraded_ids, true));
    let _ = writeln!(json, "  \"totals\": {{");
    let _ = writeln!(json, "    \"cells\": {},", cells.len());
    let _ = writeln!(json, "    \"computed_this_run\": {computed},");
    let _ = writeln!(json, "    \"resumed\": {resumed},");
    let _ = writeln!(json, "    \"degraded\": {},", degraded_ids.len());
    let _ = writeln!(json, "    \"pairs\": {total_pairs},");
    let _ = writeln!(json, "    \"wall_ms\": {total_ms:.3}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    println!(
        "wrote {} ({} cells: {computed} computed, {resumed} resumed, {} degraded; \
         {total_pairs} pairs, {:.1} s)",
        args.out.display(),
        cells.len(),
        degraded_ids.len(),
        total_ms / 1e3
    );
    if let Err(msg) = validate(&args.out) {
        eprintln!("self-check failed: {msg}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Supervised worker mode
// ---------------------------------------------------------------------------

/// The group identity the coordinator ships in its `init` frame: enough
/// for a worker to rebuild the exact graph, policies and deployments of
/// one `(figure, graph, seed)` fused pass. Single-line JSON; comparing
/// the strings *is* comparing the groups (the supervisor re-inits its
/// fleet only when the payload changes).
fn group_spec_json(
    figure: Figure,
    net: &Internet,
    seed: u64,
    models: &[SecurityModel],
    graph: Option<&str>,
    args: &Args,
) -> String {
    let mut s = format!(
        "{{\"figure\":\"{}\",\"asns\":{},\"seed\":{seed},\"models\":[",
        figure.name(),
        net.len()
    );
    for (i, &m) in models.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", model_token(m));
    }
    let _ = write!(s, "],\"steps\":{}", args.rollout_steps);
    if graph.is_some() {
        if let Some(path) = &args.file {
            let _ = write!(s, ",\"snapshot\":\"{}\"", path.display());
            let _ = write!(s, ",\"cps\":[");
            for (i, cp) in args.cps.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{cp}");
            }
            s.push(']');
        }
    }
    s.push('}');
    s
}

/// `"key":"value"` extraction from a compact (no-space) group spec.
fn spec_str<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let pat = format!("\"{key}\":\"");
    let start = text.find(&pat)? + pat.len();
    let end = text[start..].find('"')? + start;
    Some(&text[start..end])
}

/// `"key":123` extraction from a compact group spec.
fn spec_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `"key":[...]` — the raw bracket contents of a compact group spec.
fn spec_list<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let pat = format!("\"{key}\":[");
    let start = text.find(&pat)? + pat.len();
    let end = text[start..].find(']')? + start;
    Some(&text[start..end])
}

struct GroupSpec {
    figure: Figure,
    asns: usize,
    seed: u64,
    models: Vec<SecurityModel>,
    steps: usize,
    snapshot: Option<PathBuf>,
    cps: Vec<u32>,
}

fn parse_group_spec(text: &str) -> Result<GroupSpec, String> {
    let figure = Figure::parse(spec_str(text, "figure").ok_or("spec: no figure")?)?;
    let asns = spec_u64(text, "asns").ok_or("spec: no asns")? as usize;
    let seed = spec_u64(text, "seed").ok_or("spec: no seed")?;
    let models = spec_list(text, "models")
        .ok_or("spec: no models")?
        .split(',')
        .filter(|t| !t.is_empty())
        .map(|t| parse_model(t.trim_matches('"')))
        .collect::<Result<Vec<_>, _>>()?;
    let steps = spec_u64(text, "steps").ok_or("spec: no steps")? as usize;
    let snapshot = spec_str(text, "snapshot").map(PathBuf::from);
    let cps = match spec_list(text, "cps") {
        Some(list) => list
            .split(',')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse::<u32>().map_err(|e| format!("spec: bad cp: {e}")))
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    Ok(GroupSpec {
        figure,
        asns,
        seed,
        models,
        steps,
        snapshot,
        cps,
    })
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked".to_string())
}

/// Serve evaluation tasks for one group until the coordinator re-inits
/// (returns the new payload), shuts us down, or disappears (returns
/// `None`). Stdout carries only protocol frames — diagnostics go to
/// stderr, which the coordinator leaves attached to its own.
///
/// A panic inside the fused kernels (real, or injected through the
/// `worker.eval` fault point) is caught, converted into an `error`
/// reply, and the scratch engines are rebuilt — one poisoned cell
/// evaluation never takes the worker down with it.
fn serve_tasks<E: stats::CellEval>(
    eval: &E,
    nstrata: usize,
    stdin: &mut impl Read,
    stdout: &mut impl Write,
) -> Option<String> {
    let cell_stats = eval.cell_stats();
    if supervise::write_frame(stdout, &supervise::encode_ready(&cell_stats, nstrata)).is_err() {
        return None;
    }
    let mut w = eval.make_worker();
    loop {
        let frame = match supervise::read_frame(stdin) {
            Ok(Some(f)) => f,
            _ => return None,
        };
        match supervise::parse_worker_msg(&frame) {
            Ok(WorkerMsg::Init(p)) => return Some(p),
            Ok(WorkerMsg::Shutdown) => return None,
            Ok(WorkerMsg::Task {
                id,
                dest,
                attackers,
            }) => {
                let key = format!("task{id}");
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(f) = faultpoint::check("worker.eval", &key) {
                        return Err(format!("injected {f:?} fault at worker.eval"));
                    }
                    Ok(supervise::eval_task_data(
                        eval, &mut w, nstrata, dest, &attackers,
                    ))
                }));
                let reply = match outcome {
                    Ok(Ok(data)) => supervise::encode_result(id, &data),
                    Ok(Err(msg)) => supervise::encode_error(id, &msg),
                    Err(panic) => {
                        // The scratch engines may be mid-update; rebuild.
                        w = eval.make_worker();
                        supervise::encode_error(id, &panic_message(panic))
                    }
                };
                let reply = match faultpoint::check("worker.reply", &key) {
                    // Wrong-schema reply: right type, missing data — the
                    // coordinator must strike it, not merge it.
                    Some(_) => format!("{{\"type\":\"result\",\"id\":{id}}}"),
                    None => reply,
                };
                if supervise::write_frame(stdout, &reply).is_err() {
                    return None;
                }
            }
            Err(e) => {
                // An unparseable coordinator frame (e.g. the injected
                // `coord.frame` garbage): we can't know which task it
                // carried, so stay silent and let the coordinator's
                // watchdog reassign it.
                eprintln!("worker: ignoring bad coordinator frame: {e}");
            }
        }
    }
}

/// The `--worker` child process: rebuild each group the coordinator
/// announces and serve its cell evaluations over stdin/stdout. Never
/// returns; exits 0 on shutdown/EOF, nonzero on a broken spec or graph.
fn worker_main(args: &Args) -> ! {
    faultpoint::set_role(&format!("worker{}", args.worker_id));
    if let Some(plan) = &args.fault_plan {
        if let Err(e) = faultpoint::load_plan(plan) {
            eprintln!(
                "worker {}: cannot load fault plan {}: {e}",
                args.worker_id,
                plan.display()
            );
            std::process::exit(2);
        }
    }
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    let mut next_init: Option<String> = None;
    loop {
        let payload = match next_init.take() {
            Some(p) => p,
            None => match supervise::read_frame(&mut stdin) {
                Ok(Some(f)) => match supervise::parse_worker_msg(&f) {
                    Ok(WorkerMsg::Init(p)) => p,
                    Ok(WorkerMsg::Shutdown) => std::process::exit(0),
                    Ok(WorkerMsg::Task { .. }) => {
                        eprintln!("worker {}: task before init, ignoring", args.worker_id);
                        continue;
                    }
                    Err(e) => {
                        eprintln!("worker {}: ignoring bad frame: {e}", args.worker_id);
                        continue;
                    }
                },
                _ => std::process::exit(0), // EOF: the coordinator is gone
            },
        };
        let spec = match parse_group_spec(&payload) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("worker {}: bad group spec: {e}", args.worker_id);
                std::process::exit(2);
            }
        };
        let net = match &spec.snapshot {
            Some(path) => match Internet::from_file(path, &spec.cps) {
                Ok(net) => net,
                Err(e) => {
                    eprintln!(
                        "worker {}: cannot load snapshot {}: {e}",
                        args.worker_id,
                        path.display()
                    );
                    std::process::exit(1);
                }
            },
            None => Internet::synthetic(spec.asns, spec.seed),
        };
        let policies: Vec<Policy> = spec.models.iter().map(|&m| Policy::new(m)).collect();
        let all: Vec<AsId> = net.graph.ases().collect();
        let non_stubs = net.tiers.non_stubs();
        // Same pools, deployments and evaluators as the in-process path
        // of `run_figure_group` — that is what makes the streamed
        // accumulators merge to bit-identical estimates.
        next_init = match spec.figure {
            Figure::Baseline => {
                let universe = PairUniverse::new(&net, &all, &all);
                let deps = vec![Deployment::empty(net.len())];
                let eval =
                    stats::SweepCellsEval::new(&net, &deps, &policies, AttackStrategy::FakeLink);
                serve_tasks(&eval, universe.strata().len(), &mut stdin, &mut stdout)
            }
            Figure::Rollout => {
                let universe = PairUniverse::new(&net, &non_stubs, &all);
                let mut deps = vec![Deployment::empty(net.len())];
                deps.extend(sweep_rollout_steps(&net, spec.steps));
                let eval =
                    stats::SweepCellsEval::new(&net, &deps, &policies, AttackStrategy::FakeLink);
                serve_tasks(&eval, universe.strata().len(), &mut stdin, &mut stdout)
            }
            Figure::Ladder => {
                let universe = PairUniverse::new(&net, &non_stubs, &all);
                let dep = Deployment::empty(net.len());
                let eval =
                    stats::LadderCellsEval::new(&net, &dep, &policies, &AttackStrategy::LADDER);
                serve_tasks(&eval, universe.strata().len(), &mut stdin, &mut stdout)
            }
        };
        if next_init.is_none() {
            std::process::exit(0);
        }
    }
}
