//! End-to-end checkpointing/resume test for the `campaign` runner.
//!
//! Runs `campaign --smoke` in a scratch directory, then simulates a killed
//! campaign by deleting the assembled JSON plus one cell checkpoint and
//! re-running: the second run must resume every surviving cell, recompute
//! only the missing one, and assemble byte-identical *estimates* (wall
//! clock may of course differ).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Build (cached by the shared target dir) and locate the binary via
/// cargo.
fn campaign_bin() -> PathBuf {
    let mut build = Command::new(env!("CARGO"));
    build
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
        .args([
            "build",
            "--offline",
            "-q",
            "-p",
            "sbgp_bench",
            "--bin",
            "campaign",
        ]);
    let out = build.output().expect("spawn cargo build");
    assert!(
        out.status.success(),
        "campaign failed to build:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("debug")
        .join("campaign")
}

fn campaign_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(campaign_bin());
    cmd.current_dir(dir);
    cmd.args(["--smoke", "--threads", "2"]);
    cmd
}

/// Strip the timing fields (and the content checksums, which cover them)
/// so runs are comparable.
fn estimates_only(json: &str) -> String {
    json.lines()
        .filter(|l| {
            !(l.contains("wall_ms")
                || l.contains("pairs_per_sec")
                || l.contains("\"checksum\"")
                || l.contains("_this_run")
                || l.contains("\"resumed\""))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn campaign_smoke_checkpoints_and_resumes() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // First run: all cells computed, JSON assembled and self-validated.
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "first campaign run failed:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("6 computed, 0 resumed"),
        "unexpected first-run summary:\n{stdout}"
    );
    let json_path = dir.join("BENCH_campaign_smoke.json");
    let first = std::fs::read_to_string(&json_path).expect("campaign JSON");
    assert!(first.contains("\"schema\": \"campaign-v1\""));
    assert!(first.contains("\"ci_trajectory\""));
    let ckpt = dir.join("campaign_smoke_ckpt");
    let cells: Vec<PathBuf> = std::fs::read_dir(&ckpt)
        .expect("checkpoint dir")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(cells.len(), 6, "expected 6 cell checkpoints: {cells:?}");

    // Kill simulation: the assembled JSON and one cell vanish.
    std::fs::remove_file(&json_path).unwrap();
    let victim = ckpt.join("rollout_400_11_sec2.json");
    assert!(victim.exists(), "victim cell missing from {ckpt:?}");
    std::fs::remove_file(&victim).unwrap();

    // Second run: 5 resumed, 1 recomputed, same estimates.
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "resumed campaign run failed:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("1 computed, 5 resumed"),
        "resume did not skip surviving cells:\n{stdout}"
    );
    assert!(stdout.contains("rollout_400_11_sec2: 300 pairs"));
    let second = std::fs::read_to_string(&json_path).expect("campaign JSON after resume");
    assert_eq!(
        estimates_only(&first),
        estimates_only(&second),
        "estimates drifted across a resume"
    );

    // Changed estimation parameters must invalidate every checkpoint:
    // reusing a 300-pair cell under a 301-pair grid header would be a
    // silent lie, so nothing may be resumed.
    let out = campaign_cmd(&dir)
        .args(["--pairs", "301"])
        .output()
        .expect("spawn campaign with changed budget");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "changed-budget run failed:\n{stdout}");
    assert!(
        stdout.contains("6 computed, 0 resumed"),
        "stale checkpoints were reused under changed --pairs:\n{stdout}"
    );
    assert!(stdout.contains("different estimation parameters"));
    let second = std::fs::read_to_string(&json_path).expect("campaign JSON after budget change");
    assert!(second.contains("\"budget\": 301,"));

    // Schema gate: the self-validation path accepts the fresh file and
    // rejects a mutilated one.
    let status = campaign_cmd(&dir)
        .args(["--validate", "BENCH_campaign_smoke.json"])
        .status()
        .expect("spawn validate");
    assert!(status.success(), "validation rejected a good file");
    std::fs::write(&json_path, second.replace("pairs_per_sec", "nope")).unwrap();
    let status = campaign_cmd(&dir)
        .args(["--validate", "BENCH_campaign_smoke.json"])
        .status()
        .expect("spawn validate");
    assert!(!status.success(), "validation accepted schema drift");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A supervised N-worker campaign must produce the same bytes as the
/// in-process run — the coordinator merges worker accumulators in group
/// order, the exact merge sequence of the thread pool — for every worker
/// count and every figure kind.
#[test]
fn campaign_workers_bit_identical() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_workers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let bin = campaign_bin();

    let run = |workers: usize| -> String {
        let out_name = format!("out{workers}.json");
        let out = Command::new(&bin)
            .current_dir(&dir)
            .args([
                "--figures",
                "baseline,rollout,ladder",
                "--asns",
                "300",
                "--seeds",
                "7",
                "--models",
                "sec1,sec2",
                "--pairs",
                "100",
                "--rollout-steps",
                "2",
                "--threads",
                "2",
                "--workers",
                &workers.to_string(),
                "--checkpoint-dir",
                &format!("ck{workers}"),
                "--out",
                &out_name,
            ])
            .output()
            .expect("spawn campaign");
        assert!(
            out.status.success(),
            "campaign --workers {workers} failed:\nstdout:\n{}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("6 computed, 0 resumed, 0 degraded"),
            "--workers {workers}: unexpected summary:\n{stdout}"
        );
        std::fs::read_to_string(dir.join(out_name)).expect("campaign JSON")
    };

    let reference = run(0);
    assert!(
        reference.contains("\"degraded\": [],"),
        "clean run must report an empty degraded list"
    );
    for workers in [1usize, 2, 4] {
        let distributed = run(workers);
        assert_eq!(
            estimates_only(&reference),
            estimates_only(&distributed),
            "--workers {workers} diverged from the in-process run"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervised estimator reproduces the in-process one **bit for bit**
/// over a multi-round budget: every estimate's value and half-width, and
/// the round trajectory, compared through `f64::to_bits` rather than the
/// 6-decimal campaign JSON. Both backends share one round loop and fold a
/// round's group accumulators from empty in group order.
#[test]
fn supervised_estimates_match_in_process_bit_for_bit() {
    use bgp_juice::prelude::*;
    use bgp_juice::sim::stats::{
        estimate_adaptive_cells_eval, AdaptiveRun, CellEval, EstimatorConfig, PairUniverse,
        SweepCellsEval,
    };
    use bgp_juice::sim::supervise::{estimate_adaptive_supervised, Supervisor, SupervisorConfig};
    use std::time::Duration;

    // The campaign's baseline figure group: 300 ASes, seed 7, sec1 + sec2,
    // 100 pairs — two adaptive rounds.
    let net = Internet::synthetic(300, 7);
    let all: Vec<AsId> = net.graph.ases().collect();
    let universe = PairUniverse::new(&net, &all, &all);
    let deployments = [Deployment::empty(net.len())];
    let policies = [
        Policy::new(SecurityModel::Security1st),
        Policy::new(SecurityModel::Security2nd),
    ];
    let eval = SweepCellsEval::new(&net, &deployments, &policies, AttackStrategy::FakeLink);
    let cfg = EstimatorConfig::with_budget(100, 7);
    let in_process = estimate_adaptive_cells_eval(&universe, &cfg, &eval, Parallelism(2));

    let mut sup = Supervisor::new(SupervisorConfig {
        workers: 2,
        argv: vec![campaign_bin().display().to_string(), "--worker".to_string()],
        watchdog: Duration::from_secs(300),
        strikes: 3,
        backoff: Duration::from_millis(50),
    });
    let spec = "{\"figure\":\"baseline\",\"asns\":300,\"seed\":7,\"models\":[\"sec1\",\"sec2\"],\"steps\":2}";
    let supervised =
        estimate_adaptive_supervised(&universe, &cfg, &eval.cell_stats(), spec, &mut sup);

    // Per run: every estimate's value and half-width bits, then every
    // round's (pairs, widest half-width bits), then the lost groups.
    let bits = |runs: &[AdaptiveRun]| -> Vec<Vec<u64>> {
        runs.iter()
            .map(|r| {
                let estimates = r.estimates.iter().flat_map(|e| {
                    [
                        e.value.lower,
                        e.value.upper,
                        e.halfwidth.lower,
                        e.halfwidth.upper,
                    ]
                    .map(f64::to_bits)
                });
                let rounds = r
                    .rounds
                    .iter()
                    .flat_map(|t| [t.pairs, t.max_halfwidth.to_bits()]);
                estimates.chain(rounds).chain([r.lost_groups]).collect()
            })
            .collect()
    };
    assert_eq!(in_process.len(), policies.len());
    assert!(
        in_process.iter().all(|r| r.rounds.len() >= 2),
        "the budget must span several rounds"
    );
    assert_eq!(bits(&supervised), bits(&in_process));
    for (s, p) in supervised.iter().zip(&in_process) {
        assert_eq!(s.sampled, p.sampled);
    }
}

/// Resume must never trust damaged checkpoint bytes: a corrupted cell
/// (checksum mismatch) and a zero-byte cell are both quarantined to
/// `<name>.json.quarantined` and recomputed, and the repaired campaign
/// JSON is byte-identical to the undamaged one.
#[test]
fn campaign_quarantines_damaged_checkpoints() {
    let dir = std::env::temp_dir().join(format!("sbgp_campaign_quarantine_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    assert!(out.status.success(), "first campaign run failed");
    let json_path = dir.join("BENCH_campaign_smoke.json");
    let first = std::fs::read_to_string(&json_path).expect("campaign JSON");
    let ckpt = dir.join("campaign_smoke_ckpt");

    // Silent corruption: flip one digit of a checkpointed estimate.
    let victim = ckpt.join("baseline_400_11_sec1.json");
    let text = std::fs::read_to_string(&victim).expect("victim cell");
    let pos = text.find("\"population\": ").expect("population line") + "\"population\": ".len();
    let mut bytes = text.into_bytes();
    bytes[pos] = b'0' + (bytes[pos] - b'0' + 1) % 10;
    std::fs::write(&victim, &bytes).unwrap();

    // A crashed write(2) that only got as far as create: zero bytes.
    let truncated = ckpt.join("rollout_400_11_sec1.json");
    assert!(truncated.exists());
    std::fs::write(&truncated, b"").unwrap();

    std::fs::remove_file(&json_path).unwrap();
    let out = campaign_cmd(&dir).output().expect("spawn campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repair run failed:\n{stderr}");
    assert!(
        stdout.contains("2 computed, 4 resumed"),
        "damaged cells were not both recomputed:\n{stdout}\n{stderr}"
    );
    assert!(
        stderr.contains("fails its content checksum") && stderr.contains("zero bytes"),
        "missing damage diagnoses:\n{stderr}"
    );
    assert_eq!(stderr.matches("quarantined to").count(), 2, "{stderr}");
    assert!(ckpt.join("baseline_400_11_sec1.json.quarantined").exists());
    assert!(ckpt.join("rollout_400_11_sec1.json.quarantined").exists());

    let second = std::fs::read_to_string(&json_path).expect("campaign JSON after repair");
    assert_eq!(
        estimates_only(&first),
        estimates_only(&second),
        "repair after corruption drifted the estimates"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
