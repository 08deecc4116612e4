//! Real-snapshot ingestion benchmark: the full `--file` pipeline at
//! internet scale — serialize a synthetic graph to CAIDA serial-1 text,
//! parse it back, compare the bulk sorted-edge CSR build against the
//! incremental HashMap builder path, then classify tiers and compute one
//! destination group on the loaded snapshot. Emitted as
//! `BENCH_ingest.json` for the perf trajectory and the CI bench-smoke job.
//!
//! The headline gate is the adjacency build: [`GraphBuilder::from_edges`]
//! (collect → sort → dedup-scan → direct CSR fill) must beat the
//! incremental per-edge HashMap path by ≥ 2× at 100k ASes, with the two
//! graphs cross-checked identical segment by segment.
//!
//! `--emit-rel FILE` keeps the serialized snapshot on disk — the campaign
//! runner's `--file` fixture source.
//!
//! ```text
//! bench_ingest --asns 100000 --seed 42 --out BENCH_ingest.json
//! bench_ingest --asns 1000 --emit-rel snap.as-rel   # fixture for campaign --file
//! bench_ingest --validate BENCH_ingest.json         # schema drift check
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use sbgp_core::{AttackScenario, Deployment, Engine, Policy, SecurityModel};
use sbgp_sim::{sample, Internet};
use sbgp_topology::{io, AsId, GraphBuilder, Relationship};

/// Timed repetitions per stage; the minimum is reported.
const REPS: usize = 3;

struct Args {
    asns: Vec<usize>,
    seed: u64,
    out: PathBuf,
    validate: Option<PathBuf>,
    emit_rel: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        asns: vec![100_000],
        seed: 42,
        out: PathBuf::from("BENCH_ingest.json"),
        validate: None,
        emit_rel: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--asns" => {
                a.asns = take("--asns")?
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(|t| t.trim().parse().map_err(|_| format!("bad size {t:?}")))
                    .collect::<Result<_, _>>()?
            }
            "--seed" => {
                a.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a number".to_string())?
            }
            "--out" => a.out = PathBuf::from(take("--out")?),
            "--validate" => a.validate = Some(PathBuf::from(take("--validate")?)),
            "--emit-rel" => a.emit_rel = Some(PathBuf::from(take("--emit-rel")?)),
            "--help" | "-h" => return Err("help requested".into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.asns.is_empty() {
        return Err("empty --asns list".into());
    }
    if a.emit_rel.is_some() && a.asns.len() > 1 {
        return Err("--emit-rel wants exactly one --asns size (one snapshot per file)".into());
    }
    Ok(a)
}

/// Schema check for an emitted JSON (the CI drift gate).
fn validate(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for key in [
        "\"bench\": \"ingest\"",
        "\"cells\"",
        "\"asns\"",
        "\"edges\"",
        "\"lines\"",
        "\"gen_ms\"",
        "\"write_ms\"",
        "\"parse_ms\"",
        "\"lines_per_sec\"",
        "\"bulk_build_ms\"",
        "\"hashmap_build_ms\"",
        "\"build_speedup\"",
        "\"load_ms\"",
        "\"content_providers\"",
        "\"group_ms\"",
        "\"attackers\"",
        "\"gate\"",
    ] {
        if !text.contains(key) {
            return Err(format!("{}: missing {key}", path.display()));
        }
    }
    Ok(())
}

struct Cell {
    asns: usize,
    edges: usize,
    lines: usize,
    gen_ms: f64,
    write_ms: f64,
    parse_ms: f64,
    bulk_ms: f64,
    hashmap_ms: f64,
    load_ms: f64,
    cps: usize,
    group_ms: f64,
    attackers: usize,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.hashmap_ms / self.bulk_ms.max(1e-9)
    }
}

/// Assert two graphs are identical: same labels and the same customer /
/// peer / provider segments for every AS.
fn assert_same_graph(a: &sbgp_topology::AsGraph, b: &sbgp_topology::AsGraph) {
    assert_eq!(a.len(), b.len());
    for v in a.ases() {
        assert_eq!(a.asn_label(v), b.asn_label(v), "{v} label");
        assert_eq!(a.customers(v), b.customers(v), "{v} customers");
        assert_eq!(a.peers(v), b.peers(v), "{v} peers");
        assert_eq!(a.providers(v), b.providers(v), "{v} providers");
    }
}

fn run_cell(asns: usize, seed: u64, rel_path: &std::path::Path) -> Cell {
    // Stage 0: the synthetic stand-in for a published snapshot.
    let t0 = Instant::now();
    let net = Internet::synthetic(asns, seed);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cp_asns: Vec<u32> = net
        .content_providers
        .iter()
        .map(|&v| net.graph.asn_label(v))
        .collect();

    // Stage 1: serialize to serial-1 text on disk.
    let t0 = Instant::now();
    let text = io::write_relationships(&net.graph);
    if let Err(e) = std::fs::write(rel_path, &text) {
        eprintln!("cannot write relationship file {}: {e}", rel_path.display());
        std::process::exit(1);
    }
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let lines = text.lines().count();

    // Stage 2: parse it back (min of REPS).
    let mut parse = std::time::Duration::MAX;
    let mut parsed = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let g = match io::read_relationships_file(rel_path) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("cannot parse relationship file {}: {e}", rel_path.display());
                std::process::exit(1);
            }
        };
        parse = parse.min(t0.elapsed());
        parsed = Some(g);
    }
    let parsed = parsed.expect("REPS > 0");
    let parse_ms = parse.as_secs_f64() * 1e3;
    assert_eq!(parsed.len(), asns, "round trip dropped ASes");
    let edges = parsed.num_customer_provider_edges() + parsed.num_peer_edges();

    // Stage 3: the adjacency-build comparison on identical inputs — the
    // bulk sorted-edge CSR path vs the incremental per-edge HashMap path.
    let labels: Vec<u32> = parsed.ases().map(|v| parsed.asn_label(v)).collect();
    let edge_list: Vec<(AsId, AsId, Relationship)> = parsed.edges().collect();
    let mut bulk = std::time::Duration::MAX;
    let mut bulk_graph = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let g = GraphBuilder::from_edges(asns, labels.clone(), edge_list.iter().copied())
            .expect("bulk build");
        bulk = bulk.min(t0.elapsed());
        bulk_graph = Some(g);
    }
    let mut hashmap = std::time::Duration::MAX;
    let mut hashmap_graph = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut b = GraphBuilder::new(asns);
        b.set_asn_labels(labels.clone()).expect("label count");
        for &(x, y, rel) in &edge_list {
            b.add_edge(x, y, rel).expect("incremental add");
        }
        let g = b.build();
        hashmap = hashmap.min(t0.elapsed());
        hashmap_graph = Some(g);
    }
    let (bulk_graph, hashmap_graph) = (bulk_graph.unwrap(), hashmap_graph.unwrap());
    assert_same_graph(&bulk_graph, &hashmap_graph);
    assert_same_graph(&bulk_graph, &parsed);

    // Stage 4: the user-facing load — parse + hierarchy validation + tier
    // classification with real-ASN content providers.
    let mut load = std::time::Duration::MAX;
    let mut loaded = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let n = match Internet::from_file(rel_path, &cp_asns) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("cannot load snapshot {}: {e}", rel_path.display());
                std::process::exit(1);
            }
        };
        load = load.min(t0.elapsed());
        loaded = Some(n);
    }
    let loaded = loaded.expect("REPS > 0");
    let load_ms = load.as_secs_f64() * 1e3;
    assert_eq!(loaded.content_providers.len(), cp_asns.len());

    // Stage 5: one destination group on the loaded snapshot
    // (the scale_smoke unit of work: a Tier-2 destination, non-stub
    // attackers, Tier-1 deployment).
    let attackers = sample::sample_non_stubs(&loaded, 40, seed ^ 0x5EED);
    let d = loaded.tiers.tier2()[0];
    let dep = Deployment::full_from_iter(loaded.len(), loaded.tiers.tier1().iter().copied());
    let policy = Policy::new(SecurityModel::Security2nd);
    let t0 = Instant::now();
    let mut engine = Engine::new(&loaded.graph);
    let mut served = 0usize;
    for &m in &attackers {
        if m == d {
            continue;
        }
        let (lower, upper) = engine
            .compute(AttackScenario::attack(m, d), &dep, policy)
            .count_happy();
        assert!(lower <= upper && upper <= loaded.len() - 2);
        served += 1;
    }
    let group_ms = t0.elapsed().as_secs_f64() * 1e3;

    Cell {
        asns,
        edges,
        lines,
        gen_ms,
        write_ms,
        parse_ms,
        bulk_ms: bulk.as_secs_f64() * 1e3,
        hashmap_ms: hashmap.as_secs_f64() * 1e3,
        load_ms,
        cps: loaded.content_providers.len(),
        group_ms,
        attackers: served,
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: [--asns N,...] [--seed S] [--out FILE] [--emit-rel FILE] \
                 [--validate FILE]"
            );
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.validate {
        match validate(path) {
            Ok(()) => {
                println!("{}: ingest bench schema ok", path.display());
                return;
            }
            Err(msg) => {
                eprintln!("schema drift: {msg}");
                std::process::exit(1);
            }
        }
    }

    let tmp_dir = std::env::temp_dir();
    let mut cells: Vec<Cell> = Vec::new();
    for &asns in &args.asns {
        // The serialized snapshot: kept when --emit-rel names it, scratch
        // otherwise.
        let rel_path = args.emit_rel.clone().unwrap_or_else(|| {
            tmp_dir.join(format!(
                "bench_ingest_{}_{}.as-rel",
                asns,
                std::process::id()
            ))
        });
        let cell = run_cell(asns, args.seed, &rel_path);
        println!(
            "{asns:>7} ASes ({} edges, {} lines): gen {:.0} ms, write {:.0} ms, \
             parse {:.1} ms, build bulk {:.1} ms vs hashmap {:.1} ms ({:.2}x), \
             load {:.1} ms, {}-attacker group {:.1} ms",
            cell.edges,
            cell.lines,
            cell.gen_ms,
            cell.write_ms,
            cell.parse_ms,
            cell.bulk_ms,
            cell.hashmap_ms,
            cell.speedup(),
            cell.load_ms,
            cell.attackers,
            cell.group_ms,
        );
        if args.emit_rel.is_none() {
            let _ = std::fs::remove_file(&rel_path);
        } else {
            println!("kept snapshot at {}", rel_path.display());
        }
        cells.push(cell);
    }

    // The acceptance gate: bulk ≥ 2× the HashMap path at the largest size.
    let gate = cells
        .iter()
        .max_by_key(|c| c.asns)
        .expect("at least one size");
    println!(
        "\ngate: {} ASes, bulk adjacency build {:.2}x the incremental HashMap path",
        gate.asns,
        gate.speedup()
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"ingest\",");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"asns\": {}, \"edges\": {}, \"lines\": {}, \"gen_ms\": {:.3}, \
             \"write_ms\": {:.3}, \"parse_ms\": {:.3}, \"lines_per_sec\": {:.3}, \
             \"bulk_build_ms\": {:.3}, \"hashmap_build_ms\": {:.3}, \"build_speedup\": {:.3}, \
             \"load_ms\": {:.3}, \"content_providers\": {}, \"group_ms\": {:.3}, \
             \"attackers\": {}}}{}",
            c.asns,
            c.edges,
            c.lines,
            c.gen_ms,
            c.write_ms,
            c.parse_ms,
            c.lines as f64 / (c.parse_ms / 1e3).max(1e-9),
            c.bulk_ms,
            c.hashmap_ms,
            c.speedup(),
            c.load_ms,
            c.cps,
            c.group_ms,
            c.attackers,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"gate\": {{\"asns\": {}, \"build_speedup\": {:.3}}}",
        gate.asns,
        gate.speedup()
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
