//! The planner workload: the `planner` binary as a subprocess, driven
//! closed-loop by one client that waits for each reply.
//!
//! The query stream superposes operator sessions. Each session fixes a
//! candidate deployment (a §5.2 Tier-1/2 rollout level plus a few extra
//! ASes) and a set of destinations, and lasts a heavy-tailed number of
//! queries; a few sessions are open at once and the next query comes from
//! a random one. Queries vary attackers and model subsets, and about one
//! in eight is a budgeted estimate. The sessions' working set of
//! `(destination, deployment, policy)` keys exceeds the planner's cache,
//! so hits run beside misses, inserts and evictions.

use std::io::{BufReader, BufWriter, Cursor};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use sbgp_core::{AttackScenario, Deployment, Engine, Policy};
use sbgp_sim::serve::{model_token, Planner, PlannerConfig, Query};
use sbgp_sim::supervise::{read_frame, write_frame};
use sbgp_sim::{scenario, Internet, Parallelism};
use sbgp_topology::AsId;

use crate::json::Json;
use crate::snapshot::{self, LoadSpans, Snapshot};
use crate::util::{median, mix, peak_rss_mb, quantile, secs, Checks, Report, Rng};
use crate::MODELS;

/// Planner spawns per snapshot; the median spawn-to-ready over all of them
/// is `setup_s`.
const SETUP_REPS: usize = 3;
/// The planner's LRU capacity (normal-outcome entries).
const CACHE: usize = 12;
/// Sessions open at once.
const OPEN_SESSIONS: usize = 4;
/// Destinations a session asks about.
const DESTINATIONS: usize = 2;
/// Queries a run sends at least, over all snapshots: p95 then has ≥ 10
/// samples beyond it.
const MIN_QUERIES: usize = 240;
/// Queries of a traced run: a fixed amount of work, so per-layer totals
/// compare across commits.
const TRACE_QUERIES: usize = 300;
/// Exact replies recomputed from first principles per run.
const VERIFY_QUERIES: usize = 6;

// ---------------------------------------------------------------------------
// The query stream
// ---------------------------------------------------------------------------

/// One what-if query as the benchmark sent it.
struct Sent {
    id: u64,
    secure: Vec<u32>,
    attackers: Vec<u32>,
    destinations: Vec<u32>,
    /// Indices into [`MODELS`], ascending.
    models: Vec<usize>,
    /// Pair budget; 0 asks for the exact answer.
    budget: u64,
    seed: u64,
}

impl Sent {
    /// The compact request frame.
    fn frame(&self) -> String {
        let ids = |v: &[u32]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let models: Vec<String> = self
            .models
            .iter()
            .map(|&i| format!("\"{}\"", model_token(MODELS[i])))
            .collect();
        format!(
            "{{\"op\":\"query\",\"id\":{},\"secure\":[{}],\"attackers\":[{}],\
             \"destinations\":[{}],\"models\":[{}],\"strategies\":[\"fakelink\"],\
             \"budget\":{},\"seed\":{}}}",
            self.id,
            ids(&self.secure),
            ids(&self.attackers),
            ids(&self.destinations),
            models.join(","),
            self.budget,
            self.seed
        )
    }
}

struct Session {
    secure: Vec<u32>,
    destinations: Vec<u32>,
    left: usize,
}

/// The seeded superposition of sessions.
struct Stream {
    rng: Rng,
    n: usize,
    levels: Vec<Vec<u32>>,
    open: Vec<Session>,
    next_id: u64,
}

impl Stream {
    fn new(net: &Internet, seed: u64) -> Stream {
        let levels = scenario::tier12_rollout(net)
            .iter()
            .map(|step| step.deployment.full_set().iter().map(|v| v.0).collect())
            .collect();
        let mut s = Stream {
            rng: Rng::new(mix(seed, 0x91a2)),
            n: net.len(),
            levels,
            open: Vec::new(),
            next_id: 1,
        };
        while s.open.len() < OPEN_SESSIONS {
            let session = s.session();
            s.open.push(session);
        }
        s
    }

    /// `k` distinct ASes outside `avoid`.
    fn ases(&mut self, k: usize, avoid: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.rng.below(self.n) as u32;
            if !avoid.contains(&v) && !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    fn session(&mut self) -> Session {
        let mut secure = self.levels[self.rng.below(self.levels.len())].clone();
        let extras = self.rng.below(3);
        let extra = self.ases(extras, &secure);
        secure.extend(extra);
        let destinations = self.ases(DESTINATIONS, &[]);
        // Pareto(x_m = 2, alpha = 1.3) session lengths, capped.
        let left = ((2.0 * self.rng.unit().powf(-1.0 / 1.3)).ceil() as usize).min(64);
        Session {
            secure,
            destinations,
            left,
        }
    }

    fn next_query(&mut self) -> Sent {
        let s = self.rng.below(self.open.len());
        let estimate = self.rng.below(8) == 0;
        let mask = 1 + self.rng.below(7);
        let models = (0..MODELS.len()).filter(|i| mask & (1 << i) != 0).collect();
        let count = if estimate { 6 } else { 1 + self.rng.below(2) };
        let avoid = self.open[s].destinations.clone();
        let attackers = self.ases(count, &avoid);
        let session = &mut self.open[s];
        let q = Sent {
            id: self.next_id,
            secure: session.secure.clone(),
            attackers,
            destinations: session.destinations.clone(),
            models,
            budget: if estimate { 8 } else { 0 },
            seed: self.next_id,
        };
        self.next_id += 1;
        session.left = session.left.saturating_sub(1);
        if session.left == 0 {
            self.open[s] = self.session();
        }
        q
    }
}

// ---------------------------------------------------------------------------
// The planner subprocess
// ---------------------------------------------------------------------------

struct Server {
    child: Child,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn the planner on the snapshot and wait for its `ready` frame;
    /// returns the server and the spawn-to-ready time.
    fn spawn(bin: &Path, snap: &Snapshot, par: Parallelism) -> Result<(Server, f64), String> {
        let cps: Vec<String> = snap.cps.iter().map(|c| c.to_string()).collect();
        let t = Instant::now();
        let mut child = Command::new(bin)
            .arg("--file")
            .arg(&snap.path)
            .args(["--cps", &cps.join(",")])
            .args(["--threads", &par.0.to_string()])
            .args(["--cache", &CACHE.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = BufWriter::new(child.stdin.take().expect("piped stdin"));
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            stdin,
            stdout,
        };
        let hello = server.recv()?;
        let ready = secs(t);
        let hello = Json::parse(&hello).map_err(|e| format!("hello frame: {e}"))?;
        if hello.str("op") != Some("ready") {
            return Err(format!("planner did not report ready: {hello:?}"));
        }
        Ok((server, ready))
    }

    fn recv(&mut self) -> Result<String, String> {
        read_frame(&mut self.stdout)
            .map_err(|e| format!("reading a planner frame: {e}"))?
            .ok_or_else(|| "planner closed its output".to_string())
    }

    fn call(&mut self, frame: &str) -> Result<String, String> {
        write_frame(&mut self.stdin, frame).map_err(|e| format!("writing a frame: {e}"))?;
        self.recv()
    }

    /// Ask for a clean exit and wait for it.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = self.call("{\"op\":\"shutdown\"}")?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !bye.contains("\"bye\"") || !status.success() {
            return Err(format!("unclean planner shutdown: {bye} ({status})"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Shape checks of one reply against the query that was sent; returns the
/// parsed reply when it is a well-formed answer.
fn check_reply(q: &Sent, reply: &str, checks: &mut Checks) -> Option<Json> {
    let parsed = Json::parse(reply);
    let want_mode = if q.budget == 0 { "exact" } else { "estimate" };
    let ok = parsed.as_ref().is_ok_and(|r| {
        r.str("op") == Some("reply")
            && r.num("id") == Some(q.id as f64)
            && r.str("mode") == Some(want_mode)
            && r.arr("cells").is_some_and(|cells| {
                cells.len() == q.models.len()
                    && cells.iter().zip(&q.models).all(|(c, &i)| {
                        c.str("model") == Some(model_token(MODELS[i]))
                            && [c.num("lower"), c.num("upper")]
                                .iter()
                                .all(|x| x.is_some_and(|x| (0.0..=1.0).contains(&x)))
                    })
            })
    });
    checks.check(ok, || format!("query {}: bad reply {reply:.300}", q.id));
    if ok {
        parsed.ok()
    } else {
        None
    }
}

/// Recompute an exact reply from first principles under the deployment
/// the benchmark sent: one `Engine::compute` per pair and model, summed
/// in the planner's documented order (attackers within a destination,
/// then destinations in query order).
fn verify_exact(net: &Internet, q: &Sent, reply: &Json, checks: &mut Checks) {
    let n = net.len();
    let mut dep = Deployment::empty(n);
    for &v in &q.secure {
        dep.insert_full(AsId(v));
    }
    let sources = (n - 2) as f64;
    let mut engine = Engine::new(&net.graph);
    let cells = reply.arr("cells").unwrap_or(&[]);
    for (&i, cell) in q.models.iter().zip(cells) {
        let policy = Policy::new(MODELS[i]);
        let (mut lower, mut upper, mut pairs) = (0.0, 0.0, 0u64);
        for &d in &q.destinations {
            let (mut dl, mut du) = (0.0, 0.0);
            for &m in q.attackers.iter().filter(|&&m| m != d) {
                let (l, u) = engine
                    .compute(AttackScenario::attack(AsId(m), AsId(d)), &dep, policy)
                    .count_happy();
                dl += l as f64 / sources;
                du += u as f64 / sources;
                pairs += 1;
            }
            lower += dl;
            upper += du;
        }
        let want = (lower / pairs as f64, upper / pairs as f64);
        let got = (cell.num("lower"), cell.num("upper"));
        checks.check(
            got.0.map(f64::to_bits) == Some(want.0.to_bits())
                && got.1.map(f64::to_bits) == Some(want.1.to_bits())
                && cell.num("pairs") == Some(pairs as f64),
            || {
                format!(
                    "query {} {}: got {got:?}, recomputed {want:?}",
                    q.id,
                    model_token(MODELS[i])
                )
            },
        );
    }
}

/// All reply checks of a stream, plus a seeded sample of exact replies
/// recomputed. Returns the pairs the well-formed replies answered.
fn verify(
    net: &Internet,
    sent: &[Sent],
    replies: &[String],
    seed: u64,
    checks: &mut Checks,
) -> f64 {
    let mut exact = Vec::new();
    let mut pairs = 0.0;
    for (q, reply) in sent.iter().zip(replies) {
        if let Some(parsed) = check_reply(q, reply, checks) {
            pairs += parsed.num("pairs").unwrap_or(0.0);
            if q.budget == 0 {
                exact.push((q, parsed));
            }
        }
    }
    let mut rng = Rng::new(mix(seed, 0x7e51));
    for i in rng.distinct(exact.len(), VERIFY_QUERIES) {
        verify_exact(net, exact[i].0, &exact[i].1, checks);
    }
    pairs
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// What a closed loop sent, received and measured.
struct Loop {
    sent: Vec<Sent>,
    replies: Vec<String>,
    latency_ms: Vec<f64>,
    wall: f64,
}

/// The closed loop: one query at a time until `seconds` have passed and at
/// least `min_queries` were answered.
fn closed_loop(
    server: &mut Server,
    stream: &mut Stream,
    seconds: f64,
    min_queries: usize,
) -> Result<Loop, String> {
    let mut l = Loop {
        sent: Vec::new(),
        replies: Vec::new(),
        latency_ms: Vec::new(),
        wall: 0.0,
    };
    let start = Instant::now();
    while secs(start) < seconds || l.sent.len() < min_queries {
        let q = stream.next_query();
        let frame = q.frame();
        let t = Instant::now();
        let reply = server.call(&frame)?;
        l.latency_ms.push(secs(t) * 1e3);
        l.sent.push(q);
        l.replies.push(reply);
    }
    l.wall = secs(start);
    Ok(l)
}

/// One snapshot's untraced stream: `spawns` planner spawns on the snapshot
/// (their spawn-to-ready times appended to `ready`), then the closed loop
/// on the last one. Returns the loop and the planner's peak RSS.
#[allow(clippy::too_many_arguments)]
fn serve_snapshot(
    bin: &Path,
    snap: &Snapshot,
    stream: &mut Stream,
    par: Parallelism,
    spawns: usize,
    seconds: f64,
    min_queries: usize,
    ready: &mut Vec<f64>,
) -> Result<(Loop, f64), String> {
    let mut server: Option<Server> = None;
    for _ in 0..spawns.max(1) {
        if let Some(s) = server.take() {
            s.shutdown()?;
        }
        let (s, r) = Server::spawn(bin, snap, par)?;
        ready.push(r);
        server = Some(s);
    }
    let mut server = server.expect("at least one spawn");
    let l = closed_loop(&mut server, stream, seconds, min_queries)?;
    let rss = peak_rss_mb(Some(server.child.id()))?;
    server.shutdown()?;
    Ok((l, rss))
}

/// The end-to-end run: one planner per snapshot, each serving its share
/// of the run; set-up time, query latency percentiles, throughput and the
/// largest planner peak memory.
pub fn run(
    bin: &Path,
    snaps: &[Snapshot],
    seed: u64,
    seconds: f64,
    par: Parallelism,
    checks: &mut Checks,
) -> Result<Report, String> {
    let share = seconds / snaps.len() as f64;
    let min_queries = MIN_QUERIES.div_ceil(snaps.len());
    let mut ready = Vec::new();
    let (mut latency_ms, mut queries, mut estimates) = (Vec::new(), 0, 0);
    let (mut pairs, mut wall, mut rss) = (0.0, 0.0, 0.0f64);
    for (g, snap) in snaps.iter().enumerate() {
        let net = snapshot::load(snap)?;
        let seed = mix(seed, g as u64);
        let mut stream = Stream::new(&net, seed);
        let (l, peak) = serve_snapshot(
            bin,
            snap,
            &mut stream,
            par,
            SETUP_REPS,
            share,
            min_queries,
            &mut ready,
        )?;
        pairs += verify(&net, &l.sent, &l.replies, seed, checks);
        latency_ms.extend_from_slice(&l.latency_ms);
        queries += l.sent.len();
        estimates += l.sent.iter().filter(|q| q.budget > 0).count();
        wall += l.wall;
        rss = rss.max(peak);
    }
    eprintln!(
        "{} snapshots, {queries} queries ({estimates} estimates) in {wall:.3} s, \
         cache {CACHE}, {} threads",
        snaps.len(),
        par.0
    );

    let mut report = Report::default();
    report.put("setup_s", median(&ready), "s");
    report.put("pairs_per_s", pairs / wall, "1/s");
    report.put("query_p50_ms", quantile(&latency_ms, 0.50), "ms");
    report.put("query_p95_ms", quantile(&latency_ms, 0.95), "ms");
    report.put("queries_per_s", queries as f64 / wall, "1/s");
    report.put("peak_rss_mb", rss, "MiB");
    Ok(report)
}

/// Spans of the in-process replay, summed over snapshots.
#[derive(Default)]
struct Replay {
    frame_io_s: f64,
    parse_s: f64,
    exact_s: f64,
    estimate_s: f64,
    exact_n: u64,
    estimate_n: u64,
    wall: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Write `payload` as a frame into `buf` and read it back.
fn roundtrip(buf: &mut Vec<u8>, payload: &str) -> Result<String, String> {
    buf.clear();
    write_frame(buf, payload)
        .and_then(|()| read_frame(&mut Cursor::new(&buf[..])))
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame buffer".to_string())
}

/// Replay a stream in a fresh in-process planner with spans around frame
/// I/O (on in-memory buffers), `Query::parse` and `Planner::answer`; every
/// reply must equal the server's byte for byte.
fn replay(
    net: &Internet,
    l: &Loop,
    par: Parallelism,
    r: &mut Replay,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut planner = Planner::new(
        net.clone(),
        PlannerConfig {
            cache_capacity: CACHE,
            prewarm: 0,
            parallelism: par,
        },
    );
    let n = net.len();
    let mut buf: Vec<u8> = Vec::new();
    let start = Instant::now();
    for (q, want) in l.sent.iter().zip(&l.replies) {
        let t = Instant::now();
        let text = roundtrip(&mut buf, &q.frame())?;
        let t1 = Instant::now();
        r.frame_io_s += (t1 - t).as_secs_f64();
        let parsed = Query::parse(&text, n);
        let t2 = Instant::now();
        r.parse_s += (t2 - t1).as_secs_f64();
        let reply = match parsed {
            Ok(query) => {
                let reply = planner.answer(&query);
                let s = t2.elapsed().as_secs_f64();
                if query.budget.is_some() {
                    r.estimate_s += s;
                    r.estimate_n += 1;
                } else {
                    r.exact_s += s;
                    r.exact_n += 1;
                }
                reply
            }
            Err(e) => e,
        };
        let t3 = Instant::now();
        let echoed = roundtrip(&mut buf, &reply)?;
        r.frame_io_s += t3.elapsed().as_secs_f64();
        checks.check(echoed == *want, || {
            format!("query {}: in-process reply differs from the server's", q.id)
        });
    }
    r.wall += secs(start);
    let cache = planner.cache_stats();
    r.hits += cache.hits;
    r.misses += cache.misses;
    r.evictions += cache.evictions;
    Ok(())
}

/// The traced run: [`TRACE_QUERIES`] of the same closed loops untraced,
/// spread over the snapshots, then each snapshot's frame stream replayed
/// in-process with spans (see [`replay`]).
pub fn run_trace(
    bin: &Path,
    snaps: &[Snapshot],
    seed: u64,
    par: Parallelism,
    checks: &mut Checks,
) -> Result<Report, String> {
    let mut load = LoadSpans::default();
    let mut r = Replay::default();
    let (mut untraced_wall, mut queries) = (0.0, 0);
    let per_snapshot = TRACE_QUERIES.div_ceil(snaps.len());
    for (g, snap) in snaps.iter().enumerate() {
        let net = snapshot::load_traced(snap, &mut load)?;
        let seed = mix(seed, g as u64);
        let mut stream = Stream::new(&net, seed);
        let (l, _) = serve_snapshot(
            bin,
            snap,
            &mut stream,
            par,
            1,
            0.0,
            per_snapshot,
            &mut Vec::new(),
        )?;
        verify(&net, &l.sent, &l.replies, seed, checks);
        untraced_wall += l.wall;
        queries += l.sent.len();
        replay(&net, &l, par, &mut r, checks)?;
    }
    let covered = r.frame_io_s + r.parse_s + r.exact_s + r.estimate_s;
    let coverage = covered / r.wall;
    let overhead = r.wall / untraced_wall;
    eprintln!(
        "{queries} queries; span coverage {:.2}% of {:.3} s; tracing overhead {overhead:.4}x \
         (in-process traced {:.3} s vs subprocess untraced {untraced_wall:.3} s)",
        coverage * 100.0,
        r.wall,
        r.wall
    );

    let lookups = r.hits + r.misses;
    let mut rep = Report::default();
    rep.put("serve.cache_hits", r.hits as f64, "count");
    rep.put("serve.cache_misses", r.misses as f64, "count");
    rep.put("serve.cache_evictions", r.evictions as f64, "count");
    let hit_ratio = if lookups == 0 {
        0.0
    } else {
        r.hits as f64 / lookups as f64
    };
    rep.put("serve.hit_ratio", hit_ratio, "ratio");
    rep.put("serve.answer_exact_s", r.exact_s, "s");
    rep.put("serve.answer_estimate_s", r.estimate_s, "s");
    rep.put("serve.queries_exact", r.exact_n as f64, "count");
    rep.put("serve.queries_estimate", r.estimate_n as f64, "count");
    rep.put("serve.parse_s", r.parse_s, "s");
    rep.put("serve.frame_io_s", r.frame_io_s, "s");
    crate::put_topology(&mut rep, &load, 0.0);
    rep.put("trace.coverage", coverage, "ratio");
    rep.put("trace.overhead", overhead, "ratio");
    Ok(rep)
}
