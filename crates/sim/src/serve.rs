//! The deployment-planner what-if service.
//!
//! The paper's whole point is helping operators decide *where* partial
//! S\*BGP deployment buys security. This module graduates that decision
//! loop into a long-running server: a [`Planner`] loads one snapshot and
//! answers *what-if* queries — "given this secure set `S`, these
//! suspected attackers, these policy cells: what is my happy fraction
//! ±CI?".
//!
//! # Serving path
//!
//! * Exact queries enumerate every `m ≠ d` pair: per destination, one
//!   [`FusedDeltaEngine`] attack per suspected attacker serves every
//!   `(model, strategy)` cell of the query at once.
//! * When the `attackers × destinations` pair universe is large, the
//!   query opts into the stratified estimator (`"budget"`): tier-strata,
//!   Feistel without-replacement sampling, Welford accumulators and
//!   population-weighted recombination with confidence intervals, all
//!   from [`crate::stats`], evaluated by the figures' own
//!   [`SweepCellsEval`] kernel over the query's single deployment.
//!
//! # Protocol
//!
//! Transport-agnostic length-prefixed JSON frames, exactly PR 8's worker
//! protocol ([`crate::supervise::write_frame`] /
//! [`crate::supervise::read_frame`]), served over any `Read`/`Write`
//! pair ([`Planner::serve`] — the `planner` binary wires stdin/stdout).
//! Requests are JSON objects with an `"op"` field:
//!
//! ```text
//! {"op":"query","id":1,
//!  "secure":[1,2,3],"simplex":[9],        // the what-if deployment S
//!  "attackers":[4,5],"destinations":[0,6],// suspected pairs (m ≠ d)
//!  "models":["sec1","sec3"],"variant":"lp","strategies":["fakelink","path2"],
//!  "budget":0,"seed":42,"deadline_ms":0}  // budget>0 => stratified estimate
//! {"op":"stats"}                          // queries answered so far
//! {"op":"shutdown"}
//! ```
//!
//! All ids are dense graph ids (`0..n`); `models`/`strategies` default to
//! `["sec3"]`/`["fakelink"]`, `variant` to `"lp"`. Requests are read by the
//! strict codec in [`crate::json`], so whitespace and key order never
//! change the answer. The rules:
//!
//! * a request is exactly one JSON object (RFC 8259: no trailing bytes,
//!   no duplicate keys, validated escapes, bounded nesting);
//! * an unknown key, or a key of the wrong type (`"budget":"50"`,
//!   `"budget":-5`, `"secure":[[1]]`, an id above `u64::MAX`), draws an
//!   error reply;
//! * defaults apply only to *absent* keys, never to unreadable ones.
//!
//! Replies echo the id:
//!
//! ```text
//! {"op":"reply","schema":"planner-v1","id":1,"mode":"exact","pairs":4,"population":4,
//!  "cells":[{"model":"sec3","variant":"lp","strategy":"fakelink",
//!            "lower":0.5,"upper":0.5,"hw_lower":0,"hw_upper":0,"pairs":4}, ...]}
//! ```
//!
//! A malformed message is rejected with a clean
//! `{"op":"error",...}` reply — never a crash, and the server keeps
//! answering.
//!
//! # Determinism contract
//!
//! Same snapshot + same query ⇒ **bit-identical** reply, at any point in
//! the stream and any [`Parallelism`]: the exact path merges
//! per-destination accumulators in destination order, and the estimate
//! path inherits the group-order reduction of [`crate::stats`]
//! (`tests/planner.rs` pins both). Timing never appears in a reply. A
//! `"deadline_ms"` overrun turns the
//! reply into an error frame instead of a partial answer, so successful
//! replies stay deterministic.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use sbgp_core::{
    AttackStrategy, Bounds, CellSet, Deployment, FusedDeltaEngine, LpVariant, Policy, PolicyCell,
    SecurityModel,
};
use sbgp_topology::AsId;

use crate::json::Json;
use crate::runner::{map_reduce, Parallelism};
use crate::stats::{estimate_adaptive_cells_eval, EstimatorConfig, PairUniverse, SweepCellsEval};
use crate::supervise::{read_frame, write_frame};
use crate::Internet;

/// Wire-schema tag carried by every planner reply.
pub const PLANNER_SCHEMA: &str = "planner-v1";

// ---------------------------------------------------------------------------
// Tokens (the CLI vocabulary, reused on the wire)
// ---------------------------------------------------------------------------

/// The wire/CLI token of a security model (`sec1`/`sec2`/`sec3`).
pub fn model_token(m: SecurityModel) -> &'static str {
    match m {
        SecurityModel::Security1st => "sec1",
        SecurityModel::Security2nd => "sec2",
        SecurityModel::Security3rd => "sec3",
    }
}

/// Parse a security-model token.
pub fn parse_model(tok: &str) -> Result<SecurityModel, String> {
    match tok {
        "sec1" => Ok(SecurityModel::Security1st),
        "sec2" => Ok(SecurityModel::Security2nd),
        "sec3" => Ok(SecurityModel::Security3rd),
        other => Err(format!("unknown model {other:?} (want sec1|sec2|sec3)")),
    }
}

/// The wire/CLI token of an LP variant (`lp`/`lp2`/`lpinf`).
pub fn variant_token(v: LpVariant) -> String {
    match v {
        LpVariant::Standard => "lp".into(),
        LpVariant::LpK(k) => format!("lp{k}"),
        LpVariant::LpInf => "lpinf".into(),
    }
}

/// Parse an LP-variant token.
pub fn parse_variant(tok: &str) -> Result<LpVariant, String> {
    match tok {
        "lp" => Ok(LpVariant::Standard),
        "lp2" => Ok(LpVariant::LpK(2)),
        "lpinf" => Ok(LpVariant::LpInf),
        other => Err(format!("unknown variant {other:?} (want lp|lp2|lpinf)")),
    }
}

/// The wire/CLI token of an attack strategy (`fakelink`/`hijack`/`pathK`).
pub fn strategy_token(s: AttackStrategy) -> String {
    match s {
        AttackStrategy::FakeLink => "fakelink".into(),
        AttackStrategy::OriginHijack => "hijack".into(),
        AttackStrategy::FakePath { hops } => format!("path{hops}"),
    }
}

/// Parse an attack-strategy token (canonicalized, so `path1` ≡ `fakelink`).
pub fn parse_strategy(tok: &str) -> Result<AttackStrategy, String> {
    match tok {
        "fakelink" | "fake-link" => Ok(AttackStrategy::FakeLink),
        "hijack" => Ok(AttackStrategy::OriginHijack),
        other => match other.strip_prefix("path") {
            Some(k) => k
                .parse::<u8>()
                .map(|hops| AttackStrategy::FakePath { hops }.canonical())
                .map_err(|_| format!("bad forged-path depth in {other:?}")),
            None => Err(format!(
                "unknown strategy {other:?} (want fakelink|hijack|pathK)"
            )),
        },
    }
}

/// `msg` as a reply string: quotes, backslashes and control characters
/// become spaces (so nothing needs escaping), capped at 300 chars.
fn sanitize(msg: &str) -> Json {
    let plain: String = msg
        .chars()
        .map(|c| {
            if c == '"' || c == '\\' || c.is_control() {
                ' '
            } else {
                c
            }
        })
        .take(300)
        .collect();
    Json::Str(plain)
}

/// A planner frame: `op` and the schema tag, then `members`.
fn frame<const N: usize>(op: &str, members: [(&str, Json); N]) -> String {
    let head = [("op", op.into()), ("schema", PLANNER_SCHEMA.into())];
    Json::obj(head.into_iter().chain(members)).to_string()
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Planner-service configuration.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Inert. Kept only because `perfbench/` builds this struct; the next
    /// benchmark change removes it.
    pub cache_capacity: usize,
    /// Inert. Kept only because `perfbench/` builds this struct; the next
    /// benchmark change removes it.
    pub prewarm: usize,
    /// Worker threads for query evaluation (replies are bit-identical at
    /// any value).
    pub parallelism: Parallelism,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            cache_capacity: 256,
            prewarm: 0,
            parallelism: Parallelism::sequential(),
        }
    }
}

/// The return type of [`Planner::cache_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always zero. Kept only because `perfbench/` reads it; the next
    /// benchmark change removes it.
    pub hits: u64,
    /// Always zero. Kept only because `perfbench/` reads it; the next
    /// benchmark change removes it.
    pub misses: u64,
    /// Always zero. Kept only because `perfbench/` reads it; the next
    /// benchmark change removes it.
    pub evictions: u64,
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// A parsed what-if query.
#[derive(Clone, Debug)]
pub struct Query {
    /// Client-chosen id, echoed in the reply (0 when omitted).
    pub id: u64,
    /// Full-S\*BGP members of the what-if deployment.
    pub secure: Vec<AsId>,
    /// Simplex members (ids also listed in `secure` stay full).
    pub simplex: Vec<AsId>,
    /// Suspected attackers (each is evaluated singly against each
    /// destination; `m == d` pairs are skipped, the metric convention).
    pub attackers: Vec<AsId>,
    /// Destinations of interest.
    pub destinations: Vec<AsId>,
    /// Security models of the policy grid.
    pub models: Vec<SecurityModel>,
    /// LP variant (shared by every cell).
    pub variant: LpVariant,
    /// Attack-strategy rungs of the policy grid.
    pub strategies: Vec<AttackStrategy>,
    /// `Some(b)`: stratified estimation with pair budget `b`; `None`
    /// (or 0 on the wire): exact enumeration of every `m ≠ d` pair.
    pub budget: Option<u64>,
    /// Estimation seed (sampling permutations only).
    pub seed: u64,
    /// Per-query deadline; an overrun is reported as an error reply.
    pub deadline_ms: Option<u64>,
}

/// Every key a query may carry.
const QUERY_KEYS: [&str; 12] = [
    "op",
    "id",
    "secure",
    "simplex",
    "attackers",
    "destinations",
    "models",
    "variant",
    "strategies",
    "budget",
    "seed",
    "deadline_ms",
];

const UINT: &str = "an unsigned integer";

fn parse_ids(msg: &Json, key: &str, n: usize) -> Result<Vec<AsId>, String> {
    let raw = msg
        .opt(key, "an array of unsigned integer ids", Json::as_u64s)?
        .unwrap_or_default();
    let mut out = Vec::with_capacity(raw.len());
    for v in raw {
        if v >= n as u64 {
            return Err(format!("{key}: id {v} out of range (graph has {n} ASes)"));
        }
        out.push(AsId(v as u32));
    }
    Ok(out)
}

/// A token list: absent or empty means `default`.
fn parse_tokens<T>(
    msg: &Json,
    key: &str,
    parse: fn(&str) -> Result<T, String>,
    default: T,
) -> Result<Vec<T>, String> {
    match msg.opt(key, "an array of strings", Json::as_strs)? {
        Some(toks) if !toks.is_empty() => toks.into_iter().map(parse).collect(),
        _ => Ok(vec![default]),
    }
}

fn reject_duplicates(ids: &[AsId], key: &str) -> Result<(), String> {
    for (i, a) in ids.iter().enumerate() {
        if let Some(j) = ids[..i].iter().position(|b| b == a) {
            return Err(format!(
                "{key}: id {a} listed twice (items {} and {})",
                j + 1,
                i + 1
            ));
        }
    }
    Ok(())
}

impl Query {
    /// Parse a `{"op":"query",...}` message against a graph of `n` ASes.
    pub fn parse(text: &str, n: usize) -> Result<Query, String> {
        Query::from_json(&Json::parse(text)?, n)
    }

    fn from_json(msg: &Json, n: usize) -> Result<Query, String> {
        if n < 3 {
            return Err(format!("graph has {n} ASes; the metric needs at least 3"));
        }
        msg.only_keys(&QUERY_KEYS)?;
        match msg.opt("op", "a string", Json::as_str)? {
            None | Some("query") => {}
            Some(op) => return Err(format!("op {op:?} is not a query")),
        }
        let id = msg.opt("id", UINT, Json::as_u64)?.unwrap_or(0);
        let secure = parse_ids(msg, "secure", n)?;
        let simplex = parse_ids(msg, "simplex", n)?;
        let attackers = parse_ids(msg, "attackers", n)?;
        let destinations = parse_ids(msg, "destinations", n)?;
        if attackers.is_empty() {
            return Err("attackers: need at least one suspected attacker".into());
        }
        if destinations.is_empty() {
            return Err("destinations: need at least one destination".into());
        }
        reject_duplicates(&attackers, "attackers")?;
        reject_duplicates(&destinations, "destinations")?;
        let models = parse_tokens(msg, "models", parse_model, SecurityModel::Security3rd)?;
        let variant = match msg.opt("variant", "a string", Json::as_str)? {
            Some(tok) => parse_variant(tok)?,
            None => LpVariant::Standard,
        };
        let strategies = parse_tokens(msg, "strategies", parse_strategy, AttackStrategy::FakeLink)?;
        if models.len() * strategies.len() > 64 {
            return Err(format!(
                "{} models x {} strategies exceeds the 64-cell fused-pass cap",
                models.len(),
                strategies.len()
            ));
        }
        let budget = msg.opt("budget", UINT, Json::as_u64)?.filter(|&b| b > 0);
        let seed = msg.opt("seed", UINT, Json::as_u64)?.unwrap_or(0);
        let deadline_ms = msg
            .opt("deadline_ms", UINT, Json::as_u64)?
            .filter(|&ms| ms > 0);
        let pairs_exist = destinations
            .iter()
            .any(|d| attackers.iter().any(|m| m != d));
        if !pairs_exist {
            return Err("no valid pairs: every attacker equals every destination".into());
        }
        Ok(Query {
            id,
            secure,
            simplex,
            attackers,
            destinations,
            models,
            variant,
            strategies,
            budget,
            seed,
            deadline_ms,
        })
    }

    /// The query's deployment (full members win over simplex).
    pub fn deployment(&self, n: usize) -> Deployment {
        let mut dep = Deployment::empty(n);
        for &v in &self.secure {
            dep.insert_full(v);
        }
        for &v in &self.simplex {
            dep.insert_simplex(v);
        }
        dep
    }

    /// The query's policy grid, row-major `models × strategies`.
    pub fn cell_set(&self) -> CellSet {
        let policies: Vec<Policy> = self
            .models
            .iter()
            .map(|&m| Policy::with_variant(m, self.variant))
            .collect();
        CellSet::grid(&policies, &self.strategies)
    }
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

/// One evaluated cell of a reply: `value ± halfwidth` over `pairs` pairs.
fn cell_reply(cell: PolicyCell, value: Bounds, halfwidth: Bounds, pairs: u64) -> Json {
    // `f64` Display is the shortest exact round trip, so replies are
    // bit-faithful.
    let num = |v: f64| Json::Num(v.to_string());
    Json::obj([
        ("model", model_token(cell.policy.model).into()),
        ("variant", Json::Str(variant_token(cell.policy.variant))),
        ("strategy", Json::Str(strategy_token(cell.strategy))),
        ("lower", num(value.lower)),
        ("upper", num(value.upper)),
        ("hw_lower", num(halfwidth.lower)),
        ("hw_upper", num(halfwidth.upper)),
        ("pairs", pairs.into()),
    ])
}

/// Exact-path accumulator, merged in item order (deterministic at any
/// [`Parallelism`]).
struct ExactAcc {
    lower: Vec<f64>,
    upper: Vec<f64>,
    pairs: u64,
    timed_out: bool,
}

impl ExactAcc {
    fn new(cells: usize) -> ExactAcc {
        ExactAcc {
            lower: vec![0.0; cells],
            upper: vec![0.0; cells],
            pairs: 0,
            timed_out: false,
        }
    }

    fn merge(&mut self, o: ExactAcc) {
        for (a, b) in self.lower.iter_mut().zip(&o.lower) {
            *a += b;
        }
        for (a, b) in self.upper.iter_mut().zip(&o.upper) {
            *a += b;
        }
        self.pairs += o.pairs;
        self.timed_out |= o.timed_out;
    }
}

/// The long-running what-if service: one snapshot and a deterministic
/// query loop. See the module docs for the protocol and the determinism
/// contract.
pub struct Planner {
    net: Internet,
    cfg: PlannerConfig,
    queries: u64,
}

impl Planner {
    /// Build the service.
    pub fn new(net: Internet, cfg: PlannerConfig) -> Planner {
        Planner {
            net,
            cfg,
            queries: 0,
        }
    }

    /// The served snapshot.
    pub fn net(&self) -> &Internet {
        &self.net
    }

    /// All-zero counters. Kept only because `perfbench/` reads them; the
    /// next benchmark change removes it.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// The `{"op":"ready",...}` hello frame payload.
    pub fn hello(&self) -> String {
        let graph = sanitize(&self.net.name);
        frame(
            "ready",
            [("graph", graph), ("asns", (self.net.len() as u64).into())],
        )
    }

    fn encode_error(id: u64, msg: &str) -> String {
        frame("error", [("id", id.into()), ("error", sanitize(msg))])
    }

    /// Handle one message; `None` means a clean shutdown request.
    pub fn handle(&mut self, text: &str) -> Option<String> {
        let msg = match Json::parse(text) {
            Ok(msg) => msg,
            // A broken object says where it broke; other text has no op.
            Err(e) if text.trim_start().starts_with('{') => {
                return Some(Self::encode_error(0, &format!("malformed message: {e}")))
            }
            Err(_) => return Some(Self::encode_error(0, "malformed message: no op field")),
        };
        let id = msg.get("id").and_then(Json::as_u64).unwrap_or(0);
        match msg.get("op").and_then(Json::as_str) {
            None => Some(Self::encode_error(id, "malformed message: no op field")),
            Some("query") => Some(match Query::from_json(&msg, self.net.len()) {
                Ok(q) => self.answer(&q),
                Err(e) => Self::encode_error(id, &e),
            }),
            Some(op @ ("stats" | "shutdown")) => match msg.only_keys(&["op", "id"]) {
                Err(e) => Some(Self::encode_error(id, &e)),
                Ok(()) if op == "shutdown" => None,
                Ok(()) => Some(frame("stats", [("queries", self.queries.into())])),
            },
            Some(other) => Some(Self::encode_error(id, &format!("unknown op {other:?}"))),
        }
    }

    /// Answer a parsed query (error replies included).
    pub fn answer(&mut self, q: &Query) -> String {
        self.queries += 1;
        let deadline = q
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let result = match q.budget {
            Some(budget) => self.answer_estimate(q, budget, deadline),
            None => self.answer_exact(q, deadline),
        };
        match result {
            Ok((mode, pairs, population, cells)) => frame(
                "reply",
                [
                    ("id", q.id.into()),
                    ("mode", mode.into()),
                    ("pairs", pairs.into()),
                    ("population", population.into()),
                    ("cells", Json::Arr(cells)),
                ],
            ),
            Err(e) => Self::encode_error(q.id, &e),
        }
    }

    /// Exact path: enumerate every `m ≠ d` pair, one fused engine per
    /// worker, destinations merged in query order.
    #[allow(clippy::type_complexity)]
    fn answer_exact(
        &self,
        q: &Query,
        deadline: Option<Instant>,
    ) -> Result<(&'static str, u64, u64, Vec<Json>), String> {
        let n = self.net.len();
        let dep = q.deployment(n);
        let cells = q.cell_set();
        let sources = (n - 2) as f64;
        let graph = &self.net.graph;
        let ncells = cells.input_len();
        let acc = map_reduce(
            self.cfg.parallelism,
            &q.destinations,
            || FusedDeltaEngine::new(graph, cells.clone()),
            || ExactAcc::new(ncells),
            |fused, acc, &d| {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        acc.timed_out = true;
                        return;
                    }
                }
                fused.begin(d, &dep);
                for &m in &q.attackers {
                    if m == d {
                        continue;
                    }
                    fused.attack(m);
                    for c in 0..ncells {
                        let (lower, upper) = fused.count_happy(c);
                        acc.lower[c] += lower as f64 / sources;
                        acc.upper[c] += upper as f64 / sources;
                    }
                    acc.pairs += 1;
                }
            },
            |a, b| a.merge(b),
        )
        .unwrap();
        if acc.timed_out {
            return Err(format!(
                "deadline exceeded ({} ms)",
                q.deadline_ms.unwrap_or(0)
            ));
        }
        let n = acc.pairs.max(1) as f64;
        let answers = (0..ncells)
            .map(|c| {
                let (lower, upper) = (acc.lower[c] / n, acc.upper[c] / n);
                let cell = cells.lanes()[cells.lane_of(c)];
                cell_reply(cell, Bounds { lower, upper }, Bounds::default(), acc.pairs)
            })
            .collect();
        Ok(("exact", acc.pairs, acc.pairs, answers))
    }

    /// Estimate path: stratified sampling of the pair universe with the
    /// query's budget and seed; confidence half-widths come back per cell.
    #[allow(clippy::type_complexity)]
    fn answer_estimate(
        &self,
        q: &Query,
        budget: u64,
        deadline: Option<Instant>,
    ) -> Result<(&'static str, u64, u64, Vec<Json>), String> {
        if let Some(dl) = deadline {
            // The adaptive loop has no abort hook; honor the deadline at
            // the query boundary (best effort, documented).
            if Instant::now() >= dl {
                return Err(format!(
                    "deadline exceeded ({} ms)",
                    q.deadline_ms.unwrap_or(0)
                ));
            }
        }
        let dep = q.deployment(self.net.len());
        let cells = q.cell_set();
        let universe = PairUniverse::new(&self.net, &q.attackers, &q.destinations);
        if universe.population() == 0 {
            return Err("no valid pairs in the estimation universe".into());
        }
        let eval = SweepCellsEval::with_cells(&self.net, std::slice::from_ref(&dep), cells.clone());
        let cfg = EstimatorConfig::with_budget(budget, q.seed);
        let runs = estimate_adaptive_cells_eval(&universe, &cfg, &eval, self.cfg.parallelism);
        let mut pairs = 0;
        let answers = runs
            .iter()
            .enumerate()
            .map(|(c, run)| {
                let est = run.estimates[0];
                pairs = pairs.max(est.pairs);
                let cell = cells.lanes()[cells.lane_of(c)];
                cell_reply(cell, est.value, est.halfwidth, est.pairs)
            })
            .collect();
        Ok(("estimate", pairs, universe.population(), answers))
    }

    /// Serve frames until EOF or a shutdown request. Malformed messages
    /// get error replies; an unreadable frame (invalid UTF-8, an
    /// oversized length prefix — the stream may be desynced) gets a final
    /// error frame and a clean exit. Never panics on input.
    pub fn serve(&mut self, r: &mut impl Read, w: &mut impl Write) -> std::io::Result<()> {
        write_frame(w, &self.hello())?;
        loop {
            match read_frame(r) {
                Ok(None) => return Ok(()),
                Ok(Some(text)) => match self.handle(&text) {
                    Some(reply) => write_frame(w, &reply)?,
                    None => {
                        write_frame(w, &frame("bye", []))?;
                        return Ok(());
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    write_frame(w, &Self::encode_error(0, &format!("unreadable frame: {e}")))?;
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Internet {
        Internet::synthetic(200, 7)
    }

    #[test]
    fn tokens_round_trip() {
        for m in SecurityModel::ALL {
            assert_eq!(parse_model(model_token(m)).unwrap(), m);
        }
        for v in [LpVariant::Standard, LpVariant::LpK(2), LpVariant::LpInf] {
            assert_eq!(parse_variant(&variant_token(v)).unwrap(), v);
        }
        for s in [
            AttackStrategy::FakeLink,
            AttackStrategy::OriginHijack,
            AttackStrategy::FakePath { hops: 3 },
        ] {
            assert_eq!(parse_strategy(&strategy_token(s)).unwrap(), s);
        }
        // Degenerate forged paths canonicalize.
        assert_eq!(parse_strategy("path1").unwrap(), AttackStrategy::FakeLink);
        assert_eq!(
            parse_strategy("path0").unwrap(),
            AttackStrategy::OriginHijack
        );
        assert!(parse_model("sec9").is_err());
        assert!(parse_variant("lpx").is_err());
        assert!(parse_strategy("pathy").is_err());
    }

    #[test]
    fn query_parsing_validates() {
        let n = 100;
        let ok = Query::parse(
            "{\"op\":\"query\",\"id\":3,\"secure\":[1,2],\"attackers\":[5],\
             \"destinations\":[9],\"models\":[\"sec1\",\"sec2\"],\"variant\":\"lp2\",\
             \"strategies\":[\"hijack\"],\"budget\":50,\"seed\":11}",
            n,
        )
        .unwrap();
        assert_eq!(ok.id, 3);
        assert_eq!(ok.models.len(), 2);
        assert_eq!(ok.variant, LpVariant::LpK(2));
        assert_eq!(ok.budget, Some(50));
        assert_eq!(ok.seed, 11);

        // Defaults.
        let q = Query::parse(
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[9]}",
            n,
        )
        .unwrap();
        assert_eq!(q.models, vec![SecurityModel::Security3rd]);
        assert_eq!(q.strategies, vec![AttackStrategy::FakeLink]);
        assert_eq!(q.budget, None);
        assert_eq!(q.id, 0);

        // Rejections.
        for bad in [
            "{\"op\":\"query\",\"destinations\":[9]}",
            "{\"op\":\"query\",\"attackers\":[5]}",
            "{\"op\":\"query\",\"attackers\":[500],\"destinations\":[9]}",
            "{\"op\":\"query\",\"attackers\":[5,5],\"destinations\":[9]}",
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[9,9]}",
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[5]}",
            "{\"op\":\"query\",\"attackers\":[5],\"destinations\":[9],\"models\":[\"sec9\"]}",
        ] {
            assert!(Query::parse(bad, n).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn malformed_messages_get_error_replies() {
        let mut planner = Planner::new(tiny(), PlannerConfig::default());
        for bad in [
            "not json at all",
            "{}",
            "{\"op\":\"transmogrify\"}",
            "{\"op\":\"query\",\"id\":9}",
        ] {
            let reply = planner.handle(bad).expect("an error reply, not shutdown");
            assert!(reply.contains("\"op\":\"error\""), "{bad} -> {reply}");
        }
        // ... and the server still answers real queries afterwards.
        let reply = planner
            .handle("{\"op\":\"query\",\"id\":1,\"attackers\":[5],\"destinations\":[9]}")
            .unwrap();
        assert!(reply.contains("\"op\":\"reply\""), "{reply}");
        assert!(planner.handle("{\"op\":\"shutdown\"}").is_none());
    }

    #[test]
    fn ready_and_stats_frames() {
        let mut planner = Planner::new(tiny(), PlannerConfig::default());
        assert_eq!(
            planner.hello(),
            format!(
                "{{\"op\":\"ready\",\"schema\":\"{PLANNER_SCHEMA}\",\"graph\":\"{}\",\
                 \"asns\":200}}",
                planner.net().name
            )
        );
        let q = "{\"op\":\"query\",\"id\":1,\"secure\":[1,2,3],\"attackers\":[5,6],\
                 \"destinations\":[9,10]}";
        let first = planner.handle(q).unwrap();
        assert_eq!(
            planner.handle(q).unwrap(),
            first,
            "repeat changed the reply"
        );
        assert_eq!(
            planner.handle("{\"op\":\"stats\"}").unwrap(),
            format!("{{\"op\":\"stats\",\"schema\":\"{PLANNER_SCHEMA}\",\"queries\":2}}")
        );
    }
}
