//! End-to-end tests for the deployment-planner what-if service.
//!
//! * the same query stream gets **byte-identical** replies at every
//!   [`Parallelism`] and on repeat, and they match a first-principles
//!   [`Engine::compute`] recomputation;
//! * a malformed frame draws a clean error reply and the server keeps
//!   answering (checked in-process *and* over a real subprocess pipe);
//! * the strict codec never lets a wrong-typed, unknown or duplicate key
//!   fall back to a default, and whitespace, key order and
//!   pretty-printing never change a reply.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use bgp_juice::prelude::*;
use bgp_juice::sim::json::Json;
use bgp_juice::sim::serve::{Planner, PlannerConfig};
use bgp_juice::sim::supervise::{read_frame, write_frame};
use bgp_juice::sim::Internet;
use proptest::prelude::*;

fn planner_config(threads: usize) -> PlannerConfig {
    PlannerConfig {
        parallelism: Parallelism(threads),
        ..PlannerConfig::default()
    }
}

/// The shared what-if stream: a query, an exact repeat, a query over a
/// superset of its destinations, and a narrower single-pair cell.
fn query_stream(n: usize) -> Vec<String> {
    let (m1, m2) = (n - 1, n - 2);
    vec![
        format!(
            "{{\"op\":\"query\",\"id\":1,\"secure\":[0,1,2,3,4,5,6],\"simplex\":[8],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,3],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        format!(
            "{{\"op\":\"query\",\"id\":2,\"secure\":[0,1,2,3,4,5,6],\"simplex\":[8],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,3],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        format!(
            "{{\"op\":\"query\",\"id\":3,\"secure\":[0,1,2,3,4,5,6],\"simplex\":[8],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,3,7,11],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        format!(
            "{{\"op\":\"query\",\"id\":4,\"secure\":[0,1,2,3,4,5,6],\"simplex\":[8],\
             \"attackers\":[{m1}],\"destinations\":[3],\"models\":[\"sec1\"],\
             \"strategies\":[\"fakelink\"]}}"
        ),
    ]
}

fn run_stream(planner: &mut Planner, stream: &[String]) -> Vec<String> {
    stream
        .iter()
        .map(|q| planner.handle(q).expect("reply"))
        .collect()
}

/// `key` of a reply's only cell.
fn cell_f64(reply: &str, key: &str) -> f64 {
    let reply = Json::parse(reply).expect("reply parses");
    let cells = reply.get("cells").and_then(Json::as_array).expect("cells");
    let [cell] = cells else {
        panic!("expected one cell, got {}", cells.len());
    };
    cell.get(key)
        .and_then(Json::as_f64)
        .expect("numeric cell value")
}

/// The stream's replies are byte-identical at 1, 2 and auto worker
/// threads and when the whole stream is replayed on the same planner, and
/// the single-pair query matches a first-principles compute.
#[test]
fn replies_are_bit_identical_across_parallelism_and_repeats() {
    let net = Internet::synthetic(600, 7);
    let stream = query_stream(net.len());

    let mut reference: Option<Vec<String>> = None;
    for par in [Parallelism(1), Parallelism(2), Parallelism::auto()] {
        let mut planner = Planner::new(
            net.clone(),
            PlannerConfig {
                parallelism: par,
                ..PlannerConfig::default()
            },
        );
        let first = run_stream(&mut planner, &stream);
        let again = run_stream(&mut planner, &stream);
        assert_eq!(first, again, "replayed stream differs at {par:?}");
        match &reference {
            Some(r) => assert_eq!(r, &first, "replies differ across Parallelism ({par:?})"),
            None => reference = Some(first),
        }
    }

    // Query 4 is one (m, d) pair under sec1/fakelink: recompute it from
    // first principles.
    let replies = reference.expect("reference replies");
    let (m, d) = (AsId(net.len() as u32 - 1), AsId(3));
    let mut dep = Deployment::empty(net.len());
    for v in 0..7 {
        dep.insert_full(AsId(v));
    }
    dep.insert_simplex(AsId(8));
    let mut engine = Engine::new(&net.graph);
    let (lo, hi) = engine
        .compute(
            AttackScenario::attack(m, d),
            &dep,
            Policy::new(SecurityModel::Security1st),
        )
        .count_happy();
    let sources = (net.len() - 2) as f64;
    assert_eq!(cell_f64(&replies[3], "lower"), lo as f64 / sources);
    assert_eq!(cell_f64(&replies[3], "upper"), hi as f64 / sources);
}

/// Serve `frames` in one in-memory session; the replies after `ready`.
fn serve_frames(planner: &mut Planner, frames: &[&[u8]]) -> Vec<String> {
    let mut input = Vec::new();
    for f in frames {
        input.extend_from_slice(&(f.len() as u32).to_be_bytes());
        input.extend_from_slice(f);
    }
    let mut out = Vec::new();
    planner.serve(&mut &input[..], &mut out).expect("serve");
    let mut r = &out[..];
    let mut replies: Vec<String> =
        std::iter::from_fn(|| read_frame(&mut r).expect("reply frame")).collect();
    assert!(replies.remove(0).contains("\"op\":\"ready\""));
    replies
}

/// A malformed message mid-stream draws a clean `{"op":"error",...}`
/// reply and the very next query is answered normally (in-process).
#[test]
fn malformed_messages_do_not_poison_the_stream() {
    let net = Internet::synthetic(200, 7);
    let stream = query_stream(net.len());
    let mut planner = Planner::new(net, planner_config(1));

    let good = planner.handle(&stream[0]).expect("reply");
    assert!(good.contains("\"op\":\"reply\""));

    let pairs = "\"attackers\":[5],\"destinations\":[9]";
    let query = |extra: &str| format!("{{\"op\":\"query\",\"id\":1,{pairs}{extra}}}");
    let mut bad: Vec<Vec<u8>> = [
        "not json at all".to_string(),
        "{\"op\":\"query\",\"id\":1}".to_string(),
        "{\"op\":\"launch-missiles\"}".to_string(),
        "{\"op\":\"query\",\"id\":1,\"secure\":[999999],\"attackers\":[1],\"destinations\":[2]}"
            .to_string(),
        // Truncated documents.
        stream[0][..stream[0].len() / 2].to_string(),
        stream[0][..stream[0].len() - 1].to_string(),
        "{".to_string(),
        "{\"op\":".to_string(),
        // Unbounded nesting must be an error, not a stack overflow.
        "[".repeat(1 << 20),
        format!(
            "{{\"op\":\"query\",\"id\":1,{pairs},\"secure\":{}",
            "[".repeat(1 << 20)
        ),
        // Invalid escapes and lone surrogates.
        "\"\\ud800\"".to_string(),
        query(",\"variant\":\"\\ud800\""),
        "\"\\x\"".to_string(),
        query(",\"variant\":\"\\x\""),
        // Numbers outside the grammar.
        "NaN".to_string(),
        query(",\"budget\":NaN"),
        "01".to_string(),
        query(",\"budget\":01"),
        "1.".to_string(),
        query(",\"budget\":1."),
        // A top-level array holding a valid query.
        format!("[{}]", stream[0]),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect();
    // Invalid UTF-8 inside a string.
    let mut utf8 = query(",\"variant\":\"lp#\"").into_bytes();
    let at = utf8.iter().position(|&b| b == b'#').expect("marker byte");
    utf8[at] = 0xff;
    bad.push(utf8);

    for frame in &bad {
        let replies = serve_frames(&mut planner, &[frame, stream[0].as_bytes()]);
        let shown = String::from_utf8_lossy(&frame[..frame.len().min(80)]);
        assert!(
            replies[0].contains("\"op\":\"error\""),
            "expected error reply for {shown:?}, got {}",
            replies[0]
        );
        match std::str::from_utf8(frame) {
            // The server keeps answering, identically.
            Ok(text) => {
                assert_eq!(
                    replies[1..],
                    *std::slice::from_ref(&good),
                    "after {shown:?}"
                );
                assert_eq!(planner.handle(text), Some(replies[0].clone()));
            }
            // An undecodable frame ends the session cleanly (see
            // `undecodable_frames_end_the_session_cleanly`); the planner
            // itself is unharmed and answers the next session.
            Err(_) => {
                assert_eq!(replies.len(), 1, "session outlived an undecodable frame");
                let next = serve_frames(&mut planner, &[stream[0].as_bytes()]);
                assert_eq!(next, std::slice::from_ref(&good));
            }
        }
    }

    let again = planner.handle(&stream[0]).expect("reply");
    assert_eq!(good, again, "server state was poisoned by bad input");
}

/// A key that is present but unreadable is an error reply, never a
/// silent default. Every frame below was answered as some *other*
/// deployment by the substring scanners the strict codec replaced. The
/// spaced spellings those scanners misread are now answered exactly like
/// their compact forms.
#[test]
fn present_but_unreadable_keys_are_errors() {
    let net = Internet::synthetic(200, 7);
    let mut planner = Planner::new(net, planner_config(1));
    let pairs = "\"attackers\":[5],\"destinations\":[9]";
    let query = |body: &str| format!("{{\"op\":\"query\",\"id\":1,{body}}}");
    for (bad, why) in [
        // Wrapped to [1] by an unchecked multiply.
        (
            query(&format!("\"secure\":[18446744073709551617],{pairs}")),
            "secure",
        ),
        // Nesting flattened, empty items skipped: both read as [1].
        (query(&format!("\"secure\":[[1]],{pairs}")), "secure"),
        (
            query(&format!("\"secure\":[1,,],{pairs}")),
            "expected a JSON value",
        ),
        // The first of two keys won.
        (
            query(&format!("\"secure\":[1],\"secure\":[2],{pairs}")),
            "duplicate key",
        ),
        // A misspelt key was ignored.
        (query(&format!("\"sekure\":[1],{pairs}")), "sekure"),
        // A bare word was read as a token.
        (
            query(&format!("{pairs},\"models\":[\"sec1\",sec2]")),
            "expected a JSON value",
        ),
        // Trailing bytes were ignored.
        (format!("{} x", query(pairs)), "trailing data"),
        (query(&format!("{pairs},\"budget\":\"50\"")), "budget"),
        (query(&format!("{pairs},\"budget\":-5")), "budget"),
        (query(&format!("{pairs},\"variant\":2")), "variant"),
        (
            query(&format!("{pairs},\"strategies\":\"hijack\"")),
            "strategies",
        ),
    ] {
        let reply = planner.handle(&bad).expect("error reply");
        assert!(
            reply.contains("\"op\":\"error\"") && reply.contains(why),
            "expected a {why:?} error for {bad}, got {reply}"
        );
    }
    // Spaced spellings are answered byte-identically to compact ones.
    for (spaced, compact) in [
        ("\"secure\": [1,2]", "\"secure\":[1,2]"),
        ("\"secure\":[0, 1, 2]", "\"secure\":[0,1,2]"),
        ("\"models\": [\"sec1\"]", "\"models\":[\"sec1\"]"),
        ("\"budget\": 50", "\"budget\":50"),
        ("\"variant\": \"lp2\"", "\"variant\":\"lp2\""),
    ] {
        let want = planner
            .handle(&query(&format!("{pairs},{compact}")))
            .expect("reply");
        assert!(want.contains("\"op\":\"reply\""), "{compact}: {want}");
        let got = planner
            .handle(&query(&format!("{pairs},{spaced}")))
            .expect("reply");
        assert_eq!(got, want, "{spaced} answered differently from {compact}");
    }
    let sec1 = planner
        .handle(&query(&format!("{pairs},\"models\": [\"sec1\"]")))
        .expect("reply");
    assert!(sec1.contains("\"model\":\"sec1\""), "{sec1}");
}

/// A JSON value of a generated query, rendered three ways below.
#[derive(Clone, Debug)]
enum Val {
    Num(u64),
    Str(&'static str),
    Arr(Vec<Val>),
}

/// Compact JSON with `ws()` between every pair of tokens.
fn spaced(v: &Val, ws: &mut impl FnMut() -> &'static str) -> String {
    match v {
        Val::Num(n) => n.to_string(),
        Val::Str(s) => format!("\"{s}\""),
        Val::Arr(items) => {
            let mut out = format!("[{}", ws());
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out += &format!("{},{}", ws(), ws());
                }
                out += &spaced(item, ws);
            }
            out + ws() + "]"
        }
    }
}

/// Two-space indented JSON, one array item per line.
fn pretty(v: &Val, indent: usize) -> String {
    match v {
        Val::Arr(items) if !items.is_empty() => {
            let pad = "  ".repeat(indent + 1);
            let body: Vec<String> = items
                .iter()
                .map(|item| format!("{pad}{}", pretty(item, indent + 1)))
                .collect();
            format!("[\n{}\n{}]", body.join(",\n"), "  ".repeat(indent))
        }
        other => spaced(other, &mut || ""),
    }
}

type QueryParts = (
    Vec<u64>,
    Vec<u64>,
    Vec<u64>,
    Vec<usize>,
    usize,
    Vec<usize>,
    u64,
    u64,
);

fn arb_query() -> impl Strategy<Value = QueryParts> {
    use proptest::collection::vec;
    (
        vec(0u64..200, 0..6),
        vec(100u64..200, 1..4),
        vec(0u64..100, 1..4),
        vec(0usize..3, 0..3),
        0usize..3,
        vec(0usize..3, 0..3),
        0u64..3,
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same query is answered byte-identically whatever its
    /// whitespace, key order or pretty-printing.
    #[test]
    fn replies_ignore_whitespace_key_order_and_pretty_printing(parts in arb_query()) {
        let (secure, attackers, destinations, models, variant, strategies, budget, seed) = parts;
        let distinct = |mut ids: Vec<u64>| {
            ids.sort_unstable();
            ids.dedup();
            Val::Arr(ids.into_iter().map(Val::Num).collect())
        };
        let pick = |idx: Vec<usize>, toks: [&'static str; 3]| {
            Val::Arr(idx.into_iter().map(|i| Val::Str(toks[i])).collect())
        };
        let mut fields = vec![
            ("op", Val::Str("query")),
            ("id", Val::Num(seed % 1000)),
            ("secure", distinct(secure)),
            ("attackers", distinct(attackers)),
            ("destinations", distinct(destinations)),
            ("models", pick(models, ["sec1", "sec2", "sec3"])),
            ("variant", Val::Str(["lp", "lp2", "lpinf"][variant])),
            ("strategies", pick(strategies, ["fakelink", "hijack", "path2"])),
            ("seed", Val::Num(seed >> 32)),
        ];
        if budget > 0 {
            fields.push(("budget", Val::Num(budget * 15)));
        }
        let frame = |fields: &[(&str, Val)], ws: &mut dyn FnMut() -> &'static str| {
            let mut ws = || ws();
            let members: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}\"{k}\"{}:{}{}{}", ws(), ws(), ws(), spaced(v, &mut ws), ws()))
                .collect();
            format!("{}{{{}}}{}", ws(), members.join(","), ws())
        };
        let compact = frame(&fields, &mut || "");

        // A seeded xorshift picks the whitespace and the key permutation.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut shuffled = fields.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        const WS: [&str; 5] = ["", " ", "\n", "\t", "\r\n  "];
        let scrambled = frame(&shuffled, &mut || WS[(next() % 5) as usize]);
        let members: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {}", pretty(v, 1)))
            .collect();
        let pretty_printed = format!("{{\n{}\n}}\n", members.join(",\n"));

        let mut planner = Planner::new(Internet::synthetic(200, 7), planner_config(1));
        let want = planner.handle(&compact).expect("reply");
        prop_assert!(want.contains("\"op\":\"reply\""), "{} -> {}", compact, want);
        for variant in [&scrambled, &pretty_printed] {
            let got = planner.handle(variant).expect("reply");
            prop_assert_eq!(&got, &want, "{} vs {}", variant, compact);
        }
    }
}

// ---------------------------------------------------------------------------
// Subprocess end-to-end (the real binary over real pipes)
// ---------------------------------------------------------------------------

/// Build (cached by the shared target dir) and locate the planner binary.
fn planner_bin() -> PathBuf {
    let out = Command::new(env!("CARGO"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
        .args([
            "build",
            "--offline",
            "-q",
            "-p",
            "sbgp_bench",
            "--bin",
            "planner",
        ])
        .output()
        .expect("spawn cargo build");
    assert!(
        out.status.success(),
        "planner failed to build:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("debug")
        .join("planner")
}

/// Full duplex conversation with the served binary: queries answered,
/// a garbage frame rejected with the server still alive, clean shutdown.
#[test]
fn served_binary_answers_over_pipes_and_survives_garbage() {
    let mut child = Command::new(planner_bin())
        .args(["--asns", "200", "--seed", "7"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn planner");
    let mut to = child.stdin.take().expect("stdin");
    let mut from = child.stdout.take().expect("stdout");

    let hello = read_frame(&mut from).expect("io").expect("hello");
    assert!(hello.contains("\"op\":\"ready\""));
    assert!(hello.contains("\"asns\":200"));

    let stream = query_stream(200);
    write_frame(&mut to, &stream[0]).expect("send");
    let first = read_frame(&mut from).expect("io").expect("reply");
    assert!(first.contains("\"op\":\"reply\""), "got {first}");

    write_frame(&mut to, "garbage, not a query").expect("send");
    let err = read_frame(&mut from).expect("io").expect("error reply");
    assert!(err.contains("\"op\":\"error\""), "got {err}");

    // The server must still answer — and identically.
    write_frame(&mut to, &stream[1]).expect("send");
    let second = read_frame(&mut from).expect("io").expect("reply");
    assert_eq!(
        first.replace("\"id\":1", "\"id\":2"),
        second,
        "replies before/after the garbage frame diverged"
    );

    write_frame(&mut to, "{\"op\":\"shutdown\"}").expect("send");
    let bye = read_frame(&mut from).expect("io").expect("bye");
    assert!(bye.contains("\"op\":\"bye\""));
    assert!(child.wait().expect("wait").success());
}

/// An unreadable frame (invalid UTF-8 payload) is answered with a final
/// error frame and a clean exit — never a crash.
#[test]
fn undecodable_frames_end_the_session_cleanly() {
    use std::io::Write as _;
    let mut child = Command::new(planner_bin())
        .args(["--asns", "200", "--seed", "7"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn planner");
    let mut to = child.stdin.take().expect("stdin");
    let mut from = child.stdout.take().expect("stdout");
    let _hello = read_frame(&mut from).expect("io").expect("hello");

    to.write_all(&4u32.to_be_bytes()).expect("len");
    to.write_all(&[0xff, 0xfe, 0xfd, 0xfc]).expect("payload");
    to.flush().expect("flush");
    let err = read_frame(&mut from).expect("io").expect("final error");
    assert!(err.contains("\"op\":\"error\""), "got {err}");
    assert!(child.wait().expect("wait").success(), "server crashed");
}
