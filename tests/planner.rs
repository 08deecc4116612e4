//! End-to-end tests for the deployment-planner what-if service.
//!
//! * the same query stream gets **byte-identical** replies at every
//!   [`Parallelism`] and on repeat, and they match a first-principles
//!   [`Engine::compute`] recomputation;
//! * a malformed frame draws a clean error reply and the server keeps
//!   answering (checked in-process *and* over a real subprocess pipe).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use bgp_juice::prelude::*;
use bgp_juice::sim::serve::{Planner, PlannerConfig};
use bgp_juice::sim::supervise::{read_frame, write_frame};
use bgp_juice::sim::Internet;

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

fn json_f64(text: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat).expect("key present") + pat.len();
    let end = text[start..]
        .find([',', '}', ']'])
        .expect("value terminated");
    text[start..start + end].parse().expect("f64 value")
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
    assert_eq!(json_f64(&replies[3], "lower"), lo as f64 / sources);
    assert_eq!(json_f64(&replies[3], "upper"), hi as f64 / sources);
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

    for bad in [
        "not json at all",
        "{\"op\":\"query\",\"id\":1}",
        "{\"op\":\"launch-missiles\"}",
        "{\"op\":\"query\",\"id\":1,\"secure\":[999999],\"attackers\":[1],\"destinations\":[2]}",
    ] {
        let err = planner.handle(bad).expect("error reply");
        assert!(
            err.contains("\"op\":\"error\""),
            "expected error reply for {bad:?}, got {err}"
        );
    }

    let again = planner.handle(&stream[0]).expect("reply");
    assert_eq!(good, again, "server state was poisoned by bad input");
}

/// A key that is present but unreadable by the compact scanners is an
/// error reply, never a silent default: a spaced id list must not read as
/// an empty secure set, nor a spaced model list as the default `sec3`.
#[test]
fn present_but_unreadable_keys_are_errors() {
    let net = Internet::synthetic(200, 7);
    let mut planner = Planner::new(net, planner_config(1));
    let pairs = "\"attackers\":[5],\"destinations\":[9]";
    for (key, bad) in [
        (
            "secure",
            format!("{{\"op\":\"query\",\"id\":1,\"secure\": [1,2],{pairs}}}"),
        ),
        (
            "secure",
            format!("{{\"op\":\"query\",\"id\":1,\"secure\":[0, 1, 2],{pairs}}}"),
        ),
        (
            "models",
            format!("{{\"op\":\"query\",\"id\":1,{pairs},\"models\": [\"sec1\"]}}"),
        ),
        (
            "budget",
            format!("{{\"op\":\"query\",\"id\":1,{pairs},\"budget\": 50}}"),
        ),
        (
            "variant",
            format!("{{\"op\":\"query\",\"id\":1,{pairs},\"variant\": \"lp2\"}}"),
        ),
    ] {
        let reply = planner.handle(&bad).expect("error reply");
        assert!(
            reply.contains("\"op\":\"error\"") && reply.contains(key),
            "expected a {key} error for {bad}, got {reply}"
        );
    }
    // The compact spellings of the same queries are answered.
    for good in [
        format!("{{\"op\":\"query\",\"id\":1,\"secure\":[1,2],{pairs}}}"),
        format!("{{\"op\":\"query\",\"id\":1,{pairs},\"models\":[\"sec1\"]}}"),
    ] {
        let reply = planner.handle(&good).expect("reply");
        assert!(reply.contains("\"op\":\"reply\""), "{good}: {reply}");
    }
    let sec1 = planner
        .handle(&format!(
            "{{\"op\":\"query\",\"id\":1,{pairs},\"models\":[\"sec1\"]}}"
        ))
        .expect("reply");
    assert!(sec1.contains("\"model\":\"sec1\""), "{sec1}");
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
