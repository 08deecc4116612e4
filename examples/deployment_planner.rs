//! Scripted client for the deployment-planner what-if service.
//!
//! Earlier revisions of this example recomputed §5.3 deployment
//! comparisons from scratch; the planner service (`sbgp_sim::serve`)
//! graduated that loop into a long-running server, and this example is
//! now its reference client. It spawns the `planner` binary, streams a
//! fixed what-if conversation over the length-prefixed JSON frame
//! protocol, and prints both sides of the exchange — the output is
//! diffed against `tests/golden/planner_client_cyclops.txt` in CI.
//!
//! ```text
//! cargo build --release -p sbgp_bench --bin planner
//! cargo run --release --example deployment_planner -- \
//!     --file tests/fixtures/cyclops_sample.as-rel
//! ```
//!
//! Everything after `--` is passed through to the server, so the same
//! script can interrogate any snapshot (`--asns N --seed S` works too).
//! Set `PLANNER_BIN` to point at an explicit server binary; otherwise it
//! is derived from this example's own target directory.
//!
//! The script exercises the serving path end to end: a query, an exact
//! repeat (byte-identical reply), a query over a superset of its
//! destinations, a deliberately malformed frame (the server must answer
//! with a clean error and keep serving), a stratified estimate, the
//! stats op, and shutdown.

use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use bgp_juice::sim::supervise::{read_frame, write_frame};

/// Locate the planner server binary: `$PLANNER_BIN` wins, else derive
/// `target/<profile>/planner` from this example's own path.
fn server_binary() -> PathBuf {
    if let Ok(p) = std::env::var("PLANNER_BIN") {
        return PathBuf::from(p);
    }
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop(); // deployment_planner
    if p.ends_with("examples") {
        p.pop(); // examples/
    }
    p.push("planner");
    p
}

/// Pull `"asns":N` out of the hello frame.
fn asns_of(hello: &str) -> usize {
    let pat = "\"asns\":";
    let start = hello.find(pat).expect("hello carries asns") + pat.len();
    hello[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("asns is a number")
}

fn main() {
    let bin = server_binary();
    let mut child = Command::new(&bin)
        .args(std::env::args().skip(1))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| {
            panic!(
                "cannot spawn planner server {} ({e}); build it with \
                 `cargo build -p sbgp_bench --bin planner` or set PLANNER_BIN",
                bin.display()
            )
        });
    let mut to_server = BufWriter::new(child.stdin.take().expect("server stdin"));
    let mut from_server = BufReader::new(child.stdout.take().expect("server stdout"));

    let hello = read_frame(&mut from_server)
        .expect("read hello")
        .expect("server sent hello");
    println!("<- {hello}");
    let n = asns_of(&hello);
    assert!(n >= 10, "planner script needs a graph of at least 10 ASes");

    // The what-if under study: a small secure core (dense ids 0..=4,
    // plus a simplex stub), two suspected stub attackers from the tail
    // of the id space, content destinations among the core.
    let (m1, m2) = (n - 1, n - 2);
    let script: Vec<String> = vec![
        // The baseline what-if.
        format!(
            "{{\"op\":\"query\",\"id\":1,\"secure\":[0,1,2,3,4],\"simplex\":[5],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,1],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        // Exact repeat: the reply must be identical.
        format!(
            "{{\"op\":\"query\",\"id\":2,\"secure\":[0,1,2,3,4],\"simplex\":[5],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,1],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        // Two more destinations on top of the first query's.
        format!(
            "{{\"op\":\"query\",\"id\":3,\"secure\":[0,1,2,3,4],\"simplex\":[5],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,1,6,7],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        // A malformed frame mid-stream: valid frame, garbage payload.
        // The server must reply with a clean error and keep serving.
        "this is not a planner message".to_string(),
        // Still alive? Same what-if again.
        format!(
            "{{\"op\":\"query\",\"id\":4,\"secure\":[0,1,2,3,4],\"simplex\":[5],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,1],\
             \"models\":[\"sec1\",\"sec3\"],\"strategies\":[\"fakelink\",\"hijack\"]}}"
        ),
        // A stratified estimate: budget below the 8-pair population.
        format!(
            "{{\"op\":\"query\",\"id\":5,\"secure\":[0,1,2,3,4],\"simplex\":[5],\
             \"attackers\":[{m1},{m2}],\"destinations\":[0,1,6,7],\
             \"models\":[\"sec3\"],\"budget\":6,\"seed\":7}}"
        ),
        "{\"op\":\"stats\"}".to_string(),
        "{\"op\":\"shutdown\"}".to_string(),
    ];

    for msg in &script {
        println!("-> {msg}");
        write_frame(&mut to_server, msg).expect("send frame");
        let reply = read_frame(&mut from_server)
            .expect("read reply")
            .expect("server replied");
        println!("<- {reply}");
    }
    drop(to_server);
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    println!("planner conversation complete");
}
