//! The deployment-planner what-if service binary.
//!
//! Load the snapshot once (`--file` or synthetic), then serve
//! [`sbgp_sim::serve::Planner`] queries over length-prefixed JSON frames
//! on stdin/stdout until EOF or a `{"op":"shutdown"}` frame. Diagnostics
//! go to stderr; stdout carries frames only.
//!
//! ```text
//! planner --file snapshot.as-rel --cps 15169,20940
//! planner --asns 4000 --threads 8
//! ```

use std::io::Write as _;

use sbgp_bench::Cli;
use sbgp_sim::serve::{Planner, PlannerConfig};

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut rest: Vec<String> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            // Inert: accepted and ignored only because `perfbench/` passes
            // it; the next benchmark change removes it.
            "--cache" => {
                take("--cache")?
                    .parse::<usize>()
                    .map_err(|_| "--cache wants a number".to_string())?;
            }
            other => {
                // Everything else is the shared experiment CLI
                // (--asns/--seed/--file/--cps/--threads/...). Flags that
                // carry values must travel with them.
                rest.push(other.to_string());
                if matches!(
                    other,
                    "--asns"
                        | "--seed"
                        | "--attackers"
                        | "--destinations"
                        | "--per-tier"
                        | "--threads"
                        | "--file"
                        | "--cps"
                        | "--strategy"
                        | "--ci"
                        | "--pairs"
                        | "--policy"
                ) {
                    rest.push(take(other)?);
                }
            }
        }
    }
    Cli::try_parse(rest)
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: planner [shared flags: --asns N --seed S --file AS-REL \
                 --cps ASN,... --threads T ...]"
            );
            std::process::exit(2);
        }
    };
    let net = match cli.try_internet() {
        Ok(net) => net,
        Err(e) => {
            eprintln!("cannot load snapshot: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "planner: serving {} ({} ASes) — {} thread(s)",
        net.name,
        net.len(),
        cli.config.parallelism.0
    );
    let mut planner = Planner::new(
        net,
        PlannerConfig {
            parallelism: cli.config.parallelism,
            ..PlannerConfig::default()
        },
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    if let Err(e) = planner.serve(&mut reader, &mut writer) {
        eprintln!("planner: stream error: {e}");
        std::process::exit(1);
    }
    let _ = writer.flush();
    eprintln!("planner: done");
}
