//! Experiment harness for the SIGCOMM'13 partial-deployment S\*BGP study.
//!
//! This crate turns `sbgp-core`'s per-pair primitives into the paper's
//! actual experiments:
//!
//! * [`Internet`] — a topology bundled with its Table 1 tier classification
//!   (synthetic, IXP-augmented, or loaded from a relationship file);
//! * [`sample`] — deterministic attacker/destination samplers (the paper's
//!   `M`, `M'` and `D` sets, subsampled reproducibly when full `V × V`
//!   enumeration is infeasible);
//! * [`scenario`] — the §5 deployment scenarios (Tier 1+2 rollouts, CP
//!   variants, Tier-2-only, all non-stubs, simplex-at-stubs);
//! * [`runner`] — the crate's one parallel reduction
//!   ([`runner::map_reduce`]): a `std::thread::scope` worker pool that
//!   claims work items one at a time, gives every worker its own reusable
//!   engine, isolates panics per item, and merges item accumulators in
//!   item order, so results are bit-identical at any thread count;
//! * [`sweep`] — the explicit-pair metric drivers: `H_{M,D}(S_k)` for every
//!   policy cell of a [`sbgp_core::CellSet`] along a deployment sequence
//!   (one deployment is the plain metric), over pairs or per destination.
//!   Per destination, one [`sbgp_core::FusedDeltaEngine`] attack serves
//!   every cell's first step and a per-lane [`sbgp_core::SweepEngine`]
//!   carries the remaining deployments incrementally, in any direction,
//!   surfacing the merged [`sbgp_core::SweepStats`];
//! * [`strategy`] — strategic attackers: per-pair optimal-strategy
//!   ladders over `k`-hop forged paths, and colluding announcer sets
//!   served by [`sbgp_core::AttackScenario::colluding`] computes;
//! * [`stats`] — the statistical estimation subsystem: tier-stratified
//!   pair sampling with nested without-replacement prefixes, streaming
//!   per-stratum Welford accumulators, population-weighted recombination
//!   with confidence intervals, the one adaptive round loop, and the
//!   per-pair kernels ([`stats::SweepCellsEval`],
//!   [`stats::LadderCellsEval`]) every metric driver evaluates through;
//! * [`supervise`] — the crash-contained distributed campaign: a
//!   coordinator sharding each round's destination groups across
//!   supervised worker processes (watchdogs, exponential-backoff respawn,
//!   K-strikes degradation) as the second backend of the adaptive round
//!   loop, bit-identical to the in-process one, plus checkpoint content
//!   checksums;
//! * [`faultpoint`] — seeded deterministic fault injection (compiled to
//!   no-ops without the `fault-injection` feature) for exercising the
//!   recovery paths;
//! * [`serve`] — the deployment-planner what-if service: a long-running
//!   [`serve::Planner`] that answers "what if I deploy at S?" queries over
//!   length-prefixed JSON frames with fused passes (exact) or the
//!   stratified estimator (budgeted), with a documented bit-identical
//!   determinism contract;
//! * [`experiments`] — one driver per figure/table, returning plain data
//!   that the `sbgp-bench` binaries print;
//! * [`report`] — aligned-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faultpoint;
pub mod report;
pub mod runner;
pub mod sample;
pub mod scenario;
pub mod serve;
pub mod stats;
pub mod strategy;
pub mod supervise;
pub mod sweep;
pub mod weights;

mod context;

pub use context::Internet;
pub use runner::Parallelism;

pub use sbgp_core as core;
pub use sbgp_topology as topology;
