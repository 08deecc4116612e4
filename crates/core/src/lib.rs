//! Core library for the SIGCOMM'13 *"BGP Security in Partial Deployment: Is
//! the Juice Worth the Squeeze?"* reproduction.
//!
//! This crate implements the paper's primary contribution — a framework for
//! quantifying how much security a *partial* S\*BGP deployment adds over
//! RPKI origin authentication:
//!
//! * [`policy`] — the three S\*BGP routing-policy models (**security 1st /
//!   2nd / 3rd**, §2.2.2) over the standard Gao–Rexford decision process,
//!   plus the Appendix K `LPk` local-preference variants.
//! * [`deployment`] — which ASes are secure, including **simplex S\*BGP**
//!   at stubs (§5.3.2: origin-signing without validation).
//! * [`attack`] — the threat model of §3.1 generalized along Goldberg et
//!   al.'s strategy taxonomy: `k`-hop forged paths (the paper's `"m, d"`
//!   fake link is `k = 1`, the pre-RPKI origin hijack `k = 0`) announced
//!   via legacy BGP by one attacker or a small set of colluding
//!   announcers.
//! * [`engine`] — the multi-stage two-rooted BFS of Appendix B that
//!   computes the unique stable routing outcome for a given (attacker,
//!   destination, deployment, policy) in `O(V + E)`.
//! * [`outcome`] — per-AS results: route class, length, security, and the
//!   happy/unhappy classification with tie-break lower/upper bounds
//!   (§4.1, Appendix C).
//! * [`partition`] — the doomed / protectable / immune partition of §4.3 /
//!   Appendix E, which bounds the metric over *every possible* deployment.
//! * [`analysis`] — protocol downgrades (§3.2, Appendix F), collateral
//!   benefits and damages (§6.1), and the root-cause decomposition of
//!   metric changes (§6.2, Figure 16).
//! * [`metric`] — the security metric `H_{M,D}(S)` of §4.1.
//! * [`sweep`] — the incremental deployment-sweep engine: for a fixed
//!   `(m, d, policy)`, recompute outcomes along a monotonically growing
//!   secure set by re-fixing only a dirty region (rollout curves cost a
//!   fraction of from-scratch recomputation).
//! * [`fused`] — the fused multi-cell pass: one
//!   [`Engine::compute_cells`] call serves every policy cell (model × LP
//!   variant × strategy rung) of an `(m, d, S)` scenario, collapsing
//!   behaviorally identical lanes onto one computation.
//!
//! `sbgp-sim` composes the two destination-major: the fused pass computes
//! each `(m, d)` pair's first deployment step, and a sweep adopted from
//! that outcome ([`SweepEngine::begin_from`]) carries the remaining
//! deployment steps — so a whole rollout costs one compute per distinct
//! lane plus `|S|−1` small sweep patches per pair.
//!
//! The crate is single-threaded by design; [`Engine`], [`SweepEngine`] and
//! [`FusedDeltaEngine`] instances hold reusable scratch and the
//! `sbgp-sim` crate runs one per worker thread to parallelize over
//! destinations and (attacker, destination) pairs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attack;
pub mod deployment;
pub mod engine;
pub mod fused;
pub mod metric;
pub mod outcome;
pub mod partition;
pub mod policy;
mod region;
pub mod sweep;

pub use analysis::{PairAnalysis, PairAnalyzer};
pub use attack::{AttackScenario, AttackStrategy, MAX_ATTACKERS};
pub use deployment::Deployment;
pub use engine::Engine;
pub use fused::{CellSet, DeltaStats, FusedDeltaEngine, FusedStats, PolicyCell};
pub use metric::{Bounds, HappyCount};
pub use outcome::{MultiOutcome, Outcome, RootFlags, RouteClass, RouteInfo};
pub use partition::{Fate, PartitionComputer, PartitionCounts};
pub use policy::{LpVariant, Policy, SecurityModel};
pub use sweep::{SweepEngine, SweepStats};

/// Re-export of the topology substrate this crate builds on.
pub use sbgp_topology as topology;
