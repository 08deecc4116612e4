//! The supervised multi-process campaign: coordinator, worker protocol,
//! retry ladder, and checkpoint-integrity primitives.
//!
//! The paper's grids ran on Blue Gene under MPI (Appendix H); this module
//! is the single-machine analogue with *crash containment*: a coordinator
//! ([`Supervisor`]) shards a round's destination groups across N worker
//! **processes** (the campaign binary re-invoked in `--worker` mode),
//! speaking length-prefixed JSON over stdin/stdout. Work assignment is
//! work-stealing (idle workers pull the next queued group), every
//! in-flight group has a wall-clock watchdog, and failures walk a retry
//! ladder:
//!
//! > worker crash / timeout / wrong-schema reply ⇒ kill & respawn with
//! > exponential backoff ⇒ reassign the group to another worker ⇒ after
//! > `strikes` failures mark the group **degraded** and keep going.
//!
//! Degradation is graceful by contract: a degraded group's pairs are
//! excluded from the estimates (tracked in
//! [`AdaptiveRun::lost_groups`] / [`AdaptiveRun::lost_pairs`]), the
//! campaign's final JSON lists the affected cells under `"degraded"`, and
//! the grid still validates.
//!
//! **Bit-identity.** [`estimate_adaptive_supervised`] is the supervised
//! backend of the one adaptive round loop in [`crate::stats`]; the loop
//! (schedule, merge, lost groups, per-cell freeze) is shared with the
//! in-process [`crate::stats::estimate_adaptive_cells_eval`], and only the
//! evaluation of a round's destination groups differs. Workers evaluate a
//! group through the same [`CellEval`] kernel and stream back raw
//! per-stratum Welford triples (floats as `to_bits`, so the wire round
//! trip is exact); the coordinator folds the group accumulators from empty
//! **in group order** into the round state, exactly as the in-process
//! reduction does, and the loop merges the round into the persistent
//! state. An N-worker run therefore produces the same bits as the
//! single-process run, for any N (pinned by `tests/campaign.rs`).
//!
//! Checkpoint integrity rides along: [`content_checksum`] /
//! [`verify_checksum`] give per-cell JSON files an FNV-1a content
//! checksum, so resume can distinguish a good checkpoint from a torn or
//! corrupted one and quarantine the latter instead of trusting it.

use std::collections::{HashSet, VecDeque};
use std::io::{Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use sbgp_topology::AsId;

use crate::faultpoint;
use crate::json::Json;
use crate::stats::{
    self, AdaptiveRun, CellEval, CellStats, EstimatorConfig, PairUniverse, StratumStats, Welford,
};

// ---------------------------------------------------------------------------
// Length-prefixed JSON frames
// ---------------------------------------------------------------------------

/// Upper bound on a frame payload; anything larger is protocol garbage.
const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// The length prefix of a `payload_len`-byte frame, or `InvalidInput`
/// when [`read_frame`] would reject the frame (over `MAX_FRAME`).
fn frame_len(payload_len: usize) -> std::io::Result<u32> {
    match u32::try_from(payload_len) {
        Ok(len) if len <= MAX_FRAME => Ok(len),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame payload of {payload_len} bytes exceeds the {MAX_FRAME}-byte cap"),
        )),
    }
}

/// Write one length-prefixed (u32 big-endian) UTF-8 frame. A payload over
/// the cap [`read_frame`] enforces is refused before any byte is written.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let len = frame_len(payload.len())?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

// ---------------------------------------------------------------------------
// Wire messages (compact JSON through the `crate::json` codec)
// ---------------------------------------------------------------------------

/// A coordinator→worker message, as the worker loop consumes it.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerMsg {
    /// (Re)configure for a figure group; payload is the campaign-defined
    /// group spec, passed through verbatim.
    Init(String),
    /// Evaluate one destination group.
    Task {
        /// Batch-local task id, echoed in the reply.
        id: u64,
        /// The group's destination.
        dest: AsId,
        /// `(attacker, stratum)` pairs in evaluation order.
        attackers: Vec<(AsId, usize)>,
    },
    /// Exit the worker loop.
    Shutdown,
}

/// A compact `{"type":ty,...}` wire frame.
fn frame<const N: usize>(ty: &str, members: [(&str, Json); N]) -> String {
    Json::obj([("type", ty.into())].into_iter().chain(members)).to_string()
}

/// Encode an init message; the opaque payload travels as a JSON string.
pub fn encode_init(payload: &str) -> String {
    frame("init", [("payload", payload.into())])
}

/// Encode a task message.
pub fn encode_task(id: u64, dest: AsId, attackers: &[(AsId, usize)]) -> String {
    let pairs = attackers
        .iter()
        .map(|&(m, h)| vec![u64::from(m.0), h as u64].into());
    let dest = u64::from(dest.0).into();
    frame(
        "task",
        [
            ("id", id.into()),
            ("dest", dest),
            ("attackers", Json::Arr(pairs.collect())),
        ],
    )
}

/// The shutdown message.
pub fn encode_shutdown() -> String {
    frame("shutdown", [])
}

/// Encode the worker's post-init handshake: the shape it will produce.
pub fn encode_ready(cell_stats: &[usize], nstrata: usize) -> String {
    let stats: Vec<u64> = cell_stats.iter().map(|&k| k as u64).collect();
    frame(
        "ready",
        [("stats", stats.into()), ("strata", (nstrata as u64).into())],
    )
}

/// Encode a task result (the flat accumulator data of [`encode_task`]'s
/// group — see [`eval_task_data`] for the layout).
pub fn encode_result(id: u64, data: &[u64]) -> String {
    frame(
        "result",
        [("id", id.into()), ("data", data.to_vec().into())],
    )
}

/// Encode a recoverable per-task failure (the worker survives; the
/// coordinator strikes the task).
pub fn encode_error(id: u64, msg: &str) -> String {
    frame("error", [("id", id.into()), ("msg", msg.into())])
}

/// Parse a coordinator→worker frame.
pub fn parse_worker_msg(text: &str) -> Result<WorkerMsg, String> {
    let msg = Json::parse(text)?;
    match msg.get("type").and_then(Json::as_str) {
        Some("init") => {
            msg.only_keys(&["type", "payload"])?;
            let payload = msg.req("payload", "a string", Json::as_str)?;
            Ok(WorkerMsg::Init(payload.to_string()))
        }
        Some("task") => {
            decode_task(&msg).ok_or_else(|| format!("malformed task frame {text:.200}"))
        }
        Some("shutdown") => {
            msg.only_keys(&["type"])?;
            Ok(WorkerMsg::Shutdown)
        }
        other => Err(format!("unknown message type {other:?}")),
    }
}

fn decode_task(msg: &Json) -> Option<WorkerMsg> {
    msg.only_keys(&["type", "id", "dest", "attackers"]).ok()?;
    let as_id = |v: &Json| v.as_u64().and_then(|v| u32::try_from(v).ok()).map(AsId);
    let attackers = msg
        .get("attackers")?
        .as_array()?
        .iter()
        .map(|pair| match pair.as_array()? {
            [m, h] => Some((as_id(m)?, usize::try_from(h.as_u64()?).ok()?)),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(WorkerMsg::Task {
        id: msg.get("id")?.as_u64()?,
        dest: as_id(msg.get("dest")?)?,
        attackers,
    })
}

/// A worker's `ready` handshake: `(stats, strata)`.
fn decode_ready(msg: &Json) -> Option<(Vec<u64>, u64)> {
    msg.only_keys(&["type", "stats", "strata"]).ok()?;
    Some((msg.get("stats")?.as_u64s()?, msg.get("strata")?.as_u64()?))
}

/// A task `result`: `(id, data)`. `None` is a wrong-schema reply, which
/// includes any data word outside `0..=u64::MAX` (refused, never wrapped).
fn decode_result(msg: &Json) -> Option<(u64, Vec<u64>)> {
    msg.only_keys(&["type", "id", "data"]).ok()?;
    Some((msg.get("id")?.as_u64()?, msg.get("data")?.as_u64s()?))
}

// ---------------------------------------------------------------------------
// Worker-side evaluation
// ---------------------------------------------------------------------------

/// Evaluate one destination group through a [`CellEval`] kernel and return
/// the accumulator data in wire layout: for each cell `c`, statistic `k`,
/// stratum `h`, the six `u64`s `(n, mean, m2)` of the lower then the upper
/// Welford accumulator (floats as `to_bits`). This is byte-for-byte the
/// group accumulator the in-process reduction would have produced for the
/// same group, which is the whole bit-identity argument.
pub fn eval_task_data<E: CellEval>(
    eval: &E,
    w: &mut E::Worker,
    nstrata: usize,
    dest: AsId,
    attackers: &[(AsId, usize)],
) -> Vec<u64> {
    let cell_stats = eval.cell_stats();
    let mut acc = stats::empty_cell_stats(&cell_stats, nstrata);
    stats::eval_group(eval, w, &mut acc, dest, attackers);
    let mut data = Vec::with_capacity(data_len(&cell_stats, nstrata));
    for cell in &acc {
        for stats in cell {
            for s in stats {
                for welford in [&s.lower, &s.upper] {
                    let (n, mean, m2) = welford.raw();
                    data.push(n);
                    data.push(mean.to_bits());
                    data.push(m2.to_bits());
                }
            }
        }
    }
    data
}

/// Wire length of one task's data for a shape.
pub fn data_len(cell_stats: &[usize], nstrata: usize) -> usize {
    cell_stats.iter().sum::<usize>() * nstrata * 6
}

fn decode_result_data(data: &[u64], cell_stats: &[usize], nstrata: usize) -> CellStats {
    let mut it = data.iter().copied();
    cell_stats
        .iter()
        .map(|&k| {
            (0..k)
                .map(|_| {
                    (0..nstrata)
                        .map(|_| {
                            let mut halves = [Welford::default(), Welford::default()];
                            for w in halves.iter_mut() {
                                let n = it.next().unwrap_or(0);
                                let mean = f64::from_bits(it.next().unwrap_or(0));
                                let m2 = f64::from_bits(it.next().unwrap_or(0));
                                *w = Welford::from_raw(n, mean, m2);
                            }
                            StratumStats {
                                lower: halves[0],
                                upper: halves[1],
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------------

/// Supervisor knobs (campaign flags map onto these).
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Worker process count (≥ 1).
    pub workers: usize,
    /// Worker command line: program plus base arguments. The supervisor
    /// appends `--worker-id <spawn-id>` so every incarnation has a unique
    /// fault-plan role.
    pub argv: Vec<String>,
    /// Per-task wall-clock watchdog.
    pub watchdog: Duration,
    /// Failures before a task is marked degraded.
    pub strikes: u32,
    /// Base respawn backoff, doubled per consecutive failure of a slot.
    pub backoff: Duration,
}

/// The outcome of one task of a batch.
#[derive(Clone, Debug)]
pub enum TaskOutcome {
    /// Accumulator data in wire layout (see [`eval_task_data`]).
    Done(Vec<u64>),
    /// The task failed `strikes` times and was abandoned.
    Degraded {
        /// Failures charged to the task.
        strikes: u32,
        /// The last failure's description.
        last_error: String,
    },
}

enum Event {
    Frame(String),
    Gone(String),
}

#[derive(Clone, Copy)]
enum ProcState {
    AwaitingReady,
    Idle,
    Busy { task: usize, deadline: Instant },
}

struct Proc {
    spawn_id: u64,
    child: Child,
    stdin: ChildStdin,
    state: ProcState,
}

struct Slot {
    proc: Option<Proc>,
    failures: u32,
    respawn_at: Instant,
}

/// One failure charged to a task: requeue it, or degrade it at the strike
/// cap.
fn charge_strike(
    t: usize,
    why: &str,
    max: u32,
    strikes: &mut [u32],
    queue: &mut VecDeque<usize>,
    outcomes: &mut [Option<TaskOutcome>],
    pending: &mut usize,
) {
    strikes[t] += 1;
    eprintln!("supervisor: task {t} strike {}/{max}: {why}", strikes[t]);
    if strikes[t] >= max {
        eprintln!("supervisor: task {t} degraded after {} strikes", strikes[t]);
        outcomes[t] = Some(TaskOutcome::Degraded {
            strikes: strikes[t],
            last_error: why.to_string(),
        });
        *pending -= 1;
    } else {
        queue.push_back(t);
    }
}

/// A pool of supervised worker processes serving destination-group tasks.
///
/// One `Supervisor` lives across many batches (and many figure groups —
/// each re-inits the workers); dropping it shuts the workers down.
pub struct Supervisor {
    cfg: SupervisorConfig,
    slots: Vec<Slot>,
    tx: Sender<(u64, Event)>,
    rx: Receiver<(u64, Event)>,
    next_spawn: u64,
    /// Spawn ids whose events are stale (killed or replaced processes).
    dead: HashSet<u64>,
    init: Option<String>,
    boot_failures: u32,
}

impl Supervisor {
    /// Build a pool; workers are spawned lazily on the first batch.
    pub fn new(cfg: SupervisorConfig) -> Supervisor {
        assert!(cfg.workers >= 1, "supervisor needs at least one worker");
        assert!(cfg.strikes >= 1, "retry ladder needs at least one strike");
        let (tx, rx) = std::sync::mpsc::channel();
        let slots = (0..cfg.workers)
            .map(|_| Slot {
                proc: None,
                failures: 0,
                respawn_at: Instant::now(),
            })
            .collect();
        Supervisor {
            cfg,
            slots,
            tx,
            rx,
            next_spawn: 0,
            dead: HashSet::new(),
            init: None,
            boot_failures: 0,
        }
    }

    fn spawn(&mut self, slot: usize) {
        let spawn_id = self.next_spawn;
        self.next_spawn += 1;
        let init = self.init.clone().expect("spawn only inside a batch");
        let mut cmd = Command::new(&self.cfg.argv[0]);
        cmd.args(&self.cfg.argv[1..])
            .arg("--worker-id")
            .arg(spawn_id.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("supervisor: cannot spawn worker{spawn_id}: {e}");
                self.note_boot_failure(slot);
                return;
            }
        };
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let tx = self.tx.clone();
        std::thread::spawn(move || loop {
            match read_frame(&mut stdout) {
                Ok(Some(frame)) => {
                    if tx.send((spawn_id, Event::Frame(frame))).is_err() {
                        break;
                    }
                }
                Ok(None) => {
                    let _ = tx.send((spawn_id, Event::Gone("eof".to_string())));
                    break;
                }
                Err(e) => {
                    let _ = tx.send((spawn_id, Event::Gone(e.to_string())));
                    break;
                }
            }
        });
        // A failed init write means the child died at birth; its Gone
        // event retires the slot once the proc is registered below.
        let _ = write_frame(&mut stdin, &encode_init(&init));
        self.slots[slot].proc = Some(Proc {
            spawn_id,
            child,
            stdin,
            state: ProcState::AwaitingReady,
        });
    }

    fn note_boot_failure(&mut self, slot: usize) {
        self.boot_failures += 1;
        let backoff = self.backoff(self.slots[slot].failures + 1);
        let s = &mut self.slots[slot];
        s.failures += 1;
        s.respawn_at = Instant::now() + backoff;
    }

    fn backoff(&self, failures: u32) -> Duration {
        self.cfg.backoff * 2u32.pow(failures.saturating_sub(1).min(5))
    }

    fn retire(&mut self, slot: usize, kill: bool) {
        if let Some(mut p) = self.slots[slot].proc.take() {
            self.dead.insert(p.spawn_id);
            if kill {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
        }
        let backoff = self.backoff(self.slots[slot].failures + 1);
        let s = &mut self.slots[slot];
        s.failures += 1;
        s.respawn_at = Instant::now() + backoff;
    }

    fn slot_of(&self, spawn_id: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.proc.as_ref().is_some_and(|p| p.spawn_id == spawn_id))
    }

    fn state_of(&self, slot: usize) -> ProcState {
        self.slots[slot].proc.as_ref().expect("live proc").state
    }

    fn set_state(&mut self, slot: usize, state: ProcState) {
        self.slots[slot].proc.as_mut().expect("live proc").state = state;
    }

    /// Run one batch of destination-group tasks to completion, returning
    /// outcomes in task order. `init` reconfigures workers whose current
    /// figure group differs; `cell_stats`/`nstrata` pin the reply shape
    /// (a mismatched `ready` is a boot failure, a mismatched result a
    /// strike).
    pub fn run_batch(
        &mut self,
        init: &str,
        cell_stats: &[usize],
        nstrata: usize,
        tasks: &[(AsId, Vec<(AsId, usize)>)],
    ) -> Vec<TaskOutcome> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let expected_len = data_len(cell_stats, nstrata);
        let max_strikes = self.cfg.strikes;
        let mut outcomes: Vec<Option<TaskOutcome>> = (0..n).map(|_| None).collect();

        // Re-init live workers when the figure group changed.
        if self.init.as_deref() != Some(init) {
            self.init = Some(init.to_string());
            let msg = encode_init(init);
            for slot in 0..self.slots.len() {
                if self.slots[slot].proc.is_none() {
                    continue;
                }
                let ok = {
                    let p = self.slots[slot].proc.as_mut().expect("live proc");
                    write_frame(&mut p.stdin, &msg).is_ok()
                };
                if ok {
                    self.set_state(slot, ProcState::AwaitingReady);
                } else {
                    self.retire(slot, true);
                }
            }
        }

        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut strikes = vec![0u32; n];
        let mut pending = n;
        // Boot-failure circuit breaker: if workers can't even reach
        // `ready` this many times in a row, the fleet is unusable and the
        // whole batch degrades rather than retrying forever.
        let boot_cap = (max_strikes * self.cfg.workers as u32).max(4);
        self.boot_failures = 0;

        while pending > 0 {
            let now = Instant::now();

            // Respawn empty slots whose backoff expired.
            for slot in 0..self.slots.len() {
                if self.slots[slot].proc.is_none()
                    && now >= self.slots[slot].respawn_at
                    && self.boot_failures < boot_cap
                {
                    self.spawn(slot);
                }
            }

            // Work stealing: every idle worker pulls the next queued task.
            for slot in 0..self.slots.len() {
                if queue.is_empty() {
                    break;
                }
                let idle = self.slots[slot]
                    .proc
                    .as_ref()
                    .is_some_and(|p| matches!(p.state, ProcState::Idle));
                if !idle {
                    continue;
                }
                let t = queue.pop_front().expect("checked nonempty");
                let mut msg = encode_task(t as u64, tasks[t].0, &tasks[t].1);
                match faultpoint::check("coord.frame", &format!("task{t}")) {
                    Some(faultpoint::Fault::Garbage) => msg = "{\"type\":\"task\"}".to_string(),
                    Some(_) => msg.clear(), // an empty frame is wire garbage too
                    None => {}
                }
                let ok = {
                    let p = self.slots[slot].proc.as_mut().expect("live proc");
                    write_frame(&mut p.stdin, &msg).is_ok()
                };
                if ok {
                    self.set_state(
                        slot,
                        ProcState::Busy {
                            task: t,
                            deadline: Instant::now() + self.cfg.watchdog,
                        },
                    );
                } else {
                    // Death during assignment: requeue without a strike —
                    // the crash predates the task.
                    queue.push_front(t);
                    self.retire(slot, true);
                }
            }

            // Fleet unusable and nothing in flight: degrade what's left.
            if self.boot_failures >= boot_cap && self.slots.iter().all(|s| s.proc.is_none()) {
                for (t, o) in outcomes.iter_mut().enumerate() {
                    if o.is_none() {
                        eprintln!("supervisor: task {t} degraded, worker fleet failed to boot");
                        *o = Some(TaskOutcome::Degraded {
                            strikes: strikes[t],
                            last_error: "worker fleet failed to boot".to_string(),
                        });
                    }
                }
                break;
            }

            // Sleep until the next deadline or respawn, whichever first.
            let mut wake: Option<Instant> = None;
            for s in &self.slots {
                let t = match &s.proc {
                    Some(p) => match p.state {
                        ProcState::Busy { deadline, .. } => Some(deadline),
                        _ => None,
                    },
                    None => Some(s.respawn_at),
                };
                if let Some(t) = t {
                    wake = Some(match wake {
                        Some(w) => w.min(t),
                        None => t,
                    });
                }
            }
            let timeout = wake
                .map(|w| w.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(200))
                .max(Duration::from_millis(1));

            match self.rx.recv_timeout(timeout) {
                Ok((spawn_id, _)) if self.dead.contains(&spawn_id) => {}
                Ok((spawn_id, Event::Gone(why))) => {
                    if let Some(slot) = self.slot_of(spawn_id) {
                        match self.state_of(slot) {
                            ProcState::Busy { task, .. } => charge_strike(
                                task,
                                &format!("worker{spawn_id} died ({why})"),
                                max_strikes,
                                &mut strikes,
                                &mut queue,
                                &mut outcomes,
                                &mut pending,
                            ),
                            ProcState::AwaitingReady => {
                                eprintln!("supervisor: worker{spawn_id} died before ready ({why})");
                                self.boot_failures += 1;
                            }
                            ProcState::Idle => {
                                eprintln!("supervisor: idle worker{spawn_id} died ({why})");
                            }
                        }
                        self.retire(slot, false);
                    }
                }
                Ok((spawn_id, Event::Frame(frame))) => {
                    let Some(slot) = self.slot_of(spawn_id) else {
                        continue;
                    };
                    let msg = Json::parse(&frame).unwrap_or(Json::Null);
                    match msg.get("type").and_then(Json::as_str) {
                        Some("ready") => {
                            let want: Vec<u64> = cell_stats.iter().map(|&k| k as u64).collect();
                            if decode_ready(&msg) == Some((want, nstrata as u64)) {
                                self.set_state(slot, ProcState::Idle);
                                self.slots[slot].failures = 0;
                                self.boot_failures = 0;
                            } else {
                                eprintln!(
                                    "supervisor: worker{spawn_id} ready with wrong shape, retiring"
                                );
                                self.boot_failures += 1;
                                self.retire(slot, true);
                            }
                        }
                        Some("result") => {
                            let ProcState::Busy { task, .. } = self.state_of(slot) else {
                                eprintln!(
                                    "supervisor: unexpected result from worker{spawn_id}, retiring"
                                );
                                self.retire(slot, true);
                                continue;
                            };
                            match decode_result(&msg) {
                                Some((id, data))
                                    if id == task as u64 && data.len() == expected_len =>
                                {
                                    outcomes[task] = Some(TaskOutcome::Done(data));
                                    pending -= 1;
                                    self.set_state(slot, ProcState::Idle);
                                }
                                _ => {
                                    charge_strike(
                                        task,
                                        &format!(
                                            "worker{spawn_id} replied with a wrong-schema result"
                                        ),
                                        max_strikes,
                                        &mut strikes,
                                        &mut queue,
                                        &mut outcomes,
                                        &mut pending,
                                    );
                                    self.retire(slot, true);
                                }
                            }
                        }
                        Some("error") => {
                            // The worker survived (caught panic / injected
                            // eval error): strike the task, keep the
                            // worker.
                            let ProcState::Busy { task, .. } = self.state_of(slot) else {
                                self.retire(slot, true);
                                continue;
                            };
                            let why = msg.get("msg").and_then(Json::as_str).unwrap_or("?");
                            let why = format!("worker{spawn_id} eval failed: {why}");
                            self.set_state(slot, ProcState::Idle);
                            charge_strike(
                                task,
                                &why,
                                max_strikes,
                                &mut strikes,
                                &mut queue,
                                &mut outcomes,
                                &mut pending,
                            );
                        }
                        _ => {
                            eprintln!("supervisor: garbage frame from worker{spawn_id}, retiring");
                            if let ProcState::Busy { task, .. } = self.state_of(slot) {
                                charge_strike(
                                    task,
                                    &format!("worker{spawn_id} sent a garbage frame"),
                                    max_strikes,
                                    &mut strikes,
                                    &mut queue,
                                    &mut outcomes,
                                    &mut pending,
                                );
                            }
                            self.retire(slot, true);
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("supervisor holds a sender"),
            }

            // Watchdog sweep: kill anything past its deadline.
            let now = Instant::now();
            for slot in 0..self.slots.len() {
                let expired = match &self.slots[slot].proc {
                    Some(p) => match p.state {
                        ProcState::Busy { task, deadline } if now >= deadline => {
                            Some((task, p.spawn_id))
                        }
                        _ => None,
                    },
                    None => None,
                };
                if let Some((task, sid)) = expired {
                    eprintln!(
                        "supervisor: watchdog expired for task {task} on worker{sid}, killing"
                    );
                    charge_strike(
                        task,
                        &format!("watchdog expired on worker{sid}"),
                        max_strikes,
                        &mut strikes,
                        &mut queue,
                        &mut outcomes,
                        &mut pending,
                    );
                    self.retire(slot, true);
                }
            }
        }

        outcomes
            .into_iter()
            .map(|o| o.expect("all tasks resolved"))
            .collect()
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut p) = slot.proc.take() {
                let _ = write_frame(&mut p.stdin, &encode_shutdown());
                let _ = p.child.kill();
                let _ = p.child.wait();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The distributed adaptive estimator
// ---------------------------------------------------------------------------

/// The adaptive estimator with each round's destination groups evaluated
/// by a [`Supervisor`]'s worker pool: same universe, same seeded round
/// schedule, same group-order fold — bit-identical to
/// [`crate::stats::estimate_adaptive_cells_eval`] for any worker count.
/// Degraded groups surface as [`AdaptiveRun::lost_groups`] /
/// [`AdaptiveRun::lost_pairs`] on every cell still active that round.
pub fn estimate_adaptive_supervised(
    universe: &PairUniverse,
    cfg: &EstimatorConfig,
    cell_stats: &[usize],
    init: &str,
    sup: &mut Supervisor,
) -> Vec<AdaptiveRun> {
    let nstrata = universe.strata().len();
    stats::run_rounds(universe, cfg, cell_stats, |groups| {
        let mut round = stats::empty_cell_stats(cell_stats, nstrata);
        let mut lost = Vec::new();
        let outcomes = sup.run_batch(init, cell_stats, nstrata, groups);
        for (g, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                TaskOutcome::Done(data) => stats::merge_cell_stats(
                    &mut round,
                    decode_result_data(&data, cell_stats, nstrata),
                ),
                TaskOutcome::Degraded { .. } => lost.push(g),
            }
        }
        (round, lost)
    })
}

// ---------------------------------------------------------------------------
// Checkpoint integrity
// ---------------------------------------------------------------------------

/// FNV-1a 64 over `text`, line by line, with any `"checksum"` line elided —
/// so a checkpoint can embed its own checksum and still verify.
pub fn content_checksum(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fn eat(h: &mut u64, b: u8) {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for line in text.lines() {
        if line.trim_start().starts_with("\"checksum\":") {
            continue;
        }
        for &b in line.as_bytes() {
            eat(&mut h, b);
        }
        eat(&mut h, b'\n');
    }
    h
}

/// The 16-hex-digit form of [`content_checksum`], as embedded in cell JSON.
pub fn checksum_hex(text: &str) -> String {
    format!("{:016x}", content_checksum(text))
}

/// What [`verify_checksum`] found in a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChecksumStatus {
    /// No checksum line (pre-hardening checkpoint, or not a checkpoint).
    Missing,
    /// Checksum present and matching the content.
    Valid,
    /// Checksum present but wrong: the file is torn or corrupted.
    Mismatch,
}

/// Audit a checkpoint's embedded `"checksum"` line against its content.
pub fn verify_checksum(text: &str) -> ChecksumStatus {
    let pat = "\"checksum\": \"";
    let Some(start) = text.find(pat) else {
        return ChecksumStatus::Missing;
    };
    let hex = &text[start + pat.len()..];
    let Some(end) = hex.find('"') else {
        return ChecksumStatus::Mismatch;
    };
    match u64::from_str_radix(&hex[..end], 16) {
        Ok(v) if v == content_checksum(text) => ChecksumStatus::Valid,
        _ => ChecksumStatus::Mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_core::Bounds;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "{\"x\":1}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"x\":1}"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // A frame truncated mid-payload is an error, not a silent EOF.
        let mut r = &buf[..6];
        assert!(read_frame(&mut r).is_err());
        // An insane length is rejected before allocation.
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = &bad[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frames_are_refused_before_writing() {
        assert_eq!(frame_len(MAX_FRAME as usize).unwrap(), MAX_FRAME);
        let err = frame_len(MAX_FRAME as usize + 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(frame_len(usize::MAX).is_err(), "lengths must not wrap");
    }

    #[test]
    fn messages_round_trip() {
        let parse = |text: &str| Json::parse(text).unwrap();
        let init = encode_init("{\"figure\":\"baseline\",\"asns\":400}");
        match parse_worker_msg(&init).unwrap() {
            WorkerMsg::Init(p) => assert_eq!(p, "{\"figure\":\"baseline\",\"asns\":400}"),
            other => panic!("{other:?}"),
        }
        let task = encode_task(7, AsId(42), &[(AsId(5), 0), (AsId(9), 3)]);
        assert_eq!(
            parse_worker_msg(&task).unwrap(),
            WorkerMsg::Task {
                id: 7,
                dest: AsId(42),
                attackers: vec![(AsId(5), 0), (AsId(9), 3)],
            }
        );
        let empty = encode_task(0, AsId(1), &[]);
        assert_eq!(
            parse_worker_msg(&empty).unwrap(),
            WorkerMsg::Task {
                id: 0,
                dest: AsId(1),
                attackers: vec![],
            }
        );
        assert_eq!(
            parse_worker_msg(&encode_shutdown()).unwrap(),
            WorkerMsg::Shutdown
        );
        for bad in [
            "{\"type\":\"task\"}",
            "nonsense",
            "{\"type\":\"task\",\"id\":1,\"dest\":2,\"attackers\":[[5,0,1]]}",
            "{\"type\":\"task\",\"id\":1,\"dest\":4294967296,\"attackers\":[]}",
            "{\"type\":\"task\",\"id\":1,\"dest\":2,\"attackers\":[],\"extra\":0}",
            "{\"type\":\"init\",\"payload\":{}}",
            "{\"type\":\"shutdown\"} trailing",
        ] {
            assert!(parse_worker_msg(bad).is_err(), "accepted {bad}");
        }

        let ready = encode_ready(&[4, 4, 4], 25);
        assert_eq!(decode_ready(&parse(&ready)), Some((vec![4, 4, 4], 25)));

        let result = encode_result(3, &[1, u64::MAX, 0]);
        assert_eq!(
            decode_result(&parse(&result)),
            Some((3, vec![1, u64::MAX, 0]))
        );

        let err = parse(&encode_error(2, "boom \"quoted\"\nline"));
        assert_eq!(err.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(
            err.get("msg").and_then(Json::as_str),
            Some("boom \"quoted\"\nline")
        );
    }

    /// A data word above `u64::MAX` makes the result wrong-schema (a
    /// strike), never a wrapped value; so do extra keys and a missing id.
    #[test]
    fn out_of_range_result_words_are_wrong_schema() {
        for bad in [
            "{\"type\":\"result\",\"id\":0,\"data\":[18446744073709551616]}",
            "{\"type\":\"result\",\"id\":0,\"data\":[1,-1]}",
            "{\"type\":\"result\",\"id\":0,\"data\":[1.5]}",
            "{\"type\":\"result\",\"id\":0,\"data\":[[1]]}",
            "{\"type\":\"result\",\"data\":[1]}",
            "{\"type\":\"result\",\"id\":0,\"data\":[1],\"more\":[2]}",
        ] {
            assert_eq!(decode_result(&Json::parse(bad).unwrap()), None, "{bad}");
        }
    }

    #[test]
    fn result_data_round_trips_bit_exactly() {
        let mut s = StratumStats::default();
        s.push(Bounds {
            lower: 0.123456789,
            upper: 0.987654321,
        });
        s.push(Bounds {
            lower: 1.0 / 3.0,
            upper: 2.0 / 7.0,
        });
        let mut data = Vec::new();
        for w in [&s.lower, &s.upper] {
            let (n, mean, m2) = w.raw();
            data.extend_from_slice(&[n, mean.to_bits(), m2.to_bits()]);
        }
        let text = encode_result(0, &data);
        let (_, back) = decode_result(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, data);
        let decoded = decode_result_data(&back, &[1], 1);
        let d = &decoded[0][0][0];
        assert_eq!(d.lower.raw(), s.lower.raw());
        assert_eq!(d.upper.raw(), s.upper.raw());
        let mut merged = Welford::default();
        merged.merge(d.lower);
        assert_eq!(merged.raw(), s.lower.raw());
    }

    #[test]
    fn checksums_catch_any_flip() {
        let cell = "    {\n      \"schema\": \"campaign-cell-v1\",\n      \"pairs\": 300\n    }";
        let sum = checksum_hex(cell);
        let with = format!(
            "    {{\n      \"schema\": \"campaign-cell-v1\",\n      \"checksum\": \"{sum}\",\n      \"pairs\": 300\n    }}"
        );
        assert_eq!(verify_checksum(&with), ChecksumStatus::Valid);
        assert_eq!(verify_checksum(cell), ChecksumStatus::Missing);
        // Any single byte flip trips it — including inside the checksum
        // digits themselves. The one blind spot is bytes *after* the hex
        // value on the elided checksum line (its trailing comma), which
        // no self-embedded checksum can cover.
        let comma = with.find(&format!("{sum}\"")).unwrap() + sum.len() + 1;
        assert_eq!(with.as_bytes()[comma], b',');
        for i in 0..with.len() {
            if i == comma {
                continue;
            }
            let mut bytes = with.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                assert_ne!(verify_checksum(&s), ChecksumStatus::Valid, "flip at {i}");
            }
        }
        assert_eq!(verify_checksum(""), ChecksumStatus::Missing);
    }
}
