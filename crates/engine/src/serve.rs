//! `smctl serve` — the long-running campaign service.
//!
//! Every per-process building block for large campaigns already exists
//! (budgets, `--shard K/N`, resumable placeholders, `smctl merge`, the
//! event-sourced journal); this module adds the **coordinator**: a
//! service that accepts sweep specs over a Unix-domain socket, keeps a
//! bounded campaign queue with admission control, dispatches contiguous
//! job ranges to a fleet of workers, lets idle workers **steal** ranges
//! from loaded ones, and streams journal events back per campaign. The
//! campaigns themselves run through the one campaign driver,
//! [`CampaignRun`], so a served campaign journals, reserves bundles,
//! counts cache hits and renders its canonical bytes exactly like a solo
//! `smctl sweep` of the same spec.
//!
//! Three layers, each usable on its own:
//!
//! * [`Fleet`] — the pure scheduling state machine (assignment queues,
//!   backlog, steal decisions, death re-queueing). Deterministic: every
//!   tie-break derives from a seed, never from wall clock or thread
//!   timing.
//! * [`simulate_schedule`] — a deterministic simulation of N workers
//!   over the fleet (SatSwarm-style cycle stepping: each cycle every
//!   live worker completes one job, in a seeded rotation), with injected
//!   worker deaths mid-shard. Run as [`Scheduler::Simulated`], it is
//!   what CI byte-diffs against a solo sweep.
//! * [`serve`] / [`client_submit`] — the threaded service, running each
//!   campaign as [`Scheduler::Fleet`], plus the framed socket protocol
//!   ([`Request`]/[`Response`], [`sm_codec::frame`] frames over a
//!   `UnixStream`).
//!
//! Determinism contract: job outcomes are pure functions of the job
//! (never of which worker ran it), outcomes are merged in canonical
//! expansion order, and canonical report bytes depend only on
//! spec + outcomes — so any schedule (any worker count, any steal
//! pattern, any death) reproduces the solo report byte-for-byte.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sm_codec::{decode_from_slice, encode_to_vec, frame, record, tagged, Decode, Encode};
use sm_exec::{seed, Budget};

use crate::cache::ArtifactCache;
use crate::campaign::{CampaignRun, Scheduler, SweepSpec};
use crate::journal::{spec_fingerprint, Event, Journal, JournalFollower};
use crate::report::ReportOptions;
use crate::store::ArtifactStore;

// ----- fleet: the scheduling state machine --------------------------------

/// A contiguous half-open range of canonical job indices — the unit of
/// dispatch and of stealing. Workers consume a range from the front;
/// thieves take the upper half, so the victim keeps the jobs it is
/// about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRange {
    /// First job index in the range.
    pub lo: usize,
    /// One past the last job index.
    pub hi: usize,
}

impl JobRange {
    /// Jobs remaining in the range.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// `true` when the range is exhausted.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Splits off the upper half (for a thief), keeping the lower half
    /// here. `None` when the range is too small to share.
    fn split(&mut self) -> Option<JobRange> {
        if self.len() < 2 {
            return None;
        }
        let mid = self.lo + self.len() / 2;
        let upper = JobRange {
            lo: mid,
            hi: self.hi,
        };
        self.hi = mid;
        Some(upper)
    }
}

/// What [`Fleet::next_job`] tells a worker to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Run this canonical job index, then call [`Fleet::complete`].
    Run(usize),
    /// Nothing dispatchable right now, but jobs are still in flight
    /// elsewhere — poll again.
    Wait,
    /// Every job of the campaign has completed.
    Done,
    /// This worker just died (injected death); its remaining ranges
    /// were re-queued to the backlog.
    Died,
}

/// Counters a fleet accumulates while scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Ranges stolen by idle workers from loaded ones.
    pub steals: u64,
    /// Workers that died mid-shard (their ranges were re-queued).
    pub deaths: u64,
}

/// Host-level work-stealing scheduler state, shared by the threaded
/// service and the deterministic simulation. All decisions (victim
/// tie-breaks) derive from the campaign seed, so a schedule is a pure
/// function of `(workers, total, seed, deaths)` and the order in which
/// workers ask — never of wall clock.
#[derive(Debug)]
pub struct Fleet {
    /// Per-worker queues of assigned ranges (front = next to run).
    assigned: Vec<VecDeque<JobRange>>,
    /// Ranges re-queued from dead workers, handed out before stealing.
    backlog: VecDeque<JobRange>,
    /// Jobs completed per worker (drives injected deaths).
    completed: Vec<usize>,
    /// Liveness per worker.
    alive: Vec<bool>,
    /// Injected death: worker dies at the first pickup after completing
    /// this many jobs.
    deaths: Vec<Option<usize>>,
    /// Jobs not yet completed.
    unfinished: usize,
    /// Seed for steal tie-breaks.
    seed: u64,
    /// Seeded decisions taken so far (the derivation branch counter).
    decisions: u64,
    /// Scheduling counters.
    stats: FleetStats,
}

impl Fleet {
    /// A fleet of `workers` over jobs `0..total`, split up front into
    /// balanced contiguous ranges. `deaths` lists injected
    /// `(worker, after_jobs)` deaths — at least one worker must be
    /// immortal, or the remaining ranges could never drain.
    ///
    /// # Errors
    ///
    /// Rejects zero workers, out-of-range death indices, and a death
    /// plan that kills every worker.
    pub fn new(
        workers: usize,
        total: usize,
        seed: u64,
        deaths: &[(usize, usize)],
    ) -> Result<Fleet, String> {
        if workers == 0 {
            return Err("fleet needs at least one worker".into());
        }
        let mut death_plan: Vec<Option<usize>> = vec![None; workers];
        for &(w, after) in deaths {
            if w >= workers {
                return Err(format!(
                    "--kill worker {w} out of range (fleet has {workers})"
                ));
            }
            // Two kill entries for one worker keep the earlier death.
            let slot = &mut death_plan[w];
            *slot = Some(slot.map_or(after, |k| k.min(after)));
        }
        if death_plan.iter().all(|d| d.is_some()) {
            return Err("at least one worker must survive (--kill names them all)".into());
        }
        let mut assigned: Vec<VecDeque<JobRange>> = vec![VecDeque::new(); workers];
        let chunk = total / workers;
        let rem = total % workers;
        let mut lo = 0;
        for (w, queue) in assigned.iter_mut().enumerate() {
            let len = chunk + usize::from(w < rem);
            if len > 0 {
                queue.push_back(JobRange { lo, hi: lo + len });
            }
            lo += len;
        }
        Ok(Fleet {
            assigned,
            backlog: VecDeque::new(),
            completed: vec![0; workers],
            alive: vec![true; workers],
            deaths: death_plan,
            unfinished: total,
            seed,
            decisions: 0,
            stats: FleetStats::default(),
        })
    }

    /// The next instruction for worker `w`: run a job (from its own
    /// queue, the backlog, or stolen from the most-loaded peer), wait,
    /// die (injected), or finish.
    pub fn next_job(&mut self, w: usize) -> Dispatch {
        if !self.alive[w] {
            return Dispatch::Died;
        }
        // Injected death fires at pickup time — a worker never abandons
        // a job it already started, it just stops taking new ones; its
        // remaining ranges re-queue as resumable work for the others.
        if let Some(after) = self.deaths[w] {
            if self.completed[w] >= after {
                self.alive[w] = false;
                self.stats.deaths += 1;
                while let Some(range) = self.assigned[w].pop_front() {
                    self.backlog.push_back(range);
                }
                return Dispatch::Died;
            }
        }
        if self.unfinished == 0 {
            return Dispatch::Done;
        }
        if self.assigned[w].is_empty() {
            if let Some(range) = self.backlog.pop_front() {
                self.assigned[w].push_back(range);
            } else if !self.steal_for(w) {
                return Dispatch::Wait;
            }
        }
        let Some(range) = self.assigned[w].front_mut() else {
            return Dispatch::Wait;
        };
        let index = range.lo;
        range.lo += 1;
        if range.is_empty() {
            self.assigned[w].pop_front();
        }
        Dispatch::Run(index)
    }

    /// Marks worker `w`'s in-flight job finished.
    pub fn complete(&mut self, w: usize) {
        self.completed[w] += 1;
        self.unfinished = self.unfinished.saturating_sub(1);
    }

    /// Workers in the fleet.
    pub fn workers(&self) -> usize {
        self.assigned.len()
    }

    /// Scheduling counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// `true` when every job has completed.
    pub fn done(&self) -> bool {
        self.unfinished == 0
    }

    /// Tries to steal work for idle worker `w` from the most-loaded
    /// peer (seeded tie-break among equals). A victim with several
    /// queued ranges gives up its whole back range; a victim down to
    /// one range gives up its upper half, keeping the jobs it is about
    /// to run — or, down to one job, that job: queued jobs have not
    /// started, so a worker only ever waits on running jobs, never on a
    /// peer that has not started yet. Returns `true` when a range landed
    /// in `w`'s queue.
    fn steal_for(&mut self, w: usize) -> bool {
        let mut best: Vec<usize> = Vec::new();
        let mut best_load = 0usize;
        for (v, queue) in self.assigned.iter().enumerate() {
            if v == w {
                continue;
            }
            let load: usize = queue.iter().map(JobRange::len).sum();
            if load > best_load {
                best_load = load;
                best.clear();
                best.push(v);
            } else if load > 0 && load == best_load {
                best.push(v);
            }
        }
        if best.is_empty() {
            return false;
        }
        let pick = (seed::derive(self.seed, self.decisions) % best.len() as u64) as usize;
        self.decisions += 1;
        let victim = best[pick];
        let queue = &mut self.assigned[victim];
        let stolen = if queue.len() > 1 {
            queue.pop_back()
        } else {
            queue[0].split().or_else(|| queue.pop_front())
        };
        match stolen {
            Some(range) => {
                self.stats.steals += 1;
                self.assigned[w].push_back(range);
                true
            }
            None => false,
        }
    }
}

// ----- deterministic N-worker simulation ----------------------------------

/// A simulated fleet: worker count, scheduling seed, and injected
/// `(worker, after_jobs)` deaths.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// Simulated workers.
    pub workers: usize,
    /// Seed for steal tie-breaks and the per-cycle worker rotation.
    pub seed: u64,
    /// Injected deaths: worker dies at its first pickup after
    /// completing this many jobs.
    pub deaths: Vec<(usize, usize)>,
}

impl Default for SimPlan {
    fn default() -> Self {
        SimPlan {
            workers: 3,
            seed: 1,
            deaths: Vec::new(),
        }
    }
}

/// Runs the fleet as a SatSwarm-style cycle simulation: each cycle
/// steps every worker once in a seeded rotation, and a stepped live
/// worker completes exactly one job. Returns the per-worker job-index
/// schedule plus the fleet's counters.
///
/// The schedule is a pure function of `(total, plan)` — no threads, no
/// clocks — which is what lets CI pin the whole dispatch/steal/death
/// protocol without real hosts.
///
/// # Errors
///
/// Propagates [`Fleet::new`] validation; errors if scheduling stalls
/// (which would mean a fleet invariant is broken).
pub fn simulate_schedule(
    total: usize,
    plan: &SimPlan,
) -> Result<(Vec<Vec<usize>>, FleetStats), String> {
    let mut fleet = Fleet::new(plan.workers, total, plan.seed, &plan.deaths)?;
    let mut schedule: Vec<Vec<usize>> = vec![Vec::new(); plan.workers];
    let mut cycle = 0u64;
    while !fleet.done() {
        let start = (seed::derive(plan.seed ^ 0x5e17, cycle) % plan.workers as u64) as usize;
        let mut progressed = false;
        for k in 0..plan.workers {
            let w = (start + k) % plan.workers;
            if let Dispatch::Run(index) = fleet.next_job(w) {
                schedule[w].push(index);
                fleet.complete(w);
                progressed = true;
            }
        }
        if !progressed && !fleet.done() {
            return Err("fleet simulation stalled (scheduler invariant broken)".into());
        }
        cycle += 1;
    }
    Ok((schedule, fleet.stats()))
}

// ----- wire protocol -------------------------------------------------------

/// A client request over the service socket. Tags and field order are
/// the wire format — append new variants, never reorder.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a sweep spec; with `follow`, stream journal events before
    /// the final report.
    Submit {
        /// The sweep to run.
        spec: SweepSpec,
        /// Stream [`Response::Event`] frames while the campaign runs.
        follow: bool,
    },
    /// Ask for a [`Response::Status`] snapshot.
    Status,
    /// Drain the queue, then shut the service down.
    Shutdown,
}

tagged!(Request {
    0 => Submit { spec, follow },
    1 => Status,
    2 => Shutdown,
});

/// A point-in-time service snapshot ([`Request::Status`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Fleet workers per campaign.
    pub workers: u64,
    /// Campaigns waiting in the queue.
    pub queued: u64,
    /// Fingerprint of the campaign currently executing, if any.
    pub running: Option<u64>,
    /// Campaigns completed since the service started.
    pub completed: u64,
    /// Job ranges stolen across all completed campaigns.
    pub steals: u64,
    /// Jobs executed across all completed campaigns.
    pub jobs_done: u64,
}

record!(ServiceStatus {
    workers,
    queued,
    running,
    completed,
    steals,
    jobs_done
});

/// A service response frame. Tags and field order are the wire format —
/// append new variants, never reorder.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission was admitted; the final report will follow.
    Accepted {
        /// The campaign's spec fingerprint (also the journal name).
        fingerprint: u64,
        /// Jobs in the expansion.
        jobs: u64,
        /// Campaigns ahead of this one (0 = runs next/now).
        queued: u64,
    },
    /// The submission was refused (admission control, invalid spec, or
    /// a shutdown in progress).
    Rejected {
        /// Why.
        reason: String,
    },
    /// One journal event of a followed campaign.
    Event(Event),
    /// The campaign's canonical JSON report — the same bytes a solo
    /// `smctl sweep` of the spec emits.
    Report {
        /// Canonical report JSON.
        json: String,
    },
    /// A [`Request::Status`] snapshot.
    Status(ServiceStatus),
    /// A [`Request::Shutdown`] acknowledgment: the queue is drained and
    /// the service is exiting.
    Done,
}

tagged!(Response {
    0 => Accepted { fingerprint, jobs, queued },
    1 => Rejected { reason },
    2 => Event(event),
    3 => Report { json },
    4 => Status(status),
    5 => Done,
});

/// Writes one message as a checksummed [`sm_codec::frame`] frame.
fn send_msg<T: Encode>(stream: &mut UnixStream, msg: &T) -> Result<(), String> {
    let payload = encode_to_vec(msg);
    if payload.len() > frame::MAX_FRAME_PAYLOAD {
        return Err(format!(
            "message of {} bytes exceeds frame limit",
            payload.len()
        ));
    }
    let mut buf = Vec::with_capacity(payload.len() + frame::FRAME_HEADER_LEN);
    frame::write_frame(&mut buf, &payload);
    stream
        .write_all(&buf)
        .and_then(|()| stream.flush())
        .map_err(|e| format!("socket write: {e}"))
}

/// Reads one framed message; `Ok(None)` on a clean EOF before any
/// bytes.
fn recv_msg<T: Decode>(stream: &mut UnixStream) -> Result<Option<T>, String> {
    let mut header = [0u8; frame::FRAME_HEADER_LEN];
    let mut got = 0;
    while got < header.len() {
        match stream.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err("socket closed mid-frame".into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("socket read: {e}")),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("exact slice")) as usize;
    if len > frame::MAX_FRAME_PAYLOAD {
        return Err(format!("frame of {len} bytes exceeds limit"));
    }
    let mut whole = Vec::with_capacity(frame::FRAME_HEADER_LEN + len);
    whole.extend_from_slice(&header);
    whole.resize(frame::FRAME_HEADER_LEN + len, 0);
    stream
        .read_exact(&mut whole[frame::FRAME_HEADER_LEN..])
        .map_err(|e| format!("socket read: {e}"))?;
    let (payload, _) = frame::read_frame(&whole, 0).ok_or("corrupt frame (checksum mismatch)")?;
    decode_from_slice(payload)
        .map(Some)
        .map_err(|e| format!("decoding message: {e:?}"))
}

// ----- the service ---------------------------------------------------------

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Fleet workers per campaign.
    pub workers: usize,
    /// Campaigns admitted to the queue at once (beyond the running
    /// one); submissions past this are [`Response::Rejected`].
    pub max_queued: usize,
    /// Artifact store root. The service holds the store's maintenance
    /// lock ([`ArtifactStore::coordinate`]) for its whole lifetime.
    pub store: PathBuf,
    /// Store size budget in bytes (`--store-cap`).
    pub store_cap: Option<u64>,
}

/// One queued campaign.
#[derive(Debug)]
struct Pending {
    fingerprint: u64,
    spec: SweepSpec,
}

/// State shared between the accept loop, connection handlers and the
/// campaign runner.
#[derive(Debug, Default)]
struct ServiceState {
    pending: VecDeque<Pending>,
    running: Option<u64>,
    /// Finished campaigns: fingerprint → canonical report JSON (or the
    /// error that stopped it).
    reports: HashMap<u64, Result<String, String>>,
    completed: u64,
    steals: u64,
    jobs_done: u64,
    shutting_down: bool,
}

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<ServiceState>,
    cv: Condvar,
}

fn poisoned<T>(guard: std::sync::LockResult<T>) -> T {
    guard.unwrap_or_else(|p| panic!("service state poisoned: {p:?}"))
}

/// Runs the campaign service until a [`Request::Shutdown`] drains it.
///
/// The service takes the store's maintenance lock for its lifetime (so
/// eviction needs no per-sweep lock), then binds `config.socket`, and
/// executes queued campaigns one at a time on a threaded work-stealing
/// fleet of `config.workers` workers sharing `budget`. Reports are
/// canonical: byte-identical to a solo `smctl sweep` of the same spec.
///
/// # Errors
///
/// Returns an error when the socket is taken by a live service, when
/// the store lock is held by a live peer (the socket is then left
/// untouched), or on listener setup failure.
pub fn serve(config: &ServeConfig, budget: &Budget) -> Result<(), String> {
    if config.workers == 0 {
        return Err("--workers must be ≥ 1".into());
    }
    // A connectable socket means a live service; a stale file from a
    // killed one is safe to replace.
    if UnixStream::connect(&config.socket).is_ok() {
        return Err(format!(
            "a service is already listening on {}",
            config.socket.display()
        ));
    }
    // The lock comes before the socket, so a service that cannot own
    // its store never answers a client. Held until `serve` returns;
    // the kernel releases it if the process dies first.
    let store = Arc::new(ArtifactStore::open(&config.store, config.store_cap));
    let _lock = store.coordinate().ok_or_else(|| {
        format!(
            "store {} is locked by a live peer; stop it or pick another --store",
            config.store.display()
        )
    })?;
    let _ = std::fs::remove_file(&config.socket);
    if let Some(parent) = config.socket.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| format!("binding {}: {e}", config.socket.display()))?;
    let shared = Arc::new(Shared::default());
    let stop = Arc::new(AtomicBool::new(false));

    // The runner: one campaign at a time off the queue, each on a fresh
    // cache over the shared store, journaled under the store root.
    let runner = {
        let shared = Arc::clone(&shared);
        let store = Arc::clone(&store);
        let budget = budget.clone();
        let workers = config.workers;
        std::thread::spawn(move || loop {
            let next = {
                let mut state = poisoned(shared.state.lock());
                loop {
                    if let Some(next) = state.pending.pop_front() {
                        state.running = Some(next.fingerprint);
                        break Some(next);
                    }
                    if state.shutting_down {
                        break None;
                    }
                    state = poisoned(shared.cv.wait(state));
                }
            };
            let Some(next) = next else {
                break;
            };
            let journal = Arc::new(Journal::for_spec(store.root(), &next.spec));
            let cache =
                ArtifactCache::with_store(Arc::clone(&store)).with_journal(Arc::clone(&journal));
            let result = CampaignRun::new(&next.spec)
                .and_then(|run| run.run(&Scheduler::Fleet { workers }, &budget, &cache));
            let mut state = poisoned(shared.state.lock());
            state.running = None;
            state.completed += 1;
            match result {
                Ok((campaign, stats)) => {
                    state.steals += stats.steals;
                    state.jobs_done += campaign.outcomes.len() as u64;
                    let json = campaign.to_json(ReportOptions::default()).render();
                    state.reports.insert(next.fingerprint, Ok(json));
                }
                Err(e) => {
                    state.reports.insert(next.fingerprint, Err(e));
                }
            }
            shared.cv.notify_all();
        })
    };

    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        let store_root = config.store.clone();
        let socket = config.socket.clone();
        let workers = config.workers;
        let max_queued = config.max_queued;
        std::thread::spawn(move || {
            let _ = handle_conn(
                stream,
                &shared,
                &stop,
                &store_root,
                &socket,
                workers,
                max_queued,
            );
        });
    }
    runner.join().map_err(|_| "campaign runner panicked")?;
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}

/// Handles one client connection: a single request, then the response
/// stream for it.
fn handle_conn(
    mut stream: UnixStream,
    shared: &Shared,
    stop: &AtomicBool,
    store_root: &Path,
    socket: &Path,
    workers: usize,
    max_queued: usize,
) -> Result<(), String> {
    let Some(request) = recv_msg::<Request>(&mut stream)? else {
        return Ok(());
    };
    match request {
        Request::Submit { spec, follow } => {
            let jobs = match spec.jobs() {
                Ok(jobs) => jobs.len() as u64,
                Err(reason) => {
                    return send_msg(&mut stream, &Response::Rejected { reason });
                }
            };
            let fingerprint = spec_fingerprint(&spec);
            let admitted = {
                let mut state = poisoned(shared.state.lock());
                if state.shutting_down {
                    Err("service is shutting down".to_string())
                } else if state.reports.contains_key(&fingerprint)
                    || state.running == Some(fingerprint)
                    || state.pending.iter().any(|p| p.fingerprint == fingerprint)
                {
                    // Same spec, same campaign: attach instead of
                    // re-queueing (reports are deterministic, so the
                    // first run's bytes answer every duplicate).
                    Ok(state.pending.len() as u64)
                } else if state.pending.len() >= max_queued {
                    Err(format!(
                        "queue full ({max_queued} campaign(s) already admitted)"
                    ))
                } else {
                    state.pending.push_back(Pending {
                        fingerprint,
                        spec: spec.clone(),
                    });
                    shared.cv.notify_all();
                    Ok(state.pending.len() as u64 - 1)
                }
            };
            let queued = match admitted {
                Ok(queued) => queued,
                Err(reason) => {
                    return send_msg(&mut stream, &Response::Rejected { reason });
                }
            };
            send_msg(
                &mut stream,
                &Response::Accepted {
                    fingerprint,
                    jobs,
                    queued,
                },
            )?;
            let mut follower = follow.then(|| {
                JournalFollower::new(Journal::for_spec(store_root, &spec).path().to_path_buf())
            });
            // The runner notifies `cv` after storing each report; only a
            // follower wakes earlier, to poll the journal. The poll after
            // the report lands drains the tail, so a followed stream
            // always ends on campaign-finished.
            let report = loop {
                let state = poisoned(shared.state.lock());
                let report = state.reports.get(&fingerprint).cloned();
                if report.is_some() {
                    drop(state);
                } else if follower.is_some() {
                    let poll = Duration::from_millis(20);
                    drop(poisoned(shared.cv.wait_timeout(state, poll)));
                } else {
                    drop(poisoned(shared.cv.wait(state)));
                }
                if let Some(follower) = &mut follower {
                    if let Ok(events) = follower.poll() {
                        for event in events {
                            send_msg(&mut stream, &Response::Event(event))?;
                        }
                    }
                }
                if let Some(report) = report {
                    break report;
                }
            };
            match report {
                Ok(json) => send_msg(&mut stream, &Response::Report { json }),
                Err(reason) => send_msg(&mut stream, &Response::Rejected { reason }),
            }
        }
        Request::Status => {
            let state = poisoned(shared.state.lock());
            let status = ServiceStatus {
                workers: workers as u64,
                queued: state.pending.len() as u64,
                running: state.running,
                completed: state.completed,
                steals: state.steals,
                jobs_done: state.jobs_done,
            };
            drop(state);
            send_msg(&mut stream, &Response::Status(status))
        }
        Request::Shutdown => {
            let mut state = poisoned(shared.state.lock());
            state.shutting_down = true;
            shared.cv.notify_all();
            // Drain: wait until the queue is empty and nothing runs.
            while !state.pending.is_empty() || state.running.is_some() {
                state = poisoned(shared.cv.wait(state));
            }
            drop(state);
            send_msg(&mut stream, &Response::Done)?;
            // Unblock the accept loop so `serve` can return.
            stop.store(true, Ordering::Release);
            let _ = UnixStream::connect(socket);
            Ok(())
        }
    }
}

// ----- client helpers ------------------------------------------------------

/// Submits `spec` to the service at `socket` and blocks until the
/// canonical report JSON comes back. With `follow`, every streamed
/// journal event is handed to `on_event` first. `on_accept` receives
/// the admission echo (fingerprint, job count, queue position).
///
/// # Errors
///
/// Returns an error on connection/protocol failure or a
/// [`Response::Rejected`].
pub fn client_submit(
    socket: &Path,
    spec: &SweepSpec,
    follow: bool,
    mut on_accept: impl FnMut(u64, u64, u64),
    mut on_event: impl FnMut(&Event),
) -> Result<String, String> {
    let mut stream = connect(socket)?;
    send_msg(
        &mut stream,
        &Request::Submit {
            spec: spec.clone(),
            follow,
        },
    )?;
    loop {
        match recv_msg::<Response>(&mut stream)? {
            Some(Response::Accepted {
                fingerprint,
                jobs,
                queued,
            }) => on_accept(fingerprint, jobs, queued),
            Some(Response::Event(event)) => on_event(&event),
            Some(Response::Report { json }) => return Ok(json),
            Some(Response::Rejected { reason }) => return Err(reason),
            Some(other) => return Err(format!("unexpected response {other:?}")),
            None => return Err("service closed the connection before the report".into()),
        }
    }
}

/// Fetches a [`ServiceStatus`] snapshot from the service at `socket`.
///
/// # Errors
///
/// Returns an error on connection/protocol failure.
pub fn client_status(socket: &Path) -> Result<ServiceStatus, String> {
    let mut stream = connect(socket)?;
    send_msg(&mut stream, &Request::Status)?;
    match recv_msg::<Response>(&mut stream)? {
        Some(Response::Status(status)) => Ok(status),
        Some(other) => Err(format!("unexpected response {other:?}")),
        None => Err("service closed the connection".into()),
    }
}

/// Asks the service at `socket` to drain its queue and exit; returns
/// once the shutdown is acknowledged.
///
/// # Errors
///
/// Returns an error on connection/protocol failure.
pub fn client_shutdown(socket: &Path) -> Result<(), String> {
    let mut stream = connect(socket)?;
    send_msg(&mut stream, &Request::Shutdown)?;
    match recv_msg::<Response>(&mut stream)? {
        Some(Response::Done) => Ok(()),
        Some(other) => Err(format!("unexpected response {other:?}")),
        None => Err("service closed the connection".into()),
    }
}

fn connect(socket: &Path) -> Result<UnixStream, String> {
    UnixStream::connect(socket).map_err(|e| {
        format!(
            "connecting to {}: {e} (is `smctl serve` running?)",
            socket.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_split_upper_half() {
        let mut r = JobRange { lo: 4, hi: 10 };
        let upper = r.split().unwrap();
        assert_eq!(r, JobRange { lo: 4, hi: 7 });
        assert_eq!(upper, JobRange { lo: 7, hi: 10 });
        let mut tiny = JobRange { lo: 0, hi: 1 };
        assert_eq!(tiny.split(), None);
    }

    #[test]
    fn fleet_rejects_bad_plans() {
        assert!(Fleet::new(0, 4, 1, &[]).is_err());
        assert!(Fleet::new(2, 4, 1, &[(2, 0)]).is_err());
        assert!(Fleet::new(2, 4, 1, &[(0, 0), (1, 0)]).is_err());
    }

    #[test]
    fn schedules_are_reproducible() {
        let plan = SimPlan {
            workers: 4,
            seed: 7,
            deaths: vec![(2, 1)],
        };
        let (a, sa) = simulate_schedule(23, &plan).unwrap();
        let (b, sb) = simulate_schedule(23, &plan).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.deaths, 1);
    }

    #[test]
    fn protocol_round_trips() {
        let req = Request::Submit {
            spec: SweepSpec::default(),
            follow: true,
        };
        let bytes = encode_to_vec(&req);
        assert_eq!(decode_from_slice::<Request>(&bytes).unwrap(), req);
        let resp = Response::Status(ServiceStatus {
            workers: 3,
            queued: 2,
            running: Some(9),
            completed: 4,
            steals: 5,
            jobs_done: 6,
        });
        let bytes = encode_to_vec(&resp);
        assert_eq!(decode_from_slice::<Response>(&bytes).unwrap(), resp);
    }
}
