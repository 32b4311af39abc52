//! `smctl serve` — the long-running campaign service.
//!
//! A coordinator that accepts sweep specs over a Unix-domain socket,
//! keeps a bounded campaign queue with admission control, runs one
//! campaign at a time on a [`Fleet`](crate::Fleet) of `--workers`
//! work-stealing workers, and streams journal events back per campaign.
//! The campaigns themselves run through the one campaign driver,
//! [`CampaignRun::run_fleet`], so a served campaign journals, reserves
//! bundles, counts cache hits and renders its canonical bytes exactly
//! like `smctl sweep` of the same spec.
//!
//! [`serve`] is the service and [`client_submit`], [`client_status`] and
//! [`client_shutdown`] its clients; they speak the framed socket protocol
//! ([`Request`]/[`Response`], [`sm_codec::frame`] frames over a
//! `UnixStream`).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sm_codec::{decode_from_slice, encode_to_vec, frame, record, tagged, Decode, Encode};
use sm_exec::Budget;

use crate::cache::ArtifactCache;
use crate::campaign::{CampaignRun, SweepSpec};
use crate::journal::{spec_fingerprint, Event, Journal, JournalFollower};
use crate::report::ReportOptions;
use crate::store::ArtifactStore;

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
    /// The campaign's canonical JSON report — the same bytes
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
/// eviction needs no per-sweep lock), then binds `config.socket`,
/// announces itself on stderr (`serving campaigns on …`), and executes
/// queued campaigns one at a time on a threaded work-stealing fleet of
/// `config.workers` workers sharing `budget`. Reports are canonical:
/// byte-identical to `smctl sweep` of the same spec.
///
/// # Errors
///
/// Returns an error, before announcing anything, when `config.workers`
/// is 0, when the socket is taken by a live service, when the store
/// lock is held by a live peer (the socket is then left untouched), or
/// on listener setup failure.
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
    eprintln!(
        "serving campaigns on {socket} ({} worker(s), {} queued max); stop with `smctl stop --socket {socket}`",
        config.workers,
        config.max_queued,
        socket = config.socket.display()
    );
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
                .and_then(|run| run.run_fleet(workers, &[], &budget, &cache));
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
