//! Campaign-service integration tests: the `smctl serve` guarantees.
//!
//! * the fleet's state machine, stepped directly, covers every job
//!   exactly once and replays its schedule bit-for-bit;
//! * the threaded fleet every campaign runs on — with a worker killed at
//!   its first pickup, at any thread budget — reports **byte-identical**
//!   to `smctl sweep`'s derived fleet and runs each job exactly once;
//! * the live service round-trips submit/status/shutdown over its Unix
//!   socket, streams journal events to a following client, and returns
//!   the same canonical bytes as a sweep;
//! * admission control bounces submissions past `max_queued` and
//!   invalid specs, and a second service refuses a live socket;
//! * every fleet shape (workers, deaths, threads) of the one campaign
//!   driver does the same cache work, not only produces the same bytes,
//!   and never stalls on small campaigns.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sm_engine::campaign::{merge_reports, run_sweep_budgeted, Campaign, CampaignRun, SweepSpec};
use sm_engine::fleet::{Dispatch, Fleet, FleetStats};
use sm_engine::job::AttackKind;
use sm_engine::journal::{read_events, Event, Journal};
use sm_engine::report::ReportOptions;
use sm_engine::serve::{client_shutdown, client_status, client_submit, serve, ServeConfig};
use sm_engine::{ArtifactCache, ArtifactStore};
use sm_exec::Budget;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sm-serve-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Eight jobs (4 seeds × 2 layers) over three workers: enough structure
/// for initial splits, a backlog, and steals to all occur.
fn sim_spec() -> SweepSpec {
    SweepSpec {
        benchmarks: vec!["c432".into()],
        seeds: vec![1, 2, 3, 4],
        split_layers: vec![3, 4],
        attacks: vec![AttackKind::NetworkFlow],
        scale: 100,
        master_seed: 1,
        layout_seed: None,
    }
}

/// A fleet shape: workers, injected `(worker, after_jobs)` deaths, and
/// the campaign's thread budget.
type Shape = (usize, &'static [(usize, usize)], usize);

/// Runs all of `spec` through the driver on a fleet of `shape`.
fn drive(spec: &SweepSpec, shape: Shape, cache: &ArtifactCache) -> (Campaign, FleetStats) {
    let (workers, deaths, threads) = shape;
    let budget = Budget::with_threads(Some(threads));
    let run = CampaignRun::new(spec).unwrap();
    run.run_fleet(workers, deaths, &budget, cache).unwrap()
}

fn canonical(campaign: &Campaign) -> String {
    campaign.to_json(ReportOptions::default()).render()
}

/// The bytes of `smctl sweep`: the derived fleet at two threads.
fn sweep_bytes(spec: &SweepSpec) -> String {
    run_sweep_budgeted(
        spec,
        &Budget::with_threads(Some(2)),
        &ArtifactCache::new(),
        None,
    )
    .unwrap()
    .to_json(ReportOptions::default())
    .render()
}

/// Steps `fleet` in rounds, as threads that each run one job at a time
/// would: every idle live worker asks for a job, then every job in
/// flight completes. Returns each worker's job positions in run order
/// and the counters; panics if a round makes no progress.
fn step(fleet: &mut Fleet) -> (Vec<Vec<usize>>, FleetStats) {
    let workers = fleet.workers();
    let mut schedule = vec![Vec::new(); workers];
    let mut finished = vec![false; workers];
    while finished.contains(&false) {
        let mut in_flight = Vec::new();
        let mut progressed = false;
        for w in 0..workers {
            if finished[w] {
                continue;
            }
            match fleet.next_job(w) {
                Dispatch::Run(position) => {
                    schedule[w].push(position);
                    in_flight.push(w);
                }
                Dispatch::Wait => continue,
                Dispatch::Done | Dispatch::Died => finished[w] = true,
            }
            progressed = true;
        }
        assert!(progressed, "every live worker waits on nothing in flight");
        for &w in &in_flight {
            fleet.complete(w);
        }
    }
    (schedule, fleet.stats())
}

/// Every (total, workers, deaths) combination yields a schedule that
/// covers each job position exactly once — across deaths, uneven splits,
/// and more workers than jobs — and replays bit-for-bit.
#[test]
fn schedules_cover_every_job_exactly_once_and_replay() {
    type Combo = (usize, usize, Vec<(usize, usize)>);
    let combos: Vec<Combo> = vec![
        (8, 3, vec![]),
        (8, 3, vec![(1, 0)]),
        (17, 5, vec![(0, 1), (3, 0)]),
        (1, 4, vec![]),
        (12, 2, vec![(1, 2)]),
    ];
    for (total, workers, deaths) in combos {
        let schedule = || step(&mut Fleet::new(workers, total, 7, &deaths).unwrap());
        let (ran, stats) = schedule();
        let mut all: Vec<usize> = ran.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..total).collect::<Vec<_>>(),
            "coverage for total={total} workers={workers} deaths={deaths:?}"
        );
        assert_eq!(stats.deaths, deaths.len() as u64, "every death fires");
        assert_eq!(schedule(), (ran, stats), "schedules replay bit-for-bit");
    }
}

/// The headline service guarantee: the threaded fleet's merged report is
/// byte-identical to a sweep — healthy or with a worker killed at its
/// first pickup, at any thread budget — and with the kill every job
/// still starts exactly once, because a dead worker's range runs
/// elsewhere instead of twice.
#[test]
fn simulated_fleet_reports_are_byte_identical_to_solo() {
    let spec = sim_spec();
    let want = sweep_bytes(&spec);
    let scratch = Scratch::new("killed");
    let healthy: &[(usize, usize)] = &[];
    let killed: &[(usize, usize)] = &[(1, 0)];
    for (deaths, threads) in [
        (healthy, 4),
        (healthy, 1),
        (killed, 1),
        (killed, 2),
        (killed, 4),
    ] {
        let dir = scratch.path().join(format!("{}-t{threads}", deaths.len()));
        let journal = Arc::new(Journal::for_spec(&dir, &spec));
        let cache = ArtifactCache::new().with_journal(Arc::clone(&journal));
        let (campaign, stats) = drive(&spec, (3, deaths, threads), &cache);
        assert_eq!(
            canonical(&campaign),
            want,
            "fleet bytes diverge (deaths={deaths:?} threads={threads})"
        );
        assert_eq!(
            stats.deaths,
            deaths.len() as u64,
            "the injected death fires"
        );
        let mut starts: HashMap<String, usize> = HashMap::new();
        for event in read_events(journal.path()).unwrap() {
            if let Event::JobStarted { job, .. } = event {
                *starts.entry(job.label()).or_default() += 1;
            }
        }
        assert_eq!(starts.len(), 8, "every job ran (threads={threads})");
        assert!(
            starts.values().all(|&n| n == 1),
            "a job ran twice (deaths={deaths:?} threads={threads}): {starts:?}"
        );
    }
}

/// Runs `spec` on a fleet of `shape` over a fresh cache journaling into
/// `dir`. Returns the canonical bytes and the number of `attack-mcmf`
/// and `attack-original-mcmf` phases in the journal's job-finished
/// provenance: one per flow solve of a protected and an original arm.
fn journaled(spec: &SweepSpec, shape: Shape, dir: &Path) -> (String, [usize; 2]) {
    let journal = Arc::new(Journal::for_spec(dir, spec));
    let cache = ArtifactCache::new().with_journal(Arc::clone(&journal));
    let (campaign, _) = drive(spec, shape, &cache);
    let events = read_events(journal.path()).unwrap();
    let solves = ["attack-mcmf", "attack-original-mcmf"].map(|span| {
        events
            .iter()
            .map(|event| match event {
                Event::JobFinished { provenance, .. } => provenance
                    .phases
                    .iter()
                    .filter(|(name, _)| name == span)
                    .count(),
                _ => 0,
            })
            .sum()
    });
    (canonical(&campaign), solves)
}

/// Under a pinned layout every seed's flow job at one layer attacks the
/// same FEOL, so each connection guess is solved once and shared, on
/// every fleet shape — and the bytes equal a per-job baseline where each
/// job runs alone in a fresh cache.
#[test]
fn pinned_layout_sweeps_solve_each_assignment_once() {
    let scratch = Scratch::new("pinned");
    let spec = SweepSpec {
        benchmarks: vec!["c432".into()],
        seeds: vec![1, 2, 3],
        split_layers: vec![3, 4],
        attacks: vec![AttackKind::NetworkFlow],
        scale: 100,
        master_seed: 1,
        layout_seed: Some(7),
    };
    let budget = Budget::with_threads(Some(2));
    let singles = (0..spec.jobs().unwrap().len())
        .map(|i| {
            let run = CampaignRun::new(&spec).unwrap().jobs(&[i]).unwrap();
            run.run(&budget, &ArtifactCache::new())
        })
        .collect();
    let want = canonical(&merge_reports(singles).unwrap());
    // The first three are the fleets `smctl sweep` derives for six jobs
    // at one, two and four threads.
    let shapes: [Shape; 5] = [
        (1, &[], 1),
        (2, &[], 2),
        (4, &[], 4),
        (3, &[], 2),
        (3, &[(1, 0)], 2),
    ];
    for (i, shape) in shapes.into_iter().enumerate() {
        let dir = scratch.path().join(format!("run-{i}"));
        let (bytes, solves) = journaled(&spec, shape, &dir);
        assert_eq!(bytes, want, "fleet {shape:?}");
        assert_eq!(solves, [2, 2], "one solve per arm and layer: {shape:?}");
    }
    // Unpinned, every job has a layout of its own and solves it.
    let unpinned = SweepSpec {
        layout_seed: None,
        ..spec
    };
    let dir = scratch.path().join("unpinned");
    let (_, solves) = journaled(&unpinned, (2, &[], 2), &dir);
    assert_eq!(solves, [unpinned.jobs().unwrap().len(); 2]);
}

/// Full socket lifecycle: status on an idle service, a followed submit
/// whose event stream starts with campaign-started and ends with
/// campaign-finished, a byte-identical report, an attach for the
/// duplicate spec, updated counters, and a drain-then-exit shutdown
/// that removes the socket. A second service meanwhile refuses the
/// live socket.
#[test]
fn service_round_trips_submit_status_shutdown() {
    let scratch = Scratch::new("round-trip");
    let socket = scratch.path().join("sm.sock");
    let config = ServeConfig {
        socket: socket.clone(),
        workers: 3,
        max_queued: 4,
        store: scratch.path().join("store"),
        store_cap: None,
    };
    let service = {
        let config = config.clone();
        std::thread::spawn(move || serve(&config, &Budget::with_threads(Some(2))))
    };
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let status = client_status(&socket).expect("status on an idle service");
    assert_eq!(status.workers, 3);
    assert_eq!(status.completed, 0);
    assert_eq!(status.running, None);

    // A second service must refuse the live socket outright.
    let usurper = ServeConfig {
        store: scratch.path().join("other-store"),
        ..config.clone()
    };
    let err = serve(&usurper, &Budget::with_threads(Some(1))).unwrap_err();
    assert!(err.contains("already listening"), "{err}");

    let spec = sim_spec();
    let mut events = Vec::new();
    let json = client_submit(
        &socket,
        &spec,
        true,
        |_, jobs, queued| {
            assert_eq!(jobs, 8);
            assert_eq!(queued, 0);
        },
        |event| events.push(event.clone()),
    )
    .expect("followed submission");
    assert_eq!(
        json,
        sweep_bytes(&spec),
        "service bytes diverge from a sweep"
    );
    assert!(
        matches!(events.first(), Some(Event::CampaignStarted { .. })),
        "stream opens with campaign-started"
    );
    // The fleet's workers run on the service's pool, so the pool
    // counts them: at least one, never more than the budget.
    match events.last() {
        Some(Event::CampaignFinished { pool_peak_live, .. }) => assert!(
            (1..=2).contains(pool_peak_live),
            "served peak_live {pool_peak_live} outside 1..=2"
        ),
        other => panic!("stream ends on campaign-finished, got {other:?}"),
    }

    // Duplicate spec: attaches to the finished campaign, same bytes.
    let again =
        client_submit(&socket, &spec, false, |_, _, _| {}, |_| {}).expect("duplicate attaches");
    assert_eq!(again, json);

    let status = client_status(&socket).unwrap();
    assert_eq!(status.completed, 1, "one campaign ran (duplicate attached)");
    assert_eq!(status.jobs_done, 8);

    client_shutdown(&socket).expect("drain + shutdown");
    service
        .join()
        .expect("service thread")
        .expect("service exits cleanly");
    assert!(!socket.exists(), "shutdown removes the socket");
}

/// Admission control: a zero-capacity queue bounces every submission
/// with "queue full", and an unexpandable spec is rejected before it
/// can occupy a slot.
#[test]
fn admission_rejects_full_queues_and_invalid_specs() {
    let scratch = Scratch::new("admission");
    let socket = scratch.path().join("sm.sock");
    let config = ServeConfig {
        socket: socket.clone(),
        workers: 2,
        max_queued: 0,
        store: scratch.path().join("store"),
        store_cap: None,
    };
    let service = {
        let config = config.clone();
        std::thread::spawn(move || serve(&config, &Budget::with_threads(Some(1))))
    };
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let err = client_submit(&socket, &sim_spec(), false, |_, _, _| {}, |_| {})
        .expect_err("a zero-capacity queue admits nothing");
    assert!(err.contains("queue full"), "{err}");

    let bogus = SweepSpec {
        benchmarks: vec!["no-such-benchmark".into()],
        ..sim_spec()
    };
    let err = client_submit(&socket, &bogus, false, |_, _, _| {}, |_| {})
        .expect_err("an unexpandable spec is rejected");
    assert!(!err.is_empty());

    client_shutdown(&socket).unwrap();
    service.join().unwrap().unwrap();
    assert!(!socket.exists());
}

/// Recursively copies a store directory, so several runs can start from
/// one primed store.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// One spec over copies of one primed store, once per fleet shape: a
/// served fleet of three and one with a dead worker reserve bundles like
/// `smctl sweep`'s derived fleet, so each bundle is decoded once and
/// released once — equal cache and stage counters, not only equal bytes.
#[test]
fn schedulers_do_the_same_cache_work_over_a_primed_store() {
    let scratch = Scratch::new("counters");
    let primed = scratch.path().join("primed");
    let prime = SweepSpec {
        benchmarks: vec!["c432".into()],
        seeds: vec![1, 2],
        split_layers: vec![3],
        attacks: vec![AttackKind::Crouting],
        scale: 100,
        master_seed: 1,
        layout_seed: None,
    };
    let store = Arc::new(ArtifactStore::open(&primed, None));
    drive(&prime, (2, &[], 2), &ArtifactCache::with_store(store));
    let spec = SweepSpec {
        split_layers: vec![4, 5, 6],
        ..prime
    };
    let shapes: [Shape; 3] = [(2, &[], 2), (3, &[], 2), (3, &[(1, 0)], 2)];
    let mut runs = Vec::new();
    for (i, shape) in shapes.into_iter().enumerate() {
        let copy = scratch.path().join(format!("copy-{i}"));
        copy_dir(&primed, &copy);
        let cache = ArtifactCache::with_store(Arc::new(ArtifactStore::open(&copy, None)));
        let (campaign, _) = drive(&spec, shape, &cache);
        runs.push((shape, campaign));
    }
    let (_, sweep) = &runs[0];
    assert_eq!(sweep.cache.builds, 0, "the primed store holds every bundle");
    assert_eq!(sweep.cache.disk_hits, 2, "one decode per bundle");
    assert_eq!(sweep.cache.released, 2, "one release per bundle");
    for (shape, campaign) in &runs[1..] {
        assert_eq!(canonical(campaign), canonical(sweep), "{shape:?} bytes");
        assert_eq!(campaign.cache, sweep.cache, "{shape:?} cache counters");
        assert_eq!(campaign.stages, sweep.stages, "{shape:?} stage counters");
    }
}

/// Three jobs on three workers at one and two threads: the pool starts
/// at most two workers at once, so a worker that has finished its own
/// job must be able to take a last job from a worker that has not
/// started yet instead of waiting for it — with and without a worker
/// killed at its first pickup. Run with a deadline so a stall fails the
/// test rather than hanging it.
#[test]
fn three_jobs_on_three_workers_finish_at_low_thread_counts() {
    let spec = SweepSpec {
        benchmarks: vec!["c432".into()],
        seeds: vec![1],
        split_layers: vec![3, 4, 5],
        attacks: vec![AttackKind::NetworkFlow],
        scale: 100,
        master_seed: 1,
        layout_seed: None,
    };
    let want = sweep_bytes(&spec);
    for threads in [1usize, 2] {
        let healthy: &'static [(usize, usize)] = &[];
        for deaths in [healthy, &[(1, 0)]] {
            let shape = (3, deaths, threads);
            let (tx, rx) = std::sync::mpsc::channel();
            let job = {
                let spec = spec.clone();
                std::thread::spawn(move || {
                    let (campaign, _) = drive(&spec, shape, &ArtifactCache::new());
                    tx.send(canonical(&campaign)).unwrap();
                })
            };
            let got = rx
                .recv_timeout(Duration::from_secs(300))
                .unwrap_or_else(|_| panic!("fleet {shape:?} stalled"));
            job.join().unwrap();
            assert_eq!(got, want, "fleet {shape:?}");
        }
    }
}

/// A resume is a campaign like any other: the driver measures its wall
/// clock, so its campaign-finished record carries a real duration.
#[test]
fn resumed_campaigns_journal_their_wall_clock() {
    let scratch = Scratch::new("resume-wall");
    let spec = sim_spec();
    let budget = Budget::with_threads(Some(2));
    let partial = run_sweep_budgeted(&spec, &budget, &ArtifactCache::new(), Some(&[0, 1])).unwrap();
    let journal = Arc::new(Journal::for_spec(scratch.path(), &spec));
    let cache = ArtifactCache::new().with_journal(Arc::clone(&journal));
    let run = CampaignRun::resume(partial).unwrap();
    assert_eq!(run.selected().len(), 6);
    let resumed = run.run(&budget, &cache);
    assert_eq!(canonical(&resumed), sweep_bytes(&spec));
    match read_events(journal.path()).unwrap().last() {
        Some(Event::CampaignFinished {
            jobs,
            total_wall_ms,
            ..
        }) => {
            assert_eq!(*jobs, 8);
            assert!(*total_wall_ms > 0.0, "resume journaled a zero wall clock");
        }
        other => panic!("journal ends on campaign-finished, got {other:?}"),
    }
}
