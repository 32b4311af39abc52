//! The four campaign workloads and the runs that time them.
//!
//! Every run is one closed-loop client in one process: a campaign is
//! submitted, and the next one starts only after its report is back.
//! Solo workloads call `run_sweep_budgeted`; `served-warm` starts
//! `serve` on a thread of this process and submits with `client_submit`.
//! All of them share one `--threads 2` budget. The workload seed is the
//! campaign's `master_seed` and nothing else.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_engine::journal::read_events;
use sm_engine::{
    client_shutdown, client_status, client_submit, iscas_selection, run_sweep_budgeted, serve,
    ArtifactCache, ArtifactStore, AttackKind, Budget, CacheStats, Campaign, Event, Journal,
    ReportOptions, ServeConfig, SweepSpec,
};

/// Threads of the campaign budget; `served-warm` runs this many fleet
/// workers on it.
pub const THREADS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Nominal seconds per rep (setup + campaign) on a 2-core machine;
    /// fixes how many reps fit in `--seconds`.
    nominal_s: f64,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "iscas-protect",
        why: "36 bundle builds on a fresh store: generate, randomize and protect, place+FM, route, and store writes dominate",
        nominal_s: 2.5,
    },
    Workload {
        name: "iscas-flow",
        why: "8 flow jobs on 2 pinned layouts: the SSP min-cost-flow engine and attack-original dominate, builds are cheap",
        nominal_s: 5.0,
    },
    Workload {
        name: "superblue-flow",
        why: "2 superblue18 flow jobs on 1 pinned layout: cost-scaling MCMF, assignment, OER/HD eval and one large bundle build",
        nominal_s: 7.0,
    },
    Workload {
        name: "served-warm",
        why: "216 crouting jobs submitted to an in-process service over a primed store: stage decode, splits, journal, socket and fleet",
        nominal_s: 5.0,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Reps that fill about `seconds` (at least 3, so a median exists).
    /// A function of `seconds` alone, so every run pools the same number
    /// of samples and picks the same tail percentile.
    pub fn reps(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_s).round() as usize).max(3)
    }

    /// Whether the workload goes through the campaign service.
    pub fn served(&self) -> bool {
        self.name == "served-warm"
    }

    /// The timed campaign's spec for workload seed `seed`.
    pub fn spec(&self, seed: u64) -> SweepSpec {
        let iscas = || {
            iscas_selection(false)
                .iter()
                .map(|p| p.name.to_string())
                .collect()
        };
        let spec = |benchmarks, seeds, split_layers, attacks, layout_seed| SweepSpec {
            benchmarks,
            seeds,
            split_layers,
            attacks,
            scale: 100,
            master_seed: seed,
            layout_seed,
        };
        use AttackKind::{Crouting, NetworkFlow};
        match self.name {
            "iscas-protect" => spec(iscas(), vec![1, 2, 3, 4], vec![4], vec![Crouting], None),
            "iscas-flow" => spec(
                vec!["c1355".into(), "c1908".into()],
                vec![1, 2],
                vec![3, 4],
                vec![NetworkFlow],
                Some(1),
            ),
            "superblue-flow" => spec(
                vec!["superblue18".into()],
                vec![1, 2],
                vec![4],
                vec![NetworkFlow],
                Some(1),
            ),
            "served-warm" => spec(
                iscas(),
                vec![1, 2, 3, 4],
                (4..=9).collect(),
                vec![Crouting],
                None,
            ),
            other => unreachable!("unknown workload {other}"),
        }
    }

    /// The spec `served-warm` primes its store with during setup: the
    /// same designs and seeds at layer 3, so the timed campaign decodes
    /// every bundle stage and builds only splits.
    pub fn prime_spec(&self, seed: u64) -> SweepSpec {
        SweepSpec {
            split_layers: vec![3],
            ..self.spec(seed)
        }
    }
}

/// What one rep measured.
#[derive(Debug)]
pub struct Rep {
    /// Seconds of setup before the campaign call.
    pub setup_s: f64,
    /// Seconds from the campaign call to having the report bytes.
    pub campaign_s: f64,
    /// The canonical report.
    pub report: String,
    /// Jobs in the campaign.
    pub jobs: usize,
    /// Timed-out or failed jobs.
    pub placeholders: usize,
    /// Facts read back from the campaign's journal.
    pub journal: JournalFacts,
    /// Fleet steals (`served-warm` only).
    pub steals: u64,
}

/// Counters read from a campaign journal.
#[derive(Debug, Default)]
pub struct JournalFacts {
    /// The journal file.
    pub path: PathBuf,
    /// Job-finished provenance walls, ms.
    pub job_walls_ms: Vec<f64>,
    /// Records in the journal.
    pub events: usize,
    /// Journal file size.
    pub bytes: u64,
    /// Stage artifacts decoded from the store.
    pub decodes: u64,
    /// Bundle-cache counters of the campaign-finished record.
    pub cache: CacheStats,
    /// Pool high-water mark of the campaign-finished record.
    pub peak_live: u64,
    /// Campaign wall of the campaign-finished record, ms.
    pub total_wall_ms: f64,
}

impl JournalFacts {
    fn read(path: &Path) -> Result<JournalFacts, String> {
        let events = read_events(path)?;
        let mut facts = JournalFacts {
            path: path.to_path_buf(),
            events: events.len(),
            bytes: fs::metadata(path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .len(),
            ..JournalFacts::default()
        };
        for event in &events {
            match event {
                Event::JobFinished { provenance, .. } => {
                    facts.job_walls_ms.push(provenance.wall_ms)
                }
                Event::BundleBuilt { stage, .. } if stage.ends_with("-decode") => {
                    facts.decodes += 1
                }
                Event::CampaignFinished {
                    cache,
                    pool_peak_live,
                    total_wall_ms,
                    ..
                } => {
                    facts.cache = *cache;
                    facts.peak_live = *pool_peak_live;
                    facts.total_wall_ms = *total_wall_ms;
                }
                _ => {}
            }
        }
        Ok(facts)
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// A store-backed, journaled cache over `dir`, wired like `smctl sweep`.
fn journaled_cache(dir: &Path, spec: &SweepSpec) -> (ArtifactCache, Arc<Journal>) {
    let store = Arc::new(ArtifactStore::open(dir, None));
    let journal = Arc::new(Journal::for_spec(store.root(), spec));
    let cache = ArtifactCache::with_store(store).with_journal(Arc::clone(&journal));
    (cache, journal)
}

/// A solo sweep of `spec` over the store at `dir`, returning its
/// canonical report.
pub fn solo(spec: &SweepSpec, budget: &Budget, dir: &Path) -> Result<String, String> {
    let (cache, _) = journaled_cache(dir, spec);
    let campaign = run_sweep_budgeted(spec, budget, &cache, None)?;
    Ok(campaign.to_json(ReportOptions::default()).render())
}

/// One rep of a solo workload. Setup is a fresh, empty store plus a
/// warm-up campaign on a throwaway store (the spec's first two designs,
/// one crouting job each, at a fixed master seed so setup work does not
/// vary with the workload seed), so the timed campaign never pays
/// first-touch costs.
pub fn solo_rep(spec: &SweepSpec, budget: &Budget, dir: &Path) -> Result<Rep, String> {
    let t = Instant::now();
    let warm = SweepSpec {
        benchmarks: spec.benchmarks.iter().take(2).cloned().collect(),
        seeds: vec![1],
        split_layers: vec![3],
        attacks: vec![AttackKind::Crouting],
        master_seed: 0,
        ..spec.clone()
    };
    solo(&warm, budget, &dir.join("warm"))?;
    let (cache, journal) = journaled_cache(&dir.join("store"), spec);
    let setup_s = secs(t);
    let t = Instant::now();
    let campaign = run_sweep_budgeted(spec, budget, &cache, None)?;
    let report = campaign.to_json(ReportOptions::default()).render();
    let campaign_s = secs(t);
    Ok(Rep {
        setup_s,
        campaign_s,
        report,
        jobs: campaign.outcomes.len(),
        placeholders: campaign.timed_out() + campaign.failed(),
        journal: JournalFacts::read(journal.path())?,
        steals: 0,
    })
}

/// One rep of `served-warm`. Setup starts the service on a fresh store
/// and primes it by submitting `prime`; the timed call submits `spec`.
/// With `copy_to`, the primed store is copied there before the timed
/// submit (outside both timings) for the solo cross-check.
pub fn served_rep(
    spec: &SweepSpec,
    prime: &SweepSpec,
    budget: &Budget,
    dir: &Path,
    copy_to: Option<&Path>,
) -> Result<Rep, String> {
    let config = ServeConfig {
        socket: dir.join("sm.sock"),
        workers: THREADS,
        max_queued: 4,
        store: dir.join("store"),
        store_cap: None,
    };
    let t = Instant::now();
    std::thread::scope(|scope| {
        let service = scope.spawn(|| serve(&config, budget));
        let result = drive_service(&config, spec, prime, t, &service, copy_to);
        // Always stop the service, or the scope would wait forever.
        let _ = client_shutdown(&config.socket);
        let served = service
            .join()
            .map_err(|_| "service thread panicked".to_string())?;
        served?;
        result
    })
}

fn drive_service(
    config: &ServeConfig,
    spec: &SweepSpec,
    prime: &SweepSpec,
    setup_start: Instant,
    service: &std::thread::ScopedJoinHandle<'_, Result<(), String>>,
    copy_to: Option<&Path>,
) -> Result<Rep, String> {
    let socket = &config.socket;
    while client_status(socket).is_err() {
        if service.is_finished() || setup_start.elapsed() > Duration::from_secs(60) {
            return Err("campaign service did not start".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    client_submit(socket, prime, false, |_, _, _| {}, |_| {})?;
    let setup_s = secs(setup_start);
    if let Some(dest) = copy_to {
        copy_store(&config.store, dest)?;
    }
    let t = Instant::now();
    let report = client_submit(socket, spec, false, |_, _, _| {}, |_| {})?;
    let campaign_s = secs(t);
    let steals = client_status(socket)?.steals;
    let parsed = sm_engine::Json::parse(&report)?;
    let campaign = Campaign::from_json(&parsed)?;
    Ok(Rep {
        setup_s,
        campaign_s,
        jobs: campaign.outcomes.len(),
        placeholders: campaign
            .outcomes
            .iter()
            .filter(|o| o.metrics.is_placeholder())
            .count(),
        report,
        journal: JournalFacts::read(Journal::for_spec(&config.store, spec).path())?,
        steals,
    })
}

/// Copies a store tree, leaving out the live service's lock and any
/// in-flight temporary files.
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let name_str = name.to_string_lossy();
        if name_str.starts_with(".lock") || name_str.starts_with(".tmp") {
            continue;
        }
        let (src, dst) = (entry.path(), to.join(&name));
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_store(&src, &dst)?;
        } else {
            fs::copy(&src, &dst).map_err(|e| format!("{}: {e}", src.display()))?;
        }
    }
    Ok(())
}
