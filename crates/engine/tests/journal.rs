//! Campaign-journal integration tests: the event-sourcing guarantees
//! behind `.sm-store/journal/`.
//!
//! * a campaign run over a journal-attached cache logs its full
//!   lifecycle (started → per-job events → finished) with provenance;
//! * [`materialize`] folds the log back into a campaign whose canonical
//!   report is **byte-identical** to the directly-written one — cold,
//!   warm (store-replayed) and across thread budgets;
//! * damaged journals (torn tail, flipped byte, trailing garbage)
//!   recover to the longest valid prefix, never a misparse;
//! * an interrupted campaign's journal plus a resume appended to the
//!   same log materializes to the uninterrupted report.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sm_engine::campaign::{run_sweep_budgeted, Campaign, CampaignRun, SweepSpec};
use sm_engine::job::AttackKind;
use sm_engine::journal::{
    find_journal, materialize, read_events, Event, Journal, JournalFollower, MetricsSource,
    JOURNAL_MAGIC, JOURNAL_VERSION,
};
use sm_engine::report::ReportOptions;
use sm_engine::{ArtifactCache, ArtifactStore};
use sm_exec::{Budget, CancelToken};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sm-journal-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn tiny_spec() -> SweepSpec {
    SweepSpec {
        benchmarks: vec!["c432".into()],
        seeds: vec![1, 2],
        split_layers: vec![4],
        attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
        scale: 100,
        master_seed: 1,
        layout_seed: None,
    }
}

fn canonical(campaign: &Campaign) -> String {
    campaign.to_json(ReportOptions::default()).render()
}

/// A cold campaign logs its full lifecycle with computed provenance.
#[test]
fn journal_records_full_campaign_lifecycle() {
    let scratch = Scratch::new("lifecycle");
    let spec = tiny_spec();
    let journal = Arc::new(Journal::for_spec(scratch.path(), &spec));
    let cache = ArtifactCache::new().with_journal(Arc::clone(&journal));
    let campaign = run_sweep_budgeted(&spec, &Budget::with_threads(Some(2)), &cache, None).unwrap();

    let events = read_events(journal.path()).unwrap();
    assert!(matches!(
        events.first(),
        Some(Event::CampaignStarted { spec: s, threads: 2 }) if *s == spec
    ));
    match events.last() {
        Some(Event::CampaignFinished {
            jobs, timed_out, ..
        }) => {
            assert_eq!(*jobs as usize, campaign.outcomes.len());
            assert_eq!(*timed_out, 0);
        }
        other => panic!("last event should be campaign-finished, got {other:?}"),
    }

    let started = events
        .iter()
        .filter(|e| matches!(e, Event::JobStarted { .. }))
        .count();
    let finished: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::JobFinished {
                job,
                metrics,
                provenance,
            } => Some((job, metrics, provenance)),
            _ => None,
        })
        .collect();
    assert_eq!(started, campaign.outcomes.len());
    assert_eq!(finished.len(), campaign.outcomes.len());
    // Cold run: every result was computed, under the split thread
    // budget, with the job's phase spans and bundle key on record.
    for (job, metrics, prov) in &finished {
        assert_eq!(prov.source, MetricsSource::Computed);
        assert!(!prov.bundle_key.is_empty());
        assert!(
            !prov.phases.is_empty(),
            "no phase spans for {}",
            job.label()
        );
        let outcome = campaign
            .outcomes
            .iter()
            .find(|o| {
                o.job.benchmark.name() == job.benchmark
                    && o.job.user_seed == job.user_seed
                    && o.job.split_layer == job.split_layer
                    && o.job.attack == job.attack
            })
            .expect("journal job not in campaign");
        assert_eq!(&outcome.metrics, *metrics);
        assert_eq!(outcome.job.derived_seed(), prov.derived_seed);
    }
    // One bundle-built record per actual build.
    let builds = events
        .iter()
        .filter(|e| matches!(e, Event::BundleBuilt { stage, .. } if stage == "build"))
        .count();
    assert_eq!(builds as u64, campaign.cache.builds);
    // The building job of each bundle carries the build's placement
    // spans (cache hits carry none — no placement ran for them), so
    // provenance shows where place time went: total placement and its
    // FM-refinement slice, per build stage, plus the protect stage's
    // randomization.
    let tracing_jobs = finished
        .iter()
        .filter(|(_, _, prov)| prov.phases.iter().any(|(n, _)| n == "protect-place"))
        .count();
    assert_eq!(
        tracing_jobs as u64, campaign.cache.builds,
        "exactly the building jobs must carry placement spans"
    );
    for (job, _, prov) in &finished {
        let names: Vec<&str> = prov.phases.iter().map(|(n, _)| n.as_str()).collect();
        if names.contains(&"protect-place") {
            for span in ["original-place", "protect-randomize", "protect-place-fm"] {
                assert!(names.contains(&span), "{} lacks {span}", job.label());
            }
        }
    }
    // Flow jobs journal where their time went: each arm's solve under
    // its own span names, the original arm's inside `attack-original`.
    // No two jobs here share a layout, so none waited on a sibling's
    // solve and none records `memo-wait`.
    for (job, _, prov) in &finished {
        if job.attack != AttackKind::NetworkFlow {
            continue;
        }
        let span = |name: &str| {
            prov.phases
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, ms)| ms)
        };
        let original_arm = ["candidates", "mcmf", "assign"].map(|phase| {
            let protected = format!("attack-{phase}");
            let original = format!("attack-original-{phase}");
            assert!(
                span(&protected).is_some(),
                "{} lacks {protected}",
                job.label()
            );
            span(&original).unwrap_or_else(|| panic!("{} lacks {original}", job.label()))
        });
        let total = span("attack-original").expect("the original arm's span");
        assert!(
            original_arm.iter().sum::<f64>() <= total + 1e-9,
            "the original arm's solve spans exceed attack-original for {}",
            job.label()
        );
        assert_eq!(span("memo-wait"), None, "{} waited", job.label());
    }
    for (job, _, prov) in &finished {
        for stage in ["protect", "original"] {
            let span = |suffix: &str| {
                prov.phases
                    .iter()
                    .find(|(n, _)| *n == format!("{stage}{suffix}"))
                    .map(|&(_, ms)| ms)
            };
            let (place, fm) = (span("-place"), span("-place-fm"));
            assert_eq!(
                place.is_some(),
                fm.is_some(),
                "placement spans must come in pairs for {}",
                job.label()
            );
            if let (Some(place), Some(fm)) = (place, fm) {
                assert!(
                    (0.0..=place).contains(&fm),
                    "FM slice {fm}ms exceeds placement total {place}ms for {}",
                    job.label()
                );
            }
        }
    }
}

/// Naive lifting re-routes the original layout's placement, so a
/// building superblue job journals the original and protect stages'
/// spans but no lift placement.
#[test]
fn superblue_building_jobs_carry_no_lift_placement() {
    let scratch = Scratch::new("superblue-spans");
    let spec = SweepSpec {
        benchmarks: vec!["superblue18".into()],
        seeds: vec![1],
        split_layers: vec![4],
        attacks: vec![AttackKind::Crouting],
        scale: 1000,
        master_seed: 1,
        layout_seed: None,
    };
    let journal = Arc::new(Journal::for_spec(scratch.path(), &spec));
    let cache = ArtifactCache::new().with_journal(Arc::clone(&journal));
    let campaign = run_sweep_budgeted(&spec, &Budget::with_threads(Some(2)), &cache, None).unwrap();
    assert_eq!(campaign.cache.builds, 1);
    let phases: Vec<String> = read_events(journal.path())
        .unwrap()
        .into_iter()
        .filter_map(|e| match e {
            Event::JobFinished { provenance, .. } => Some(provenance.phases),
            _ => None,
        })
        .flatten()
        .map(|(name, _)| name)
        .collect();
    for span in [
        "original-place",
        "original-place-fm",
        "protect-randomize",
        "protect-place",
        "protect-place-fm",
    ] {
        assert!(phases.iter().any(|n| n == span), "no {span} span");
    }
    assert!(
        !phases.iter().any(|n| n.starts_with("lift-")),
        "naive lifting placed: {phases:?}"
    );
}

/// The tentpole guarantee: `materialize(journal)` renders byte-identical
/// to the directly-written canonical report — cold, warm over the same
/// store, and across thread budgets.
#[test]
fn materialized_reports_are_byte_identical_cold_warm_and_across_threads() {
    let scratch = Scratch::new("materialize");
    let spec = tiny_spec();
    let store = Arc::new(ArtifactStore::open(scratch.path().join("store"), None));

    let cold_journal = Arc::new(Journal::at(scratch.path().join("cold.journal")));
    let cold_cache =
        ArtifactCache::with_store(Arc::clone(&store)).with_journal(Arc::clone(&cold_journal));
    let cold =
        run_sweep_budgeted(&spec, &Budget::with_threads(Some(4)), &cold_cache, None).unwrap();

    let warm_journal = Arc::new(Journal::at(scratch.path().join("warm.journal")));
    let warm_cache =
        ArtifactCache::with_store(Arc::clone(&store)).with_journal(Arc::clone(&warm_journal));
    let warm =
        run_sweep_budgeted(&spec, &Budget::with_threads(Some(1)), &warm_cache, None).unwrap();

    let from_cold = materialize(&read_events(cold_journal.path()).unwrap()).unwrap();
    let from_warm = materialize(&read_events(warm_journal.path()).unwrap()).unwrap();
    assert_eq!(canonical(&from_cold), canonical(&cold));
    assert_eq!(canonical(&from_warm), canonical(&warm));
    // Cold (4 threads) and warm (1 thread) materialize identically too.
    assert_eq!(canonical(&from_cold), canonical(&from_warm));
    assert_eq!(
        from_cold.to_csv(ReportOptions::default()),
        cold.to_csv(ReportOptions::default())
    );

    // The warm run replayed persisted outcomes: provenance says so.
    let warm_events = read_events(warm_journal.path()).unwrap();
    assert!(warm_events.iter().any(
        |e| matches!(e, Event::JobFinished { provenance, .. } if provenance.source == MetricsSource::Store)
    ));
}

/// Damage in any byte degrades reads to the longest valid prefix.
#[test]
fn torn_and_corrupt_journals_recover_longest_valid_prefix() {
    let scratch = Scratch::new("corrupt");
    fs::create_dir_all(scratch.path()).unwrap();
    let path = scratch.path().join("c.journal");
    let journal = Journal::at(&path);

    // A synthetic log with one frame per event and recorded frame
    // boundaries (file length after each append).
    let spec = tiny_spec();
    let events = vec![
        Event::CampaignStarted {
            spec: spec.clone(),
            threads: 2,
        },
        Event::BundleBuilt {
            key: "iscas-c432-s0000000000000001".into(),
            stage: "build".into(),
            wall_ms: 12.5,
        },
        Event::BundleBuilt {
            key: "iscas-c432-s0000000000000002".into(),
            stage: "decode".into(),
            wall_ms: 0.75,
        },
    ];
    let mut boundaries = Vec::new();
    for event in &events {
        journal.record(event);
        boundaries.push(fs::metadata(&path).unwrap().len() as usize);
    }
    let intact = fs::read(&path).unwrap();
    assert_eq!(read_events(&path).unwrap(), events);

    // Truncation at *every* byte boundary yields exactly the frames that
    // fit — never an error, never a misparse.
    for cut in 6..intact.len() {
        fs::write(&path, &intact[..cut]).unwrap();
        let expect = boundaries.iter().filter(|&&b| b <= cut).count();
        let got = read_events(&path).unwrap();
        assert_eq!(got.len(), expect, "cut at {cut}");
        assert_eq!(got[..], events[..expect], "cut at {cut}");
    }

    // A flipped byte anywhere in a frame kills that frame and the rest.
    for (i, window) in [(0, 6..boundaries[0]), (1, boundaries[0]..boundaries[1])] {
        for pos in window {
            let mut bytes = intact.clone();
            bytes[pos] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            let got = read_events(&path).unwrap();
            assert!(got.len() <= i, "flip at {pos} resurrected a frame");
            assert_eq!(got[..], events[..got.len()], "flip at {pos}");
        }
    }

    // Garbage appended after a clean end is ignored.
    let mut bytes = intact.clone();
    bytes.extend(std::iter::repeat_n(0xAB, 100));
    fs::write(&path, &bytes).unwrap();
    assert_eq!(read_events(&path).unwrap(), events);

    // A foreign header is an error, not an empty journal.
    fs::write(&path, b"NOPE\x01\x00").unwrap();
    assert!(read_events(&path).unwrap_err().contains("magic"));
}

/// A journal of another format version (e.g. left in a store by an
/// older build) is never appended to: the writer degrades to inert and
/// leaves the file as it was, readable by the build that wrote it.
#[test]
fn a_journal_of_another_version_is_left_untouched() {
    let scratch = Scratch::new("foreign");
    fs::create_dir_all(scratch.path()).unwrap();
    let path = scratch.path().join("c.journal");
    let mut old = JOURNAL_MAGIC.to_vec();
    old.extend((JOURNAL_VERSION - 1).to_le_bytes());
    fs::write(&path, &old).unwrap();
    Journal::at(&path).record(&Event::CampaignStarted {
        spec: tiny_spec(),
        threads: 1,
    });
    assert_eq!(fs::read(&path).unwrap(), old);
    let err = read_events(&path).unwrap_err();
    let both = format!(
        "version {} (this build reads {JOURNAL_VERSION})",
        JOURNAL_VERSION - 1
    );
    assert!(err.contains(&both), "{err}");
}

/// An interrupted campaign's journal, resumed by appending the re-run
/// jobs to the same log, materializes to the uninterrupted report.
#[test]
fn interrupted_journal_plus_resume_materializes_to_uninterrupted_report() {
    let scratch = Scratch::new("resume");
    let spec = tiny_spec();
    let full = run_sweep_budgeted(
        &spec,
        &Budget::with_threads(Some(2)),
        &ArtifactCache::new(),
        None,
    )
    .unwrap();

    // A campaign whose token was cancelled before pickup: the journal
    // records timed-out placeholders for every job.
    let journal = Arc::new(Journal::for_spec(scratch.path(), &spec));
    let cancel = CancelToken::new();
    let budget = Budget::with_threads(Some(2)).with_cancel(cancel.clone());
    cancel.cancel();
    let cache = ArtifactCache::new().with_journal(Arc::clone(&journal));
    let interrupted = run_sweep_budgeted(&spec, &budget, &cache, None).unwrap();
    assert_eq!(interrupted.timed_out(), interrupted.outcomes.len());

    let partial = materialize(&read_events(journal.path()).unwrap()).unwrap();
    assert_eq!(partial.timed_out(), partial.outcomes.len());

    // Resume: run exactly the missing jobs over a cache attached to the
    // *same* journal — crash-safe resume is log concatenation.
    let run = CampaignRun::resume(partial).unwrap();
    assert_eq!(run.selected().len(), spec.jobs().unwrap().len());
    let resume_cache = ArtifactCache::new().with_journal(Arc::clone(&journal));
    let budget = Budget::with_threads(Some(2));
    run.run(&budget, &resume_cache);

    let resumed = materialize(&read_events(journal.path()).unwrap()).unwrap();
    assert_eq!(resumed.timed_out(), 0);
    assert_eq!(canonical(&resumed), canonical(&full));
}

/// A follower sees exactly the appended events, in order, across polls;
/// `find_journal` resolves store directories to the journal file.
#[test]
fn follower_streams_incrementally_and_find_journal_resolves_directories() {
    let scratch = Scratch::new("follow");
    let spec = tiny_spec();
    let journal = Journal::for_spec(scratch.path(), &spec);
    let mut follower = JournalFollower::new(journal.path());

    // Nothing on disk yet: quietly no events.
    assert_eq!(follower.poll().unwrap(), Vec::new());

    let started = Event::CampaignStarted {
        spec: spec.clone(),
        threads: 1,
    };
    journal.record(&started);
    assert_eq!(follower.poll().unwrap(), vec![started.clone()]);
    assert_eq!(follower.poll().unwrap(), Vec::new());

    let built = Event::BundleBuilt {
        key: "iscas-c432-s0000000000000001".into(),
        stage: "build".into(),
        wall_ms: 3.25,
    };
    journal.record(&built);
    journal.record(&built);
    assert_eq!(follower.poll().unwrap(), vec![built.clone(), built.clone()]);

    // A store directory resolves through its journal/ subdirectory; the
    // file resolves to itself.
    assert_eq!(find_journal(scratch.path()).unwrap(), journal.path());
    assert_eq!(find_journal(journal.path()).unwrap(), journal.path());
    assert!(find_journal(&scratch.path().join("nope")).is_err());

    // Campaigns append to the spec-fingerprinted path: a second writer
    // for the same spec continues the same log (resume = concatenation).
    let again = Journal::for_spec(scratch.path(), &spec);
    assert_eq!(again.path(), journal.path());
    again.record(&built);
    assert_eq!(follower.poll().unwrap(), vec![built.clone()]);

    let total = read_events(journal.path()).unwrap();
    assert_eq!(total.len(), 4);
}

/// A journal of every-job-timed-out events round-trips the timeout
/// placeholder (which the store codec deliberately rejects) through the
/// dedicated `job-timed-out` record.
#[test]
fn timed_out_jobs_materialize_as_placeholders() {
    let scratch = Scratch::new("timeout");
    let spec = SweepSpec {
        seeds: vec![1],
        ..tiny_spec()
    };
    let journal = Arc::new(Journal::for_spec(scratch.path(), &spec));
    let cache = ArtifactCache::new().with_journal(Arc::clone(&journal));
    let budget = Budget::with_threads(Some(1)).with_deadline_in(Duration::ZERO);
    let campaign = run_sweep_budgeted(&spec, &budget, &cache, None).unwrap();
    assert_eq!(campaign.timed_out(), campaign.outcomes.len());

    let events = read_events(journal.path()).unwrap();
    let timed_out = events
        .iter()
        .filter(|e| matches!(e, Event::JobTimedOut { phase, .. } if phase == "pickup"))
        .count();
    assert_eq!(timed_out, campaign.outcomes.len());

    let replayed = materialize(&events).unwrap();
    assert_eq!(replayed.timed_out(), campaign.outcomes.len());
    assert_eq!(canonical(&replayed), canonical(&campaign));
}

/// A follower whose journal shrinks underneath it (rotation, `smctl
/// clear`, a fresh campaign over a recycled path) restarts cleanly from
/// the top of the new file instead of erroring or replaying garbage —
/// and tails the file from its offset rather than re-reading the whole
/// log on every poll.
#[test]
fn follower_restarts_cleanly_after_truncation_or_rotation() {
    let scratch = Scratch::new("follow-rotate");
    let spec = tiny_spec();
    let journal = Journal::for_spec(scratch.path(), &spec);
    let mut follower = JournalFollower::new(journal.path());

    let started = Event::CampaignStarted {
        spec: spec.clone(),
        threads: 1,
    };
    let built = Event::BundleBuilt {
        key: "iscas-c432-s0000000000000001".into(),
        stage: "build".into(),
        wall_ms: 3.25,
    };
    journal.record(&started);
    journal.record(&built);
    assert_eq!(follower.poll().unwrap().len(), 2);

    // Rotation: the log is removed and a fresh journal (header + one
    // event) appears at the same path, *shorter* than the follower's
    // offset. The next poll restarts from byte zero.
    fs::remove_file(journal.path()).unwrap();
    let fresh = Journal::for_spec(scratch.path(), &spec);
    fresh.record(&started);
    assert_eq!(follower.poll().unwrap(), vec![started.clone()]);
    assert_eq!(follower.poll().unwrap(), Vec::new());

    // Truncation to zero bytes: quietly nothing until a writer lays
    // down a fresh header, then events stream normally again.
    fs::write(journal.path(), b"").unwrap();
    assert_eq!(follower.poll().unwrap(), Vec::new());
    fs::remove_file(journal.path()).unwrap();
    let again = Journal::for_spec(scratch.path(), &spec);
    again.record(&built);
    again.record(&built);
    assert_eq!(follower.poll().unwrap(), vec![built.clone(), built.clone()]);

    // Deleting the file entirely parks the follower without error; a
    // reborn journal streams from its own start.
    fs::remove_file(journal.path()).unwrap();
    assert_eq!(follower.poll().unwrap(), Vec::new());
    let reborn = Journal::for_spec(scratch.path(), &spec);
    reborn.record(&started);
    assert_eq!(follower.poll().unwrap(), vec![started]);
}
