//! Fault-injection (chaos) integration tests: the engine's robustness
//! invariant under deterministic injected failure.
//!
//! * a panicking job never takes the worker pool down: the panic is
//!   isolated, the job records `failed` (journaled like `timed_out`),
//!   and every other job still finishes;
//! * a campaign mangled by **any** fault plan — job panics, transient
//!   and persistent store I/O errors, journal-append errors — either
//!   completes outright or resumes fault-free to a report
//!   **byte-identical** to an uninterrupted fault-free run (property
//!   tested over random seeds and profiles);
//! * persistent store failure degrades to memory-only operation
//!   mid-campaign without changing a byte of the canonical report.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};

use sm_engine::campaign::{run_sweep_budgeted, Campaign, CampaignRun, Scheduler, SweepSpec};
use sm_engine::job::AttackKind;
use sm_engine::journal::{materialize, read_events, Journal};
use sm_engine::report::ReportOptions;
use sm_engine::{ArtifactCache, ArtifactStore};
use sm_exec::fault::{FaultPlan, FaultProfile};
use sm_exec::Budget;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sm-chaos-test-{tag}-{}-{}",
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

/// Injected job faults panic with a recognizable message; the default
/// hook would spray one backtrace per injection over the test output.
/// Filter exactly those, leaving real panics (test failures) loud.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault:"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn spec() -> SweepSpec {
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

/// The fault-free bytes every chaotic run must converge to, computed
/// once (purely in memory) and shared by all tests.
fn baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let campaign = run_sweep_budgeted(
            &spec(),
            &Budget::with_threads(Some(2)),
            &ArtifactCache::new(),
            None,
        )
        .unwrap();
        canonical(&campaign)
    })
}

/// Runs the tiny campaign under `plan` against a store in `scratch`,
/// with the plan attached to all three injection points (job run,
/// store I/O, journal appends).
fn chaotic_run(scratch: &Scratch, plan: FaultPlan) -> Campaign {
    let spec = spec();
    let store = Arc::new(ArtifactStore::open(scratch.path(), None).with_faults(plan));
    let journal = Arc::new(Journal::for_spec(scratch.path(), &spec).with_faults(plan));
    let cache = ArtifactCache::with_store(store)
        .with_journal(journal)
        .with_faults(plan);
    run_sweep_budgeted(&spec, &Budget::with_threads(Some(2)), &cache, None).unwrap()
}

/// Fault-free resume over the same store dir: re-run every placeholder
/// job, merge, and render the canonical report.
fn resume_fault_free(scratch: &Scratch, chaotic: Campaign) -> String {
    let budget = Budget::with_threads(Some(2));
    let cache = ArtifactCache::with_store(Arc::new(ArtifactStore::open(scratch.path(), None)));
    let run = CampaignRun::resume(chaotic).unwrap();
    canonical(&run.run(&Scheduler::Solo, &budget, &cache).unwrap().0)
}

/// A plan that panics **every** job must not poison the pool: all jobs
/// run to their (failed) outcome, the journal records each as
/// `job-failed`, materializes back to the same partial report, and a
/// fault-free resume recovers the fault-free bytes.
#[test]
fn all_job_panics_are_isolated_and_resumable() {
    quiet_injected_panics();
    let scratch = Scratch::new("panics");
    let always_panic = FaultProfile {
        job_panic_bp: 10_000,
        store_transient_bp: 0,
        store_persistent_bp: 0,
        journal_transient_bp: 0,
    };
    let chaotic = chaotic_run(&scratch, FaultPlan::new(7, always_panic));
    let jobs = chaotic.spec.jobs().unwrap().len();
    assert_eq!(chaotic.failed(), jobs, "every job panicked");
    assert_eq!(chaotic.timed_out(), 0);
    assert_eq!(chaotic.outcomes.len(), jobs, "no outcome was lost");
    // The pool survived every panic: workers stayed alive to the end
    // (a poisoned pool would strand jobs, not record peak liveness).
    assert!(
        chaotic.pool.peak_live >= 1,
        "pool must outlive panicking jobs, peak_live={}",
        chaotic.pool.peak_live
    );
    for outcome in &chaotic.outcomes {
        assert!(outcome.metrics.is_failed());
    }

    // The journal round-trips the failed placeholders.
    let journal = Journal::for_spec(scratch.path(), &chaotic.spec);
    let events = read_events(journal.path()).unwrap();
    let failed_events = events.iter().filter(|e| e.kind() == "job-failed").count();
    assert_eq!(failed_events, jobs);
    let replayed = materialize(&events).unwrap();
    assert_eq!(canonical(&replayed), canonical(&chaotic));

    // And the resume converges on the fault-free bytes.
    assert_eq!(resume_fault_free(&scratch, chaotic), baseline());
}

/// Unrelenting persistent store failure degrades the store to
/// memory-only operation — and the campaign completes with canonical
/// bytes identical to a store-less run.
#[test]
fn persistent_store_failure_degrades_without_changing_bytes() {
    let scratch = Scratch::new("degrade");
    let broken_store = FaultProfile {
        job_panic_bp: 0,
        store_transient_bp: 0,
        store_persistent_bp: 10_000,
        journal_transient_bp: 0,
    };
    let plan = FaultPlan::new(3, broken_store);
    let store = Arc::new(ArtifactStore::open(scratch.path(), None).with_faults(plan));
    let cache = ArtifactCache::with_store(Arc::clone(&store)).with_faults(plan);
    let campaign =
        run_sweep_budgeted(&spec(), &Budget::with_threads(Some(2)), &cache, None).unwrap();
    assert!(
        store.is_degraded(),
        "persistent failures must trip degraded mode"
    );
    assert_eq!(campaign.failed(), 0, "store loss never fails jobs");
    assert_eq!(canonical(&campaign), baseline());
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The tentpole invariant: **any** fault seed × profile either
        /// completes the campaign outright or leaves a partial report
        /// whose fault-free resume is byte-identical to the fault-free
        /// baseline.
        #[test]
        fn any_fault_plan_completes_or_resumes_to_fault_free_bytes(
            seed in 0u64..u64::MAX,
            profile_idx in 0usize..3,
        ) {
            quiet_injected_panics();
            let profile = [
                FaultProfile::off(),
                FaultProfile::light(),
                FaultProfile::aggressive(),
            ][profile_idx];
            let scratch = Scratch::new("prop");
            let chaotic = chaotic_run(&scratch, FaultPlan::new(seed, profile));
            let resumed = resume_fault_free(&scratch, chaotic);
            prop_assert_eq!(resumed, baseline());
        }
    }
}
