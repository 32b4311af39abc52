//! Budgeted-campaign integration tests: the engine-level guarantees
//! behind `--threads` and `--timeout-secs`.
//!
//! * canonical reports are **byte-identical** across thread budgets
//!   (1/2/8) — scheduling decides wall-clock, never bytes;
//! * total live worker threads never exceed the campaign budget, even
//!   while jobs run nested parallel work (bundle builds);
//! * a cancelled/expired campaign records timed-out placeholders that
//!   round-trip through the JSON report, and resuming them produces a
//!   report byte-identical to an uninterrupted run;
//! * sharded partial reports merge back into the full campaign.

use std::time::Duration;

use sm_engine::campaign::{
    merge_outcomes, merge_reports, run_job, run_sweep_budgeted, Campaign, CampaignRun, JobOutcome,
    SweepSpec,
};
use sm_engine::job::AttackKind;
use sm_engine::report::{Json, ReportOptions};
use sm_engine::{ArtifactCache, SplitArm, Stage};
use sm_exec::{Budget, CancelToken};
use sm_layout::{FeolView, SplitLayout};

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

#[test]
fn reports_byte_identical_across_thread_budgets() {
    let mut renders = Vec::new();
    let mut csvs = Vec::new();
    for threads in [1usize, 2, 8] {
        let budget = Budget::with_threads(Some(threads));
        let campaign =
            run_sweep_budgeted(&tiny_spec(), &budget, &ArtifactCache::new(), None).unwrap();
        assert_eq!(campaign.threads, threads);
        assert_eq!(campaign.timed_out(), 0);
        // The pool-instrumentation ceiling: jobs plus their nested
        // bundle builds never occupy more threads than the budget.
        assert!(
            budget.pool().peak_live() <= threads,
            "peak {} exceeds budget {threads}",
            budget.pool().peak_live()
        );
        renders.push(canonical(&campaign));
        csvs.push(campaign.to_csv(ReportOptions::default()));
    }
    assert_eq!(renders[0], renders[1]);
    assert_eq!(renders[1], renders[2]);
    assert_eq!(csvs[0], csvs[1]);
    assert_eq!(csvs[1], csvs[2]);
}

#[test]
fn expired_budget_times_out_every_job_without_building_anything() {
    let cache = ArtifactCache::new();
    let budget = Budget::with_threads(Some(2)).with_deadline_in(Duration::ZERO);
    let campaign = run_sweep_budgeted(&tiny_spec(), &budget, &cache, None).unwrap();
    assert_eq!(campaign.timed_out(), campaign.outcomes.len());
    // No bundle was built, nothing aggregated, no CSV rows.
    assert_eq!(cache.stats().builds, 0);
    assert!(campaign.aggregates().is_empty());
    let csv = campaign.to_csv(ReportOptions::default());
    assert_eq!(csv.lines().count(), 1, "header only: {csv}");
    // The summary names the damage.
    assert!(campaign.summary().contains("timed out"));
}

#[test]
fn already_expired_deadline_times_out_a_job_at_pickup() {
    // The sharpest boundary: a single job handed to `run_job` whose
    // budget expired before pickup must come back as a placeholder
    // without building a bundle — and without leaking its bundle
    // reservation.
    let spec = tiny_spec();
    let job = &spec.jobs().unwrap()[0];
    let cache = ArtifactCache::new();
    cache.reserve(job.bundle_key(), 1);
    let budget = Budget::with_threads(Some(1)).with_deadline_in(Duration::ZERO);
    assert!(budget.is_cancelled(), "zero deadline is already expired");
    let outcome = sm_engine::campaign::run_job(&cache, job, &budget);
    assert!(outcome.metrics.is_timed_out());
    assert_eq!(cache.stats().builds, 0, "no bundle may be built");
    // The pickup path must have consumed the reservation: a fresh
    // one-use reservation plus a live run drops the bundle exactly at
    // its release — which could not happen if the timed-out pickup had
    // leaked its claim (the count would still be pinned above zero).
    cache.reserve(job.bundle_key(), 1);
    let live = sm_engine::campaign::run_job(&cache, job, &Budget::with_threads(Some(1)));
    assert!(!live.metrics.is_timed_out());
    assert_eq!(cache.stats().builds, 1);
    assert_eq!(
        cache.stats().released,
        1,
        "reservation table must be clean after the timed-out pickup"
    );
}

/// A campaign reserves each job with its split layer: the layer's split
/// views drop as soon as the last job at that layer finished, while the
/// bundle stays for the jobs at other layers.
#[test]
fn split_views_drop_with_the_last_job_at_their_layer() {
    let spec = SweepSpec {
        seeds: vec![1],
        split_layers: vec![3, 4],
        attacks: vec![AttackKind::Crouting],
        ..tiny_spec()
    };
    let jobs = spec.jobs().unwrap();
    let cache = ArtifactCache::new();
    for job in &jobs {
        cache.reserve_job(job);
    }
    let budget = Budget::with_threads(Some(1));
    let split_builds = || cache.stage_stats().builds_of(Stage::Split);
    sm_engine::campaign::run_job(&cache, &jobs[0], &budget);
    assert_eq!(split_builds(), 2, "layer 3 split, both arms");
    assert_eq!(
        cache.resident(),
        1,
        "the layer-4 job still needs the bundle"
    );
    // Layer 3's views are gone: asking for one again builds it afresh.
    let empty = || SplitLayout {
        feol: FeolView {
            split_layer: 3,
            visible_nets: Vec::new(),
            vpins: Vec::new(),
        },
        cut_nets: 0,
    };
    cache.split(&jobs[0].bundle_key(), SplitArm::Protected, 3, empty);
    assert_eq!(split_builds(), 3);
    sm_engine::campaign::run_job(&cache, &jobs[1], &budget);
    assert_eq!(cache.resident(), 0, "the last job releases the bundle");
    assert_eq!(cache.stats().released, 1);
}

/// Flow assignments live as long as their layer's split views: under a
/// pinned layout a layer's connection guesses serve every seed's job at
/// that layer, and drop once the last of those jobs finished.
#[test]
fn flow_assignments_drop_with_the_last_job_at_their_layer() {
    let spec = SweepSpec {
        seeds: vec![1, 2],
        split_layers: vec![3, 4],
        attacks: vec![AttackKind::NetworkFlow],
        layout_seed: Some(7),
        ..tiny_spec()
    };
    // Row-major: [seed 1 M3, seed 1 M4, seed 2 M3, seed 2 M4].
    let jobs = spec.jobs().unwrap();
    let cache = ArtifactCache::new();
    for job in &jobs {
        cache.reserve_job(job);
    }
    let budget = Budget::with_threads(Some(1));
    let key = jobs[0].bundle_key();
    let held = |layer| {
        [SplitArm::Protected, SplitArm::Original].map(|arm| {
            let cell = cache.flow_assignment(&key, arm, layer);
            cell.get_or_solve_timed(|| None).0.is_some()
        })
    };
    let solved = |outcome: &JobOutcome| outcome.phases.iter().any(|&(n, _)| n == "attack-mcmf");

    let first = run_job(&cache, &jobs[0], &budget);
    assert!(solved(&first), "the first job at M3 solves");
    assert_eq!(held(3), [true; 2], "seed 2's M3 job still needs them");
    let second = run_job(&cache, &jobs[2], &budget);
    assert!(!solved(&second), "seed 2 reuses the M3 guesses");
    assert_eq!(held(3), [false; 2], "the layer's last job drops them");
    assert_eq!(cache.resident(), 1, "the M4 jobs still need the bundle");
    run_job(&cache, &jobs[1], &budget);
    assert_eq!(held(4), [true; 2]);
    run_job(&cache, &jobs[3], &budget);
    assert_eq!(held(4), [false; 2]);
    assert_eq!(cache.resident(), 0, "the last job releases the bundle");
}

#[test]
fn budget_expiry_mid_placement_times_out_with_standard_accounting() {
    // A deadline that fires *during* the bundle build — after pickup,
    // before the attack. Wall-clock deadlines land here in practice but
    // would make a test racy, so this uses a fuse token that trips
    // deterministically at the n-th cooperative checkpoint: the pickup
    // check passes, and the placer's next between-levels check inside
    // the bundle build observes the expiry. The build must unwind
    // cleanly into the existing timed-out accounting — placeholder
    // metrics, no persisted outcome, reservation released, job
    // re-runnable — not into a `Failed` bug report.
    let spec = tiny_spec();
    let job = &spec.jobs().unwrap()[0];
    let cache = ArtifactCache::new();
    cache.reserve(job.bundle_key(), 1);
    // Observation 1 is `run_job`'s pickup check; 2.. are placement
    // checkpoints (bisection levels / FM passes), so the fuse expires
    // mid-placement.
    let budget = Budget::with_threads(Some(1)).with_cancel(CancelToken::trip_after(3));
    let outcome = sm_engine::campaign::run_job(&cache, job, &budget);
    assert!(
        outcome.metrics.is_timed_out(),
        "mid-build expiry must be a timeout, got {:?}",
        outcome.metrics
    );
    assert_eq!(cache.stats().builds, 0, "the aborted build must not count");
    // Standard placeholder accounting: the job is re-runnable, exactly
    // like a pickup-time expiry — a fresh budget completes it.
    cache.reserve(job.bundle_key(), 1);
    let live = sm_engine::campaign::run_job(&cache, job, &Budget::with_threads(Some(1)));
    assert!(!live.metrics.is_timed_out());
    assert_eq!(cache.stats().builds, 1);
    assert_eq!(
        cache.stats().released,
        2,
        "both runs must release their bundle reservation"
    );
}

#[test]
fn cancelled_flow_jobs_resume_to_byte_identical_reports() {
    // Flow jobs observe a cancelled token at the earliest boundary —
    // job pickup here; the in-attack phase boundaries (candidate
    // scoring, MCMF scaling phases, OER/HD evaluation) are pinned by
    // the sm-attacks unit tests. Whichever boundary fires, the job
    // records a clean placeholder and a resume completes the campaign
    // to bytes identical to an uninterrupted run — measurements are
    // never cut in half.
    let spec = SweepSpec {
        attacks: vec![AttackKind::NetworkFlow],
        ..tiny_spec()
    };
    let cancel = CancelToken::new();
    let budget = Budget::with_threads(Some(1)).with_cancel(cancel.clone());
    cancel.cancel();
    let campaign = run_sweep_budgeted(&spec, &budget, &ArtifactCache::new(), None).unwrap();
    assert_eq!(campaign.timed_out(), campaign.outcomes.len());
    // Every placeholder is resumable: a fresh budget completes the
    // campaign to the same bytes as an uninterrupted run.
    let budget = Budget::with_threads(Some(2));
    let full = run_sweep_budgeted(&spec, &budget, &ArtifactCache::new(), None).unwrap();
    let run = CampaignRun::resume(campaign).unwrap();
    let resumed = run.run(&budget, &ArtifactCache::new());
    assert_eq!(canonical(&resumed), canonical(&full));
}

#[test]
fn cancelled_sweep_resumes_to_byte_identical_report() {
    let spec = tiny_spec();
    // The reference: an uninterrupted run.
    let full = run_sweep_budgeted(
        &spec,
        &Budget::with_threads(Some(2)),
        &ArtifactCache::new(),
        None,
    )
    .unwrap();

    // A run whose token was cancelled before the pool picked anything
    // up: every job must come back as a clean timed-out placeholder.
    let cancel = CancelToken::new();
    let budget = Budget::with_threads(Some(2)).with_cancel(cancel.clone());
    cancel.cancel();
    let mut interrupted = run_sweep_budgeted(&spec, &budget, &ArtifactCache::new(), None).unwrap();
    assert_eq!(interrupted.timed_out(), interrupted.outcomes.len());
    // Make it a *mixed* report — the realistic mid-sweep shape — by
    // grafting in half of the finished outcomes (cancellation lands
    // between jobs, so partial reports are exactly this: finished jobs
    // keep their bytes, the rest are placeholders).
    for (i, done) in full.outcomes.iter().enumerate() {
        if i % 2 == 0 {
            interrupted.outcomes[i] = done.clone();
        }
    }
    assert!(interrupted.timed_out() > 0);
    assert!(interrupted.timed_out() < interrupted.outcomes.len());

    // Round-trip the damaged report through its canonical JSON, exactly
    // as `smctl resume` would.
    let parsed = Campaign::from_json(&Json::parse(&canonical(&interrupted)).unwrap()).unwrap();
    assert_eq!(parsed.timed_out(), interrupted.timed_out());

    // Timed-out jobs are the resume set; re-run and merge.
    let timed_out = parsed.timed_out();
    let run = CampaignRun::resume(parsed).unwrap();
    assert_eq!(run.selected().len(), timed_out);
    let budget = Budget::with_threads(Some(2));
    let resumed = run.run(&budget, &ArtifactCache::new());
    assert_eq!(resumed.timed_out(), 0);
    assert_eq!(canonical(&resumed), canonical(&full));
    assert_eq!(
        resumed.to_csv(ReportOptions::default()),
        full.to_csv(ReportOptions::default())
    );
}

#[test]
fn finished_outcomes_survive_merges_with_timed_out_duplicates() {
    let spec = tiny_spec();
    let expansion = spec.jobs().unwrap();
    let full = run_sweep_budgeted(
        &spec,
        &Budget::with_threads(Some(2)),
        &ArtifactCache::new(),
        None,
    )
    .unwrap();
    // A shard that timed out entirely.
    let timed_out = run_sweep_budgeted(
        &spec,
        &Budget::with_threads(Some(2)).with_deadline_in(Duration::ZERO),
        &ArtifactCache::new(),
        None,
    )
    .unwrap();
    // Merging the dead shard *over* the finished run must not lose a
    // single measurement — in either merge order.
    let merged = merge_outcomes(
        &expansion,
        full.outcomes.clone(),
        timed_out.outcomes.clone(),
    );
    assert!(merged.iter().all(|o| !o.metrics.is_timed_out()));
    let merged = merge_outcomes(
        &expansion,
        timed_out.outcomes.clone(),
        full.outcomes.clone(),
    );
    assert!(merged.iter().all(|o| !o.metrics.is_timed_out()));
}

#[test]
fn merge_reports_reassembles_sharded_sweeps() {
    let spec = tiny_spec();
    let full = run_sweep_budgeted(
        &spec,
        &Budget::with_threads(Some(2)),
        &ArtifactCache::new(),
        None,
    )
    .unwrap();
    let total = spec.jobs().unwrap().len();
    // Contiguous halves, as `smctl sweep --shard K/2` cuts them.
    let run_shard = |k: usize| {
        let shard = CampaignRun::new(&spec).unwrap().shard(k, 2).unwrap();
        let half = if k == 1 {
            0..total.div_ceil(2)
        } else {
            total.div_ceil(2)..total
        };
        assert_eq!(shard.selected(), half.collect::<Vec<_>>());
        let campaign = shard.run(&Budget::with_threads(Some(2)), &ArtifactCache::new());
        // Shards round-trip through their stored form before merging.
        Campaign::from_json(&Json::parse(&canonical(&campaign)).unwrap()).unwrap()
    };
    let merged = merge_reports(vec![run_shard(1), run_shard(2)]).unwrap();
    assert_eq!(canonical(&merged), canonical(&full));
    // More shards than jobs: the last ones are empty, and say so.
    let err = CampaignRun::new(&spec).unwrap().shard(5, 5).unwrap_err();
    assert!(err.contains("selects no jobs"), "{err}");

    // Mismatched specs are rejected, not silently dropped.
    let other = run_sweep_budgeted(
        &SweepSpec {
            seeds: vec![1],
            ..tiny_spec()
        },
        &Budget::with_threads(Some(1)),
        &ArtifactCache::new(),
        None,
    )
    .unwrap();
    let err = merge_reports(vec![run_shard(1), other]).unwrap_err();
    assert!(err.contains("different sweep spec"), "{err}");
    assert!(merge_reports(Vec::new()).is_err());
}
