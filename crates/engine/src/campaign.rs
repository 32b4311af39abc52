//! Campaigns: expand a sweep specification into jobs, run them on the
//! executor against the shared artifact cache, and assemble reports.
//!
//! Reports come in four shapes, all deterministic functions of the spec:
//! canonical JSON (the storable format — [`Campaign::from_json`] parses
//! it back, which powers `smctl resume`), per-job CSV, per-point
//! aggregate CSV (mean/σ/min/max over seeds), and a human-readable
//! aggregate table. Wall-clock timings and cache counters are
//! diagnostics, not results: they appear only under
//! [`ReportOptions::include_timings`], so canonical reports are
//! byte-identical across cold runs, warm-store runs, thread counts and
//! fleet shapes.
//!
//! Every campaign runs on the work-stealing [`Fleet`] (its worker loop
//! lives in [`fleet`]): [`CampaignRun::run`] derives
//! `min(threads, jobs)` workers, [`CampaignRun::run_fleet`] takes the
//! worker count of `smctl serve` and the worker count and injected
//! deaths of `sweep --workers N --kill W@K`. Campaigns run
//! inside a [`Budget`]: the fleet splits the campaign's thread
//! allotment among its workers (so nested parallel work — bundle
//! builds, bisection anchor sweeps — shares one pool), and the budget's
//! [`CancelToken`](sm_exec::CancelToken) is checked **between** jobs —
//! and, for network-flow attacks, additionally at the attack's own
//! deterministic phase boundaries, so a deadlined superblue-scale flow
//! job stops within one phase instead of overshooting by its whole
//! runtime. Once cancelled or past its deadline, affected jobs finish
//! as [`JobMetrics::TimedOut`] — a distinct, storable outcome that
//! `smctl resume` re-runs. Measurements are never cut in half: a job
//! either completes bit-identically or records no result at all, so a
//! cancelled-then-resumed sweep ends byte-identical to an uninterrupted
//! one.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_attacks::crouting::{crouting_attack, CroutingConfig};
use sm_attacks::proximity::{
    ccr_over_connections, ccr_vs_golden, network_flow_assignment, network_flow_eval,
};
use sm_core::flow::BaselineLayout;
use sm_exec::fault::{Fault, FaultSite};
use sm_exec::phase::Recorder;
use sm_exec::{Budget, PoolStats};
use sm_layout::split_layout;
use sm_netlist::{NetId, Netlist, Sink};

use crate::bundle::{IscasRun, SuperblueRun};
use crate::cache::{ArtifactCache, Busy, CacheStats, SplitArm, StageStats};
use crate::fleet::{self, Fleet, FleetStats, JobRange};
use crate::job::{AttackKind, Benchmark, Job};
use crate::journal::{Event, EventJob, MetricsSource, Provenance};
use crate::metrics::{csv_columns, JobMetrics};
use crate::report::{csv, Json, ReportOptions};
use crate::store::Stage;

/// A sweep specification: the cartesian product
/// benchmarks × seeds × split layers × attacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Benchmark names (ISCAS-85 or superblue).
    pub benchmarks: Vec<String>,
    /// User-facing seeds.
    pub seeds: Vec<u64>,
    /// Split layers (metal layer after which the FEOL ends).
    pub split_layers: Vec<u8>,
    /// Attacks to run per point.
    pub attacks: Vec<AttackKind>,
    /// Superblue down-scaling factor.
    pub scale: usize,
    /// Campaign master seed, folded into every derived seed.
    pub master_seed: u64,
    /// Pinned layout seed (`--layout-seed`): every job builds its
    /// bundle from this seed instead of its user seed, so the whole
    /// seed sweep shares one place+route per benchmark. `None` (the
    /// default) keeps per-user-seed bundles and reproduces historical
    /// reports byte-for-byte.
    pub layout_seed: Option<u64>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            benchmarks: vec!["c432".into(), "c880".into()],
            seeds: vec![1],
            split_layers: vec![3, 4, 5],
            attacks: vec![AttackKind::NetworkFlow],
            scale: 100,
            master_seed: 1,
            layout_seed: None,
        }
    }
}

impl SweepSpec {
    /// Expands the spec into the deterministic job list (row-major over
    /// benchmarks → seeds → split layers → attacks).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty axis, a repeated axis value, a split
    /// layer outside 1..=9, a zero scale or an unknown benchmark.
    pub fn jobs(&self) -> Result<Vec<Job>, String> {
        if self.benchmarks.is_empty() {
            return Err("sweep needs at least one benchmark".into());
        }
        if self.seeds.is_empty() {
            return Err("sweep needs at least one seed".into());
        }
        if self.split_layers.is_empty() {
            return Err("sweep needs at least one split layer".into());
        }
        if self.attacks.is_empty() {
            return Err("sweep needs at least one attack".into());
        }
        distinct("benchmark", &self.benchmarks)?;
        distinct("seed", &self.seeds)?;
        distinct("split layer", &self.split_layers)?;
        distinct("attack", self.attacks.iter().map(AttackKind::id))?;
        for &layer in &self.split_layers {
            if !(1..=9).contains(&layer) {
                return Err(format!("split layer {layer} out of range 1..=9"));
            }
        }
        if self.scale == 0 {
            return Err("scale must be ≥ 1".into());
        }
        let mut jobs = Vec::new();
        for name in &self.benchmarks {
            let benchmark = Benchmark::parse(name, self.scale)?;
            for &user_seed in &self.seeds {
                for &split_layer in &self.split_layers {
                    for &attack in &self.attacks {
                        jobs.push(Job {
                            index: jobs.len(),
                            benchmark: benchmark.clone(),
                            user_seed,
                            split_layer,
                            attack,
                            master_seed: self.master_seed,
                            layout_seed: self.layout_seed,
                        });
                    }
                }
            }
        }
        Ok(jobs)
    }
}

/// Rejects a repeated value on a sweep axis: its jobs would run twice
/// under one report row, and the report could never be complete.
fn distinct<T>(axis: &str, values: impl IntoIterator<Item = T>) -> Result<(), String>
where
    T: Copy + Eq + std::hash::Hash + std::fmt::Display,
{
    let mut seen = HashSet::new();
    match values.into_iter().find(|&v| !seen.insert(v)) {
        Some(v) => Err(format!("sweep repeats {axis} `{v}`")),
        None => Ok(()),
    }
}

/// A cached layout bundle, uniform over the two benchmark classes.
#[derive(Debug, Clone)]
pub enum Bundle {
    /// ISCAS-85-class bundle.
    Iscas(Arc<IscasRun>),
    /// Superblue-class bundle.
    Superblue(Arc<SuperblueRun>),
}

impl Bundle {
    /// Fetches (or builds) the bundle for `job` from the cache; a miss
    /// builds inside `exec`, the job's thread budget, and records the
    /// build's placement phase spans into `rec` (cache hits record
    /// nothing).
    pub fn fetch(cache: &ArtifactCache, job: &Job, exec: &Budget, rec: &mut Recorder) -> Bundle {
        let seed = job.bundle_seed();
        match &job.benchmark {
            Benchmark::Iscas(p) => Bundle::Iscas(cache.iscas(p, seed, exec, rec)),
            Benchmark::Superblue(p, scale) => {
                Bundle::Superblue(cache.superblue(p, *scale, seed, exec, rec))
            }
        }
    }

    /// The true (golden) netlist.
    pub fn netlist(&self) -> &Netlist {
        match self {
            Bundle::Iscas(r) => &r.netlist,
            Bundle::Superblue(r) => &r.netlist,
        }
    }

    /// The unprotected baseline layout.
    pub fn original(&self) -> &BaselineLayout {
        match self {
            Bundle::Iscas(r) => &r.original,
            Bundle::Superblue(r) => &r.original,
        }
    }

    /// The protected design.
    pub fn protected(&self) -> &sm_core::flow::ProtectedDesign {
        match self {
            Bundle::Iscas(r) => &r.protected,
            Bundle::Superblue(r) => &r.protected,
        }
    }

    /// The randomized `(sink, true_net)` connections.
    pub fn swapped(&self) -> Vec<(Sink, NetId)> {
        self.protected().randomization.swapped_connections()
    }
}

/// One finished job: spec echo plus metrics plus timing.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job that ran.
    pub job: Job,
    /// Measured metrics.
    pub metrics: JobMetrics,
    /// Wall-clock time this job took (includes any bundle build/wait).
    /// Outcomes parsed from a report carry its `wall_ms` (zero when the
    /// report has no timings); outcomes replayed from a journal, zero.
    pub wall: Duration,
    /// Per-phase wall-clock spans in milliseconds, in execution order
    /// (`store`/`bundle`/`split`/`attack-*`/…). A job that builds a
    /// bundle stage additionally carries, right after `bundle`, one span
    /// per step of that build: `original-place`, `original-place-fm`,
    /// `original-route`, `original-ppa`; `protect-randomize`,
    /// `protect-place`, `protect-place-fm`, `protect-correction`,
    /// `protect-route-feol`, `protect-route-restored`, `protect-ppa`;
    /// and on superblue `lift-route`, `lift-ppa`. A `*-place-fm` span is
    /// the FM slice of its `*-place`; the others are disjoint slices of
    /// `bundle`. Diagnostics only — they
    /// surface under [`ReportOptions::include_timings`] and in journal
    /// provenance, never in canonical reports; empty for outcomes
    /// replayed from a stored report.
    pub phases: Vec<(&'static str, f64)>,
}

/// A finished campaign.
#[derive(Debug)]
pub struct Campaign {
    /// The sweep that ran.
    pub spec: SweepSpec,
    /// Outcomes in job order (scheduling-independent).
    pub outcomes: Vec<JobOutcome>,
    /// Bundle-cache counters.
    pub cache: CacheStats,
    /// Per-pipeline-stage build/decode counters (all-zero for campaigns
    /// parsed from a report).
    pub stages: StageStats,
    /// Worker threads used (0 for campaigns parsed from a report).
    pub threads: usize,
    /// End-to-end campaign wall clock.
    pub total_wall: Duration,
    /// Pool occupancy counters sampled when the campaign finished
    /// (all-zero for campaigns parsed from a report).
    pub pool: PoolStats,
}

/// Runs one job against the cache (consulting the disk store for a
/// finished outcome first, when one is attached), then releases the
/// job's claim on its bundle.
///
/// The job runs inside `exec`: bundle builds fan out on that budget's
/// pool, and a budget that is already cancelled (or past its deadline)
/// when the job is picked up yields [`JobMetrics::TimedOut`] instead of
/// running — the cancellation point that makes long sweeps
/// interruptible without ever cutting a measurement in half.
///
/// A token that fires *during* the bundle build is honored too:
/// placement and routing observe it at result-neutral checkpoints
/// (between FM passes, between bisection levels, between routed nets)
/// and unwind with [`sm_exec::Cancelled`], which the job isolation
/// below maps to the same timed-out outcome. Completed measurements
/// are never cut in half either way.
pub fn run_job(cache: &ArtifactCache, job: &Job, exec: &Budget) -> JobOutcome {
    let start = Instant::now();
    if let Some(journal) = cache.journal() {
        journal.record(&Event::JobStarted {
            job: EventJob::of(job),
            store_keys: vec![job.bundle_key().id(), job.outcome_key()],
        });
    }
    let mut phases: Vec<(&'static str, f64)> = Vec::new();
    // The store lookup (a ~ms pure read) runs even past the deadline: a
    // job whose finished outcome is already persisted "completes" for
    // free, so a timed-out sweep over a warm store never reports work
    // it did not actually have to do.
    let lookup = Instant::now();
    let stored = cache.store().and_then(|s| s.load_outcome(job));
    let mut source = MetricsSource::Computed;
    // Which phase a timed-out job expired in ("pickup" when the budget
    // had expired before it started; "bundle" when a build checkpoint
    // unwound mid-placement/route; "attack" otherwise).
    let mut timeout_phase = "attack";
    let metrics = match stored {
        Some(metrics) => {
            phases.push(("store", ms_since(lookup)));
            source = MetricsSource::Store;
            metrics
        }
        None if exec.is_cancelled() => {
            timeout_phase = "pickup";
            JobMetrics::TimedOut
        }
        None => {
            // Panic isolation: the compute region runs under
            // `catch_unwind`, so a panicking job — an attack bug, or an
            // injected `job-run` fault — becomes a `Failed` placeholder
            // instead of poisoning the pool and tearing down the sweep.
            // The cell tracks which phase the panic landed in.
            let panic_phase = std::cell::Cell::new("bundle");
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let fetch = Instant::now();
                let mut brec = Recorder::new();
                let bundle = Bundle::fetch(cache, job, exec, &mut brec);
                phases.push(("bundle", ms_since(fetch)));
                phases.extend(brec.into_spans());
                panic_phase.set("attack");
                if let Some(Fault::Panic(msg)) = cache
                    .faults()
                    .and_then(|f| f.inject(FaultSite::JobRun, &job.outcome_key(), 0))
                {
                    panic!("{msg}");
                }
                match job.attack {
                    // Flow attacks additionally honor the budget *inside*
                    // the job, at the attack's deterministic phase
                    // boundaries: a deadlined superblue-scale job stops
                    // within one scaling phase and comes back timed-out
                    // instead of overshooting by its whole runtime.
                    AttackKind::NetworkFlow => flow_metrics(cache, &bundle, job, exec, &mut phases)
                        .unwrap_or(JobMetrics::TimedOut),
                    AttackKind::Crouting => crouting_metrics(cache, &bundle, job, &mut phases),
                }
            }));
            let metrics = match attempt {
                Ok(metrics) => metrics,
                // A cancellation unwind (a bundle-build checkpoint that
                // observed the expired token — see
                // `sm_exec::abort_cancelled`) is the budget working as
                // designed, not a bug: the job is timed-out, identical
                // to an in-attack expiry, and re-run by `resume`.
                Err(payload) if payload.is::<sm_exec::Cancelled>() => {
                    timeout_phase = panic_phase.get();
                    JobMetrics::TimedOut
                }
                Err(payload) => JobMetrics::Failed {
                    phase: panic_phase.get().to_string(),
                    message: panic_message(payload),
                },
            };
            if let Some(store) = cache.store() {
                store.save_outcome(job, &metrics);
            }
            metrics
        }
    };
    // Every path releases the job's reservation, registered before the
    // campaign started, so it never leaks.
    cache.release_job(job);
    let wall = start.elapsed();
    if let Some(journal) = cache.journal() {
        if metrics.is_timed_out() {
            journal.record(&Event::JobTimedOut {
                job: EventJob::of(job),
                phase: timeout_phase.to_string(),
            });
        } else if let JobMetrics::Failed { phase, message } = &metrics {
            journal.record(&Event::JobFailed {
                job: EventJob::of(job),
                phase: phase.clone(),
                message: message.clone(),
            });
        } else {
            journal.record(&Event::JobFinished {
                job: EventJob::of(job),
                metrics: metrics.clone(),
                provenance: Provenance {
                    source,
                    bundle_key: job.bundle_key().id(),
                    derived_seed: job.derived_seed(),
                    threads: exec.threads() as u64,
                    wall_ms: wall_ms(wall),
                    phases: phases.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
                },
            });
        }
    }
    JobOutcome {
        job: job.clone(),
        metrics,
        wall,
        phases,
    }
}

/// Milliseconds elapsed since `start`.
fn ms_since(start: Instant) -> f64 {
    ms(start.elapsed())
}

/// `d` in milliseconds.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renames a span of the original arm's [`network_flow_assignment`], so
/// a job's provenance tells its solve apart from the protected arm's:
/// `attack-mcmf` and its siblings always mean the protected solve.
fn original_arm_span((name, ms): (&'static str, f64)) -> (&'static str, f64) {
    let name = match name {
        "attack-candidates" => "attack-original-candidates",
        "attack-mcmf" => "attack-original-mcmf",
        "attack-assign" => "attack-original-assign",
        other => other,
    };
    (name, ms)
}

/// Best-effort panic payload → message: the common `&str`/`String`
/// payloads verbatim, a generic label otherwise.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// Measures one flow job, honoring the budget's token at the attack's
/// phase boundaries: `None` means the deadline fired mid-job and the job
/// must be recorded timed-out (a completed measurement is bit-identical
/// whether or not a deadline was armed). The attack's candidate scoring
/// fans out on `exec`, so in-job parallelism still respects the
/// process-wide thread ceiling.
///
/// Each arm's connection guess comes from the cache's
/// [`ArtifactCache::flow_assignment`] cell, so jobs that share a bundle
/// and layer (a pinned-layout seed sweep) solve it once; only the
/// OER/HD evaluation, seeded by the job, runs per job. The job that
/// solves the protected arm records its `attack-candidates`/`-mcmf`/
/// `-assign` spans; the job that solves the original arm records them
/// as `attack-original-candidates`/`-mcmf`/`-assign`, inside its
/// `attack-original` span. Time blocked on a sibling job's solve of
/// either cell is recorded once per job as `memo-wait`, and counts in
/// no other span.
fn flow_metrics(
    cache: &ArtifactCache,
    bundle: &Bundle,
    job: &Job,
    exec: &Budget,
    phases: &mut Vec<(&'static str, f64)>,
) -> Option<JobMetrics> {
    // The memo key covers every input of the solve: the bundle, arm and
    // layer.
    let split_layer = job.split_layer;
    let key = job.bundle_key();
    let netlist = bundle.netlist();
    let protected = bundle.protected();
    let erroneous = &protected.randomization.erroneous;

    let t = Instant::now();
    let split_prot = cache.split(&key, SplitArm::Protected, split_layer, || {
        split_layout(
            erroneous,
            &protected.placement,
            &protected.feol_routing,
            split_layer,
        )
    });
    phases.push(("split", ms_since(t)));
    let solve_protected = |phases: &mut Vec<(&'static str, f64)>| {
        let mut rec = Recorder::new();
        let out = network_flow_assignment(erroneous, &split_prot, exec, &mut rec);
        phases.extend(rec.into_spans());
        out
    };

    let original = bundle.original();
    let mut memo_wait = Duration::ZERO;
    let mut original_ccr = |phases: &mut Vec<(&'static str, f64)>| {
        let t = Instant::now();
        let split_orig = cache.split(&key, SplitArm::Original, split_layer, || {
            split_layout(netlist, &original.placement, &original.routing, split_layer)
        });
        phases.push(("split-original", ms_since(t)));
        // The original layout contributes only its CCR, so its arm stops
        // at the connection guess: no OER/HD simulation.
        let t = Instant::now();
        let orig_cell = cache.flow_assignment(&key, SplitArm::Original, split_layer);
        let (orig, blocked) = orig_cell.get_or_solve_timed(|| {
            let mut rec = Recorder::new();
            let out = network_flow_assignment(netlist, &split_orig, exec, &mut rec);
            phases.extend(rec.into_spans().into_iter().map(original_arm_span));
            out
        });
        memo_wait += blocked;
        let ccr = ccr_vs_golden(netlist, &split_orig, &orig?.pairs);
        phases.push(("attack-original", ms_since(t) - ms(blocked)));
        Some(ccr)
    };

    // A sibling job solving the protected arm holds its cell: solve the
    // original arm meanwhile instead of waiting. No cell's lock is held
    // while waiting on another's.
    let prot_cell = cache.flow_assignment(&key, SplitArm::Protected, split_layer);
    let (prot, ccr_original) = match prot_cell.try_get_or_solve(|| solve_protected(phases)) {
        Ok(prot) => (prot?, original_ccr(phases)?),
        Err(Busy) => {
            let ccr = original_ccr(phases)?;
            let (prot, blocked) = prot_cell.get_or_solve_timed(|| solve_protected(phases));
            memo_wait += blocked;
            (prot?, ccr)
        }
    };
    if !memo_wait.is_zero() {
        phases.push(("memo-wait", ms(memo_wait)));
    }

    // Last phase boundary before the OER/HD simulation (on superblue it
    // is a multi-second stage of its own).
    if exec.cancel_token().is_cancelled() {
        return None;
    }
    // Tie the attack's evaluation RNG to the job, so seed sweeps explore
    // attack variance instead of replaying one stream per netlist.
    let eval_seed = Some(job.derived_seed());
    let mut rec = Recorder::new();
    let (_, metrics) = network_flow_eval(netlist, &split_prot, &prot, eval_seed, &mut rec);
    phases.extend(rec.into_spans());
    let ccr_protected = ccr_over_connections(&split_prot, &prot.pairs, &bundle.swapped());

    Some(JobMetrics::Flow {
        ccr_protected_pct: ccr_protected * 100.0,
        oer_pct: metrics.oer * 100.0,
        hd_pct: metrics.hd * 100.0,
        ccr_original_pct: ccr_original * 100.0,
    })
}

fn crouting_metrics(
    cache: &ArtifactCache,
    bundle: &Bundle,
    job: &Job,
    phases: &mut Vec<(&'static str, f64)>,
) -> JobMetrics {
    let cfg = CroutingConfig::default();
    let split_layer = job.split_layer;
    let key = job.bundle_key();
    let netlist = bundle.netlist();
    let protected = bundle.protected();

    let t = Instant::now();
    let split_prot = cache.split(&key, SplitArm::Protected, split_layer, || {
        split_layout(
            &protected.randomization.erroneous,
            &protected.placement,
            &protected.feol_routing,
            split_layer,
        )
    });
    phases.push(("split", ms_since(t)));
    // Candidate lists are structural, so the erroneous netlist is the
    // right golden reference for the protected FEOL (cf. Table 3).
    let t = Instant::now();
    let rep_prot = crouting_attack(&protected.randomization.erroneous, &split_prot, &cfg);
    phases.push(("attack", ms_since(t)));

    let original = bundle.original();
    let t = Instant::now();
    let split_orig = cache.split(&key, SplitArm::Original, split_layer, || {
        split_layout(netlist, &original.placement, &original.routing, split_layer)
    });
    phases.push(("split-original", ms_since(t)));
    let t = Instant::now();
    let rep_orig = crouting_attack(netlist, &split_orig, &cfg);
    phases.push(("attack-original", ms_since(t)));

    let boxes = rep_prot
        .boxes
        .iter()
        .zip(&rep_orig.boxes)
        .map(|(p, o)| {
            (
                p.bbox_tracks,
                p.expected_list_size,
                p.match_in_list,
                o.expected_list_size,
                o.match_in_list,
            )
        })
        .collect();
    JobMetrics::Crouting {
        vpins_protected: rep_prot.num_vpins,
        vpins_original: rep_orig.num_vpins,
        boxes,
    }
}

/// Runs a sweep inside `budget` — the campaign's full resource
/// allotment, as parsed from `--threads`/`--timeout-secs` — optionally
/// restricted to the job indices in `filter` (`--jobs`), through
/// [`CampaignRun::run`].
///
/// # Errors
///
/// Returns an error for an invalid spec or an out-of-range job filter.
pub fn run_sweep_budgeted(
    spec: &SweepSpec,
    budget: &Budget,
    cache: &ArtifactCache,
    filter: Option<&[usize]>,
) -> Result<Campaign, String> {
    let mut run = CampaignRun::new(spec)?;
    if let Some(indices) = filter {
        run = run.jobs(indices)?;
    }
    Ok(run.run(budget, cache))
}

// ----- the campaign driver -------------------------------------------------

/// One campaign: a spec, the canonical job indices selected to run, and
/// the outcomes of an earlier run that merge under the fresh ones.
///
/// [`CampaignRun::run_fleet`] is the only code that journals a
/// campaign's start and finish, reserves bundles, runs jobs, measures
/// the campaign wall clock and samples its counters — sweeps (with or
/// without `--workers N --kill W@K`), `--jobs`/`--shard` selections,
/// resumes and the live service all go through it, on the one
/// [`Fleet`].
#[derive(Debug, Clone)]
pub struct CampaignRun {
    spec: SweepSpec,
    expansion: Vec<Job>,
    selected: Vec<usize>,
    prior: Vec<JobOutcome>,
}

impl CampaignRun {
    /// Every job of `spec`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid spec.
    pub fn new(spec: &SweepSpec) -> Result<CampaignRun, String> {
        let expansion = spec.jobs()?;
        Ok(CampaignRun {
            spec: spec.clone(),
            selected: (0..expansion.len()).collect(),
            expansion,
            prior: Vec::new(),
        })
    }

    /// Only the jobs at `indices` (`--jobs`), sorted and deduplicated.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range index or an empty selection.
    pub fn jobs(mut self, indices: &[usize]) -> Result<CampaignRun, String> {
        let total = self.expansion.len();
        if let Some(i) = indices.iter().find(|&&i| i >= total) {
            return Err(format!(
                "--jobs index {i} out of range (campaign has {total} jobs)"
            ));
        }
        self.selected = indices.to_vec();
        self.selected.sort_unstable();
        self.selected.dedup();
        if self.selected.is_empty() {
            return Err("--jobs selected no jobs".into());
        }
        Ok(self)
    }

    /// Shard `k` of `n` (1-based, `--shard K/N`): the `k`-th of the `n`
    /// balanced contiguous ranges of the expansion (`JobRange::balanced`,
    /// the ranges a fleet of `n` workers starts on). A bundle's jobs are
    /// adjacent in the expansion, so a shard builds only its own bundles
    /// (plus at most the one it shares with each neighbour).
    ///
    /// # Errors
    ///
    /// Returns an error when the shard selects no jobs.
    pub fn shard(mut self, k: usize, n: usize) -> Result<CampaignRun, String> {
        let total = self.expansion.len();
        let range = k
            .checked_sub(1)
            .and_then(|i| JobRange::balanced(total, n.max(1)).nth(i));
        self.selected = range.map_or_else(Vec::new, |r| (r.lo..r.hi).collect());
        if self.selected.is_empty() {
            return Err(format!(
                "shard {k}/{n} selects no jobs (campaign has {total})"
            ));
        }
        Ok(self)
    }

    /// Resumes `prior` (`smctl resume`): only the jobs without a
    /// finished outcome in it run — absent ones, and the timed-out and
    /// failed placeholders — and `prior`'s outcomes merge under the
    /// fresh ones.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid spec.
    pub fn resume(prior: Campaign) -> Result<CampaignRun, String> {
        let mut run = CampaignRun::new(&prior.spec)?;
        let done: HashSet<_> = prior
            .outcomes
            .iter()
            .filter(|o| !o.metrics.is_placeholder())
            .map(|o| job_key(&o.job))
            .collect();
        run.selected
            .retain(|&i| !done.contains(&job_key(&run.expansion[i])));
        run.prior = prior.outcomes;
        Ok(run)
    }

    /// Canonical indices of the jobs this run executes.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Runs the selected jobs inside `budget` on a fleet of
    /// `min(budget threads, selected jobs)` workers, at least one, each
    /// on an equal [`Budget::split`] share (`smctl sweep`, `resume`,
    /// `chaos`). Jobs picked up after the budget's token is cancelled or
    /// its deadline passed come back as [`JobMetrics::TimedOut`].
    pub fn run(self, budget: &Budget, cache: &ArtifactCache) -> Campaign {
        let workers = budget.threads().min(self.selected.len()).max(1);
        let (campaign, _) = self
            .run_fleet(workers, &[], budget, cache)
            .expect("a fleet of one or more immortal workers is valid");
        campaign
    }

    /// Runs the selected jobs on a fleet of `workers` workers sharing
    /// `budget`, with the injected `(worker, after_jobs)` `deaths`
    /// (`smctl serve --workers N`, `sweep --workers N --kill W@K`). The
    /// fleet's steal tie-breaks are seeded from the spec's master seed.
    /// Returns the merged campaign and the fleet's counters.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid fleet (see [`Fleet::new`]), before
    /// anything is journaled.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that escapes [`run_job`]'s isolation on any
    /// worker, once the other workers have drained the fleet.
    pub fn run_fleet(
        self,
        workers: usize,
        deaths: &[(usize, usize)],
        budget: &Budget,
        cache: &ArtifactCache,
    ) -> Result<(Campaign, FleetStats), String> {
        let jobs: Vec<Job> = self
            .selected
            .iter()
            .map(|&i| self.expansion[i].clone())
            .collect();
        // The fleet schedules positions in `jobs`, not canonical indices.
        let fleet = Fleet::new(workers, jobs.len(), self.spec.master_seed, deaths)?;
        let start = Instant::now();
        if let Some(journal) = cache.journal() {
            journal.record(&Event::CampaignStarted {
                spec: self.spec.clone(),
                threads: budget.threads() as u64,
            });
        }
        // Reserving every selected job up front keeps each bundle in
        // memory from its first job to its last, whatever order the
        // fleet runs them in: one build or decode per bundle.
        for job in &jobs {
            cache.reserve_job(job);
        }
        let (fresh, stats) = fleet::run(fleet, budget, |position, share| {
            run_job(cache, &jobs[position], share)
        });
        let campaign = Campaign {
            outcomes: merge_outcomes(&self.expansion, self.prior, fresh),
            spec: self.spec,
            cache: cache.stats(),
            stages: cache.stage_stats(),
            threads: budget.threads(),
            total_wall: start.elapsed(),
            pool: budget.pool().stats(),
        };
        if let Some(journal) = cache.journal() {
            journal.record(&Event::campaign_finished(&campaign));
        }
        Ok((campaign, stats))
    }
}

// ----- aggregation --------------------------------------------------------

/// Mean/σ/min/max summary of one metric over the seeds of a sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStats {
    /// Samples aggregated (the number of seeds with an outcome).
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl MetricStats {
    fn over(values: &[f64]) -> MetricStats {
        let n = values.len().max(1) as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        MetricStats {
            n: values.len() as u64,
            mean,
            std_dev: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Aggregated metrics of one sweep point (benchmark × split layer ×
/// attack), over every seed that produced an outcome.
#[derive(Debug, Clone)]
pub struct AggregateRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Split layer.
    pub split_layer: u8,
    /// Attack.
    pub attack: AttackKind,
    /// `(metric name, stats)` in a fixed per-attack order.
    pub metrics: Vec<(&'static str, MetricStats)>,
}

/// A sweep point's identity during aggregation.
type PointKey = (String, u8, AttackKind);

impl Campaign {
    /// Aggregates outcomes over seeds: one row per benchmark × split
    /// layer × attack, in first-appearance (job) order.
    pub fn aggregates(&self) -> Vec<AggregateRow> {
        let mut order: Vec<PointKey> = Vec::new();
        let mut samples: HashMap<PointKey, Vec<Vec<(&'static str, f64)>>> = HashMap::new();
        for o in &self.outcomes {
            let metrics = o.metrics.aggregate_values();
            if metrics.is_empty() {
                continue; // timed-out/failed: no measurement to aggregate
            }
            let key = (
                o.job.benchmark.name().to_string(),
                o.job.split_layer,
                o.job.attack,
            );
            let entry = samples.entry(key.clone()).or_default();
            if entry.is_empty() {
                order.push(key);
            }
            entry.push(metrics);
        }
        order
            .into_iter()
            .map(|key| {
                let rows = &samples[&key];
                let names: Vec<&'static str> = rows[0].iter().map(|&(n, _)| n).collect();
                let metrics = names
                    .into_iter()
                    .enumerate()
                    .map(|(i, name)| {
                        let values: Vec<f64> = rows
                            .iter()
                            .filter_map(|r| r.get(i).map(|&(_, v)| v))
                            .collect();
                        (name, MetricStats::over(&values))
                    })
                    .collect();
                AggregateRow {
                    benchmark: key.0,
                    split_layer: key.1,
                    attack: key.2,
                    metrics,
                }
            })
            .collect()
    }
}

// ----- reports --------------------------------------------------------

/// Canonical report version, written as the report's top-level
/// `version` field; a report without the field is version 1.
/// [`Campaign::from_json`] reads only this version, so `merge`,
/// `resume` and `report` never mix metrics of two versions. Bump it
/// with any change that moves the bytes of an existing spec's report.
/// v2: the flow attack's min-cost flow always runs Dinic + cost
/// scaling, which picks a different optimum among exact cost ties than
/// the successive-shortest-path engine behind v1 reports.
pub const REPORT_VERSION: u64 = 2;

fn f4(v: f64) -> String {
    format!("{v:.4}")
}

impl Campaign {
    /// The canonical JSON report. Timings and cache counters are
    /// diagnostics: they appear only with
    /// [`ReportOptions::include_timings`], keeping the canonical form a
    /// pure function of the spec.
    pub fn to_json(&self, opts: ReportOptions) -> Json {
        let spec = &self.spec;
        let mut top = vec![
            ("campaign".to_string(), Json::str("sweep")),
            ("version".to_string(), Json::UInt(REPORT_VERSION)),
            ("master_seed".to_string(), Json::UInt(spec.master_seed)),
        ];
        // Emitted only when pinned, so unpinned reports stay
        // byte-identical to every report written before the field
        // existed.
        if let Some(layout_seed) = spec.layout_seed {
            top.push(("layout_seed".to_string(), Json::UInt(layout_seed)));
        }
        top.extend([
            ("scale".to_string(), Json::UInt(spec.scale as u64)),
            (
                "benchmarks".to_string(),
                Json::Arr(spec.benchmarks.iter().map(Json::str).collect()),
            ),
            (
                "seeds".to_string(),
                Json::Arr(spec.seeds.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            (
                "split_layers".to_string(),
                Json::Arr(
                    spec.split_layers
                        .iter()
                        .map(|&l| Json::UInt(l as u64))
                        .collect(),
                ),
            ),
            (
                "attacks".to_string(),
                Json::Arr(spec.attacks.iter().map(|a| Json::str(a.id())).collect()),
            ),
            (
                "jobs".to_string(),
                Json::Arr(
                    self.outcomes
                        .iter()
                        .map(|o| outcome_json(o, opts))
                        .collect(),
                ),
            ),
            (
                "aggregates".to_string(),
                Json::Arr(self.aggregates().iter().map(aggregate_json).collect()),
            ),
        ]);
        if opts.include_timings {
            top.push((
                "cache".to_string(),
                Json::obj([
                    ("hits", Json::UInt(self.cache.hits)),
                    ("disk_hits", Json::UInt(self.cache.disk_hits)),
                    ("builds", Json::UInt(self.cache.builds)),
                    ("released", Json::UInt(self.cache.released)),
                ]),
            ));
            top.push(("threads".to_string(), Json::UInt(self.threads as u64)));
            top.push((
                "pool".to_string(),
                Json::obj([
                    ("live", Json::UInt(self.pool.live as u64)),
                    ("peak_live", Json::UInt(self.pool.peak_live as u64)),
                ]),
            ));
            top.push((
                "total_wall_ms".to_string(),
                Json::Num(wall_ms(self.total_wall)),
            ));
        }
        Json::Obj(top)
    }

    /// The CSV report: one row per flow job, one row per crouting box.
    pub fn to_csv(&self, opts: ReportOptions) -> String {
        let mut header = vec!["benchmark", "seed", "split_layer", "attack", "derived_seed"];
        header.extend(csv_columns());
        if opts.include_timings {
            header.push("wall_ms");
        }
        let mut rows = Vec::new();
        for o in &self.outcomes {
            for cells in o.metrics.csv_rows() {
                let mut row = vec![
                    o.job.benchmark.name().to_string(),
                    o.job.user_seed.to_string(),
                    o.job.split_layer.to_string(),
                    o.job.attack.id().to_string(),
                    o.job.derived_seed().to_string(),
                ];
                row.extend(cells);
                if opts.include_timings {
                    row.push(format!("{:.3}", o.wall.as_secs_f64() * 1e3));
                }
                rows.push(row);
            }
        }
        csv(&header, &rows)
    }

    /// The aggregate CSV: one row per sweep point × metric.
    pub fn aggregates_to_csv(&self) -> String {
        let header = [
            "benchmark",
            "split_layer",
            "attack",
            "metric",
            "n",
            "mean",
            "std_dev",
            "min",
            "max",
        ];
        let mut rows = Vec::new();
        for agg in self.aggregates() {
            for (name, s) in &agg.metrics {
                rows.push(vec![
                    agg.benchmark.clone(),
                    agg.split_layer.to_string(),
                    agg.attack.id().to_string(),
                    name.to_string(),
                    s.n.to_string(),
                    f4(s.mean),
                    f4(s.std_dev),
                    f4(s.min),
                    f4(s.max),
                ]);
            }
        }
        csv(&header, &rows)
    }

    /// A human-readable aggregate table (mean ± σ [min, max] over
    /// seeds), for quick terminal reading.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<13} {:>5}  {:<8} {:<22} {:>3} {:>10} {:>9} {:>10} {:>10}\n",
            "benchmark", "layer", "attack", "metric", "n", "mean", "σ", "min", "max"
        ));
        for agg in self.aggregates() {
            for (name, s) in &agg.metrics {
                out.push_str(&format!(
                    "{:<13} {:>5}  {:<8} {:<22} {:>3} {:>10.4} {:>9.4} {:>10.4} {:>10.4}\n",
                    agg.benchmark,
                    agg.split_layer,
                    agg.attack.id(),
                    name,
                    s.n,
                    s.mean,
                    s.std_dev,
                    s.min,
                    s.max
                ));
            }
        }
        out
    }

    /// Number of outcomes that are timed-out placeholders rather than
    /// measurements (what `smctl sweep --timeout-secs` reports and
    /// exits non-zero on; `smctl resume` re-runs exactly these).
    pub fn timed_out(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.metrics.is_timed_out())
            .count()
    }

    /// Number of outcomes that are panicked placeholders (what `smctl`
    /// exits 4 on; `smctl resume` re-runs these alongside timed-out
    /// jobs).
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.metrics.is_failed())
            .count()
    }

    /// One-line human summary (thread count, cache effectiveness, time).
    pub fn summary(&self) -> String {
        let timed_out = self.timed_out();
        let failed = self.failed();
        format!(
            "{} jobs on {} threads in {:.2}s — cache: {} builds, {} hits, {} disk hits, {} released — stages: {} place+route built, {} split built{}{}",
            self.outcomes.len(),
            self.threads,
            self.total_wall.as_secs_f64(),
            self.cache.builds,
            self.cache.hits,
            self.cache.disk_hits,
            self.cache.released,
            self.stages.builds_of(Stage::Layout),
            self.stages.builds_of(Stage::Split),
            if timed_out > 0 {
                format!(" — {timed_out} timed out")
            } else {
                String::new()
            },
            if failed > 0 {
                format!(" — {failed} failed")
            } else {
                String::new()
            },
        )
    }
}

fn aggregate_json(agg: &AggregateRow) -> Json {
    Json::Obj(vec![
        ("benchmark".to_string(), Json::str(&agg.benchmark)),
        (
            "split_layer".to_string(),
            Json::UInt(agg.split_layer as u64),
        ),
        ("attack".to_string(), Json::str(agg.attack.id())),
        (
            "metrics".to_string(),
            Json::Obj(
                agg.metrics
                    .iter()
                    .map(|(name, s)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("n", Json::UInt(s.n)),
                                ("mean", Json::Num(s.mean)),
                                ("std_dev", Json::Num(s.std_dev)),
                                ("min", Json::Num(s.min)),
                                ("max", Json::Num(s.max)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Milliseconds rounded to µs precision, so timing fields render as
/// `121.474` rather than a 17-digit float tail.
pub(crate) fn wall_ms(d: std::time::Duration) -> f64 {
    (d.as_secs_f64() * 1e6).round() / 1e3
}

/// The same µs-precision rounding for spans already measured in ms.
pub(crate) fn phase_ms(ms: f64) -> f64 {
    (ms * 1e3).round() / 1e3
}

fn outcome_json(o: &JobOutcome, opts: ReportOptions) -> Json {
    let mut pairs = vec![
        ("benchmark".to_string(), Json::str(o.job.benchmark.name())),
        ("seed".to_string(), Json::UInt(o.job.user_seed)),
        (
            "split_layer".to_string(),
            Json::UInt(o.job.split_layer as u64),
        ),
        ("attack".to_string(), Json::str(o.job.attack.id())),
        ("derived_seed".to_string(), Json::UInt(o.job.derived_seed())),
        ("metrics".to_string(), o.metrics.to_json()),
    ];
    if opts.include_timings {
        pairs.push(("wall_ms".to_string(), Json::Num(wall_ms(o.wall))));
        if !o.phases.is_empty() {
            pairs.push((
                "phases".to_string(),
                Json::Obj(
                    o.phases
                        .iter()
                        .map(|&(name, ms)| (name.to_string(), Json::Num(phase_ms(ms))))
                        .collect(),
                ),
            ));
        }
    }
    Json::Obj(pairs)
}

// ----- parsing stored reports (resume) -------------------------------------

impl Campaign {
    /// Parses a stored canonical JSON report back into a campaign
    /// (threads/timings/cache counters reset — they are diagnostics of
    /// the producing run, not results).
    ///
    /// # Errors
    ///
    /// Returns an error for a report of another [`REPORT_VERSION`], an
    /// invalid spec (see [`SweepSpec::jobs`]), or the first missing or
    /// malformed field.
    pub fn from_json(report: &Json) -> Result<Campaign, String> {
        let version = match report.get("version") {
            None => 1,
            Some(v) => v.as_u64().ok_or("`version` is not a u64")?,
        };
        if version != REPORT_VERSION {
            return Err(format!(
                "report format version {version} (this build reads version {REPORT_VERSION}); \
                 re-run the sweep to regenerate it"
            ));
        }
        let str_list = |key: &str| -> Result<Vec<String>, String> {
            report
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("report missing `{key}` array"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or(format!("`{key}` entry is not a string"))
                })
                .collect()
        };
        let u64_list = |key: &str| -> Result<Vec<u64>, String> {
            report
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("report missing `{key}` array"))?
                .iter()
                .map(|v| v.as_u64().ok_or(format!("`{key}` entry is not a u64")))
                .collect()
        };
        let scale = report
            .get("scale")
            .and_then(Json::as_u64)
            .ok_or("report missing `scale`")? as usize;
        let master_seed = report
            .get("master_seed")
            .and_then(Json::as_u64)
            .ok_or("report missing `master_seed`")?;
        // Absent in every report written before the field existed (and
        // in unpinned ones since) — absent simply means "not pinned".
        let layout_seed = match report.get("layout_seed") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or("`layout_seed` is not a u64")?),
        };
        let attacks = str_list("attacks")?
            .iter()
            .map(|s| AttackKind::parse(s))
            .collect::<Result<Vec<_>, _>>()?;
        let split_layers = u64_list("split_layers")?
            .into_iter()
            .map(|l| u8::try_from(l).map_err(|_| format!("split layer {l} out of range")))
            .collect::<Result<Vec<_>, _>>()?;
        let spec = SweepSpec {
            benchmarks: str_list("benchmarks")?,
            seeds: u64_list("seeds")?,
            split_layers,
            attacks,
            scale,
            master_seed,
            layout_seed,
        };
        spec.jobs()?;

        let jobs = report
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("report missing `jobs` array")?;
        let mut outcomes = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            outcomes.push(outcome_from_json(job, &spec).map_err(|e| format!("job {i}: {e}"))?);
        }
        Ok(Campaign {
            spec,
            outcomes,
            cache: CacheStats::default(),
            stages: StageStats::default(),
            threads: 0,
            total_wall: Duration::ZERO,
            pool: PoolStats::default(),
        })
    }
}

fn outcome_from_json(job: &Json, spec: &SweepSpec) -> Result<JobOutcome, String> {
    let malformed = |key: &str| format!("missing or malformed `{key}`");
    let benchmark = job
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("benchmark"))?;
    let user_seed = job
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed("seed"))?;
    let split_layer = job
        .get("split_layer")
        .and_then(Json::as_u64)
        .and_then(|l| u8::try_from(l).ok())
        .ok_or_else(|| malformed("split_layer"))?;
    let attack = job
        .get("attack")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("attack"))?;
    let metrics = job.get("metrics").ok_or("missing `metrics`")?;
    // Present only in `--timings` reports; re-rendering one keeps its
    // `wall_ms` column.
    let wall = match job.get("wall_ms") {
        None => Duration::ZERO,
        Some(ms) => ms
            .as_f64()
            .and_then(|ms| Duration::try_from_secs_f64(ms / 1e3).ok())
            .ok_or_else(|| malformed("wall_ms"))?,
    };
    Ok(JobOutcome {
        job: Job {
            index: 0, // re-assigned when merged against an expansion
            benchmark: Benchmark::parse(benchmark, spec.scale)?,
            user_seed,
            split_layer,
            attack: AttackKind::parse(attack)?,
            master_seed: spec.master_seed,
            layout_seed: spec.layout_seed,
        },
        metrics: JobMetrics::from_json(metrics)?,
        wall,
        phases: Vec::new(),
    })
}

/// The identity of a job within a campaign (what stored outcomes are
/// matched on — indices are not stored in reports).
fn job_key(job: &Job) -> (String, u64, u8, AttackKind) {
    (
        job.benchmark.name().to_string(),
        job.user_seed,
        job.split_layer,
        job.attack,
    )
}

/// Merges stored and freshly-run outcomes into canonical campaign order
/// (`expansion` order). On duplicate keys, a finished outcome always
/// beats a timed-out/failed placeholder; among finished outcomes, fresh
/// wins.
/// Jobs with no outcome in either set are simply absent — a resume
/// restricted by `--jobs` stays partial.
pub fn merge_outcomes(
    expansion: &[Job],
    stored: Vec<JobOutcome>,
    fresh: Vec<JobOutcome>,
) -> Vec<JobOutcome> {
    let mut by_key: HashMap<(String, u64, u8, AttackKind), JobOutcome> = HashMap::new();
    for outcome in stored.into_iter().chain(fresh) {
        match by_key.entry(job_key(&outcome.job)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(outcome);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Never let a timed-out/failed placeholder displace a
                // real measurement (e.g. merging a timed-out shard over
                // an already-complete report).
                if !outcome.metrics.is_placeholder() || e.get().metrics.is_placeholder() {
                    e.insert(outcome);
                }
            }
        }
    }
    let mut merged = Vec::new();
    for job in expansion {
        if let Some(mut outcome) = by_key.remove(&job_key(job)) {
            outcome.job = job.clone();
            merged.push(outcome);
        }
    }
    merged
}

/// Merges several stored reports of the **same spec** into one campaign
/// in canonical job order, keeping the first report's run diagnostics —
/// the engine behind `smctl merge`, which combines sharded sweeps
/// (`--shard K/N`) without round-tripping every shard through `resume`.
/// Later reports win on duplicate keys, except that a finished outcome
/// never loses to a placeholder.
///
/// # Errors
///
/// Returns an error when no report is given or the specs differ (a
/// merge across different sweeps would silently drop jobs).
pub fn merge_reports(reports: Vec<Campaign>) -> Result<Campaign, String> {
    let mut iter = reports.into_iter();
    let mut merged = iter.next().ok_or("merge needs at least one report")?;
    let expansion = merged.spec.jobs()?;
    merged.outcomes = merge_outcomes(&expansion, Vec::new(), merged.outcomes);
    for (i, report) in iter.enumerate() {
        if report.spec != merged.spec {
            return Err(format!(
                "report {} has a different sweep spec (all merged reports must share one campaign)",
                i + 2
            ));
        }
        merged.outcomes = merge_outcomes(&expansion, merged.outcomes, report.outcomes);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(spec: &SweepSpec, threads: usize) -> Campaign {
        let budget = Budget::with_threads(Some(threads));
        run_sweep_budgeted(spec, &budget, &ArtifactCache::new(), None).unwrap()
    }

    #[test]
    fn jobs_expand_row_major_and_validate() {
        let spec = SweepSpec {
            benchmarks: vec!["c432".into(), "c880".into()],
            seeds: vec![1, 2],
            split_layers: vec![3, 4],
            attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
            scale: 100,
            master_seed: 7,
            layout_seed: None,
        };
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        assert_eq!(jobs[0].benchmark.name(), "c432");
        assert_eq!(jobs[0].split_layer, 3);
        assert_eq!(jobs[1].attack, AttackKind::Crouting);
        assert_eq!(jobs[15].benchmark.name(), "c880");
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let bad_layer = SweepSpec {
            split_layers: vec![12],
            ..SweepSpec::default()
        };
        assert!(bad_layer.jobs().is_err());
        let bad_bench = SweepSpec {
            benchmarks: vec!["c404".into()],
            ..SweepSpec::default()
        };
        assert!(bad_bench.jobs().is_err());
        let no_seeds = SweepSpec {
            seeds: Vec::new(),
            ..SweepSpec::default()
        };
        assert!(no_seeds.jobs().is_err());
        let zero_scale = SweepSpec {
            scale: 0,
            ..SweepSpec::default()
        };
        assert!(zero_scale.jobs().is_err());
        // A repeated value on any axis would run its jobs twice under
        // one report row, leaving a report no merge or resume completes.
        let repeats = [
            SweepSpec {
                benchmarks: vec!["c432".into(), "c880".into(), "c432".into()],
                ..SweepSpec::default()
            },
            SweepSpec {
                seeds: vec![1, 1],
                ..SweepSpec::default()
            },
            SweepSpec {
                split_layers: vec![3, 4, 3],
                ..SweepSpec::default()
            },
            SweepSpec {
                attacks: vec![AttackKind::NetworkFlow, AttackKind::NetworkFlow],
                ..SweepSpec::default()
            },
        ];
        for (spec, axis) in repeats
            .iter()
            .zip(["benchmark", "seed", "split layer", "attack"])
        {
            let err = spec.jobs().expect_err("a repeated axis value is rejected");
            assert!(err.starts_with(&format!("sweep repeats {axis} `")), "{err}");
        }
    }

    #[test]
    fn job_filter_selects_validates_and_dedupes() {
        let spec = SweepSpec {
            benchmarks: vec!["c432".into()],
            seeds: vec![1],
            split_layers: vec![4],
            attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
            scale: 100,
            master_seed: 1,
            layout_seed: None,
        };
        let cache = ArtifactCache::new();
        let budget = Budget::with_threads(Some(2));
        let filtered = run_sweep_budgeted(&spec, &budget, &cache, Some(&[1, 1])).unwrap();
        assert_eq!(filtered.outcomes.len(), 1);
        assert_eq!(filtered.outcomes[0].job.attack, AttackKind::Crouting);
        assert!(run_sweep_budgeted(&spec, &budget, &cache, Some(&[9])).is_err());
        assert!(run_sweep_budgeted(&spec, &budget, &cache, Some(&[])).is_err());
    }

    #[test]
    fn campaign_roundtrips_through_json() {
        let spec = SweepSpec {
            benchmarks: vec!["c432".into()],
            seeds: vec![1, 2],
            split_layers: vec![4],
            attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
            scale: 100,
            master_seed: 3,
            layout_seed: None,
        };
        let campaign = sweep(&spec, 2);
        let rendered = campaign.to_json(ReportOptions::default()).render();
        let parsed = Campaign::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed.outcomes.len(), campaign.outcomes.len());
        // Re-rendering the parsed campaign reproduces the bytes exactly.
        assert_eq!(parsed.to_json(ReportOptions::default()).render(), rendered);
        assert_eq!(
            parsed.to_csv(ReportOptions::default()),
            campaign.to_csv(ReportOptions::default())
        );
    }

    #[test]
    fn version_2_reports_roundtrip_and_other_versions_are_rejected() {
        let spec = SweepSpec {
            benchmarks: vec!["c432".into()],
            split_layers: vec![4],
            attacks: vec![AttackKind::Crouting],
            ..SweepSpec::default()
        };
        let rendered = sweep(&spec, 1).to_json(ReportOptions::default()).render();
        assert!(
            rendered.starts_with("{\n  \"campaign\": \"sweep\",\n  \"version\": 2,\n"),
            "{rendered}"
        );
        let parsed = Json::parse(&rendered).unwrap();
        let reparsed = Campaign::from_json(&parsed).unwrap();
        assert_eq!(
            reparsed.to_json(ReportOptions::default()).render(),
            rendered
        );

        // No field means version 1; a later version is foreign too.
        let Json::Obj(pairs) = parsed else {
            panic!("a report is an object")
        };
        let without: Vec<_> = pairs.into_iter().filter(|(k, _)| k != "version").collect();
        let mut future = without.clone();
        future.insert(1, ("version".to_string(), Json::UInt(3)));
        for (report, named) in [(without, "version 1"), (future, "version 3")] {
            let err = Campaign::from_json(&Json::Obj(report)).unwrap_err();
            assert!(
                err.contains(named) && err.contains("reads version 2"),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_jobs_and_merge_reconstruct_a_partial_campaign() {
        let spec = SweepSpec {
            benchmarks: vec!["c432".into()],
            seeds: vec![1, 2],
            split_layers: vec![4],
            attacks: vec![AttackKind::NetworkFlow],
            scale: 100,
            master_seed: 1,
            layout_seed: None,
        };
        let cache = ArtifactCache::new();
        let budget = Budget::with_threads(Some(2));
        // Run only job 1, as `--jobs 1` would.
        let partial = run_sweep_budgeted(&spec, &budget, &cache, Some(&[1])).unwrap();
        let run = CampaignRun::resume(partial).unwrap();
        assert_eq!(run.selected(), &[0]);
        let resumed = run.run(&budget, &cache);
        for (i, o) in resumed.outcomes.iter().enumerate() {
            assert_eq!(o.job.index, i);
        }

        // The resumed report equals a from-scratch full run.
        assert_eq!(
            resumed.to_json(ReportOptions::default()).render(),
            sweep(&spec, 2).to_json(ReportOptions::default()).render()
        );
    }

    #[test]
    fn aggregates_summarize_over_seeds() {
        let spec = SweepSpec {
            benchmarks: vec!["c432".into()],
            seeds: vec![1, 2, 3],
            split_layers: vec![4],
            attacks: vec![AttackKind::NetworkFlow],
            scale: 100,
            master_seed: 1,
            layout_seed: None,
        };
        let campaign = sweep(&spec, 3);
        let aggs = campaign.aggregates();
        assert_eq!(aggs.len(), 1, "one benchmark × layer × attack point");
        let agg = &aggs[0];
        assert_eq!(agg.benchmark, "c432");
        assert_eq!(agg.metrics.len(), 4);
        for (name, s) in &agg.metrics {
            assert_eq!(s.n, 3, "{name} aggregates all three seeds");
            assert!(s.min <= s.mean && s.mean <= s.max, "{name} ordering");
            assert!(s.std_dev >= 0.0);
        }
        // Mean of ccr_protected_pct matches a hand computation.
        let values: Vec<f64> = campaign
            .outcomes
            .iter()
            .map(|o| {
                let metrics = o.metrics.to_json();
                metrics
                    .get("ccr_protected_pct")
                    .and_then(Json::as_f64)
                    .unwrap()
            })
            .collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((agg.metrics[0].1.mean - mean).abs() < 1e-12);
        // Table and aggregate CSV render without panicking and carry
        // the point.
        assert!(campaign.to_table().contains("ccr_protected_pct"));
        assert!(campaign.aggregates_to_csv().starts_with("benchmark,"));
    }

    #[test]
    fn metric_stats_math() {
        let s = MetricStats::over(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }
}
