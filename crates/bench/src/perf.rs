//! `smctl bench` — the deterministic perf harness behind the repo's
//! performance trajectory (`BENCH.json`).
//!
//! The workload matrix is a pure function of `(quick, seed, scale)`:
//! the quick ISCAS selection plus down-scaled superblue18, each pushed
//! through the pipeline stages the campaigns spend their wall-clock in
//! — netlist generation, placement, routing, the protection flow over
//! that prebuilt layout, FEOL/BEOL split, the network-flow attack, and
//! a warm assembly of the benchmark's campaign bundle from a store that
//! holds its frames (`bundle-decode`: frames decoded and their raw
//! payload bytes) —
//! plus five campaign stages: a quick campaign run four times against
//! a fresh disk store (`campaign-cold`; `campaign-warm`;
//! `campaign-journal`, warm with the campaign journal attached, gating
//! the event log's overhead; `campaign-faults`, warm with a
//! never-firing fault plan attached, gating the injection hooks'
//! zero-fault overhead), then `campaign-incremental`, a four-seed sweep
//! pinned to one layout against another fresh store. Every stage runs
//! inside the one [`Budget`] that [`BenchConfig::threads`] describes
//! (`--threads`); with an explicit count, nothing runs on the
//! machine-wide pool. Every stage records
//!
//! * `wall_ms` — the measurement (machine-dependent, **excluded** from
//!   any determinism comparison, mirroring the `--timings` split of
//!   campaign reports), and
//! * `detail` — deterministic fingerprints of the work done (cell
//!   counts, total HPWL, via counts, CCR…), so two `BENCH.json` files
//!   are directly comparable: identical `detail` proves both machines
//!   timed *the same work*.
//!
//! The hot kernels additionally report sub-stages timed by their own
//! phase instrumentation — `place-fm` (the placer's FM-refinement
//! meter), `attack-flow-score`, `attack-flow-mcmf`,
//! `attack-flow-assign` and `attack-flow-eval` (the flow attack's
//! candidate-scoring, min-cost-flow, loop-free reconstruction and
//! OER/HD simulation spans) — so a regression in one kernel is
//! attributable without re-profiling.
//! [`BenchConfig::min_of`] repeats each deterministic layout stage and
//! keeps the minimum wall, filtering scheduler noise out of committed
//! baselines.
//!
//! [`BenchReport::check_against`] gates regressions: CI fails when a
//! stage exceeds `factor ×` its committed-baseline time (plus a small
//! absolute slack so micro-stages don't trip on scheduler noise).

use std::time::Instant;

use sm_attacks::crouting::{crouting_attack, CroutingConfig};
use sm_attacks::proximity::{network_flow_attack_budgeted, ProximityConfig};
use sm_core::flow::{protect, BaselineLayout, FlowConfig};
use sm_core::ppa::evaluate;
use sm_engine::bundle::{iscas_selection, superblue_selection};
use sm_engine::campaign::{run_sweep_budgeted, SweepSpec};
use sm_engine::job::AttackKind;
use sm_engine::journal::{read_events, Journal};
use sm_engine::report::Json;
use sm_engine::store::{ArtifactStore, Stage};
use sm_engine::ArtifactCache;
use sm_exec::phase::Recorder;
use sm_exec::Budget;
use sm_layout::{split_layout, Floorplan, PlacementEngine, RouteOptions, Router, Technology};
use sm_netlist::Netlist;

/// The workload knobs (all folded into the deterministic fingerprints).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Smaller benchmark selection (the CI smoke configuration).
    pub quick: bool,
    /// Master seed for netlist generation and placement.
    pub seed: u64,
    /// Superblue down-scaling factor.
    pub scale: usize,
    /// Worker threads for every stage (`--threads`).
    pub threads: Option<usize>,
    /// How many times each per-benchmark layout stage runs; the
    /// *minimum* wall-clock is recorded (the classic noise filter — the
    /// fastest run is the one least disturbed by the scheduler). The
    /// stages are deterministic, so repeats redo identical work. The
    /// campaign stages always run once: their cold/warm/journal deltas
    /// are stateful against the store and would be destroyed by
    /// repetition.
    pub min_of: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            quick: false,
            seed: 1,
            scale: 100,
            threads: None,
            min_of: 1,
        }
    }
}

/// One timed stage: what ran, on which benchmark, how long it took, and
/// the deterministic fingerprint of its output.
#[derive(Debug, Clone)]
pub struct StageSample {
    /// Stage name (`place`, `route`, …).
    pub stage: &'static str,
    /// Benchmark the stage ran on (`-` for whole-campaign stages).
    pub benchmark: String,
    /// Wall-clock milliseconds (excluded from determinism comparisons).
    pub wall_ms: f64,
    /// Deterministic `(name, value)` fingerprints of the work done.
    pub detail: Vec<(&'static str, u64)>,
}

/// A finished bench run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The workload configuration.
    pub config: BenchConfig,
    /// All samples, in workload order.
    pub stages: Vec<StageSample>,
}

/// Utilization the standalone layout stages use (fixed, so the workload
/// does not drift when flow defaults change).
const BENCH_UTILIZATION: f64 = 0.5;

/// Split layer the split/attack stages use.
const BENCH_SPLIT_LAYER: u8 = 4;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs `f` `min_of` times (at least once), returning the last value and
/// the minimum wall-clock over the runs. The workloads are
/// deterministic, so every repeat does — and fingerprints — identical
/// work; only the timing varies, and the minimum is the run least
/// disturbed by scheduler noise.
fn timed_min<T>(min_of: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut value, mut best) = timed(&mut f);
    for _ in 1..min_of.max(1) {
        let (again, wall) = timed(&mut f);
        value = again;
        best = best.min(wall);
    }
    (value, best)
}

/// One attack an individual layout is benchmarked under: the flow
/// attack for every design class (the cost-scaling MCMF engine made
/// superblue-scale instances tractable — the retired successive-
/// shortest-path core was quadratic in cut pins and took 245 s on
/// superblue18 at bench scale), plus crouting for superblue-class ones
/// (Table 3's attack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttackStage {
    Flow,
    Crouting,
}

/// Pushes one netlist through generate→place→route→protect→split→
/// attack(s), appending a sample per stage (`flow` gives the design
/// class's protection settings; the layout stages' utilization and
/// seed override its own) — plus the sub-kernel stages the hot
/// paths are gated on (`place-fm`, `attack-flow-score`,
/// `attack-flow-mcmf`, `attack-flow-assign`, `attack-flow-eval`),
/// whose walls come from the kernels' own phase instrumentation rather
/// than re-timing around them. Placement and protection run in `exec`;
/// the flow attack runs on one thread of it.
fn layout_stages(
    stages: &mut Vec<StageSample>,
    name: &str,
    flow: fn(u64) -> FlowConfig,
    attacks: &[AttackStage],
    min_of: usize,
    exec: &Budget,
    generate: impl Fn() -> Netlist,
) {
    let push = |stages: &mut Vec<StageSample>,
                stage: &'static str,
                wall_ms: f64,
                detail: Vec<(&'static str, u64)>| {
        stages.push(StageSample {
            stage,
            benchmark: name.to_string(),
            wall_ms,
            detail,
        });
    };
    let (netlist, wall) = timed_min(min_of, generate);
    push(
        stages,
        "generate",
        wall,
        vec![
            ("cells", netlist.num_cells() as u64),
            ("nets", netlist.num_nets() as u64),
        ],
    );

    let tech = Technology::nangate45_10lm();
    let fp = Floorplan::for_netlist(&netlist, &tech, BENCH_UTILIZATION);
    let seed = 1; // the per-design placement seed; the netlist already encodes cfg.seed
    let meter = sm_layout::PlaceMeter::shared();
    let engine = PlacementEngine::new(seed)
        .with_budget(exec.clone())
        .with_meter(std::sync::Arc::clone(&meter));
    // `place-fm` is metered inside the placer (summed over every
    // bisection region), so each iteration yields a (total, fm) pair;
    // the minima are taken per series.
    let mut place_wall = f64::INFINITY;
    let mut fm_wall = f64::INFINITY;
    let mut placement = None;
    for _ in 0..min_of.max(1) {
        let (pl, wall) = timed(|| engine.place(&netlist, &fp));
        let (_, fm_ms) = meter.drain_ms();
        place_wall = place_wall.min(wall);
        fm_wall = fm_wall.min(fm_ms);
        placement = Some(pl);
    }
    let placement = placement.expect("min_of clamps to at least one run");
    let hpwl = placement.total_hpwl(&netlist) as u64;
    push(stages, "place", place_wall, vec![("hpwl_dbu", hpwl)]);
    push(stages, "place-fm", fm_wall, vec![("hpwl_dbu", hpwl)]);

    let (routing, wall) = timed_min(min_of, || {
        Router::new(&tech).route(&netlist, &placement, &fp, &RouteOptions::default())
    });
    push(
        stages,
        "route",
        wall,
        vec![
            ("wirelength_dbu", routing.total_wirelength_dbu() as u64),
            ("vias", routing.via_counts().total()),
            ("overflow_edges", routing.overflow_edges() as u64),
        ],
    );

    // The protection flow over the layout just built, as a bundle's
    // protect stage runs it over its place+route stage: randomize, then
    // place and route the erroneous netlist per budget round.
    let config = FlowConfig {
        utilization: BENCH_UTILIZATION,
        ..flow(seed)
    };
    let baseline = BaselineLayout {
        floorplan: fp.clone(),
        placement: placement.clone(),
        routing: routing.clone(),
        ppa: evaluate(&netlist, &routing, &fp, &tech, seed),
    };
    let (protected, wall) = timed_min(min_of, || {
        protect(&netlist, &config, &baseline, exec, &mut Recorder::new())
    });
    let oer_bp = (protected.randomization.oer_achieved * 10_000.0).round() as u64;
    push(
        stages,
        "protect",
        wall,
        vec![
            ("swaps", protected.randomization.swaps.len() as u64),
            ("oer_bp", oer_bp),
        ],
    );

    let (split, wall) = timed_min(min_of, || {
        split_layout(&netlist, &placement, &routing, BENCH_SPLIT_LAYER)
    });
    push(
        stages,
        "split",
        wall,
        vec![
            ("cut_nets", split.cut_nets as u64),
            ("vpins", split.feol.vpins.len() as u64),
        ],
    );

    for &attack in attacks {
        match attack {
            AttackStage::Flow => {
                let mut flow_wall = f64::INFINITY;
                let mut score_wall = f64::INFINITY;
                let mut mcmf_wall = f64::INFINITY;
                let mut assign_wall = f64::INFINITY;
                let mut eval_wall = f64::INFINITY;
                let mut outcome = None;
                // One thread of the budget: the serial attack.
                let serial = exec.split(exec.threads());
                for _ in 0..min_of.max(1) {
                    let mut rec = Recorder::new();
                    let (out, wall) = timed(|| {
                        network_flow_attack_budgeted(
                            &netlist,
                            &netlist,
                            &placement,
                            &split,
                            &ProximityConfig::default(),
                            &serial,
                            &mut rec,
                        )
                        .expect("a fresh token never cancels")
                    });
                    let span = |name: &str| {
                        rec.spans()
                            .iter()
                            .find(|&&(n, _)| n == name)
                            .map(|&(_, ms)| ms)
                            .expect("the flow attack records every phase")
                    };
                    flow_wall = flow_wall.min(wall);
                    score_wall = score_wall.min(span("attack-candidates"));
                    mcmf_wall = mcmf_wall.min(span("attack-mcmf"));
                    assign_wall = assign_wall.min(span("attack-assign"));
                    eval_wall = eval_wall.min(span("attack-eval"));
                    outcome = Some(out);
                }
                let outcome = outcome.expect("min_of clamps to at least one run");
                let detail = vec![
                    ("pairs", outcome.pairs.len() as u64),
                    ("ccr_bp", (outcome.ccr * 10_000.0).round() as u64),
                ];
                push(stages, "attack-flow", flow_wall, detail.clone());
                push(stages, "attack-flow-score", score_wall, detail.clone());
                push(stages, "attack-flow-mcmf", mcmf_wall, detail.clone());
                push(stages, "attack-flow-assign", assign_wall, detail);
                let metrics = outcome.metrics;
                let eval_detail = vec![
                    ("patterns", metrics.patterns as u64),
                    ("oer_bp", (metrics.oer * 10_000.0).round() as u64),
                    ("hd_bp", (metrics.hd * 10_000.0).round() as u64),
                ];
                push(stages, "attack-flow-eval", eval_wall, eval_detail);
            }
            AttackStage::Crouting => {
                let mut crouting_wall = f64::INFINITY;
                let mut report = None;
                for _ in 0..min_of.max(1) {
                    let (rep, wall) =
                        timed(|| crouting_attack(&netlist, &split, &CroutingConfig::default()));
                    crouting_wall = crouting_wall.min(wall);
                    report = Some(rep);
                }
                let report = report.expect("min_of clamps to at least one run");
                let match_bp = report
                    .boxes
                    .last()
                    .map(|b| (b.match_in_list * 10_000.0).round() as u64)
                    .unwrap_or(0);
                let detail = vec![("vpins", report.num_vpins as u64), ("match_bp", match_bp)];
                push(stages, "attack-crouting", crouting_wall, detail);
            }
        }
    }
}

/// Times a warm assembly of one benchmark's campaign bundle
/// (`bundle-decode`): `assemble` builds it once, untimed, into a
/// private store, then each timed run asks a fresh cache over a fresh
/// handle of that store for it, as a new process would. The `detail`
/// counts the frames decoded and their raw (pre-compression) payload
/// bytes; the private store holds this bundle's frames only, so both
/// are exact.
fn bundle_decode_stage(
    stages: &mut Vec<StageSample>,
    name: &str,
    min_of: usize,
    assemble: impl Fn(&ArtifactCache),
) {
    let dir = std::env::temp_dir().join(format!("sm-bench-decode-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || ArtifactCache::with_store(std::sync::Arc::new(ArtifactStore::open(&dir, None)));
    assemble(&open());
    // The cache comes back out, so dropping the bundle is not timed.
    let (cache, wall) = timed_min(min_of, || {
        let cache = open();
        assemble(&cache);
        cache
    });
    let decodes = cache.stage_stats();
    let raw_bytes = ArtifactStore::open(&dir, None)
        .usage()
        .stages
        .iter()
        .filter(|&&(stage, _)| decodes.decodes_of(stage) > 0)
        .map(|(_, usage)| usage.raw_bytes)
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    stages.push(StageSample {
        stage: "bundle-decode",
        benchmark: name.to_string(),
        wall_ms: wall,
        detail: vec![
            ("frames", decodes.decodes.iter().sum()),
            ("raw_bytes", raw_bytes),
        ],
    });
}

/// Runs the full workload matrix.
pub fn run_bench(cfg: &BenchConfig) -> BenchReport {
    // One budget for every stage: the thread allotment the harness ran
    // with is part of the recorded workload (`threads` in each campaign
    // stage's detail — deliberately in `detail`, not just the top-level
    // config echo, so per-stage comparisons can check the budget that
    // actually applied).
    let budget = Budget::with_threads(cfg.threads);
    let mut stages = Vec::new();
    for profile in iscas_selection(cfg.quick) {
        layout_stages(
            &mut stages,
            profile.name,
            FlowConfig::iscas_default,
            &[AttackStage::Flow],
            cfg.min_of,
            &budget,
            || sm_benchgen::iscas::generate(&profile, cfg.seed),
        );
        bundle_decode_stage(&mut stages, profile.name, cfg.min_of, |cache| {
            cache.iscas(&profile, cfg.seed, &budget, &mut Recorder::new());
        });
    }
    for profile in superblue_selection(true) {
        // Superblue benches both attacks: the flow stage is the
        // largest MCMF workload this harness gates, crouting the
        // Table 3 workload.
        layout_stages(
            &mut stages,
            profile.name,
            FlowConfig::superblue_default,
            &[AttackStage::Flow, AttackStage::Crouting],
            cfg.min_of,
            &budget,
            || sm_benchgen::superblue::generate(&profile, cfg.scale, cfg.seed),
        );
        bundle_decode_stage(&mut stages, profile.name, cfg.min_of, |cache| {
            cache.superblue(&profile, cfg.scale, cfg.seed, &budget, &mut Recorder::new());
        });
    }

    // Quick campaign, cold then warm, against a private throwaway store:
    // cold measures bundle builds + attacks, warm measures the
    // store-decode path (and proves it rebuilt nothing).
    let spec = SweepSpec {
        benchmarks: iscas_selection(true)
            .iter()
            .map(|p| p.name.to_string())
            .collect(),
        seeds: vec![1, 2],
        split_layers: vec![BENCH_SPLIT_LAYER],
        attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
        scale: cfg.scale,
        master_seed: cfg.seed,
        layout_seed: None,
    };
    let store_dir = std::env::temp_dir().join(format!("sm-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    for pass in ["campaign-cold", "campaign-warm"] {
        let cache = ArtifactCache::with_store(std::sync::Arc::new(ArtifactStore::open(
            store_dir.to_string_lossy().as_ref(),
            None,
        )));
        let (campaign, wall) = timed(|| {
            run_sweep_budgeted(&spec, &budget, &cache, None).expect("bench spec is valid")
        });
        stages.push(StageSample {
            stage: pass,
            benchmark: "-".to_string(),
            wall_ms: wall,
            detail: vec![
                ("jobs", campaign.outcomes.len() as u64),
                ("builds", campaign.cache.builds),
                ("threads", budget.threads() as u64),
            ],
        });
    }
    // Journal-overhead probe: the warm campaign once more, now
    // recording every lifecycle event into a checksummed journal. The
    // store is already hot, so the delta vs `campaign-warm` is the
    // journal's cost — CI gates it like every other stage. The event
    // count is deterministic (campaign started/finished plus a
    // started/finished pair per job; warm jobs replay outcomes, so no
    // bundle events) and proves the full lifecycle was recorded.
    {
        let journal = std::sync::Arc::new(Journal::at(store_dir.join("bench.journal")));
        let cache = ArtifactCache::with_store(std::sync::Arc::new(ArtifactStore::open(
            store_dir.to_string_lossy().as_ref(),
            None,
        )))
        .with_journal(std::sync::Arc::clone(&journal));
        let (campaign, wall) = timed(|| {
            run_sweep_budgeted(&spec, &budget, &cache, None).expect("bench spec is valid")
        });
        let events = read_events(journal.path()).map(|e| e.len()).unwrap_or(0);
        stages.push(StageSample {
            stage: "campaign-journal",
            benchmark: "-".to_string(),
            wall_ms: wall,
            detail: vec![
                ("jobs", campaign.outcomes.len() as u64),
                ("builds", campaign.cache.builds),
                ("events", events as u64),
                ("threads", budget.threads() as u64),
            ],
        });
    }
    // Zero-fault overhead probe: the warm campaign once more with a
    // fault plan attached to every injection point — but with the `off`
    // profile, so no fault ever fires. The delta vs `campaign-warm` is
    // the pure cost of the hooks (a seeded hash per store/journal/job
    // operation), which CI gates like every other stage: fault
    // injection must be free when it is not injecting.
    {
        let faults = sm_exec::fault::FaultPlan::new(cfg.seed, sm_exec::fault::FaultProfile::off());
        let cache = ArtifactCache::with_store(std::sync::Arc::new(
            ArtifactStore::open(store_dir.to_string_lossy().as_ref(), None).with_faults(faults),
        ))
        .with_faults(faults);
        let (campaign, wall) = timed(|| {
            run_sweep_budgeted(&spec, &budget, &cache, None).expect("bench spec is valid")
        });
        stages.push(StageSample {
            stage: "campaign-faults",
            benchmark: "-".to_string(),
            wall_ms: wall,
            detail: vec![
                ("jobs", campaign.outcomes.len() as u64),
                ("builds", campaign.cache.builds),
                ("failed", campaign.failed() as u64),
                ("threads", budget.threads() as u64),
            ],
        });
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    // Incremental-sweep probe: the same quick campaign widened to four
    // seeds but pinned to one layout seed, against a fresh store. The
    // stage-keyed pipeline collapses the whole seed sweep onto ONE
    // place+route per benchmark (`pr_builds` — the gated invariant),
    // so the extra seeds cost only attack evaluation, not layout.
    {
        let spec = SweepSpec {
            seeds: vec![1, 2, 3, 4],
            layout_seed: Some(cfg.seed),
            ..spec.clone()
        };
        let incr_dir = std::env::temp_dir().join(format!("sm-bench-incr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&incr_dir);
        let cache = ArtifactCache::with_store(std::sync::Arc::new(ArtifactStore::open(
            incr_dir.to_string_lossy().as_ref(),
            None,
        )));
        let (campaign, wall) = timed(|| {
            run_sweep_budgeted(&spec, &budget, &cache, None).expect("bench spec is valid")
        });
        stages.push(StageSample {
            stage: "campaign-incremental",
            benchmark: "-".to_string(),
            wall_ms: wall,
            detail: vec![
                ("jobs", campaign.outcomes.len() as u64),
                ("builds", campaign.cache.builds),
                ("pr_builds", campaign.stages.builds_of(Stage::Layout)),
                ("split_builds", campaign.stages.builds_of(Stage::Split)),
                ("threads", budget.threads() as u64),
            ],
        });
        let _ = std::fs::remove_dir_all(&incr_dir);
    }

    BenchReport {
        config: cfg.clone(),
        stages,
    }
}

impl BenchReport {
    /// The canonical `BENCH.json` shape. Everything except `wall_ms`
    /// (and `threads`) is a pure function of the config.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bench_schema".to_string(), Json::UInt(1)),
            ("quick".to_string(), Json::Bool(self.config.quick)),
            ("seed".to_string(), Json::UInt(self.config.seed)),
            ("scale".to_string(), Json::UInt(self.config.scale as u64)),
            (
                "threads".to_string(),
                Json::UInt(self.config.threads.unwrap_or(0) as u64),
            ),
            (
                "min_of".to_string(),
                Json::UInt(self.config.min_of.max(1) as u64),
            ),
            (
                "stages".to_string(),
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("stage".to_string(), Json::str(s.stage)),
                                ("benchmark".to_string(), Json::str(&s.benchmark)),
                                ("wall_ms".to_string(), Json::Num(round_ms(s.wall_ms))),
                                (
                                    "detail".to_string(),
                                    Json::Obj(
                                        s.detail
                                            .iter()
                                            .map(|&(k, v)| (k.to_string(), Json::UInt(v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable stage table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<13} {:>10}  detail\n",
            "stage", "benchmark", "wall_ms"
        ));
        for s in &self.stages {
            let detail = s
                .detail
                .iter()
                .map(|&(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<14} {:<13} {:>10.3}  {}\n",
                s.stage, s.benchmark, s.wall_ms, detail
            ));
        }
        let place_route: f64 = self
            .stages
            .iter()
            .filter(|s| s.stage == "place" || s.stage == "route")
            .map(|s| s.wall_ms)
            .sum();
        out.push_str(&format!(
            "{:<14} {:<13} {:>10.3}\n",
            "place+route", "(total)", place_route
        ));
        out
    }

    /// Compares this run against a stored baseline `BENCH.json`: any
    /// stage slower than `factor ×` its baseline time plus `slack_ms`
    /// is a regression. Stages absent from the baseline are skipped
    /// (the matrix may grow), as are whole runs with different
    /// workload configs.
    ///
    /// # Errors
    ///
    /// Returns one line per regressed stage.
    pub fn check_against(&self, baseline: &Json, factor: f64, slack_ms: f64) -> Result<(), String> {
        // Every workload knob must match, or the comparison times
        // different work. Threads are deliberately exempt: they change
        // only the campaign stages' wall clock, which the generous
        // factor absorbs.
        let base_quick = baseline.get("quick").and_then(Json::as_bool);
        if base_quick != Some(self.config.quick) {
            return Err(format!(
                "baseline workload mismatch: baseline quick={base_quick:?}, run quick={}",
                self.config.quick
            ));
        }
        for (key, ours) in [
            ("seed", self.config.seed),
            ("scale", self.config.scale as u64),
        ] {
            let theirs = baseline.get(key).and_then(Json::as_u64);
            if theirs != Some(ours) {
                return Err(format!(
                    "baseline workload mismatch: baseline {key}={theirs:?}, run {key}={ours}"
                ));
            }
        }
        let stages = baseline
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or("baseline is not a BENCH.json (missing `stages`)")?;
        let mut base: std::collections::HashMap<(String, String), f64> =
            std::collections::HashMap::new();
        for s in stages {
            let (Some(stage), Some(benchmark), Some(wall)) = (
                s.get("stage").and_then(Json::as_str),
                s.get("benchmark").and_then(Json::as_str),
                s.get("wall_ms").and_then(Json::as_f64),
            ) else {
                return Err("baseline stage entry is malformed".to_string());
            };
            base.insert((stage.to_string(), benchmark.to_string()), wall);
        }
        let mut regressions = Vec::new();
        for s in &self.stages {
            let Some(&base_ms) = base.get(&(s.stage.to_string(), s.benchmark.clone())) else {
                continue;
            };
            let limit = base_ms * factor + slack_ms;
            if s.wall_ms > limit {
                // The full slack math, so a gate failure is auditable at
                // a glance: the delta and ratio vs baseline, how the
                // limit was derived, and how far past it the run landed.
                let ratio = if base_ms > 0.0 {
                    s.wall_ms / base_ms
                } else {
                    f64::INFINITY
                };
                regressions.push(format!(
                    "{} [{}]: {:.3} ms vs baseline {:.3} ms — Δ +{:.3} ms ({ratio:.2}×); \
                     limit {:.3} ms (= {:.3} × {factor} + {slack_ms} slack), over by {:.3} ms",
                    s.stage,
                    s.benchmark,
                    s.wall_ms,
                    base_ms,
                    s.wall_ms - base_ms,
                    limit,
                    base_ms,
                    s.wall_ms - limit
                ));
            }
        }
        if regressions.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "perf regression vs baseline (> {factor}× + {slack_ms} ms):\n  {}",
                regressions.join("\n  ")
            ))
        }
    }
}

/// Milliseconds rounded to µs precision (stable rendering).
fn round_ms(ms: f64) -> f64 {
    (ms * 1e3).round() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(wall: f64) -> BenchReport {
        BenchReport {
            config: BenchConfig {
                quick: true,
                ..BenchConfig::default()
            },
            stages: vec![StageSample {
                stage: "place",
                benchmark: "c432".to_string(),
                wall_ms: wall,
                detail: vec![("hpwl_dbu", 123)],
            }],
        }
    }

    #[test]
    fn json_shape_and_table_render() {
        let r = tiny_report(12.5);
        let rendered = r.to_json().render();
        assert!(rendered.contains("\"bench_schema\": 1"));
        assert!(rendered.contains("\"stage\": \"place\""));
        assert!(rendered.contains("\"hpwl_dbu\": 123"));
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.get("quick").and_then(Json::as_bool), Some(true));
        assert!(r.to_table().contains("place"));
        assert!(r.to_table().contains("place+route"));
    }

    #[test]
    fn regression_gate_trips_only_past_factor_plus_slack() {
        let baseline = tiny_report(10.0).to_json();
        // 2× + 50 ms slack: 70 ms is fine, 71 ms trips.
        assert!(tiny_report(70.0)
            .check_against(&baseline, 2.0, 50.0)
            .is_ok());
        let err = tiny_report(70.1)
            .check_against(&baseline, 2.0, 50.0)
            .unwrap_err();
        assert!(err.contains("place [c432]"), "{err}");
        // Stages missing from the baseline are not regressions.
        let mut grown = tiny_report(1.0);
        grown.stages.push(StageSample {
            stage: "route",
            benchmark: "c432".to_string(),
            wall_ms: 999.0,
            detail: Vec::new(),
        });
        assert!(grown.check_against(&baseline, 2.0, 50.0).is_ok());
    }

    #[test]
    fn mismatched_workloads_are_rejected() {
        let baseline = tiny_report(1.0).to_json();
        let mut full = tiny_report(1.0);
        full.config.quick = false;
        assert!(full.check_against(&baseline, 2.0, 50.0).is_err());
        let mut scaled = tiny_report(1.0);
        scaled.config.scale = 10;
        assert!(scaled.check_against(&baseline, 2.0, 50.0).is_err());
        let mut reseeded = tiny_report(1.0);
        reseeded.config.seed = 7;
        assert!(reseeded.check_against(&baseline, 2.0, 50.0).is_err());
    }

    /// The per-benchmark stage pipeline produces the expected stages
    /// with deterministic fingerprints. (The full matrix — including
    /// the cold/warm campaign passes — runs in CI's bench job via
    /// `smctl bench --quick`; exercising it here would double-run the
    /// campaign inside the tier-1 suite.)
    #[test]
    fn layout_stages_are_deterministic() {
        let profile = sm_benchgen::iscas::IscasProfile::c432();
        let mut stages = Vec::new();
        layout_stages(
            &mut stages,
            profile.name,
            FlowConfig::iscas_default,
            &[AttackStage::Flow],
            1,
            &Budget::with_threads(Some(2)),
            || sm_benchgen::iscas::generate(&profile, 1),
        );
        let names: Vec<&str> = stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            names,
            vec![
                "generate",
                "place",
                "place-fm",
                "route",
                "protect",
                "split",
                "attack-flow",
                "attack-flow-score",
                "attack-flow-mcmf",
                "attack-flow-assign",
                "attack-flow-eval"
            ]
        );
        // Fingerprints are deterministic across runs and budgets
        // (timings aside) — including under `min_of` repetition, which
        // must redo the same work and fingerprint identically.
        let mut again = Vec::new();
        layout_stages(
            &mut again,
            profile.name,
            FlowConfig::iscas_default,
            &[AttackStage::Flow],
            2,
            &Budget::with_threads(Some(1)),
            || sm_benchgen::iscas::generate(&profile, 1),
        );
        for (a, b) in stages.iter().zip(&again) {
            assert_eq!(a.stage, b.stage);
            assert_eq!(a.detail, b.detail, "{} [{}]", a.stage, a.benchmark);
        }
        // Every stage carries a non-empty fingerprint.
        for s in &stages {
            assert!(!s.detail.is_empty(), "{} has no fingerprint", s.stage);
        }
        // The sub-kernel stages are slices of their parents.
        let wall_of = |name: &str| {
            stages
                .iter()
                .find(|s| s.stage == name)
                .map(|s| s.wall_ms)
                .unwrap()
        };
        assert!(wall_of("place-fm") <= wall_of("place"));
        assert!(wall_of("attack-flow-score") <= wall_of("attack-flow"));
        assert!(wall_of("attack-flow-mcmf") <= wall_of("attack-flow"));
        assert!(wall_of("attack-flow-assign") <= wall_of("attack-flow"));
        assert!(wall_of("attack-flow-eval") <= wall_of("attack-flow"));
    }

    /// `bundle-decode` times a warm assembly: an ISCAS bundle decodes
    /// its netlist and protect frames (never `layouts/`), and the
    /// fingerprint repeats exactly.
    #[test]
    fn bundle_decode_counts_the_frames_a_warm_assembly_reads() {
        let profile = sm_benchgen::iscas::IscasProfile::c432();
        let budget = Budget::with_threads(Some(2));
        let sample = |min_of| {
            let mut stages = Vec::new();
            bundle_decode_stage(&mut stages, profile.name, min_of, |cache| {
                cache.iscas(&profile, 1, &budget, &mut Recorder::new());
            });
            stages.pop().expect("one sample")
        };
        let (once, twice) = (sample(1), sample(2));
        assert_eq!(once.stage, "bundle-decode");
        assert_eq!(once.detail[0], ("frames", 2));
        assert!(once.detail[1].1 > 0, "{:?}", once.detail);
        assert_eq!(once.detail, twice.detail);
    }

    /// Regression lines carry the full slack math: delta, ratio, and
    /// the limit derivation.
    #[test]
    fn regression_lines_show_delta_and_slack_math() {
        let baseline = tiny_report(10.0).to_json();
        let err = tiny_report(75.0)
            .check_against(&baseline, 2.0, 50.0)
            .unwrap_err();
        assert!(err.contains("Δ +65.000 ms (7.50×)"), "{err}");
        assert!(
            err.contains("limit 70.000 ms (= 10.000 × 2 + 50 slack)"),
            "{err}"
        );
        assert!(err.contains("over by 5.000 ms"), "{err}");
    }
}
