//! `campbench` — the repository's campaign benchmark.
//!
//! ```text
//! campbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times whole campaigns from outside and prints the
//! end-to-end metrics; with `--trace 1` it runs the campaign once
//! untraced and once as a traced replay (see [`replay`]) and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Every report
//! is checked byte for byte (see [`check`]); a mismatch counts the run's
//! jobs as failed and the command exits 1. Usage errors exit 2.
//!
//! Scratch stores live under `.campbench-out/` in the working
//! directory and are removed when the run ends; the traced run's spans
//! are written to `.campbench-out/trace-<workload>-s<seed>.json`.

mod check;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

use sm_engine::{ArtifactStore, Budget, Event, Journal};

use crate::metrics::{result_line, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workload::{Rep, Workload, THREADS};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".campbench-out");
    let scratch = out.join(format!("run-{}", std::process::id()));
    let result = if args.trace {
        traced(&args, &out, &scratch)
    } else {
        measured(&args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(outcome) => {
            println!("{}", outcome.line);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// A finished run: its result line and whether every check passed.
struct Outcome {
    line: String,
    correct: bool,
}

fn rep(
    w: &Workload,
    seed: u64,
    budget: &Budget,
    dir: &Path,
    copy_to: Option<&Path>,
) -> Result<Rep, String> {
    let spec = w.spec(seed);
    if w.served() {
        workload::served_rep(&spec, &w.prime_spec(seed), budget, dir, copy_to)
    } else {
        workload::solo_rep(&spec, budget, dir)
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// `--trace 0`: fixed reps of setup + timed campaign, then the checks.
fn measured(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let w = &args.workload;
    eprintln!("{}: {}", w.name, w.why);
    let budget = Budget::with_threads(Some(THREADS));
    let reference = scratch.join("reference");
    let mut reps = Vec::new();
    for i in 0..w.reps(args.seconds) {
        let dir = scratch.join(format!("rep{i}"));
        let copy_to = (w.served() && i == 0).then_some(reference.as_path());
        reps.push(rep(w, args.seed, &budget, &dir, copy_to)?);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let peak_rss_mb = peak_rss_mb()?;
    let mut verdict = check::reps(&reps);
    if w.served() {
        let solo = workload::solo(&w.spec(args.seed), &budget, &reference)?;
        verdict.merge(check::same_report(
            "solo sweep on the primed store",
            &reps[0],
            &solo,
        ));
    }
    for problem in &verdict.problems {
        eprintln!("check failed: {problem}");
    }

    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let campaigns: Vec<f64> = reps.iter().map(|r| r.campaign_s).collect();
    let walls: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.journal.job_walls_ms.iter().copied())
        .collect();
    if walls.is_empty() {
        return Err("the journals recorded no finished jobs".into());
    }
    let campaign_s = stats::median(&campaigns);
    let tail = stats::tail_level(walls.len());
    let attempted: usize = reps.iter().map(|r| r.jobs).sum();
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", stats::median(&setups)),
        ("campaign_s", campaign_s),
        ("jobs_per_s", reps[0].jobs as f64 / campaign_s),
        ("job_p50_ms", stats::percentile(&walls, 0.5)),
        ("job_p90_ms", stats::percentile(&walls, tail)),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    eprintln!(
        "{} seed {}: {} reps × {} jobs; setup_s and campaign_s are medians of {} samples; \
         job_p50_ms and job_p90_ms (reported at p{:.0}) pool {} job walls; failed_ratio {}/{}",
        w.name,
        args.seed,
        reps.len(),
        reps[0].jobs,
        reps.len(),
        tail * 100.0,
        walls.len(),
        verdict.failed_jobs(),
        attempted,
    );
    eprintln!("setup_s samples {setups:.4?}; campaign_s samples {campaigns:.4?}");
    Ok(Outcome {
        line: result_line(
            verdict.ok(),
            attempted as u64,
            verdict.failed_jobs() as u64,
            &END_TO_END,
            &values,
        ),
        correct: verdict.ok(),
    })
}

/// Mean µs per `Journal::record`, re-recording `events` into a scratch
/// journal at `path`.
fn append_us(events: &[Event], path: &Path) -> f64 {
    let journal = Journal::at(path);
    let t = Instant::now();
    for event in events {
        journal.record(event);
    }
    t.elapsed().as_secs_f64() * 1e6 / events.len().max(1) as f64
}

/// `--trace 1`: one untraced rep, then the traced replay of the same
/// campaign over a fresh store (`served-warm`: over a copy of the primed
/// store), whose report must match the untraced one byte for byte.
fn traced(args: &Args, out: &Path, scratch: &Path) -> Result<Outcome, String> {
    let w = &args.workload;
    let spec = w.spec(args.seed);
    let budget = Budget::with_threads(Some(THREADS));
    let replay_store = scratch.join("replay");
    let copy_to = w.served().then_some(replay_store.as_path());
    let untraced = rep(w, args.seed, &budget, &scratch.join("rep0"), copy_to)?;

    let tracer = Tracer::default();
    let replay = replay::Replay::new(&tracer, ArtifactStore::open(&replay_store, None));
    let campaign = replay.run(&spec, &budget)?;
    let traced_s = campaign.total_wall.as_secs_f64();
    let report = campaign
        .to_json(sm_engine::ReportOptions::default())
        .render();
    let mut verdict = check::reps(std::slice::from_ref(&untraced));
    verdict.merge(check::same_report("traced replay", &untraced, &report));
    for problem in &verdict.problems {
        eprintln!("check failed: {problem}");
    }

    let spans = tracer.spans();
    let self_us = trace::self_times(&spans);
    let ms = |name: &str| self_us.get(name).copied().unwrap_or(0.0) / 1e3;
    let layer_ms: f64 = self_us
        .iter()
        .filter(|(name, _)| !matches!(**name, "campaign" | "job" | "bundle" | "probe"))
        .map(|(_, us)| us / 1e3)
        .sum();
    let facts = &untraced.journal;
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let store = replay.store().stats();
    let cache = facts.cache;
    let untraced_ms = untraced.campaign_s * 1e3;
    let events = sm_engine::journal::read_events(&facts.path)?;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix("_ms") {
            values.insert(name, ms(span));
        }
    }
    values.extend([
        ("job.self_ms", ms("job") + ms("bundle")),
        ("core.swaps", count(&replay.counts.swaps)),
        ("layout.vpins", count(&replay.counts.vpins)),
        ("attacks.mcmf_demand", count(&replay.counts.mcmf_demand)),
        ("codec.raw_bytes", count(&replay.counts.raw_bytes)),
        ("codec.stored_bytes", count(&replay.counts.stored_bytes)),
        ("store.disk_hits", store.disk_hits as f64),
        ("store.disk_misses", store.disk_misses as f64),
        ("store.writes", store.writes as f64),
        ("cache.builds", cache.builds as f64),
        ("cache.hits", cache.hits as f64),
        ("cache.released", cache.released as f64),
        ("cache.decodes", facts.decodes as f64),
        (
            "cache.hit_ratio",
            cache.hits as f64 / cache.requests().max(1) as f64,
        ),
        ("journal.events", facts.events as f64),
        ("journal.bytes", facts.bytes as f64),
        (
            "journal.append_us",
            append_us(&events, &scratch.join("probe.journal")),
        ),
        (
            "serve.queue_wait_ms",
            if w.served() {
                (untraced_ms - facts.total_wall_ms).max(0.0)
            } else {
                0.0
            },
        ),
        ("serve.steals", untraced.steals as f64),
        (
            "serve.report_bytes",
            if w.served() {
                untraced.report.len() as f64
            } else {
                0.0
            },
        ),
        ("exec.peak_live", facts.peak_live as f64),
        (
            "exec.utilization",
            facts.job_walls_ms.iter().sum::<f64>() / (untraced_ms * THREADS as f64),
        ),
        ("trace.campaign_s", traced_s),
        ("trace.untraced_campaign_s", untraced.campaign_s),
        ("trace.coverage", layer_ms / (untraced_ms * THREADS as f64)),
        ("trace.overhead", traced_s / untraced.campaign_s - 1.0),
        ("trace.spans", spans.len() as f64),
    ]);
    let trace_file = out.join(format!("trace-{}-s{}.json", w.name, args.seed));
    std::fs::write(&trace_file, trace::spans_json(&spans))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    eprintln!(
        "{} seed {}: traced replay {:.3} s vs untraced {:.3} s; {} spans written to {}",
        w.name,
        args.seed,
        traced_s,
        untraced.campaign_s,
        spans.len(),
        trace_file.display()
    );
    Ok(Outcome {
        line: result_line(
            verdict.ok(),
            untraced.jobs as u64,
            verdict.failed_jobs() as u64,
            &PER_LAYER,
            &values,
        ),
        correct: verdict.ok(),
    })
}
