//! `smctl` — the unified CLI over the experiment-campaign engine.
//!
//! `smctl help` prints one usage line per command, generated from the
//! flag table in `sm_bench::cli`, then what the commands do: `run`
//! regenerates the printed tables and figures, `sweep` runs a campaign
//! into a JSON/CSV report, `resume` re-runs the missing, timed-out and
//! failed jobs of one, `merge` combines sharded reports, `report`
//! re-renders a stored report or journal, `events` and `tail` print or
//! stream a campaign journal, `bench` runs the perf harness, `chaos` the
//! fault-injection smoke, `store` inspects and maintains the artifact
//! store, and `serve`, `stop`, `submit` and `status` run, stop, feed and
//! query the campaign service.
//!
//! `smctl run all` regenerates all nine artifacts through one shared
//! bundle cache (each benchmark's layouts are built exactly once; the
//! hit count is printed at the end). `smctl sweep` runs the cartesian
//! product benchmarks × seeds × split layers × attacks on the engine's
//! thread pool and emits a canonical report that is byte-identical
//! across runs of the same spec.
//!
//! Both commands persist bundles and finished job results under
//! `.sm-store/` (override with `--store DIR`, disable with
//! `--no-store`), so a second invocation decodes warm artifacts instead
//! of rebuilding them — the canonical reports stay byte-identical
//! either way, which CI enforces.
//!
//! Store-backed campaigns additionally journal every lifecycle event
//! (campaign/job started/finished, bundles built) into an append-only,
//! checksummed log under `.sm-store/journal/`, flushed per record — so
//! a killed sweep loses nothing: `smctl resume <store-or-journal>`
//! replays the log and re-runs only the jobs without a `job-finished`
//! record, and `smctl tail`/`smctl events` stream progress live.
//!
//! Resources are one [`sm_exec::Budget`] per invocation: `--threads`
//! bounds the worker pool (campaign jobs, bundle builds and nested
//! bisection sweeps all share it — the count is a hard ceiling, not a
//! per-layer multiplier) and `--timeout-secs` attaches a deadline. Jobs
//! picked up past the deadline are recorded timed-out in the report,
//! the command exits with status 3, and `smctl resume` re-runs exactly
//! those jobs — completing to a report byte-identical to an
//! uninterrupted run.
//!
//! A job that *panics* never takes the pool (or the process) down with
//! it: the campaign isolates the panic, records the job `failed` in the
//! report and journal, exits with status 4, and `smctl resume` re-runs
//! it like any other placeholder. `--fault-seed`/`--fault-profile`
//! inject deterministic faults (panics, transient and persistent I/O
//! errors) for exactly this path; `smctl chaos` runs the whole
//! crash→resume→byte-diff cycle as one smoke command.

#![forbid(unsafe_code)]

use std::collections::HashSet;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

use sm_bench::artifacts::{artifact_by_name, ARTIFACTS};
use sm_bench::cli::{usage, Args, Cmd};
use sm_bench::session::Session;
use sm_bench::RunOptions;
use sm_engine::campaign::{merge_reports, run_sweep_budgeted, Campaign, CampaignRun, SweepSpec};
use sm_engine::job::AttackKind;
use sm_engine::journal::{find_journal, materialize, read_events, Event, JournalFollower};
use sm_engine::report::{Json, ReportOptions};
use sm_engine::serve::{client_shutdown, client_status, client_submit, serve, ServeConfig};
use sm_engine::store::ArtifactStore;
use sm_engine::ArtifactCache;
use sm_exec::fault::FaultProfile;

/// `smctl help` after its generated USAGE block.
const HELP: &str = "\
Every flag is optional, except that `serve`, `stop`, `submit` and
`status` need --socket and `report` needs --input or --journal.

ARTIFACTS:
    table1 table2 table3 table4 table5 table6 fig4 fig5 fig6 all

SWEEP AXES (sweep and submit):
    --benchmarks   comma list of designs, or the groups `iscas`,
                   `superblue`, `all` (default: all ISCAS-85 designs,
                   narrowed to c432,c880 by --quick)
    --seeds        comma list (`1,2,5`) and/or Rust ranges (`1..8`
                   half-open, `1..=8` inclusive); default 1
    --split-layers comma list of metal layers, e.g. `3,4,6` (default 3,4,5)
    --attacks      comma list of `flow`, `crouting` (default flow)
    --seed         campaign master seed folded into every derived seed
    --layout-seed  pin the layout (place+route) seed: every seed of the
                   sweep shares ONE bundle per benchmark (built or decoded
                   once), and the flow attack's connection guess is solved
                   once per design × layer × arm; only its OER/HD
                   evaluation varies per seed. Unset, each seed builds its
                   own bundle (historical reports stay byte-identical)

SWEEP ONLY:
    --jobs         run only these job indices of the expansion, e.g.
                   `0,2,5..9` (the report stays mergeable via resume)
    --shard K/N    run shard K of N (1-based): the K-th of N balanced
                   contiguous ranges of the expansion, the ranges a fleet
                   of N workers starts on, so a shard builds only its own
                   bundles; merge the partial reports with `smctl merge`
    --workers N    run on a fleet of N workers (see SERVE)
    --kill W@K,... kill worker W at its first pickup after K completed jobs
    --timings      include wall-clock + cache diagnostics (report is then
                   no longer byte-identical across runs)

RESOURCES:
    --threads N       one thread budget for the whole invocation: campaign
                      jobs, bundle builds and nested bisection sweeps share
                      a single worker pool of N threads (never more live
                      workers than N). Default: machine parallelism.
    --timeout-secs N  campaign deadline. Jobs picked up after it are
                      recorded `timed_out` in the JSON report (excluded
                      from CSV/aggregates), the command exits with status
                      3, and `smctl resume` re-runs exactly those jobs;
                      the resumed report is byte-identical to an
                      uninterrupted run.

FAULTS:
    A panicking job never poisons the worker pool: the campaign catches
    the panic, records the job `failed` (phase + message) in the report
    and journal, and keeps going. A run with failed jobs exits with
    status 4 and leaves a resumable report; `smctl resume` re-runs
    failed jobs exactly like timed-out ones. Transient store/journal
    I/O errors retry up to 3 times on a deterministic backoff schedule;
    persistent store failures (disk full, permissions, corruption) drop
    the run into a memory-only degraded store after 3 strikes, and
    journal-append failures degrade to journal-less operation — both
    warn once on stderr and never change the canonical report bytes.

    --fault-seed N     inject deterministic faults derived from seed N
                       (panics, transient/persistent I/O errors). The
                       same seed fails the same operations on the same
                       artifacts regardless of --threads or store
                       location — rerun with the seed to reproduce.
                       Defaults the profile to `aggressive`.
    --fault-profile P  injection rates: off|light|aggressive
                       (default seed: 0)
    `smctl chaos` runs the full cycle as one smoke command: a quick
    sweep under injected faults, a fault-free resume, and a byte-diff
    of the resumed report against a fault-free baseline (non-zero exit
    on any mismatch). `smctl resume` never injects faults.

BENCH:
    `smctl bench` times every pipeline stage (generate/place/route/
    protect/split/attacks — flow everywhere, plus crouting on
    superblue, all gated vs the baseline) over the quick ISCAS selection plus superblue18,
    plus five campaign stages: a quick campaign against a cold store,
    then warm, warm with the journal attached and warm with a
    never-firing fault plan (campaign-cold/-warm/-journal/-faults), and
    a four-seed sweep pinned to one layout (campaign-incremental). It
    emits a BENCH.json perf-trajectory point (stdout or --out).
    --threads N bounds every stage, the layout stages included. The hot
    kernels also report their own sub-stages (place-fm,
    attack-flow-score, attack-flow-mcmf, attack-flow-assign,
    attack-flow-eval), timed by the kernels' phase instrumentation.
    Wall times are machine-dependent; every other field is
    deterministic. --min-of N repeats each layout stage N times and
    records the minimum wall (the campaign stages always run once —
    their cold/warm deltas are stateful). With --baseline FILE it exits
    non-zero if any stage runs slower than --max-regression (default
    2.0) × the baseline plus a small slack; a failure line carries the
    full slack math (delta, ratio, limit derivation).

STORE:
    run/sweep/resume persist every bundle stage (netlists, place+route
    layouts, protected designs, lifted layouts) and job outcomes under
    .sm-store/ by default, LZ-compressed; FEOL splits are derived in
    memory, never stored (`store doctor` removes an older store's
    splits/ frames). A warm run takes each bundle's original layout
    from its protect frame and reads layouts/ only to rebuild a
    missing protect stage. --store DIR relocates it,
    --no-store disables it, --store-cap SIZE (bytes, or K/M/G) bounds
    it with LRU eviction. Concurrent invocations sharing one store
    coordinate eviction through a lock file, so one cap governs them
    all; `store stats` breaks usage down per stage and reports the
    compression ratio, `store gc` honors the same lock.
    `store doctor` scans every frame, reports per-stage valid/legacy/
    corrupt counts and moves corrupt frames to `quarantine/` (legacy
    v1 bundles are counted but left in place); it removes the unread
    splits/ frames and says how many.

JOURNAL:
    Store-backed sweeps append every lifecycle event (campaign/job
    started/finished/timed-out/failed, bundles built) to a checksummed log at
    .sm-store/journal/c-<spec>.journal, flushed per record — an OS kill
    loses at most the half-written tail record, which readers truncate
    away. `smctl events DIR` prints the log (`--follow` streams until
    campaign-finished; `--format json` emits one compact object per
    line); `smctl tail DIR` is sugar for `events --follow`. The
    canonical report is a deterministic materialization of the journal:
    `smctl report --journal DIR` renders it byte-identically to the
    sweep's own output, and `smctl resume DIR` re-runs exactly the jobs
    without a job-finished record, appending to the same log.

SERVE:
    Every campaign runs on one work-stealing fleet: its jobs are split
    into contiguous ranges, one per worker, idle workers steal ranges
    from loaded ones, and all workers share the --threads budget.
    `sweep`, `resume` and `chaos` run min(--threads, jobs) workers.
    `smctl sweep --workers N` runs N workers instead, and --kill W@K
    kills worker W at its first pickup after K completed jobs,
    re-queueing its remaining ranges for the others. Steal tie-breaks
    are seeded from --seed, as a live service's are. The report is
    byte-identical to a plain `smctl sweep` of the spec whatever the
    fleet's shape — the CI determinism gate runs exactly this.

    `smctl serve` runs the campaign service: it listens on a Unix-domain
    socket, admits sweep specs into a bounded queue (past --max-queued,
    submissions are rejected — back-pressure, not unbounded buffering),
    and executes one campaign at a time on a fleet of --workers workers
    (default 2).
    The service holds the store's maintenance lock for its lifetime, so
    eviction needs no per-sweep lock dance. Reports are canonical:
    byte-identical to `smctl sweep` of the same spec, whatever the
    worker count or steal pattern. Duplicate submissions of a spec
    already queued, running or completed attach to that campaign instead
    of re-running.

    `smctl submit` sends one sweep to a running service and prints the
    final report (exit codes match `sweep`: 3 timed-out, 4 failed);
    --follow streams the campaign's journal events to stderr while it
    runs. `smctl status` prints a queue snapshot. `smctl stop` drains
    the queue and shuts the service down.

FORMATS:
    json      canonical campaign report (storable, resumable)
    csv       one row per flow job / crouting box
    agg-csv   mean/std_dev/min/max over seeds per sweep point
    table     human-readable aggregate table

`smctl resume` re-runs only the jobs missing from (or timed-out/failed
in) a stored report — e.g. after an interrupted, timed-out, crashed or
--jobs-filtered run — and merges the results into the canonical JSON
report (to --out
for `--format json`, in place otherwise; non-JSON formats are additional
views and never replace the stored report).

`smctl merge` combines several partial reports of the SAME sweep spec
(e.g. the shards of a --shard K/N run) into one canonical report,
without re-running anything. Later files win on duplicate jobs, except
that a finished job never loses to a timed-out one; exits with status 3
if the merged report is still incomplete (finish it with resume).

All value flags accept both `--flag N` and `--flag=N`. Reports print to
stdout (or --out FILE); the run summary, including bundle-cache and
store hit counts, prints to stderr.
";

fn main() -> ExitCode {
    exit_quietly_when_stdout_closes();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let help = format!(
        "smctl — split-manufacturing experiment campaigns\n\nUSAGE:\n{}\n{HELP}",
        usage()
    );
    let Some((name, rest)) = argv.split_first() else {
        eprint!("{help}");
        return ExitCode::from(2);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{help}");
        return ExitCode::SUCCESS;
    }
    let result = Cmd::from_name(name)
        .ok_or_else(|| format!("unknown command `{name}`; see `smctl help`"))
        .and_then(|cmd| {
            let args = Args::parse(cmd, rest)?;
            match cmd {
                Cmd::Run => cmd_run(args),
                Cmd::Sweep => cmd_sweep(args),
                Cmd::Resume => cmd_resume(args),
                Cmd::Merge => cmd_merge(args),
                Cmd::Report => cmd_report(args),
                Cmd::Events => cmd_events(args, false),
                Cmd::Tail => cmd_events(args, true),
                Cmd::Bench => cmd_bench(args),
                Cmd::Chaos => cmd_chaos(args),
                Cmd::Store => cmd_store(args),
                Cmd::Serve => cmd_serve(args),
                Cmd::Stop => cmd_stop(args),
                Cmd::Submit => cmd_submit(args),
                Cmd::Status => cmd_status(args),
            }
        });
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `print!` panics once stdout's reader has gone (`smctl … | head`).
/// That is the reader's choice, not a failure, so exit 0 without a
/// message; every other panic reaches the default hook. The events,
/// tables and help that `smctl` prints go through `print!`/`println!`
/// for this reason: their commands exit 0 anyway. Reports go through
/// [`emit`] instead, which ignores a closed stdout, so a campaign's exit
/// status survives it. SIGPIPE stays ignored, so a `--follow` client
/// hanging up on `serve`'s socket is a write error there, never a dead
/// service.
fn exit_quietly_when_stdout_closes() {
    /// `EPIPE` on Linux, macOS and the BSDs.
    const EPIPE: i32 = 32;
    let closed = format!(
        "failed printing to stdout: {}",
        std::io::Error::from_raw_os_error(EPIPE)
    );
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload_as_str() == Some(closed.as_str()) {
            std::process::exit(0);
        }
        default_hook(info);
    }));
}

/// Exit status for a campaign that finished with timed-out jobs (the
/// report is written; `smctl resume` completes it).
const EXIT_TIMED_OUT: u8 = 3;

/// Exit status for a campaign in which jobs panicked (isolated and
/// recorded `failed`; the report is written, `smctl resume` re-runs
/// them). Takes precedence over [`EXIT_TIMED_OUT`] — a crash is the
/// louder signal.
const EXIT_FAILED: u8 = 4;

/// The exit code a finished campaign maps to: success when complete,
/// [`EXIT_FAILED`] when jobs panicked, [`EXIT_TIMED_OUT`] when overdue
/// jobs were recorded.
fn campaign_exit(campaign: &Campaign, context: &str) -> ExitCode {
    let failed = campaign.failed();
    if failed > 0 {
        eprintln!("{failed} job(s) failed; run `smctl resume {context}` to re-run them");
        return ExitCode::from(EXIT_FAILED);
    }
    let timed_out = campaign.timed_out();
    if timed_out == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("{timed_out} job(s) timed out; run `smctl resume {context}` to complete them");
    ExitCode::from(EXIT_TIMED_OUT)
}

/// `smctl run <artifact...>`: shared session, shared bundle cache.
fn cmd_run(args: Args) -> Result<ExitCode, String> {
    if let Some(name) = args
        .positional
        .iter()
        .find(|name| *name != "all" && artifact_by_name(name).is_none())
    {
        return Err(format!("unknown artifact `{name}`"));
    }
    let names: Vec<&str> = if args.positional.iter().any(|name| name == "all") {
        ARTIFACTS.iter().map(|(n, _, _)| *n).collect()
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    if names.is_empty() {
        return Err("`smctl run` needs at least one artifact (or `all`)".into());
    }
    let session = Session::new(args.opts);
    // Declare the artifact list so each bundle is released from memory
    // after its last consuming artifact instead of pinning the whole
    // selection for the run.
    session.reserve_for_artifacts(&names);
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            println!();
        }
        artifact_by_name(name).expect("artifact names are checked above")(&session);
    }
    let stats = session.cache_stats();
    eprintln!(
        "bundle cache: {} builds, {} hits, {} disk hits over {} artifact(s)",
        stats.builds,
        stats.hits,
        stats.disk_hits,
        names.len()
    );
    print_store_stats(session.cache());
    Ok(ExitCode::SUCCESS)
}

/// `smctl sweep`: expand axes, run on the fleet, emit the report.
fn cmd_sweep(args: Args) -> Result<ExitCode, String> {
    let format = report_format(args.format.as_deref())?;
    let spec = &args.spec;
    // Both selections leave partial reports that merge byte-stably via
    // `smctl merge` or `smctl resume`.
    let run = match (args.jobs, args.shard) {
        (Some(_), Some(_)) => return Err("--shard and --jobs are mutually exclusive".into()),
        (Some(indices), None) => CampaignRun::new(spec)?.jobs(&indices)?,
        (None, Some((k, n))) => CampaignRun::new(spec)?.shard(k, n)?,
        (None, None) => CampaignRun::new(spec)?,
    };

    let cache = args.opts.cache(Some(spec), None);
    // One budget for the whole sweep: `--threads` worth of workers
    // shared by jobs, bundle builds and nested bisection sweeps, with
    // the `--timeout-secs` deadline attached.
    let budget = args.opts.budget();
    let campaign = match args.workers {
        Some(workers) => {
            let (campaign, fleet) = run.run_fleet(workers, &args.kills, &budget, &cache)?;
            eprintln!(
                "fleet: {workers} worker(s), {} steal(s), {} death(s)",
                fleet.steals, fleet.deaths
            );
            campaign
        }
        None if args.kills.is_empty() => run.run(&budget, &cache),
        None => return Err("--kill needs --workers N".into()),
    };
    if let Some(journal) = cache.journal() {
        if journal.degraded() {
            eprintln!("journal degraded: this run was not journaled");
        } else {
            eprintln!("journal: {}", journal.path().display());
        }
    }
    let out_path = args.out.as_deref();
    // A timed-out or crashed sweep must always leave a *resumable*
    // canonical report behind. Non-JSON formats drop placeholder jobs
    // from their rows (and cannot be parsed back), and JSON-to-stdout
    // leaves no file at all, so in either case the canonical JSON also
    // goes to a sidecar — otherwise the finished jobs would be
    // unrecoverable and the `resume` hint would name nothing. The
    // sidecar goes first: a stdout whose reader hung up ends `smctl`
    // at the report.
    let resume_path = if campaign.timed_out() == 0 && campaign.failed() == 0 {
        None
    } else if format == "json" && out_path.is_some() {
        out_path.map(str::to_string)
    } else {
        let side = format!("{}.resume.json", out_path.unwrap_or("sweep"));
        emit(&render_campaign(&campaign, "json", false), Some(&side))?;
        Some(side)
    };
    emit(&render_campaign(&campaign, format, args.timings), out_path)?;
    eprintln!("{}", campaign.summary());
    print_store_stats(&cache);
    Ok(campaign_exit(
        &campaign,
        resume_path.as_deref().unwrap_or("<report.json>"),
    ))
}

/// One stderr line of store counters, when a store is attached; it
/// names the cap sweeps skipped beside a lock holder, if any.
fn print_store_stats(cache: &ArtifactCache) {
    if let Some(store) = cache.store() {
        let s = store.stats();
        let skips = if s.gc_skips == 0 {
            String::new()
        } else {
            format!(
                ", {} cap sweep(s) skipped: a live peer holds the store lock",
                s.gc_skips
            )
        };
        eprintln!(
            "store: {} disk hits, {} misses, {} writes, {} evictions{skips}",
            s.disk_hits, s.disk_misses, s.writes, s.evictions
        );
    }
}

/// `smctl resume <report.json>`: re-run only the jobs missing from (or
/// timed-out in) a stored campaign report and merge the results back in.
fn cmd_resume(args: Args) -> Result<ExitCode, String> {
    let path = args
        .positional
        .first()
        .ok_or("`smctl resume` needs a stored report, journal or store dir")?;
    let format = report_format(args.format.as_deref())?;
    // The input may be a canonical JSON report, a journal file, or a
    // directory holding one (a store dir like `.sm-store`): directories
    // and SMJL-magic files replay the event log, anything else parses
    // as a JSON report.
    let input_path = Path::new(path);
    let journal_input = if input_path.is_dir() {
        Some(find_journal(input_path)?)
    } else {
        let mut magic = [0u8; 4];
        std::fs::File::open(input_path)
            .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut magic))
            .is_ok_and(|()| magic == sm_engine::journal::JOURNAL_MAGIC)
            .then(|| input_path.to_path_buf())
    };
    let stored = match &journal_input {
        Some(journal_path) => materialize(&read_events(journal_path)?)
            .map_err(|e| format!("{}: {e}", journal_path.display()))?,
        None => read_report(path)?.1,
    };

    let present = stored.outcomes.len();
    let (timed_out, failed) = (stored.timed_out(), stored.failed());
    let total = stored.spec.jobs()?.len();
    let spec = stored.spec.clone();
    let run = CampaignRun::resume(stored)?;
    eprintln!(
        "{}: {present} of {total} jobs present ({timed_out} timed out, {failed} failed), {} to run",
        journal_input
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| path.clone()),
        run.selected().len()
    );

    // The resumed jobs journal into the input log (journal input), or
    // into the store's spec-fingerprinted journal (report input over a
    // store) — either way, resume is log concatenation.
    let cache = args.opts.cache(Some(&spec), journal_input.as_deref());
    // A resume gets its own budget — and may itself carry a
    // `--timeout-secs` deadline, in which case still-unfinished jobs
    // stay timed-out and another resume continues from there. Its
    // campaign-started record is tolerated as a duplicate by
    // materialize (same spec).
    let campaign = run.run(&args.opts.budget(), &cache);
    // The canonical JSON report is always preserved. Report input: it
    // goes to --out for `--format json`, otherwise the input file is
    // updated in place. Journal input: the journal itself holds the
    // campaign state, so the canonical JSON goes to --out/stdout and
    // the input is never overwritten. Non-JSON renderings are *views*
    // — they go to --out or stdout and never replace stored state.
    let canonical = render_campaign(&campaign, "json", false);
    let canonical_path = match (journal_input.is_some(), format) {
        (false, "json") => Some(args.out.clone().unwrap_or_else(|| path.clone())),
        (false, _) => Some(path.clone()),
        (true, "json") => args.out.clone(),
        (true, _) => None,
    };
    match &canonical_path {
        Some(p) => emit(&canonical, Some(p.as_str()))?,
        None if format == "json" => emit(&canonical, None)?,
        None => {}
    }
    if format != "json" {
        emit(
            &render_campaign(&campaign, format, false),
            args.out.as_deref(),
        )?;
    }
    eprintln!("{}", campaign.summary());
    print_store_stats(&cache);
    Ok(campaign_exit(
        &campaign,
        canonical_path.as_deref().unwrap_or(path.as_str()),
    ))
}

/// `smctl merge <report.json...>`: combine partial reports of one sweep
/// (e.g. `--shard K/N` outputs) into a single canonical report, without
/// re-running any job.
fn cmd_merge(args: Args) -> Result<ExitCode, String> {
    let inputs = &args.positional;
    if inputs.len() < 2 {
        return Err("`smctl merge` needs at least two report files".into());
    }
    let mut reports = Vec::with_capacity(inputs.len());
    for path in inputs {
        reports.push(read_report(path)?.1);
    }
    let merged = merge_reports(reports)?;
    let total = merged.spec.jobs()?.len();
    let complete = merged
        .outcomes
        .iter()
        .filter(|o| !o.metrics.is_placeholder())
        .count();
    emit(
        &render_campaign(&merged, "json", false),
        args.out.as_deref(),
    )?;
    eprintln!(
        "merged {} report(s): {complete} of {total} jobs finished{}{}",
        inputs.len(),
        if merged.timed_out() > 0 {
            format!(", {} timed out", merged.timed_out())
        } else {
            String::new()
        },
        if merged.failed() > 0 {
            format!(", {} failed", merged.failed())
        } else {
            String::new()
        }
    );
    if complete < total {
        eprintln!("merged report is incomplete; finish it with `smctl resume`");
        return Ok(ExitCode::from(EXIT_TIMED_OUT));
    }
    Ok(ExitCode::SUCCESS)
}

/// `smctl store stats|gc|clear|doctor`: inspect and maintain the
/// artifact store without running anything.
fn cmd_store(args: Args) -> Result<ExitCode, String> {
    let action = args
        .positional
        .first()
        .ok_or("`smctl store` needs an action: stats|gc|clear|doctor")?;
    let cap = args.opts.store_cap;
    let dir = args
        .opts
        .store
        .as_deref()
        .expect("`smctl store` rejects --no-store");
    let store = ArtifactStore::open(dir, cap);
    match action.as_str() {
        "stats" => {
            let usage = store.usage();
            println!(
                "{dir}: {} file(s), {} bytes ({:.2}x compression){}",
                usage.files,
                usage.bytes,
                usage.compression_ratio(),
                match cap {
                    Some(cap) => format!(" (cap {cap})"),
                    None => String::new(),
                }
            );
            // Per-stage breakdown: which pipeline stage the bytes hold,
            // so `--layout-seed` sweeps can verify one place+route
            // artifact serves many jobs.
            for (stage, s) in &usage.stages {
                if s.files == 0 {
                    continue;
                }
                println!(
                    "  {:<12} {:>6} file(s) {:>12} bytes ({:.2}x)",
                    stage.label(),
                    s.files,
                    s.bytes,
                    if s.bytes == 0 {
                        1.0
                    } else {
                        s.raw_bytes as f64 / s.bytes as f64
                    }
                );
            }
        }
        "gc" => {
            let cap = cap.ok_or("`smctl store gc` needs --store-cap SIZE")?;
            let evicted = store.gc_to(cap);
            let usage = store.usage();
            let evicted = evicted.ok_or_else(|| {
                format!(
                    "{dir}: skipped, a live peer (e.g. `smctl serve`) holds the store lock; \
                     {} file(s), {} bytes remain",
                    usage.files, usage.bytes
                )
            })?;
            println!(
                "{dir}: evicted {evicted} file(s); {} file(s), {} bytes remain",
                usage.files, usage.bytes
            );
        }
        "clear" => {
            let removed = store.clear();
            println!("{dir}: removed {removed} file(s)");
        }
        "doctor" => {
            let health = store.doctor();
            println!(
                "{dir}: {} corrupt frame(s), {} moved to quarantine/",
                health.corrupt(),
                health.quarantined
            );
            for (stage, s) in &health.stages {
                if s.valid + s.legacy + s.corrupt == 0 {
                    continue;
                }
                println!(
                    "  {:<12} {:>6} valid {:>4} legacy {:>4} corrupt",
                    stage.label(),
                    s.valid,
                    s.legacy,
                    s.corrupt
                );
            }
            if health.legacy_bundles > 0 {
                println!(
                    "  legacy v1 bundles/: {} file(s) (left in place; decoded never, gc'd by age)",
                    health.legacy_bundles
                );
            }
            if health.splits_removed > 0 {
                println!(
                    "  splits/: removed {} unread frame(s) (split views are derived in memory)",
                    health.splits_removed
                );
            }
            // Corrupt frames are a diagnosis, not an error: they are
            // quarantined, and the store rebuilds the artifacts on
            // demand. A quarantine *failure* (undeletable frame) is
            // worth a non-zero exit, as the bad frame is still live.
            if health.corrupt() > health.quarantined {
                eprintln!(
                    "warning: {} corrupt frame(s) could not be quarantined",
                    health.corrupt() - health.quarantined
                );
                return Ok(ExitCode::from(2));
            }
        }
        other => {
            return Err(format!(
                "unknown store action `{other}` (stats|gc|clear|doctor)"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `smctl serve`: the campaign service.
fn cmd_serve(args: Args) -> Result<ExitCode, String> {
    let socket = args.socket.ok_or("`smctl serve` needs --socket PATH")?;
    let store = args
        .opts
        .store
        .clone()
        .expect("`smctl serve` rejects --no-store");
    let config = ServeConfig {
        socket: socket.into(),
        workers: args.workers.unwrap_or(2),
        max_queued: args.max_queued,
        store: store.into(),
        store_cap: args.opts.store_cap,
    };
    serve(&config, &args.opts.budget())?;
    eprintln!("service stopped");
    Ok(ExitCode::SUCCESS)
}

/// `smctl stop`: drain a running service and shut it down.
fn cmd_stop(args: Args) -> Result<ExitCode, String> {
    let socket = args.socket.ok_or("`smctl stop` needs --socket PATH")?;
    client_shutdown(Path::new(&socket))?;
    eprintln!("service at {socket} drained and stopped");
    Ok(ExitCode::SUCCESS)
}

/// `smctl submit`: send one sweep to a running service, print its
/// canonical report (exit codes match `sweep`).
fn cmd_submit(args: Args) -> Result<ExitCode, String> {
    let socket = args.socket.ok_or("`smctl submit` needs --socket PATH")?;
    let format = report_format(args.format.as_deref())?;

    let mut progress = EventProgress::default();
    let json = client_submit(
        Path::new(&socket),
        &args.spec,
        args.follow,
        |fingerprint, jobs, queued| {
            eprintln!(
                "accepted campaign c-{fingerprint:016x}: {jobs} job(s), {queued} campaign(s) ahead"
            );
        },
        |event| eprintln!("{}", progress.render_line(event)),
    )?;
    let campaign = Campaign::from_json(
        &Json::parse(&json).map_err(|e| format!("parsing service report: {e}"))?,
    )?;
    // The canonical JSON passes through verbatim — the service's bytes
    // are the deliverable; other formats re-render from the parse.
    let rendered = if format == "json" {
        json
    } else {
        render_campaign(&campaign, format, false)
    };
    emit(&rendered, args.out.as_deref())?;
    eprintln!("report: {} job outcome(s)", campaign.outcomes.len());
    Ok(campaign_exit(&campaign, "<report.json>"))
}

/// `smctl status`: one queue snapshot from a running service.
fn cmd_status(args: Args) -> Result<ExitCode, String> {
    let socket = args.socket.ok_or("`smctl status` needs --socket PATH")?;
    let status = client_status(Path::new(&socket))?;
    println!("workers:    {}", status.workers);
    println!("queued:     {}", status.queued);
    println!(
        "running:    {}",
        status
            .running
            .map(|fp| format!("c-{fp:016x}"))
            .unwrap_or_else(|| "-".into())
    );
    println!("completed:  {}", status.completed);
    println!("steals:     {}", status.steals);
    println!("jobs done:  {}", status.jobs_done);
    Ok(ExitCode::SUCCESS)
}

/// A report command's `--format`, `json` when none is given.
fn report_format(format: Option<&str>) -> Result<&str, String> {
    match format.unwrap_or("json") {
        format @ ("json" | "csv" | "agg-csv" | "table") => Ok(format),
        other => Err(format!(
            "unknown --format `{other}` (expected json|csv|agg-csv|table)"
        )),
    }
}

/// Reads a stored JSON report through the one report parser.
fn read_report(path: &str) -> Result<(Json, Campaign), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let parsed = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let campaign = Campaign::from_json(&parsed).map_err(|e| format!("{path}: {e}"))?;
    Ok((parsed, campaign))
}

fn render_campaign(campaign: &Campaign, format: &str, timings: bool) -> String {
    let report_opts = ReportOptions {
        include_timings: timings,
    };
    match format {
        "json" => campaign.to_json(report_opts).render(),
        "csv" => campaign.to_csv(report_opts),
        "agg-csv" => campaign.aggregates_to_csv(),
        _ => campaign.to_table(),
    }
}

fn emit(rendered: &str, out_path: Option<&str>) -> Result<(), String> {
    match out_path {
        Some(path) => {
            // Stage-and-rename, so an interrupted write can never tear
            // an existing report (resume rewrites its input in place).
            let tmp = format!("{path}.tmp-{}", std::process::id());
            std::fs::write(&tmp, rendered.as_bytes()).map_err(|e| format!("writing {tmp}: {e}"))?;
            std::fs::rename(&tmp, path).map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                format!("writing {path}: {e}")
            })?;
            eprintln!("report written to {path}");
        }
        // A reader that hung up took what it wanted: the command still
        // ends with its own status (a timed-out or failed campaign's
        // included), which the panic hook behind `print!` would turn
        // into 0.
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(rendered.as_bytes())
                .and_then(|()| stdout.flush())
                .or_else(|e| match e.kind() {
                    ErrorKind::BrokenPipe => Ok(()),
                    _ => Err(format!("writing the report to stdout: {e}")),
                })?;
        }
    }
    Ok(())
}

/// `smctl report`: re-render a stored JSON report, or materialize one
/// from a campaign journal.
fn cmd_report(args: Args) -> Result<ExitCode, String> {
    let format = report_format(args.format.as_deref())?;
    if let Some(path) = &args.journal {
        if args.input.is_some() {
            return Err("--input and --journal are mutually exclusive".into());
        }
        // The canonical report is a deterministic materialization of
        // the journal: this renders byte-identically to the report the
        // sweep itself wrote (CI diffs the two).
        let journal_path = find_journal(Path::new(path))?;
        let campaign = materialize(&read_events(&journal_path)?)
            .map_err(|e| format!("{}: {e}", journal_path.display()))?;
        print!("{}", render_campaign(&campaign, format, false));
        return Ok(ExitCode::SUCCESS);
    }
    let path = args
        .input
        .as_deref()
        .ok_or("`smctl report` needs --input FILE or --journal PATH")?;
    // Every view, the canonical JSON included, reads the report through
    // the one parser, so a malformed report fails them all alike.
    let (parsed, campaign) = read_report(path)?;
    if format == "json" {
        // The stored JSON is echoed, so a `--timings` report keeps its
        // fields.
        print!("{}", parsed.render());
        return Ok(ExitCode::SUCCESS);
    }
    // Every other view re-derives from the parsed outcomes, so stored
    // reports can be re-rendered without re-running anything; a
    // `--timings` report keeps its `wall_ms` column.
    let first_job = parsed
        .get("jobs")
        .and_then(Json::as_arr)
        .and_then(<[Json]>::first);
    let timed = first_job.is_some_and(|job| job.get("wall_ms").is_some());
    print!("{}", render_campaign(&campaign, format, timed));
    Ok(ExitCode::SUCCESS)
}

/// `smctl events` / `smctl tail`: print or live-stream the campaign
/// journal. `tail` is sugar for `events --follow --format table`.
fn cmd_events(args: Args, tail: bool) -> Result<ExitCode, String> {
    let follow = tail || args.follow;
    let format = args.format.as_deref().unwrap_or("table");
    if !matches!(format, "table" | "json") {
        return Err(format!("unknown --format `{format}` (expected table|json)"));
    }
    let cmd = if tail { "tail" } else { "events" };
    let path = args.positional.first().ok_or(format!(
        "`smctl {cmd}` needs a journal file or store directory"
    ))?;
    let arg = Path::new(path);
    // In follow mode the journal may not exist yet: follow the path a
    // store-backed sweep will create. A directory still must resolve.
    let journal_path = match find_journal(arg) {
        Ok(p) => p,
        Err(_) if follow && !arg.is_dir() => arg.to_path_buf(),
        Err(e) => return Err(e),
    };
    let mut follower = JournalFollower::new(&journal_path);
    let mut progress = EventProgress::default();
    loop {
        let batch = follower.poll()?;
        let mut ended = false;
        for event in &batch {
            let line = match format {
                "json" => event.to_json().render_compact(),
                _ => progress.render_line(event),
            };
            // Stdout is line-buffered, so each event reaches a follower
            // at once; `println!` ends `smctl` quietly if it hung up.
            println!("{line}");
            ended = matches!(event, Event::CampaignFinished { .. });
        }
        if !follow || ended {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(120));
    }
    Ok(ExitCode::SUCCESS)
}

/// Running job counters for the human-readable event stream.
#[derive(Default)]
struct EventProgress {
    total: Option<usize>,
    /// Distinct jobs with a `job-finished` record: a job re-run by a
    /// resume counts once, and placeholders count only once re-run.
    done: HashSet<String>,
}

impl EventProgress {
    /// One aligned table line per event, with a `done/total` progress
    /// column on job outcomes.
    fn render_line(&mut self, event: &Event) -> String {
        let kind = event.kind();
        match event {
            Event::CampaignStarted { spec, threads } => {
                self.total = spec.jobs().map(|jobs| jobs.len()).ok();
                format!(
                    "{kind:<18} {} job(s): {} benchmark(s) x {} seed(s) x {} layer(s) x {} attack(s), threads={threads}",
                    self.total
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "?".into()),
                    spec.benchmarks.len(),
                    spec.seeds.len(),
                    spec.split_layers.len(),
                    spec.attacks.len(),
                )
            }
            Event::JobStarted { job, .. } => format!("{kind:<18} {}", job.label()),
            Event::JobFinished { job, provenance, .. } => {
                self.done.insert(job.label());
                format!(
                    "{kind:<18} {} [{}] {} {:.1}ms",
                    self.progress(),
                    job.label(),
                    provenance.source.id(),
                    provenance.wall_ms,
                )
            }
            Event::JobTimedOut { job, phase } => format!(
                "{kind:<18} {} [{}] phase={phase}",
                self.progress(),
                job.label(),
            ),
            Event::JobFailed {
                job,
                phase,
                message,
            } => format!(
                "{kind:<18} {} [{}] phase={phase}: {message}",
                self.progress(),
                job.label(),
            ),
            Event::BundleBuilt {
                key,
                stage,
                wall_ms,
            } => format!("{kind:<18} {key} {stage} {wall_ms:.1}ms"),
            Event::CampaignFinished {
                jobs,
                timed_out,
                failed,
                pool_peak_live,
                total_wall_ms,
                ..
            } => format!(
                "{kind:<18} {jobs} job(s), {timed_out} timed out, {failed} failed, peak_live={pool_peak_live}, {total_wall_ms:.1}ms"
            ),
        }
    }

    fn progress(&self) -> String {
        match self.total {
            Some(total) => format!("{}/{total}", self.done.len()),
            None => format!("{}/?", self.done.len()),
        }
    }
}

/// `smctl bench`: run the deterministic perf harness, emit the
/// BENCH.json trajectory point, optionally gate against a baseline.
fn cmd_bench(args: Args) -> Result<ExitCode, String> {
    let cfg = sm_bench::perf::BenchConfig {
        quick: args.opts.quick,
        seed: args.opts.seed,
        scale: args.opts.scale,
        threads: args.opts.threads,
        min_of: args.min_of,
    };
    let report = sm_bench::perf::run_bench(&cfg);
    eprint!("{}", report.to_table());
    emit(&report.to_json().render(), args.out.as_deref())?;
    if let Some(path) = args.baseline {
        let factor = args.max_regression;
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let baseline = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        // 500 ms absolute slack on top of the factor: the committed
        // baseline may come from a different machine class than the
        // runner, and this gate exists to catch pathological
        // regressions, not scheduler noise. If the gate proves noisy
        // in CI, regenerate BENCH.json from the bench job's uploaded
        // artifact rather than widening the factor.
        report.check_against(&baseline, factor, 500.0)?;
        eprintln!("bench: no stage regressed more than {factor}× vs {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `smctl chaos`: one-command fault-injection smoke. Runs a small fixed
/// sweep under an injected fault plan (default: `aggressive` at seed 0)
/// against a throwaway store, resumes it fault-free, and byte-diffs the
/// completed report against a fault-free in-memory baseline — the
/// robustness invariant (`crash → resume → identical bytes`) as one
/// command. Exits non-zero on any divergence.
fn cmd_chaos(args: Args) -> Result<ExitCode, String> {
    let mut opts = args.opts;
    if opts.fault_seed.is_none() && opts.fault_profile.is_none() {
        opts.fault_profile = Some(FaultProfile::aggressive());
    }
    // Small but real: two benchmarks × two seeds exercises job panics,
    // store I/O on every stage, and the journal, in a few seconds.
    let spec = SweepSpec {
        benchmarks: vec!["c432".into(), "c880".into()],
        seeds: vec![1, 2],
        split_layers: vec![4],
        attacks: vec![AttackKind::NetworkFlow],
        scale: 100,
        master_seed: opts.seed,
        layout_seed: None,
    };
    let budget = opts.budget();

    // Fault-free baseline, purely in memory: the bytes every later
    // stage must reproduce.
    let baseline = run_sweep_budgeted(&spec, &budget, &ArtifactCache::new(), None)?;
    let baseline_json = render_campaign(&baseline, "json", false);

    // The chaotic run: store + journal + job execution all under the
    // fault plan, against a throwaway store directory.
    let dir = std::env::temp_dir().join(format!("smctl-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    opts.store = Some(dir.to_string_lossy().into_owned());
    let cache = opts.cache(Some(&spec), None);
    let chaotic = run_sweep_budgeted(&spec, &budget, &cache, None)?;
    eprintln!("chaos: {}", chaotic.summary());

    // Fault-free resume over the same (possibly mangled) store: the
    // surviving results merge with re-runs of every placeholder.
    let run = CampaignRun::resume(chaotic)?;
    eprintln!("chaos: resuming {} job(s) fault-free", run.selected().len());
    let resume_cache = RunOptions {
        store: opts.store,
        ..RunOptions::default()
    }
    .cache(None, None);
    let resumed = run.run(&budget, &resume_cache);
    let resumed_json = render_campaign(&resumed, "json", false);
    let _ = std::fs::remove_dir_all(&dir);
    if resumed_json != baseline_json {
        return Err(
            "chaos: resumed report differs from the fault-free baseline (determinism bug)".into(),
        );
    }
    println!(
        "chaos: ok — {} job(s) converged to the fault-free report byte-for-byte",
        resumed.outcomes.len()
    );
    Ok(ExitCode::SUCCESS)
}
