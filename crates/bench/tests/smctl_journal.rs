//! `smctl` journal CLI contract tests, driven against the real binary
//! (`CARGO_BIN_EXE_smctl`): `events`/`tail` streaming, `report
//! --journal` materialization byte-identity, resume-from-journal — and
//! the crash-safety headline: a sweep killed with SIGKILL mid-campaign
//! resumes from its journal to a report byte-identical to an
//! uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use sm_engine::journal::{find_journal, read_events, Event};

fn smctl(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smctl"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn smctl")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("smctl exited via code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// One scratch dir per test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("smctl-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The shared four-job spec: c432 × seeds 1,2 × layer 4 × both attacks.
const SPEC_ARGS: [&str; 8] = [
    "--benchmarks",
    "c432",
    "--seeds",
    "1,2",
    "--split-layers",
    "4",
    "--attacks",
    "flow,crouting",
];

#[test]
fn events_report_and_resume_agree_on_a_completed_campaign() {
    let scratch = Scratch::new("contract");
    let dir = scratch.path();
    let mut args = vec!["sweep"];
    args.extend(SPEC_ARGS);
    args.extend(["--threads", "2", "--store", "st", "--out", "ref.json"]);
    let out = smctl(&args, dir);
    assert_eq!(exit_code(&out), 0, "sweep failed: {}", stderr(&out));
    assert!(
        stderr(&out).contains("journal: "),
        "sweep must announce its journal: {}",
        stderr(&out)
    );
    let reference = std::fs::read(dir.join("ref.json")).unwrap();

    // The canonical report is a deterministic materialization of the
    // journal — byte-identical to the sweep's own output.
    let out = smctl(&["report", "--journal", "st", "--format", "json"], dir);
    assert_eq!(exit_code(&out), 0, "report --journal: {}", stderr(&out));
    assert_eq!(
        out.stdout, reference,
        "materialized report must match the sweep's bytes"
    );

    // The table stream shows the lifecycle with a progress column.
    let out = smctl(&["events", "st"], dir);
    assert_eq!(exit_code(&out), 0, "events: {}", stderr(&out));
    let table = stdout(&out);
    for needle in [
        "campaign-started",
        "job-started",
        "job-finished",
        "4/4",
        "bundle-built",
        "campaign-finished",
    ] {
        assert!(table.contains(needle), "missing `{needle}` in:\n{table}");
    }

    // The JSON stream is one parseable compact object per line.
    let out = smctl(&["events", "st", "--format", "json"], dir);
    assert_eq!(exit_code(&out), 0, "events --format json: {}", stderr(&out));
    let stream = stdout(&out);
    let lines: Vec<&str> = stream.lines().collect();
    assert!(lines.len() >= 10, "expected a full lifecycle: {lines:?}");
    for line in &lines {
        let parsed = sm_engine::report::Json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable event line `{line}`: {e}"));
        assert!(parsed.get("event").is_some(), "no event kind in `{line}`");
    }

    // Resuming a complete journal re-runs nothing and reproduces the
    // exact report without touching the journal input.
    let out = smctl(
        &["resume", "st", "--store", "st", "--out", "resumed.json"],
        dir,
    );
    assert_eq!(exit_code(&out), 0, "resume: {}", stderr(&out));
    assert!(stderr(&out).contains("0 to run"), "{}", stderr(&out));
    assert_eq!(std::fs::read(dir.join("resumed.json")).unwrap(), reference);
}

#[test]
fn sweep_killed_mid_campaign_resumes_to_byte_identical_report() {
    let scratch = Scratch::new("kill");
    let dir = scratch.path();

    // A spec slow enough that the poller can land a kill mid-campaign:
    // c880's flow attack keeps a single worker busy per job.
    let kill_spec: [&str; 8] = [
        "--benchmarks",
        "c432,c880",
        "--seeds",
        "1,2",
        "--split-layers",
        "4",
        "--attacks",
        "flow",
    ];
    // The reference: the same spec, uninterrupted, against its own store.
    let mut args = vec!["sweep"];
    args.extend(kill_spec);
    args.extend(["--threads", "2", "--store", "st-ref", "--out", "ref.json"]);
    let out = smctl(&args, dir);
    assert_eq!(exit_code(&out), 0, "reference sweep: {}", stderr(&out));
    let reference = std::fs::read(dir.join("ref.json")).unwrap();

    // The victim: one worker (so completions are spread out), killed
    // with SIGKILL as soon as its journal shows the first finished job —
    // no flush, no atexit, exactly an OS kill mid-campaign.
    let mut args = vec!["sweep"];
    args.extend(kill_spec);
    args.extend(["--threads", "1", "--store", "st", "--out", "victim.json"]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_smctl"))
        .args(&args)
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn smctl sweep");
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut saw_finished_job = false;
    loop {
        if let Ok(journal) = find_journal(&dir.join("st")) {
            if let Ok(events) = read_events(&journal) {
                if events
                    .iter()
                    .any(|e| matches!(e, Event::JobFinished { .. }))
                {
                    saw_finished_job = true;
                    child.kill().expect("kill sweep");
                    break;
                }
            }
        }
        if child.try_wait().expect("try_wait").is_some() {
            // The sweep outran the poller. The resume below still must
            // reproduce the reference from the journal alone.
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sweep produced no finished job within the deadline"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait().expect("reap sweep");
    if saw_finished_job {
        assert!(
            !dir.join("victim.json").exists(),
            "kill must land before the end-of-sweep report write"
        );
    }

    // Every already-finished job survived the kill in the journal;
    // resume re-runs only the rest and completes to the exact bytes of
    // the uninterrupted run.
    let out = smctl(
        &[
            "resume",
            "st",
            "--store",
            "st",
            "--threads",
            "2",
            "--out",
            "resumed.json",
        ],
        dir,
    );
    assert_eq!(exit_code(&out), 0, "resume after kill: {}", stderr(&out));
    assert_eq!(
        std::fs::read(dir.join("resumed.json")).unwrap(),
        reference,
        "resumed report must be byte-identical to the uninterrupted run"
    );
}

/// The progress column counts distinct jobs with a `job-finished`
/// record: failed placeholders do not advance it, and a job re-run by
/// `resume` counts once.
#[test]
fn event_progress_counts_each_finished_job_once() {
    let scratch = Scratch::new("progress");
    let dir = scratch.path();
    // Fault seed 1 fails 2 of the quick spec's 6 jobs.
    let out = smctl(
        &[
            "sweep",
            "--quick",
            "--fault-seed",
            "1",
            "--fault-profile",
            "aggressive",
            "--store",
            "st",
            "--out",
            "chaos.json",
        ],
        dir,
    );
    assert_eq!(exit_code(&out), 4, "chaos sweep: {}", stderr(&out));
    let out = smctl(&["resume", "chaos.json", "--store", "st"], dir);
    assert_eq!(exit_code(&out), 0, "resume: {}", stderr(&out));

    let out = smctl(&["events", "st"], dir);
    assert_eq!(exit_code(&out), 0, "events: {}", stderr(&out));
    let table = stdout(&out);
    let counts: Vec<usize> = table
        .lines()
        .filter(|line| line.starts_with("job-"))
        .filter_map(|line| {
            let (done, total) = line.split_whitespace().nth(1)?.split_once('/')?;
            assert_eq!(total, "6", "{line}");
            done.parse().ok()
        })
        .collect();
    assert!(table.contains("job-failed"), "{table}");
    assert!(counts.iter().all(|&done| done <= 6), "{table}");
    let last_finished = table
        .lines()
        .rfind(|line| line.starts_with("job-finished"))
        .expect("finished jobs");
    assert!(last_finished.contains(" 6/6 "), "{last_finished}");
}

#[test]
fn journal_cli_rejects_bad_inputs() {
    let scratch = Scratch::new("reject");
    let dir = scratch.path();

    // No journal anywhere: a clear error, not an empty stream.
    let out = smctl(&["events", "."], dir);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("no .journal"), "{}", stderr(&out));

    // `tail` is fixed-format streaming; flag soup must be rejected.
    let out = smctl(&["tail", ".", "--format", "json"], dir);
    assert_eq!(exit_code(&out), 2);
    assert!(
        stderr(&out).contains("unknown tail flag"),
        "{}",
        stderr(&out)
    );

    // report: --input and --journal are exclusive.
    let out = smctl(&["report", "--input", "a.json", "--journal", "."], dir);
    assert_eq!(exit_code(&out), 2);
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );

    // A JSON report is not a journal: resume must fall back to the
    // report path, and a journal is not a JSON report.
    std::fs::write(dir.join("garbage.journal"), b"SMJLxx not frames").unwrap();
    let out = smctl(&["resume", "garbage.journal", "--no-store"], dir);
    assert_eq!(exit_code(&out), 2);
    assert!(
        stderr(&out).contains("version") || stderr(&out).contains("campaign-started"),
        "{}",
        stderr(&out)
    );
}

/// A journal that degrades (here: the spec's log already exists in
/// another format version, so the first append refuses to touch it)
/// must not be claimed: `sweep` says the run was not journaled, still
/// succeeds, and leaves the foreign file's bytes alone.
#[test]
fn sweep_over_a_foreign_journal_says_it_was_not_journaled() {
    use sm_engine::journal::{Journal, JOURNAL_MAGIC, JOURNAL_VERSION};
    use sm_engine::{AttackKind, SweepSpec};

    let scratch = Scratch::new("foreign");
    let dir = scratch.path();
    let spec = SweepSpec {
        benchmarks: vec!["c432".into()],
        seeds: vec![1],
        split_layers: vec![4],
        attacks: vec![AttackKind::Crouting],
        ..SweepSpec::default()
    };
    let journal = Journal::for_spec(&dir.join("st"), &spec);
    let mut foreign = JOURNAL_MAGIC.to_vec();
    foreign.extend((JOURNAL_VERSION - 1).to_le_bytes());
    std::fs::create_dir_all(journal.path().parent().unwrap()).unwrap();
    std::fs::write(journal.path(), &foreign).unwrap();

    let out = smctl(
        &[
            "sweep",
            "--benchmarks",
            "c432",
            "--seeds",
            "1",
            "--split-layers",
            "4",
            "--attacks",
            "crouting",
            "--store",
            "st",
            "--out",
            "r.json",
        ],
        dir,
    );
    let err = stderr(&out);
    assert_eq!(exit_code(&out), 0, "sweep failed: {err}");
    assert!(
        err.contains("journal degraded"),
        "no degradation warning: {err}"
    );
    assert!(
        err.contains("this run was not journaled"),
        "the run must be reported as not journaled: {err}"
    );
    let relative = Path::new("st")
        .join(journal.path().strip_prefix(dir.join("st")).unwrap())
        .display()
        .to_string();
    assert!(
        !err.contains(&format!("journal: {relative}"))
            && !err.contains(&format!("journal: {}", journal.path().display())),
        "a degraded journal must not be claimed: {err}"
    );
    assert_eq!(std::fs::read(journal.path()).unwrap(), foreign);
}
