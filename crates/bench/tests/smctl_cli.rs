//! `smctl` command-line contract tests, driven against the real binary
//! (`CARGO_BIN_EXE_smctl`): every command rejects a flag it does not
//! accept, a missing or empty value and an inline value on a switch,
//! each with exit status 2; `smctl help` prints one generated usage
//! entry per command; `--flag=v` means `--flag v`; repeated
//! sweep-axis values collapse to their first occurrence; a stdout
//! whose reader has gone ends `smctl` quietly with exit status 0 (help,
//! tables, journal events and reports alike); `resume` counts the
//! failed jobs it re-runs; and `store doctor` removes the `splits/`
//! frames nothing reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

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

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// One scratch dir per test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("smctl-cli-{tag}-{}", std::process::id()));
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

/// Asserts that `args` exits 2 with an error containing `needle`.
fn rejects(args: &[&str], dir: &Path, needle: &str) {
    let out = smctl(args, dir);
    assert_eq!(
        exit_code(&out),
        2,
        "`smctl {}` was accepted",
        args.join(" ")
    );
    assert!(
        stderr(&out).contains(needle),
        "`smctl {}`: expected `{needle}` in {}",
        args.join(" "),
        stderr(&out)
    );
}

/// Every command, with a value flag and a switch it accepts (where it
/// has one).
const COMMANDS: [(&str, Option<&str>, Option<&str>); 14] = [
    ("run", Some("--seed"), Some("--quick")),
    ("sweep", Some("--seed"), Some("--quick")),
    ("resume", Some("--threads"), Some("--no-store")),
    ("merge", Some("--out"), None),
    ("report", Some("--format"), None),
    ("events", Some("--format"), Some("--follow")),
    ("tail", None, None),
    ("bench", Some("--seed"), Some("--quick")),
    ("chaos", Some("--seed"), None),
    ("store", Some("--store"), None),
    ("serve", Some("--socket"), None),
    ("stop", Some("--socket"), None),
    ("submit", Some("--socket"), Some("--follow")),
    ("status", Some("--socket"), None),
];

#[test]
fn every_command_rejects_unknown_flags_and_malformed_values() {
    let scratch = Scratch::new("flags");
    let dir = scratch.path();
    for (cmd, value_flag, switch) in COMMANDS {
        rejects(
            &[cmd, "--bogus-flag"],
            dir,
            &format!("unknown {cmd} flag `--bogus-flag`"),
        );
        rejects(
            &[cmd, "--bogus-flag=3"],
            dir,
            &format!("unknown {cmd} flag `--bogus-flag`"),
        );
        if let Some(flag) = value_flag {
            rejects(&[cmd, flag], dir, &format!("{flag} needs a value"));
            rejects(
                &[cmd, &format!("{flag}=")],
                dir,
                &format!("{flag} needs a value (got `{flag}=`)"),
            );
            rejects(
                &[cmd, flag, "--quick"],
                dir,
                &format!("{flag} needs a value"),
            );
        }
        if let Some(flag) = switch {
            rejects(
                &[cmd, &format!("{flag}=x")],
                dir,
                &format!("{flag} takes no value"),
            );
        }
    }
    // A flag one command accepts is still unknown to another.
    rejects(&["submit", "--threads", "2"], dir, "unknown submit flag");
    rejects(
        &["submit", "--socket", "s", "--jobs", "0"],
        dir,
        "unknown submit flag `--jobs`",
    );
    rejects(&["tail", ".", "--follow"], dir, "unknown tail flag");
    rejects(
        &["merge", "-out", "a.json", "b.json"],
        dir,
        "unknown merge flag",
    );
    rejects(
        &["status", "--socket", "s", "extra"],
        dir,
        "unexpected argument",
    );
}

/// A live service, `stop` and `sweep --workers` are one command each,
/// and each rejects the others' flags as unknown (`serve` takes neither
/// `--stop` nor `--simulate`).
#[test]
fn serve_accepts_only_the_flags_its_mode_reads() {
    let scratch = Scratch::new("serve");
    let dir = scratch.path();
    rejects(
        &[
            "serve",
            "--socket",
            "s.sock",
            "--fault-seed",
            "3",
            "--no-store",
        ],
        dir,
        "unknown serve flag `--fault-seed`",
    );
    rejects(
        &["serve", "--socket", "s.sock", "--kill", "0@0", "--no-store"],
        dir,
        "unknown serve flag `--kill`",
    );
    // A deadline armed at service start would expire every later
    // campaign; a live service serves without one.
    rejects(
        &[
            "serve",
            "--socket",
            "s.sock",
            "--timeout-secs",
            "2",
            "--no-store",
        ],
        dir,
        "unknown serve flag `--timeout-secs`",
    );
    for gone in ["--stop", "--simulate"] {
        rejects(
            &["serve", "--socket", "s.sock", gone, "--no-store"],
            dir,
            &format!("unknown serve flag `{gone}`"),
        );
    }
    rejects(
        &["stop", "--socket", "s.sock", "--store", "st"],
        dir,
        "unknown stop flag `--store`",
    );
    for flag in ["--max-queued", "--socket"] {
        rejects(
            &[
                "sweep",
                "--workers",
                "1",
                flag,
                "3",
                "--benchmarks",
                "c432",
                "--split-layers",
                "4",
                "--no-store",
            ],
            dir,
            &format!("unknown sweep flag `{flag}`"),
        );
    }
    rejects(
        &[
            "sweep",
            "--kill",
            "1@0",
            "--benchmarks",
            "c432",
            "--no-store",
        ],
        dir,
        "--kill needs --workers N",
    );
}

/// `smctl help` prints one generated usage entry per command, and no
/// placeholder stands for flags a command may not take (the unit test
/// in `cli.rs` checks each entry against the parser).
#[test]
fn help_prints_one_generated_usage_entry_per_command() {
    let scratch = Scratch::new("help");
    let out = smctl(&["help"], scratch.path());
    assert_eq!(exit_code(&out), 0);
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(!help.contains("[sweep axes]"), "{help}");
    let usage = help
        .split("USAGE:\n")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("a USAGE block");
    let entries: Vec<&str> = usage
        .lines()
        .filter_map(|line| line.trim().strip_prefix("smctl "))
        .collect();
    let names: Vec<&str> = entries
        .iter()
        .map(|e| e.split(' ').next().unwrap())
        .collect();
    let mut want: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
    want.push("help");
    assert_eq!(names, want);
    let submit = usage.split("smctl submit").nth(1).unwrap();
    let submit = submit.split("smctl status").next().unwrap();
    assert!(submit.contains("[--benchmarks LIST]"), "{submit}");
    assert!(!submit.contains("--jobs"), "{submit}");
}

#[test]
fn run_takes_artifact_names_and_flags_mixed() {
    let scratch = Scratch::new("run");
    let dir = scratch.path();
    let out = smctl(&["run", "table1", "--quick", "fig6", "--no-store"], dir);
    assert_eq!(exit_code(&out), 0, "run: {}", stderr(&out));
    let printed = String::from_utf8_lossy(&out.stdout);
    assert!(printed.starts_with("Table 1 — "), "{printed}");
    assert!(printed.contains("\nFig. 6 — "), "{printed}");
    assert!(
        stderr(&out).contains("over 2 artifact(s)"),
        "{}",
        stderr(&out)
    );
    rejects(
        &["run", "table1", "fig7", "--quick"],
        dir,
        "unknown artifact `fig7`",
    );
    rejects(&["run", "--quick"], dir, "needs at least one artifact");
}

/// The report bytes of a one-benchmark, one-layer flow sweep with
/// `extra` arguments.
fn sweep_bytes(dir: &Path, out: &str, extra: &[&str]) -> Vec<u8> {
    let mut args = vec![
        "sweep",
        "--benchmarks",
        "c432",
        "--split-layers",
        "4",
        "--attacks",
        "flow",
        "--no-store",
        "--out",
        out,
    ];
    args.extend(extra);
    let run = smctl(&args, dir);
    assert_eq!(exit_code(&run), 0, "sweep {extra:?}: {}", stderr(&run));
    std::fs::read(dir.join(out)).unwrap()
}

#[test]
fn inline_values_and_repeated_axis_values_keep_the_report_bytes() {
    let scratch = Scratch::new("bytes");
    let dir = scratch.path();
    let inline = sweep_bytes(dir, "inline.json", &["--seeds=2,1", "--threads=2"]);
    let spaced = sweep_bytes(dir, "spaced.json", &["--seeds", "2,1", "--threads", "2"]);
    assert_eq!(inline, spaced, "--flag=v and --flag v must mean the same");
    let repeated = sweep_bytes(
        dir,
        "repeated.json",
        &["--seeds", "2,1,2", "--threads", "2"],
    );
    assert_eq!(
        repeated, spaced,
        "--seeds 2,1,2 must run the jobs of --seeds 2,1, once each"
    );
    let out = smctl(&["merge", "repeated.json", "repeated.json"], dir);
    assert_eq!(exit_code(&out), 0, "merge: {}", stderr(&out));
}

/// A reader that hangs up early is not an error: `smctl` printing into
/// a pipe whose reader is closed ends without a panic message or an
/// `error:` line — help and store tables, journal events and reports
/// alike — and with the status it has when stdout stays open: 0, 3 for
/// an incomplete merge, 4 for a campaign with failed jobs.
#[test]
fn a_closed_stdout_ends_smctl_quietly() {
    let scratch = Scratch::new("closed-stdout");
    let sweep = |layers: &str, extra: &[&str]| {
        let mut args = vec![
            "sweep",
            "--benchmarks",
            "c432",
            "--split-layers",
            layers,
            "--attacks",
            "crouting",
            "--store",
            "st",
        ];
        args.extend(extra);
        let out = smctl(&args, scratch.path());
        assert_eq!(exit_code(&out), 0, "{args:?}: {}", stderr(&out));
    };
    sweep("4", &["--out", "a.json"]);
    sweep("3,4", &["--shard", "1/2", "--out", "s1.json"]);
    std::fs::copy(scratch.path().join("a.json"), scratch.path().join("b.json")).unwrap();
    let faulted = [
        "sweep",
        "--quick",
        "--fault-seed",
        "1",
        "--fault-profile",
        "aggressive",
    ];
    for (args, status) in [
        (&["help"][..], 0),
        (&["store", "stats", "--store", "st"], 0),
        (&["events", "st"], 0),
        (&["events", "st", "--format", "json"], 0),
        (&["merge", "a.json", "b.json"], 0),
        (&["merge", "s1.json", "s1.json"], 3),
        (&faulted, 4),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_smctl"))
            .args(args)
            .current_dir(scratch.path())
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn smctl");
        let stderr = stderr(&out);
        assert_eq!(exit_code(&out), status, "{args:?}: {stderr}");
        assert!(!stderr.contains("error:"), "{args:?}: {stderr}");
        // Injected faults panic on purpose; nothing else may.
        assert_eq!(
            stderr.matches("panicked").count(),
            stderr.matches("injected fault").count(),
            "{args:?}: {stderr}"
        );
    }
}

/// `resume` says how many of the present jobs failed, as it says how
/// many timed out: both kinds of placeholder are re-run.
#[test]
fn resume_counts_failed_jobs() {
    let scratch = Scratch::new("resume-failed");
    let dir = scratch.path();
    let out = smctl(
        &[
            "sweep",
            "--quick",
            "--fault-seed",
            "1",
            "--fault-profile",
            "aggressive",
            "--store",
            "st1",
            "--out",
            "c1.json",
        ],
        dir,
    );
    assert_eq!(exit_code(&out), 4, "{}", stderr(&out));
    let out = smctl(&["resume", "c1.json", "--store", "st1"], dir);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("c1.json: 6 of 6 jobs present (0 timed out, 2 failed), 2 to run"),
        "{}",
        stderr(&out)
    );
}

/// `store doctor` removes the `splits/` frames nothing reads any more,
/// says how many on stdout, and leaves other stages' files alone.
#[test]
fn store_doctor_removes_unread_split_frames() {
    let scratch = Scratch::new("doctor-splits");
    let st = scratch.path().join("st");
    for dir in ["splits", "netlists"] {
        std::fs::create_dir_all(st.join(dir)).unwrap();
    }
    for name in ["a-prot-l3.art", "a-orig-l3.art"] {
        std::fs::write(st.join("splits").join(name), b"SMST split frame").unwrap();
    }
    // A foreign-version netlist frame: counted as legacy, never removed.
    let mut legacy = b"SMST".to_vec();
    legacy.extend_from_slice(&1u16.to_le_bytes());
    std::fs::write(st.join("netlists").join("a.art"), &legacy).unwrap();

    let out = smctl(&["store", "doctor", "--store", "st"], scratch.path());
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("splits/: removed 2 unread frame(s)"),
        "{stdout}"
    );
    assert_eq!(std::fs::read_dir(st.join("splits")).unwrap().count(), 0);
    assert_eq!(
        std::fs::read(st.join("netlists").join("a.art")).unwrap(),
        legacy
    );
}
