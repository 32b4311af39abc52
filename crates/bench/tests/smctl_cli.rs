//! `smctl` command-line contract tests, driven against the real binary
//! (`CARGO_BIN_EXE_smctl`): every command rejects a flag it does not
//! accept, a missing or empty value and an inline value on a switch,
//! each with exit status 2; `--flag=v` means `--flag v`; repeated
//! sweep-axis values collapse to their first occurrence; a stdout
//! whose reader has gone ends `smctl` quietly with exit status 0; and
//! `store doctor` removes the `splits/` frames nothing reads.

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
const COMMANDS: [(&str, Option<&str>, Option<&str>); 13] = [
    ("run", Some("--seed"), Some("--quick")),
    ("sweep", Some("--seed"), Some("--quick")),
    ("resume", Some("--threads"), Some("--no-store")),
    ("merge", Some("--out"), None),
    ("report", Some("--format"), None),
    ("events", Some("--format"), Some("--follow")),
    ("tail", None, None),
    ("bench", Some("--seed"), Some("--quick")),
    ("chaos", Some("--seed"), None),
    ("store", Some("--store"), Some("--no-store")),
    ("serve", Some("--socket"), Some("--stop")),
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
        "--fault-seed is not read by a live `smctl serve`",
    );
    rejects(
        &["serve", "--socket", "s.sock", "--kill", "0@0", "--no-store"],
        dir,
        "--kill is not read by a live `smctl serve`",
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
        "--timeout-secs is not read by a live `smctl serve`",
    );
    rejects(
        &["serve", "--stop", "--socket", "s.sock", "--store", "st"],
        dir,
        "--store is not read by `smctl serve --stop`",
    );
    for flag in ["--workers", "--max-queued", "--socket"] {
        rejects(
            &[
                "serve",
                "--simulate",
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
            &format!("{flag} is not read by `smctl serve --simulate`"),
        );
    }
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
/// a pipe whose reader is closed exits 0 without a panic message.
#[test]
fn a_closed_stdout_ends_smctl_quietly() {
    let scratch = Scratch::new("closed-stdout");
    for args in [&["help"][..], &["store", "stats", "--store", "st"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_smctl"))
            .args(args)
            .current_dir(scratch.path())
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn smctl");
        assert_eq!(exit_code(&out), 0, "{args:?}: {}", stderr(&out));
        assert!(
            !stderr(&out).contains("panicked"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
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
