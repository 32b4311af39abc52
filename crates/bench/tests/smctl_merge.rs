//! `smctl merge` CLI contract tests, driven against the real binary
//! (`CARGO_BIN_EXE_smctl`): spec-mismatch rejection, double-merge
//! idempotence, finished-beats-timed-out preference and the exit-3
//! incomplete signal — previously exercised only end-to-end in CI —
//! plus the input checks `merge` shares with `resume` and `report`: an
//! invalid spec and a report of another version are rejected, naming
//! the file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn smctl(args: &[&str], dir: &std::path::Path) -> Output {
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
        let dir = std::env::temp_dir().join(format!("smctl-merge-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The smallest two-job campaign: c432, one layer, flow × two seeds,
/// sharded 1/2 and 2/2 so each shard holds exactly one finished job.
fn write_shards(dir: &std::path::Path) {
    for (shard, file) in [("1/2", "shard1.json"), ("2/2", "shard2.json")] {
        let out = smctl(
            &[
                "sweep",
                "--benchmarks",
                "c432",
                "--seeds",
                "1,2",
                "--split-layers",
                "4",
                "--attacks",
                "flow",
                "--no-store",
                "--shard",
                shard,
                "--out",
                file,
            ],
            dir,
        );
        assert_eq!(exit_code(&out), 0, "shard sweep failed: {}", stderr(&out));
    }
}

#[test]
fn merge_combines_shards_and_double_merge_is_idempotent() {
    let scratch = Scratch::new("idem");
    let dir = scratch.path();
    write_shards(dir);
    let out = smctl(
        &["merge", "shard1.json", "shard2.json", "-o", "merged.json"],
        dir,
    );
    assert_eq!(exit_code(&out), 0, "merge failed: {}", stderr(&out));
    let merged = std::fs::read(dir.join("merged.json")).unwrap();

    // Merging the merged report with a shard again must change nothing:
    // the finished outcomes already present win deterministically.
    let out = smctl(
        &["merge", "merged.json", "shard1.json", "-o", "merged2.json"],
        dir,
    );
    assert_eq!(exit_code(&out), 0, "re-merge failed: {}", stderr(&out));
    assert_eq!(
        merged,
        std::fs::read(dir.join("merged2.json")).unwrap(),
        "double merge must be byte-idempotent"
    );
}

#[test]
fn merge_rejects_mismatched_specs() {
    let scratch = Scratch::new("mismatch");
    let dir = scratch.path();
    write_shards(dir);
    // A report of a *different* campaign (other master seed).
    let out = smctl(
        &[
            "sweep",
            "--benchmarks",
            "c432",
            "--seeds",
            "1,2",
            "--split-layers",
            "4",
            "--attacks",
            "flow",
            "--seed",
            "7",
            "--no-store",
            "--shard",
            "1/2",
            "--out",
            "other.json",
        ],
        dir,
    );
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let out = smctl(&["merge", "shard1.json", "other.json", "-o", "x.json"], dir);
    assert_eq!(exit_code(&out), 2, "mismatch must be a hard error");
    assert!(
        stderr(&out).contains("different sweep spec"),
        "unexpected stderr: {}",
        stderr(&out)
    );
    assert!(!dir.join("x.json").exists(), "no output on rejection");
}

#[test]
fn merge_exits_3_while_incomplete_and_finished_beats_timed_out() {
    let scratch = Scratch::new("incomplete");
    let dir = scratch.path();
    write_shards(dir);
    // Merging one shard with itself covers only half the campaign.
    let out = smctl(
        &["merge", "shard1.json", "shard1.json", "-o", "half.json"],
        dir,
    );
    assert_eq!(
        exit_code(&out),
        3,
        "incomplete merge must exit 3: {}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("incomplete"), "{}", stderr(&out));
    assert!(dir.join("half.json").exists(), "partial report still lands");

    // A fully timed-out variant of the same campaign, produced through
    // the engine with a pre-cancelled budget (the CLI cannot arm a
    // zero-second deadline, and a 1-second one would be racy here).
    {
        use sm_engine::campaign::{run_sweep_budgeted, SweepSpec};
        use sm_engine::job::AttackKind;
        use sm_engine::report::ReportOptions;
        use sm_exec::{Budget, CancelToken};
        let spec = SweepSpec {
            benchmarks: vec!["c432".into()],
            seeds: vec![1, 2],
            split_layers: vec![4],
            attacks: vec![AttackKind::NetworkFlow],
            scale: 100,
            master_seed: 1,
            layout_seed: None,
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        let budget = Budget::with_threads(Some(1)).with_cancel(cancel);
        let dead =
            run_sweep_budgeted(&spec, &budget, &sm_engine::ArtifactCache::new(), None).unwrap();
        assert_eq!(dead.timed_out(), 2, "every job must be a placeholder");
        std::fs::write(
            dir.join("dead.json"),
            dead.to_json(ReportOptions::default()).render(),
        )
        .unwrap();
    }
    // Finished shards + dead report, in both orders: the finished
    // measurements must win and the merge completes with exit 0.
    for (order, file) in [
        (["shard1.json", "shard2.json", "dead.json"], "a.json"),
        (["dead.json", "shard1.json", "shard2.json"], "b.json"),
    ] {
        let mut args = vec!["merge"];
        args.extend(order);
        args.extend(["-o", file]);
        let out = smctl(&args, dir);
        assert_eq!(
            exit_code(&out),
            0,
            "finished outcomes must beat timed-out placeholders: {}",
            stderr(&out)
        );
        let text = std::fs::read_to_string(dir.join(file)).unwrap();
        assert!(
            !text.contains("timed_out"),
            "no placeholder may survive the merge"
        );
    }
    // And the two orders agree byte-for-byte.
    assert_eq!(
        std::fs::read(dir.join("a.json")).unwrap(),
        std::fs::read(dir.join("b.json")).unwrap()
    );
}

/// `path`'s text with `from` replaced by `to`, written to `dir/out`.
fn rewrite(dir: &std::path::Path, path: &str, from: &str, to: &str, out: &str) {
    let text = std::fs::read_to_string(dir.join(path)).unwrap();
    assert!(text.contains(from), "{path} lacks {from:?}");
    std::fs::write(dir.join(out), text.replacen(from, to, 1)).unwrap();
}

#[test]
fn merge_and_resume_name_the_report_with_an_invalid_spec() {
    let scratch = Scratch::new("badspec");
    let dir = scratch.path();
    write_shards(dir);
    rewrite(
        dir,
        "shard1.json",
        "\"seeds\": [\n    1,\n    2\n  ]",
        "\"seeds\": [\n    1,\n    1\n  ]",
        "repeats.json",
    );
    for args in [
        &["merge", "repeats.json", "shard2.json", "-o", "x.json"][..],
        &["resume", "repeats.json", "--no-store"],
    ] {
        let out = smctl(args, dir);
        assert_eq!(exit_code(&out), 2, "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("repeats.json: sweep repeats seed `1`"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    assert!(!dir.join("x.json").exists(), "no output on rejection");
}

/// A report without a `version` field is version 1, written by the
/// successive-shortest-path engine: `merge`, `resume` and every `report`
/// view refuse it and name both versions, so its flow metrics never mix
/// with version-2 ones.
#[test]
fn version_1_reports_are_rejected_naming_both_versions() {
    let scratch = Scratch::new("v1");
    let dir = scratch.path();
    write_shards(dir);
    rewrite(dir, "shard1.json", "  \"version\": 2,\n", "", "v1.json");
    let mut runs = vec![
        vec!["merge", "v1.json", "shard2.json", "-o", "x.json"],
        vec!["resume", "v1.json", "--no-store"],
    ];
    for format in ["json", "csv", "agg-csv", "table"] {
        runs.push(vec!["report", "--input", "v1.json", "--format", format]);
    }
    for args in &runs {
        let out = smctl(args, dir);
        assert_eq!(exit_code(&out), 2, "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("v1.json: report format version 1 (this build reads version 2)"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    assert!(!dir.join("x.json").exists(), "no output on rejection");
    assert_eq!(
        std::fs::read_to_string(dir.join("v1.json")).unwrap(),
        std::fs::read_to_string(dir.join("shard1.json"))
            .unwrap()
            .replacen("  \"version\": 2,\n", "", 1),
        "resume leaves a rejected report untouched"
    );
}
