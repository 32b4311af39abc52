//! `smctl report --input` contract tests, driven against the real
//! binary (`CARGO_BIN_EXE_smctl`): every re-rendered format parses the
//! stored report through one parser, so a malformed report is rejected
//! the same way by all of them, and a `--timings` report keeps its
//! `wall_ms` column.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sm_engine::report::Json;

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
        let dir = std::env::temp_dir().join(format!("smctl-report-{tag}-{}", std::process::id()));
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

/// The value under `key` in the JSON object `obj`.
fn field<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(pairs) = obj else {
        panic!("not an object")
    };
    &mut pairs
        .iter_mut()
        .find(|(k, _)| k == key)
        .expect("key present")
        .1
}

fn first_job(report: &mut Json) -> &mut Json {
    let Json::Arr(jobs) = field(report, "jobs") else {
        panic!("`jobs` is not an array")
    };
    &mut jobs[0]
}

#[test]
fn report_rejects_malformed_reports_and_keeps_timings() {
    let scratch = Scratch::new("formats");
    let dir = scratch.path();
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
            "flow,crouting",
            "--no-store",
            "--timings",
            "--out",
            "timed.json",
        ],
        dir,
    );
    assert_eq!(exit_code(&out), 0, "sweep failed: {}", stderr(&out));
    let text = std::fs::read_to_string(dir.join("timed.json")).unwrap();
    let report = Json::parse(&text).unwrap();

    // The re-rendered CSV carries each job's stored wall clock, once per
    // row: one row for the flow job, one per box for the crouting job.
    let out = smctl(&["report", "--input", "timed.json", "--format", "csv"], dir);
    assert_eq!(exit_code(&out), 0, "report csv: {}", stderr(&out));
    let csv = String::from_utf8(out.stdout).unwrap();
    let mut lines = csv.lines();
    assert!(lines.next().unwrap().ends_with(",wall_ms"));
    let walls: Vec<&str> = lines.map(|l| l.rsplit(',').next().unwrap()).collect();
    let mut expected = Vec::new();
    for job in report.get("jobs").and_then(Json::as_arr).unwrap() {
        let wall = format!("{:.3}", job.get("wall_ms").and_then(Json::as_f64).unwrap());
        let metrics = job.get("metrics").unwrap();
        let rows = metrics
            .get("boxes")
            .and_then(Json::as_arr)
            .map_or(1, <[Json]>::len);
        expected.extend(std::iter::repeat_n(wall, rows));
    }
    assert_eq!(walls, expected);

    // A malformed seed fails every view the same way.
    let mut bad = report.clone();
    *field(first_job(&mut bad), "seed") = Json::str("x");
    std::fs::write(dir.join("bad-seed.json"), bad.render()).unwrap();
    for format in ["csv", "agg-csv", "table"] {
        let out = smctl(
            &["report", "--input", "bad-seed.json", "--format", format],
            dir,
        );
        assert_eq!(exit_code(&out), 2, "--format {format} accepted a bad seed");
        assert!(
            stderr(&out).contains("job 0: missing or malformed `seed`"),
            "--format {format}: {}",
            stderr(&out)
        );
    }

    // So does a malformed metric.
    let mut bad = report;
    let metrics = field(first_job(&mut bad), "metrics");
    *field(metrics, "oer_pct") = Json::str("bogus");
    std::fs::write(dir.join("bad-metric.json"), bad.render()).unwrap();
    let out = smctl(
        &["report", "--input", "bad-metric.json", "--format", "csv"],
        dir,
    );
    assert_eq!(exit_code(&out), 2, "csv accepted a bad metric");
    assert!(
        stderr(&out).contains("missing or malformed metric `oer_pct`"),
        "{}",
        stderr(&out)
    );
}
