//! `smctl serve` lifecycle tests, driven against the real binary
//! (`CARGO_BIN_EXE_smctl`): a service killed with SIGKILL restarts on
//! its store and socket at once (the kernel released its store lock),
//! a second service on a held store refuses to start without ever
//! binding its socket, a service that does not start prints no banner,
//! `store gc` and a capped sweep beside a lock holder say they skipped,
//! and a client that disconnects mid-`--follow` leaves its campaign to
//! finish with the solo sweep's bytes.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use sm_engine::serve::client_status;
use sm_engine::store::Stage;
use sm_engine::ArtifactStore;

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
        let dir = std::env::temp_dir().join(format!("smctl-serve-{tag}-{}", std::process::id()));
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

/// A `smctl serve` child process, killed on drop so a failing test
/// never leaves a service behind.
struct Service(Child);

impl Service {
    /// Starts `smctl serve --socket <socket> --store <store>` in `dir`
    /// and waits until it answers a status request.
    fn start(dir: &Path, socket: &str, store: &str) -> Service {
        let child = Command::new(env!("CARGO_BIN_EXE_smctl"))
            .args([
                "serve",
                "--socket",
                socket,
                "--store",
                store,
                "--workers",
                "1",
                "--threads",
                "1",
            ])
            .current_dir(dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn smctl serve");
        let mut service = Service(child);
        let deadline = Instant::now() + Duration::from_secs(60);
        while client_status(&dir.join(socket)).is_err() {
            if let Some(status) = service.0.try_wait().expect("try_wait") {
                panic!("service on {store} exited before answering: {status}");
            }
            assert!(
                Instant::now() < deadline,
                "service on {store} never answered"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        service
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// How a service that started announces itself on stderr.
const BANNER: &str = "serving campaigns on";

/// A one-job spec: c432, seed 1, M4, crouting.
const ONE_JOB: [&str; 8] = [
    "--benchmarks",
    "c432",
    "--seeds",
    "1",
    "--split-layers",
    "4",
    "--attacks",
    "crouting",
];

#[test]
fn a_killed_service_restarts_on_its_store_and_serves() {
    let scratch = Scratch::new("restart");
    let dir = scratch.path();
    let mut crashed = Service::start(dir, "sm.sock", "st");
    crashed.0.kill().expect("SIGKILL the service");
    crashed.0.wait().expect("reap the service");
    assert!(
        dir.join("sm.sock").exists(),
        "a killed service leaves its socket file behind"
    );

    let mut restarted = Service::start(dir, "sm.sock", "st");
    let mut args = vec!["submit", "--socket", "sm.sock", "--out", "r.json"];
    args.extend(ONE_JOB);
    let out = smctl(&args, dir);
    assert_eq!(exit_code(&out), 0, "submit: {}", stderr(&out));
    assert!(dir.join("r.json").exists());

    let out = smctl(&["stop", "--socket", "sm.sock"], dir);
    assert_eq!(exit_code(&out), 0, "stop: {}", stderr(&out));
    assert!(restarted.0.wait().expect("reap the service").success());
    assert!(!dir.join("sm.sock").exists(), "a drained service unbinds");
}

#[test]
fn a_second_service_on_a_held_store_never_binds() {
    let scratch = Scratch::new("held");
    let dir = scratch.path();
    let _first = Service::start(dir, "a.sock", "d");
    let out = smctl(&["serve", "--socket", "b.sock", "--store", "d"], dir);
    assert_eq!(exit_code(&out), 2, "second service: {}", stderr(&out));
    assert!(
        stderr(&out).contains("store d is locked by a live peer"),
        "{}",
        stderr(&out)
    );
    assert!(!stderr(&out).contains(BANNER), "{}", stderr(&out));
    assert!(
        !dir.join("b.sock").exists(),
        "a service that cannot own its store leaves no socket"
    );
    let out = smctl(&["stop", "--socket", "a.sock"], dir);
    assert_eq!(exit_code(&out), 0, "stop: {}", stderr(&out));
}

/// A service rejected for its configuration exits 2 without announcing
/// itself (a second service on a held store, above, does the same).
#[test]
fn a_service_with_no_workers_prints_no_banner() {
    let scratch = Scratch::new("workers0");
    let dir = scratch.path();
    let args = [
        "serve",
        "--socket",
        "w.sock",
        "--store",
        "st",
        "--workers",
        "0",
    ];
    let out = smctl(&args, dir);
    assert_eq!(exit_code(&out), 2, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--workers must be ≥ 1"),
        "{}",
        stderr(&out)
    );
    assert!(!stderr(&out).contains(BANNER), "{}", stderr(&out));
    assert!(!dir.join("w.sock").exists(), "no socket bound");
}

/// `store gc` beside a live peer that holds the store lock (here the
/// test itself, through `coordinate()`, as a live `serve` does) skips
/// eviction and says so with exit 2, naming what remains; once the lock
/// is free the same command evicts.
#[test]
fn store_gc_beside_a_lock_holder_says_it_skipped() {
    let scratch = Scratch::new("gc-held");
    let dir = scratch.path();
    let store = ArtifactStore::open(dir.join("st"), None);
    let netlist = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c432(), 1);
    store.save_stage(Stage::Netlist, "c432-1", &netlist);
    let before = store.usage();
    let gc = ["store", "gc", "--store", "st", "--store-cap", "1"];

    let lock = store.coordinate().expect("the lock is free");
    let out = smctl(&gc, dir);
    assert_eq!(exit_code(&out), 2, "gc under a held lock: {}", stderr(&out));
    let expected = format!(
        "error: st: skipped, a live peer (e.g. `smctl serve`) holds the store lock; \
         1 file(s), {} bytes remain",
        before.bytes
    );
    assert_eq!(stderr(&out).trim_end(), expected);
    assert_eq!(store.usage(), before, "no file evicted under a held lock");

    drop(lock);
    let out = smctl(&gc, dir);
    assert_eq!(exit_code(&out), 0, "gc: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("st: evicted 1 file(s)"), "{stdout}");
}

/// The `store:` summary line a capped command prints on stderr.
fn store_line(out: &Output) -> String {
    stderr(out)
        .lines()
        .find(|line| line.starts_with("store: "))
        .unwrap_or_else(|| panic!("no store line in: {}", stderr(out)))
        .to_string()
}

/// A capped sweep beside a live lock holder (the test, through
/// `coordinate()`, as a live `serve` does) cannot enforce its cap: it
/// finishes its campaign and its store line counts the skipped sweeps.
/// Once the lock is free the same sweep on an emptied store evicts down
/// to the cap and names no skip.
#[test]
fn a_capped_sweep_beside_a_lock_holder_says_it_skipped() {
    let scratch = Scratch::new("sweep-held");
    let dir = scratch.path();
    let store = ArtifactStore::open(dir.join("cst"), None);
    let mut sweep = vec![
        "sweep",
        "--store",
        "cst",
        "--store-cap",
        "1K",
        "--out",
        "r.json",
    ];
    sweep.extend(ONE_JOB);

    let lock = store.coordinate().expect("the lock is free");
    let out = smctl(&sweep, dir);
    assert_eq!(exit_code(&out), 0, "capped sweep: {}", stderr(&out));
    let writes = store.usage().files;
    assert!(writes > 0, "the sweep wrote its artifacts");
    assert_eq!(
        store_line(&out),
        format!(
            "store: 0 disk hits, {writes} misses, {writes} writes, 0 evictions, \
             {writes} cap sweep(s) skipped: a live peer holds the store lock"
        )
    );

    drop(lock);
    store.clear();
    let out = smctl(&sweep, dir);
    assert_eq!(exit_code(&out), 0, "capped sweep: {}", stderr(&out));
    let line = store_line(&out);
    assert!(line.ends_with(" evictions"), "no skip named: {line}");
    assert!(
        !line.ends_with(" 0 evictions"),
        "the cap is enforced: {line}"
    );
    assert!(store.usage().bytes <= 1024, "{line}");
}

/// A client that disconnects mid-`--follow` leaves the service and its
/// campaign intact: a later submit of the same spec attaches to that
/// campaign and gets the solo sweep's bytes, and the service still
/// answers and drains.
#[test]
fn a_client_that_disconnects_mid_follow_leaves_the_campaign_intact() {
    use std::io::{BufRead, BufReader};

    let scratch = Scratch::new("disconnect");
    let dir = scratch.path();
    let spec = [
        "--benchmarks",
        "c432,c880",
        "--seeds",
        "1..=4",
        "--split-layers",
        "3,4",
        "--attacks",
        "crouting",
    ];
    let mut service = Service::start(dir, "sm.sock", "st");

    let mut follow = Command::new(env!("CARGO_BIN_EXE_smctl"))
        .args(["submit", "--socket", "sm.sock", "--follow"])
        .args(spec)
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn smctl submit --follow");
    let mut lines = BufReader::new(follow.stderr.take().expect("piped stderr")).lines();
    let first_event = loop {
        let line = lines
            .next()
            .expect("the follower streams an event before the report")
            .expect("read the follower's stderr");
        if !line.starts_with("accepted campaign") {
            break line;
        }
    };
    follow.kill().expect("kill the follower");
    let status = follow.wait().expect("reap the follower");
    assert_eq!(
        status.code(),
        None,
        "the follower was killed mid-campaign (first event: {first_event})"
    );
    drop(lines);

    let mut submit = vec!["submit", "--socket", "sm.sock", "--out", "served.json"];
    submit.extend(spec);
    let out = smctl(&submit, dir);
    assert_eq!(exit_code(&out), 0, "submit: {}", stderr(&out));
    let mut solo = vec!["sweep", "--no-store", "--out", "solo.json"];
    solo.extend(spec);
    let out = smctl(&solo, dir);
    assert_eq!(exit_code(&out), 0, "sweep: {}", stderr(&out));
    let served = std::fs::read(dir.join("served.json")).unwrap();
    let solo = std::fs::read(dir.join("solo.json")).unwrap();
    assert!(
        served == solo,
        "the served report differs from the solo sweep"
    );

    let out = smctl(&["status", "--socket", "sm.sock"], dir);
    assert_eq!(exit_code(&out), 0, "status: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        stdout.lines().any(|line| line == "completed:  1"),
        "one campaign served both submissions: {stdout}"
    );

    let out = smctl(&["stop", "--socket", "sm.sock"], dir);
    assert_eq!(exit_code(&out), 0, "stop: {}", stderr(&out));
    assert!(service.0.wait().expect("reap the service").success());
    assert!(!dir.join("sm.sock").exists(), "a drained service unbinds");
}
