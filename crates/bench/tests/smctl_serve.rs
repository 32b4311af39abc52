//! `smctl serve` lifecycle tests, driven against the real binary
//! (`CARGO_BIN_EXE_smctl`): a service killed with SIGKILL restarts on
//! its store and socket at once (the kernel released its store lock),
//! a second service on a held store refuses to start without ever
//! binding its socket, and `store gc` beside a lock holder says it
//! skipped.

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

    let out = smctl(&["serve", "--stop", "--socket", "sm.sock"], dir);
    assert_eq!(exit_code(&out), 0, "serve --stop: {}", stderr(&out));
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
    assert!(
        !dir.join("b.sock").exists(),
        "a service that cannot own its store leaves no socket"
    );
    let out = smctl(&["serve", "--stop", "--socket", "a.sock"], dir);
    assert_eq!(exit_code(&out), 0, "serve --stop: {}", stderr(&out));
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
