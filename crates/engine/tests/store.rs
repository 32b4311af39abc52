//! Integration tests for the disk-backed artifact store: warm-run
//! zero-build guarantee, corruption tolerance (including compressed
//! payloads), version gating, atomic concurrent writes, the maintenance
//! lock and size-budget eviction.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_engine::campaign::{run_sweep_budgeted, SweepSpec};
use sm_engine::job::AttackKind;
use sm_engine::report::ReportOptions;
use sm_engine::store::{ArtifactStore, Stage, StoreLock, STORE_MAGIC};
use sm_engine::{ArtifactCache, SplitArm};
use sm_exec::Budget;
use sm_netlist::Netlist;

/// A unique scratch directory per test invocation, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sm-store-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn tiny_spec() -> SweepSpec {
    SweepSpec {
        benchmarks: vec!["c432".into()],
        seeds: vec![1],
        split_layers: vec![4],
        attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
        scale: 100,
        master_seed: 1,
        layout_seed: None,
    }
}

fn store_at(dir: &Path) -> Arc<ArtifactStore> {
    Arc::new(ArtifactStore::open(dir, None))
}

/// Every persisted stage artifact (all stage subdirectories except the
/// job outcomes), sorted for determinism.
fn stage_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for stage in Stage::ALL {
        if stage == Stage::Outcome {
            continue;
        }
        if let Ok(entries) = fs::read_dir(dir.join(stage.dir())) {
            out.extend(entries.flatten().map(|e| e.path()));
        }
    }
    out.sort();
    out
}

/// The acceptance bar of this PR: a second run against a warm store
/// performs **zero** bundle builds and reproduces the cold run's
/// canonical reports byte-for-byte.
#[test]
fn warm_store_second_run_builds_nothing_and_matches_bytes() {
    let scratch = Scratch::new("warm");
    let spec = tiny_spec();
    let exec = Budget::with_threads(Some(2));

    let cold_cache = ArtifactCache::with_store(store_at(scratch.path()));
    let cold = run_sweep_budgeted(&spec, &exec, &cold_cache, None).unwrap();
    assert_eq!(cold.cache.builds, 1, "cold run builds the bundle once");
    // Every bundle stage persisted something: netlist, layout and
    // protected design. Split views are derived in memory, never stored.
    for stage in [Stage::Netlist, Stage::Layout, Stage::Protect] {
        assert!(
            fs::read_dir(scratch.path().join(stage.dir())).is_ok(),
            "{} artifacts persisted",
            stage.label()
        );
    }
    assert!(
        !scratch.path().join(Stage::Split.dir()).exists(),
        "a cold run stores no split views"
    );

    // Fresh cache + fresh store handle = a new process, same directory.
    let warm_store = store_at(scratch.path());
    let warm_cache = ArtifactCache::with_store(Arc::clone(&warm_store));
    let warm = run_sweep_budgeted(&spec, &exec, &warm_cache, None).unwrap();
    assert_eq!(warm.cache.builds, 0, "warm run must not build bundles");
    assert!(
        warm_store.stats().disk_hits > 0,
        "warm run is served from the store (persisted outcomes/bundles)"
    );

    let opts = ReportOptions::default();
    assert_eq!(
        cold.to_json(opts).render(),
        warm.to_json(opts).render(),
        "canonical JSON must be byte-identical cold vs warm"
    );
    assert_eq!(cold.to_csv(opts), warm.to_csv(opts));
    assert_eq!(cold.aggregates_to_csv(), warm.aggregates_to_csv());
}

/// The frames of one stage directory with their bytes, sorted by name.
fn stage_frames(dir: &Path, stage: Stage) -> Vec<(PathBuf, Vec<u8>)> {
    let mut frames: Vec<_> = fs::read_dir(dir.join(stage.dir()))
        .map(|entries| {
            entries
                .flatten()
                .map(|e| (e.path(), fs::read(e.path()).unwrap()))
                .collect()
        })
        .unwrap_or_default();
    frames.sort();
    frames
}

/// The protect and lift stages build over the place+route stage's
/// layout, so a store that lost them (and the job outcomes) rebuilds
/// both over the *decoded* layout: no place+route runs, and the
/// rebuilt frames and the report equal the cold run's byte for byte.
#[test]
fn protect_and_lift_rebuild_over_a_decoded_layout() {
    let scratch = Scratch::new("relayout");
    let spec = SweepSpec {
        benchmarks: vec!["c432".into(), "superblue18".into()],
        seeds: vec![1],
        split_layers: vec![4],
        attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
        scale: 1000,
        master_seed: 1,
        layout_seed: None,
    };
    let exec = Budget::with_threads(Some(2));
    let cold_cache = ArtifactCache::with_store(store_at(scratch.path()));
    let cold = run_sweep_budgeted(&spec, &exec, &cold_cache, None).unwrap();
    let protected = stage_frames(scratch.path(), Stage::Protect);
    let lifted = stage_frames(scratch.path(), Stage::Lift);
    assert_eq!((protected.len(), lifted.len()), (2, 1));
    for stage in [Stage::Protect, Stage::Lift, Stage::Outcome] {
        fs::remove_dir_all(scratch.path().join(stage.dir())).unwrap();
    }

    let cache = ArtifactCache::with_store(store_at(scratch.path()));
    let rebuilt = run_sweep_budgeted(&spec, &exec, &cache, None).unwrap();
    let stages = rebuilt.stages;
    assert_eq!(stages.builds_of(Stage::Layout), 0, "no place+route reruns");
    assert_eq!(stages.decodes_of(Stage::Layout), 2);
    assert_eq!(stages.builds_of(Stage::Protect), 2);
    assert_eq!(stages.builds_of(Stage::Lift), 1);
    let opts = ReportOptions::default();
    assert_eq!(
        cold.to_json(opts).render(),
        rebuilt.to_json(opts).render(),
        "canonical JSON must be byte-identical"
    );
    assert_eq!(stage_frames(scratch.path(), Stage::Protect), protected);
    assert_eq!(stage_frames(scratch.path(), Stage::Lift), lifted);
}

/// Split views are derived in memory and never read from or written
/// to the store: over garbage `splits/` frames under the views' own
/// keys, a rerun that lost its job outcomes derives each view once,
/// reproduces the report byte for byte and leaves the frames as they
/// were.
#[test]
fn stored_split_frames_are_neither_read_nor_written() {
    let scratch = Scratch::new("splits");
    let spec = SweepSpec {
        split_layers: vec![3, 4],
        ..tiny_spec()
    };
    let exec = Budget::with_threads(Some(2));
    let cold_cache = ArtifactCache::with_store(store_at(scratch.path()));
    let cold = run_sweep_budgeted(&spec, &exec, &cold_cache, None).unwrap();

    let splits = scratch.path().join(Stage::Split.dir());
    fs::create_dir_all(&splits).unwrap();
    let key = spec.jobs().unwrap()[0].bundle_key();
    let mut garbage = Vec::new();
    for &layer in &spec.split_layers {
        for arm in [SplitArm::Protected, SplitArm::Original] {
            let path = splits.join(format!("{}-{}-l{layer}.art", key.id(), arm.id()));
            let mut bytes = STORE_MAGIC.to_vec();
            bytes.extend((0..64u8).map(|i| i ^ layer));
            fs::write(&path, &bytes).unwrap();
            garbage.push((path, bytes));
        }
    }
    fs::remove_dir_all(scratch.path().join(Stage::Outcome.dir())).unwrap();

    let cache = ArtifactCache::with_store(store_at(scratch.path()));
    let rerun = run_sweep_budgeted(&spec, &exec, &cache, None).unwrap();
    assert_eq!(rerun.cache.builds, 0, "the bundle decodes from the store");
    let layers = spec.split_layers.len() as u64;
    assert_eq!(rerun.stages.builds_of(Stage::Split), 2 * layers);
    assert_eq!(rerun.stages.decodes_of(Stage::Split), 0);
    let opts = ReportOptions::default();
    assert_eq!(
        cold.to_json(opts).render(),
        rerun.to_json(opts).render(),
        "canonical JSON must be byte-identical"
    );
    for (path, bytes) in &garbage {
        assert_eq!(&fs::read(path).unwrap(), bytes, "{}", path.display());
    }
}

/// Corrupted or truncated store files — now LZ-compressed frames — are
/// misses that trigger a clean rebuild (and get overwritten), never a
/// panic or a misparse.
#[test]
fn corrupt_and_truncated_files_fall_back_to_rebuild() {
    let scratch = Scratch::new("corrupt");
    let spec = tiny_spec();
    let exec = Budget::with_threads(Some(2));
    let cold = run_sweep_budgeted(
        &spec,
        &exec,
        &ArtifactCache::with_store(store_at(scratch.path())),
        None,
    )
    .unwrap();

    for mutilate in [
        // Garble payload bytes past the header.
        |bytes: &mut Vec<u8>| {
            let n = bytes.len();
            for b in bytes[n / 2..].iter_mut().take(64) {
                *b ^= 0xa5;
            }
        },
        // Truncate mid-payload.
        |bytes: &mut Vec<u8>| bytes.truncate(bytes.len() / 3),
    ] {
        for file in stage_files(scratch.path()) {
            let mut bytes = fs::read(&file).unwrap();
            mutilate(&mut bytes);
            fs::write(&file, bytes).unwrap();
        }
        // Also mutilate persisted job outcomes so the jobs re-run.
        for file in fs::read_dir(scratch.path().join("jobs")).unwrap().flatten() {
            let mut bytes = fs::read(file.path()).unwrap();
            mutilate(&mut bytes);
            fs::write(file.path(), bytes).unwrap();
        }
        let store = store_at(scratch.path());
        let cache = ArtifactCache::with_store(Arc::clone(&store));
        let rebuilt = run_sweep_budgeted(&spec, &exec, &cache, None).unwrap();
        assert_eq!(rebuilt.cache.builds, 1, "corrupt store falls back to build");
        assert!(store.stats().disk_misses > 0);
        assert_eq!(
            rebuilt.to_json(ReportOptions::default()).render(),
            cold.to_json(ReportOptions::default()).render()
        );
    }
}

/// A version-header mismatch is treated as a stale format: rebuilt,
/// never misparsed.
#[test]
fn version_header_mismatch_triggers_rebuild() {
    let scratch = Scratch::new("version");
    let profile = sm_benchgen::iscas::IscasProfile::c432();
    let netlist = sm_benchgen::iscas::generate(&profile, 7);
    let store = store_at(scratch.path());
    store.save_stage(Stage::Netlist, "c432-v", &netlist);
    assert!(store
        .load_stage::<Netlist>(Stage::Netlist, "c432-v")
        .is_some());

    for file in stage_files(scratch.path()) {
        let mut bytes = fs::read(&file).unwrap();
        assert_eq!(&bytes[..4], STORE_MAGIC.as_slice());
        // Bump the format version field (little-endian u16 after magic).
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&file, bytes).unwrap();
    }
    let fresh = store_at(scratch.path());
    assert!(
        fresh
            .load_stage::<Netlist>(Stage::Netlist, "c432-v")
            .is_none(),
        "future/stale format version must be a miss"
    );
    assert_eq!(fresh.stats().disk_misses, 1);

    // Re-saving overwrites the stale frame and it loads again.
    fresh.save_stage(Stage::Netlist, "c432-v", &netlist);
    assert!(fresh
        .load_stage::<Netlist>(Stage::Netlist, "c432-v")
        .is_some());
}

/// A pre-compression (v1) store — same magic, version 1, no
/// per-stage framing — opens as a set of clean misses that a cold run
/// silently rebuilds; nothing misparses and `clear` still sweeps the
/// legacy files away.
#[test]
fn v1_store_reads_as_clean_misses() {
    let scratch = Scratch::new("v1");
    // Fabricate v1-era files: magic + version 1 + arbitrary payload,
    // both in a current stage dir and the legacy flat `bundles/` dir.
    let legacy = scratch.path().join("bundles");
    let netdir = scratch.path().join(Stage::Netlist.dir());
    fs::create_dir_all(&legacy).unwrap();
    fs::create_dir_all(&netdir).unwrap();
    let mut v1 = Vec::new();
    v1.extend_from_slice(&STORE_MAGIC);
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&[0x5a; 200]);
    fs::write(legacy.join("c432-s1.bundle"), &v1).unwrap();
    fs::write(netdir.join("c432-n1.art"), &v1).unwrap();

    let store = store_at(scratch.path());
    assert!(
        store
            .load_stage::<Netlist>(Stage::Netlist, "c432-n1")
            .is_none(),
        "v1 frame must be a miss, not a misparse"
    );
    // `usage` reports the live v2 layout only, but maintenance still
    // sweeps the legacy flat directory.
    assert_eq!(store.usage().files, 1);
    assert_eq!(store.clear(), 2, "clear sweeps legacy v1 files too");
}

/// Bit-flips inside the *compressed* region of a stored frame (past
/// the 24-byte header) and truncations through it are detected by the
/// checksum/decompressor and read back as misses.
#[test]
fn corrupt_compressed_payloads_are_misses() {
    let scratch = Scratch::new("lzcorrupt");
    let profile = sm_benchgen::iscas::IscasProfile::c432();
    let netlist = sm_benchgen::iscas::generate(&profile, 3);
    let store = store_at(scratch.path());
    store.save_stage(Stage::Netlist, "c432-z", &netlist);
    let path = stage_files(scratch.path()).pop().unwrap();
    let pristine = fs::read(&path).unwrap();
    assert!(
        pristine.len() > 24,
        "frame must carry a payload past the header"
    );

    // Flip a single bit at several payload offsets.
    for offset in [24, pristine.len() / 2, pristine.len() - 1] {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let fresh = store_at(scratch.path());
        assert!(
            fresh
                .load_stage::<Netlist>(Stage::Netlist, "c432-z")
                .is_none(),
            "bit-flip at {offset} must be a miss"
        );
    }
    // Truncate at every region boundary: inside the header, right
    // after it, and mid-payload.
    for cut in [3, 10, 24, pristine.len() - 1] {
        let mut bytes = pristine.clone();
        bytes.truncate(cut);
        fs::write(&path, &bytes).unwrap();
        let fresh = store_at(scratch.path());
        assert!(
            fresh
                .load_stage::<Netlist>(Stage::Netlist, "c432-z")
                .is_none(),
            "truncation to {cut} bytes must be a miss"
        );
    }
    // The pristine bytes still round-trip (the file itself is fine).
    fs::write(&path, &pristine).unwrap();
    let fresh = store_at(scratch.path());
    let loaded = fresh
        .load_stage::<Netlist>(Stage::Netlist, "c432-z")
        .expect("pristine frame loads");
    assert_eq!(loaded.num_nets(), netlist.num_nets());
}

/// Concurrent writers of the same key (as two racing `smctl` processes
/// would be) never leave a torn file: whoever renames last wins with a
/// complete artifact.
#[test]
fn concurrent_writers_do_not_clobber_each_other() {
    let scratch = Scratch::new("concurrent");
    let profile = sm_benchgen::iscas::IscasProfile::c432();
    let netlist = sm_benchgen::iscas::generate(&profile, 3);
    std::thread::scope(|s| {
        for _ in 0..4 {
            // Separate store handles, like separate processes.
            let store = store_at(scratch.path());
            let netlist = &netlist;
            s.spawn(move || {
                for _ in 0..3 {
                    store.save_stage(Stage::Netlist, "c432-race", netlist);
                }
            });
        }
    });
    let store = store_at(scratch.path());
    let loaded = store
        .load_stage::<Netlist>(Stage::Netlist, "c432-race")
        .expect("file intact after the race");
    assert_eq!(loaded.num_nets(), netlist.num_nets());
    // No temp files left behind.
    let leftovers: Vec<_> = fs::read_dir(scratch.path().join(Stage::Netlist.dir()))
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "staging files must not leak");
}

/// The size budget is enforced least-recently-used-first and the store
/// never exceeds it after a write settles.
#[test]
fn eviction_respects_the_size_budget() {
    let scratch = Scratch::new("evict");
    let profile = sm_benchgen::iscas::IscasProfile::c432();
    let netlist = sm_benchgen::iscas::generate(&profile, 1);
    let id = |seed: u64| format!("c432-e{seed}");

    // Measure one artifact, then cap the store at roughly two of them.
    let unbounded = store_at(scratch.path());
    unbounded.save_stage(Stage::Netlist, &id(1), &netlist);
    let one = unbounded.usage().bytes;
    assert!(one > 0);
    unbounded.clear();

    let cap = one * 2 + one / 2;
    let capped = Arc::new(ArtifactStore::open(scratch.path(), Some(cap)));
    for seed in 1..=4 {
        capped.save_stage(Stage::Netlist, &id(seed), &netlist);
        assert!(
            capped.usage().bytes <= cap,
            "store exceeded its budget after write {seed}"
        );
    }
    let stats = capped.stats();
    assert!(stats.evictions >= 2, "older artifacts were evicted");
    // The most recent write survives; the oldest is gone.
    assert!(capped
        .load_stage::<Netlist>(Stage::Netlist, &id(4))
        .is_some());
    assert!(capped
        .load_stage::<Netlist>(Stage::Netlist, &id(1))
        .is_none());

    // Loads refresh recency: touch seed 3, then push it over budget —
    // the untouched artifact is evicted first.
    assert!(capped
        .load_stage::<Netlist>(Stage::Netlist, &id(3))
        .is_some());
    capped.save_stage(Stage::Netlist, &id(5), &netlist);
    assert!(
        capped
            .load_stage::<Netlist>(Stage::Netlist, &id(3))
            .is_some(),
        "recently-used artifact survives eviction"
    );

    assert!(capped.clear() > 0);
    assert_eq!(capped.usage().files, 0);
}

/// The size budget counts every file eviction may remove, legacy v1
/// `bundles/` files included: a store over its cap only because of
/// such a file evicts it at the next capped save.
#[test]
fn a_capped_save_evicts_a_legacy_bundle_over_the_cap() {
    let scratch = Scratch::new("legacycap");
    let profile = sm_benchgen::iscas::IscasProfile::c432();
    let netlist = sm_benchgen::iscas::generate(&profile, 1);
    let unbounded = store_at(scratch.path());
    unbounded.save_stage(Stage::Netlist, "c432-c1", &netlist);
    let one = unbounded.usage().bytes;
    unbounded.clear();

    let legacy = scratch.path().join("bundles").join("c432-s1.bundle");
    fs::create_dir_all(legacy.parent().unwrap()).unwrap();
    let mut v1 = STORE_MAGIC.to_vec();
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&[0x5a; 4096]);
    fs::write(&legacy, &v1).unwrap();
    fs::File::options()
        .append(true)
        .open(&legacy)
        .unwrap()
        .set_modified(std::time::SystemTime::UNIX_EPOCH)
        .unwrap();

    // The new frame fits the cap on its own; next to the legacy file
    // it does not.
    let capped = ArtifactStore::open(scratch.path(), Some(one + v1.len() as u64 / 2));
    capped.save_stage(Stage::Netlist, "c432-c1", &netlist);
    assert!(!legacy.exists(), "the legacy bundle is evicted");
    assert_eq!(capped.stats().evictions, 1);
    assert!(capped
        .load_stage::<Netlist>(Stage::Netlist, "c432-c1")
        .is_some());
}

/// Maintenance honors the store's lock: while a live peer holds it,
/// `gc_to` backs off at once, evicts nothing and reports the skip as
/// `None` (the peer's sweep enforces the shared cap); once released,
/// eviction proceeds.
#[test]
fn gc_backs_off_while_a_live_peer_holds_the_lock() {
    let scratch = Scratch::new("lock");
    let profile = sm_benchgen::iscas::IscasProfile::c432();
    let netlist = sm_benchgen::iscas::generate(&profile, 1);
    let store = store_at(scratch.path());
    for i in 0..3 {
        store.save_stage(Stage::Netlist, &format!("c432-l{i}"), &netlist);
    }
    let before = store.usage();

    let peer = StoreLock::acquire(scratch.path(), Duration::ZERO).expect("the lock is free");
    let start = Instant::now();
    assert!(
        store.gc_to(1).is_none(),
        "gc must skip, and say so, under a held lock"
    );
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "gc tries the lock once instead of waiting for it"
    );
    assert_eq!(store.usage(), before, "no files touched under a held lock");

    // Lock released → eviction proceeds normally.
    drop(peer);
    assert!(store.gc_to(1).is_some_and(|evicted| evicted > 0));
    assert_eq!(store.usage().files, 0);
}

/// Eight threads contending for the lock hold it one at a time, and a
/// dropped lock is free again at once.
#[test]
fn contending_threads_hold_the_lock_one_at_a_time() {
    let scratch = Scratch::new("contend");
    let holders = AtomicU64::new(0);
    let acquired = AtomicU64::new(0);
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                start.wait();
                let lock = StoreLock::acquire(scratch.path(), Duration::from_secs(30))
                    .expect("every contender gets its turn");
                assert_eq!(holders.fetch_add(1, Ordering::SeqCst), 0, "two holders");
                std::thread::sleep(Duration::from_millis(20));
                holders.fetch_sub(1, Ordering::SeqCst);
                acquired.fetch_add(1, Ordering::SeqCst);
                drop(lock);
            });
        }
    });
    assert_eq!(acquired.load(Ordering::SeqCst), 8);

    let held = StoreLock::acquire(scratch.path(), Duration::ZERO).expect("the lock is free");
    assert!(
        StoreLock::acquire(scratch.path(), Duration::ZERO).is_none(),
        "a held lock is not taken twice"
    );
    drop(held);
    assert!(
        StoreLock::acquire(scratch.path(), Duration::ZERO).is_some(),
        "a dropped lock is free again at once"
    );
}
