//! Disk-backed artifact store: the persistent tier under the in-memory
//! bundle cache.
//!
//! PR 2 persisted whole bundles; PR 7 splits the content key **per
//! pipeline stage** (generate → place+route → protect → lift → split),
//! so each stage's artifact lives in its own file under its own
//! subdirectory and a bundle assembly rebuilds only the stages the store
//! is missing. Finished job metrics persist alongside under `jobs/`.
//! Payloads are LZ-compressed ([`sm_codec::lz`]) when that wins.
//!
//! Robustness rules, each covered by a test:
//!
//! * **atomic write-then-rename** — payloads land in a unique temp file
//!   first and are `rename`d into place, so a crash (or a concurrent
//!   `smctl` writing the same key) never leaves a torn file behind;
//! * **version header** — every file starts with magic, format version,
//!   payload kind, compression flags, raw length and a payload
//!   checksum; any mismatch — including every v1 (uncompressed,
//!   whole-bundle) store file — is a *miss* (rebuild and overwrite),
//!   never a misparse;
//! * **corrupt tolerance** — truncation and bit-flips are caught by the
//!   checksum before decompression or decoding, and [`sm_codec`] never
//!   panics on hostile input even if bytes collide; both count as
//!   misses;
//! * **size budget** — an optional byte cap (`--store-cap`) is enforced
//!   by least-recently-used eviction (loads refresh a file's mtime),
//!   serialized across *processes* through a `.lock` file so concurrent
//!   `smctl` invocations sharing a store respect one budget.
//!
//! The store is deliberately quiet about I/O errors: a store that cannot
//! read or write must degrade to "no store" (every operation a miss),
//! never break a campaign. Failures are counted in [`StoreStats`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use sm_codec::{decode_from_slice, lz, Decode, Encode, Reader, Writer};
use sm_exec::fault::{self, Fault, FaultInject, FaultSite};

use crate::job::Job;
use crate::journal::{Event, Journal};
use crate::metrics::JobMetrics;

/// File magic: every store file starts with these four bytes.
pub const STORE_MAGIC: [u8; 4] = *b"SMST";

/// Store format version. Bump on **any** change to the encodings in this
/// workspace; readers treat other versions as misses so stale artifacts
/// are rebuilt, never misparsed. v2 = per-stage artifacts with LZ
/// compression (v1 stored whole uncompressed bundles).
pub const STORE_FORMAT_VERSION: u16 = 2;

/// Header flag bit: the payload is LZ-compressed.
const FLAG_LZ: u8 = 1;

/// Bytes of fixed header before the payload: magic (4), version (2),
/// kind (1), flags (1), raw length (8), checksum (8).
const HEADER_LEN: usize = 24;

/// The pipeline stage an artifact belongs to. Each stage keys its own
/// subdirectory, so `store stats` can break usage down per stage and a
/// sweep that shares a layout across jobs persists it exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Generated netlist (stage `generate`).
    Netlist,
    /// Place+route of the unprotected baseline (stage `place+route`).
    Layout,
    /// The protected design produced by the full flow.
    Protect,
    /// Naive-lifting baseline (superblue bundles only).
    Lift,
    /// FEOL/BEOL split views, keyed by bundle × arm × split layer.
    Split,
    /// Finished job metrics.
    Outcome,
}

impl Stage {
    /// Every stage, in pipeline order (the `store stats` row order).
    pub const ALL: [Stage; 6] = [
        Stage::Netlist,
        Stage::Layout,
        Stage::Protect,
        Stage::Lift,
        Stage::Split,
        Stage::Outcome,
    ];

    /// Position in [`Stage::ALL`], for fixed-size per-stage counters.
    pub fn index(self) -> usize {
        self.kind() as usize - 1
    }

    /// The header's payload-kind tag (part of the checksummed header, so
    /// a split file renamed onto an outcome key still fails cleanly).
    fn kind(self) -> u8 {
        match self {
            Stage::Netlist => 1,
            Stage::Layout => 2,
            Stage::Protect => 3,
            Stage::Lift => 4,
            Stage::Split => 5,
            Stage::Outcome => 6,
        }
    }

    /// Subdirectory under the store root.
    pub fn dir(self) -> &'static str {
        match self {
            Stage::Netlist => "netlists",
            Stage::Layout => "layouts",
            Stage::Protect => "protected",
            Stage::Lift => "lifted",
            Stage::Split => "splits",
            Stage::Outcome => "jobs",
        }
    }

    /// Human-readable stage name for reports and `store stats`.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Netlist => "generate",
            Stage::Layout => "place+route",
            Stage::Protect => "protect",
            Stage::Lift => "lift",
            Stage::Split => "split",
            Stage::Outcome => "outcome",
        }
    }
}

/// Store operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Loads that returned a decoded artifact.
    pub disk_hits: u64,
    /// Loads that found no file, a stale header, or a corrupt payload.
    pub disk_misses: u64,
    /// Artifacts persisted successfully.
    pub writes: u64,
    /// Writes that failed on I/O (the campaign continues without them).
    pub write_failures: u64,
    /// Files removed by the size-budget eviction.
    pub evictions: u64,
}

/// Disk usage of one stage's artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageUsage {
    /// Store files present.
    pub files: u64,
    /// Bytes on disk (compressed).
    pub bytes: u64,
    /// Payload bytes before compression (headers excluded).
    pub raw_bytes: u64,
}

/// Disk usage summary for `smctl store stats`, broken down per stage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreUsage {
    /// Store files present.
    pub files: u64,
    /// Total bytes on disk.
    pub bytes: u64,
    /// Total payload bytes before compression.
    pub raw_bytes: u64,
    /// Per-stage breakdown, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, StageUsage)>,
}

impl StoreUsage {
    /// Uncompressed-to-stored payload ratio (1.0 = incompressible).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.bytes as f64
        }
    }
}

/// How many persistent I/O failures flip the store into memory-only
/// degraded mode.
const DEGRADE_THRESHOLD: u64 = 3;

/// The disk-backed artifact store. Cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    cap_bytes: Option<u64>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    writes: AtomicU64,
    write_failures: AtomicU64,
    evictions: AtomicU64,
    tmp_counter: AtomicU64,
    faults: Option<Arc<dyn FaultInject>>,
    journal: Mutex<Option<Arc<Journal>>>,
    persistent_failures: AtomicU64,
    degraded: AtomicBool,
    coordinated: AtomicBool,
}

impl ArtifactStore {
    /// Opens (lazily — directories are created on first write) a store
    /// rooted at `root` with an optional size budget in bytes.
    pub fn open(root: impl Into<PathBuf>, cap_bytes: Option<u64>) -> ArtifactStore {
        ArtifactStore {
            root: root.into(),
            cap_bytes,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
            faults: None,
            journal: Mutex::new(None),
            persistent_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            coordinated: AtomicBool::new(false),
        }
    }

    /// Acquires the store's `.lock` for the lifetime of a service
    /// coordinator and flips this handle into *coordinated* mode: while
    /// coordinated, maintenance sweeps ([`gc_to`](ArtifactStore::gc_to),
    /// [`clear`](ArtifactStore::clear)) run under the coordinator's
    /// long-held reservation instead of re-acquiring per sweep. The
    /// caller owns keeping the returned lock fresh
    /// ([`StoreLock::refresh_if_due`]) across long idle stretches.
    /// `None` when a live peer holds the lock.
    pub fn coordinate(&self) -> Option<StoreLock> {
        let lock = StoreLock::acquire(&self.root, &|age, pid| self.note_lock_steal(age, pid))?;
        self.coordinated.store(true, Ordering::Relaxed);
        Some(lock)
    }

    /// Attaches a fault injector consulted before every payload read
    /// and write — the chaos-testing hook behind
    /// `--fault-seed`/`--fault-profile`.
    pub fn with_faults(mut self, faults: Arc<dyn FaultInject>) -> ArtifactStore {
        self.faults = Some(faults);
        self
    }

    /// Attaches a campaign journal so store maintenance incidents (a
    /// stolen stale lock) are recorded alongside the campaign's events.
    pub fn set_journal(&self, journal: Arc<Journal>) {
        *self.journal.lock().unwrap_or_else(|p| p.into_inner()) = Some(journal);
    }

    /// `true` once persistent I/O failures dropped the store into
    /// memory-only degraded mode (every load a miss, every save a
    /// no-op). Campaign results are unaffected — bundles rebuild in
    /// memory instead of persisting.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Counts one persistent I/O failure; at [`DEGRADE_THRESHOLD`] the
    /// store degrades to memory-only with a one-time warning.
    fn note_persistent_failure(&self) {
        let n = self.persistent_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= DEGRADE_THRESHOLD && !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: store degraded after {n} persistent I/O failures; \
                 continuing memory-only (results are unaffected)"
            );
        }
    }

    /// Reports a stolen stale `.lock`: age and holder PID to stderr,
    /// and a `store-lock-stolen` record when a journal is attached.
    fn note_lock_steal(&self, age: Duration, holder_pid: u64) {
        eprintln!(
            "warning: stole stale store lock at {} (age {}s, holder pid {holder_pid})",
            self.root.join(".lock").display(),
            age.as_secs(),
        );
        let journal = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(journal) = journal.as_ref() {
            journal.record(&Event::StoreLockStolen {
                age_secs: age.as_secs(),
                holder_pid,
            });
        }
    }

    /// Consults the fault injector for `site` on the artifact at
    /// `path`, retrying transient faults with deterministic backoff.
    /// `true` means the operation must be treated as failed. The
    /// decision key is the stage-qualified file stem — independent of
    /// the store root, so a fault plan picks the same victims whatever
    /// directory (or thread count) a run uses.
    fn faulted(&self, site: FaultSite, stage: Stage, path: &Path) -> bool {
        let Some(faults) = &self.faults else {
            return false;
        };
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let key = format!("{}/{stem}", stage.dir());
        for attempt in 0..fault::MAX_ATTEMPTS {
            match faults.inject(site, &key, attempt) {
                None => return false,
                Some(Fault::Transient) => fault::backoff(attempt),
                Some(Fault::Persistent) | Some(Fault::Panic(_)) => {
                    self.note_persistent_failure();
                    return true;
                }
            }
        }
        // A transient fault that never cleared within the retry budget
        // is persistent in effect.
        self.note_persistent_failure();
        true
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured size budget, if any.
    pub fn cap_bytes(&self) -> Option<u64> {
        self.cap_bytes
    }

    /// Counters accumulated by this handle.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    // ----- keys → paths ---------------------------------------------------

    fn stage_path(&self, stage: Stage, id: &str) -> PathBuf {
        let ext = if stage == Stage::Outcome {
            "outcome"
        } else {
            "art"
        };
        self.root.join(stage.dir()).join(format!("{id}.{ext}"))
    }

    // ----- stage I/O ------------------------------------------------------

    /// Loads the stage artifact stored under `id`, if present and intact.
    pub fn load_stage<T: Decode>(&self, stage: Stage, id: &str) -> Option<T> {
        self.load_payload(&self.stage_path(stage, id), stage)
    }

    /// Persists a stage artifact under `id`.
    pub fn save_stage<T: Encode>(&self, stage: Stage, id: &str, value: &T) {
        self.save_payload(&self.stage_path(stage, id), stage, value);
    }

    /// Loads the finished metrics of `job`, if present and intact.
    pub fn load_outcome(&self, job: &Job) -> Option<JobMetrics> {
        self.load_stage(Stage::Outcome, &job.outcome_key())
    }

    /// Persists the finished metrics of `job`. Timed-out and failed
    /// placeholders are **not** results and are never persisted: a
    /// later resume must re-run the job, not replay its absence.
    pub fn save_outcome(&self, job: &Job, metrics: &JobMetrics) {
        if metrics.is_placeholder() {
            return;
        }
        self.save_stage(Stage::Outcome, &job.outcome_key(), metrics);
    }

    fn load_payload<T: Decode>(&self, path: &Path, stage: Stage) -> Option<T> {
        if self.is_degraded() || self.faulted(FaultSite::StoreLoad, stage, path) {
            self.disk_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let loaded = self.try_load(path, stage);
        match loaded {
            Some(_) => self.disk_hits.fetch_add(1, Ordering::Relaxed),
            None => self.disk_misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    fn try_load<T: Decode>(&self, path: &Path, stage: Stage) -> Option<T> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                // A missing file is the ordinary miss; anything else
                // (EIO, permission denied) pushes toward degraded mode.
                if e.kind() != io::ErrorKind::NotFound {
                    self.note_persistent_failure();
                }
                return None;
            }
        };
        let (stored, flags, raw_len) = check_header(&bytes, stage)?;
        let value = if flags & FLAG_LZ != 0 {
            let raw = lz::decompress(stored, raw_len).ok()?;
            decode_from_slice(&raw).ok()?
        } else {
            if stored.len() != raw_len {
                return None;
            }
            decode_from_slice(stored).ok()?
        };
        // Refresh mtime so eviction is least-recently-*used*, not
        // least-recently-written. Best effort: a read-only store still
        // serves hits.
        if let Ok(f) = fs::OpenOptions::new().append(true).open(path) {
            let _ = f.set_modified(SystemTime::now());
        }
        Some(value)
    }

    fn save_payload<T: Encode>(&self, path: &Path, stage: Stage, value: &T) {
        if self.is_degraded() || self.faulted(FaultSite::StoreSave, stage, path) {
            self.write_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Real I/O errors get the same bounded deterministic retry as
        // injected ones: transient conditions (EINTR, a racing
        // directory move) clear; persistent ones (ENOSPC, permission
        // denied) exhaust the budget and push toward degraded mode.
        let mut result = Ok(());
        for attempt in 0..fault::MAX_ATTEMPTS {
            result = self.try_save(path, stage, value);
            if result.is_ok() {
                break;
            }
            fault::backoff(attempt);
        }
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                if let Some(cap) = self.cap_bytes {
                    // Capped stores may be shared with other processes,
                    // so the budget check measures real usage instead of
                    // trusting a per-process running estimate; the scan
                    // is a handful of directory reads.
                    if self.usage().bytes > cap {
                        self.gc_to(cap);
                    }
                }
            }
            Err(_) => {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                self.note_persistent_failure();
            }
        }
    }

    /// Encodes, compresses (when that wins), stages and renames the
    /// artifact.
    fn try_save<T: Encode>(&self, path: &Path, stage: Stage, value: &T) -> io::Result<()> {
        let dir = path.parent().expect("store paths have a parent");
        fs::create_dir_all(dir)?;
        let payload = sm_codec::encode_to_vec(value);
        let packed = lz::compress(&payload);
        let (flags, stored) = if packed.len() < payload.len() {
            (FLAG_LZ, packed.as_slice())
        } else {
            (0, payload.as_slice())
        };
        let mut w = Writer::new();
        w.put_bytes(&STORE_MAGIC);
        STORE_FORMAT_VERSION.encode(&mut w);
        w.put_u8(stage.kind());
        w.put_u8(flags);
        (payload.len() as u64).encode(&mut w);
        fnv1a_bytes(stored).encode(&mut w);
        w.put_bytes(stored);
        let bytes = w.into_bytes();
        // Unique temp name per (process, write): concurrent writers of
        // the same key each stage their own file; whoever renames last
        // wins with a complete, valid artifact either way.
        let tmp = dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed),
            path.file_name().and_then(|n| n.to_str()).unwrap_or("f")
        ));
        fs::write(&tmp, bytes)?;
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    // ----- maintenance ----------------------------------------------------

    /// Files and bytes currently stored, broken down per stage. Raw
    /// (pre-compression) sizes are read from each file's header; files
    /// with foreign or damaged headers count their on-disk size.
    pub fn usage(&self) -> StoreUsage {
        let mut usage = StoreUsage {
            stages: Stage::ALL
                .iter()
                .map(|&s| (s, StageUsage::default()))
                .collect(),
            ..StoreUsage::default()
        };
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            let Ok(dir) = fs::read_dir(self.root.join(stage.dir())) else {
                continue;
            };
            for entry in dir.flatten() {
                let Some((path, _, len)) = store_file(&entry) else {
                    continue;
                };
                let raw = read_raw_len(&path).unwrap_or(len);
                let s = &mut usage.stages[i].1;
                s.files += 1;
                s.bytes += len;
                s.raw_bytes += raw;
            }
        }
        for &(_, s) in &usage.stages {
            usage.files += s.files;
            usage.bytes += s.bytes;
            usage.raw_bytes += s.raw_bytes;
        }
        usage
    }

    /// Enforces the size budget by deleting least-recently-used files
    /// until total usage fits. Returns the number of files evicted.
    /// A no-op without a configured cap.
    pub fn gc(&self) -> u64 {
        let Some(cap) = self.cap_bytes else { return 0 };
        self.gc_to(cap)
    }

    /// Evicts least-recently-used files until total usage is ≤ `cap`
    /// bytes, regardless of the configured budget. Eviction runs under
    /// the store's `.lock` file, so concurrent processes sharing the
    /// store serialize their sweeps and respect one budget; if the lock
    /// cannot be acquired (a peer is already evicting), this pass is
    /// skipped — the peer's sweep enforces the cap.
    pub fn gc_to(&self, cap: u64) -> u64 {
        // Under a service coordinator the reservation is already held
        // for the service's lifetime ([`coordinate`]) — re-acquiring
        // here would deadlock against our own lock.
        let lock = if self.coordinated.load(Ordering::Relaxed) {
            None
        } else {
            match StoreLock::acquire(&self.root, &|age, pid| self.note_lock_steal(age, pid)) {
                Some(lock) => Some(lock),
                None => return 0,
            }
        };
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
        if total <= cap {
            return 0;
        }
        entries.sort_by_key(|&(_, mtime, _)| mtime);
        let mut evicted = 0;
        for (path, _, len) in entries {
            if total <= cap {
                break;
            }
            // A sweep over a huge store can outlast the staleness
            // window — keep the lock visibly alive while we hold it.
            if let Some(lock) = &lock {
                lock.refresh_if_due();
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                evicted += 1;
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Deletes every stored artifact (under the shared `.lock`, waiting
    /// for any in-flight eviction to finish; proceeds unlocked after
    /// exhausting patience — explicit maintenance must not hang forever
    /// behind a wedged peer). Returns the number of files removed.
    pub fn clear(&self) -> u64 {
        let lock = if self.coordinated.load(Ordering::Relaxed) {
            None
        } else {
            StoreLock::acquire(&self.root, &|age, pid| self.note_lock_steal(age, pid))
        };
        let mut removed = 0;
        for (path, _, _) in self.entries() {
            if let Some(lock) = &lock {
                lock.refresh_if_due();
            }
            if fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Scans every stage directory, classifying each file as valid,
    /// legacy (foreign format version — e.g. a v1 store) or corrupt
    /// (bad magic, kind mismatch, checksum failure), and moves corrupt
    /// files into `quarantine/<stage>/` under the store root — the
    /// `smctl store doctor` engine. Without a scan, corruption is
    /// invisible: a damaged frame silently counts as a miss and is
    /// rebuilt over. Legacy v1 whole-bundle files under `bundles/` are
    /// counted but left in place (gc ages them out).
    pub fn doctor(&self) -> StoreHealth {
        let mut health = StoreHealth::default();
        for stage in Stage::ALL {
            let mut counts = StageHealth::default();
            if let Ok(dir) = fs::read_dir(self.root.join(stage.dir())) {
                for entry in dir.flatten() {
                    let Some((path, _, _)) = store_file(&entry) else {
                        continue;
                    };
                    let Ok(bytes) = fs::read(&path) else {
                        continue;
                    };
                    match classify(&bytes, stage) {
                        FrameHealth::Valid => counts.valid += 1,
                        FrameHealth::Legacy => counts.legacy += 1,
                        FrameHealth::Corrupt => {
                            counts.corrupt += 1;
                            let qdir = self.root.join("quarantine").join(stage.dir());
                            let moved = fs::create_dir_all(&qdir).is_ok()
                                && path
                                    .file_name()
                                    .map(|name| fs::rename(&path, qdir.join(name)).is_ok())
                                    .unwrap_or(false);
                            if moved {
                                health.quarantined += 1;
                            }
                        }
                    }
                }
            }
            health.stages.push((stage, counts));
        }
        if let Ok(dir) = fs::read_dir(self.root.join("bundles")) {
            health.legacy_bundles = dir.flatten().filter_map(|e| store_file(&e)).count() as u64;
        }
        health
    }

    /// All store files as `(path, mtime, len)`, temp files excluded.
    /// Scans the v2 stage directories plus the legacy v1 `bundles/`
    /// directory, so gc and clear also age out pre-upgrade artifacts.
    fn entries(&self) -> Vec<(PathBuf, SystemTime, u64)> {
        let mut out = Vec::new();
        let dirs = Stage::ALL.iter().map(|s| s.dir()).chain(["bundles"]);
        for sub in dirs {
            let Ok(dir) = fs::read_dir(self.root.join(sub)) else {
                continue;
            };
            for entry in dir.flatten() {
                if let Some(item) = store_file(&entry) {
                    out.push(item);
                }
            }
        }
        out
    }
}

/// One stage's [`ArtifactStore::doctor`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageHealth {
    /// Files with an intact v2 header and checksum.
    pub valid: u64,
    /// Files with a foreign format version (rebuilt-over on load).
    pub legacy: u64,
    /// Files with bad magic, a wrong payload kind, or a checksum
    /// mismatch — moved to quarantine.
    pub corrupt: u64,
}

/// A full [`ArtifactStore::doctor`] scan report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreHealth {
    /// Per-stage counts, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, StageHealth)>,
    /// Corrupt files successfully moved to `quarantine/`.
    pub quarantined: u64,
    /// Legacy v1 whole-bundle files under `bundles/` (left in place).
    pub legacy_bundles: u64,
}

impl StoreHealth {
    /// Total corrupt files found across stages.
    pub fn corrupt(&self) -> u64 {
        self.stages.iter().map(|&(_, s)| s.corrupt).sum()
    }
}

/// A doctor-scan file classification.
enum FrameHealth {
    Valid,
    Legacy,
    Corrupt,
}

/// Classifies one store file's bytes for [`ArtifactStore::doctor`].
fn classify(bytes: &[u8], stage: Stage) -> FrameHealth {
    let mut r = Reader::new(bytes);
    let Ok(magic) = r.take(4) else {
        return FrameHealth::Corrupt;
    };
    if magic != STORE_MAGIC {
        return FrameHealth::Corrupt;
    }
    match u16::decode(&mut r) {
        Ok(version) if version == STORE_FORMAT_VERSION => {}
        Ok(_) => return FrameHealth::Legacy,
        Err(_) => return FrameHealth::Corrupt,
    }
    if check_header(bytes, stage).is_some() {
        FrameHealth::Valid
    } else {
        FrameHealth::Corrupt
    }
}

/// One directory entry as `(path, mtime, len)`, if it is a store file
/// (regular, not a staging temp).
fn store_file(entry: &fs::DirEntry) -> Option<(PathBuf, SystemTime, u64)> {
    if entry.file_name().to_string_lossy().starts_with(".tmp-") {
        return None;
    }
    let meta = entry.metadata().ok()?;
    if !meta.is_file() {
        return None;
    }
    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
    Some((entry.path(), mtime, meta.len()))
}

/// Reads the raw (pre-compression) payload length from a v2 header.
fn read_raw_len(path: &Path) -> Option<u64> {
    use std::io::Read;
    let mut head = [0u8; HEADER_LEN];
    let mut f = fs::File::open(path).ok()?;
    f.read_exact(&mut head).ok()?;
    let mut r = Reader::new(&head);
    if r.take(4).ok()? != STORE_MAGIC {
        return None;
    }
    if u16::decode(&mut r).ok()? != STORE_FORMAT_VERSION {
        return None;
    }
    let _kind = r.take_u8().ok()?;
    let _flags = r.take_u8().ok()?;
    u64::decode(&mut r).ok()
}

/// Validates the store header, returning the stored payload slice, the
/// header flags and the declared raw length on success.
fn check_header(bytes: &[u8], stage: Stage) -> Option<(&[u8], u8, usize)> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4).ok()?;
    if magic != STORE_MAGIC {
        return None;
    }
    if u16::decode(&mut r).ok()? != STORE_FORMAT_VERSION {
        return None;
    }
    if r.take_u8().ok()? != stage.kind() {
        return None;
    }
    let flags = r.take_u8().ok()?;
    let raw_len = u64::decode(&mut r).ok()?;
    let expected = u64::decode(&mut r).ok()?;
    let stored = &bytes[r.position()..];
    // A corrupted raw length must not drive a huge pre-allocation: LZ
    // tokens expand < 90×, so anything above that bound is damage.
    let plausible = (stored.len() as u64).saturating_mul(90).max(64);
    if raw_len > plausible {
        return None;
    }
    if fnv1a_bytes(stored) != expected {
        // Bit-flips and truncation both land here, before any
        // decompression or decode.
        return None;
    }
    Some((stored, flags, raw_len as usize))
}

/// FNV-1a over raw bytes: the payload checksum in the store header —
/// the same function `sm_codec::frame` uses for journal records.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    sm_codec::frame::fnv1a(bytes)
}

// ----- cross-process lock ------------------------------------------------

/// How long a `.lock` file may sit unmodified before it is presumed
/// abandoned by a crashed process and stolen. Live holders of long
/// sweeps must [`StoreLock::refresh`] within this window.
const LOCK_STALE: Duration = Duration::from_secs(30);

/// How long [`StoreLock::acquire`] tries before giving up.
const LOCK_PATIENCE: Duration = Duration::from_secs(5);

/// A unique lock-ownership token: `pid:nonce`. The pid keeps the file
/// human-debuggable; the nonce disambiguates re-acquisitions by the
/// same process (and pid reuse after a crash).
fn lock_token() -> String {
    format!("{}:{:016x}", std::process::id(), lock_nonce())
}

fn lock_nonce() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let clock = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    sm_exec::seed::mix64(
        clock
            ^ (std::process::id() as u64).rotate_left(32)
            ^ COUNTER.fetch_add(1, Ordering::Relaxed),
    )
}

/// A held `.lock` file under the store root; dropped = released. The
/// lock serializes maintenance sweeps (eviction, clear) across
/// processes — artifact reads and writes stay lock-free (atomic
/// rename makes them safe without it).
///
/// Public so a service coordinator ([`ArtifactStore::coordinate`]) can
/// hold one for its whole lifetime, owning the store's maintenance
/// budget instead of re-acquiring per sweep.
///
/// Two races this type is built around:
///
/// * **steal-by-rename** — a stale lock is taken over by atomically
///   renaming it to a unique grave name; of N racing stealers exactly
///   one rename succeeds, so a steal can never delete a fresh lock some
///   other stealer just created (the old remove-then-create dance
///   could);
/// * **ownership-checked release** — [`Drop`] unlinks the lock file
///   only if it still holds this acquisition's token, so a holder whose
///   lock was stolen mid-sweep cannot destroy the thief's lock on exit.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
    token: String,
    stale: Duration,
    last_refresh: Mutex<std::time::Instant>,
}

impl StoreLock {
    /// Tries to acquire the lock for up to [`LOCK_PATIENCE`], stealing
    /// locks older than [`LOCK_STALE`]. `None` when a live peer holds
    /// it. Every steal is reported through `on_steal(age, holder_pid)`
    /// — stealing must be loud, not silent, so an operator can tell a
    /// crashed peer from a livelocked one.
    pub fn acquire(root: &Path, on_steal: &dyn Fn(Duration, u64)) -> Option<StoreLock> {
        Self::acquire_with(root, on_steal, LOCK_STALE, LOCK_PATIENCE)
    }

    /// [`StoreLock::acquire`] with explicit staleness and patience
    /// windows — the production constants are wall-clock scale, so
    /// steal/refresh behavior is tested through this entry point.
    pub fn acquire_with(
        root: &Path,
        on_steal: &dyn Fn(Duration, u64),
        stale: Duration,
        patience: Duration,
    ) -> Option<StoreLock> {
        let path = root.join(".lock");
        let token = lock_token();
        let deadline = std::time::Instant::now() + patience;
        loop {
            let _ = fs::create_dir_all(root);
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write;
                    let _ = write!(f, "{token}");
                    return Some(StoreLock {
                        path,
                        token,
                        stale,
                        last_refresh: Mutex::new(std::time::Instant::now()),
                    });
                }
                Err(_) => {
                    if Self::try_steal(&path, stale, on_steal) {
                        // The stale lock is gone (we or a peer removed
                        // it): race straight back to `create_new`.
                        continue;
                    }
                    if std::time::Instant::now() >= deadline {
                        return None;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }

    /// Steals the lock at `path` if its holder looks dead (mtime older
    /// than `stale`). Returns `true` when the caller should retry
    /// `create_new` immediately (the path is — or just became — free).
    fn try_steal(path: &Path, stale: Duration, on_steal: &dyn Fn(Duration, u64)) -> bool {
        let Ok(meta) = fs::metadata(path) else {
            // Vanished between `create_new` and here: retry now.
            return true;
        };
        let age = meta
            .modified()
            .ok()
            .and_then(|m| SystemTime::now().duration_since(m).ok());
        if age.filter(|&a| a > stale).is_none() {
            return false;
        }
        // Atomic rename to a unique grave name: of N racing stealers
        // exactly one rename succeeds, and the losers loop back to
        // `create_new` — nobody can delete a lock it did not win.
        let grave = path.with_file_name(format!(".lock-steal-{:016x}", lock_nonce()));
        if fs::rename(path, &grave).is_err() {
            return true;
        }
        // Between the staleness check and the rename the path may have
        // been replaced by a *fresh* lock (a peer completing its own
        // steal). Re-verify on the renamed file before declaring the
        // steal; a fresh lock is put back via `hard_link`, which never
        // overwrites an existing path.
        let renamed_age = fs::metadata(&grave)
            .ok()
            .and_then(|m| m.modified().ok())
            .and_then(|m| SystemTime::now().duration_since(m).ok());
        match renamed_age.filter(|&a| a > stale) {
            Some(age) => {
                let holder_pid = fs::read_to_string(&grave)
                    .ok()
                    .and_then(|s| {
                        s.trim()
                            .split(':')
                            .next()
                            .and_then(|pid| pid.parse::<u64>().ok())
                    })
                    .unwrap_or(0);
                on_steal(age, holder_pid);
                let _ = fs::remove_file(&grave);
                true
            }
            None => {
                let _ = fs::hard_link(&grave, path);
                let _ = fs::remove_file(&grave);
                false
            }
        }
    }

    /// Bumps the lock file's mtime so a live holder of a long sweep is
    /// not presumed dead and stolen from. No-op if the lock was already
    /// stolen (never touch the thief's file).
    pub fn refresh(&self) {
        if self.owned() {
            if let Ok(f) = fs::OpenOptions::new().append(true).open(&self.path) {
                let _ = f.set_modified(SystemTime::now());
            }
        }
        *self.last_refresh.lock().unwrap_or_else(|p| p.into_inner()) = std::time::Instant::now();
    }

    /// [`StoreLock::refresh`], throttled to once per quarter of the
    /// staleness window — cheap enough to call from every iteration of
    /// a maintenance loop.
    pub fn refresh_if_due(&self) {
        let due = {
            let last = self.last_refresh.lock().unwrap_or_else(|p| p.into_inner());
            last.elapsed() >= self.stale / 4
        };
        if due {
            self.refresh();
        }
    }

    /// `true` while the `.lock` file still carries this acquisition's
    /// token (i.e. it has not been stolen).
    fn owned(&self) -> bool {
        fs::read_to_string(&self.path).is_ok_and(|s| s.trim() == self.token)
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Ownership-checked release: if the lock was stolen while this
        // holder ran long, the file now belongs to the thief — deleting
        // it here would hand the store to a third process while the
        // thief still believes it holds the lock.
        if self.owned() {
            let _ = fs::remove_file(&self.path);
        }
    }
}
