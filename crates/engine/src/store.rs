//! Disk-backed artifact store: the persistent tier under the in-memory
//! bundle cache.
//!
//! The content key is split **per pipeline stage** (generate →
//! place+route → protect → lift), so each stage's artifact lives in its
//! own file under its own subdirectory and a bundle assembly rebuilds
//! only the stages the store is missing. Finished job metrics persist
//! alongside under `jobs/`. Payloads are LZ-compressed
//! ([`sm_codec::lz`]) when that wins. Split views are not stored: the
//! engine derives them in memory, which costs less than decoding a
//! frame, and ignores the `splits/` frames older stores hold
//! (maintenance still counts and removes them).
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
//!   serialized across *processes* by the kernel's advisory lock on
//!   `.lockfile` ([`StoreLock`]) so concurrent `smctl` invocations
//!   sharing a store respect one budget.
//!
//! The store is deliberately quiet about I/O errors: a store that cannot
//! read or write must degrade to "no store" (every operation a miss),
//! never break a campaign. Failures are counted in [`StoreStats`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use sm_codec::{decode_from_slice, lz, Decode, Encode, Reader, Writer};
use sm_exec::fault::{self, Fault, FaultPlan, FaultSite};

use crate::job::Job;
use crate::metrics::JobMetrics;

/// File magic: every store file starts with these four bytes.
pub const STORE_MAGIC: [u8; 4] = *b"SMST";

/// Store format version. Bump on **any** change to the encodings in this
/// workspace, or to what a stored artifact means; readers treat other
/// versions as misses so stale artifacts are rebuilt, never misparsed.
/// v2 = per-stage artifacts with LZ compression (v1 stored whole
/// uncompressed bundles). v3 = the same encodings, but job outcomes
/// come from the one min-cost-flow engine (report version 2), so flow
/// metrics cached by v2's tie-pinned engine are never replayed.
pub const STORE_FORMAT_VERSION: u16 = 3;

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
    /// FEOL/BEOL split views, keyed by bundle × arm × split layer. The
    /// engine derives them in memory and never reads or writes this
    /// stage's frames; `store stats`, `gc`, `clear` and `doctor` still
    /// count and remove the ones older stores hold, and
    /// [`StageStats`](crate::cache::StageStats) counts derivations as
    /// its builds.
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
    /// Size-budget sweeps skipped because a live peer held the store
    /// lock (the cap was not enforced at that write).
    pub gc_skips: u64,
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
    gc_skips: AtomicU64,
    tmp_counter: AtomicU64,
    faults: Option<FaultPlan>,
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
            gc_skips: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
            faults: None,
            persistent_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            coordinated: AtomicBool::new(false),
        }
    }

    /// Takes the store's [`StoreLock`] for the lifetime of a service
    /// coordinator, waiting up to `LOCK_PATIENCE` (5 s), and flips this
    /// handle into *coordinated* mode: while coordinated, maintenance
    /// sweeps ([`gc_to`](ArtifactStore::gc_to),
    /// [`clear`](ArtifactStore::clear)) run under the coordinator's
    /// lock instead of taking their own (a second lock from the same
    /// process would conflict with it). `None` when a live peer holds
    /// the lock.
    pub fn coordinate(&self) -> Option<StoreLock> {
        let lock = StoreLock::acquire(&self.root, LOCK_PATIENCE)?;
        self.coordinated.store(true, Ordering::Relaxed);
        Some(lock)
    }

    /// Attaches a fault plan consulted before every payload read and
    /// write — the chaos-testing hook behind
    /// `--fault-seed`/`--fault-profile`.
    pub fn with_faults(mut self, faults: FaultPlan) -> ArtifactStore {
        self.faults = Some(faults);
        self
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

    /// Consults the fault injector for `site` on the artifact at
    /// `path`, retrying transient faults with deterministic backoff.
    /// `true` means the operation must be treated as failed. The
    /// decision key is the stage-qualified file stem — independent of
    /// the store root, so a fault plan picks the same victims whatever
    /// directory (or thread count) a run uses.
    fn faulted(&self, site: FaultSite, stage: Stage, path: &Path) -> bool {
        let Some(faults) = self.faults else {
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
            gc_skips: self.gc_skips.load(Ordering::Relaxed),
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
        let Frame::Valid {
            stored,
            flags,
            raw_len,
        } = Frame::parse(&bytes, stage)
        else {
            return None;
        };
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
                    // trusting a per-process running estimate. It sums
                    // the on-disk sizes eviction counts (legacy
                    // `bundles/` included) from directory metadata,
                    // opening no file.
                    let bytes: u64 = self.entries().iter().map(|&(_, _, len)| len).sum();
                    if bytes > cap && self.gc_to(cap).is_none() {
                        self.gc_skips.fetch_add(1, Ordering::Relaxed);
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
        sm_codec::frame::fnv1a(stored).encode(&mut w);
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

    /// Evicts least-recently-used files until total usage is ≤ `cap`
    /// bytes, regardless of the configured budget, returning how many
    /// it evicted. Eviction runs under the store's [`StoreLock`], so
    /// concurrent processes sharing the store serialize their sweeps and
    /// respect one budget. The lock is tried once: when a live peer
    /// holds it (evicting, or a service coordinator), this pass is
    /// skipped and returns `None`; the peer sweeps to its own cap, if
    /// it has one.
    pub fn gc_to(&self, cap: u64) -> Option<u64> {
        // A coordinated handle sweeps under the coordinator's lock.
        let _lock = if self.coordinated.load(Ordering::Relaxed) {
            None
        } else {
            Some(StoreLock::acquire(&self.root, Duration::ZERO)?)
        };
        let mut entries = self.entries();
        let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
        if total <= cap {
            return Some(0);
        }
        entries.sort_by_key(|&(_, mtime, _)| mtime);
        let mut evicted = 0;
        for (path, _, len) in entries {
            if total <= cap {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                evicted += 1;
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Some(evicted)
    }

    /// Deletes every stored artifact (under the store's [`StoreLock`],
    /// waiting up to `LOCK_PATIENCE` (5 s) for a peer's sweep to finish;
    /// proceeds unlocked after that — explicit maintenance must not
    /// hang forever behind a wedged peer). Returns the number of files
    /// removed.
    pub fn clear(&self) -> u64 {
        let _lock = if self.coordinated.load(Ordering::Relaxed) {
            None
        } else {
            StoreLock::acquire(&self.root, LOCK_PATIENCE)
        };
        self.entries()
            .iter()
            .filter(|(path, _, _)| fs::remove_file(path).is_ok())
            .count() as u64
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
                    match Frame::parse(&bytes, stage) {
                        Frame::Valid { .. } => counts.valid += 1,
                        Frame::Legacy => counts.legacy += 1,
                        Frame::Corrupt => {
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
    /// Scans the stage directories plus the legacy v1 `bundles/`
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
    /// Files with an intact current-version header and checksum.
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

/// Reads the raw (pre-compression) payload length from a store header.
fn read_raw_len(path: &Path) -> Option<u64> {
    use std::io::Read;
    let mut head = [0u8; HEADER_LEN];
    fs::File::open(path).ok()?.read_exact(&mut head).ok()?;
    match Header::parse(&head)? {
        Header::Current { raw_len, .. } => Some(raw_len),
        Header::Foreign => None,
    }
}

/// The fixed header at the front of every store file, as far as this
/// build reads it.
enum Header {
    /// Intact magic but another format version (a v1 store, say): read
    /// no further.
    Foreign,
    /// This build's format version.
    Current {
        kind: u8,
        flags: u8,
        raw_len: u64,
        checksum: u64,
    },
}

impl Header {
    /// Parses the header at the front of `bytes`: `None` for a bad
    /// magic or bytes that end inside the header.
    fn parse(bytes: &[u8]) -> Option<Header> {
        let mut r = Reader::new(bytes);
        if r.take(4).ok()? != STORE_MAGIC {
            return None;
        }
        if u16::decode(&mut r).ok()? != STORE_FORMAT_VERSION {
            return Some(Header::Foreign);
        }
        Some(Header::Current {
            kind: r.take_u8().ok()?,
            flags: r.take_u8().ok()?,
            raw_len: u64::decode(&mut r).ok()?,
            checksum: u64::decode(&mut r).ok()?,
        })
    }
}

/// A whole store file judged against the stage it was read for — what
/// a load decodes and what [`ArtifactStore::doctor`] counts.
enum Frame<'a> {
    /// Intact: the stored payload, the header flags and the declared
    /// raw length.
    Valid {
        stored: &'a [u8],
        flags: u8,
        raw_len: usize,
    },
    /// A foreign format version (rebuilt over on load).
    Legacy,
    /// Bad magic, a wrong payload kind, an implausible raw length, or a
    /// checksum mismatch.
    Corrupt,
}

impl Frame<'_> {
    /// Judges the whole file `bytes`, read for `stage`.
    fn parse(bytes: &[u8], stage: Stage) -> Frame<'_> {
        let Some(header) = Header::parse(bytes) else {
            return Frame::Corrupt;
        };
        let Header::Current {
            kind,
            flags,
            raw_len,
            checksum,
        } = header
        else {
            return Frame::Legacy;
        };
        let stored = &bytes[HEADER_LEN..];
        // A corrupted raw length must not drive a huge pre-allocation: LZ
        // tokens expand < 90×, so anything above that bound is damage.
        let plausible = (stored.len() as u64).saturating_mul(90).max(64);
        // Bit-flips and truncation fail the checksum, before any
        // decompression or decode.
        if kind != stage.kind() || raw_len > plausible || sm_codec::frame::fnv1a(stored) != checksum
        {
            return Frame::Corrupt;
        }
        Frame::Valid {
            stored,
            flags,
            raw_len: raw_len as usize,
        }
    }
}

// ----- cross-process lock ------------------------------------------------

/// The lock file under the store root. It is never deleted: unlinking a
/// locked file would let a later opener lock a fresh inode while a peer
/// still holds the old one.
const LOCK_FILE: &str = ".lockfile";

/// How long [`ArtifactStore::coordinate`] and [`ArtifactStore::clear`]
/// wait for a peer to release the lock.
const LOCK_PATIENCE: Duration = Duration::from_secs(5);

/// The store's maintenance lock: the kernel's advisory lock
/// ([`fs::File::try_lock`]) on `.lockfile` under the store root. It
/// serializes maintenance sweeps (eviction, clear) across processes;
/// artifact reads and writes stay lock-free (atomic rename makes them
/// safe without it). Dropping it closes the file, which releases the
/// lock — and so does the holder's exit or crash, so no lock outlives
/// its process.
///
/// Public so a service coordinator ([`ArtifactStore::coordinate`]) can
/// hold one for its whole lifetime, owning the store's maintenance
/// budget instead of locking per sweep.
#[derive(Debug)]
pub struct StoreLock {
    _file: fs::File,
}

impl StoreLock {
    /// Takes the lock of the store at `root`, retrying every 25 ms
    /// until `patience` runs out (`Duration::ZERO` tries once). `None`
    /// when a live peer holds it or the lock file cannot be opened.
    pub fn acquire(root: &Path, patience: Duration) -> Option<StoreLock> {
        fs::create_dir_all(root).ok()?;
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(root.join(LOCK_FILE))
            .ok()?;
        let deadline = Instant::now() + patience;
        loop {
            match file.try_lock() {
                Ok(()) => return Some(StoreLock { _file: file }),
                Err(fs::TryLockError::WouldBlock) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(_) => return None,
            }
        }
    }
}
