//! Event-sourced campaign journal: an append-only, checksummed record
//! of everything a campaign does, from which the canonical report is a
//! deterministic materialization.
//!
//! # Why a journal
//!
//! Campaigns used to persist a single canonical JSON at the end, so a
//! `kill -9` lost every finished job since the last write and nothing
//! recorded *which* store key, thread budget or code path produced a
//! number. The journal fixes both: every job completion is flushed as
//! its own framed record the moment it happens (crash-safe progress),
//! and `job-finished` records carry full [`Provenance`] (observability).
//!
//! # On-disk format
//!
//! A journal file is a 6-byte header (magic `SMJL`, format version
//! `u16`) followed by framed records in [`sm_codec::frame`] format:
//! `[u32 payload_len][u64 fnv1a(payload)][payload]`, where the payload
//! is one [`Event`] in `sm-codec` encoding. Readers stop at the first
//! incomplete or checksum-invalid frame, so a torn tail (crash mid
//! `write`), a flipped bit, or garbage appended after the end all
//! degrade to the **longest valid prefix** — never a misparse.
//!
//! # Determinism contract
//!
//! [`materialize`] folds a journal into a [`Campaign`] whose canonical
//! report is byte-identical to the directly-written one: replay order
//! feeds [`merge_outcomes`], which dedupes by job identity (finished
//! beats timed-out, later wins) and restores canonical job order.
//! Timings, provenance and pool counters stay side-band — they never
//! enter the canonical report, exactly like `--timings`. Resuming a
//! campaign appends to the same journal (the file is named by a
//! fingerprint of the spec), so shard merges and resumes are log
//! concatenation.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use sm_codec::{decode_from_slice, encode_to_vec, frame, record, tagged, Encode, Writer};
use sm_exec::fault::{self, Fault, FaultPlan, FaultSite};
use sm_exec::PoolStats;

use crate::cache::CacheStats;
use crate::campaign::{merge_outcomes, phase_ms, wall_ms, Campaign, JobOutcome, SweepSpec};
use crate::job::{AttackKind, Benchmark, Job};
use crate::metrics::JobMetrics;
use crate::report::Json;

/// Journal file magic (`SMJL`).
pub const JOURNAL_MAGIC: [u8; 4] = *b"SMJL";

/// Journal format version. Bumping it invalidates old journals
/// wholesale (mirroring the store's versioning policy). v2 added the
/// spec's optional pinned layout seed to `campaign-started` records;
/// v3 added the `job-failed` and `store-lock-stolen` events plus the
/// `campaign-finished` failed-job counter; v4 changes no encoding, but
/// its `job-finished` metrics are report version 2's, so `resume` never
/// merges a v3 record into a version-2 report; v5 drops the
/// `store-lock-stolen` event (tag 7), so a v4 journal holding one is
/// refused instead of read up to it and silently cut short. Old
/// journals fail loudly with a version message rather than decoding to
/// a silently-empty prefix.
pub const JOURNAL_VERSION: u16 = 5;

/// Bytes of file header before the first frame.
const HEADER_LEN: usize = 6;

/// The job identity carried by job-scoped events — the stored-report
/// fields ([`Job`] minus its expansion index), so events stay meaningful
/// across processes and resumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventJob {
    /// Benchmark name (`"c432"`, `"superblue18"`, …).
    pub benchmark: String,
    /// User-facing campaign seed.
    pub user_seed: u64,
    /// Metal layer after which the layout is split.
    pub split_layer: u8,
    /// Which attack ran.
    pub attack: AttackKind,
}

impl EventJob {
    /// The event identity of `job`.
    pub fn of(job: &Job) -> EventJob {
        EventJob {
            benchmark: job.benchmark.name().to_string(),
            user_seed: job.user_seed,
            split_layer: job.split_layer,
            attack: job.attack,
        }
    }

    /// Reconstructs a runnable [`Job`] in the context of `spec`
    /// (index 0 — [`merge_outcomes`] re-assigns canonical indices).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown benchmark name.
    pub fn to_job(&self, spec: &SweepSpec) -> Result<Job, String> {
        Ok(Job {
            index: 0,
            benchmark: Benchmark::parse(&self.benchmark, spec.scale)?,
            user_seed: self.user_seed,
            split_layer: self.split_layer,
            attack: self.attack,
            master_seed: spec.master_seed,
            layout_seed: spec.layout_seed,
        })
    }

    /// One-line human identity (`c432 seed=1 layer=4 flow`).
    pub fn label(&self) -> String {
        format!(
            "{} seed={} layer={} {}",
            self.benchmark,
            self.user_seed,
            self.split_layer,
            self.attack.id()
        )
    }
}

/// Where a `job-finished` event's metrics came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsSource {
    /// Replayed from a persisted outcome in the artifact store.
    Store,
    /// Computed by actually running the attack.
    Computed,
}

impl MetricsSource {
    /// Stable identifier (`"store"` / `"computed"`).
    pub fn id(&self) -> &'static str {
        match self {
            MetricsSource::Store => "store",
            MetricsSource::Computed => "computed",
        }
    }
}

/// The audit trail of one finished job: what produced its metrics,
/// under which resources, and where the time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Store replay or fresh computation.
    pub source: MetricsSource,
    /// The bundle (store key) the job consumed.
    pub bundle_key: String,
    /// The job's derived seed — its stable random-stream identifier.
    pub derived_seed: u64,
    /// Thread budget the job ran under.
    pub threads: u64,
    /// End-to-end job wall clock in milliseconds.
    pub wall_ms: f64,
    /// Per-phase wall-clock spans in milliseconds, in execution order.
    pub phases: Vec<(String, f64)>,
}

/// One journal record. Tags and field order are the wire format —
/// append new variants, never reorder.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A campaign began executing this spec under `threads` workers.
    CampaignStarted {
        /// The sweep being run.
        spec: SweepSpec,
        /// Campaign thread budget.
        threads: u64,
    },
    /// A job was picked up by a worker.
    JobStarted {
        /// Which job.
        job: EventJob,
        /// The store keys the job will consult (bundle, then outcome).
        store_keys: Vec<String>,
    },
    /// A job finished with real metrics.
    JobFinished {
        /// Which job.
        job: EventJob,
        /// The measured metrics (never the timed-out placeholder —
        /// that is [`Event::JobTimedOut`]).
        metrics: JobMetrics,
        /// Full audit trail.
        provenance: Provenance,
    },
    /// A job was cancelled (budget expired) in the named phase.
    JobTimedOut {
        /// Which job.
        job: EventJob,
        /// Phase the cancellation landed in (`"pickup"`/`"attack"`).
        phase: String,
    },
    /// A bundle cache miss was satisfied (`stage` `"build"`) or decoded
    /// from the store (`stage` `"decode"`).
    BundleBuilt {
        /// Bundle store key.
        key: String,
        /// `"build"` or `"decode"`.
        stage: String,
        /// Wall clock of the build/decode in milliseconds.
        wall_ms: f64,
    },
    /// The campaign's summary counters, written after the last job.
    CampaignFinished {
        /// Jobs with an outcome (finished, timed out or failed).
        jobs: u64,
        /// Timed-out placeholders among them.
        timed_out: u64,
        /// Bundle-cache counters.
        cache: CacheStats,
        /// Pool threads live at sample time.
        pool_live: u64,
        /// Pool high-water mark of live threads.
        pool_peak_live: u64,
        /// Campaign thread budget.
        threads: u64,
        /// End-to-end campaign wall clock in milliseconds.
        total_wall_ms: f64,
        /// Panicked (failed) placeholders among the jobs.
        failed: u64,
    },
    /// A job panicked in the named phase and was isolated as a
    /// [`JobMetrics::Failed`] placeholder — resumable, like
    /// [`Event::JobTimedOut`].
    JobFailed {
        /// Which job.
        job: EventJob,
        /// Phase the panic landed in (`"bundle"`/`"attack"`).
        phase: String,
        /// The panic message.
        message: String,
    },
}

impl Event {
    /// The record's kebab-case kind (`"campaign-started"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CampaignStarted { .. } => "campaign-started",
            Event::JobStarted { .. } => "job-started",
            Event::JobFinished { .. } => "job-finished",
            Event::JobTimedOut { .. } => "job-timed-out",
            Event::BundleBuilt { .. } => "bundle-built",
            Event::CampaignFinished { .. } => "campaign-finished",
            Event::JobFailed { .. } => "job-failed",
        }
    }

    /// The `campaign-finished` summary record for `campaign`.
    pub fn campaign_finished(campaign: &Campaign) -> Event {
        Event::CampaignFinished {
            jobs: campaign.outcomes.len() as u64,
            timed_out: campaign.timed_out() as u64,
            cache: campaign.cache,
            pool_live: campaign.pool.live as u64,
            pool_peak_live: campaign.pool.peak_live as u64,
            threads: campaign.threads as u64,
            total_wall_ms: wall_ms(campaign.total_wall),
            failed: campaign.failed() as u64,
        }
    }

    /// The event as a JSON object — the `smctl events --format json`
    /// stream shape. Span/wall values round to µs precision like report
    /// timings.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("event".to_string(), Json::str(self.kind()))];
        match self {
            Event::CampaignStarted { spec, threads } => {
                pairs.push(("threads".to_string(), Json::UInt(*threads)));
                let mut fields = vec![
                    (
                        "benchmarks".to_string(),
                        Json::Arr(spec.benchmarks.iter().map(Json::str).collect()),
                    ),
                    (
                        "seeds".to_string(),
                        Json::Arr(spec.seeds.iter().map(|&s| Json::UInt(s)).collect()),
                    ),
                    (
                        "split_layers".to_string(),
                        Json::Arr(
                            spec.split_layers
                                .iter()
                                .map(|&l| Json::UInt(l as u64))
                                .collect(),
                        ),
                    ),
                    (
                        "attacks".to_string(),
                        Json::Arr(spec.attacks.iter().map(|a| Json::str(a.id())).collect()),
                    ),
                    ("scale".to_string(), Json::UInt(spec.scale as u64)),
                    ("master_seed".to_string(), Json::UInt(spec.master_seed)),
                ];
                if let Some(layout_seed) = spec.layout_seed {
                    fields.push(("layout_seed".to_string(), Json::UInt(layout_seed)));
                }
                pairs.push(("spec".to_string(), Json::Obj(fields)));
            }
            Event::JobStarted { job, store_keys } => {
                push_job(&mut pairs, job);
                pairs.push((
                    "store_keys".to_string(),
                    Json::Arr(store_keys.iter().map(Json::str).collect()),
                ));
            }
            Event::JobFinished {
                job,
                metrics,
                provenance,
            } => {
                push_job(&mut pairs, job);
                pairs.push(("metrics".to_string(), metrics.summary_json()));
                pairs.push((
                    "provenance".to_string(),
                    Json::obj([
                        ("source", Json::str(provenance.source.id())),
                        ("bundle_key", Json::str(&provenance.bundle_key)),
                        ("derived_seed", Json::UInt(provenance.derived_seed)),
                        ("threads", Json::UInt(provenance.threads)),
                        ("wall_ms", Json::Num(phase_ms(provenance.wall_ms))),
                        (
                            "phases",
                            Json::Obj(
                                provenance
                                    .phases
                                    .iter()
                                    .map(|(n, ms)| (n.clone(), Json::Num(phase_ms(*ms))))
                                    .collect(),
                            ),
                        ),
                    ]),
                ));
            }
            Event::JobTimedOut { job, phase } => {
                push_job(&mut pairs, job);
                pairs.push(("phase".to_string(), Json::str(phase)));
            }
            Event::BundleBuilt {
                key,
                stage,
                wall_ms,
            } => {
                pairs.push(("key".to_string(), Json::str(key)));
                pairs.push(("stage".to_string(), Json::str(stage)));
                pairs.push(("wall_ms".to_string(), Json::Num(phase_ms(*wall_ms))));
            }
            Event::JobFailed {
                job,
                phase,
                message,
            } => {
                push_job(&mut pairs, job);
                pairs.push(("phase".to_string(), Json::str(phase)));
                pairs.push(("message".to_string(), Json::str(message)));
            }
            Event::CampaignFinished {
                jobs,
                timed_out,
                cache,
                pool_live,
                pool_peak_live,
                threads,
                total_wall_ms,
                failed,
            } => {
                pairs.push(("jobs".to_string(), Json::UInt(*jobs)));
                pairs.push(("timed_out".to_string(), Json::UInt(*timed_out)));
                pairs.push(("failed".to_string(), Json::UInt(*failed)));
                pairs.push((
                    "cache".to_string(),
                    Json::obj([
                        ("hits", Json::UInt(cache.hits)),
                        ("disk_hits", Json::UInt(cache.disk_hits)),
                        ("builds", Json::UInt(cache.builds)),
                        ("released", Json::UInt(cache.released)),
                    ]),
                ));
                pairs.push((
                    "pool".to_string(),
                    Json::obj([
                        ("live", Json::UInt(*pool_live)),
                        ("peak_live", Json::UInt(*pool_peak_live)),
                    ]),
                ));
                pairs.push(("threads".to_string(), Json::UInt(*threads)));
                pairs.push((
                    "total_wall_ms".to_string(),
                    Json::Num(phase_ms(*total_wall_ms)),
                ));
            }
        }
        Json::Obj(pairs)
    }
}

fn push_job(pairs: &mut Vec<(String, Json)>, job: &EventJob) {
    pairs.push(("benchmark".to_string(), Json::str(&job.benchmark)));
    pairs.push(("seed".to_string(), Json::UInt(job.user_seed)));
    pairs.push((
        "split_layer".to_string(),
        Json::UInt(job.split_layer as u64),
    ));
    pairs.push(("attack".to_string(), Json::str(job.attack.id())));
}

// ----- wire format ---------------------------------------------------------

tagged!(AttackKind {
    0 => NetworkFlow,
    1 => Crouting,
});
record!(SweepSpec {
    benchmarks,
    seeds,
    split_layers,
    attacks,
    scale,
    master_seed,
    layout_seed
});
record!(EventJob {
    benchmark,
    user_seed,
    split_layer,
    attack
});
tagged!(MetricsSource {
    0 => Store,
    1 => Computed,
});
record!(Provenance {
    source,
    bundle_key,
    derived_seed,
    threads,
    wall_ms,
    phases
});
record!(CacheStats {
    hits,
    disk_hits,
    builds,
    released
});
// `JobMetrics::decode` rejects the placeholder tags (timed-out, failed),
// so a `job-finished` record can never smuggle in a non-result.
tagged!(Event {
    0 => CampaignStarted { spec, threads },
    1 => JobStarted { job, store_keys },
    2 => JobFinished { job, metrics, provenance },
    3 => JobTimedOut { job, phase },
    4 => BundleBuilt { key, stage, wall_ms },
    5 => CampaignFinished {
        jobs,
        timed_out,
        cache,
        pool_live,
        pool_peak_live,
        threads,
        total_wall_ms,
        failed
    },
    6 => JobFailed { job, phase, message },
});

// ----- writing -------------------------------------------------------------

/// A deterministic fingerprint of a sweep spec — names the journal file,
/// so a resume of the same campaign appends to the same log.
pub fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    frame::fnv1a(&encode_to_vec(spec))
}

/// An append-only journal writer. Cheap to share behind an [`Arc`](std::sync::Arc);
/// every [`Journal::record`] is one appended, checksummed frame followed
/// by a flush, so a killed process loses at most the record being
/// written (which the torn-tail truncation absorbs).
///
/// Transient append failures retry up to [`fault::MAX_ATTEMPTS`] times
/// with deterministic backoff; exhausted retries degrade the journal to
/// inert (a one-time stderr warning, then records are dropped) —
/// observability must never take a campaign down.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<Option<fs::File>>,
    failed: AtomicBool,
    faults: Option<FaultPlan>,
}

impl Journal {
    /// A journal writing to exactly `path` (created lazily on the first
    /// record, with parent directories).
    pub fn at(path: impl Into<PathBuf>) -> Journal {
        Journal {
            path: path.into(),
            file: Mutex::new(None),
            failed: AtomicBool::new(false),
            faults: None,
        }
    }

    /// Attaches a fault plan consulted before every append — the
    /// chaos-testing hook behind `--fault-seed`/`--fault-profile`.
    pub fn with_faults(mut self, faults: FaultPlan) -> Journal {
        self.faults = Some(faults);
        self
    }

    /// The journal for `spec` under `store_root`:
    /// `<store_root>/journal/c-<fingerprint>.journal`. Campaigns and
    /// their resumes derive the same path, so one campaign is one log.
    pub fn for_spec(store_root: &Path, spec: &SweepSpec) -> Journal {
        Journal::at(
            store_root
                .join("journal")
                .join(format!("c-{:016x}.journal", spec_fingerprint(spec))),
        )
    }

    /// The file this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the journal has degraded to inert (a failed open or
    /// exhausted append retries): records since then were dropped, so
    /// the file does not hold the whole run.
    pub fn degraded(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Appends one event as a checksummed frame and flushes it to the
    /// OS. Transient failures (injected or real) retry with
    /// deterministic backoff; exhausted retries degrade the journal to
    /// inert with a one-time warning — they never affect campaign
    /// results.
    pub fn record(&self, event: &Event) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let payload = encode_to_vec(event);
        let mut buf = Vec::with_capacity(payload.len() + frame::FRAME_HEADER_LEN);
        frame::write_frame(&mut buf, &payload);
        let mut guard = self.file.lock().unwrap_or_else(|p| p.into_inner());
        if guard.is_none() {
            match self.open_for_append() {
                Ok(file) => *guard = Some(file),
                Err(e) => {
                    self.degrade(&format!("opening {}: {e}", self.path.display()));
                    return;
                }
            }
        }
        let file = guard.as_mut().expect("opened above");
        for attempt in 0..fault::MAX_ATTEMPTS {
            if let Some(injected) = self
                .faults
                .as_ref()
                .and_then(|f| f.inject(FaultSite::JournalAppend, event.kind(), attempt))
            {
                match injected {
                    Fault::Transient => {
                        fault::backoff(attempt);
                        continue;
                    }
                    Fault::Persistent | Fault::Panic(_) => break,
                }
            }
            // One `write_all` per frame: the OS appends atomically
            // enough that a SIGKILL leaves at worst one torn frame at
            // the tail, which readers truncate away.
            match file.write_all(&buf).and_then(|()| file.flush()) {
                Ok(()) => return,
                Err(_) => fault::backoff(attempt),
            }
        }
        self.degrade("append failed after retries");
    }

    /// Marks the journal inert, warning once on stderr — campaigns
    /// degrade to journal-less operation rather than aborting.
    fn degrade(&self, what: &str) {
        if !self.failed.swap(true, Ordering::Relaxed) {
            eprintln!("warning: journal degraded, continuing without it: {what}");
        }
    }

    fn open_for_append(&self) -> std::io::Result<fs::File> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)?;
        if file.metadata()?.len() == 0 {
            let mut w = Writer::new();
            w.put_bytes(&JOURNAL_MAGIC);
            JOURNAL_VERSION.encode(&mut w);
            file.write_all(&w.into_bytes())?;
        } else {
            // Frames appended to a journal of another version would be
            // lost to every reader of this build, and would corrupt it
            // for the build that wrote it.
            let mut header = [0u8; HEADER_LEN];
            file.read_exact(&mut header)?;
            check_journal_header(&header).map_err(std::io::Error::other)?;
        }
        Ok(file)
    }
}

// ----- reading -------------------------------------------------------------

/// Reads every intact event of the journal at `path` — the longest
/// valid prefix. A torn tail, flipped bytes, or trailing garbage end
/// the read cleanly at the last valid frame.
///
/// # Errors
///
/// Returns an error if the file cannot be read or its header is not a
/// journal's (wrong magic/version) — *content* damage is not an error.
pub fn read_events(path: &Path) -> Result<Vec<Event>, String> {
    let bytes = fs::read(path).map_err(|e| format!("reading journal {}: {e}", path.display()))?;
    let mut offset = check_journal_header(&bytes)?;
    Ok(events_from(&bytes, &mut offset))
}

/// Validates magic + version, returning the offset of the first frame.
fn check_journal_header(bytes: &[u8]) -> Result<usize, String> {
    if bytes.len() < HEADER_LEN || bytes[..4] != JOURNAL_MAGIC {
        return Err("not a journal file (bad magic)".to_string());
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("exact slice"));
    if version != JOURNAL_VERSION {
        return Err(format!(
            "journal format version {version} (this build reads {JOURNAL_VERSION})"
        ));
    }
    Ok(HEADER_LEN)
}

/// Decodes frames starting at `*offset`, advancing it past each valid
/// one; stops at the first incomplete/invalid frame.
fn events_from(bytes: &[u8], offset: &mut usize) -> Vec<Event> {
    let mut events = Vec::new();
    while let Some((payload, next)) = frame::read_frame(bytes, *offset) {
        match decode_from_slice::<Event>(payload) {
            Ok(event) => {
                events.push(event);
                *offset = next;
            }
            // A checksum-valid but undecodable frame still ends the
            // prefix — later frames may describe state we cannot trust.
            Err(_) => break,
        }
    }
    events
}

/// Incremental journal reader for live progress (`smctl events
/// --follow` / `smctl tail`): each [`JournalFollower::poll`] returns the
/// events appended (complete and valid) since the previous poll.
#[derive(Debug)]
pub struct JournalFollower {
    path: PathBuf,
    /// Byte offset consumed so far; 0 until the header validates.
    offset: u64,
}

impl JournalFollower {
    /// A follower over the journal at `path` (which may not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> JournalFollower {
        JournalFollower {
            path: path.into(),
            offset: 0,
        }
    }

    /// New complete events since the last poll. A missing file or a
    /// still-incomplete header is "no events yet", not an error; a
    /// present header that is not a journal's is.
    ///
    /// Each poll seeks to the consumed offset and reads only the tail
    /// appended since — O(new bytes) per poll, so following a long
    /// campaign costs O(journal), not O(journal²) as the old
    /// whole-file re-read did. A file shorter than the consumed offset
    /// (truncated or rotated underneath us) is treated as a clean
    /// restart: the follower resets to the start and re-validates the
    /// header, rather than misparsing mid-frame bytes.
    ///
    /// # Errors
    ///
    /// Returns an error for an unreadable-but-present file or a foreign
    /// header.
    pub fn poll(&mut self) -> Result<Vec<Event>, String> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = match fs::File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Rotated away entirely: restart when it reappears.
                self.offset = 0;
                return Ok(Vec::new());
            }
            Err(e) => return Err(format!("reading journal {}: {e}", self.path.display())),
        };
        let len = file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| format!("reading journal {}: {e}", self.path.display()))?;
        if len < self.offset {
            self.offset = 0;
        }
        if len == self.offset {
            return Ok(Vec::new());
        }
        if self.offset == 0 && (len as usize) < HEADER_LEN {
            return Ok(Vec::new());
        }
        let mut tail = Vec::with_capacity((len - self.offset) as usize);
        file.seek(SeekFrom::Start(self.offset))
            .and_then(|_| file.read_to_end(&mut tail))
            .map_err(|e| format!("reading journal {}: {e}", self.path.display()))?;
        let mut consumed = 0usize;
        if self.offset == 0 {
            consumed = check_journal_header(&tail)?;
        }
        let events = events_from(&tail, &mut consumed);
        self.offset += consumed as u64;
        Ok(events)
    }
}

/// Resolves a user-supplied journal argument: a file is taken as-is; a
/// directory is searched for `*.journal` under `<dir>/journal/` (the
/// store layout), then `<dir>` itself, picking the most recently
/// modified.
///
/// # Errors
///
/// Returns an error when nothing journal-like is found.
pub fn find_journal(path: &Path) -> Result<PathBuf, String> {
    if path.is_file() {
        return Ok(path.to_path_buf());
    }
    if !path.is_dir() {
        return Err(format!("no such file or directory: {}", path.display()));
    }
    for dir in [path.join("journal"), path.to_path_buf()] {
        let mut candidates: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "journal") && p.is_file() {
                let mtime = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                candidates.push((mtime, p));
            }
        }
        // Most recent first; ties break on the path for determinism.
        candidates.sort();
        if let Some((_, p)) = candidates.into_iter().next_back() {
            return Ok(p);
        }
    }
    Err(format!(
        "no .journal file found under {} (looked in journal/ and the directory itself)",
        path.display()
    ))
}

// ----- materialization -----------------------------------------------------

/// Folds a journal's events into the canonical [`Campaign`] — the
/// deterministic materialization whose canonical report is
/// **byte-identical** to the directly-written one.
///
/// Only `campaign-started` (the spec) and
/// `job-finished`/`job-timed-out`/`job-failed` (the outcomes) shape the
/// result; progress and provenance records are side-band. Replay is
/// resume-safe: [`merge_outcomes`] dedupes repeated jobs (finished
/// beats placeholders, later wins) and restores canonical job order, so
/// a journal holding an interrupted run plus its resume materializes to
/// the uninterrupted report.
///
/// # Errors
///
/// Returns an error for an empty journal (no `campaign-started`), for
/// events of two different specs in one log, or for job events that do
/// not resolve against the spec.
pub fn materialize(events: &[Event]) -> Result<Campaign, String> {
    let mut spec: Option<SweepSpec> = None;
    let mut recorded: Vec<(EventJob, JobMetrics)> = Vec::new();
    for event in events {
        match event {
            Event::CampaignStarted { spec: started, .. } => match &spec {
                None => spec = Some(started.clone()),
                Some(prev) if prev == started => {}
                Some(_) => {
                    return Err("journal mixes events of two different sweep specs".to_string())
                }
            },
            Event::JobFinished { job, metrics, .. } => {
                recorded.push((job.clone(), metrics.clone()));
            }
            Event::JobTimedOut { job, .. } => {
                recorded.push((job.clone(), JobMetrics::TimedOut));
            }
            Event::JobFailed {
                job,
                phase,
                message,
            } => {
                recorded.push((
                    job.clone(),
                    JobMetrics::Failed {
                        phase: phase.clone(),
                        message: message.clone(),
                    },
                ));
            }
            _ => {}
        }
    }
    let spec = spec.ok_or("journal has no campaign-started record")?;
    let expansion = spec.jobs()?;
    let outcomes = recorded
        .into_iter()
        .map(|(job, metrics)| {
            Ok(JobOutcome {
                job: job.to_job(&spec)?,
                metrics,
                wall: Duration::ZERO,
                phases: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Campaign {
        spec,
        outcomes: merge_outcomes(&expansion, Vec::new(), outcomes),
        cache: CacheStats::default(),
        stages: crate::cache::StageStats::default(),
        threads: 0,
        total_wall: Duration::ZERO,
        pool: PoolStats::default(),
    })
}
