//! Content-keyed artifact cache for layout bundles: an in-memory tier
//! with an optional disk tier underneath.
//!
//! Building an [`IscasRun`]/[`SuperblueRun`] (generate → place+route →
//! protect → lift) dominates campaign cost; every table that consumes
//! the same benchmark+seed shares one bundle. The cache is keyed by
//! the exact build inputs ([`BundleKey`]: profile name, scale, seed)
//! and guarantees **exactly one build per key** even when many worker
//! threads request the same bundle concurrently: late arrivals block on
//! the first builder's `OnceLock` instead of duplicating the work.
//!
//! Lookup is tiered: memory hit → disk hit (via the
//! [`ArtifactStore`]) → build (and persist). A warm store therefore
//! turns a fresh process's first request into a decode instead of a
//! rebuild — the "zero bundle builds on the second run" guarantee the
//! CI determinism gate enforces.
//!
//! A disk hit assembles the bundle stage by stage: each stage frame is
//! decoded, or built and persisted, on its own, and each lands in the
//! per-stage counters ([`StageStats`]) and as one journal event timing
//! that stage's own work. The assembly loads the protect frame before
//! the place+route one and takes the original layout from the protected
//! design's baseline, so a warm bundle decodes no `layouts/` frame and
//! counts no place+route decode.
//!
//! Below each bundle sit two per-(bundle, arm, split layer) tiers:
//!
//! * **split views** ([`ArtifactCache::split`]) — the FEOL an attack
//!   sees, derived from the bundle's routed layout in memory and never
//!   persisted (deriving one costs less than decoding a stored frame);
//! * **flow assignments** ([`ArtifactCache::flow_assignment`]) — the
//!   network-flow attack's connection guess (candidate scoring,
//!   min-cost flow, loop-free reconstruction) for that FEOL. It reads
//!   nothing a job seed varies, so under a pinned layout every seed of
//!   a sweep shares one solve and only the OER/HD evaluation runs per
//!   job. Each lives in a [`Memo`] cell that a cancelled or panicking
//!   solve leaves empty for the next requester. Assignments are never
//!   persisted: the store and its format do not know them.
//!
//! Memory is bounded two ways: campaign-scoped caches die with their
//! campaign, and campaigns *release* bundles once their last consuming
//! job finishes — every selected job is registered with
//! [`ArtifactCache::reserve_job`] before any runs, and
//! [`ArtifactCache::release_job`] drops a layer's split views and flow
//! assignments after the last job at that layer and the bundle after its
//! last job, so peak memory tracks the working set instead of the whole
//! sweep.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::time::{Duration, Instant};

use sm_attacks::proximity::FlowAssignment;
use sm_benchgen::iscas::IscasProfile;
use sm_benchgen::superblue::SuperblueProfile;
use sm_codec::{Decode, Encode};
use sm_exec::fault::FaultPlan;
use sm_exec::phase::Recorder;
use sm_exec::Budget;
use sm_layout::SplitLayout;

use crate::bundle::{IscasRun, SuperblueRun};
use crate::job::Job;
use crate::journal::{Event, Journal};
use crate::store::{ArtifactStore, Stage};

/// The content key a bundle is cached (and persisted) under: exactly
/// the build inputs of [`ArtifactCache::iscas`]/[`ArtifactCache::superblue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BundleKey {
    /// An ISCAS-85-class bundle.
    Iscas {
        /// Benchmark name.
        name: &'static str,
        /// Bundle build seed (see `Job::bundle_seed`).
        seed: u64,
    },
    /// A superblue-class bundle.
    Superblue {
        /// Benchmark name.
        name: &'static str,
        /// Down-scaling factor.
        scale: usize,
        /// Bundle build seed.
        seed: u64,
    },
}

impl BundleKey {
    /// The key's stable string identity — the store's file stem for the
    /// persisted bundle, and the `key` journal `bundle-built` /
    /// `job-started` events carry.
    pub fn id(&self) -> String {
        match self {
            BundleKey::Iscas { name, seed } => format!("iscas-{name}-s{seed:016x}"),
            BundleKey::Superblue { name, scale, seed } => {
                format!("superblue-{name}-x{scale}-s{seed:016x}")
            }
        }
    }
}

/// Which arm of a bundle a split view belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitArm {
    /// The protected layout's FEOL (erroneous netlist + FEOL routing).
    Protected,
    /// The unprotected baseline's FEOL.
    Original,
}

impl SplitArm {
    /// Stable identifier of the arm in split-stage store keys. The
    /// engine derives splits in memory and writes no such key; the
    /// `splits/` frames of older stores carry them.
    pub fn id(&self) -> &'static str {
        match self {
            SplitArm::Protected => "prot",
            SplitArm::Original => "orig",
        }
    }
}

/// Per-stage build/decode counters, indexed by [`Stage::index`].
/// Separate from [`CacheStats`], whose bundle-level semantics (and the
/// reports built on them) stay unchanged by stage-keyed persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Stage artifacts built, per stage; for [`Stage::Split`], views
    /// derived in memory.
    pub builds: [u64; Stage::ALL.len()],
    /// Stage artifacts decoded from the store, per stage.
    pub decodes: [u64; Stage::ALL.len()],
}

impl StageStats {
    /// Builds of one stage.
    pub fn builds_of(&self, stage: Stage) -> u64 {
        self.builds[stage.index()]
    }

    /// Store decodes of one stage.
    pub fn decodes_of(&self, stage: Stage) -> u64 {
        self.decodes[stage.index()]
    }
}

/// Hit/build counters, reported by campaigns ("cache hit count").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from an already-built (or concurrently building)
    /// in-memory bundle.
    pub hits: u64,
    /// Requests served by decoding a persisted bundle from the disk
    /// store (no build ran).
    pub disk_hits: u64,
    /// Requests that built the bundle.
    pub builds: u64,
    /// In-memory bundles dropped after their last consuming job
    /// finished.
    pub released: u64,
}

impl CacheStats {
    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.hits + self.disk_hits + self.builds
    }
}

/// How a cache miss was satisfied.
enum Origin {
    Built,
    Disk,
}

type Slot<T> = Arc<OnceLock<Arc<T>>>;
type BundleMap<K, T> = Mutex<HashMap<K, Slot<T>>>;

/// A build-once cell whose build may decline. Unlike a `OnceLock`, a
/// solve that returns `None` (its job was cancelled) or panics leaves
/// the cell empty, and the next requester solves it. The first
/// requester solves while holding the cell's lock; later ones block on
/// it and share the result.
#[derive(Debug)]
pub struct Memo<T>(Mutex<Option<Arc<T>>>);

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Memo(Mutex::new(None))
    }
}

/// [`Memo::try_get_or_solve`] found another requester solving the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy;

impl<T> Memo<T> {
    /// The cell's value, solving it with `solve` if the cell is empty
    /// (blocking while another requester solves it). `None` when `solve`
    /// ran and declined; the cell then stays empty.
    pub fn get_or_solve(&self, solve: impl FnOnce() -> Option<T>) -> Option<Arc<T>> {
        self.get_or_solve_timed(solve).0
    }

    /// As [`Memo::get_or_solve`], also returning how long the call was
    /// blocked on another requester's solve: zero when the cell was free.
    pub fn get_or_solve_timed(
        &self,
        solve: impl FnOnce() -> Option<T>,
    ) -> (Option<Arc<T>>, Duration) {
        let (cell, blocked) = match self.0.try_lock() {
            Ok(guard) => (guard, Duration::ZERO),
            // A poisoned lock means a solve panicked; the cell is only
            // ever written after a solve returns, so it is still empty
            // and valid.
            Err(TryLockError::Poisoned(p)) => (p.into_inner(), Duration::ZERO),
            Err(TryLockError::WouldBlock) => {
                let start = Instant::now();
                let guard = self.0.lock().unwrap_or_else(|p| p.into_inner());
                (guard, start.elapsed())
            }
        };
        (Self::fill(cell, solve), blocked)
    }

    /// As [`Memo::get_or_solve`], but returns [`Busy`] instead of
    /// blocking while another requester solves the cell.
    pub fn try_get_or_solve(
        &self,
        solve: impl FnOnce() -> Option<T>,
    ) -> Result<Option<Arc<T>>, Busy> {
        match self.0.try_lock() {
            Ok(guard) => Ok(Self::fill(guard, solve)),
            Err(TryLockError::Poisoned(p)) => Ok(Self::fill(p.into_inner(), solve)),
            Err(TryLockError::WouldBlock) => Err(Busy),
        }
    }

    fn fill(
        mut cell: std::sync::MutexGuard<'_, Option<Arc<T>>>,
        solve: impl FnOnce() -> Option<T>,
    ) -> Option<Arc<T>> {
        if let Some(value) = &*cell {
            return Some(Arc::clone(value));
        }
        let value = Arc::new(solve()?);
        *cell = Some(Arc::clone(&value));
        Some(value)
    }
}

/// Per-(bundle, arm, split layer) entries: split views and flow
/// assignments.
type LayerKey = (BundleKey, SplitArm, u8);

/// The engine's bundle cache. Cheap to share: wrap in an [`Arc`].
#[derive(Debug, Default)]
pub struct ArtifactCache {
    iscas: BundleMap<(&'static str, u64), IscasRun>,
    superblue: BundleMap<(&'static str, usize, u64), SuperblueRun>,
    splits: BundleMap<LayerKey, SplitLayout>,
    assignments: Mutex<HashMap<LayerKey, Arc<Memo<FlowAssignment>>>>,
    store: Option<Arc<ArtifactStore>>,
    journal: Option<Arc<Journal>>,
    faults: Option<FaultPlan>,
    expected: Mutex<HashMap<BundleKey, usize>>,
    /// Reserved jobs per bundle and split layer.
    layer_uses: Mutex<HashMap<(BundleKey, u8), usize>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    builds: AtomicU64,
    released: AtomicU64,
    stage_builds: [AtomicU64; Stage::ALL.len()],
    stage_decodes: [AtomicU64; Stage::ALL.len()],
}

impl ArtifactCache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache layered over a disk store: memory hit → disk hit
    /// → build (persisting what it builds).
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        ArtifactCache {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The disk store underneath, if any.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// Attaches a campaign journal: the cache emits `bundle-built`
    /// events (and campaigns running over it emit the job/campaign
    /// lifecycle) into `journal`.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The attached campaign journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Attaches a fault plan: campaigns running over this cache
    /// consult it at job pickup (`job-run` faults become isolated
    /// panics). Store and journal injection points are attached to
    /// those objects directly — see [`ArtifactStore::with_faults`] and
    /// [`Journal::with_faults`](crate::journal::Journal::with_faults).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<FaultPlan> {
        self.faults
    }

    /// Records a `bundle-built` journal event for a cache miss satisfied
    /// since `start` (stage `"build"` or `"decode"`).
    fn note_bundle(&self, key: &BundleKey, stage: &str, start: std::time::Instant) {
        if let Some(journal) = &self.journal {
            journal.record(&Event::BundleBuilt {
                key: key.id(),
                stage: stage.to_string(),
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }

    /// Records a stage-level `bundle-built` journal event (stage
    /// `"<label>-build"`/`"<label>-decode"`, e.g. `"place+route-decode"`)
    /// — distinct from the bundle-level `"build"`/`"decode"` strings so
    /// existing consumers keep counting whole bundles.
    fn note_stage(&self, stage: Stage, id: &str, what: &str, start: std::time::Instant) {
        if let Some(journal) = &self.journal {
            journal.record(&Event::BundleBuilt {
                key: id.to_string(),
                stage: format!("{}-{what}", stage.label()),
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }

    fn fetch<T>(&self, slot: Slot<T>, obtain: impl FnOnce() -> (T, Origin)) -> Arc<T> {
        let mut origin = None;
        let value = slot.get_or_init(|| {
            let (value, o) = obtain();
            origin = Some(o);
            Arc::new(value)
        });
        match origin {
            None => self.hits.fetch_add(1, Ordering::Relaxed),
            Some(Origin::Disk) => self.disk_hits.fetch_add(1, Ordering::Relaxed),
            Some(Origin::Built) => self.builds.fetch_add(1, Ordering::Relaxed),
        };
        Arc::clone(value)
    }

    /// The bundle for `profile` at `seed`, building it on first request
    /// inside `exec` — the requesting consumer's thread budget, so a
    /// cache miss never occupies more workers than its owner was
    /// allotted (late arrivals block on the first builder either way).
    ///
    /// The building stages record their placement phase spans into
    /// `rec`. Only the consumer that actually builds the bundle (first
    /// requester on a cold slot) records spans; cache hits record
    /// nothing — no placement ran on their behalf.
    pub fn iscas(
        &self,
        profile: &IscasProfile,
        seed: u64,
        exec: &Budget,
        rec: &mut Recorder,
    ) -> Arc<IscasRun> {
        let slot = {
            let mut map = self.iscas.lock().expect("iscas cache poisoned");
            Arc::clone(map.entry((profile.name, seed)).or_default())
        };
        let key = BundleKey::Iscas {
            name: profile.name,
            seed,
        };
        self.fetch(slot, || {
            let start = std::time::Instant::now();
            let (run, built) = IscasRun::assemble(profile, seed, exec, self, rec);
            if built {
                self.note_bundle(&key, "build", start);
                (run, Origin::Built)
            } else {
                self.note_bundle(&key, "decode", start);
                (run, Origin::Disk)
            }
        })
    }

    /// The bundle for `profile` at `scale`/`seed`, building on first
    /// request inside `exec` and recording the build's spans into `rec`
    /// (see [`ArtifactCache::iscas`]).
    pub fn superblue(
        &self,
        profile: &SuperblueProfile,
        scale: usize,
        seed: u64,
        exec: &Budget,
        rec: &mut Recorder,
    ) -> Arc<SuperblueRun> {
        let slot = {
            let mut map = self.superblue.lock().expect("superblue cache poisoned");
            Arc::clone(map.entry((profile.name, scale, seed)).or_default())
        };
        let key = BundleKey::Superblue {
            name: profile.name,
            scale,
            seed,
        };
        self.fetch(slot, || {
            let start = std::time::Instant::now();
            let (run, built) = SuperblueRun::assemble(profile, scale, seed, exec, self, rec);
            if built {
                self.note_bundle(&key, "build", start);
                (run, Origin::Built)
            } else {
                self.note_bundle(&key, "decode", start);
                (run, Origin::Disk)
            }
        })
    }

    /// The split view of one arm of a bundle at `layer`, derived by
    /// `build` on first request and cached in memory per (bundle, arm,
    /// layer), so the jobs at one sweep point share each split.
    ///
    /// A split is a pure function of its bundle's routed layout and the
    /// layer, and deriving it costs less than decoding a stored frame,
    /// so views never touch the store: no load, no write, no journal
    /// event. Each derivation counts as a [`Stage::Split`] build in the
    /// per-stage counters, never in the bundle-level [`CacheStats`].
    /// Views drop after the last reserved job at their layer
    /// ([`ArtifactCache::release_job`]) or with their bundle
    /// ([`ArtifactCache::release`]).
    pub fn split(
        &self,
        key: &BundleKey,
        arm: SplitArm,
        layer: u8,
        build: impl FnOnce() -> SplitLayout,
    ) -> Arc<SplitLayout> {
        let slot = {
            let mut map = self.splits.lock().expect("split cache poisoned");
            Arc::clone(map.entry((*key, arm, layer)).or_default())
        };
        let value = slot.get_or_init(|| {
            self.stage_builds[Stage::Split.index()].fetch_add(1, Ordering::Relaxed);
            Arc::new(build())
        });
        Arc::clone(value)
    }

    /// The cell memoizing the network-flow attack's connection guess on
    /// one arm of a bundle at `layer`. Callers solve it with a
    /// job-independent config, so every flow job at this point shares
    /// one solve. Memory only, never persisted, counted in no
    /// statistic; cells drop with the layer's split views.
    pub fn flow_assignment(
        &self,
        key: &BundleKey,
        arm: SplitArm,
        layer: u8,
    ) -> Arc<Memo<FlowAssignment>> {
        let mut map = self.assignments.lock().expect("assignment cache poisoned");
        Arc::clone(map.entry((*key, arm, layer)).or_default())
    }

    /// Registers `uses` upcoming consumers of `key` (called once per key
    /// at campaign expansion, before any job runs). Counts accumulate,
    /// so resumed/filtered runs over the same cache compose.
    pub fn reserve(&self, key: BundleKey, uses: usize) {
        if uses == 0 {
            return;
        }
        *self
            .expected
            .lock()
            .expect("reserve table poisoned")
            .entry(key)
            .or_insert(0) += uses;
    }

    /// Signals that one consumer of `key` finished. When the last
    /// reserved consumer releases, the in-memory bundle is dropped (the
    /// disk store, if any, still holds it). Unreserved keys — e.g.
    /// session-driven artifact runs — are unaffected.
    pub fn release(&self, key: &BundleKey) {
        let drop_now = {
            let mut expected = self.expected.lock().expect("reserve table poisoned");
            match expected.get_mut(key) {
                Some(count) => {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        expected.remove(key);
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        };
        if !drop_now {
            return;
        }
        // Split views and flow assignments belong to their bundle: drop
        // them together so the working set shrinks with the sweep
        // frontier.
        self.drop_layers(|k, _| k == key);
        let removed = match key {
            BundleKey::Iscas { name, seed } => self
                .iscas
                .lock()
                .expect("iscas cache poisoned")
                .remove(&(*name, *seed))
                .is_some(),
            BundleKey::Superblue { name, scale, seed } => self
                .superblue
                .lock()
                .expect("superblue cache poisoned")
                .remove(&(*name, *scale, *seed))
                .is_some(),
        };
        if removed {
            self.released.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Registers `job` as an upcoming consumer of its bundle and of the
    /// split views at its layer (a campaign reserves every selected job
    /// before any runs).
    pub fn reserve_job(&self, job: &Job) {
        self.reserve(job.bundle_key(), 1);
        let mut uses = self.layer_uses.lock().expect("reserve table poisoned");
        *uses.entry((job.bundle_key(), job.split_layer)).or_insert(0) += 1;
    }

    /// Signals that `job` finished. The split views and flow
    /// assignments at its layer drop once no reserved job at that layer
    /// remains — each layer's entries serve only the attacks at that
    /// layer — and the bundle as in [`ArtifactCache::release`].
    pub fn release_job(&self, job: &Job) {
        let key = job.bundle_key();
        let slot = (key, job.split_layer);
        let mut uses = self.layer_uses.lock().expect("reserve table poisoned");
        let layer_done = match uses.get_mut(&slot) {
            Some(&mut 1) => uses.remove(&slot).is_some(),
            Some(count) => {
                *count -= 1;
                false
            }
            None => false,
        };
        drop(uses);
        if layer_done {
            self.drop_layers(|&k, layer| (k, layer) == slot);
        }
        self.release(&key);
    }

    /// Drops the split views and flow assignments whose (bundle, layer)
    /// matches `gone`.
    fn drop_layers(&self, gone: impl Fn(&BundleKey, u8) -> bool) {
        self.splits
            .lock()
            .expect("split cache poisoned")
            .retain(|(k, _, layer), _| !gone(k, *layer));
        self.assignments
            .lock()
            .expect("assignment cache poisoned")
            .retain(|(k, _, layer), _| !gone(k, *layer));
    }

    /// Number of bundles currently held in memory.
    pub fn resident(&self) -> usize {
        self.iscas.lock().expect("iscas cache poisoned").len()
            + self
                .superblue
                .lock()
                .expect("superblue cache poisoned")
                .len()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
        }
    }

    /// Per-stage build/decode counters accumulated so far.
    pub fn stage_stats(&self) -> StageStats {
        let mut stats = StageStats::default();
        for stage in Stage::ALL {
            let i = stage.index();
            stats.builds[i] = self.stage_builds[i].load(Ordering::Relaxed);
            stats.decodes[i] = self.stage_decodes[i].load(Ordering::Relaxed);
        }
        stats
    }

    /// Fetches the artifact of `stage` stored under `id`, or builds it,
    /// returning it plus whether it had to be built. Tiered: store
    /// decode ([`ArtifactCache::decode_stage`]) → build
    /// ([`ArtifactCache::build_stage`]). Stage artifacts round-trip
    /// bit-identically through the store codecs, so any mix of decoded
    /// and freshly built stages assembles into the same bundle a
    /// from-scratch build produces.
    pub(crate) fn fetch_stage<T: Encode + Decode>(
        &self,
        stage: Stage,
        id: &str,
        build: impl FnOnce() -> T,
    ) -> (T, bool) {
        match self.decode_stage(stage, id) {
            Some(value) => (value, false),
            None => (self.build_stage(stage, id, build), true),
        }
    }

    /// Decodes the artifact of `stage` stored under `id`, if the store
    /// holds an intact one. A decode lands in the per-stage counters
    /// and, when a journal is attached, as a `<label>-decode` event
    /// timing the load; a miss records nothing here (the store counts
    /// it).
    pub(crate) fn decode_stage<T: Decode>(&self, stage: Stage, id: &str) -> Option<T> {
        let start = Instant::now();
        let value = self.store.as_ref()?.load_stage::<T>(stage, id)?;
        self.stage_decodes[stage.index()].fetch_add(1, Ordering::Relaxed);
        self.note_stage(stage, id, "decode", start);
        Some(value)
    }

    /// Builds the artifact of `stage` with `build`, persisting it under
    /// `id` when a store is attached. The build lands in the per-stage
    /// counters and as a `<label>-build` event timing `build` and the
    /// save, and nothing before them.
    pub(crate) fn build_stage<T: Encode>(
        &self,
        stage: Stage,
        id: &str,
        build: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = build();
        if let Some(store) = &self.store {
            store.save_stage(stage, id, &value);
        }
        self.stage_builds[stage.index()].fetch_add(1, Ordering::Relaxed);
        self.note_stage(stage, id, "build", start);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn each_key_builds_exactly_once_under_contention() {
        let cache = Arc::new(ArtifactCache::new());
        let profile = IscasProfile::c432();
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let profile = profile.clone();
                    s.spawn(move || {
                        Arc::as_ptr(&cache.iscas(
                            &profile,
                            7,
                            &Budget::default(),
                            &mut Recorder::new(),
                        )) as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "all shared one Arc");
        let stats = cache.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.disk_hits, 0);
    }

    #[test]
    fn distinct_seeds_are_distinct_entries() {
        let cache = ArtifactCache::new();
        let profile = IscasProfile::c432();
        let a = cache.iscas(&profile, 1, &Budget::default(), &mut Recorder::new());
        let b = cache.iscas(&profile, 2, &Budget::default(), &mut Recorder::new());
        let a2 = cache.iscas(&profile, 1, &Budget::default(), &mut Recorder::new());
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &a2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.builds), (1, 2));
    }

    #[test]
    fn fetch_counts_via_shared_slot() {
        // Guard against double-building through a shared OnceLock.
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let cache = ArtifactCache::new();
        let slot: Slot<u32> = Arc::default();
        let obtain = || {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            (9u32, Origin::Built)
        };
        assert_eq!(*cache.fetch(Arc::clone(&slot), obtain), 9);
        assert_eq!(*cache.fetch(slot, obtain), 9);
        assert_eq!(BUILDS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn release_drops_bundle_after_last_reserved_use() {
        let cache = ArtifactCache::new();
        let profile = IscasProfile::c432();
        let key = BundleKey::Iscas {
            name: profile.name,
            seed: 4,
        };
        cache.reserve(key, 2);
        let run = cache.iscas(&profile, 4, &Budget::default(), &mut Recorder::new());
        assert_eq!(cache.resident(), 1);

        cache.release(&key);
        assert_eq!(cache.resident(), 1, "one consumer still outstanding");
        cache.release(&key);
        assert_eq!(cache.resident(), 0, "last release drops the bundle");
        assert_eq!(cache.stats().released, 1);
        // Our own Arc keeps the data alive; the cache no longer pins it.
        assert_eq!(Arc::strong_count(&run), 1);

        // A fresh request rebuilds.
        let _again = cache.iscas(&profile, 4, &Budget::default(), &mut Recorder::new());
        assert_eq!(cache.stats().builds, 2);
    }

    /// A connection guess tagged by its single pair.
    fn guess(tag: usize) -> FlowAssignment {
        let library = sm_netlist::Library::nangate45();
        FlowAssignment {
            pairs: vec![(tag, tag)],
            recovered: sm_netlist::NetlistBuilder::new("memo", &library)
                .finish()
                .expect("an empty netlist has no loop"),
        }
    }

    fn memo_key() -> BundleKey {
        BundleKey::Iscas {
            name: "c432",
            seed: 7,
        }
    }

    #[test]
    fn concurrent_requests_share_one_solve() {
        let cache = ArtifactCache::new();
        let solves = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(4);
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let cell = cache.flow_assignment(&memo_key(), SplitArm::Protected, 3);
                        let value = cell.get_or_solve(|| {
                            solves.fetch_add(1, Ordering::SeqCst);
                            Some(guess(1))
                        });
                        Arc::as_ptr(&value.expect("the solve succeeds")) as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]), "all shared one Arc");
        // Other arms and layers are cells of their own.
        let other = cache.flow_assignment(&memo_key(), SplitArm::Original, 3);
        assert!(other.get_or_solve(|| None).is_none());
    }

    #[test]
    fn a_declined_solve_leaves_the_cell_empty() {
        let cache = ArtifactCache::new();
        let cell = cache.flow_assignment(&memo_key(), SplitArm::Protected, 4);
        assert!(cell.get_or_solve(|| None).is_none(), "a cancelled solve");
        let value = cell.get_or_solve(|| Some(guess(2))).unwrap();
        assert_eq!(value.pairs, [(2, 2)], "the next request solved it");
        let again = cache.flow_assignment(&memo_key(), SplitArm::Protected, 4);
        let hit = again.get_or_solve(|| panic!("a filled cell never solves"));
        assert!(Arc::ptr_eq(&value, &hit.unwrap()));
    }

    #[test]
    fn a_panicking_solve_leaves_the_cell_empty_and_usable() {
        let cache = ArtifactCache::new();
        let cell = cache.flow_assignment(&memo_key(), SplitArm::Original, 5);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.get_or_solve(|| panic!("solver bug"))
        }));
        assert!(crashed.is_err());
        let value = cell.try_get_or_solve(|| Some(guess(3)));
        assert_eq!(value.unwrap().unwrap().pairs, [(3, 3)]);
        let hit = cell.get_or_solve(|| panic!("a filled cell never solves"));
        assert_eq!(hit.unwrap().pairs, [(3, 3)]);
    }

    #[test]
    fn a_cell_being_solved_reports_busy() {
        let cell: Memo<u32> = Memo::default();
        let (entered, wait_entered) = std::sync::mpsc::channel();
        let (finish, wait_finish) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let cell = &cell;
            let solver = s.spawn(move || {
                cell.get_or_solve(|| {
                    entered.send(()).unwrap();
                    // Bounded, so a `try_get_or_solve` that blocks fails
                    // the test instead of hanging it.
                    let _ = wait_finish.recv_timeout(std::time::Duration::from_secs(60));
                    Some(5)
                })
            });
            wait_entered.recv().unwrap();
            assert_eq!(cell.try_get_or_solve(|| Some(6)), Err(Busy));
            finish.send(()).unwrap();
            assert_eq!(solver.join().unwrap().as_deref(), Some(&5));
        });
        assert_eq!(
            cell.try_get_or_solve(|| Some(6)).unwrap().as_deref(),
            Some(&5)
        );
    }

    #[test]
    fn a_free_cell_reports_no_blocked_time_and_a_waiter_shares_the_solve() {
        let cell: Memo<u32> = Memo::default();
        let (value, blocked) = cell.get_or_solve_timed(|| Some(5));
        assert_eq!((value.as_deref(), blocked), (Some(&5), Duration::ZERO));
        let (value, blocked) = cell.get_or_solve_timed(|| Some(6));
        assert_eq!((value.as_deref(), blocked), (Some(&5), Duration::ZERO));

        // A requester arriving while a sibling solves shares its value.
        // Whether it reached the lock before the solve ended depends on
        // scheduling, so only the bound on its blocked time is checked.
        let cell: Memo<u32> = Memo::default();
        let (entered, wait_entered) = std::sync::mpsc::channel();
        let (finish, wait_finish) = std::sync::mpsc::channel::<()>();
        let (calling, wait_calling) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let cell = &cell;
            let solver = s.spawn(move || {
                cell.get_or_solve(|| {
                    entered.send(()).unwrap();
                    let _ = wait_finish.recv_timeout(Duration::from_secs(60));
                    Some(5)
                })
            });
            wait_entered.recv().unwrap();
            let waiter = s.spawn(move || {
                calling.send(()).unwrap();
                let start = Instant::now();
                let (value, blocked) = cell.get_or_solve_timed(|| Some(6));
                (value, blocked, start.elapsed())
            });
            wait_calling.recv().unwrap();
            finish.send(()).unwrap();
            assert_eq!(solver.join().unwrap().as_deref(), Some(&5));
            let (value, blocked, call) = waiter.join().unwrap();
            assert_eq!(value.as_deref(), Some(&5));
            assert!(blocked <= call);
        });
    }

    #[test]
    fn release_without_reserve_is_a_no_op() {
        let cache = ArtifactCache::new();
        let profile = IscasProfile::c432();
        let key = BundleKey::Iscas {
            name: profile.name,
            seed: 9,
        };
        let _run = cache.iscas(&profile, 9, &Budget::default(), &mut Recorder::new());
        cache.release(&key);
        assert_eq!(cache.resident(), 1);
        assert_eq!(cache.stats().released, 0);
    }
}
