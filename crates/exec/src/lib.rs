//! `sm-exec` — deterministic parallelism primitives.
//!
//! This crate sits at the bottom of the dependency stack (it depends on
//! nothing) so that both the layout engine (`sm-layout`, for parallel
//! bisection work) and the campaign engine (`sm-engine`, for parallel
//! jobs and bundle builds) share one worker pool and one seed-derivation
//! scheme. It hosts:
//!
//! * [`Pool`] — a **persistent** work-stealing worker pool: workers are
//!   spawned once and serve every `map`/`join` submitted for the pool's
//!   lifetime, so nested parallel work *shares* the pool instead of
//!   spawning fresh threads per call;
//! * [`Budget`] — a splittable thread allotment over a pool, plus a
//!   [`CancelToken`]: the unit of resource ownership that the CLI parses
//!   (`--threads`/`--timeout-secs`), the campaign engine divides among
//!   jobs, and the layout engine threads into recursive work. Total live
//!   worker threads never exceed the pool's size, no matter how deeply
//!   budgeted work nests;
//! * [`CancelToken`] — cooperative cancellation with an optional
//!   deadline, checked at job boundaries (never inside deterministic
//!   kernels, so results stay bit-identical);
//! * [`seed`] — the SplitMix64/FNV-1a mixing primitives behind all
//!   deterministic seed derivation (`Job::derived_seed`, per-branch
//!   bisection streams);
//! * [`fault`] — seeded deterministic fault injection ([`fault::FaultPlan`]),
//!   the chaos-testing layer threaded into store I/O, journal appends
//!   and job execution;
//! * [`phase`] — wall-clock span recording at deterministic phase
//!   boundaries ([`phase::Recorder`]), the observability side-band
//!   behind `--timings` and journal provenance.
//!
//! Determinism contract: [`Budget::map`] returns results in **input
//! order** and [`Budget::join`] runs two independent closures, so every
//! result is a pure function of the inputs — scheduling decides only
//! wall-clock, never bytes.

#![warn(missing_docs)]

pub mod fault;
pub mod phase;

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Deterministic seed derivation: the mixing primitives every derived
/// random stream in the workspace is built from.
pub mod seed {
    /// SplitMix64 finalizer: the mixing primitive behind all seed
    /// derivation.
    pub fn mix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// FNV-1a hash of a string, for folding names into seeds.
    pub fn fnv1a(s: &str) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Derives an independent child stream from a parent seed and a
    /// branch index — the same scheme `Job::derived_seed` uses to fold
    /// job axes into bundle seeds. Two sibling branches get unrelated
    /// streams, so recursive work can run in any order (or in parallel)
    /// without sharing mutable RNG state.
    pub fn derive(parent: u64, branch: u64) -> u64 {
        mix64(parent ^ branch.rotate_left(17))
    }
}

// ----- cancellation ---------------------------------------------------------

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    /// Remaining [`CancelToken::is_cancelled`] observations before the
    /// token trips (test-only fuse; `None` for ordinary tokens).
    fuse: Option<AtomicU64>,
}

impl CancelInner {
    fn tripped(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        if let Some(fuse) = &self.fuse {
            if fuse
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                .is_err()
            {
                return true;
            }
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Cooperative cancellation: a shared flag plus an optional deadline.
///
/// Cloning shares the token, so cancelling any clone cancels all of
/// them. Deterministic kernels never consult the token mid-computation;
/// the campaign engine checks it **between** jobs, which is what makes a
/// cancelled-then-resumed sweep byte-identical to an uninterrupted one.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A token that never expires on its own.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
                fuse: None,
            }),
        }
    }

    /// A token that reports cancelled once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
                fuse: None,
            }),
        }
    }

    /// A token that reports cancelled starting with its `n + 1`-th
    /// [`CancelToken::is_cancelled`] observation (shared across clones).
    ///
    /// This is a deterministic stand-in for a wall-clock deadline in
    /// tests of cooperative cancellation: a deadline that fires "during
    /// the build" is a race, while a fuse of `n` observations expires at
    /// exactly the `n + 1`-th checkpoint, every run. Production tokens
    /// come from [`CancelToken::new`]/[`CancelToken::with_deadline`].
    pub fn trip_after(n: u64) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: None,
                fuse: Some(AtomicU64::new(n)),
            }),
        }
    }

    /// A token that expires `timeout` from now.
    pub fn deadline_in(timeout: Duration) -> CancelToken {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Requests cancellation (idempotent, visible to all clones).
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] was called, the deadline
    /// passed, or a [`trip_after`](CancelToken::trip_after) fuse ran
    /// out.
    pub fn is_cancelled(&self) -> bool {
        self.inner.tripped()
    }

    /// The deadline, if this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// The payload of a cancellation unwind.
///
/// Deterministic kernels observe their token only at result-neutral
/// checkpoints and surface expiry as `None`; the layer that *owns* the
/// partial work (the sm-core flow builders) converts that `None` into an
/// unwind carrying this marker via [`abort_cancelled`]. The campaign
/// engine's job isolation (`catch_unwind` around the compute region)
/// downcasts the payload and records the job timed-out instead of
/// failed — so an expired deadline is an outcome, never a bug report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

/// Aborts the current computation by unwinding with [`Cancelled`].
///
/// Uses `resume_unwind`, which skips the process panic hook: an expired
/// budget is a normal outcome and must not spam stderr. The payload
/// survives [`Budget::map`]/[`Budget::join`] re-raising (both preserve
/// the original payload box), so a checkpoint deep inside pooled work
/// reaches the nearest `catch_unwind` with its type intact.
pub fn abort_cancelled() -> ! {
    std::panic::resume_unwind(Box::new(Cancelled))
}

// ----- the persistent pool --------------------------------------------------

/// One claimable unit of queued work, type-erased.
///
/// `ctx` points at a `MapCtx`/`JoinCtx` on the **submitting caller's
/// stack**; `run_one` claims and runs one item, returning `false` once
/// the batch is exhausted.
///
/// # Safety
///
/// The pointer is only dereferenced while the owning [`BatchHandle`]'s
/// `RwLock` holds `Some` — and the submitting call retires the batch
/// (write-locks and replaces it with `None`, which waits out every
/// reader) before returning or unwinding. The pointee is `Sync` by
/// construction (`T: Sync`, `R: Send`, `F: Sync`).
#[derive(Clone, Copy)]
struct ErasedBatch {
    ctx: *const (),
    run_one: unsafe fn(*const ()) -> bool,
}

unsafe impl Send for ErasedBatch {}
unsafe impl Sync for ErasedBatch {}

/// A queued batch: the erased work plus its claimant accounting.
struct BatchHandle {
    /// `Some` while the submitting call is alive; retired to `None`
    /// (under the write lock) before that call returns.
    batch: RwLock<Option<ErasedBatch>>,
    /// Maximum concurrent claimants — the submitting [`Budget`]'s thread
    /// allotment, which is how a sub-budget occupies only its share of a
    /// larger pool.
    limit: usize,
    /// Claimants currently inside the batch.
    active: AtomicUsize,
    /// Set once a claimant observed the batch exhausted; stops further
    /// picks while the last items finish.
    drained: AtomicBool,
}

impl BatchHandle {
    fn try_enter(&self) -> bool {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.limit {
                return false;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    fn pickable(&self) -> bool {
        !self.drained.load(Ordering::Relaxed) && self.active.load(Ordering::Relaxed) < self.limit
    }
}

struct QueueState {
    queue: VecDeque<Arc<BatchHandle>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    work_cv: Condvar,
    /// Distinct OS threads currently executing batch items (workers and
    /// participating callers; nested participation on one thread counts
    /// once).
    live: AtomicUsize,
    /// High-water mark of `live` — the pool-instrumentation counter the
    /// thread-ceiling tests assert on.
    peak: AtomicUsize,
    /// Panics caught on batch items over the pool's lifetime — the
    /// supervisor counter behind [`PoolStats::panics_caught`].
    panics: AtomicUsize,
}

thread_local! {
    /// `(pool id, nesting depth)` per pool this thread is currently
    /// executing batch items for. Distinguishes "one thread nesting
    /// deeper" (counts once) from "another thread joining in".
    static POOL_DEPTH: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

fn enter_pool(id: usize) -> bool {
    POOL_DEPTH.with(|d| {
        let mut d = d.borrow_mut();
        if let Some(e) = d.iter_mut().find(|e| e.0 == id) {
            e.1 += 1;
            false
        } else {
            d.push((id, 1));
            true
        }
    })
}

fn exit_pool(id: usize) -> bool {
    POOL_DEPTH.with(|d| {
        let mut d = d.borrow_mut();
        if let Some(pos) = d.iter().position(|e| e.0 == id) {
            d[pos].1 -= 1;
            if d[pos].1 == 0 {
                d.remove(pos);
                return true;
            }
        }
        false
    })
}

impl Shared {
    /// RAII live-thread accounting for this thread on `pool_id`: counts
    /// the thread live on first (outermost) entry and un-counts it when
    /// the outermost scope drops — including on unwind, so a panicking
    /// workload cannot leak the live count or the thread-local depth.
    fn live_scope(&self, pool_id: usize) -> LiveScope<'_> {
        if enter_pool(pool_id) {
            let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        LiveScope {
            shared: self,
            pool_id,
        }
    }

    /// Claims and runs items of `handle` until the batch is exhausted or
    /// its claimant limit was reached, maintaining the live-thread
    /// instrumentation. Called by workers and by participating callers.
    fn run_batch(&self, handle: &BatchHandle, pool_id: usize) {
        if !handle.try_enter() {
            return;
        }
        let guard = handle.batch.read().unwrap_or_else(|p| p.into_inner());
        if let Some(batch) = guard.as_ref() {
            let _live = self.live_scope(pool_id);
            // SAFETY: the read guard keeps the batch un-retired, so
            // `ctx` is alive for every `run_one` call (see
            // [`ErasedBatch`]).
            while unsafe { (batch.run_one)(batch.ctx) } {}
            handle.drained.store(true, Ordering::Relaxed);
        }
        drop(guard);
        handle.active.fetch_sub(1, Ordering::Release);
        // Capacity freed (or the batch drained): peers re-evaluate.
        self.work_cv.notify_all();
    }
}

struct LiveScope<'a> {
    shared: &'a Shared,
    pool_id: usize,
}

impl Drop for LiveScope<'_> {
    fn drop(&mut self) {
        if exit_pool(self.pool_id) {
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop(shared: Arc<Shared>, pool_id: usize) {
    loop {
        let handle = {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(h) = st.queue.iter().find(|h| h.pickable()) {
                    break Arc::clone(h);
                }
                if st.shutdown {
                    return;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        shared.run_batch(&handle, pool_id);
    }
}

/// Removes the batch from the queue and retires it on drop, so the
/// type-erased context pointer can never outlive the submitting call —
/// even if that call unwinds.
struct BatchGuard<'a> {
    shared: &'a Shared,
    handle: Arc<BatchHandle>,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(pos) = st.queue.iter().position(|h| Arc::ptr_eq(h, &self.handle)) {
                st.queue.remove(pos);
            }
        }
        // Blocks until every reader (i.e. every claimant still holding
        // the context pointer) has left the batch.
        *self.handle.batch.write().unwrap_or_else(|p| p.into_inner()) = None;
    }
}

static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

/// A persistent work-stealing worker pool.
///
/// `threads` is the pool's total allotment **including the submitting
/// caller**: a pool of `threads` spawns `threads - 1` workers, and every
/// `map`/`join` caller participates in its own batch, so at most
/// `threads` OS threads ever execute pool work concurrently — nested
/// batches share the same workers instead of multiplying them.
///
/// Workers live until the last [`Pool`] handle drops.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    id: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A point-in-time snapshot of a pool's occupancy counters, taken with
/// [`Pool::stats`]. `live` is instantaneous; `peak_live` is the
/// high-water mark since the pool was spawned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total thread slots (workers + one participating caller).
    pub threads: usize,
    /// OS threads executing pool work at sample time.
    pub live: usize,
    /// High-water mark of `live` over the pool's lifetime.
    pub peak_live: usize,
    /// Batch-item panics caught (and confined) over the pool's lifetime.
    pub panics_caught: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("live", &self.live())
            .finish()
    }
}

impl Pool {
    /// Spawns a pool with `threads` total slots (`threads - 1` workers;
    /// `0` is treated as `1`).
    pub fn new(threads: usize) -> Arc<Pool> {
        let threads = threads.max(1);
        let id = POOL_IDS.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
        });
        let handles = (0..threads - 1)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("sm-exec-worker".into())
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(Pool {
            shared,
            threads,
            id,
            handles: Mutex::new(handles),
        })
    }

    /// The process-wide default pool, sized to the machine's available
    /// parallelism. Everything that does not carry an explicit [`Budget`]
    /// runs here, so even un-plumbed callers share one set of workers.
    pub fn global() -> &'static Arc<Pool> {
        static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Pool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Total thread slots (workers + one participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Distinct OS threads currently executing pool work.
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Pool::live`] over the pool's lifetime — the
    /// instrumentation the thread-ceiling tests assert never exceeds the
    /// configured budget.
    pub fn peak_live(&self) -> usize {
        self.shared.peak.load(Ordering::Relaxed)
    }

    /// Batch-item panics caught on this pool (each confined to the item
    /// that raised it, then re-raised once on the submitting caller) —
    /// the supervisor's evidence that a panicking workload never killed
    /// a worker.
    pub fn panics_caught(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of the pool's instrumentation counters —
    /// what campaign reports and journal `campaign-finished` records
    /// sample.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads(),
            live: self.live(),
            peak_live: self.peak_live(),
            panics_caught: self.panics_caught(),
        }
    }

    fn push(&self, handle: Arc<BatchHandle>) {
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.queue.push_back(handle);
        drop(st);
        self.shared.work_cv.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self
            .handles
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
        {
            let _ = h.join();
        }
    }
}

// ----- map / join contexts --------------------------------------------------

struct MapCtx<'a, T, R, F> {
    items: &'a [T],
    slots: &'a [Mutex<Option<R>>],
    f: &'a F,
    next: AtomicUsize,
    /// Lock-free completion count; the mutex/condvar pair below is
    /// touched only by the final item (and the waiting caller), so the
    /// per-item cost on hot many-item batches stays one atomic.
    done: AtomicUsize,
    finished: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The owning pool's supervisor counter ([`Shared::panics`]).
    panics_caught: &'a AtomicUsize,
}

/// Claims and runs one map item. `false` once all items are claimed.
///
/// # Safety
///
/// `ctx` must point to a live `MapCtx<'_, T, R, F>` of exactly these
/// type parameters (guaranteed by the monomorphized function pointer
/// paired with the context in one [`ErasedBatch`]).
unsafe fn run_one_map<T, R, F>(ctx: *const ()) -> bool
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let ctx = unsafe { &*(ctx as *const MapCtx<'_, T, R, F>) };
    let i = ctx.next.fetch_add(1, Ordering::Relaxed);
    if i >= ctx.items.len() {
        return false;
    }
    match catch_unwind(AssertUnwindSafe(|| (ctx.f)(i, &ctx.items[i]))) {
        Ok(r) => *ctx.slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r),
        Err(payload) => {
            ctx.panics_caught.fetch_add(1, Ordering::Relaxed);
            let mut slot = ctx.panic.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
    if ctx.done.fetch_add(1, Ordering::AcqRel) + 1 == ctx.items.len() {
        *ctx.finished.lock().unwrap_or_else(|p| p.into_inner()) = true;
        ctx.done_cv.notify_all();
    }
    true
}

struct JoinCtx<B, RB> {
    task: Mutex<Option<B>>,
    out: Mutex<Option<std::thread::Result<RB>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// Claims and runs the single join task. `false` once claimed.
///
/// # Safety
///
/// `ctx` must point to a live `JoinCtx<B, RB>` of exactly these type
/// parameters.
unsafe fn run_one_join<B, RB>(ctx: *const ()) -> bool
where
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let ctx = unsafe { &*(ctx as *const JoinCtx<B, RB>) };
    let Some(task) = ctx.task.lock().unwrap_or_else(|p| p.into_inner()).take() else {
        return false;
    };
    let result = catch_unwind(AssertUnwindSafe(task));
    *ctx.out.lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
    let mut done = ctx.done.lock().unwrap_or_else(|p| p.into_inner());
    *done = true;
    ctx.done_cv.notify_all();
    true
}

// ----- budget ---------------------------------------------------------------

/// A splittable thread allotment over a [`Pool`], plus a [`CancelToken`].
///
/// The budget is the unit of resource ownership plumbed CLI → engine →
/// layout: `smctl` parses `--threads`/`--timeout-secs` into one budget,
/// the campaign engine [`split`](Budget::split)s it among jobs, and the
/// placement engine threads it into recursive bisection — so nested
/// parallel work shares one pool and the configured thread count is a
/// process-wide ceiling, not a per-call-site multiplier.
///
/// Cloning shares the pool and the token; `threads` is plain data.
#[derive(Clone)]
pub struct Budget {
    pool: Arc<Pool>,
    threads: usize,
    cancel: CancelToken,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Budget")
            .field("threads", &self.threads)
            .field("pool_threads", &self.pool.threads())
            .field("cancelled", &self.cancel.is_cancelled())
            .finish()
    }
}

impl Default for Budget {
    /// The full allotment of the process-wide [`Pool::global`] pool.
    fn default() -> Self {
        let pool = Arc::clone(Pool::global());
        let threads = pool.threads();
        Budget {
            pool,
            threads,
            cancel: CancelToken::new(),
        }
    }
}

impl Budget {
    /// A budget over a dedicated pool of `threads` workers (`None` uses
    /// the machine's available parallelism on the **global** pool, so
    /// unconfigured runs still share one set of workers).
    pub fn with_threads(threads: Option<usize>) -> Budget {
        match threads.filter(|&t| t > 0) {
            Some(t) => Budget {
                pool: Pool::new(t),
                threads: t,
                cancel: CancelToken::new(),
            },
            None => Budget::default(),
        }
    }

    /// This budget's thread allotment.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool this budget schedules on.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// The budget's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Replaces the cancellation token (shared by all later clones and
    /// splits).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Budget {
        self.cancel = cancel;
        self
    }

    /// Attaches a deadline `timeout` from now (see
    /// [`CancelToken::deadline_in`]).
    pub fn with_deadline_in(self, timeout: Duration) -> Budget {
        let cancel = CancelToken::deadline_in(timeout);
        self.with_cancel(cancel)
    }

    /// `true` once the budget's token was cancelled or its deadline
    /// passed.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The per-child allotment when this budget is divided among
    /// `children` concurrent subtasks: each child gets an equal share
    /// (at least one thread), on the same pool, with the same token. A
    /// parent running `k` children concurrently therefore stays within
    /// its own allotment instead of letting every child assume it owns
    /// the whole pool.
    pub fn split(&self, children: usize) -> Budget {
        Budget {
            pool: Arc::clone(&self.pool),
            threads: (self.threads / children.max(1)).max(1),
            cancel: self.cancel.clone(),
        }
    }

    /// Applies `f` to every item on the pool and returns results in
    /// **input order** (independent of which worker ran what). At most
    /// `threads` pool threads (counting this caller, which participates)
    /// work on the batch concurrently.
    ///
    /// Panics in `f` are confined to the item that raised them; the
    /// first panic is re-raised on the caller after all items finish.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let limit = self.threads.min(n);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        if limit <= 1 || self.pool.threads() <= 1 {
            // Serial fast path on the caller's thread — still counted
            // by the live-thread instrumentation, via the RAII scope so
            // a panic in `f` (which propagates directly here) cannot
            // leak the count.
            let _live = self.pool.shared.live_scope(self.pool.id);
            for (i, item) in items.iter().enumerate() {
                *slots[i].lock().expect("slot") = Some(f(i, item));
            }
        } else {
            let ctx = MapCtx {
                items,
                slots: &slots,
                f: &f,
                next: AtomicUsize::new(0),
                done: AtomicUsize::new(0),
                finished: Mutex::new(false),
                done_cv: Condvar::new(),
                panic: Mutex::new(None),
                panics_caught: &self.pool.shared.panics,
            };
            let handle = Arc::new(BatchHandle {
                batch: RwLock::new(Some(ErasedBatch {
                    ctx: &ctx as *const MapCtx<'_, T, R, F> as *const (),
                    run_one: run_one_map::<T, R, F>,
                })),
                limit,
                active: AtomicUsize::new(0),
                drained: AtomicBool::new(false),
            });
            let guard = BatchGuard {
                shared: &self.pool.shared,
                handle: Arc::clone(&handle),
            };
            self.pool.push(Arc::clone(&handle));
            // Participate: the caller is one of the batch's claimants.
            self.pool.shared.run_batch(&handle, self.pool.id);
            let mut finished = ctx.finished.lock().unwrap_or_else(|p| p.into_inner());
            while !*finished {
                finished = ctx
                    .done_cv
                    .wait(finished)
                    .unwrap_or_else(|p| p.into_inner());
            }
            drop(finished);
            drop(guard); // retire before `ctx` leaves scope
            let payload = ctx.panic.lock().unwrap_or_else(|p| p.into_inner()).take();
            if let Some(payload) = payload {
                std::panic::resume_unwind(payload);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .unwrap_or_else(|| panic!("job {i} panicked on a worker thread"))
            })
            .collect()
    }

    /// Runs two independent closures — `a` on the caller's thread, `b`
    /// on an idle pool worker (or inline, if the budget is serial or no
    /// worker picks it up in time) — and returns both results. The tasks
    /// must not share mutable state, so the result — unlike the schedule
    /// — is deterministic: two independent builds run concurrently with
    /// bit-identical output, **inside** the owning job's budget.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from either task.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.threads <= 1 || self.pool.threads() <= 1 {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        let ctx = JoinCtx {
            task: Mutex::new(Some(b)),
            out: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        };
        let handle = Arc::new(BatchHandle {
            batch: RwLock::new(Some(ErasedBatch {
                ctx: &ctx as *const JoinCtx<B, RB> as *const (),
                run_one: run_one_join::<B, RB>,
            })),
            limit: 1,
            active: AtomicUsize::new(0),
            drained: AtomicBool::new(false),
        });
        let guard = BatchGuard {
            shared: &self.pool.shared,
            handle: Arc::clone(&handle),
        };
        self.pool.push(Arc::clone(&handle));
        let ra = a();
        // If no worker claimed `b` while `a` ran, run it here.
        self.pool.shared.run_batch(&handle, self.pool.id);
        let mut done = ctx.done.lock().unwrap_or_else(|p| p.into_inner());
        while !*done {
            done = ctx.done_cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
        drop(done);
        drop(guard);
        let rb = ctx
            .out
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .expect("join task completed");
        match rb {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_keep_input_order() {
        let exec = Budget::with_threads(Some(8));
        let items: Vec<u64> = (0..200).collect();
        let out = exec.map(&items, |i, &x| {
            // Uneven job costs to force out-of-order completion.
            let spin = (x % 7) * 1000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k);
            }
            std::hint::black_box(acc);
            (i, x * 2)
        });
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, items[i] * 2);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let exec = Budget::with_threads(Some(4));
        let items: Vec<usize> = (0..100).collect();
        let out = exec.map(&items, |_, &x| x);
        let unique: HashSet<usize> = out.iter().copied().collect();
        assert_eq!(unique.len(), items.len());
    }

    #[test]
    fn zero_and_none_threads_fall_back_to_auto() {
        let a = Budget::with_threads(Some(0));
        let b = Budget::with_threads(None);
        assert_eq!(a.threads(), b.threads());
        assert!(a.threads() >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let exec = Budget::with_threads(Some(4));
        let out: Vec<u32> = exec.map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let items: Vec<u64> = (0..50).collect();
        let serial = Budget::with_threads(Some(1));
        let parallel = Budget::with_threads(Some(6));
        let a = serial.map(&items, |_, &x| x * x);
        let b = parallel.map(&items, |_, &x| x * x);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_is_reused_across_maps() {
        let budget = Budget::with_threads(Some(4));
        let items: Vec<u64> = (0..64).collect();
        for _ in 0..5 {
            let out = budget.map(&items, |_, &x| x + 1);
            assert_eq!(out.len(), items.len());
        }
        // Workers persist: the pool never grew beyond its allotment.
        assert!(budget.pool().peak_live() <= 4);
    }

    #[test]
    fn join_returns_both_results() {
        let budget = Budget::with_threads(Some(2));
        let (a, b) = budget.join(|| 1 + 1, || vec![0u8; 3].len());
        assert_eq!((a, b), (2, 3));
    }

    #[test]
    fn nested_maps_stay_within_the_budget() {
        // An outer sweep of jobs, each fanning out an inner sweep — the
        // shape of campaign jobs running nested bisection anchor sweeps.
        // All of it must share one pool: at no point may more than
        // `threads` OS threads be executing.
        let threads = 3;
        let budget = Budget::with_threads(Some(threads));
        let jobs: Vec<u64> = (0..8).collect();
        let per_job = budget.split(jobs.len().min(threads));
        let out = budget.map(&jobs, |_, &j| {
            let inner: Vec<u64> = (0..16).collect();
            let partial = per_job.map(&inner, |_, &x| {
                let mut acc = j;
                for k in 0..2_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(k);
                }
                std::hint::black_box(acc);
                x + j
            });
            partial.iter().sum::<u64>()
        });
        assert_eq!(out.len(), jobs.len());
        for (j, &sum) in out.iter().enumerate() {
            assert_eq!(sum, (0..16).map(|x| x + j as u64).sum::<u64>());
        }
        assert!(
            budget.pool().peak_live() <= threads,
            "peak {} > budget {threads}",
            budget.pool().peak_live()
        );
    }

    #[test]
    fn nested_joins_stay_within_the_budget() {
        let threads = 2;
        let budget = Budget::with_threads(Some(threads));
        let jobs: Vec<u64> = (0..6).collect();
        let per_job = budget.split(jobs.len().min(threads));
        let out = budget.map(&jobs, |_, &j| {
            let (a, b) = per_job.join(|| j * 2, || j * 3);
            a + b
        });
        assert_eq!(out, vec![0, 5, 10, 15, 20, 25]);
        assert!(budget.pool().peak_live() <= threads);
    }

    #[test]
    fn split_divides_the_allotment() {
        let budget = Budget::with_threads(Some(8));
        assert_eq!(budget.split(2).threads(), 4);
        assert_eq!(budget.split(3).threads(), 2);
        assert_eq!(budget.split(8).threads(), 1);
        assert_eq!(budget.split(100).threads(), 1);
        assert_eq!(budget.split(0).threads(), 8);
        // Splits share the pool and the token.
        let child = budget.split(2);
        assert!(Arc::ptr_eq(budget.pool(), child.pool()));
        budget.cancel_token().cancel();
        assert!(child.is_cancelled());
    }

    #[test]
    fn split_of_a_one_thread_budget_stays_serial() {
        // The boundary case behind `--threads 1` campaigns: splitting an
        // already-minimal allotment must not round up to extra workers,
        // must share the pool, and must keep the token wiring.
        let budget = Budget::with_threads(Some(1));
        for children in [0usize, 1, 2, 7] {
            let child = budget.split(children);
            assert_eq!(child.threads(), 1, "split({children})");
            assert!(Arc::ptr_eq(budget.pool(), child.pool()));
        }
        let child = budget.split(3);
        let items: Vec<u64> = (0..32).collect();
        let out = child.map(&items, |_, &x| x + 1);
        assert_eq!(out.len(), 32);
        assert!(
            budget.pool().peak_live() <= 1,
            "serial budget oversubscribed"
        );
        budget.cancel_token().cancel();
        assert!(child.is_cancelled(), "splits share the parent's token");
    }

    #[test]
    fn nested_joins_under_an_exhausted_allotment_never_oversubscribe() {
        // A campaign whose jobs each split an exhausted (1-thread) share
        // and then join nested work: everything must degrade to serial
        // execution on the claiming thread, with `peak_live` proving the
        // ceiling held.
        let threads = 2;
        let budget = Budget::with_threads(Some(threads));
        let jobs: Vec<u64> = (0..6).collect();
        // Over-splitting (more children than threads) exhausts the
        // allotment: every child gets the 1-thread floor.
        let per_job = budget.split(jobs.len());
        assert_eq!(per_job.threads(), 1);
        let out = budget.map(&jobs, |_, &j| {
            let (a, (b, c)) = per_job.join(|| j + 1, || per_job.join(|| j + 2, || j + 3));
            a + b + c
        });
        assert_eq!(out, vec![6, 9, 12, 15, 18, 21]);
        assert!(
            budget.pool().peak_live() <= threads,
            "peak {} > budget {threads}",
            budget.pool().peak_live()
        );
    }

    #[test]
    fn cancel_token_flags_and_deadlines() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());

        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(expired.is_cancelled());
        let future = CancelToken::deadline_in(Duration::from_secs(3600));
        assert!(!future.is_cancelled());
        assert!(future.deadline().is_some());

        let budget = Budget::with_threads(Some(1)).with_deadline_in(Duration::ZERO);
        assert!(budget.is_cancelled());
    }

    #[test]
    fn trip_after_fuse_expires_on_schedule() {
        let t = CancelToken::trip_after(3);
        assert!(!t.is_cancelled());
        let clone = t.clone(); // clones share the fuse
        assert!(!clone.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled(), "4th observation trips");
        assert!(t.is_cancelled(), "and stays tripped");
        // Explicit cancellation still short-circuits the fuse.
        let t = CancelToken::trip_after(100);
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancelled_unwind_survives_join_reraising() {
        let budget = Budget::with_threads(Some(2));
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            budget.join(|| 1u32, || -> u32 { abort_cancelled() })
        }))
        .expect_err("cancellation unwinds");
        assert!(payload.is::<Cancelled>(), "payload type preserved");
    }

    #[test]
    fn map_panic_is_reraised_after_all_jobs_finish() {
        let budget = Budget::with_threads(Some(4));
        let items: Vec<u64> = (0..32).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            budget.map(&items, |_, &x| {
                if x == 7 {
                    panic!("job 7 exploded");
                }
                x
            })
        }));
        assert!(result.is_err());
        // The pool survives a panicked batch and serves the next one.
        let out = budget.map(&items, |_, &x| x * 2);
        assert_eq!(out[31], 62);
        // The supervisor counter recorded the confined panic.
        assert_eq!(budget.pool().panics_caught(), 1);
        assert_eq!(budget.pool().stats().panics_caught, 1);
    }

    #[test]
    fn seed_derivation_separates_branches() {
        let parent = seed::mix64(1);
        let low = seed::derive(parent, 0);
        let high = seed::derive(parent, 1);
        assert_ne!(low, high);
        assert_ne!(low, parent);
        // Deterministic: same inputs, same stream.
        assert_eq!(seed::derive(parent, 0), low);
        assert_eq!(seed::fnv1a("c432"), seed::fnv1a("c432"));
        assert_ne!(seed::fnv1a("c432"), seed::fnv1a("c880"));
    }
}
