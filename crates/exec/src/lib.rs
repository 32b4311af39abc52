//! `sm-exec` — deterministic parallelism primitives.
//!
//! This crate sits at the bottom of the dependency stack (it depends on
//! nothing) so that both the layout engine (`sm-layout`, for parallel
//! bisection work) and the campaign engine (`sm-engine`, for parallel
//! jobs and bundle builds) share one thread allotment and one
//! seed-derivation scheme. It hosts:
//!
//! * [`Pool`] — a process-wide thread allotment: slot counters, no
//!   threads of its own. [`Budget::map`] and [`Budget::join`] run their
//!   work on the caller plus scoped helper threads (`std::thread::scope`)
//!   spawned on the slots still free, so nested parallel work *shares*
//!   the allotment instead of multiplying threads per call;
//! * [`Budget`] — a splittable thread allotment over a pool, plus a
//!   [`CancelToken`]: the unit of resource ownership that the CLI parses
//!   (`--threads`/`--timeout-secs`), the campaign engine divides among
//!   jobs, and the layout engine threads into recursive work. Total live
//!   threads never exceed the pool's size, no matter how deeply
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
//! wall-clock, never bytes. Helper threads borrow the caller's data
//! through `std::thread::scope`, so the crate needs no `unsafe` and
//! forbids it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod phase;

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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

// ----- the pool -------------------------------------------------------------

thread_local! {
    /// Ids of the pools whose work this thread is running, innermost
    /// last (slots drop in reverse order of entry). A thread nesting
    /// deeper into one pool's work counts once.
    static ENTERED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

/// A thread allotment shared by every [`Budget`] over it: a pool owns
/// no threads, only the slot counters that bound how many run its work.
///
/// `threads` counts the callers too. A [`Budget::map`]/[`Budget::join`]
/// caller takes one slot (once, however deeply its calls nest), and the
/// scoped helper threads it spawns take one each, reserved up front from
/// the slots still free. So a pool driven from one thread never runs
/// its work on more than `threads` OS threads at once, and nested maps
/// use the slots their parents left free instead of multiplying threads.
pub struct Pool {
    threads: usize,
    id: usize,
    /// Slots taken: distinct OS threads running this pool's work (a
    /// caller nesting deeper counts once).
    live: AtomicUsize,
    /// High-water mark of `live` — the pool-instrumentation counter the
    /// thread-ceiling tests assert on.
    peak: AtomicUsize,
    /// Panics caught on map items over the pool's lifetime — the
    /// supervisor counter behind [`PoolStats::panics_caught`].
    panics: AtomicUsize,
}

/// A point-in-time snapshot of a pool's occupancy counters, taken with
/// [`Pool::stats`]. `live` is instantaneous; `peak_live` is the
/// high-water mark since the pool was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total thread slots (callers and helpers alike).
    pub threads: usize,
    /// OS threads running pool work at sample time.
    pub live: usize,
    /// High-water mark of `live` over the pool's lifetime.
    pub peak_live: usize,
    /// Map-item panics caught (and confined) over the pool's lifetime.
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
    /// A pool with `threads` slots (`0` is treated as `1`).
    pub fn new(threads: usize) -> Arc<Pool> {
        Arc::new(Pool {
            threads: threads.max(1),
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
        })
    }

    /// The process-wide default pool, sized to the machine's available
    /// parallelism. Everything that does not carry an explicit [`Budget`]
    /// runs here, so even un-plumbed callers share one thread allotment.
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

    /// Total thread slots (callers and helpers alike).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Distinct OS threads currently running pool work.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Pool::live`] over the pool's lifetime — the
    /// instrumentation the thread-ceiling tests assert never exceeds the
    /// configured budget.
    pub fn peak_live(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Map-item panics caught on this pool (each confined to the item
    /// that raised it, then re-raised once on the map's caller) — the
    /// supervisor's evidence that a panicking item never cut a map short.
    pub fn panics_caught(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
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

    /// Takes a slot for the calling thread on its outermost entry into
    /// this pool's work; the returned [`Slot`] frees it.
    fn enter(&self) -> Slot<'_> {
        let outermost = ENTERED.with_borrow_mut(|entered| {
            let outermost = !entered.contains(&self.id);
            entered.push(self.id);
            outermost
        });
        if outermost {
            let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        Slot { pool: self }
    }

    /// Takes up to `want` free slots for helper threads and returns how
    /// many it took; each helper occupies its slot with [`Pool::helper`].
    fn reserve(&self, want: usize) -> usize {
        let take = |live: usize| want.min(self.threads.saturating_sub(live));
        let before = self
            .live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                (take(live) > 0).then(|| live + take(live))
            });
        let Ok(live) = before else { return 0 };
        self.peak.fetch_max(live + take(live), Ordering::Relaxed);
        take(live)
    }

    /// Occupies, on a fresh helper thread, one slot [`Pool::reserve`]
    /// took, so the helper's nested maps do not count it again.
    fn helper(&self) -> Slot<'_> {
        ENTERED.with_borrow_mut(|entered| entered.push(self.id));
        Slot { pool: self }
    }
}

/// A thread's hold on a pool slot: dropping its outermost one frees the
/// slot, also on unwind, so a panic cannot leak the live count or the
/// thread-local depth.
struct Slot<'a> {
    pool: &'a Pool,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let id = self.pool.id;
        let outermost = ENTERED.with_borrow_mut(|entered| {
            entered.pop();
            !entered.contains(&id)
        });
        if outermost {
            self.pool.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Chunks per participating thread in a [`Budget::map`]: enough to
/// even out uneven items, few enough that claiming stays cheap.
const CHUNKS_PER_THREAD: usize = 4;

/// What one thread of a [`Budget::map`] ran: every chunk it claimed (its
/// first index and its items' results) and its lowest-indexed panic.
struct Claimed<R> {
    chunks: Vec<(usize, Vec<R>)>,
    panic: Option<(usize, Box<dyn Any + Send>)>,
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
    /// A budget over a dedicated pool of `threads` slots (`None` uses
    /// the machine's available parallelism on the **global** pool, so
    /// unconfigured runs still share one allotment).
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

    /// Applies `f` to every item and returns the results in **input
    /// order**, whichever thread ran what.
    ///
    /// The caller takes a pool slot (once, however deeply maps nest) and
    /// spawns scoped helper threads on the slots still free: at most
    /// `threads - 1` of them, and fewer than the items. The caller and
    /// its helpers claim contiguous chunks of items from one counter (a
    /// caller without helpers claims them all at once) until none are
    /// left; the map returns once every helper has finished.
    ///
    /// # Panics
    ///
    /// Every item runs under `catch_unwind`, at every thread count: a
    /// panic is counted in [`Pool::panics_caught`] and confined to its
    /// item, and once every item has run, the panic of the
    /// lowest-indexed item that raised one is re-raised on the caller
    /// with its payload intact (a [`Cancelled`] unwind stays one).
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
        let pool = &*self.pool;
        let _slot = pool.enter();
        let helpers = pool.reserve(self.threads.min(n) - 1);
        let chunk = match helpers {
            0 => n,
            _ => n.div_ceil(CHUNKS_PER_THREAD * (helpers + 1)),
        };
        // `Relaxed` suffices: the counter only hands out chunk starts,
        // and results come back through the scope's joins.
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut claimed = Claimed {
                chunks: Vec::new(),
                panic: None,
            };
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    return claimed;
                }
                let end = n.min(start + chunk);
                let mut results = Vec::with_capacity(end - start);
                for (i, item) in (start..).zip(&items[start..end]) {
                    match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                        Ok(r) => results.push(r),
                        Err(payload) => {
                            pool.panics.fetch_add(1, Ordering::Relaxed);
                            claimed.panic.get_or_insert((i, payload));
                        }
                    }
                }
                claimed.chunks.push((start, results));
            }
        };
        let mut claimed = std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers)
                .map(|_| {
                    s.spawn(|| {
                        let _slot = pool.helper();
                        claim()
                    })
                })
                .collect();
            let mut claimed = vec![claim()];
            for handle in handles {
                claimed.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            claimed
        });
        let first_panic = claimed
            .iter_mut()
            .filter_map(|c| c.panic.take())
            .min_by_key(|&(i, _)| i);
        if let Some((_, payload)) = first_panic {
            resume_unwind(payload);
        }
        let mut chunks: Vec<_> = claimed.into_iter().flat_map(|c| c.chunks).collect();
        chunks.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(n);
        for (_, results) in chunks {
            out.extend(results);
        }
        out
    }

    /// Runs two independent closures and returns both results: `a` on
    /// the caller's thread, `b` on one scoped helper thread when the
    /// budget has more than one thread and the pool a free slot, inline
    /// after `a` otherwise. The tasks must not share mutable state, so
    /// the result — unlike the schedule — is deterministic: two
    /// independent builds run concurrently with bit-identical output,
    /// **inside** the owning job's budget.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from either task with its payload intact (`a`'s
    /// if both panic), once a `b` running on a helper has finished.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let pool = &*self.pool;
        let _slot = pool.enter();
        if pool.reserve(self.threads.min(2) - 1) == 0 {
            return (a(), b());
        }
        std::thread::scope(|s| {
            let helper = s.spawn(|| {
                let _slot = pool.helper();
                b()
            });
            let ra = catch_unwind(AssertUnwindSafe(a));
            match (ra, helper.join()) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(payload), _) | (_, Err(payload)) => resume_unwind(payload),
            }
        })
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
        // Every map takes its helpers from the same four slots and
        // frees them on return: the pool never grew beyond them.
        assert!(budget.pool().peak_live() <= 4);
        assert_eq!(budget.pool().live(), 0);
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
    fn map_runs_every_item_before_reraising_the_lowest_panic() {
        for threads in [1, 4] {
            let budget = Budget::with_threads(Some(threads));
            let ran = AtomicUsize::new(0);
            let items: Vec<u64> = (0..16).collect();
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                budget.map(&items, |_, &x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if x == 3 || x == 9 {
                        std::panic::panic_any(x);
                    }
                    x
                })
            }))
            .expect_err("the panic is re-raised");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                items.len(),
                "{threads} thread(s)"
            );
            assert_eq!(
                payload.downcast_ref::<u64>(),
                Some(&3),
                "{threads} thread(s)"
            );
            assert_eq!(budget.pool().panics_caught(), 2);
            assert_eq!(budget.pool().live(), 0);
        }
    }

    #[test]
    fn cancelled_unwind_survives_map_reraising() {
        for threads in [1, 2] {
            let budget = Budget::with_threads(Some(threads));
            let items: Vec<u32> = (0..8).collect();
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                budget.map(&items, |_, &x| if x == 5 { abort_cancelled() } else { x })
            }))
            .expect_err("cancellation unwinds");
            assert!(payload.is::<Cancelled>(), "{threads} thread(s)");
        }
    }

    #[test]
    fn nested_maps_use_the_free_slots() {
        // Two outer items on 2-thread shares of a 4-thread pool, each
        // running an inner map of two items: the four inner items meet
        // (within 10 s) only if they run at once, one per slot.
        let budget = Budget::with_threads(Some(4));
        let share = budget.split(2);
        let arrived = (std::sync::Mutex::new(0), std::sync::Condvar::new());
        let met = budget.map(&[0u8, 1], |_, _| {
            share.map(&[0u8, 1], |_, _| {
                let (count, all_in) = &arrived;
                let mut count = count.lock().expect("no item panics holding it");
                *count += 1;
                all_in.notify_all();
                let (_count, wait) = all_in
                    .wait_timeout_while(count, Duration::from_secs(10), |n| *n < 4)
                    .expect("no item panics holding it");
                !wait.timed_out()
            })
        });
        assert_eq!(met, vec![vec![true; 2]; 2], "inner items ran in turn");
        assert_eq!(budget.pool().peak_live(), 4);
        assert_eq!(budget.pool().live(), 0);
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
