//! The work-stealing fleet every campaign runs on.
//!
//! [`Fleet`] is the scheduling state machine: a campaign's jobs are
//! split up front into balanced contiguous ranges, one per worker; a
//! worker runs its own range from the front, a dead worker's ranges
//! re-queue to a backlog, and an idle worker steals from the most-loaded
//! peer (Blumofe & Leiserson, "Scheduling multithreaded computations by
//! work stealing", JACM 1999). Every tie-break derives from a seed,
//! never from wall clock or thread timing.
//!
//! `run` is its worker loop: the workers are [`Budget::map`] items on
//! the campaign's pool, so the pool counts them and at most
//! `budget.threads()` run at once, each on an equal [`Budget::split`]
//! share. [`CampaignRun`](crate::CampaignRun) runs every campaign here:
//! `sweep`, `resume` and `chaos` on `min(threads, jobs)` workers, `serve`
//! on `--workers`, and `sweep --workers N --kill W@K` on N workers with
//! injected deaths. `sweep --shard K/N` selects the K-th of the same
//! balanced ranges (`JobRange::balanced`) over the whole expansion.
//!
//! Which worker runs a job decides wall clock only: outcomes are pure
//! functions of their jobs and merge in expansion order, so every fleet
//! shape (worker count, thread budget, steal pattern, death) yields the
//! same canonical bytes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use sm_exec::{seed, Budget};

/// A contiguous half-open range of job positions — the unit of dispatch
/// and of stealing. Workers consume a range from the front; thieves take
/// the upper half, so the victim keeps the jobs it is about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRange {
    /// First job position in the range.
    pub lo: usize,
    /// One past the last job position.
    pub hi: usize,
}

impl JobRange {
    /// Jobs remaining in the range.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// `true` when the range is exhausted.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// `0..total` cut into `parts` contiguous ranges, in order, whose
    /// lengths differ by at most one: the first `total % parts` hold one
    /// job more. A fleet's workers start on these, and `--shard K/N`
    /// runs the K-th of N.
    ///
    /// # Panics
    ///
    /// When `parts` is zero.
    pub(crate) fn balanced(total: usize, parts: usize) -> impl Iterator<Item = JobRange> {
        let (chunk, rem) = (total / parts, total % parts);
        (0..parts).map(move |k| {
            let lo = k * chunk + k.min(rem);
            JobRange {
                lo,
                hi: lo + chunk + usize::from(k < rem),
            }
        })
    }

    /// Splits off the upper half (for a thief), keeping the lower half
    /// here. `None` when the range is too small to share.
    fn split(&mut self) -> Option<JobRange> {
        if self.len() < 2 {
            return None;
        }
        let mid = self.lo + self.len() / 2;
        let upper = JobRange {
            lo: mid,
            hi: self.hi,
        };
        self.hi = mid;
        Some(upper)
    }
}

/// What [`Fleet::next_job`] tells a worker to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Run the job at this position, then call [`Fleet::complete`].
    Run(usize),
    /// Nothing dispatchable right now, but jobs are still in flight
    /// elsewhere — ask again after one completes.
    Wait,
    /// Every job of the campaign has completed.
    Done,
    /// This worker just died (injected death); its remaining ranges
    /// were re-queued to the backlog.
    Died,
}

/// Counters a fleet accumulates while scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Ranges stolen by idle workers from loaded ones.
    pub steals: u64,
    /// Workers that died mid-shard (their ranges were re-queued).
    pub deaths: u64,
}

/// Work-stealing scheduler state. All decisions (victim tie-breaks)
/// derive from the campaign seed, so a schedule is a pure function of
/// `(workers, total, seed, deaths)` and the order in which workers ask
/// and complete — never of wall clock.
#[derive(Debug)]
pub struct Fleet {
    /// Per-worker queues of assigned ranges (front = next to run).
    assigned: Vec<VecDeque<JobRange>>,
    /// Ranges re-queued from dead workers, handed out before stealing.
    backlog: VecDeque<JobRange>,
    /// Jobs completed per worker (drives injected deaths).
    completed: Vec<usize>,
    /// Liveness per worker.
    alive: Vec<bool>,
    /// Injected death: worker dies at the first pickup after completing
    /// this many jobs.
    deaths: Vec<Option<usize>>,
    /// Jobs not yet completed.
    unfinished: usize,
    /// Seed for steal tie-breaks.
    seed: u64,
    /// Seeded decisions taken so far (the derivation branch counter).
    decisions: u64,
    /// Scheduling counters.
    stats: FleetStats,
}

impl Fleet {
    /// A fleet of `workers` over job positions `0..total`, split up front
    /// into balanced contiguous ranges. `deaths` lists injected
    /// `(worker, after_jobs)` deaths — at least one worker must be
    /// immortal, or the remaining ranges could never drain.
    ///
    /// # Errors
    ///
    /// Rejects zero workers, out-of-range death indices, and a death
    /// plan that kills every worker.
    pub fn new(
        workers: usize,
        total: usize,
        seed: u64,
        deaths: &[(usize, usize)],
    ) -> Result<Fleet, String> {
        if workers == 0 {
            return Err("fleet needs at least one worker".into());
        }
        let mut death_plan: Vec<Option<usize>> = vec![None; workers];
        for &(w, after) in deaths {
            if w >= workers {
                return Err(format!(
                    "--kill worker {w} out of range (fleet has {workers})"
                ));
            }
            // Two kill entries for one worker keep the earlier death.
            let slot = &mut death_plan[w];
            *slot = Some(slot.map_or(after, |k| k.min(after)));
        }
        if death_plan.iter().all(|d| d.is_some()) {
            return Err("at least one worker must survive (--kill names them all)".into());
        }
        Ok(Fleet {
            assigned: JobRange::balanced(total, workers)
                .map(|range| VecDeque::from_iter((!range.is_empty()).then_some(range)))
                .collect(),
            backlog: VecDeque::new(),
            completed: vec![0; workers],
            alive: vec![true; workers],
            deaths: death_plan,
            unfinished: total,
            seed,
            decisions: 0,
            stats: FleetStats::default(),
        })
    }

    /// The next instruction for worker `w`: run a job (from its own
    /// queue, the backlog, or stolen from the most-loaded peer), wait,
    /// die (injected), or finish.
    pub fn next_job(&mut self, w: usize) -> Dispatch {
        if !self.alive[w] {
            return Dispatch::Died;
        }
        // Injected death fires at pickup time — a worker never abandons
        // a job it already started, it just stops taking new ones; its
        // remaining ranges re-queue as resumable work for the others.
        if let Some(after) = self.deaths[w] {
            if self.completed[w] >= after {
                self.alive[w] = false;
                self.stats.deaths += 1;
                while let Some(range) = self.assigned[w].pop_front() {
                    self.backlog.push_back(range);
                }
                return Dispatch::Died;
            }
        }
        if self.unfinished == 0 {
            return Dispatch::Done;
        }
        if self.assigned[w].is_empty() {
            if let Some(range) = self.backlog.pop_front() {
                self.assigned[w].push_back(range);
            } else if !self.steal_for(w) {
                return Dispatch::Wait;
            }
        }
        let Some(range) = self.assigned[w].front_mut() else {
            return Dispatch::Wait;
        };
        let index = range.lo;
        range.lo += 1;
        if range.is_empty() {
            self.assigned[w].pop_front();
        }
        Dispatch::Run(index)
    }

    /// Marks worker `w`'s in-flight job finished.
    pub fn complete(&mut self, w: usize) {
        self.completed[w] += 1;
        self.unfinished = self.unfinished.saturating_sub(1);
    }

    /// Workers in the fleet.
    pub fn workers(&self) -> usize {
        self.assigned.len()
    }

    /// Scheduling counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Tries to steal work for idle worker `w` from the most-loaded
    /// peer (seeded tie-break among equals). A victim with several
    /// queued ranges gives up its whole back range; a victim down to
    /// one range gives up its upper half, keeping the jobs it is about
    /// to run — or, down to one job, that job: queued jobs have not
    /// started, so a worker only ever waits on running jobs, never on a
    /// peer that has not started yet. Returns `true` when a range landed
    /// in `w`'s queue.
    fn steal_for(&mut self, w: usize) -> bool {
        let mut best: Vec<usize> = Vec::new();
        let mut best_load = 0usize;
        for (v, queue) in self.assigned.iter().enumerate() {
            if v == w {
                continue;
            }
            let load: usize = queue.iter().map(JobRange::len).sum();
            if load > best_load {
                best_load = load;
                best.clear();
                best.push(v);
            } else if load > 0 && load == best_load {
                best.push(v);
            }
        }
        if best.is_empty() {
            return false;
        }
        let pick = (seed::derive(self.seed, self.decisions) % best.len() as u64) as usize;
        self.decisions += 1;
        let victim = best[pick];
        let queue = &mut self.assigned[victim];
        let stolen = if queue.len() > 1 {
            queue.pop_back()
        } else {
            queue[0].split().or_else(|| queue.pop_front())
        };
        match stolen {
            Some(range) => {
                self.stats.steals += 1;
                self.assigned[w].push_back(range);
                true
            }
            None => false,
        }
    }
}

/// Runs every job of `fleet` and returns the results (grouped by
/// worker, not in job order) with the fleet's counters.
/// `run_one(position, share)` runs the job at `position` inside the
/// worker's equal [`Budget::split`] share of `budget`. The workers are
/// [`Budget::map`] items; one with nothing to run parks on a condvar
/// until a running job completes.
///
/// A panic that escapes `run_one` still completes its job and wakes the
/// parked workers before it unwinds its own, so the others drain the
/// fleet and [`Budget::map`] re-raises the panic on the caller instead of
/// leaving a sibling parked forever.
pub(crate) fn run<R, F>(fleet: Fleet, budget: &Budget, run_one: F) -> (Vec<R>, FleetStats)
where
    R: Send,
    F: Fn(usize, &Budget) -> R + Sync,
{
    // Jobs run outside the lock, so only a panic inside `Fleet` itself
    // (a scheduler bug) can poison it.
    const POISONED: &str = "a fleet worker panicked while scheduling";
    let workers: Vec<usize> = (0..fleet.workers()).collect();
    let share = budget.split(workers.len());
    let fleet = Mutex::new(fleet);
    let progress = Condvar::new();
    let lock = || fleet.lock().expect(POISONED);
    let per_worker = budget.map(&workers, |_, &w| {
        let mut results = Vec::new();
        let mut state = lock();
        loop {
            match state.next_job(w) {
                Dispatch::Run(position) => {
                    drop(state);
                    let result = catch_unwind(AssertUnwindSafe(|| run_one(position, &share)));
                    state = lock();
                    state.complete(w);
                    progress.notify_all();
                    match result {
                        Ok(r) => results.push(r),
                        Err(payload) => {
                            drop(state);
                            resume_unwind(payload);
                        }
                    }
                }
                Dispatch::Wait => {
                    state = progress.wait(state).expect(POISONED);
                }
                Dispatch::Done | Dispatch::Died => break,
            }
        }
        results
    });
    let stats = fleet.into_inner().expect(POISONED).stats();
    (per_worker.into_iter().flatten().collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn ranges_split_upper_half() {
        let mut r = JobRange { lo: 4, hi: 10 };
        let upper = r.split().unwrap();
        assert_eq!(r, JobRange { lo: 4, hi: 7 });
        assert_eq!(upper, JobRange { lo: 7, hi: 10 });
        let mut tiny = JobRange { lo: 0, hi: 1 };
        assert_eq!(tiny.split(), None);
    }

    /// `Fleet::new` starts each worker on one range, in order, of
    /// `total / workers` jobs, one more for the first `total % workers`
    /// workers: the formula is spelled out here apart from
    /// `JobRange::balanced`, which `--shard` shares.
    #[test]
    fn fleet_ranges_are_the_balanced_split() {
        for total in 0..=40 {
            for workers in 1..=8 {
                let fleet = Fleet::new(workers, total, 1, &[]).unwrap();
                let (chunk, rem) = (total / workers, total % workers);
                let mut lo = 0;
                for (w, queue) in fleet.assigned.iter().enumerate() {
                    let len = chunk + usize::from(w < rem);
                    let want: Vec<JobRange> = (len > 0)
                        .then_some(JobRange { lo, hi: lo + len })
                        .into_iter()
                        .collect();
                    let got: Vec<JobRange> = queue.iter().copied().collect();
                    assert_eq!(got, want, "{total} jobs, {workers} workers, worker {w}");
                    lo += len;
                }
                assert_eq!(lo, total);
            }
        }
    }

    #[test]
    fn fleet_rejects_bad_plans() {
        assert!(Fleet::new(0, 4, 1, &[]).is_err());
        assert!(Fleet::new(2, 4, 1, &[(2, 0)]).is_err());
        assert!(Fleet::new(2, 4, 1, &[(0, 0), (1, 0)]).is_err());
    }

    /// Steps a fleet in rounds: every idle worker asks for a job, then
    /// every job in flight completes. Returns each worker's jobs in run
    /// order and the counters.
    fn step(fleet: &mut Fleet) -> (Vec<Vec<usize>>, FleetStats) {
        let workers = fleet.workers();
        let mut schedule = vec![Vec::new(); workers];
        let mut finished = vec![false; workers];
        while finished.contains(&false) {
            let mut in_flight = Vec::new();
            for w in 0..workers {
                if finished[w] {
                    continue;
                }
                match fleet.next_job(w) {
                    Dispatch::Run(position) => {
                        schedule[w].push(position);
                        in_flight.push(w);
                    }
                    Dispatch::Wait => {}
                    Dispatch::Done | Dispatch::Died => finished[w] = true,
                }
            }
            for &w in &in_flight {
                fleet.complete(w);
            }
        }
        (schedule, fleet.stats())
    }

    #[test]
    fn schedules_are_reproducible() {
        let schedule = || step(&mut Fleet::new(4, 23, 7, &[(2, 1)]).unwrap());
        let (a, sa) = schedule();
        let (b, sb) = schedule();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.deaths, 1);
        assert_eq!(a[2].len(), 1, "worker 2 dies after one job");
    }

    /// Two jobs on two workers, and job 0 panics once job 1 is under way:
    /// the worker that ran job 1 then finds nothing left to run but job 0
    /// unfinished, and parks in `Dispatch::Wait` until job 0 completes.
    /// The panic must still complete job 0, so that worker drains and the
    /// panic reaches the caller instead of leaving it (and so
    /// `Budget::map`) waiting forever.
    #[test]
    fn a_panic_escaping_a_job_is_reraised_instead_of_stranding_a_parked_worker() {
        let (tx, rx) = mpsc::channel();
        let campaign = std::thread::spawn(move || {
            let budget = Budget::with_threads(Some(2));
            let fleet = Fleet::new(2, 2, 1, &[]).unwrap();
            let (started_tx, started_rx) = mpsc::channel();
            let started_rx = Mutex::new(started_rx);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run(fleet, &budget, |position, _| {
                    if position == 0 {
                        let started = started_rx.lock().unwrap();
                        started.recv_timeout(Duration::from_secs(10)).unwrap();
                        panic!("job 0 escaped its isolation");
                    }
                    started_tx.send(()).unwrap();
                })
            }));
            let message = outcome
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            tx.send(message).unwrap();
        });
        let message = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the fleet hung after a worker's job panicked");
        campaign.join().unwrap();
        assert_eq!(message.as_deref(), Some("job 0 escaped its isolation"));
    }
}
