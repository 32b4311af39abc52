//! Deterministic fault injection: a seeded plan of simulated failures
//! threaded into the engine's I/O and execution seams.
//!
//! Chaos testing only works if the chaos is reproducible. A
//! [`FaultPlan`] derives every injection decision from `(seed, site,
//! key)` through the same [`seed::derive`] machinery behind job seeds,
//! so a given plan fails the *same* operations on the *same* artifacts
//! no matter the thread count, scheduling order, or how many times the
//! run is repeated — which is what lets CI byte-diff a resumed chaos
//! campaign against a fault-free one.
//!
//! The injection points ([`FaultSite`]) consult the plan through
//! [`FaultPlan::inject`] *before* the real operation runs:
//!
//! * store loads/saves and journal appends map [`Fault::Transient`] /
//!   [`Fault::Persistent`] onto simulated I/O errors, exercising the
//!   bounded-retry and degraded-mode paths;
//! * pool job execution maps [`Fault::Panic`] onto a real `panic!`,
//!   exercising the panic-isolation path.
//!
//! Decisions depend on the operation's stable *key* (store file stem,
//! journal path, job outcome key) — never on wall-clock, thread ids or
//! attempt timing — so the set of injected faults is a pure function of
//! the plan.

use crate::seed;

/// Retry ceiling for transient faults: operations retry up to this many
/// attempts before treating the failure as persistent. Injected
/// transient faults always clear within `MAX_ATTEMPTS - 1` retries, so
/// a retrying caller never misclassifies them.
pub const MAX_ATTEMPTS: u32 = 3;

/// An engine seam faults can be injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// An artifact-store payload read.
    StoreLoad,
    /// An artifact-store payload write.
    StoreSave,
    /// A journal record append.
    JournalAppend,
    /// Job execution on a fleet worker.
    JobRun,
}

impl FaultSite {
    /// Stable identifier (`"store-load"`, …).
    pub fn id(&self) -> &'static str {
        match self {
            FaultSite::StoreLoad => "store-load",
            FaultSite::StoreSave => "store-save",
            FaultSite::JournalAppend => "journal-append",
            FaultSite::JobRun => "job-run",
        }
    }

    /// The site's branch index in the decision-seed derivation.
    fn branch(&self) -> u64 {
        match self {
            FaultSite::StoreLoad => 1,
            FaultSite::StoreSave => 2,
            FaultSite::JournalAppend => 3,
            FaultSite::JobRun => 4,
        }
    }
}

/// The failure an injection point must simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A transient error: the operation fails now but succeeds within
    /// the retry budget ([`MAX_ATTEMPTS`]).
    Transient,
    /// A persistent error: every retry fails (ENOSPC, permission
    /// denied, …) — the caller must degrade, not loop.
    Persistent,
    /// The operation panics with this message.
    Panic(String),
}

/// Named fault-rate presets (`--fault-profile`). Rates are in basis
/// points (1/100 of a percent) of operations at each site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// Jobs that panic mid-attack, in basis points.
    pub job_panic_bp: u64,
    /// Store loads/saves that fail transiently, in basis points.
    pub store_transient_bp: u64,
    /// Store loads/saves that fail persistently, in basis points.
    pub store_persistent_bp: u64,
    /// Journal appends that fail transiently, in basis points.
    pub journal_transient_bp: u64,
}

impl FaultProfile {
    /// No faults at all — the zero-overhead baseline profile.
    pub fn off() -> FaultProfile {
        FaultProfile {
            job_panic_bp: 0,
            store_transient_bp: 0,
            store_persistent_bp: 0,
            journal_transient_bp: 0,
        }
    }

    /// Occasional transient store errors only: every campaign should
    /// absorb these invisibly through the retry path.
    pub fn light() -> FaultProfile {
        FaultProfile {
            job_panic_bp: 0,
            store_transient_bp: 1_000,
            store_persistent_bp: 0,
            journal_transient_bp: 0,
        }
    }

    /// The CI chaos profile: frequent job panics, heavy transient store
    /// and journal errors, and some persistent store failures. Journal
    /// faults stay transient-only so the log remains usable for resume.
    pub fn aggressive() -> FaultProfile {
        FaultProfile {
            job_panic_bp: 3_500,
            store_transient_bp: 3_000,
            store_persistent_bp: 1_000,
            journal_transient_bp: 2_000,
        }
    }

    /// Parses a profile name (`off` | `light` | `aggressive`).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown name.
    pub fn parse(name: &str) -> Result<FaultProfile, String> {
        match name {
            "off" | "none" => Ok(FaultProfile::off()),
            "light" => Ok(FaultProfile::light()),
            "aggressive" => Ok(FaultProfile::aggressive()),
            other => Err(format!(
                "unknown fault profile `{other}` (expected off|light|aggressive)"
            )),
        }
    }
}

/// A seeded, deterministic fault plan: the injector behind
/// `--fault-seed`/`--fault-profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
}

impl FaultPlan {
    /// A plan injecting `profile`'s rates under `seed`.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultPlan {
        FaultPlan { seed, profile }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rate profile.
    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// The 64-bit decision stream for `(site, key)` — every injection
    /// choice for that operation is a bit-slice of this value.
    fn decision(&self, site: FaultSite, key: &str) -> u64 {
        seed::derive(self.seed ^ seed::fnv1a(key), site.branch())
    }

    /// The fault (if any) that `site`/`key` must observe on `attempt`.
    ///
    /// `attempt` is 0 for the first try and increments per retry, so a
    /// transient fault clears after a deterministic number of failures.
    /// Pure in `(site, key, attempt)`.
    pub fn inject(&self, site: FaultSite, key: &str, attempt: u32) -> Option<Fault> {
        let h = self.decision(site, key);
        let roll = h % 10_000;
        let (transient_bp, persistent_bp) = match site {
            FaultSite::JobRun => {
                if roll < self.profile.job_panic_bp {
                    return Some(Fault::Panic(format!("injected fault: {} {key}", site.id())));
                }
                return None;
            }
            FaultSite::StoreLoad | FaultSite::StoreSave => (
                self.profile.store_transient_bp,
                self.profile.store_persistent_bp,
            ),
            FaultSite::JournalAppend => (self.profile.journal_transient_bp, 0),
        };
        if roll < persistent_bp {
            return Some(Fault::Persistent);
        }
        if roll < persistent_bp + transient_bp {
            // Clear after 1 or 2 failures — always within the retry
            // budget, decided by an independent bit-slice of `h`.
            let failures = 1 + ((h >> 32) % (MAX_ATTEMPTS as u64 - 1)) as u32;
            if attempt < failures {
                return Some(Fault::Transient);
            }
        }
        None
    }
}

/// Deterministic retry backoff: a bounded number of scheduler yields
/// that grows with the attempt index. No wall-clock sleeps, no
/// randomness — backoff affects only scheduling, never results.
pub fn backoff(attempt: u32) {
    for _ in 0..(1u32 << attempt.min(8)) {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_site_separated() {
        let plan = FaultPlan::new(42, FaultProfile::aggressive());
        for site in [
            FaultSite::StoreLoad,
            FaultSite::StoreSave,
            FaultSite::JournalAppend,
            FaultSite::JobRun,
        ] {
            for key in ["c432-x0-flow-d0000000000000001", "jobs/abc", "k"] {
                assert_eq!(
                    plan.inject(site, key, 0),
                    plan.inject(site, key, 0),
                    "{site:?} {key}"
                );
            }
        }
        // Sites draw independent streams: the same key need not fault
        // identically everywhere (probabilistic, but pinned by seed).
        let hits: Vec<bool> = (0..64)
            .map(|i| {
                plan.inject(FaultSite::JobRun, &format!("job-{i}"), 0)
                    .is_some()
            })
            .collect();
        assert!(hits.iter().any(|&h| h), "aggressive plan injects panics");
        assert!(!hits.iter().all(|&h| h), "but not on every job");
    }

    #[test]
    fn off_profile_injects_nothing() {
        let plan = FaultPlan::new(7, FaultProfile::off());
        for i in 0..256 {
            let key = format!("key-{i}");
            assert_eq!(plan.inject(FaultSite::StoreLoad, &key, 0), None);
            assert_eq!(plan.inject(FaultSite::StoreSave, &key, 0), None);
            assert_eq!(plan.inject(FaultSite::JournalAppend, &key, 0), None);
            assert_eq!(plan.inject(FaultSite::JobRun, &key, 0), None);
        }
    }

    #[test]
    fn transient_faults_clear_within_the_retry_budget() {
        let plan = FaultPlan::new(3, FaultProfile::aggressive());
        let mut saw_transient = false;
        for i in 0..256 {
            let key = format!("artifact-{i}");
            for site in [FaultSite::StoreLoad, FaultSite::StoreSave] {
                match plan.inject(site, &key, 0) {
                    Some(Fault::Transient) => {
                        saw_transient = true;
                        // Retrying up to MAX_ATTEMPTS must find success.
                        assert!(
                            (1..MAX_ATTEMPTS).any(|a| plan.inject(site, &key, a).is_none()),
                            "transient fault on {key} never clears"
                        );
                    }
                    Some(Fault::Persistent) => {
                        // Persistent faults never clear.
                        for a in 1..MAX_ATTEMPTS + 2 {
                            assert_eq!(plan.inject(site, &key, a), Some(Fault::Persistent));
                        }
                    }
                    Some(Fault::Panic(_)) => panic!("store sites never panic"),
                    None => {}
                }
            }
        }
        assert!(saw_transient, "aggressive plan injects transient faults");
    }

    #[test]
    fn journal_site_is_transient_only() {
        let plan = FaultPlan::new(11, FaultProfile::aggressive());
        for i in 0..512 {
            let key = format!("journal-{i}");
            match plan.inject(FaultSite::JournalAppend, &key, 0) {
                None | Some(Fault::Transient) => {}
                other => panic!("journal fault {other:?}"),
            }
        }
    }

    #[test]
    fn profile_parse_roundtrips() {
        assert_eq!(FaultProfile::parse("off").unwrap(), FaultProfile::off());
        assert_eq!(FaultProfile::parse("light").unwrap(), FaultProfile::light());
        assert_eq!(
            FaultProfile::parse("aggressive").unwrap(),
            FaultProfile::aggressive()
        );
        assert!(FaultProfile::parse("chaotic-evil").is_err());
    }

    #[test]
    fn seeds_select_different_fault_sets() {
        let a = FaultPlan::new(1, FaultProfile::aggressive());
        let b = FaultPlan::new(2, FaultProfile::aggressive());
        let differs = (0..128).any(|i| {
            let key = format!("job-{i}");
            a.inject(FaultSite::JobRun, &key, 0) != b.inject(FaultSite::JobRun, &key, 0)
        });
        assert!(differs, "different seeds must pick different victims");
    }
}
