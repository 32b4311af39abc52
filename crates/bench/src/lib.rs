//! Experiment definitions regenerating every table and figure of the
//! paper, plus the `smctl` CLI.
//!
//! The heavy machinery — job scheduling, the bundle cache, parallel
//! execution, report emission — lives in [`sm_engine`]; this crate holds
//! what is specific to the paper: the measurement drivers
//! ([`experiments`]), the published numbers ([`quotes`]), the printed
//! artifacts ([`artifacts`]) and the CLI wiring ([`cli`], [`session`],
//! `src/bin/smctl.rs`).
//!
//! | artifact | `smctl run` | module |
//! |----------|-------------|--------|
//! | Table 1  | `table1` | `experiments::table1` |
//! | Table 2  | `table2` | `experiments::table2` |
//! | Table 3  | `table3` | `experiments::table3` |
//! | Table 4  | `table4` | `experiments::security_row` |
//! | Table 5  | `table5` | `experiments::security_row` |
//! | Table 6  | `table6` | `experiments::table6` |
//! | Fig. 4   | `fig4` | `experiments::fig4` |
//! | Fig. 5   | `fig5` | `experiments::fig5` |
//! | Fig. 6   | `fig6` | `experiments::fig6` |
//!
//! `smctl run` takes any of these names (or `all`, which regenerates
//! everything through one shared bundle cache) mixed with `--seed N`,
//! `--scale N` (superblue down-scaling), `--threads N`, `--quick`
//! (smaller benchmark selection) and the store and fault flags; [`cli`]
//! declares which flags each command accepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;
use std::sync::Arc;

use sm_engine::campaign::SweepSpec;
use sm_engine::journal::Journal;
use sm_engine::store::ArtifactStore;
use sm_engine::ArtifactCache;
use sm_exec::fault::{FaultPlan, FaultProfile};

pub mod artifacts;
pub mod cli;
pub mod experiments;
pub mod perf;
pub mod quotes;
pub mod session;

/// The options `smctl` commands share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Master seed.
    pub seed: u64,
    /// Superblue down-scaling factor (100 ⇒ 1/100 of the real design).
    pub scale: usize,
    /// Quick mode: fewer/smaller benchmarks.
    pub quick: bool,
    /// Worker threads (`None` = machine parallelism).
    pub threads: Option<usize>,
    /// Campaign deadline in seconds (`--timeout-secs`): jobs picked up
    /// after it are recorded timed-out and left for `smctl resume`.
    pub timeout_secs: Option<u64>,
    /// Directory of the disk-backed artifact store (`--store DIR`);
    /// `None` runs memory-only (`--no-store`). The command line
    /// defaults it to [`cli::DEFAULT_STORE`].
    pub store: Option<String>,
    /// Store size budget in bytes (`--store-cap`, e.g. `512M`).
    pub store_cap: Option<u64>,
    /// Fault-injection seed (`--fault-seed`): derives a deterministic
    /// [`FaultPlan`] threaded into store I/O, journal appends and job
    /// execution.
    pub fault_seed: Option<u64>,
    /// Fault-injection profile (`--fault-profile off|light|aggressive`).
    pub fault_profile: Option<FaultProfile>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 1,
            scale: 100,
            quick: false,
            threads: None,
            timeout_secs: None,
            store: None,
            store_cap: None,
            fault_seed: None,
            fault_profile: None,
        }
    }
}

impl RunOptions {
    /// The fault-injection plan these options describe, if any.
    ///
    /// `--fault-seed` alone injects the `aggressive` profile under that
    /// seed; `--fault-profile` alone uses seed 0. Neither flag means no
    /// plan at all: the injection hooks stay detached and cost nothing.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.fault_seed.is_none() && self.fault_profile.is_none() {
            return None;
        }
        let profile = self.fault_profile.unwrap_or_else(FaultProfile::aggressive);
        Some(FaultPlan::new(self.fault_seed.unwrap_or(0), profile))
    }

    /// The resource budget these options describe: `--threads` becomes
    /// the thread allotment (a dedicated pool when explicit, the
    /// process-global pool otherwise) and `--timeout-secs` attaches the
    /// deadline. This is the single [`sm_exec::Budget`] every `smctl`
    /// command hands down to the engine.
    pub fn budget(&self) -> sm_exec::Budget {
        let budget = sm_exec::Budget::with_threads(self.threads);
        match self.timeout_secs {
            Some(secs) => budget.with_deadline_in(std::time::Duration::from_secs(secs)),
            None => budget,
        }
    }

    /// The artifact cache these options describe: layered over the
    /// store, when one is set, and journaling to the file `journal` or,
    /// failing that, to the journal of campaign `spec` next to the
    /// store. Store-backed campaigns name that file by the spec's
    /// fingerprint, so shards and resumes of one campaign append to one
    /// log. The fault plan, if any, is attached to the store, the
    /// journal and job execution alike.
    pub fn cache(&self, spec: Option<&SweepSpec>, journal: Option<&Path>) -> ArtifactCache {
        let faults = self.fault_plan();
        let mut cache = match &self.store {
            Some(dir) => {
                let mut store = ArtifactStore::open(dir, self.store_cap);
                if let Some(faults) = faults {
                    store = store.with_faults(faults);
                }
                ArtifactCache::with_store(Arc::new(store))
            }
            None => ArtifactCache::new(),
        };
        let journal = journal
            .map(Journal::at)
            .or_else(|| Some(Journal::for_spec(Path::new(self.store.as_ref()?), spec?)));
        if let Some(mut journal) = journal {
            if let Some(faults) = faults {
                journal = journal.with_faults(faults);
            }
            cache = cache.with_journal(Arc::new(journal));
        }
        match faults {
            Some(faults) => cache.with_faults(faults),
            None => cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{Args, Cmd};

    /// The options `smctl sweep` reads from `argv`.
    fn parse(argv: &[&str]) -> Result<RunOptions, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(Cmd::Sweep, &argv).map(|args| args.opts)
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&["--seed", "9", "--scale", "250", "--quick"]).expect("valid");
        assert_eq!(o.seed, 9);
        assert_eq!(o.scale, 250);
        assert!(o.quick);
    }

    #[test]
    fn parses_equals_forms() {
        let o = parse(&["--seed=9", "--scale=250", "--threads=4"]).expect("valid");
        assert_eq!(o.seed, 9);
        assert_eq!(o.scale, 250);
        assert_eq!(o.threads, Some(4));
        assert!(!o.quick);
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(parse(&["--seed", "banana"]).is_err());
        assert!(parse(&["--seed=banana"]).is_err());
        assert!(parse(&["--scale=-3"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--seed="]).is_err());
        assert!(parse(&["--quick=yes"]).is_err());
    }

    #[test]
    fn missing_values_are_rejected() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "--quick"]).is_err());
    }

    /// No command ignores a flag it does not declare.
    #[test]
    fn unknown_flags_ignored() {
        let err = parse(&["--wat", "--quick"]).expect_err("--wat is no sweep flag");
        assert_eq!(err, "unknown sweep flag `--wat`; see `smctl help`");
        let err = parse(&["--quick", "--follow"]).expect_err("--follow is no sweep flag");
        assert!(err.starts_with("unknown sweep flag `--follow`"), "{err}");
    }

    #[test]
    fn defaults_are_sane() {
        let o = RunOptions::default();
        assert_eq!(o.scale, 100);
        assert!(!o.quick);
        assert_eq!(o.threads, None);
    }

    #[test]
    fn zero_threads_means_auto() {
        let o = parse(&["--threads", "0"]).expect("valid");
        assert_eq!(o.threads, None);
    }

    #[test]
    fn timeout_parses_into_a_deadline_budget() {
        let o = parse(&["--threads", "2", "--timeout-secs", "3600"]).expect("valid");
        assert_eq!(o.timeout_secs, Some(3600));
        let budget = o.budget();
        assert_eq!(budget.threads(), 2);
        assert!(budget.cancel_token().deadline().is_some());
        assert!(!budget.is_cancelled(), "an hour away is not expired");

        let plain = RunOptions::default().budget();
        assert!(plain.cancel_token().deadline().is_none());

        assert!(parse(&["--timeout-secs", "0"]).is_err());
        assert!(parse(&["--timeout-secs", "soon"]).is_err());
        assert!(parse(&["--timeout-secs"]).is_err());
    }

    #[test]
    fn fault_flags_resolve_to_a_plan() {
        assert_eq!(RunOptions::default().fault_plan(), None);

        let seeded = parse(&["--fault-seed", "7"]).expect("valid");
        assert_eq!(
            seeded.fault_plan(),
            Some(FaultPlan::new(7, FaultProfile::aggressive())),
            "--fault-seed alone injects the aggressive profile"
        );

        let profiled = parse(&["--fault-profile=light"]).expect("valid");
        assert_eq!(
            profiled.fault_plan(),
            Some(FaultPlan::new(0, FaultProfile::light())),
            "--fault-profile alone uses seed 0"
        );

        let both = parse(&["--fault-seed=3", "--fault-profile", "off"]).expect("valid");
        assert_eq!(
            both.fault_plan(),
            Some(FaultPlan::new(3, FaultProfile::off()))
        );

        assert!(parse(&["--fault-seed", "soon"]).is_err());
        assert!(parse(&["--fault-profile", "wild"]).is_err());
        assert!(parse(&["--fault-seed"]).is_err());
    }

    #[test]
    fn store_flags_resolve_modes() {
        let o = parse(&["--store", "my-store", "--store-cap", "4M"]).expect("valid");
        assert_eq!(o.store.as_deref(), Some("my-store"));
        assert_eq!(o.store_cap, Some(4 << 20));

        let off = parse(&["--no-store"]).expect("valid");
        assert_eq!(off.store, None);

        let unset = parse(&[]).expect("valid");
        assert_eq!(unset.store.as_deref(), Some(cli::DEFAULT_STORE));
        assert_eq!(
            RunOptions::default().store,
            None,
            "library callers run memory-only"
        );

        assert!(parse(&["--store-cap", "soon"]).is_err());
        assert!(parse(&["--store"]).is_err());
        assert!(parse(&["--no-store=yes"]).is_err());
    }
}
