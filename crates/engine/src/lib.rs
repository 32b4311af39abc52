//! `sm-engine` — the parallel experiment-campaign engine.
//!
//! Every table and figure of the DAC'18 reproduction consumes the same
//! protect→place→route→split→attack bundles. This crate turns
//! experiments into *data* and owns the machinery around them:
//!
//! * [`job`] — the [`Job`] type (benchmark × seed × split layer ×
//!   attack) with deterministic per-job seed derivation;
//! * [`bundle`] — the heavyweight layout bundles ([`IscasRun`],
//!   [`SuperblueRun`]) every table consumes, assembled stage by stage
//!   through the cache;
//! * [`cache`] — a content-keyed artifact cache guaranteeing each
//!   bundle is built exactly once per campaign, with refcounted release
//!   once a bundle's last consuming job finishes;
//! * [`store`] — the disk-backed tier under the cache: bundles and
//!   finished job results persist across processes under `.sm-store/`,
//!   so repeated runs decode instead of rebuilding;
//! * [`journal`] — the append-only, checksummed campaign event log
//!   under `.sm-store/journal/`: per-job provenance, live progress
//!   (`smctl tail`/`events`) and crash-safe resume, with the canonical
//!   report as a deterministic materialization of the log;
//! * [`campaign`] — sweep expansion, the one campaign driver
//!   ([`CampaignRun`], whose [`Scheduler`] runs jobs solo, on a threaded
//!   fleet or on a simulated one) with deadline/cancellation (timed-out
//!   jobs are a distinct outcome that `smctl resume` re-runs), seed-sweep
//!   aggregation (mean/σ/min/max) and report assembly, including
//!   merging sharded reports (`smctl merge`);
//! * [`metrics`] — [`JobMetrics`] and the one
//!   schema (field names, value types, codec order, aggregate columns)
//!   that the codec, reports, CSV, aggregates and journal all read;
//! * [`report`] — deterministic JSON/CSV emission (timings opt-in, so
//!   canonical reports are byte-identical across runs);
//! * [`serve`](mod@serve) — the long-running campaign service behind
//!   `smctl serve`: a socket-facing coordinator with admission control
//!   and a host-level work-stealing [`Fleet`], plus a deterministic
//!   N-worker simulation whose merged reports are byte-identical to a
//!   solo sweep.
//!
//! Campaigns run inside an `sm_exec` [`Budget`]: the campaign's thread
//! allotment is divided among jobs, so nested parallel work shares one
//! pool and output order stays independent of scheduling. Phase spans
//! go to an `sm_exec` [`Recorder`]; both are re-exported here.
//!
//! The `smctl` CLI (in `sm-bench`, next to the experiment definitions)
//! sits on top of these primitives.
//!
//! # Example
//!
//! ```no_run
//! use sm_engine::campaign::{run_sweep_budgeted, SweepSpec};
//! use sm_engine::report::ReportOptions;
//! use sm_engine::{ArtifactCache, Budget};
//!
//! let spec = SweepSpec {
//!     benchmarks: vec!["c432".into(), "c880".into()],
//!     seeds: vec![1, 2, 3, 4],
//!     split_layers: vec![3, 4, 6],
//!     ..SweepSpec::default()
//! };
//! let budget = Budget::with_threads(Some(4));
//! let campaign = run_sweep_budgeted(&spec, &budget, &ArtifactCache::new(), None).unwrap();
//! println!("{}", campaign.to_json(ReportOptions::default()).render());
//! eprintln!("{}", campaign.summary());
//! ```

#![warn(missing_docs)]

pub mod bundle;
pub mod cache;
pub mod campaign;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod store;

pub use bundle::{iscas_selection, superblue_selection, IscasRun, SuperblueRun};
pub use cache::{ArtifactCache, BundleKey, CacheStats, SplitArm, StageStats};
pub use campaign::{
    merge_reports, run_job, run_sweep_budgeted, Campaign, CampaignRun, JobOutcome, Scheduler,
    SweepSpec,
};
pub use job::{AttackKind, Benchmark, Job};
pub use journal::{Event, Journal, JournalFollower};
pub use metrics::JobMetrics;
pub use report::{Json, ReportOptions};
pub use serve::{
    client_shutdown, client_status, client_submit, serve, simulate_schedule, Fleet, FleetStats,
    ServeConfig, ServiceStatus, SimPlan,
};
pub use sm_exec::phase::Recorder;
pub use sm_exec::Budget;
pub use store::{
    ArtifactStore, Stage, StageHealth, StageUsage, StoreHealth, StoreLock, StoreStats, StoreUsage,
};

#[cfg(test)]
mod tests {
    use super::campaign::{run_sweep_budgeted, Campaign, SweepSpec};
    use super::job::AttackKind;
    use super::report::ReportOptions;
    use super::{ArtifactCache, Budget};

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            benchmarks: vec!["c432".into()],
            seeds: vec![1, 2],
            split_layers: vec![4],
            // Both attacks, so the CSV emitters' flow *and* crouting row
            // shapes are covered by the byte-identity + round-trip checks.
            attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
            scale: 100,
            master_seed: 1,
            layout_seed: None,
        }
    }

    fn sweep(spec: &SweepSpec, threads: usize) -> Campaign {
        let budget = Budget::with_threads(Some(threads));
        run_sweep_budgeted(spec, &budget, &ArtifactCache::new(), None).unwrap()
    }

    /// The headline engine guarantee: identical specs produce
    /// byte-identical canonical reports despite parallel, work-stealing
    /// execution — and bundles are built exactly once per (bench, seed).
    #[test]
    fn reports_are_byte_identical_across_runs() {
        let spec = tiny_spec();
        let a = sweep(&spec, 4);
        let b = sweep(&spec, 2);
        let ja = a.to_json(ReportOptions::default()).render();
        let jb = b.to_json(ReportOptions::default()).render();
        assert_eq!(ja, jb);
        let ca = a.to_csv(ReportOptions::default());
        let cb = b.to_csv(ReportOptions::default());
        assert_eq!(ca, cb);
        // Two (bench, seed) points, one bundle build each.
        assert_eq!(a.cache.builds, 2);
        assert_eq!(a.cache.hits as usize, a.outcomes.len() - 2);
        // JSON → CSV conversion matches direct CSV emission.
        let parsed = crate::report::Json::parse(&ja).unwrap();
        let reparsed = Campaign::from_json(&parsed).unwrap();
        assert_eq!(reparsed.to_csv(ReportOptions::default()), ca);
    }

    /// Timing-inclusive reports carry the same job payloads plus
    /// wall-clock fields.
    #[test]
    fn timed_reports_add_wall_clock_fields() {
        let spec = SweepSpec {
            seeds: vec![1],
            ..tiny_spec()
        };
        let c = sweep(&spec, 2);
        let plain = c.to_json(ReportOptions::default()).render();
        let timed = c
            .to_json(ReportOptions {
                include_timings: true,
            })
            .render();
        assert!(!plain.contains("wall_ms"));
        // Canonical output is pinned: the journal/metrics layer must not
        // leak phase spans or pool counters into it.
        assert!(!plain.contains("phases"));
        assert!(!plain.contains("pool"));
        assert!(timed.contains("wall_ms"));
        assert!(timed.contains("threads"));
        assert!(timed.contains("phases"));
        assert!(timed.contains("pool"));
        assert!(timed.contains("peak_live"));
    }
}
