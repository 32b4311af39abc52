//! `--threads` bounds the whole invocation: with an explicit thread
//! count, nothing may run on the machine-wide `Pool::global()`. The
//! global pool is one per process, so this file holds a single test and
//! owns its process.

use sm_bench::perf::{run_bench, BenchConfig};
use sm_bench::session::Session;
use sm_bench::RunOptions;
use sm_exec::Pool;

/// The Table 4/5 attack rows (comparison-defense layouts and flow
/// attacks) and every `smctl bench` stage (place, protect, attacks and
/// the five campaign stages) at two threads leave the global pool idle.
#[test]
fn two_thread_rows_and_bench_never_touch_the_global_pool() {
    let session = Session::new(RunOptions {
        quick: true,
        threads: Some(2),
        ..RunOptions::default()
    });
    assert_eq!(session.security_rows().len(), 2, "quick selects c432, c880");

    let report = run_bench(&BenchConfig {
        quick: true,
        threads: Some(2),
        min_of: 1,
        ..BenchConfig::default()
    });
    assert!(report.stages.iter().any(|s| s.stage == "attack-flow"));
    assert!(report
        .stages
        .iter()
        .any(|s| s.stage == "campaign-incremental"));

    assert_eq!(
        Pool::global().peak_live(),
        0,
        "work ran on the machine-wide pool"
    );
}
