//! One experiment session: options + thread budget + shared bundle
//! cache.
//!
//! Every artifact binary (and `smctl`) builds a [`Session`] and pulls
//! layout bundles through it, so the engine parallelizes bundle
//! construction across benchmarks and a multi-artifact run (`smctl run
//! all`) builds each benchmark's bundle exactly once.

use std::sync::{Arc, OnceLock};

use sm_benchgen::superblue::SuperblueProfile;
use sm_engine::bundle::{iscas_selection, superblue_selection, IscasRun, SuperblueRun};
use sm_engine::cache::{ArtifactCache, BundleKey, CacheStats};
use sm_engine::store::{ArtifactStore, StoreStats};
use sm_exec::phase::Recorder;
use sm_exec::Budget;

use crate::experiments::{security_row, SecurityRow};
use crate::RunOptions;

/// Shared state for a batch of artifact runs.
#[derive(Debug, Clone)]
pub struct Session {
    opts: RunOptions,
    cache: Arc<ArtifactCache>,
    budget: Budget,
    // Tables 4 and 5 consume the identical attack measurements; computed
    // once per session (they dominate post-bundle cost).
    security_rows: Arc<OnceLock<Vec<SecurityRow>>>,
}

impl Session {
    /// Builds a session for `opts`. A store directory resolved from
    /// `opts.store` (explicit `--store` only; [`StoreMode::Auto`] means
    /// no store here — `smctl` resolves its own default before calling
    /// this) layers the bundle cache over disk. The session holds the
    /// single [`Budget`] `opts` describes (`--threads`), so every
    /// artifact in the batch shares one worker pool. Artifact
    /// runs honor the thread allotment only — deadlines are a campaign
    /// concept (artifact runners never check the cancel token, which is
    /// why `smctl run` rejects `--timeout-secs`).
    ///
    /// [`StoreMode::Auto`]: crate::StoreMode::Auto
    pub fn new(opts: RunOptions) -> Session {
        let budget = opts.budget();
        // `--fault-seed`/`--fault-profile` attach to the store (and the
        // cache, though artifact runners never hit the job-run site):
        // artifact regeneration must survive injected I/O faults too.
        let faults = opts
            .fault_plan()
            .map(|plan| Arc::new(plan) as Arc<dyn sm_exec::fault::FaultInject>);
        let cache = match opts.store_dir(None) {
            Some(dir) => {
                let mut store = ArtifactStore::open(dir, opts.store_cap);
                if let Some(faults) = &faults {
                    store = store.with_faults(Arc::clone(faults));
                }
                ArtifactCache::with_store(Arc::new(store))
            }
            None => ArtifactCache::new(),
        };
        let cache = match faults {
            Some(faults) => cache.with_faults(faults),
            None => cache,
        };
        Session {
            opts,
            cache: Arc::new(cache),
            budget,
            security_rows: Arc::default(),
        }
    }

    /// The options this session runs with.
    pub fn opts(&self) -> &RunOptions {
        &self.opts
    }

    /// The session's bundle cache (shared with campaign helpers).
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// Disk-store counters, when a store is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.cache.store().map(|s| s.stats())
    }

    /// The session's thread budget (for parallel per-row measurement
    /// work).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Bundle-cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Declares the artifacts this session is about to run, reserving
    /// each bundle's expected consumer count with the cache. Every
    /// bundle is then **released right after its last consuming
    /// artifact fetches it** instead of staying pinned for the whole
    /// session (the consumer keeps its own `Arc`; a store-backed
    /// session can always re-decode). Sessions that never call this —
    /// the single-artifact binaries, tests — keep the historical
    /// pin-for-the-session behavior, because releasing an unreserved
    /// key is a no-op.
    pub fn reserve_for_artifacts(&self, names: &[&str]) {
        // Consumer counts come from the declarations next to each
        // runner registration (`artifacts::ARTIFACTS`), so they cannot
        // drift from what the runners actually fetch.
        let uses: Vec<crate::artifacts::BundleUses> = names
            .iter()
            .filter_map(|n| crate::artifacts::artifact_uses(n))
            .collect();
        let superblue_all = uses.iter().filter(|u| u.superblue_runs).count();
        let superblue18_only = uses.iter().filter(|u| u.superblue18).count();
        // security_rows consumers share one iscas_runs fetch per
        // session (OnceLock); direct consumers fetch once each.
        let iscas_uses = usize::from(uses.iter().any(|u| u.security_rows))
            + uses.iter().filter(|u| u.iscas_runs).count();
        for p in superblue_selection(self.opts.quick) {
            let uses = superblue_all
                + if p.name == "superblue18" {
                    superblue18_only
                } else {
                    0
                };
            self.cache.reserve(self.superblue_key(&p), uses);
        }
        for p in iscas_selection(self.opts.quick) {
            self.cache.reserve(
                BundleKey::Iscas {
                    name: p.name,
                    seed: self.opts.seed,
                },
                iscas_uses,
            );
        }
    }

    fn superblue_key(&self, p: &SuperblueProfile) -> BundleKey {
        BundleKey::Superblue {
            name: p.name,
            scale: self.opts.scale,
            seed: self.opts.seed,
        }
    }

    /// The per-bundle share of the session budget when `n` bundles
    /// build concurrently.
    fn per_bundle(&self, n: usize) -> Budget {
        self.budget.split(n.min(self.budget.threads()))
    }

    /// All selected superblue bundles, built in parallel through the
    /// cache (selection honors `--quick`). Counts as one consumer of
    /// each selected bundle (see [`Session::reserve_for_artifacts`]).
    pub fn superblue_runs(&self) -> Vec<Arc<SuperblueRun>> {
        let profiles = superblue_selection(self.opts.quick);
        let share = self.per_bundle(profiles.len());
        let runs = self.budget.map(&profiles, |_, p| {
            let (scale, seed) = (self.opts.scale, self.opts.seed);
            self.cache
                .superblue(p, scale, seed, &share, &mut Recorder::new())
        });
        for p in &profiles {
            self.cache.release(&self.superblue_key(p));
        }
        runs
    }

    /// All selected ISCAS-85 bundles, built in parallel through the
    /// cache. Counts as one consumer of each selected bundle.
    pub fn iscas_runs(&self) -> Vec<Arc<IscasRun>> {
        let profiles = iscas_selection(self.opts.quick);
        let share = self.per_bundle(profiles.len());
        let runs = self.budget.map(&profiles, |_, p| {
            self.cache
                .iscas(p, self.opts.seed, &share, &mut Recorder::new())
        });
        for p in &profiles {
            self.cache.release(&BundleKey::Iscas {
                name: p.name,
                seed: self.opts.seed,
            });
        }
        runs
    }

    /// The Table 4/5 attack measurements for the selected ISCAS runs,
    /// computed in parallel once per session and shared between both
    /// tables (the attack sweep, not the bundle build, dominates their
    /// cost).
    pub fn security_rows(&self) -> &[SecurityRow] {
        self.security_rows.get_or_init(|| {
            let runs = self.iscas_runs();
            let share = self.per_bundle(runs.len());
            self.budget
                .map(&runs, |_, run| security_row(run, self.opts.seed, &share))
        })
    }

    /// The superblue18 bundle (Fig. 4 uses only this one). Counts as
    /// one consumer of superblue18.
    pub fn superblue18(&self) -> Arc<SuperblueRun> {
        let profile = SuperblueProfile::superblue18();
        let run = self.cache.superblue(
            &profile,
            self.opts.scale,
            self.opts.seed,
            &self.budget,
            &mut Recorder::new(),
        );
        self.cache.release(&self.superblue_key(&profile));
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_session_shares_bundles_across_requests() {
        let session = Session::new(RunOptions {
            quick: true,
            threads: Some(2),
            ..RunOptions::default()
        });
        let a = session.iscas_runs();
        let b = session.iscas_runs();
        assert_eq!(a.len(), 2); // c432 + c880 in quick mode
        assert!(Arc::ptr_eq(&a[0], &b[0]));
        let stats = session.cache_stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.hits, 2);
        assert!(session.store_stats().is_none(), "no store by default");
    }

    /// With declared artifacts, each bundle is dropped from the cache
    /// right after its last consumer — `run all` no longer pins every
    /// selected bundle for the whole session.
    #[test]
    fn declared_artifacts_release_bundles_after_last_consumer() {
        let session = Session::new(RunOptions {
            quick: true,
            threads: Some(2),
            ..RunOptions::default()
        });
        // fig6 is the only ISCAS consumer; table4+table5 share one
        // security_rows pass (not exercised here to keep the test fast).
        session.reserve_for_artifacts(&["fig6"]);
        let runs = session.iscas_runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            session.cache().resident(),
            0,
            "bundles must drop after their last consumer"
        );
        assert_eq!(session.cache_stats().released, 2);
        // The caller's Arcs are unaffected.
        assert!(runs[0].netlist.num_cells() > 0);
    }

    /// Drift guard for the `BundleUses` declarations in
    /// `artifacts::ARTIFACTS`: running **every** artifact against a
    /// fully-declared session must (a) never rebuild a bundle — an
    /// under-declared fetch would release someone else's reservation
    /// and evict early — and (b) leave nothing resident. This is the
    /// check that catches a runner gaining a fetch without its
    /// registration being updated.
    #[test]
    fn full_artifact_run_releases_everything_without_rebuilds() {
        let session = Session::new(RunOptions {
            quick: true,
            threads: Some(2),
            ..RunOptions::default()
        });
        let names: Vec<&str> = crate::artifacts::ARTIFACTS
            .iter()
            .map(|&(n, _, _)| n)
            .collect();
        session.reserve_for_artifacts(&names);
        for &(_, runner, _) in crate::artifacts::ARTIFACTS.iter() {
            runner(&session);
        }
        let stats = session.cache_stats();
        assert_eq!(
            stats.builds, 3,
            "each quick bundle (c432, c880, superblue18) builds exactly once"
        );
        assert_eq!(session.cache().resident(), 0, "all bundles released");
        assert_eq!(stats.released, 3);
    }

    /// Without a declaration the historical behavior is preserved:
    /// bundles stay resident and later requests hit the cache.
    #[test]
    fn undeclared_sessions_keep_bundles_resident() {
        let session = Session::new(RunOptions {
            quick: true,
            threads: Some(2),
            ..RunOptions::default()
        });
        let _ = session.iscas_runs();
        assert_eq!(session.cache().resident(), 2);
        assert_eq!(session.cache_stats().released, 0);
    }

    /// The `smctl run` warm-path guarantee at the session level: a
    /// second session over the same store directory rebuilds nothing.
    #[test]
    fn store_backed_sessions_share_bundles_across_processes() {
        let dir =
            std::env::temp_dir().join(format!("sm-session-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            quick: true,
            threads: Some(2),
            store: crate::StoreMode::At(dir.to_string_lossy().into_owned()),
            ..RunOptions::default()
        };

        let cold = Session::new(opts.clone());
        let a = cold.iscas_runs();
        assert_eq!(cold.cache_stats().builds, 2);
        // Stage-keyed persistence: each ISCAS bundle writes its
        // netlist, place+route layout and protected design separately.
        assert_eq!(cold.store_stats().unwrap().writes, 6);

        // A fresh session (new process, in effect) over the same store.
        let warm = Session::new(opts);
        let b = warm.iscas_runs();
        let stats = warm.cache_stats();
        assert_eq!(stats.builds, 0, "warm session must not rebuild");
        assert_eq!(stats.disk_hits, 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.netlist.num_nets(), y.netlist.num_nets());
            assert_eq!(
                x.protected.randomization.swaps,
                y.protected.randomization.swaps
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
