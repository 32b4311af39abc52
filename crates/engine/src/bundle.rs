//! Layout bundles: the heavyweight artifacts experiments consume.
//!
//! A *bundle* is a fully-processed benchmark — netlist plus original /
//! naively-lifted / protected layouts — that several tables and figures
//! consume. Building one dominates campaign wall-clock, which is why the
//! engine caches bundles content-keyed (see [`crate::cache`]) and shares
//! them between jobs.
//!
//! These types started life as `sm_bench::suite`; they moved here so the
//! engine can own caching without depending on the experiment
//! definitions (which depend on the engine).

use sm_benchgen::iscas::{self, IscasProfile};
use sm_benchgen::superblue::{self, SuperblueProfile};
use sm_codec::{Decode, Encode};
use sm_core::baselines::{naive_lifting_with, original_layout_with};
use sm_core::flow::{protect_with, BaselineLayout, FlowConfig, ProtectedDesign};
use sm_exec::phase::Recorder;
use sm_exec::Budget;
use sm_netlist::{NetId, Netlist};

use crate::cache::BundleKey;
use crate::store::Stage;

/// Where staged assembly obtains each pipeline stage: the cache's
/// store-backed fetcher, or [`BuildAll`] for storeless builds.
///
/// Stage artifacts round-trip bit-identically through the store codecs,
/// so any mix of decoded and freshly-built stages assembles into the
/// same bundle a from-scratch build produces.
pub trait StageSource: Sync {
    /// Fetches (or builds, persisting the result) the artifact of
    /// `stage` stored under `id`, returning it plus whether it had to
    /// be built.
    fn fetch_stage<T: Encode + Decode>(
        &self,
        stage: Stage,
        id: &str,
        build: impl FnOnce() -> T,
    ) -> (T, bool);
}

/// A [`StageSource`] with no storage behind it: every stage builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildAll;

impl StageSource for BuildAll {
    fn fetch_stage<T: Encode + Decode>(
        &self,
        _stage: Stage,
        _id: &str,
        build: impl FnOnce() -> T,
    ) -> (T, bool) {
        (build(), true)
    }
}

/// One fully-processed superblue-class benchmark: original, naively lifted
/// and proposed (protected) layouts, sharing the protected-net set so the
/// comparisons are apples-to-apples (Table 2's "same set of nets").
#[derive(Debug)]
pub struct SuperblueRun {
    /// Benchmark name.
    pub name: &'static str,
    /// The original netlist.
    pub netlist: Netlist,
    /// Unprotected baseline layout.
    pub original: BaselineLayout,
    /// Naive-lifting baseline (same nets lifted, no randomization).
    pub lifted: BaselineLayout,
    /// The protected design produced by the full flow.
    pub protected: ProtectedDesign,
    /// Nets randomized/lifted in both protected and lifted layouts.
    pub protected_nets: Vec<NetId>,
}

impl SuperblueRun {
    /// Builds the three layouts for `profile` at the given scale, with
    /// the process-global thread budget and no store.
    ///
    /// The original layout builds first: the protection flow charges
    /// its PPA against it, and naive lifting re-routes its placement
    /// with the protected-net set lifted, so the original netlist is
    /// placed and routed once per bundle.
    pub fn build(profile: &SuperblueProfile, scale: usize, seed: u64) -> SuperblueRun {
        let exec = Budget::default();
        Self::assemble_with(profile, scale, seed, &exec, &BuildAll, &mut Recorder::new()).0
    }

    /// Assembles the bundle stage by stage through `source`: each stage
    /// is fetched (decoded from the store) or built and persisted
    /// independently, so a store missing only one stage rebuilds only
    /// that stage. Returns the run plus whether *any* stage was built.
    ///
    /// Stages chain netlist → place+route → protect → lift, each in the
    /// whole of `exec`: the protect and lift builders take the
    /// place+route stage's layout (built or decoded — the codecs round
    /// trip bit-identically) instead of laying the original netlist out
    /// again. The protected-net set is recomputed from the protected
    /// design (it is derived data, not a persisted stage).
    ///
    /// Stages that build record their phase spans into `rec`, in stage
    /// order (`original-place*`, then `protect-*`); fetched stages
    /// record nothing, and the lift stage places nothing.
    pub fn assemble_with(
        profile: &SuperblueProfile,
        scale: usize,
        seed: u64,
        exec: &Budget,
        source: &impl StageSource,
        rec: &mut Recorder,
    ) -> (SuperblueRun, bool) {
        let id = BundleKey::Superblue {
            name: profile.name,
            scale,
            seed,
        }
        .id();
        let (netlist, n_built) = source.fetch_stage(Stage::Netlist, &id, || {
            superblue::generate(profile, scale, seed)
        });
        let util = profile.utilization();
        let config = FlowConfig {
            utilization: util,
            ..FlowConfig::superblue_default(seed)
        };
        let (original, o_built) = source.fetch_stage(Stage::Layout, &id, || {
            original_layout_with(&netlist, util, seed, exec, rec)
        });
        let (protected, p_built) = source.fetch_stage(Stage::Protect, &id, || {
            protect_with(&netlist, &config, &original, exec, rec)
        });
        let protected_nets = protected.protected_nets();
        let (lifted, l_built) = source.fetch_stage(Stage::Lift, &id, || {
            naive_lifting_with(
                &netlist,
                &original,
                &protected_nets,
                config.lift_layer,
                seed,
                exec,
            )
        });
        (
            SuperblueRun {
                name: profile.name,
                netlist,
                original,
                lifted,
                protected,
                protected_nets,
            },
            n_built || o_built || p_built || l_built,
        )
    }
}

/// One fully-processed ISCAS-85-class benchmark.
#[derive(Debug)]
pub struct IscasRun {
    /// Benchmark name.
    pub name: &'static str,
    /// The original netlist.
    pub netlist: Netlist,
    /// Unprotected baseline.
    pub original: BaselineLayout,
    /// The protected design.
    pub protected: ProtectedDesign,
}

impl IscasRun {
    /// Builds the layouts for `profile` with the process-global thread
    /// budget and no store. As with [`SuperblueRun::build`], the
    /// original layout builds first and the protection flow reuses it.
    pub fn build(profile: &IscasProfile, seed: u64) -> IscasRun {
        let exec = Budget::default();
        Self::assemble_with(profile, seed, &exec, &BuildAll, &mut Recorder::new()).0
    }

    /// Assembles the bundle stage by stage through `source` (see
    /// [`SuperblueRun::assemble_with`], including the stage chain and
    /// the phase-span recording contract). Returns the run plus whether
    /// any stage was built.
    pub fn assemble_with(
        profile: &IscasProfile,
        seed: u64,
        exec: &Budget,
        source: &impl StageSource,
        rec: &mut Recorder,
    ) -> (IscasRun, bool) {
        let id = BundleKey::Iscas {
            name: profile.name,
            seed,
        }
        .id();
        let (netlist, n_built) =
            source.fetch_stage(Stage::Netlist, &id, || iscas::generate(profile, seed));
        let config = FlowConfig::iscas_default(seed);
        let (original, o_built) = source.fetch_stage(Stage::Layout, &id, || {
            original_layout_with(&netlist, config.utilization, seed, exec, rec)
        });
        let (protected, p_built) = source.fetch_stage(Stage::Protect, &id, || {
            protect_with(&netlist, &config, &original, exec, rec)
        });
        (
            IscasRun {
                name: profile.name,
                netlist,
                original,
                protected,
            },
            n_built || o_built || p_built,
        )
    }
}

/// The superblue profiles used in a run (`quick` keeps only superblue18).
pub fn superblue_selection(quick: bool) -> Vec<SuperblueProfile> {
    if quick {
        vec![SuperblueProfile::superblue18()]
    } else {
        SuperblueProfile::all()
    }
}

/// The ISCAS-85 profiles used in a run (`quick` keeps c432 and c880).
pub fn iscas_selection(quick: bool) -> Vec<IscasProfile> {
    if quick {
        vec![IscasProfile::c432(), IscasProfile::c880()]
    } else {
        IscasProfile::all()
    }
}

/// Looks up an ISCAS-85 profile by benchmark name.
pub fn iscas_profile_by_name(name: &str) -> Option<IscasProfile> {
    IscasProfile::all().into_iter().find(|p| p.name == name)
}

/// Looks up a superblue profile by benchmark name.
pub fn superblue_profile_by_name(name: &str) -> Option<SuperblueProfile> {
    SuperblueProfile::all().into_iter().find(|p| p.name == name)
}
