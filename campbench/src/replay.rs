//! The traced run: the workload's campaign re-executed from the
//! benchmark's own code, one span around every call into a layer.
//!
//! The replay mirrors `sm_engine::campaign::run_job` and the staged
//! bundle assembly step by step, but only through public functions, so
//! each layer's call is visible: generate (benchgen); randomize, protect,
//! baseline and lift (core); place, place-FM, route and split (layout);
//! the flow attack's phases and crouting (attacks); stage and outcome
//! loads and saves (store). The codec is timed by probe calls that
//! encode/compress every saved artifact and decompress/decode every
//! loaded one a second time; that duplicated work is part of the
//! tracing overhead, and `store.*` spans include the codec work the
//! store does internally.
//!
//! The replay's canonical report must be byte-identical to the untraced
//! campaign's (checked by the caller), which pins it to the program's
//! real pipeline.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sm_attacks::crouting::{crouting_attack, CroutingConfig};
use sm_attacks::proximity::{ccr_over_connections, network_flow_attack_budgeted, ProximityConfig};
use sm_benchgen::{iscas, superblue};
use sm_codec::{decode_from_slice, encode_to_vec, lz, Decode, Encode};
use sm_core::correction::embed_correction_cells;
use sm_core::flow::{BaselineLayout, FlowConfig, ProtectedDesign};
use sm_core::ppa::{evaluate, PpaOverhead};
use sm_core::randomize::{randomize, Randomization};
use sm_engine::campaign::Bundle;
use sm_engine::{
    ArtifactStore, AttackKind, Benchmark, Budget, BundleKey, Campaign, IscasRun, Job, JobMetrics,
    JobOutcome, SplitArm, Stage, SuperblueRun, SweepSpec,
};
use sm_exec::phase::Recorder;
use sm_layout::{
    split_layout, Floorplan, PlaceMeter, Placement, PlacementEngine, RouteOptions, Router,
    RoutingResult, SplitLayout, Technology, VpinSide,
};
use sm_netlist::Netlist;

use crate::trace::{SpanId, Tracer};

/// Counts the replay takes at layer boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    /// Swaps committed by the protection flows that ran.
    pub swaps: AtomicU64,
    /// Vpins of the split layouts that were built.
    pub vpins: AtomicU64,
    /// Largest min-cost-flow demand (sink vpins) an attack solved.
    pub mcmf_demand: AtomicU64,
    /// Encoded bytes of every saved or loaded artifact.
    pub raw_bytes: AtomicU64,
    /// Stored (compressed when that wins) bytes of the same artifacts.
    pub stored_bytes: AtomicU64,
}

/// Build-once memo, the replay's stand-in for the engine's cache slots:
/// concurrent requesters of one key wait while the first one builds.
struct Memo<K, V>(Mutex<HashMap<K, Arc<OnceLock<V>>>>);

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo(Mutex::new(HashMap::new()))
    }

    fn get(&self, key: K, build: impl FnOnce() -> V) -> V {
        let slot = Arc::clone(
            self.0
                .lock()
                .expect("memo poisoned")
                .entry(key)
                .or_default(),
        );
        slot.get_or_init(build).clone()
    }
}

/// One traced replay over a store.
pub struct Replay<'a> {
    tracer: &'a Tracer,
    store: ArtifactStore,
    bundles: Memo<BundleKey, Bundle>,
    splits: Memo<(BundleKey, SplitArm, u8), Arc<SplitLayout>>,
    /// Layer-boundary counts.
    pub counts: Counts,
}

impl<'a> Replay<'a> {
    /// A replay recording into `tracer`, persisting through `store`.
    pub fn new(tracer: &'a Tracer, store: ArtifactStore) -> Self {
        Replay {
            tracer,
            store,
            bundles: Memo::new(),
            splits: Memo::new(),
            counts: Counts::default(),
        }
    }

    /// The store the replay reads and writes.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Runs every job of `spec` inside `budget` the way
    /// `run_jobs_budgeted` does (one equal split per concurrent job) and
    /// returns the campaign the replay assembled.
    pub fn run(&self, spec: &SweepSpec, budget: &Budget) -> Result<Campaign, String> {
        let jobs = spec.jobs()?;
        let start = Instant::now();
        let outcomes = self.tracer.span("campaign", None, |root| {
            let per_job = budget.split(jobs.len().min(budget.threads()));
            budget.map(&jobs, |_, job| self.job(root, job, &per_job))
        });
        Ok(Campaign {
            spec: spec.clone(),
            outcomes,
            cache: Default::default(),
            stages: Default::default(),
            threads: budget.threads(),
            total_wall: start.elapsed(),
            pool: budget.pool().stats(),
        })
    }

    fn job(&self, root: SpanId, job: &Job, exec: &Budget) -> JobOutcome {
        let start = Instant::now();
        let metrics = self.tracer.span("job", Some(root), |j| {
            if let Some(m) = self.load(j, || self.store.load_outcome(job)) {
                return m;
            }
            let bundle = self
                .tracer
                .span("bundle", Some(j), |b| self.bundle(b, job, exec));
            let m = match job.attack {
                AttackKind::NetworkFlow => self.flow(j, &bundle, job, exec),
                AttackKind::Crouting => self.crouting(j, &bundle, job),
            };
            self.probe_encode(j, &m);
            self.tracer
                .span("store.save", Some(j), |_| self.store.save_outcome(job, &m));
            m
        });
        JobOutcome {
            job: job.clone(),
            metrics,
            wall: start.elapsed(),
            phases: Vec::new(),
        }
    }

    // ----- store and codec ------------------------------------------------

    /// A traced store load; a hit is followed by the codec probe.
    fn load<T: Encode + Decode>(
        &self,
        parent: SpanId,
        load: impl FnOnce() -> Option<T>,
    ) -> Option<T> {
        let value = self.tracer.span("store.load", Some(parent), |_| load());
        if let Some(v) = &value {
            self.probe_decode::<T>(parent, v);
        }
        value
    }

    /// Fetches a stage artifact like the engine's cache does: store load,
    /// else build and save.
    fn stage<T: Encode + Decode>(
        &self,
        parent: SpanId,
        stage: Stage,
        id: &str,
        build: impl FnOnce() -> T,
    ) -> T {
        if let Some(v) = self.load(parent, || self.store.load_stage::<T>(stage, id)) {
            return v;
        }
        let value = build();
        self.probe_encode(parent, &value);
        self.tracer.span("store.save", Some(parent), |_| {
            self.store.save_stage(stage, id, &value)
        });
        value
    }

    fn count_bytes(&self, raw: usize, packed: usize) {
        self.counts
            .raw_bytes
            .fetch_add(raw as u64, Ordering::Relaxed);
        self.counts
            .stored_bytes
            .fetch_add(raw.min(packed) as u64, Ordering::Relaxed);
    }

    /// Encodes and compresses `value` as the store's save path does.
    fn probe_encode<T: Encode>(&self, parent: SpanId, value: &T) {
        let raw = self
            .tracer
            .span("codec.encode", Some(parent), |_| encode_to_vec(value));
        let packed = self
            .tracer
            .span("codec.lz", Some(parent), |_| lz::compress(&raw));
        self.count_bytes(raw.len(), packed.len());
    }

    /// Decompresses and decodes `value`'s stored form as the store's load
    /// path does. Rebuilding the stored form first is the probe's own
    /// work, recorded as a `probe` span that no layer is charged for.
    fn probe_decode<T: Encode + Decode>(&self, parent: SpanId, value: &T) {
        let (raw, packed) = self.tracer.span("probe", Some(parent), |_| {
            let raw = encode_to_vec(value);
            let packed = lz::compress(&raw);
            (raw, packed)
        });
        self.count_bytes(raw.len(), packed.len());
        if packed.len() < raw.len() {
            let unpacked = self.tracer.span("codec.unlz", Some(parent), |_| {
                lz::decompress(&packed, raw.len()).expect("own compressed bytes")
            });
            debug_assert_eq!(unpacked, raw);
        }
        self.tracer.span("codec.decode", Some(parent), |_| {
            decode_from_slice::<T>(&raw).expect("own encoded bytes")
        });
    }

    // ----- bundles ---------------------------------------------------------

    fn bundle(&self, parent: SpanId, job: &Job, exec: &Budget) -> Bundle {
        let seed = job.bundle_seed();
        self.bundles.get(job.bundle_key(), || match &job.benchmark {
            Benchmark::Iscas(p) => Bundle::Iscas(Arc::new(self.iscas(parent, p, seed, exec))),
            Benchmark::Superblue(p, scale) => {
                Bundle::Superblue(Arc::new(self.superblue(parent, p, *scale, seed, exec)))
            }
        })
    }

    /// Mirrors `IscasRun::assemble_with`.
    fn iscas(
        &self,
        parent: SpanId,
        profile: &iscas::IscasProfile,
        seed: u64,
        exec: &Budget,
    ) -> IscasRun {
        let id = BundleKey::Iscas {
            name: profile.name,
            seed,
        }
        .id();
        let netlist = self.stage(parent, Stage::Netlist, &id, || {
            self.tracer.span("benchgen.generate", Some(parent), |_| {
                iscas::generate(profile, seed)
            })
        });
        let config = FlowConfig::iscas_default(seed);
        let (protected, original) =
            self.protect_and_baseline(parent, &id, &netlist, &config, seed, exec);
        IscasRun {
            name: profile.name,
            netlist,
            original,
            protected,
        }
    }

    /// Mirrors `SuperblueRun::assemble_with`.
    fn superblue(
        &self,
        parent: SpanId,
        profile: &superblue::SuperblueProfile,
        scale: usize,
        seed: u64,
        exec: &Budget,
    ) -> SuperblueRun {
        let id = BundleKey::Superblue {
            name: profile.name,
            scale,
            seed,
        }
        .id();
        let netlist = self.stage(parent, Stage::Netlist, &id, || {
            self.tracer.span("benchgen.generate", Some(parent), |_| {
                superblue::generate(profile, scale, seed)
            })
        });
        let util = profile.utilization();
        let config = FlowConfig {
            utilization: util,
            ..FlowConfig::superblue_default(seed)
        };
        let (protected, original) =
            self.protect_and_baseline(parent, &id, &netlist, &config, seed, exec);
        let protected_nets = protected.protected_nets();
        let lifted = self.stage(parent, Stage::Lift, &id, || {
            self.tracer.span("core.lift", Some(parent), |l| {
                let mut opts = RouteOptions::default();
                for &n in &protected_nets {
                    opts.lift.insert(n, config.lift_layer);
                }
                self.layout(l, &netlist, util, seed, &opts, exec)
            })
        });
        SuperblueRun {
            name: profile.name,
            netlist,
            original,
            lifted,
            protected,
            protected_nets,
        }
    }

    /// The protect ∥ baseline arms of a bundle, each in half the budget.
    fn protect_and_baseline(
        &self,
        parent: SpanId,
        id: &str,
        netlist: &Netlist,
        config: &FlowConfig,
        seed: u64,
        exec: &Budget,
    ) -> (ProtectedDesign, BaselineLayout) {
        let arm = exec.split(2);
        exec.join(
            || {
                self.stage(parent, Stage::Protect, id, || {
                    self.tracer.span("core.protect", Some(parent), |p| {
                        self.protect(p, netlist, config, &arm)
                    })
                })
            },
            || {
                self.stage(parent, Stage::Layout, id, || {
                    self.tracer.span("core.baseline", Some(parent), |b| {
                        let opts = RouteOptions::default();
                        self.layout(b, netlist, config.utilization, seed, &opts, &arm)
                    })
                })
            },
        )
    }

    /// Mirrors the private place → route → PPA helper of
    /// `sm_core::baselines`.
    fn layout(
        &self,
        parent: SpanId,
        netlist: &Netlist,
        utilization: f64,
        seed: u64,
        opts: &RouteOptions,
        exec: &Budget,
    ) -> BaselineLayout {
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(netlist, &tech, utilization);
        let meter = PlaceMeter::shared();
        let engine = PlacementEngine::new(seed)
            .with_budget(exec.clone())
            .with_meter(Arc::clone(&meter));
        let placement = self.place(parent, &engine, &meter, netlist, &fp);
        let routing = self.route(
            parent,
            &Router::new(&tech),
            netlist,
            &placement,
            &fp,
            opts,
            exec,
        );
        let ppa = evaluate(netlist, &routing, &fp, &tech, seed);
        BaselineLayout {
            floorplan: fp,
            placement,
            routing,
            ppa,
        }
    }

    fn place(
        &self,
        parent: SpanId,
        engine: &PlacementEngine,
        meter: &PlaceMeter,
        netlist: &Netlist,
        fp: &Floorplan,
    ) -> Placement {
        self.tracer
            .span_at("layout.place", Some(parent), |id, start| {
                let placement = engine
                    .try_place(netlist, fp)
                    .expect("replay budget is never cancelled");
                let (_, fm_ms) = meter.drain_ms();
                self.tracer
                    .children_from_ms(id, start, &[("layout.place_fm", fm_ms)]);
                placement
            })
    }

    #[allow(clippy::too_many_arguments)]
    fn route(
        &self,
        parent: SpanId,
        router: &Router<'_>,
        netlist: &Netlist,
        placement: &Placement,
        fp: &Floorplan,
        opts: &RouteOptions,
        exec: &Budget,
    ) -> RoutingResult {
        self.tracer.span("layout.route", Some(parent), |_| {
            router
                .try_route(netlist, placement, fp, opts, exec.cancel_token())
                .expect("replay budget is never cancelled")
        })
    }

    /// Mirrors `sm_core::flow::protect_traced`: baseline, randomize once,
    /// then the PPA budget loop over truncated swap logs.
    fn protect(
        &self,
        parent: SpanId,
        netlist: &Netlist,
        config: &FlowConfig,
        exec: &Budget,
    ) -> ProtectedDesign {
        let tech = Technology::nangate45_10lm();
        let meter = PlaceMeter::shared();
        let engine = PlacementEngine::new(config.seed)
            .with_budget(exec.clone())
            .with_meter(Arc::clone(&meter));
        let router = Router::new(&tech);
        let fp = Floorplan::for_netlist(netlist, &tech, config.utilization);
        let base_pl = self.place(parent, &engine, &meter, netlist, &fp);
        let base_rt = self.route(
            parent,
            &router,
            netlist,
            &base_pl,
            &fp,
            &RouteOptions::default(),
            exec,
        );
        let base_ppa = evaluate(netlist, &base_rt, &fp, &tech, config.seed);
        let baseline = BaselineLayout {
            floorplan: fp.clone(),
            placement: base_pl,
            routing: base_rt,
            ppa: base_ppa,
        };
        let full = self.tracer.span("core.randomize", Some(parent), |_| {
            randomize(netlist, &config.randomize)
        });
        let mut keep = full.swaps.len();
        let mut rounds = 0;
        loop {
            let randomization = truncate(netlist, &full, keep);
            let placement = self.place(parent, &engine, &meter, &randomization.erroneous, &fp);
            let protected = randomization.protected_nets();
            let pitch = tech.layer(config.lift_layer).pitch_dbu;
            let correction_cells = embed_correction_cells(
                &randomization.erroneous,
                &placement,
                &randomization.swaps,
                config.lift_layer,
                pitch,
            );
            let mut lifted = RouteOptions::default();
            for &net in &protected {
                lifted.lift.insert(net, config.lift_layer);
            }
            let feol_routing = self.route(
                parent,
                &router,
                &randomization.erroneous,
                &placement,
                &fp,
                &lifted,
                exec,
            );
            let restored = randomization.restore();
            let restored_routing =
                self.route(parent, &router, &restored, &placement, &fp, &lifted, exec);
            let ppa = evaluate(&restored, &restored_routing, &fp, &tech, config.seed);
            let ppa_overhead = PpaOverhead::between(&baseline.ppa, &ppa);
            let design = ProtectedDesign {
                randomization,
                restored,
                floorplan: fp.clone(),
                placement,
                feol_routing,
                restored_routing,
                correction_cells,
                baseline: baseline.clone(),
                ppa,
                ppa_overhead,
            };
            let within = design.ppa_overhead.worst_pct() <= config.ppa_budget_percent;
            rounds += 1;
            if within || keep <= 1 || rounds >= config.max_budget_rounds {
                self.counts
                    .swaps
                    .fetch_add(design.randomization.swaps.len() as u64, Ordering::Relaxed);
                return design;
            }
            keep /= 2;
        }
    }

    // ----- split and attacks ------------------------------------------------

    fn split(
        &self,
        parent: SpanId,
        key: BundleKey,
        arm: SplitArm,
        layer: u8,
        build: impl FnOnce() -> SplitLayout,
    ) -> Arc<SplitLayout> {
        self.splits.get((key, arm, layer), || {
            let id = format!("{}-{}-l{layer}", key.id(), arm.id());
            Arc::new(self.stage(parent, Stage::Split, &id, || {
                let split = self.tracer.span("layout.split", Some(parent), |_| build());
                self.counts
                    .vpins
                    .fetch_add(split.feol.vpins.len() as u64, Ordering::Relaxed);
                split
            }))
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn flow_attack(
        &self,
        parent: SpanId,
        golden: &Netlist,
        placed: &Netlist,
        placement: &Placement,
        split: &SplitLayout,
        cfg: &ProximityConfig,
        exec: &Budget,
    ) -> sm_attacks::proximity::AttackOutcome {
        let demand = split
            .feol
            .vpins
            .iter()
            .filter(|v| matches!(v.side, VpinSide::Sink(_)))
            .count() as u64;
        self.counts.mcmf_demand.fetch_max(demand, Ordering::Relaxed);
        self.tracer
            .span_at("attacks.flow", Some(parent), |id, start| {
                let mut rec = Recorder::new();
                let out = network_flow_attack_budgeted(
                    golden, placed, placement, split, cfg, exec, &mut rec,
                )
                .expect("replay budget is never cancelled");
                let phases: Vec<(&'static str, f64)> = rec
                    .spans()
                    .iter()
                    .map(|&(name, ms)| (phase_span(name), ms))
                    .collect();
                self.tracer.children_from_ms(id, start, &phases);
                out
            })
    }

    /// Mirrors the engine's flow job: attack the protected and the
    /// original layout at the job's split layer.
    fn flow(&self, parent: SpanId, bundle: &Bundle, job: &Job, exec: &Budget) -> JobMetrics {
        let cfg = ProximityConfig {
            eval_seed: Some(job.derived_seed()),
            ..ProximityConfig::default()
        };
        let layer = job.split_layer;
        let key = job.bundle_key();
        let netlist = bundle.netlist();
        let protected = bundle.protected();
        let erroneous = &protected.randomization.erroneous;
        let split_prot = self.split(parent, key, SplitArm::Protected, layer, || {
            split_layout(
                erroneous,
                &protected.placement,
                &protected.feol_routing,
                layer,
            )
        });
        let out = self.flow_attack(
            parent,
            netlist,
            erroneous,
            &protected.placement,
            &split_prot,
            &cfg,
            exec,
        );
        let ccr_protected = ccr_over_connections(&split_prot, &out.pairs, &bundle.swapped());
        let original = bundle.original();
        let split_orig = self.split(parent, key, SplitArm::Original, layer, || {
            split_layout(netlist, &original.placement, &original.routing, layer)
        });
        let out_orig = self.flow_attack(
            parent,
            netlist,
            netlist,
            &original.placement,
            &split_orig,
            &cfg,
            exec,
        );
        JobMetrics::Flow {
            ccr_protected_pct: ccr_protected * 100.0,
            oer_pct: out.metrics.oer * 100.0,
            hd_pct: out.metrics.hd * 100.0,
            ccr_original_pct: out_orig.ccr * 100.0,
        }
    }

    /// Mirrors the engine's crouting job.
    fn crouting(&self, parent: SpanId, bundle: &Bundle, job: &Job) -> JobMetrics {
        let cfg = CroutingConfig::default();
        let layer = job.split_layer;
        let key = job.bundle_key();
        let netlist = bundle.netlist();
        let protected = bundle.protected();
        let erroneous = &protected.randomization.erroneous;
        let split_prot = self.split(parent, key, SplitArm::Protected, layer, || {
            split_layout(
                erroneous,
                &protected.placement,
                &protected.feol_routing,
                layer,
            )
        });
        let rep_prot = self.tracer.span("attacks.crouting", Some(parent), |_| {
            crouting_attack(erroneous, &split_prot, &cfg)
        });
        let original = bundle.original();
        let split_orig = self.split(parent, key, SplitArm::Original, layer, || {
            split_layout(netlist, &original.placement, &original.routing, layer)
        });
        let rep_orig = self.tracer.span("attacks.crouting", Some(parent), |_| {
            crouting_attack(netlist, &split_orig, &cfg)
        });
        let boxes = rep_prot
            .boxes
            .iter()
            .zip(&rep_orig.boxes)
            .map(|(p, o)| {
                (
                    p.bbox_tracks,
                    p.expected_list_size,
                    p.match_in_list,
                    o.expected_list_size,
                    o.match_in_list,
                )
            })
            .collect();
        JobMetrics::Crouting {
            vpins_protected: rep_prot.num_vpins,
            vpins_original: rep_orig.num_vpins,
            boxes,
        }
    }
}

/// Span name of a flow-attack phase the program records itself.
fn phase_span(name: &str) -> &'static str {
    match name {
        "attack-candidates" => "attacks.candidates",
        "attack-mcmf" => "attacks.mcmf",
        "attack-assign" => "attacks.assign",
        "attack-eval" => "attacks.eval",
        _ => "attacks.other",
    }
}

/// Mirrors the flow's private swap-log truncation: the first `keep`
/// swaps of `full`, replayed onto the original netlist.
fn truncate(original: &Netlist, full: &Randomization, keep: usize) -> Randomization {
    if keep >= full.swaps.len() {
        return full.clone();
    }
    let mut erroneous = original.clone();
    for s in &full.swaps[..keep] {
        erroneous
            .move_sink(s.net_a, s.sink_a, s.net_b)
            .expect("replaying a valid swap log");
        erroneous
            .move_sink(s.net_b, s.sink_b, s.net_a)
            .expect("replaying a valid swap log");
    }
    Randomization {
        erroneous,
        swaps: full.swaps[..keep].to_vec(),
        oer_achieved: full.oer_achieved,
        hd_achieved: full.hd_achieved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_times;
    use sm_engine::{run_sweep_budgeted, ArtifactCache, ReportOptions};

    /// The replay must reproduce the engine's canonical report byte for
    /// byte, and trace every layer the job touches.
    #[test]
    fn replay_reproduces_the_engine_report() {
        let spec = SweepSpec {
            benchmarks: vec!["c432".into()],
            seeds: vec![1],
            split_layers: vec![3],
            attacks: vec![AttackKind::NetworkFlow, AttackKind::Crouting],
            scale: 100,
            master_seed: 5,
            layout_seed: None,
        };
        let budget = Budget::with_threads(Some(2));
        let engine = run_sweep_budgeted(&spec, &budget, &ArtifactCache::new(), None).unwrap();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.campbench-out")
            .join(format!("test-replay-{}", std::process::id()));
        let tracer = Tracer::default();
        let replay = Replay::new(&tracer, ArtifactStore::open(&dir, None));
        let replayed = replay.run(&spec, &budget).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let render = |c: &Campaign| c.to_json(ReportOptions::default()).render();
        assert_eq!(render(&replayed), render(&engine));
        let times = self_times(&tracer.spans());
        for layer in [
            "benchgen.generate",
            "core.randomize",
            "core.protect",
            "core.baseline",
            "layout.place",
            "layout.route",
            "layout.split",
            "attacks.mcmf",
            "attacks.crouting",
            "codec.encode",
            "store.save",
        ] {
            assert!(times.contains_key(layer), "no {layer} span");
        }
        assert!(replay.counts.swaps.load(Ordering::Relaxed) > 0);
    }
}
