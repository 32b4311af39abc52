//! Experiments as data: the [`Job`] type and deterministic seed derivation.
//!
//! A job names everything needed to reproduce one measurement — which
//! benchmark, which seed, which split layer, which attack — so a campaign
//! is just a list of jobs, and two campaigns with the same job list
//! produce the same report no matter how the executor schedules them.

use sm_benchgen::iscas::IscasProfile;
use sm_benchgen::superblue::SuperblueProfile;
use sm_exec::seed::{fnv1a, mix64};

use crate::bundle::{iscas_profile_by_name, superblue_profile_by_name};
use crate::cache::BundleKey;

/// The benchmark axis of a job.
#[derive(Debug, Clone)]
pub enum Benchmark {
    /// An ISCAS-85-class design.
    Iscas(IscasProfile),
    /// A superblue-class design at the given down-scaling factor.
    Superblue(SuperblueProfile, usize),
}

impl Benchmark {
    /// Benchmark name (`"c432"`, `"superblue18"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Iscas(p) => p.name,
            Benchmark::Superblue(p, _) => p.name,
        }
    }

    /// The down-scaling factor, for superblue-class designs.
    pub fn scale(&self) -> Option<usize> {
        match self {
            Benchmark::Iscas(_) => None,
            Benchmark::Superblue(_, scale) => Some(*scale),
        }
    }

    /// Resolves a benchmark by name; superblue designs get `scale`.
    pub fn parse(name: &str, scale: usize) -> Result<Benchmark, String> {
        if let Some(p) = iscas_profile_by_name(name) {
            return Ok(Benchmark::Iscas(p));
        }
        if let Some(p) = superblue_profile_by_name(name) {
            return Ok(Benchmark::Superblue(p, scale));
        }
        Err(format!(
            "unknown benchmark `{name}` (ISCAS-85: c432..c7552, superblue: superblue1/5/10/12/18)"
        ))
    }
}

/// The attack axis of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Network-flow proximity attack (Wang et al., DAC'16) — Tables 4/5.
    NetworkFlow,
    /// Routing-centric crouting attack (Magaña et al., ICCAD'16) — Table 3.
    Crouting,
}

impl AttackKind {
    /// Stable identifier used in seeds, CLI parsing and reports.
    pub fn id(&self) -> &'static str {
        match self {
            AttackKind::NetworkFlow => "flow",
            AttackKind::Crouting => "crouting",
        }
    }

    /// Parses the CLI/report identifier.
    pub fn parse(s: &str) -> Result<AttackKind, String> {
        match s {
            "flow" | "network-flow" | "proximity" => Ok(AttackKind::NetworkFlow),
            "crouting" => Ok(AttackKind::Crouting),
            other => Err(format!("unknown attack `{other}` (expected flow|crouting)")),
        }
    }
}

/// One schedulable measurement: benchmark × seed × split layer × attack.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in campaign order; fixes report ordering independently of
    /// executor scheduling.
    pub index: usize,
    /// The design under attack.
    pub benchmark: Benchmark,
    /// User-facing campaign seed this job belongs to.
    pub user_seed: u64,
    /// Metal layer after which the layout is split.
    pub split_layer: u8,
    /// Which attack runs on the split layout.
    pub attack: AttackKind,
    /// Campaign master seed (folded into derived seeds).
    pub master_seed: u64,
    /// Pinned layout seed (`--layout-seed`). When set, the bundle is
    /// built from this seed instead of the user seed, so a multi-seed
    /// sweep shares **one** place+route per benchmark, and its flow jobs
    /// share one connection guess per layer and arm; only the OER/HD
    /// evaluation varies per user seed (see [`Job::derived_seed`]).
    /// `None` reproduces the historical per-user-seed bundles
    /// bit-for-bit.
    pub layout_seed: Option<u64>,
}

impl Job {
    /// The seed the layout bundle is built with.
    ///
    /// Depends on (master seed, benchmark, user seed) only — *not* on the
    /// split layer or attack — so every job touching the same design+seed
    /// shares one cached bundle. A pinned layout seed replaces the user
    /// seed here, collapsing a whole seed sweep onto one bundle.
    pub fn bundle_seed(&self) -> u64 {
        let seed = self.layout_seed.unwrap_or(self.user_seed);
        mix64(self.master_seed ^ fnv1a(self.benchmark.name()) ^ seed.rotate_left(17))
    }

    /// The cache/store key of the bundle this job consumes (shared by
    /// every job touching the same design + seed).
    pub fn bundle_key(&self) -> BundleKey {
        let seed = self.bundle_seed();
        match &self.benchmark {
            Benchmark::Iscas(p) => BundleKey::Iscas { name: p.name, seed },
            Benchmark::Superblue(p, scale) => BundleKey::Superblue {
                name: p.name,
                scale: *scale,
                seed,
            },
        }
    }

    /// The fully-derived per-job seed (bundle seed + split layer +
    /// attack), recorded in reports as the job's stable random-stream
    /// identifier. Campaigns feed it to the network-flow attack's
    /// evaluation RNG (`ProximityConfig::eval_seed`), so seed sweeps
    /// explore attack variance as well as layout variance. It also keys
    /// the store's persisted job outcomes.
    pub fn derived_seed(&self) -> u64 {
        let base =
            mix64(self.bundle_seed() ^ (self.split_layer as u64) << 8 ^ fnv1a(self.attack.id()));
        match self.layout_seed {
            // Without a pinned layout, the bundle seed already folds in
            // the user seed — keep the historical formula bit-for-bit.
            None => base,
            // With one, the bundle seed no longer varies per user seed,
            // so fold the user seed back in here: jobs share a layout
            // but still explore attack variance across seeds.
            Some(_) => mix64(base ^ mix64(self.user_seed)),
        }
    }

    /// The stable string identity of this job's persisted outcome — the
    /// store's file stem, and one of the `store_keys` journal
    /// `job-started` events carry.
    pub fn outcome_key(&self) -> String {
        format!(
            "{}-x{}-{}-d{:016x}",
            self.benchmark.name(),
            self.benchmark.scale().unwrap_or(0),
            self.attack.id(),
            self.derived_seed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(bench: &str, user_seed: u64, split: u8, attack: AttackKind) -> Job {
        Job {
            index: 0,
            benchmark: Benchmark::parse(bench, 100).unwrap(),
            user_seed,
            split_layer: split,
            attack,
            master_seed: 1,
            layout_seed: None,
        }
    }

    #[test]
    fn pinned_layout_seed_collapses_bundles_not_derived_seeds() {
        let mut a = job("c432", 3, 4, AttackKind::NetworkFlow);
        let mut b = job("c432", 7, 4, AttackKind::NetworkFlow);
        a.layout_seed = Some(42);
        b.layout_seed = Some(42);
        // One bundle across user seeds…
        assert_eq!(a.bundle_seed(), b.bundle_seed());
        assert_eq!(a.bundle_key(), b.bundle_key());
        // …but distinct attack streams and outcome keys.
        assert_ne!(a.derived_seed(), b.derived_seed());
        assert_ne!(a.outcome_key(), b.outcome_key());
        // Pinning to the user seed's value matches that seed's bundle,
        // and an unpinned job keeps the historical formulas.
        let plain = job("c432", 42, 4, AttackKind::NetworkFlow);
        assert_eq!(a.bundle_seed(), plain.bundle_seed());
        assert_ne!(a.derived_seed(), plain.derived_seed());
    }

    #[test]
    fn bundle_seed_ignores_split_and_attack() {
        let a = job("c432", 3, 3, AttackKind::NetworkFlow);
        let b = job("c432", 3, 5, AttackKind::Crouting);
        assert_eq!(a.bundle_seed(), b.bundle_seed());
        assert_ne!(a.derived_seed(), b.derived_seed());
    }

    #[test]
    fn bundle_seed_separates_benchmarks_and_seeds() {
        let a = job("c432", 3, 3, AttackKind::NetworkFlow);
        let b = job("c880", 3, 3, AttackKind::NetworkFlow);
        let c = job("c432", 4, 3, AttackKind::NetworkFlow);
        assert_ne!(a.bundle_seed(), b.bundle_seed());
        assert_ne!(a.bundle_seed(), c.bundle_seed());
    }

    #[test]
    fn benchmark_parse_classifies() {
        assert!(matches!(
            Benchmark::parse("c1908", 100),
            Ok(Benchmark::Iscas(_))
        ));
        assert!(matches!(
            Benchmark::parse("superblue18", 50),
            Ok(Benchmark::Superblue(_, 50))
        ));
        assert!(Benchmark::parse("c9999", 100).is_err());
    }

    #[test]
    fn attack_parse_roundtrips() {
        for a in [AttackKind::NetworkFlow, AttackKind::Crouting] {
            assert_eq!(AttackKind::parse(a.id()).unwrap(), a);
        }
        assert!(AttackKind::parse("sat").is_err());
    }
}
