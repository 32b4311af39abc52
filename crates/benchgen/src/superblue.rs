//! Scaled IBM superblue generation.
//!
//! The ISPD-2011 superblue designs have 670k–1.5M nets — far beyond what a
//! test suite should chew on. [`SuperblueProfile`] records the published
//! net/I-O/utilization numbers (Table 2 of the paper) and
//! [`generate`] synthesizes a Rent's-rule-flavored random netlist scaled
//! down by a configurable factor (campaigns default to 100×),
//! preserving the I/O-to-net ratio and the shallow, wide shape of physical-
//! design benchmarks. Substitution documented in `DESIGN.md`.

use crate::iscas;
use sm_netlist::Netlist;

/// The five superblue designs in the paper's evaluation.
pub const SUPERBLUE_NAMES: [&str; 5] = [
    "superblue1",
    "superblue5",
    "superblue10",
    "superblue12",
    "superblue18",
];

/// Published statistics of one superblue design (from Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperblueProfile {
    /// Design name.
    pub name: &'static str,
    /// Net count of the real design.
    pub nets: usize,
    /// Primary inputs of the real design.
    pub inputs: usize,
    /// Primary outputs of the real design.
    pub outputs: usize,
    /// Placement utilization (%) the paper used.
    pub utilization_pct: u8,
}

macro_rules! sb {
    ($(#[$doc:meta])* $fn_name:ident, $name:literal, $nets:expr, $pi:expr, $po:expr, $util:expr) => {
        $(#[$doc])*
        pub fn $fn_name() -> SuperblueProfile {
            SuperblueProfile {
                name: $name,
                nets: $nets,
                inputs: $pi,
                outputs: $po,
                utilization_pct: $util,
            }
        }
    };
}

impl SuperblueProfile {
    sb!(
        /// superblue1: 873,712 nets, 8,320/13,025 I/O, 69% utilization.
        superblue1, "superblue1", 873_712, 8_320, 13_025, 69
    );
    sb!(
        /// superblue5: 754,907 nets, 11,661/9,617 I/O, 77% utilization.
        superblue5, "superblue5", 754_907, 11_661, 9_617, 77
    );
    sb!(
        /// superblue10: 1,147,401 nets, 10,454/23,663 I/O, 75% utilization.
        superblue10, "superblue10", 1_147_401, 10_454, 23_663, 75
    );
    sb!(
        /// superblue12: 1,520,046 nets, 1,936/4,629 I/O, 56% utilization.
        superblue12, "superblue12", 1_520_046, 1_936, 4_629, 56
    );
    sb!(
        /// superblue18: 670,323 nets, 3,921/7,465 I/O, 67% utilization.
        superblue18, "superblue18", 670_323, 3_921, 7_465, 67
    );

    /// Profile by name.
    pub fn by_name(name: &str) -> Option<SuperblueProfile> {
        match name {
            "superblue1" => Some(Self::superblue1()),
            "superblue5" => Some(Self::superblue5()),
            "superblue10" => Some(Self::superblue10()),
            "superblue12" => Some(Self::superblue12()),
            "superblue18" => Some(Self::superblue18()),
            _ => None,
        }
    }

    /// All five profiles, in table order.
    pub fn all() -> Vec<SuperblueProfile> {
        SUPERBLUE_NAMES
            .iter()
            .map(|n| Self::by_name(n).expect("static table"))
            .collect()
    }

    /// Placement utilization as a fraction.
    pub fn utilization(&self) -> f64 {
        self.utilization_pct as f64 / 100.0
    }
}

/// Generates a scaled superblue-like netlist (`scale` = division factor;
/// the paper numbers divided by `scale` give the generated size).
///
/// Physical-design benchmarks are wide and shallow; the generator targets
/// a logic depth of ~24 regardless of size and reuses the layered-DAG
/// machinery of [`crate::iscas`].
///
/// # Panics
///
/// Panics if `scale` is 0.
pub fn generate(profile: &SuperblueProfile, scale: usize, seed: u64) -> Netlist {
    assert!(scale > 0, "scale must be positive");
    let inputs = (profile.inputs / scale).max(8);
    let outputs = (profile.outputs / scale).max(8);
    // One net per driver: cells ≈ nets − primary inputs.
    let gates = (profile.nets / scale).saturating_sub(inputs).max(32);
    let shape = iscas::IscasProfile {
        name: profile.name,
        inputs,
        outputs,
        gates,
        depth: 24,
    };
    iscas::generate(&shape, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netlist::stats::NetlistStats;

    #[test]
    fn profiles_match_table2() {
        let p = SuperblueProfile::superblue12();
        assert_eq!(p.nets, 1_520_046);
        assert_eq!(p.inputs, 1_936);
        assert_eq!(p.utilization_pct, 56);
        assert_eq!(SuperblueProfile::all().len(), 5);
    }

    #[test]
    fn scaled_generation_matches_expected_size() {
        let p = SuperblueProfile::superblue18();
        let n = generate(&p, 200, 1);
        let s = NetlistStats::of(&n);
        // 670,323 / 200 ≈ 3,352 nets; gates = nets − inputs.
        let expect_inputs = 3_921 / 200;
        assert_eq!(s.inputs, expect_inputs);
        let expect_gates = 670_323 / 200 - expect_inputs;
        assert_eq!(s.cells, expect_gates);
        n.validate().unwrap();
    }

    #[test]
    fn all_profiles_generate() {
        for p in SuperblueProfile::all() {
            let n = generate(&p, 500, 2);
            assert!(n.num_cells() > 500, "{} too small", p.name);
            n.validate().unwrap();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = SuperblueProfile::superblue1();
        let a = generate(&p, 400, 9);
        let b = generate(&p, 400, 9);
        assert_eq!(a.num_cells(), b.num_cells());
        // Cell by cell, each with its library cell (drive strength
        // included), then net by net and port by port. The netlists'
        // `Debug` renderings differ: each prints its library's name
        // index, a hash map in per-instance order.
        assert!(a.cells().eq(b.cells()));
        assert!(a.nets().eq(b.nets()));
        assert_eq!(a.input_ports(), b.input_ports());
        assert_eq!(a.output_ports(), b.output_ports());
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        let _ = generate(&SuperblueProfile::superblue1(), 0, 1);
    }
}
