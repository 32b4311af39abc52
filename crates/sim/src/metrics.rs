//! OER and Hamming-distance security metrics.

use crate::patterns::PatternSource;
use crate::simulator::{Simulator, BLOCK_WORDS};
use sm_netlist::Netlist;
use std::error::Error;
use std::fmt;

/// Error raised when two netlists cannot be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsError {
    detail: String,
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlists not comparable: {}", self.detail)
    }
}

impl Error for MetricsError {}

/// Combined OER/HD result, as reported in the paper's Tables 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityMetrics {
    /// Output error rate in `[0, 1]`: fraction of patterns with ≥1 wrong
    /// output bit.
    pub oer: f64,
    /// Hamming distance in `[0, 1]`: average fraction of wrong output bits.
    pub hd: f64,
    /// Number of patterns evaluated.
    pub patterns: usize,
}

impl fmt::Display for SecurityMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OER {:.1}%  HD {:.1}% ({} patterns)",
            self.oer * 100.0,
            self.hd * 100.0,
            self.patterns
        )
    }
}

fn check_interfaces(golden: &Netlist, candidate: &Netlist) -> Result<(), MetricsError> {
    check_ports(
        golden.input_ports().len(),
        golden.output_ports().len(),
        candidate,
    )
}

fn check_ports(inputs: usize, outputs: usize, candidate: &Netlist) -> Result<(), MetricsError> {
    if inputs != candidate.input_ports().len() {
        return Err(MetricsError {
            detail: format!(
                "{} vs {} primary inputs",
                inputs,
                candidate.input_ports().len()
            ),
        });
    }
    if outputs != candidate.output_ports().len() {
        return Err(MetricsError {
            detail: format!(
                "{} vs {} primary outputs",
                outputs,
                candidate.output_ports().len()
            ),
        });
    }
    Ok(())
}

/// The golden netlist's output words over one pattern batch, simulated
/// once. [`GoldenResponse::score`] simulates only the candidate and
/// compares it against the stored words, so scoring a sequence of
/// candidates against one golden design (the randomizer's OER check
/// after every swap round) pays for the golden simulation once.
#[derive(Debug, Clone)]
pub struct GoldenResponse<'p> {
    patterns: &'p PatternSource,
    num_inputs: usize,
    num_outputs: usize,
    /// Every primary output's word for every pattern word, word-major:
    /// word `w` of output `o` sits at `w · num_outputs + o`.
    outputs: Vec<u64>,
}

impl<'p> GoldenResponse<'p> {
    /// Simulates `golden` over every word of `patterns`.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` was drawn for a different number of primary
    /// inputs than `golden` has.
    pub fn new(golden: &Netlist, patterns: &'p PatternSource) -> Self {
        let mut sim = Simulator::new(golden);
        let num_outputs = golden.output_ports().len();
        let mut outputs = Vec::with_capacity(patterns.len().div_ceil(64) * num_outputs);
        for block in patterns.blocks() {
            sim.run_block(block, &mut outputs);
        }
        GoldenResponse {
            patterns,
            num_inputs: golden.input_ports().len(),
            num_outputs,
            outputs,
        }
    }

    /// Computes OER and HD of `candidate` against the stored golden
    /// responses in one pass. Ports are matched by position, as both
    /// netlists in this workflow always derive from the same source
    /// design.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError`] when `candidate`'s port counts differ
    /// from the golden netlist's.
    pub fn score(&self, candidate: &Netlist) -> Result<SecurityMetrics, MetricsError> {
        check_ports(self.num_inputs, self.num_outputs, candidate)?;
        let mut sim = Simulator::new(candidate);
        let stride = self.num_outputs;
        let mut oc = Vec::with_capacity(BLOCK_WORDS * stride);
        let mut err_patterns = 0u64;
        let mut err_bits = 0u64;
        for (b, block) in self.patterns.blocks().enumerate() {
            oc.clear();
            sim.run_block(block, &mut oc);
            for k in 0..block.len() {
                let w = b * BLOCK_WORDS + k;
                let mask = self.patterns.word_mask(w);
                let og = &self.outputs[w * stride..(w + 1) * stride];
                let mut any_err = 0u64;
                for (wg, wc) in og.iter().zip(&oc[k * stride..(k + 1) * stride]) {
                    let diff = (wg ^ wc) & mask;
                    err_bits += diff.count_ones() as u64;
                    any_err |= diff;
                }
                err_patterns += any_err.count_ones() as u64;
            }
        }
        let n = self.patterns.len() as f64;
        Ok(SecurityMetrics {
            oer: err_patterns as f64 / n,
            hd: err_bits as f64 / (n * self.num_outputs as f64),
            patterns: self.patterns.len(),
        })
    }
}

/// Computes OER and HD of `candidate` against `golden` over `patterns` in
/// one pass: the one-shot form of [`GoldenResponse::score`]. Build a
/// [`GoldenResponse`] instead when scoring several candidates against
/// one golden netlist.
///
/// # Errors
///
/// Returns [`MetricsError`] when port counts differ (checked before
/// anything is simulated).
pub fn security_metrics(
    golden: &Netlist,
    candidate: &Netlist,
    patterns: &PatternSource,
) -> Result<SecurityMetrics, MetricsError> {
    check_interfaces(golden, candidate)?;
    GoldenResponse::new(golden, patterns).score(candidate)
}

/// Output error rate of `candidate` vs `golden`. See [`security_metrics`].
///
/// # Errors
///
/// Returns [`MetricsError`] when port counts differ.
pub fn oer(
    golden: &Netlist,
    candidate: &Netlist,
    patterns: &PatternSource,
) -> Result<f64, MetricsError> {
    Ok(security_metrics(golden, candidate, patterns)?.oer)
}

/// Hamming distance of `candidate` vs `golden`. See [`security_metrics`].
///
/// # Errors
///
/// Returns [`MetricsError`] when port counts differ.
pub fn hamming_distance(
    golden: &Netlist,
    candidate: &Netlist,
    patterns: &PatternSource,
) -> Result<f64, MetricsError> {
    Ok(security_metrics(golden, candidate, patterns)?.hd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::{GateFn, Library, NetlistBuilder};

    fn c17(lib: &Library) -> Netlist {
        parse_bench("c17", C17_BENCH, lib).unwrap()
    }

    #[test]
    fn identical_netlists_score_zero() {
        let lib = Library::nangate45();
        let n = c17(&lib);
        let p = PatternSource::exhaustive(&n);
        let m = security_metrics(&n, &n, &p).unwrap();
        assert_eq!(m.oer, 0.0);
        assert_eq!(m.hd, 0.0);
        assert_eq!(m.patterns, 32);
    }

    #[test]
    fn inverted_output_scores_full_hd() {
        let lib = Library::nangate45();
        // golden: y = a; candidate: y = !a  → OER 100%, HD 100%.
        let mut b = NetlistBuilder::new("g", &lib);
        let a = b.input("a");
        let y = b.gate(GateFn::Buf, &[a]).unwrap();
        b.output("y", y);
        let golden = b.finish().unwrap();
        let mut b = NetlistBuilder::new("c", &lib);
        let a = b.input("a");
        let y = b.gate(GateFn::Inv, &[a]).unwrap();
        b.output("y", y);
        let cand = b.finish().unwrap();
        let p = PatternSource::exhaustive(&golden);
        let m = security_metrics(&golden, &cand, &p).unwrap();
        assert_eq!(m.oer, 1.0);
        assert_eq!(m.hd, 1.0);
    }

    #[test]
    fn half_wrong_output_scores_half_hd() {
        let lib = Library::nangate45();
        // golden: (y0 = a, y1 = b); candidate: (y0 = a, y1 = !b).
        let mut b = NetlistBuilder::new("g", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y0 = b.gate(GateFn::Buf, &[a]).unwrap();
        let y1 = b.gate(GateFn::Buf, &[c]).unwrap();
        b.output("y0", y0);
        b.output("y1", y1);
        let golden = b.finish().unwrap();
        let mut b = NetlistBuilder::new("c", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y0 = b.gate(GateFn::Buf, &[a]).unwrap();
        let y1 = b.gate(GateFn::Inv, &[c]).unwrap();
        b.output("y0", y0);
        b.output("y1", y1);
        let cand = b.finish().unwrap();
        let p = PatternSource::exhaustive(&golden);
        let m = security_metrics(&golden, &cand, &p).unwrap();
        assert_eq!(m.oer, 1.0); // every pattern has the y1 bit wrong
        assert_eq!(m.hd, 0.5); // half the output bits wrong
    }

    #[test]
    fn mismatched_ports_rejected() {
        let lib = Library::nangate45();
        let n = c17(&lib);
        let mut b = NetlistBuilder::new("small", &lib);
        let a = b.input("a");
        let y = b.gate(GateFn::Inv, &[a]).unwrap();
        b.output("y", y);
        let other = b.finish().unwrap();
        let p = PatternSource::exhaustive(&other);
        assert!(security_metrics(&n, &other, &p).is_err());
    }

    #[test]
    fn display_formats_percentages() {
        let m = SecurityMetrics {
            oer: 0.999,
            hd: 0.404,
            patterns: 1000,
        };
        let s = m.to_string();
        assert!(s.contains("99.9%"));
        assert!(s.contains("40.4%"));
    }
}

#[cfg(test)]
mod golden_differential {
    //! Pins [`GoldenResponse`] scoring to the per-word oracle on
    //! generated ISCAS designs: one golden response per case scores every
    //! prefix of a random swap log, as the randomizer scores its rounds.

    use super::*;
    use crate::differential::oracle_errors;
    use proptest::prelude::*;
    use sm_netlist::graph::TopoOrder;
    use sm_netlist::{NetId, Sink};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn golden_response_matches_security_metrics(
            c880 in any::<bool>(),
            seed in 1u64..4,
            num_patterns in 1usize..300,
            swaps in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..40),
        ) {
            use rand::SeedableRng;
            let profile = if c880 {
                sm_benchgen::iscas::IscasProfile::c880()
            } else {
                sm_benchgen::iscas::IscasProfile::c432()
            };
            let golden = sm_benchgen::iscas::generate(&profile, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ num_patterns as u64);
            let patterns = PatternSource::random(&golden, num_patterns, &mut rng);
            let response = GoldenResponse::new(&golden, &patterns);
            let mut order = TopoOrder::new(golden.clone()).unwrap();
            let nets = golden.num_nets() as u64;
            for (from, pick, to) in swaps {
                let from = NetId::new((from % nets) as usize);
                let to = NetId::new((to % nets) as usize);
                let sinks = order.netlist().net(from).sinks();
                if from == to || sinks.is_empty() {
                    continue;
                }
                let sink = sinks[(pick % sinks.len() as u64) as usize];
                if let Sink::Cell { cell, .. } = sink {
                    if order.would_create_cycle(to, cell) {
                        continue;
                    }
                }
                order.move_sink(from, sink, to).unwrap();
                let candidate = order.netlist();
                let stored = response.score(candidate).unwrap();
                prop_assert_eq!(stored, security_metrics(&golden, candidate, &patterns).unwrap());
                let (err_patterns, err_bits) = oracle_errors(&golden, candidate, &patterns);
                let n = num_patterns as f64;
                prop_assert_eq!(stored.oer, err_patterns as f64 / n);
                let bits = n * golden.output_ports().len() as f64;
                prop_assert_eq!(stored.hd, err_bits as f64 / bits);
                prop_assert_eq!(stored.patterns, num_patterns);
            }
        }
    }

    #[test]
    fn mismatched_ports_are_rejected_by_stored_responses() {
        let lib = sm_netlist::Library::nangate45();
        let golden = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c432(), 1);
        let other =
            sm_netlist::parse::bench::parse_bench("c17", sm_netlist::parse::bench::C17_BENCH, &lib)
                .unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let patterns = PatternSource::random(&golden, 100, &mut rng);
        let response = GoldenResponse::new(&golden, &patterns);
        assert!(response.score(&other).is_err());
        assert!(security_metrics(&golden, &other, &patterns).is_err());
        // The error names the mismatch, whichever form reported it.
        assert_eq!(
            response.score(&other).unwrap_err(),
            security_metrics(&golden, &other, &patterns).unwrap_err()
        );
    }
}
