//! Pins the compiled block simulator to the per-word oracle
//! ([`crate::simulator::reference`]) on generated ISCAS designs and
//! random loop-free rewirings of them, at every word, block and tail
//! edge of the pattern count: every output word, OER/HD, the activity
//! profile's toggle probabilities, and the counterexample the
//! equivalence check returns.

use crate::equiv::{self, find_counterexample, Equivalence};
use crate::simulator::reference::{self, WordSimulator};
use crate::simulator::{ActivityProfile, Simulator};
use crate::{security_metrics, GoldenResponse, PatternSource};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sm_benchgen::iscas::{generate, IscasProfile};
use sm_netlist::graph::TopoOrder;
use sm_netlist::{NetId, Netlist, Sink};

/// One, a word less one, a word, a word plus one, a block less one, a
/// block, a block plus one, and the flow attack's 65 536.
const PATTERN_COUNTS: [usize; 8] = [1, 63, 64, 65, 1023, 1024, 1025, 65_536];

/// SAT conflict budget of the equivalence checks: both sides fall back
/// to the same bounded proof, so a small budget keeps the cases fast.
const MAX_CONFLICTS: u64 = 64;

/// `golden` with every sink move of `swaps` applied that keeps it
/// loop-free (the randomizer's kind of rewiring).
fn rewired(golden: &Netlist, swaps: &[(u64, u64, u64)]) -> Netlist {
    let mut order = TopoOrder::new(golden.clone()).unwrap();
    let nets = golden.num_nets() as u64;
    for &(from, pick, to) in swaps {
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
    }
    order.into_netlist()
}

/// Every output word of `netlist` over `patterns`, word-major, from the
/// compiled simulator's block loop.
fn block_outputs(netlist: &Netlist, patterns: &PatternSource) -> Vec<u64> {
    let mut sim = Simulator::new(netlist);
    let mut out = Vec::new();
    for block in patterns.blocks() {
        sim.run_block(block, &mut out);
    }
    out
}

/// The same words from the per-word oracle.
fn oracle_outputs(netlist: &Netlist, patterns: &PatternSource) -> Vec<u64> {
    let mut sim = WordSimulator::new(netlist);
    patterns
        .iter_words()
        .flat_map(|(inputs, _)| sim.run_word(inputs))
        .collect()
}

/// Erroneous patterns and bits of `candidate` against `golden`: the
/// scoring loop as it stood before golden responses were stored, both
/// netlists simulated side by side, word by word, on the oracle.
pub(crate) fn oracle_errors(
    golden: &Netlist,
    candidate: &Netlist,
    patterns: &PatternSource,
) -> (u64, u64) {
    let mut sim_g = WordSimulator::new(golden);
    let mut sim_c = WordSimulator::new(candidate);
    let (mut err_patterns, mut err_bits) = (0u64, 0u64);
    for (inputs, mask) in patterns.iter_words() {
        let (og, oc) = (sim_g.run_word(inputs), sim_c.run_word(inputs));
        let mut any_err = 0u64;
        for (wg, wc) in og.iter().zip(&oc) {
            err_bits += ((wg ^ wc) & mask).count_ones() as u64;
            any_err |= (wg ^ wc) & mask;
        }
        err_patterns += any_err.count_ones() as u64;
    }
    (err_patterns, err_bits)
}

/// The counterexample search as it stood on the per-word walk.
fn oracle_counterexample(
    golden: &Netlist,
    candidate: &Netlist,
    patterns: &PatternSource,
) -> Option<Vec<bool>> {
    let mut sim_g = WordSimulator::new(golden);
    let mut sim_c = WordSimulator::new(candidate);
    for (inputs, mask) in patterns.iter_words() {
        let og = sim_g.run_word(inputs);
        let oc = sim_c.run_word(inputs);
        let mut diff = 0u64;
        for (wg, wc) in og.iter().zip(&oc) {
            diff |= (wg ^ wc) & mask;
        }
        if diff != 0 {
            let lane = diff.trailing_zeros();
            return Some(inputs.iter().map(|w| (w >> lane) & 1 == 1).collect());
        }
    }
    None
}

/// [`equiv::check`] with every simulation on the oracle.
fn oracle_check(golden: &Netlist, candidate: &Netlist) -> Equivalence {
    let patterns = PatternSource::random(golden, 2048, &mut equiv::seeded_rng(golden));
    match oracle_counterexample(golden, candidate, &patterns) {
        Some(cex) => Equivalence::NotEquivalent(cex),
        None => equiv::sat_check(golden, candidate, MAX_CONFLICTS),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn block_simulator_matches_the_per_word_oracle(
        profile in 0usize..9,
        seed in 1u64..1000,
        swaps in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..24),
    ) {
        let golden = generate(&IscasProfile::all()[profile], seed);
        let candidate = rewired(&golden, &swaps);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for count in PATTERN_COUNTS {
            let patterns = PatternSource::random(&golden, count, &mut rng);
            for netlist in [&golden, &candidate] {
                prop_assert_eq!(
                    block_outputs(netlist, &patterns),
                    oracle_outputs(netlist, &patterns),
                    "output words at {} patterns", count
                );
            }

            let metrics = GoldenResponse::new(&golden, &patterns).score(&candidate).unwrap();
            prop_assert_eq!(metrics, security_metrics(&golden, &candidate, &patterns).unwrap());
            let (err_patterns, err_bits) = oracle_errors(&golden, &candidate, &patterns);
            let n = count as f64;
            prop_assert_eq!(metrics.oer, err_patterns as f64 / n);
            let bits = n * golden.output_ports().len() as f64;
            prop_assert_eq!(metrics.hd, err_bits as f64 / bits);
            prop_assert_eq!(metrics.patterns, count);

            prop_assert_eq!(
                find_counterexample(&golden, &candidate, &patterns),
                oracle_counterexample(&golden, &candidate, &patterns),
                "counterexample at {} patterns", count
            );

            // The activity profile draws its own stimuli: both sides must
            // consume the same stream and count the same toggles.
            let words = count.div_ceil(64);
            let mut rng_block = rand::rngs::StdRng::seed_from_u64(seed ^ count as u64);
            let mut rng_oracle = rng_block.clone();
            let activity = ActivityProfile::estimate(&candidate, words, &mut rng_block);
            prop_assert_eq!(
                activity.toggle_prob,
                reference::activity(&candidate, words, &mut rng_oracle)
            );
            prop_assert_eq!(rng_block.gen::<u64>(), rng_oracle.gen::<u64>());
        }
        prop_assert_eq!(
            equiv::check(&golden, &candidate, MAX_CONFLICTS).unwrap(),
            oracle_check(&golden, &candidate)
        );
    }
}
