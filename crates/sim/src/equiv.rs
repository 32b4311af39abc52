//! Formal equivalence checking via miter construction and SAT.
//!
//! Mirrors the role Synopsys Formality plays in the paper: after the BEOL
//! restoration step, the restored netlist must be functionally identical to
//! the original. [`check`] builds a miter (XOR of corresponding outputs,
//! OR-ed together) over the two netlists and asks the CDCL solver in
//! [`crate::sat`] whether the difference output can ever be 1.

use crate::patterns::PatternSource;
use crate::sat::{Cnf, Lit, SatResult};
use crate::simulator::{Simulator, BLOCK_WORDS};
use sm_netlist::graph::topo_order;
use sm_netlist::{Driver, GateFn, Netlist};

/// Verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// Proven equivalent (miter UNSAT).
    Equivalent,
    /// A distinguishing input pattern, one bool per primary input.
    NotEquivalent(Vec<bool>),
    /// Conflict budget exhausted; fall back to simulation-based confidence.
    Unknown,
}

/// Checks functional equivalence of two netlists with matching interfaces.
///
/// Strategy: a quick random-simulation pass first (cheap counterexamples),
/// then a full SAT proof bounded by `max_conflicts`.
///
/// # Errors
///
/// Returns [`crate::MetricsError`] if port counts differ.
pub fn check(
    golden: &Netlist,
    candidate: &Netlist,
    max_conflicts: u64,
) -> Result<Equivalence, crate::MetricsError> {
    // Fast path: 2048 random patterns catch nearly all real differences.
    let mut rng = seeded_rng(golden);
    let patterns = PatternSource::random(golden, 2048, &mut rng);
    let metrics = crate::metrics::security_metrics(golden, candidate, &patterns)?;
    if metrics.oer > 0.0 {
        if let Some(cex) = find_counterexample(golden, candidate, &patterns) {
            return Ok(Equivalence::NotEquivalent(cex));
        }
    }
    Ok(sat_check(golden, candidate, max_conflicts))
}

pub(crate) fn seeded_rng(netlist: &Netlist) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    // Deterministic per design name so checks are reproducible.
    let seed = netlist.name().bytes().fold(0xcafef00du64, |h, b| {
        h.wrapping_mul(31).wrapping_add(b as u64)
    });
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The first pattern of `patterns` (lowest word, then lowest lane) on
/// which the two netlists' outputs differ.
pub(crate) fn find_counterexample(
    golden: &Netlist,
    candidate: &Netlist,
    patterns: &PatternSource,
) -> Option<Vec<bool>> {
    let mut sim_g = Simulator::new(golden);
    let mut sim_c = Simulator::new(candidate);
    let stride = golden.output_ports().len();
    let (mut og, mut oc) = (Vec::new(), Vec::new());
    for (b, block) in patterns.blocks().enumerate() {
        og.clear();
        oc.clear();
        sim_g.run_block(block, &mut og);
        sim_c.run_block(block, &mut oc);
        for (k, inputs) in block.iter().enumerate() {
            let mask = patterns.word_mask(b * BLOCK_WORDS + k);
            let outputs = k * stride..(k + 1) * stride;
            let mut diff = 0u64;
            for (wg, wc) in og[outputs.clone()].iter().zip(&oc[outputs]) {
                diff |= (wg ^ wc) & mask;
            }
            if diff != 0 {
                let lane = diff.trailing_zeros();
                return Some(inputs.iter().map(|w| (w >> lane) & 1 == 1).collect());
            }
        }
    }
    None
}

/// Encodes one netlist into `cnf`, returning (input literals, output
/// literals). `shared_inputs` lets the second netlist reuse the first's
/// input variables so the miter quantifies over a single input vector.
fn encode_netlist(
    cnf: &mut Cnf,
    netlist: &Netlist,
    shared_inputs: Option<&[Lit]>,
) -> (Vec<Lit>, Vec<Lit>) {
    let input_lits: Vec<Lit> = match shared_inputs {
        Some(lits) => lits.to_vec(),
        None => (0..netlist.input_ports().len())
            .map(|_| Lit::pos(cnf.fresh_var()))
            .collect(),
    };
    let mut net_lit: Vec<Option<Lit>> = vec![None; netlist.num_nets()];
    for (i, port) in netlist.input_ports().iter().enumerate() {
        net_lit[port.net.index()] = Some(input_lits[i]);
    }
    let order = topo_order(netlist).expect("acyclic");
    for c in order {
        let cell = netlist.cell(c);
        let ins: Vec<Lit> = cell
            .inputs()
            .iter()
            .map(|&n| net_lit[n.index()].expect("topological order guarantees inputs"))
            .collect();
        let out = Lit::pos(cnf.fresh_var());
        match netlist.library().cell(cell.lib).function {
            GateFn::Buf => {
                cnf.add_clause(&[out.negated(), ins[0]]);
                cnf.add_clause(&[out, ins[0].negated()]);
            }
            GateFn::Inv => {
                cnf.add_clause(&[out.negated(), ins[0].negated()]);
                cnf.add_clause(&[out, ins[0]]);
            }
            GateFn::And => cnf.encode_and(out, &ins),
            GateFn::Nand => {
                let t = Lit::pos(cnf.fresh_var());
                cnf.encode_and(t, &ins);
                cnf.add_clause(&[out.negated(), t.negated()]);
                cnf.add_clause(&[out, t]);
            }
            GateFn::Or => cnf.encode_or(out, &ins),
            GateFn::Nor => {
                let t = Lit::pos(cnf.fresh_var());
                cnf.encode_or(t, &ins);
                cnf.add_clause(&[out.negated(), t.negated()]);
                cnf.add_clause(&[out, t]);
            }
            GateFn::Xor => {
                let mut acc = ins[0];
                for &i in &ins[1..] {
                    let t = Lit::pos(cnf.fresh_var());
                    cnf.encode_xor(t, acc, i);
                    acc = t;
                }
                cnf.add_clause(&[out.negated(), acc]);
                cnf.add_clause(&[out, acc.negated()]);
            }
            GateFn::Xnor => {
                let mut acc = ins[0];
                for &i in &ins[1..] {
                    let t = Lit::pos(cnf.fresh_var());
                    cnf.encode_xor(t, acc, i);
                    acc = t;
                }
                cnf.add_clause(&[out.negated(), acc.negated()]);
                cnf.add_clause(&[out, acc]);
            }
        }
        net_lit[cell.output().index()] = Some(out);
    }
    let outputs = netlist
        .output_ports()
        .iter()
        .map(|p| match netlist.net(p.net).driver() {
            Driver::Port(_) | Driver::Cell(_) => {
                net_lit[p.net.index()].expect("output net encoded")
            }
        })
        .collect();
    (input_lits, outputs)
}

/// Pure SAT check without the simulation fast path. Exposed for tests and
/// for callers that already simulated.
pub fn sat_check(golden: &Netlist, candidate: &Netlist, max_conflicts: u64) -> Equivalence {
    let mut cnf = Cnf::new();
    let (inputs, out_g) = encode_netlist(&mut cnf, golden, None);
    let (_, out_c) = encode_netlist(&mut cnf, candidate, Some(&inputs));
    // Miter: OR over XOR of output pairs must be 1.
    let mut diffs = Vec::with_capacity(out_g.len());
    for (g, c) in out_g.iter().zip(&out_c) {
        let d = Lit::pos(cnf.fresh_var());
        cnf.encode_xor(d, *g, *c);
        diffs.push(d);
    }
    let miter = Lit::pos(cnf.fresh_var());
    cnf.encode_or(miter, &diffs);
    cnf.add_clause(&[miter]);
    match cnf.solve(max_conflicts) {
        SatResult::Unsat => Equivalence::Equivalent,
        SatResult::Sat(model) => Equivalence::NotEquivalent(
            inputs
                .iter()
                .map(|l| model[l.var()] != l.is_neg())
                .collect(),
        ),
        SatResult::Unknown => Equivalence::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::{GateFn, Library, NetlistBuilder};

    #[test]
    fn c17_equivalent_to_itself() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        assert_eq!(check(&n, &n, 100_000).unwrap(), Equivalence::Equivalent);
    }

    #[test]
    fn demorgan_forms_equivalent() {
        let lib = Library::nangate45();
        // NAND(a,b) == OR(!a,!b)
        let mut b = NetlistBuilder::new("g", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateFn::Nand, &[a, c]).unwrap();
        b.output("y", y);
        let golden = b.finish().unwrap();
        let mut b = NetlistBuilder::new("c", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let na = b.gate(GateFn::Inv, &[a]).unwrap();
        let nc = b.gate(GateFn::Inv, &[c]).unwrap();
        let y = b.gate(GateFn::Or, &[na, nc]).unwrap();
        b.output("y", y);
        let cand = b.finish().unwrap();
        assert_eq!(
            check(&golden, &cand, 100_000).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn different_functions_yield_counterexample() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("g", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateFn::And, &[a, c]).unwrap();
        b.output("y", y);
        let golden = b.finish().unwrap();
        let mut b = NetlistBuilder::new("c", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateFn::Or, &[a, c]).unwrap();
        b.output("y", y);
        let cand = b.finish().unwrap();
        match check(&golden, &cand, 100_000).unwrap() {
            Equivalence::NotEquivalent(cex) => {
                // The counterexample must actually distinguish the circuits:
                // AND != OR exactly when inputs differ.
                assert_ne!(cex[0], cex[1], "cex {cex:?}");
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn sat_check_finds_subtle_difference() {
        // Differ on exactly one input combination: XOR vs OR differ only
        // at a=b=1. Simulation may find it, but force the SAT path.
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("g", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateFn::Xor, &[a, c]).unwrap();
        b.output("y", y);
        let golden = b.finish().unwrap();
        let mut b = NetlistBuilder::new("c", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let y = b.gate(GateFn::Or, &[a, c]).unwrap();
        b.output("y", y);
        let cand = b.finish().unwrap();
        match sat_check(&golden, &cand, 100_000) {
            Equivalence::NotEquivalent(cex) => {
                assert_eq!(cex, vec![true, true]);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }
}
