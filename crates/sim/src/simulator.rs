//! 64-way bit-parallel combinational simulator, compiled once and
//! evaluated block-major.

use sm_netlist::graph::topo_order;
use sm_netlist::{GateFn, Netlist};

/// Pattern words each gate evaluates per visit: one block is
/// `16 × 64 = 1 024` patterns.
///
/// Why 16: a net's block takes 128 B, so the value table of a
/// scale-100 superblue18 netlist stays near 0.9 MB and a gate's fan-in
/// reads hit cache, while the per-gate work (dispatch, fan-in range,
/// net ids) is paid once per 1 024 patterns instead of once per 64.
pub(crate) const BLOCK_WORDS: usize = 16;

/// One net's values over a block: word `k` carries the block's
/// patterns `64·k .. 64·k + 63`.
type Block = [u64; BLOCK_WORDS];

/// One cell compiled into the flat gate program.
#[derive(Debug, Clone, Copy)]
struct Gate {
    function: GateFn,
    /// Net the cell drives.
    output: u32,
    /// The cell's input net ids are `fanin[start..end]`, in pin order.
    start: u32,
    end: u32,
}

/// Compiled simulator for one netlist.
///
/// [`Simulator::new`] compiles the netlist once into a flat gate
/// program: the cells in topological order, each as one [`GateFn`], its
/// output net and a range of one shared input-net array. Evaluation is
/// block-major: every gate visit computes a block of 16 pattern words
/// (1 024 patterns) before the next gate, so a 65 536-pattern
/// evaluation walks the program 64 times rather than 1 024.
/// [`Simulator::run_word`] runs the same loop on a one-word block.
/// Reuse the simulator across pattern batches — that is what makes the
/// OER-driven randomization loop (hundreds of evaluations) cheap.
#[derive(Debug)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    /// The cells in topological order.
    gates: Vec<Gate>,
    /// Input net ids of every gate, concatenated in gate order.
    fanin: Vec<u32>,
    /// Net of each primary input, in [`Netlist::input_ports`] order.
    inputs: Vec<u32>,
    /// Net of each primary output, in [`Netlist::output_ports`] order.
    outputs: Vec<u32>,
    /// Scratch: one block per net.
    values: Vec<Block>,
}

fn net_id(index: usize) -> u32 {
    u32::try_from(index).expect("net ids fit in u32")
}

impl<'n> Simulator<'n> {
    /// Compiles a simulator for `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is cyclic (impossible through public APIs).
    pub fn new(netlist: &'n Netlist) -> Self {
        let order = topo_order(netlist).expect("netlist must be acyclic to simulate");
        let library = netlist.library();
        let mut fanin = Vec::new();
        let gates = order
            .into_iter()
            .map(|c| {
                let cell = netlist.cell(c);
                let start = net_id(fanin.len());
                fanin.extend(cell.inputs().iter().map(|net| net_id(net.index())));
                Gate {
                    function: library.cell(cell.lib).function,
                    output: net_id(cell.output().index()),
                    start,
                    end: net_id(fanin.len()),
                }
            })
            .collect();
        let port_nets = |ports: &[sm_netlist::Port]| -> Vec<u32> {
            ports.iter().map(|p| net_id(p.net.index())).collect()
        };
        Simulator {
            netlist,
            gates,
            fanin,
            inputs: port_nets(netlist.input_ports()),
            outputs: port_nets(netlist.output_ports()),
            values: vec![[0; BLOCK_WORDS]; netlist.num_nets()],
        }
    }

    /// The netlist this simulator was compiled for.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Evaluates 64 patterns at once, as a one-word block of the
    /// simulator's block loop.
    ///
    /// `input_words[i]` carries the 64 values of primary input `i` (in
    /// [`Netlist::input_ports`] order); the return value holds one word per
    /// primary output in [`Netlist::output_ports`] order.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the number of primary
    /// inputs.
    pub fn run_word(&mut self, input_words: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.outputs.len());
        self.run_block(&[input_words], &mut out);
        out
    }

    /// Evaluates a block of up to [`BLOCK_WORDS`] pattern words.
    ///
    /// `words[k][i]` carries word `k` of primary input `i`. Appends the
    /// primary-output words to `out`, word-major: all outputs of word 0
    /// (in [`Netlist::output_ports`] order), then of word 1, and so on.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds more than [`BLOCK_WORDS`] words, or if a
    /// word's length differs from the number of primary inputs.
    pub(crate) fn run_block<W: AsRef<[u64]>>(&mut self, words: &[W], out: &mut Vec<u64>) {
        self.simulate(words);
        for k in 0..words.len() {
            out.extend(self.outputs.iter().map(|&net| self.values[net as usize][k]));
        }
    }

    /// Evaluates a single pattern given as booleans, returning the output
    /// booleans. Convenience wrapper over [`Simulator::run_word`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn run_single(&mut self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.run_word(&words)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// The interpreter: loads the block's input words, then runs every
    /// gate of the program over the whole block. Words of a block
    /// beyond `words.len()` hold stale values and are never read.
    fn simulate<W: AsRef<[u64]>>(&mut self, words: &[W]) {
        assert!(
            words.len() <= BLOCK_WORDS,
            "at most {BLOCK_WORDS} words per block"
        );
        for (k, word) in words.iter().enumerate() {
            let word = word.as_ref();
            assert_eq!(
                word.len(),
                self.inputs.len(),
                "one input word per primary input required"
            );
            for (&net, &w) in self.inputs.iter().zip(word) {
                self.values[net as usize][k] = w;
            }
        }
        let values = &mut self.values;
        for gate in &self.gates {
            let fanin = &self.fanin[gate.start as usize..gate.end as usize];
            let block = gate
                .function
                .eval_block(fanin.iter().map(|&net| &values[net as usize]));
            values[gate.output as usize] = block;
        }
    }
}

/// Per-net toggle statistics from random-pattern simulation, feeding the
/// dynamic-power model.
#[derive(Debug, Clone)]
pub struct ActivityProfile {
    /// Estimated toggle probability (0–1) per net, indexed by `NetId`.
    pub toggle_prob: Vec<f64>,
}

impl ActivityProfile {
    /// Estimates switching activity by simulating `num_words × 64` random
    /// patterns and counting bit transitions between adjacent lanes.
    pub fn estimate(
        netlist: &Netlist,
        num_words: usize,
        rng: &mut impl rand::Rng,
    ) -> ActivityProfile {
        let mut sim = Simulator::new(netlist);
        let mut toggles = vec![0u64; netlist.num_nets()];
        let num_words = num_words.max(1);
        let mut words: Vec<Vec<u64>> = Vec::with_capacity(BLOCK_WORDS);
        for first in (0..num_words).step_by(BLOCK_WORDS) {
            let len = BLOCK_WORDS.min(num_words - first);
            // Drawn word by word, input by input: the stream a per-word
            // loop would draw.
            words.clear();
            words.extend((0..len).map(|_| {
                (0..netlist.input_ports().len())
                    .map(|_| rng.gen())
                    .collect::<Vec<u64>>()
            }));
            sim.simulate(&words);
            for (t, block) in toggles.iter_mut().zip(&sim.values) {
                // Transitions between adjacent pattern lanes approximate
                // temporal toggling under random stimuli.
                for &w in &block[..len] {
                    *t += (w ^ (w >> 1)).count_ones() as u64;
                }
            }
        }
        let total_pairs = 63 * num_words as u64;
        ActivityProfile {
            toggle_prob: toggles
                .into_iter()
                .map(|t| t as f64 / total_pairs as f64)
                .collect(),
        }
    }
}

/// The per-word cell walk the compiled simulator replaced, kept verbatim
/// as the differential oracle: compiled in test builds only, reached by
/// no production path.
#[cfg(test)]
pub(crate) mod reference {
    use sm_netlist::graph::topo_order;
    use sm_netlist::Netlist;

    /// One sweep over the cell structs per 64-pattern word.
    #[derive(Debug)]
    pub(crate) struct WordSimulator<'n> {
        netlist: &'n Netlist,
        order: Vec<sm_netlist::CellId>,
        /// Scratch: one word per net.
        values: Vec<u64>,
    }

    impl<'n> WordSimulator<'n> {
        pub(crate) fn new(netlist: &'n Netlist) -> Self {
            let order = topo_order(netlist).expect("netlist must be acyclic to simulate");
            WordSimulator {
                netlist,
                order,
                values: vec![0; netlist.num_nets()],
            }
        }

        pub(crate) fn run_word(&mut self, input_words: &[u64]) -> Vec<u64> {
            let n = self.netlist;
            assert_eq!(
                input_words.len(),
                n.input_ports().len(),
                "one input word per primary input required"
            );
            for (port, &w) in n.input_ports().iter().zip(input_words) {
                self.values[port.net.index()] = w;
            }
            let mut in_buf = [0u64; 8];
            for &c in &self.order {
                let cell = n.cell(c);
                let k = cell.inputs().len();
                for (slot, &net) in in_buf.iter_mut().zip(cell.inputs()) {
                    *slot = self.values[net.index()];
                }
                let f = n.library().cell(cell.lib).function;
                self.values[cell.output().index()] = f.eval_word(&in_buf[..k]);
            }
            n.output_ports()
                .iter()
                .map(|p| self.values[p.net.index()])
                .collect()
        }

        pub(crate) fn net_value(&self, net: sm_netlist::NetId) -> u64 {
            self.values[net.index()]
        }
    }

    /// `ActivityProfile::estimate` as it stood on the per-word walk.
    pub(crate) fn activity(
        netlist: &Netlist,
        num_words: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<f64> {
        let mut sim = WordSimulator::new(netlist);
        let mut toggles = vec![0u64; netlist.num_nets()];
        let mut total_pairs = 0u64;
        for _ in 0..num_words.max(1) {
            let inputs: Vec<u64> = (0..netlist.input_ports().len())
                .map(|_| rng.gen())
                .collect();
            sim.run_word(&inputs);
            for (net, _) in netlist.nets() {
                let w = sim.net_value(net);
                toggles[net.index()] += (w ^ (w >> 1)).count_ones() as u64;
            }
            total_pairs += 63;
        }
        toggles
            .into_iter()
            .map(|t| t as f64 / total_pairs as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::{GateFn, Library, NetlistBuilder};

    #[test]
    fn c17_truth_spot_checks() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let mut sim = Simulator::new(&n);
        // All-zero inputs: G10=G11=1, G16=NAND(0,1)=1, G19=NAND(1,0)=1,
        // G22=NAND(1,1)=0, G23=NAND(1,1)=0.
        assert_eq!(sim.run_single(&[false; 5]), vec![false, false]);
        // All-one inputs: G10=G11=0, G16=NAND(1,0)=1, G19=NAND(0,1)=1,
        // G22=NAND(0,1)=1, G23=NAND(1,1)=0.
        assert_eq!(sim.run_single(&[true; 5]), vec![true, false]);
    }

    #[test]
    fn word_and_single_agree() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let mut sim = Simulator::new(&n);
        let words: Vec<u64> = vec![0xAAAA, 0xCCCC, 0xF0F0, 0xFF00, 0x0F0F];
        let out_words = sim.run_word(&words);
        for lane in 0..16 {
            let ins: Vec<bool> = words.iter().map(|w| (w >> lane) & 1 == 1).collect();
            let outs = sim.run_single(&ins);
            for (o, w) in outs.iter().zip(&out_words) {
                assert_eq!(*o, (w >> lane) & 1 == 1, "lane {lane}");
            }
        }
    }

    #[test]
    fn block_words_match_single_word_runs() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let words: Vec<Vec<u64>> = (0..BLOCK_WORDS)
            .map(|_| (0..5).map(|_| rand::Rng::gen(&mut rng)).collect())
            .collect();
        let mut block = Vec::new();
        Simulator::new(&n).run_block(&words, &mut block);
        let mut sim = Simulator::new(&n);
        let per_word: Vec<u64> = words.iter().flat_map(|w| sim.run_word(w)).collect();
        assert_eq!(block, per_word);
    }

    #[test]
    fn xor_chain_parity() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("parity", &lib);
        let ins: Vec<_> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let y = b.gate(GateFn::Xor, &ins).unwrap();
        b.output("y", y);
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        for v in 0..32u32 {
            let ins: Vec<bool> = (0..5).map(|i| (v >> i) & 1 == 1).collect();
            let expect = v.count_ones() % 2 == 1;
            assert_eq!(sim.run_single(&ins)[0], expect, "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "one input word per primary input")]
    fn wrong_input_arity_panics() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        Simulator::new(&n).run_word(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "words per block")]
    fn oversized_block_panics() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let words = vec![vec![0u64; 5]; BLOCK_WORDS + 1];
        Simulator::new(&n).run_block(&words, &mut Vec::new());
    }

    #[test]
    fn activity_profile_in_unit_range() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let act = ActivityProfile::estimate(&n, 16, &mut rng);
        assert_eq!(act.toggle_prob.len(), n.num_nets());
        for &p in &act.toggle_prob {
            assert!((0.0..=1.0).contains(&p));
        }
        // Random stimuli toggle the PI nets roughly half the time.
        let pi = n.input_ports()[0].net;
        assert!(act.toggle_prob[pi.index()] > 0.3);
    }
}
