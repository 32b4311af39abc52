//! Test-pattern sources for metric evaluation.

use crate::simulator::BLOCK_WORDS;
use rand::Rng;
use sm_netlist::Netlist;

/// A batch of input stimuli, stored 64 patterns per word.
///
/// `words[w][i]` holds patterns `64·w .. 64·w+63` of primary input `i`.
/// The final word may be partially used; [`PatternSource::len`] reports the
/// exact pattern count and metric code masks the tail.
#[derive(Debug, Clone)]
pub struct PatternSource {
    num_patterns: usize,
    num_inputs: usize,
    words: Vec<Vec<u64>>,
}

impl PatternSource {
    /// Draws `num_patterns` uniformly random patterns for the inputs of
    /// `netlist`.
    pub fn random(netlist: &Netlist, num_patterns: usize, rng: &mut impl Rng) -> Self {
        let num_inputs = netlist.input_ports().len();
        let num_words = num_patterns.div_ceil(64);
        let words = (0..num_words)
            .map(|_| (0..num_inputs).map(|_| rng.gen()).collect())
            .collect();
        PatternSource {
            num_patterns,
            num_inputs,
            words,
        }
    }

    /// Enumerates all `2^n` input combinations. Only sensible for small
    /// input counts; used to make OER/HD exact on small circuits.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 24 primary inputs (16M patterns).
    pub fn exhaustive(netlist: &Netlist) -> Self {
        let num_inputs = netlist.input_ports().len();
        assert!(
            num_inputs <= 24,
            "exhaustive patterns limited to 24 inputs, got {num_inputs}"
        );
        let num_patterns = 1usize << num_inputs;
        let num_words = num_patterns.div_ceil(64);
        let mut words = vec![vec![0u64; num_inputs]; num_words];
        for p in 0..num_patterns {
            let (w, lane) = (p / 64, p % 64);
            for (i, word) in words[w].iter_mut().enumerate() {
                if (p >> i) & 1 == 1 {
                    *word |= 1 << lane;
                }
            }
        }
        PatternSource {
            num_patterns,
            num_inputs,
            words,
        }
    }

    /// Number of patterns in the batch.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.num_patterns
    }

    /// Number of primary inputs each pattern covers.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Iterates over `(input_words, valid_mask)` pairs; `valid_mask` has a
    /// bit set for every lane carrying a real pattern.
    pub fn iter_words(&self) -> impl Iterator<Item = (&[u64], u64)> {
        self.words
            .iter()
            .enumerate()
            .map(|(w, inputs)| (inputs.as_slice(), self.word_mask(w)))
    }

    /// The words in simulator blocks of [`BLOCK_WORDS`] (the last may be
    /// shorter), each a slice of per-word input vectors.
    pub(crate) fn blocks(&self) -> std::slice::Chunks<'_, Vec<u64>> {
        self.words.chunks(BLOCK_WORDS)
    }

    /// The valid-lane mask of word `w`: a bit for every lane carrying a
    /// real pattern.
    pub(crate) fn word_mask(&self, w: usize) -> u64 {
        let used = self.num_patterns.saturating_sub(w * 64).min(64);
        if used == 64 {
            !0u64
        } else {
            (1u64 << used) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    #[test]
    fn random_has_requested_count() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let p = PatternSource::random(&n, 100, &mut rng);
        assert_eq!(p.len(), 100);
        let masks: Vec<u64> = p.iter_words().map(|(_, m)| m).collect();
        assert_eq!(masks.len(), 2);
        assert_eq!(masks[0], !0);
        assert_eq!(masks[1].count_ones(), 36);
    }

    #[test]
    fn exhaustive_covers_all_combinations() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let p = PatternSource::exhaustive(&n);
        assert_eq!(p.len(), 32);
        assert_eq!(p.num_inputs(), 5);
        // Input 0 should alternate every lane in the first word.
        let (w0, mask) = p.iter_words().next().unwrap();
        assert_eq!(mask.count_ones(), 32);
        assert_eq!(w0[0] & mask, 0xAAAA_AAAA & mask);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let a = PatternSource::random(&n, 64, &mut rand::rngs::StdRng::seed_from_u64(9));
        let b = PatternSource::random(&n, 64, &mut rand::rngs::StdRng::seed_from_u64(9));
        let wa: Vec<_> = a.iter_words().map(|(w, _)| w.to_vec()).collect();
        let wb: Vec<_> = b.iter_words().map(|(w, _)| w.to_vec()).collect();
        assert_eq!(wa, wb);
    }
}
