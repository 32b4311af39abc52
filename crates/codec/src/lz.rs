//! Byte-oriented LZ compression for store payloads.
//!
//! Bundle artifacts are highly repetitive (vectors of near-identical
//! routes, long runs of zero counters), so the artifact store compresses
//! payloads before writing them. The registry is unreachable in this
//! build, so the codec is self-contained; the design goals are the
//! store's, matching the rest of this crate:
//!
//! * **deterministic** — equal inputs compress to equal bytes (fixed
//!   hash function, greedy matcher, no time- or allocation-dependent
//!   choices), so compressed artifacts stay content-comparable;
//! * **hostile-input safe** — [`decompress`] never panics and never
//!   over-allocates: the caller supplies the expected output length
//!   (the store header records it) and every match offset/length is
//!   bounds-checked against bytes actually produced;
//! * **self-inverse** — `decompress(compress(x), x.len()) == x` for all
//!   inputs, enforced by an exhaustive proptest.
//!
//! The format is a plain LZSS token stream. A control byte holds eight
//! flags, LSB first; flag 0 is a literal (one byte follows), flag 1 is a
//! match (`u16` little-endian back-distance ≥ 1, then one byte encoding
//! `length - MIN_MATCH`). A match means a byte-at-a-time copy, so
//! overlapping matches (distance < length) express runs, RLE-style.
//!
//! Decoding is on the store's warm path (a warm campaign over the nine
//! ISCAS designs inflates tens of megabytes), so [`decompress`] writes
//! into a buffer with `SLACK` bytes past the expected length and copies
//! matches at distance ≥ 8 in 8-byte words: a word then never reads a
//! byte it is writing, so it produces exactly the byte-at-a-time
//! result. Shorter distances keep the byte loop. The byte-at-a-time
//! decoder stays in test builds as the oracle of a differential
//! proptest.

use crate::CodecError;

/// Shortest match worth a 3-byte token.
const MIN_MATCH: usize = 4;

/// Longest match a token can express (`MIN_MATCH + u8::MAX`).
const MAX_MATCH: usize = MIN_MATCH + 255;

/// Furthest back a match can reach (`u16` distance).
const MAX_DISTANCE: usize = u16::MAX as usize;

/// Hash-table size for match candidates (power of two).
const HASH_BITS: u32 = 15;

/// Hashes the 4-byte prefix at `pos` into the candidate table.
#[inline]
fn hash4(bytes: &[u8], pos: usize) -> usize {
    let quad = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte window"));
    (quad.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` into a fresh LZSS token stream.
///
/// Every input compresses successfully (incompressible data degrades to
/// ~9/8 of its size: one control bit per literal). Callers that want the
/// smaller of raw and compressed should compare lengths — the store
/// does, recording which form it kept in its header flags.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // One candidate position per hash bucket: cheap, deterministic, and
    // effective on the store's repetitive payloads.
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut control_at = usize::MAX;
    let mut control_bits = 0u32;
    let mut pos = 0;
    while pos < input.len() {
        let (distance, len) = best_match(input, pos, &table);
        if control_bits == 0 || control_bits == 8 {
            control_at = out.len();
            out.push(0);
            control_bits = 0;
        }
        if len >= MIN_MATCH {
            out[control_at] |= 1 << control_bits;
            out.extend_from_slice(&(distance as u16).to_le_bytes());
            out.push((len - MIN_MATCH) as u8);
            let end = pos + len;
            while pos < end && pos + MIN_MATCH <= input.len() {
                table[hash4(input, pos)] = pos;
                pos += 1;
            }
            pos = end;
        } else {
            out.push(input[pos]);
            if pos + MIN_MATCH <= input.len() {
                table[hash4(input, pos)] = pos;
            }
            pos += 1;
        }
        control_bits += 1;
    }
    out
}

/// The longest usable match at `pos` against the candidate table, as
/// `(distance, length)`; `length` is 0 when no candidate qualifies.
#[inline]
fn best_match(input: &[u8], pos: usize, table: &[usize]) -> (usize, usize) {
    if pos + MIN_MATCH > input.len() {
        return (0, 0);
    }
    let candidate = table[hash4(input, pos)];
    if candidate == usize::MAX || candidate >= pos || pos - candidate > MAX_DISTANCE {
        return (0, 0);
    }
    let limit = (input.len() - pos).min(MAX_MATCH);
    let mut len = 0;
    while len < limit && input[candidate + len] == input[pos + len] {
        len += 1;
    }
    (pos - candidate, len)
}

/// Bytes of slack past the expected output length in the decoder's
/// buffer: a match copied in 8-byte words may write up to 7 bytes past
/// its end, into space the next token overwrites or the final truncation
/// drops.
const SLACK: usize = 16;

/// Decompresses a token stream produced by [`compress`], expecting
/// exactly `expected_len` output bytes.
///
/// Matches at distance ≥ 8 copy in 8-byte words: each word reads only
/// bytes produced before it, so overlapping matches still replicate
/// runs. Shorter distances copy byte by byte. Every input yields the
/// same bytes or the same error as a byte-at-a-time decoder (kept as
/// the test oracle).
///
/// # Errors
///
/// [`CodecError`] when the stream is truncated, a match reaches before
/// the start of the output, or the stream produces more or fewer bytes
/// than expected — corrupt store payloads must surface as misses, never
/// as panics or wrong bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    // No token expands to more than MAX_MATCH bytes per input byte, so a
    // hostile `expected_len` cannot size the buffer beyond what the
    // input could produce.
    let capacity = expected_len.min(input.len().saturating_mul(MAX_MATCH));
    let mut out = vec![0u8; capacity + SLACK];
    let mut len = 0;
    let mut pos = 0;
    while pos < input.len() {
        let control = input[pos];
        pos += 1;
        for bit in 0..8 {
            if pos == input.len() {
                break;
            }
            if control & (1 << bit) == 0 {
                if len == expected_len {
                    return Err(overrun(expected_len));
                }
                out[len] = input[pos];
                len += 1;
                pos += 1;
                continue;
            }
            let token = input
                .get(pos..pos + 3)
                .ok_or_else(|| CodecError::UnexpectedEof {
                    at: pos,
                    needed: 3 - (input.len() - pos),
                })?;
            let distance = u16::from_le_bytes([token[0], token[1]]) as usize;
            let run = MIN_MATCH + token[2] as usize;
            pos += 3;
            if distance == 0 || distance > len {
                return Err(CodecError::Invalid(format!(
                    "match distance {distance} at output byte {len}"
                )));
            }
            if len + run > expected_len {
                return Err(overrun(expected_len));
            }
            let end = len + run;
            if distance >= 8 {
                // Each word's source ends at or before its destination.
                let mut at = len;
                while at < end {
                    let word: [u8; 8] = out[at - distance..at - distance + 8]
                        .try_into()
                        .expect("8-byte window");
                    out[at..at + 8].copy_from_slice(&word);
                    at += 8;
                }
            } else {
                for at in len..end {
                    out[at] = out[at - distance];
                }
            }
            len = end;
        }
    }
    if len != expected_len {
        return Err(CodecError::Invalid(format!(
            "decompressed {len} bytes, expected {expected_len}"
        )));
    }
    out.truncate(len);
    Ok(out)
}

fn overrun(expected_len: usize) -> CodecError {
    CodecError::Invalid(format!("output overruns expected length {expected_len}"))
}

/// The byte-at-a-time decoder [`decompress`] replaced, kept as the
/// differential tests' oracle.
#[cfg(test)]
mod reference {
    use super::MIN_MATCH;
    use crate::CodecError;

    pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(expected_len);
        let mut pos = 0;
        while pos < input.len() {
            let control = input[pos];
            pos += 1;
            for bit in 0..8 {
                if pos == input.len() {
                    break;
                }
                if control & (1 << bit) == 0 {
                    out.push(input[pos]);
                    pos += 1;
                } else {
                    let token =
                        input
                            .get(pos..pos + 3)
                            .ok_or_else(|| CodecError::UnexpectedEof {
                                at: pos,
                                needed: 3 - (input.len() - pos),
                            })?;
                    let distance =
                        u16::from_le_bytes(token[..2].try_into().expect("exact slice")) as usize;
                    let len = MIN_MATCH + token[2] as usize;
                    pos += 3;
                    if distance == 0 || distance > out.len() {
                        return Err(CodecError::Invalid(format!(
                            "match distance {distance} at output byte {}",
                            out.len()
                        )));
                    }
                    if out.len() + len > expected_len {
                        return Err(CodecError::Invalid(format!(
                            "output overruns expected length {expected_len}"
                        )));
                    }
                    let start = out.len() - distance;
                    for i in 0..len {
                        out.push(out[start + i]);
                    }
                }
                if out.len() > expected_len {
                    return Err(CodecError::Invalid(format!(
                        "output overruns expected length {expected_len}"
                    )));
                }
            }
        }
        if out.len() != expected_len {
            return Err(CodecError::Invalid(format!(
                "decompressed {} bytes, expected {expected_len}",
                out.len()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `decompress` agrees with the byte-at-a-time oracle on `input`:
    /// the same bytes, or the same error.
    fn agrees(input: &[u8], expected_len: usize) {
        assert_eq!(
            decompress(input, expected_len),
            reference::decompress(input, expected_len),
            "expected_len {expected_len}, stream {input:?}"
        );
    }

    fn roundtrip(input: &[u8]) {
        let packed = compress(input);
        let back = decompress(&packed, input.len()).expect("roundtrip");
        assert_eq!(back, input);
    }

    #[test]
    fn fixed_cases_roundtrip() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcabcabcabcabcabcabcabc");
        roundtrip(&[0u8; 10_000]);
        roundtrip(b"no repeats: qwertyuiopasdfghjklzxcvbnm1234567890");
        let mut mixed = Vec::new();
        for i in 0..5_000u32 {
            mixed.extend_from_slice(&(i / 7).to_le_bytes());
        }
        roundtrip(&mixed);
    }

    #[test]
    fn repetitive_input_actually_shrinks() {
        let input = vec![42u8; 64 << 10];
        let packed = compress(&input);
        assert!(
            packed.len() < input.len() / 20,
            "64 KiB run compressed to {} bytes",
            packed.len()
        );
    }

    #[test]
    fn compression_is_deterministic() {
        let input: Vec<u8> = (0..20_000u32)
            .flat_map(|i| (i % 251).to_le_bytes())
            .collect();
        assert_eq!(compress(&input), compress(&input));
    }

    #[test]
    fn wrong_expected_length_is_rejected() {
        let packed = compress(b"some payload bytes some payload bytes");
        assert!(decompress(&packed, 5).is_err());
        assert!(decompress(&packed, 10_000).is_err());
        // A hostile length sizes no buffer beyond what the input can
        // produce.
        assert!(decompress(&packed, usize::MAX).is_err());
    }

    #[test]
    fn truncated_and_corrupted_streams_fail_cleanly() {
        let input: Vec<u8> = (0..4_000u32).flat_map(|i| (i % 13).to_le_bytes()).collect();
        let packed = compress(&input);
        for cut in 0..packed.len().min(256) {
            // Truncations either error or produce short output — never
            // panic, never claim success at the full length.
            assert!(decompress(&packed[..cut], input.len()).is_err());
        }
        for i in 0..packed.len().min(256) {
            let mut bad = packed.clone();
            bad[i] ^= 0x41;
            // Bit flips may legally decode to *different* bytes of the
            // same length (the store's checksum catches those); what the
            // codec itself must guarantee is no panic and no overrun.
            if let Ok(out) = decompress(&bad, input.len()) {
                assert_eq!(out.len(), input.len());
            }
        }
    }

    /// One token of a hand-built stream: a literal byte, or a match as
    /// (distance, length).
    #[derive(Clone, Copy)]
    enum Token {
        Literal(u8),
        Match(u16, usize),
    }

    /// Encodes `tokens` in the compressor's stream format.
    fn stream(tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for group in tokens.chunks(8) {
            let control = out.len();
            out.push(0);
            for (bit, token) in group.iter().enumerate() {
                match *token {
                    Token::Literal(byte) => out.push(byte),
                    Token::Match(distance, len) => {
                        out[control] |= 1 << bit;
                        out.extend_from_slice(&distance.to_le_bytes());
                        out.push((len - MIN_MATCH) as u8);
                    }
                }
            }
        }
        out
    }

    /// Matches at every short distance (the byte path, 1–7, and the
    /// first word distances, 8–16) and every length agree with the
    /// oracle, including a match ending exactly at the expected length,
    /// one a byte short of it and one past it, and a literal written
    /// over a word copy's overshoot.
    #[test]
    fn short_distances_and_every_length_match_the_oracle() {
        for distance in 1..=16u16 {
            let mut tokens: Vec<Token> = (0..distance)
                .map(|i| Token::Literal(0x30 + i as u8))
                .collect();
            for len in MIN_MATCH..=MAX_MATCH {
                tokens.truncate(distance as usize);
                tokens.push(Token::Match(distance, len));
                let exact = distance as usize + len;
                let bytes = stream(&tokens);
                let out = decompress(&bytes, exact).expect("a match ending at the expected length");
                for (i, &b) in out.iter().enumerate() {
                    assert_eq!(
                        b,
                        0x30 + (i % distance as usize) as u8,
                        "d {distance} len {len}"
                    );
                }
                for expected_len in [exact - 1, exact, exact + 1] {
                    agrees(&bytes, expected_len);
                }
                tokens.push(Token::Literal(0xee));
                agrees(&stream(&tokens), exact + 1);
            }
        }
    }

    #[test]
    fn hostile_match_tokens_are_rejected() {
        // A match flag with a distance pointing before the output start.
        let stream = [0b0000_0001u8, 9, 0, 0];
        assert!(decompress(&stream, 100).is_err());
        // Zero distance.
        let stream = [0b0000_0010u8, b'x', 0, 0, 0];
        assert!(decompress(&stream, 100).is_err());
        // Truncated match token.
        let stream = [0b0000_0010u8, b'x', 1];
        assert!(decompress(&stream, 100).is_err());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// encode→compress→decode identity over arbitrary byte
            /// soups, including highly repetitive ones.
            #[test]
            fn arbitrary_bytes_roundtrip(
                chunks in proptest::collection::vec((0u8..255, 1usize..64), 0..64),
            ) {
                let input: Vec<u8> = chunks
                    .iter()
                    .flat_map(|&(byte, run)| std::iter::repeat_n(byte, run))
                    .collect();
                let packed = compress(&input);
                let back = decompress(&packed, input.len()).unwrap();
                prop_assert_eq!(back, input);
            }

            /// Truncating a compressed stream never panics and never
            /// yields a full-length "success".
            #[test]
            fn truncations_never_misparse(
                seed_bytes in proptest::collection::vec(0u8..255, 0..512),
                cut_frac in 0usize..100,
            ) {
                let packed = compress(&seed_bytes);
                let cut = packed.len() * cut_frac / 100;
                if cut < packed.len() {
                    prop_assert!(decompress(&packed[..cut], seed_bytes.len()).is_err());
                }
            }
        }

        /// The compressed form of `input` decodes like the oracle: intact
        /// (to `input`), at wrong expected lengths, truncated at
        /// `cut_frac` percent and with `flip` xored into one byte.
        fn mangled_forms_agree(input: &[u8], cut_frac: usize, flip_at: usize, flip: u8) {
            let packed = compress(input);
            assert_eq!(decompress(&packed, input.len()).as_deref(), Ok(input));
            for expected_len in [input.len().saturating_sub(1), input.len(), input.len() + 9] {
                agrees(&packed, expected_len);
            }
            agrees(&packed[..packed.len() * cut_frac / 100], input.len());
            if !packed.is_empty() {
                let mut flipped = packed.clone();
                flipped[flip_at % packed.len()] ^= flip;
                agrees(&flipped, input.len());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Byte runs (long matches, overlapping at distance 1) and
            /// their damaged forms decode like the oracle.
            #[test]
            fn byte_runs_decode_like_the_oracle(
                chunks in proptest::collection::vec((0u8..8, 1usize..300), 0..48),
                cut_frac in 0usize..100,
                flip_at in any::<usize>(),
                flip in 1u8..255,
            ) {
                let input: Vec<u8> = chunks
                    .iter()
                    .flat_map(|&(byte, run)| std::iter::repeat_n(byte, run))
                    .collect();
                mangled_forms_agree(&input, cut_frac, flip_at, flip);
            }

            /// Soups of small little-endian integers one to eight bytes
            /// wide (the store payloads' shape: short matches at assorted
            /// distances) and their damaged forms decode like the oracle.
            #[test]
            fn integer_soups_decode_like_the_oracle(
                ints in proptest::collection::vec((0u64..48, 0u32..4), 0..700),
                cut_frac in 0usize..100,
                flip_at in any::<usize>(),
                flip in 1u8..255,
            ) {
                let input: Vec<u8> = ints
                    .iter()
                    .flat_map(|&(value, width)| value.to_le_bytes()[..1 << width].to_vec())
                    .collect();
                mangled_forms_agree(&input, cut_frac, flip_at, flip);
            }

            /// Raw random streams decode like the oracle at any expected
            /// length.
            #[test]
            fn random_streams_decode_like_the_oracle(
                bytes in proptest::collection::vec(any::<u8>(), 0..512),
                expected_len in 0usize..4096,
            ) {
                agrees(&bytes, expected_len);
            }

            /// Random token streams (literals, and matches at distances
            /// up to 24 after a 16-literal prefix, so some reach before
            /// the output start) decode like the oracle at expected
            /// lengths around their size.
            #[test]
            fn token_soups_decode_like_the_oracle(
                raw in proptest::collection::vec((0u8..3, any::<u8>(), 1u16..25), 0..160),
                off in 0usize..17,
            ) {
                let tokens: Vec<Token> = (0..16u8)
                    .map(Token::Literal)
                    .chain(raw.iter().map(|&(kind, byte, distance)| match kind {
                        0 => Token::Literal(byte),
                        _ => Token::Match(distance, MIN_MATCH + byte as usize),
                    }))
                    .collect();
                let size: usize = tokens
                    .iter()
                    .map(|t| match *t {
                        Token::Literal(_) => 1,
                        Token::Match(_, len) => len,
                    })
                    .sum();
                agrees(&stream(&tokens), (size + off).saturating_sub(8));
            }
        }
    }
}
