//! Deep packet inspection with an Aho–Corasick multi-pattern automaton.
//!
//! The payload-touching NF: cycle cost is per-byte, so packet size (not
//! just packet rate) drives the work — this is what makes DPI the
//! classic candidate for FPGA/SmartNIC offload (cf. Pigasus, the paper's reference 42).

use super::{NetworkFunction, NfVerdict};
use crate::packet::Packet;
use std::collections::{BTreeMap, VecDeque};

/// Cycles per payload byte scanned (automaton transition + load).
pub const PER_BYTE_CYCLES: u64 = 4;
/// Fixed per-packet cycles (setup, verdict bookkeeping).
pub const BASE_CYCLES: u64 = 300;

/// Bytes per transition-table row: one column per input byte value.
const ALPHABET: usize = 256;
/// Words in the byte-pair bitset: one bit per (first, second) byte pair.
const PAIR_WORDS: usize = ALPHABET * ALPHABET / 64;

/// An Aho–Corasick automaton over byte patterns, with its failure links
/// folded into a dense transition table (δ) so a step never chases
/// failure links. While the automaton sits at its root, a scan skips
/// every byte whose pair with the next byte cannot begin a match, and
/// steps δ only from a pair that can, until it is back at the root.
///
/// The skip is exact. `out[0] = 0`, because empty patterns are ignored.
/// The pair (a, b) is marked when δ(0, a) ≠ 0 and either
/// `out[δ(0, a)] > 0` or δ(δ(0, a), b) ≠ δ(0, b); the second test holds
/// exactly when (a, b) is a goto edge from the depth-1 state. Reading
/// a at the root with (a, b) unmarked is one of two cases. If
/// δ(0, a) = 0, the root stays the root. Otherwise s1 = δ(0, a) has
/// depth 1, `out[s1] = 0`, and s1 has no goto edge on b, so
/// δ(s1, b) = δ(fail(s1) = root, b) = δ(0, b). Either way no match ends
/// at a, and b leads to the state a scan restarted at b reaches, so the
/// skip keeps going from b as if at the root. The last byte has no
/// successor: it is stepped when δ(0, a) ≠ 0.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    // `delta[s * ALPHABET + b]`: the state after reading byte `b` in
    // state `s`, failure transitions included.
    delta: Vec<u32>,
    // number of patterns ending at each state (via output links).
    out: Vec<u32>,
    // bit `a * ALPHABET + b`: the pair (a, b) read at the root can
    // begin a match.
    pairs: Box<[u64; PAIR_WORDS]>,
}

impl AhoCorasick {
    /// Builds the automaton from the given patterns (empty patterns are
    /// ignored).
    pub fn build(patterns: &[&[u8]]) -> Self {
        // goto function: per-state byte -> state. Ordered map so the
        // state numbering and the BFS below are insertion-order
        // independent and fully deterministic.
        let mut goto_: Vec<BTreeMap<u8, u32>> = vec![BTreeMap::new()];
        let mut out: Vec<u32> = vec![0];

        for pat in patterns {
            if pat.is_empty() {
                continue;
            }
            let mut state = 0u32;
            for &b in *pat {
                let next = goto_[state as usize].get(&b).copied();
                state = match next {
                    Some(s) => s,
                    None => {
                        goto_.push(BTreeMap::new());
                        out.push(0);
                        let s = (goto_.len() - 1) as u32;
                        goto_[state as usize].insert(b, s);
                        s
                    }
                };
            }
            out[state as usize] += 1;
        }

        // Fold the failure links into dense rows in BFS order. A state's
        // failure target is strictly shallower, so its row is complete
        // by the time the state is reached: the state's row is that row
        // with the state's own goto edges written over it, and a child's
        // failure target is one lookup in it.
        let mut delta = vec![0u32; goto_.len() * ALPHABET];
        let mut fail = vec![0u32; goto_.len()];
        let mut queue: VecDeque<u32> = VecDeque::new();
        for (&b, &t) in &goto_[0] {
            delta[usize::from(b)] = t;
            queue.push_back(t);
        }
        while let Some(s) = queue.pop_front() {
            let s = s as usize;
            let (row, fail_row) = (s * ALPHABET, fail[s] as usize * ALPHABET);
            delta.copy_within(fail_row..fail_row + ALPHABET, row);
            for (&b, &t) in &goto_[s] {
                let ft = delta[fail_row + usize::from(b)];
                fail[t as usize] = ft;
                out[t as usize] += out[ft as usize];
                delta[row + usize::from(b)] = t;
                queue.push_back(t);
            }
        }

        let mut pairs = Box::new([0u64; PAIR_WORDS]);
        for a in 0..ALPHABET {
            let s1 = delta[a] as usize;
            if s1 == 0 {
                continue;
            }
            for b in 0..ALPHABET {
                if out[s1] > 0 || delta[s1 * ALPHABET + b] != delta[b] {
                    let pair = a * ALPHABET + b;
                    pairs[pair / 64] |= 1 << (pair % 64);
                }
            }
        }
        AhoCorasick { delta, out, pairs }
    }

    /// Number of automaton states.
    pub fn states(&self) -> usize {
        self.out.len()
    }

    /// Whether the byte pair (a, b), read at the root, can begin a match.
    #[inline]
    fn can_start(&self, a: u8, b: u8) -> bool {
        let pair = usize::from(a) * ALPHABET + usize::from(b);
        (self.pairs[pair / 64] >> (pair % 64)) & 1 != 0
    }

    /// Counts pattern occurrences in `haystack`.
    pub fn count_matches(&self, haystack: &[u8]) -> u64 {
        let mut state = 0usize;
        let mut matches = 0u64;
        let mut i = 0;
        while i < haystack.len() {
            if state == 0 {
                match haystack[i..].windows(2).position(|w| self.can_start(w[0], w[1])) {
                    Some(skip) => i += skip,
                    None => {
                        i = haystack.len() - 1;
                        if self.delta[usize::from(haystack[i])] == 0 {
                            break;
                        }
                    }
                }
            }
            state = self.delta[state * ALPHABET + usize::from(haystack[i])] as usize;
            matches += u64::from(self.out[state]);
            i += 1;
        }
        matches
    }
}

/// The DPI network function: intrusion prevention, dropping every
/// packet whose payload matches a signature.
pub struct Dpi {
    automaton: AhoCorasick,
}

impl Dpi {
    /// Builds a DPI engine for the given signature set. Fails closed on
    /// corrupted packets (the trait default): a payload that cannot be
    /// scanned cannot be cleared.
    pub fn new(patterns: &[&[u8]]) -> Self {
        Dpi { automaton: AhoCorasick::build(patterns) }
    }

    /// A small representative signature set for experiments.
    pub fn demo_signatures() -> Vec<&'static [u8]> {
        vec![
            b"EVILPATTERN".as_slice(),
            b"DROP TABLE".as_slice(),
            b"/etc/passwd".as_slice(),
            b"\x90\x90\x90\x90".as_slice(),
            b"cmd.exe".as_slice(),
        ]
    }
}

impl NetworkFunction for Dpi {
    fn name(&self) -> &'static str {
        "dpi"
    }

    fn process(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let cycles = BASE_CYCLES + pkt.payload.len() as u64 * PER_BYTE_CYCLES;
        if self.automaton.count_matches(&pkt.payload) > 0 {
            (NfVerdict::Drop, cycles)
        } else {
            (NfVerdict::Forward, cycles)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_rng::Rng;
    use apples_workload::FiveTuple;

    fn pkt_with(payload: &[u8]) -> Packet {
        let mut p = Packet::new(
            1,
            0,
            FiveTuple { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, proto: 6 },
            1500,
            0,
        );
        p.payload = payload.into();
        p
    }

    #[test]
    fn finds_single_pattern() {
        let ac = AhoCorasick::build(&[b"abc"]);
        assert_eq!(ac.count_matches(b"xxabcxxabc"), 2);
        assert_eq!(ac.count_matches(b"xxabxcx"), 0);
    }

    #[test]
    fn finds_overlapping_patterns() {
        let ac = AhoCorasick::build(&[b"he", b"she", b"his", b"hers"]);
        // "ushers" contains she, he, hers; "ahishers" adds his.
        assert_eq!(ac.count_matches(b"ushers"), 3);
        assert_eq!(ac.count_matches(b"ahishers"), 4);
    }

    #[test]
    fn suffix_patterns_via_failure_links() {
        let ac = AhoCorasick::build(&[b"abcd", b"bcd", b"cd"]);
        assert_eq!(ac.count_matches(b"abcd"), 3);
    }

    #[test]
    fn empty_patterns_and_haystacks() {
        let ac = AhoCorasick::build(&[b"".as_slice(), b"x".as_slice()]);
        assert_eq!(ac.count_matches(b""), 0);
        assert_eq!(ac.count_matches(b"x"), 1);
    }

    #[test]
    fn repeated_pattern_counts_every_occurrence() {
        let ac = AhoCorasick::build(&[b"aa"]);
        assert_eq!(ac.count_matches(b"aaaa"), 3);
    }

    #[test]
    fn a_signature_match_drops_the_packet() {
        let mut ips = Dpi::new(&[b"EVIL"]);
        let (v, _) = ips.process(&pkt_with(b"xxEVILxx"));
        assert_eq!(v, NfVerdict::Drop);
    }

    #[test]
    fn cycle_cost_scales_with_payload_length() {
        let mut dpi = Dpi::new(&[b"EVIL"]);
        let (_, c_small) = dpi.process(&pkt_with(&[b'a'; 100]));
        let (_, c_large) = dpi.process(&pkt_with(&[b'a'; 1400]));
        assert_eq!(c_small, BASE_CYCLES + 100 * PER_BYTE_CYCLES);
        assert_eq!(c_large, BASE_CYCLES + 1400 * PER_BYTE_CYCLES);
    }

    #[test]
    fn demo_signatures_compile() {
        let sigs = Dpi::demo_signatures();
        let ac = AhoCorasick::build(&sigs);
        assert!(ac.states() > sigs.len());
        assert_eq!(ac.count_matches(b"please DROP TABLE users"), 1);
    }

    /// The pair table marks exactly the byte pairs that begin a
    /// pattern: (a, b) when some pattern starts with a and either is one
    /// byte long or continues with b. A table built from any row of δ
    /// but the root's marks more pairs (a slower scan) or fewer (wrong
    /// counts).
    #[test]
    fn pair_table_marks_exactly_the_pattern_starts() {
        let mut sets: Vec<Vec<&[u8]>> = vec![
            Dpi::demo_signatures(),
            vec![b"he", b"she", b"his", b"hers"],
            vec![b"x", b"xyz", b"", b"yx"],
        ];
        let mut rng = Rng::seed_from_u64(0xD1F2);
        let random: Vec<Vec<u8>> = (0..40)
            .map(|_| (0..rng.range_usize(1, 5)).map(|_| rng.range_u8_inclusive(97, 100)).collect())
            .collect();
        sets.extend(random.chunks(4).map(|c| c.iter().map(Vec::as_slice).collect::<Vec<_>>()));
        for patterns in &sets {
            let ac = AhoCorasick::build(patterns);
            for a in 0..=u8::MAX {
                for b in 0..=u8::MAX {
                    let starts = |p: &&[u8]| p.first() == Some(&a) && (p.len() == 1 || p[1] == b);
                    let want = patterns.iter().any(starts);
                    assert_eq!(ac.can_start(a, b), want, "({a}, {b}) for {patterns:?}");
                }
            }
        }
    }

    /// Where the root skip could go wrong: one-byte patterns (pairs
    /// marked by `out[δ(0, a)] > 0`, and the last byte, which has no
    /// pair), matches ending on the last byte, haystacks ending one
    /// byte into a pattern, and a NOP sled's overlapping matches.
    #[test]
    fn root_skip_edges_count_exactly() {
        let count = |patterns: &[&[u8]], haystack: &[u8]| {
            AhoCorasick::build(patterns).count_matches(haystack)
        };
        let sigs = Dpi::demo_signatures();
        assert_eq!(count(&[b"x", b"xyz"], b"axbxyzx"), 4);
        assert_eq!(count(&[b"x", b"yz"], b"qqx"), 1);
        assert_eq!(count(&[b"xy"], b"x"), 0);
        assert_eq!(count(&sigs, b"run cmd.exe"), 1);
        assert_eq!(count(&sigs, b"run cmd.ex"), 0);
        assert_eq!(count(&sigs, b"run c"), 0);
        assert_eq!(count(&sigs, &[0x90; 10]), 7);
        assert_eq!(count(&sigs, &[b'a', 0x90, 0x90, 0x90, 0x90, 0x90, b'b']), 2);
    }
}
