//! ACL firewall: the paper's running example workload (§4.2).
//!
//! Two matcher implementations share one rule format:
//!
//! - [`Firewall`] scans rules first-match-first in order — the classic
//!   O(n) ACL, whose cycle cost grows with the number of rules scanned;
//! - [`BucketedFirewall`] pre-indexes rules by protocol and destination
//!   port so most packets scan a small bucket — the "software
//!   optimization on the same hardware" used by the Figure 1a
//!   experiment (better performance at identical cost).
//!
//! Both charge the cycles of the scan they model. [`Firewall`] also
//! remembers each flow's first-match result, so the simulator repeats
//! a scan only for a flow it has not seen or has lost its memo slot;
//! the cycles it charges are the modelled scan's either way.

use super::{NetworkFunction, NfVerdict};
use crate::packet::Packet;
use apples_rng::Rng;
use apples_workload::FiveTuple;
use std::collections::BTreeMap;

/// Allow or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Let the packet through.
    Allow,
    /// Drop the packet.
    Deny,
}

/// One ACL rule: prefix matches on addresses, a destination port range,
/// and an optional protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Source prefix as (address, prefix length 0–32).
    pub src: (u32, u8),
    /// Destination prefix as (address, prefix length 0–32).
    pub dst: (u32, u8),
    /// Inclusive destination port range.
    pub dst_ports: (u16, u16),
    /// Protocol to match, or `None` for any.
    pub proto: Option<u8>,
    /// Action on match.
    pub action: Action,
}

impl Rule {
    /// The match-anything rule with the given action.
    pub fn any(action: Action) -> Self {
        Rule { src: (0, 0), dst: (0, 0), dst_ports: (0, u16::MAX), proto: None, action }
    }

    /// Whether the rule matches a 5-tuple.
    pub fn matches(&self, t: &FiveTuple) -> bool {
        prefix_match(self.src, t.src_ip)
            && prefix_match(self.dst, t.dst_ip)
            && (self.dst_ports.0..=self.dst_ports.1).contains(&t.dst_port)
            && self.proto.is_none_or(|p| p == t.proto)
    }
}

/// Rejects prefix lengths above 32, which no IPv4 prefix has: the mask
/// shift in [`prefix_match`] would overflow.
fn assert_prefix_lengths(rules: &[Rule]) {
    for r in rules {
        assert!(r.src.1 <= 32 && r.dst.1 <= 32, "prefix length must be <= 32");
    }
}

fn prefix_match((addr, len): (u32, u8), ip: u32) -> bool {
    if len == 0 {
        return true;
    }
    let mask = u32::MAX << (32 - u32::from(len));
    (ip & mask) == (addr & mask)
}

/// Cycle-cost constants shared by both matchers, calibrated so that a
/// ~100-rule linear firewall on one 3 GHz core forwards ~10 Gbps of
/// 1500 B traffic (the §4.2 baseline): parse + checksum + I/O descriptor
/// work, plus a per-rule compare.
pub const BASE_CYCLES: u64 = 500;
/// Cycles per rule compared.
pub const PER_RULE_CYCLES: u64 = 28;

/// Slots in [`Firewall`]'s first-match memo, indexed by flow number.
const MEMO_SLOTS: usize = 1024;

/// A remembered first-match result and the tuple it was computed for.
#[derive(Debug, Clone, Copy)]
struct FirstMatch {
    tuple: FiveTuple,
    action: Action,
    scan_cycles: u64,
}

/// First-match linear ACL firewall.
///
/// The result of a scan is a pure function of the rule list, the
/// default action and the 5-tuple, and `process` keeps no other state.
/// So the firewall keeps the last result per flow in a direct-mapped
/// memo of `MEMO_SLOTS` slots (slot `flow % MEMO_SLOTS`), and a hit
/// requires the stored tuple to equal the packet's. A hit returns the
/// action and the cycles of the scan it stands for; a slot collision,
/// or one flow number carrying several tuples, costs only a rescan.
/// Corrupted packets never reach `process` (`NfChain::run` handles them
/// first), so the memo only ever sees parsed tuples.
pub struct Firewall {
    rules: Vec<Rule>,
    default: Action,
    memo: Vec<Option<FirstMatch>>,
}

impl Firewall {
    /// Creates a firewall from an ordered rule list and a default action
    /// for packets matching no rule. Fails closed on corrupted packets
    /// (the trait default: a firewall that cannot parse a packet must
    /// not pass it).
    ///
    /// # Panics
    /// If a rule has a prefix length above 32.
    pub fn new(rules: Vec<Rule>, default: Action) -> Self {
        assert_prefix_lengths(&rules);
        Firewall { rules, default, memo: vec![None; MEMO_SLOTS] }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    fn decide(&self, t: &FiveTuple) -> (Action, u64) {
        for (i, r) in self.rules.iter().enumerate() {
            if r.matches(t) {
                return (r.action, (i as u64 + 1) * PER_RULE_CYCLES);
            }
        }
        (self.default, self.rules.len() as u64 * PER_RULE_CYCLES)
    }
}

impl NetworkFunction for Firewall {
    fn name(&self) -> &'static str {
        "acl-firewall"
    }

    fn process(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let slot = pkt.flow as usize % MEMO_SLOTS;
        let (action, scan_cycles) = match self.memo[slot] {
            Some(v) if v.tuple == pkt.tuple => (v.action, v.scan_cycles),
            _ => {
                let (action, scan_cycles) = self.decide(&pkt.tuple);
                self.memo[slot] = Some(FirstMatch { tuple: pkt.tuple, action, scan_cycles });
                (action, scan_cycles)
            }
        };
        let verdict = match action {
            Action::Allow => NfVerdict::Forward,
            Action::Deny => NfVerdict::Drop,
        };
        (verdict, BASE_CYCLES + scan_cycles)
    }
}

/// Bucket-indexed ACL firewall: rules are grouped by `(proto, dst_port)`
/// when they match exactly one port and one protocol; remaining rules go
/// to a fallback list. Same semantics as [`Firewall`] when rule priority
/// does not interleave buckets (enforced by construction order per
/// bucket), far fewer compares on typical rule sets.
pub struct BucketedFirewall {
    // Ordered map: bucket iteration order (debugging, future stats
    // export) must never depend on hash seeds.
    buckets: BTreeMap<(u8, u16), Vec<(usize, Rule)>>,
    fallback: Vec<(usize, Rule)>,
    default: Action,
    rules_total: usize,
}

impl BucketedFirewall {
    /// Compiles the same rule list a [`Firewall`] would use.
    ///
    /// # Panics
    /// If a rule has a prefix length above 32.
    pub fn new(rules: Vec<Rule>, default: Action) -> Self {
        assert_prefix_lengths(&rules);
        let mut buckets: BTreeMap<(u8, u16), Vec<(usize, Rule)>> = BTreeMap::new();
        let mut fallback = Vec::new();
        let rules_total = rules.len();
        for (prio, r) in rules.into_iter().enumerate() {
            match (r.proto, r.dst_ports.0 == r.dst_ports.1) {
                (Some(p), true) => buckets.entry((p, r.dst_ports.0)).or_default().push((prio, r)),
                _ => fallback.push((prio, r)),
            }
        }
        BucketedFirewall { buckets, fallback, default, rules_total }
    }

    /// Total rules compiled.
    pub fn len(&self) -> usize {
        self.rules_total
    }

    /// True when no rules were compiled.
    pub fn is_empty(&self) -> bool {
        self.rules_total == 0
    }

    fn decide(&self, t: &FiveTuple) -> (Action, u64) {
        // First match by original priority across bucket + fallback.
        let mut best: Option<(usize, Action)> = None;
        let mut compared = 0u64;
        if let Some(bucket) = self.buckets.get(&(t.proto, t.dst_port)) {
            for (prio, r) in bucket {
                compared += 1;
                if r.matches(t) {
                    best = Some((*prio, r.action));
                    break;
                }
            }
        }
        for (prio, r) in &self.fallback {
            if let Some((bp, _)) = best {
                if *prio > bp {
                    break;
                }
            }
            compared += 1;
            if r.matches(t) {
                match best {
                    Some((bp, _)) if bp < *prio => {}
                    _ => best = Some((*prio, r.action)),
                }
                break;
            }
        }
        let action = best.map(|(_, a)| a).unwrap_or(self.default);
        // Hash-bucket lookup costs ~2 rule-compares of work.
        (action, (compared + 2) * PER_RULE_CYCLES)
    }
}

impl NetworkFunction for BucketedFirewall {
    fn name(&self) -> &'static str {
        "bucketed-firewall"
    }

    fn process(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let (action, scan_cycles) = self.decide(&pkt.tuple);
        let verdict = match action {
            Action::Allow => NfVerdict::Forward,
            Action::Deny => NfVerdict::Drop,
        };
        (verdict, BASE_CYCLES + scan_cycles)
    }
}

/// Generates a deterministic synthetic rule set: `n` rules of which
/// `deny_fraction` deny traffic to one exact `(TCP, port)` pair drawn
/// from the experiment's port space, the rest allowing address ranges.
/// Ends with a terminal allow-any so the default rarely fires.
pub fn synth_rules(n: usize, deny_fraction: f64, seed: u64) -> Vec<Rule> {
    assert!((0.0..=1.0).contains(&deny_fraction), "fraction in [0,1]");
    let mut rng = Rng::seed_from_u64(seed);
    let mut rules = Vec::with_capacity(n);
    for _ in 0..n.saturating_sub(1) {
        if rng.gen_bool(deny_fraction) {
            rules.push(Rule {
                src: (0x0A00_0000 | rng.range_u32(0, 0xFFFF) << 8, 24),
                dst: (0, 0),
                dst_ports: {
                    const DENY_PORTS: [u16; 5] = [80, 443, 53, 8080, 5201];
                    let p = DENY_PORTS[rng.range_usize(0, DENY_PORTS.len())];
                    (p, p)
                },
                proto: Some(6),
                action: Action::Deny,
            });
        } else {
            rules.push(Rule {
                src: (0x0A00_0000 | rng.range_u32(0, 0xFF) << 16, 16),
                dst: (0xC0A8_0000, 16),
                dst_ports: (0, u16::MAX),
                proto: None,
                action: Action::Allow,
            });
        }
    }
    if n > 0 {
        rules.push(Rule::any(Action::Allow));
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(src_ip: u32, dst_port: u16, proto: u8) -> FiveTuple {
        FiveTuple { src_ip, dst_ip: 0xC0A80001, src_port: 40000, dst_port, proto }
    }

    fn pkt(t: FiveTuple) -> Packet {
        Packet::new(1, 0, t, 64, 0)
    }

    #[test]
    fn prefix_matching_works() {
        assert!(prefix_match((0x0A000000, 8), 0x0A123456));
        assert!(!prefix_match((0x0A000000, 8), 0x0B123456));
        assert!(prefix_match((0, 0), 0xFFFFFFFF));
        assert!(prefix_match((0x0A0B0C0D, 32), 0x0A0B0C0D));
        assert!(!prefix_match((0x0A0B0C0D, 32), 0x0A0B0C0E));
    }

    #[test]
    fn first_match_wins() {
        let rules = vec![
            Rule {
                src: (0, 0),
                dst: (0, 0),
                dst_ports: (80, 80),
                proto: Some(6),
                action: Action::Deny,
            },
            Rule::any(Action::Allow),
        ];
        let mut fw = Firewall::new(rules, Action::Deny);
        let (v, _) = fw.process(&pkt(tuple(1, 80, 6)));
        assert_eq!(v, NfVerdict::Drop);
        let (v, _) = fw.process(&pkt(tuple(1, 443, 6)));
        assert_eq!(v, NfVerdict::Forward);
    }

    #[test]
    fn default_action_applies_without_match() {
        let mut fw = Firewall::new(vec![], Action::Deny);
        assert!(fw.is_empty());
        let (v, c) = fw.process(&pkt(tuple(1, 80, 6)));
        assert_eq!(v, NfVerdict::Drop);
        assert_eq!(c, BASE_CYCLES);
    }

    #[test]
    fn cycle_cost_grows_with_scan_depth() {
        let mut rules = vec![];
        for _ in 0..99 {
            rules.push(Rule {
                src: (0xDEAD0000, 16), // never matches 10.x sources
                dst: (0, 0),
                dst_ports: (0, u16::MAX),
                proto: None,
                action: Action::Deny,
            });
        }
        rules.push(Rule::any(Action::Allow));
        let mut fw = Firewall::new(rules, Action::Deny);
        let (v, c) = fw.process(&pkt(tuple(0x0A000001, 80, 6)));
        assert_eq!(v, NfVerdict::Forward);
        assert_eq!(c, BASE_CYCLES + 100 * PER_RULE_CYCLES);
    }

    #[test]
    fn bucketed_agrees_with_linear_on_synth_rules() {
        let rules = synth_rules(200, 0.3, 42);
        let mut linear = Firewall::new(rules.clone(), Action::Deny);
        let mut bucketed = BucketedFirewall::new(rules, Action::Deny);
        assert_eq!(linear.len(), bucketed.len());
        let mut rng = Rng::seed_from_u64(7);
        for i in 0..2000 {
            let t = FiveTuple {
                src_ip: 0x0A00_0000 | rng.range_u32(0, 0xFFFFFF),
                dst_ip: 0xC0A8_0000 | rng.range_u32(0, 0xFFFF),
                src_port: rng.range_u16(1024, u16::MAX),
                dst_port: *[80u16, 443, 53, 8080, 5201, 9999]
                    .get(rng.range_usize(0, 6))
                    .expect("in range"),
                proto: if rng.gen_bool(0.9) { 6 } else { 17 },
            };
            let (lv, _) = linear.process(&pkt(t));
            let (bv, _) = bucketed.process(&pkt(t));
            assert_eq!(lv, bv, "disagreement on packet {i}: {t:?}");
        }
    }

    #[test]
    fn bucketed_is_cheaper_on_average() {
        // A deny-heavy ACL (the case port-bucketing exists for): most
        // rules are exact-port denies the bucketed matcher can skip.
        let rules = synth_rules(200, 0.9, 42);
        let mut linear = Firewall::new(rules.clone(), Action::Deny);
        let mut bucketed = BucketedFirewall::new(rules, Action::Deny);
        let mut rng = Rng::seed_from_u64(9);
        let (mut lc, mut bc) = (0u64, 0u64);
        for _ in 0..2000 {
            let t = tuple(0x0A00_0000 | rng.range_u32(0, 0xFFFFFF), 443, 6);
            lc += linear.process(&pkt(t)).1;
            bc += bucketed.process(&pkt(t)).1;
        }
        assert!(
            bc * 2 < lc,
            "bucketed should be at least 2x cheaper: linear {lc} vs bucketed {bc}"
        );
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn linear_firewall_rejects_prefix_lengths_above_32() {
        let rule = Rule { src: (0x0A00_0000, 33), ..Rule::any(Action::Deny) };
        let _ = Firewall::new(vec![rule], Action::Allow);
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn bucketed_firewall_rejects_prefix_lengths_above_32() {
        let rule = Rule { dst: (0x0A00_0000, 40), ..Rule::any(Action::Deny) };
        let _ = BucketedFirewall::new(vec![rule], Action::Allow);
    }

    fn random_rule(rng: &mut Rng) -> Rule {
        let plo = rng.range_u16_inclusive(0, u16::MAX);
        Rule {
            src: (rng.next_u32(), rng.range_u8_inclusive(0, 32)),
            dst: (rng.next_u32(), rng.range_u8_inclusive(0, 32)),
            dst_ports: (plo, plo.saturating_add(rng.range_u16(0, 16))),
            proto: [None, Some(6), Some(17)][rng.range_usize(0, 3)],
            action: if rng.gen_bool(0.5) { Action::Allow } else { Action::Deny },
        }
    }

    fn random_tuple(rng: &mut Rng) -> FiveTuple {
        FiveTuple {
            src_ip: rng.next_u32(),
            dst_ip: rng.next_u32(),
            src_port: rng.range_u16_inclusive(0, u16::MAX),
            dst_port: rng.range_u16(0, 32),
            proto: if rng.gen_bool(0.5) { 6 } else { 17 },
        }
    }

    /// Feeds `stream` through `fw` and checks each packet's verdict and
    /// cycles against a fresh scan of its tuple.
    fn assert_memo_matches_decide(fw: &mut Firewall, stream: &[(u32, FiveTuple)]) {
        for (i, &(flow, t)) in stream.iter().enumerate() {
            let (action, scan_cycles) = fw.decide(&t);
            let want = match action {
                Action::Allow => NfVerdict::Forward,
                Action::Deny => NfVerdict::Drop,
            };
            let got = fw.process(&Packet::new(i as u64, flow, t, 64, 0));
            assert_eq!(got, (want, BASE_CYCLES + scan_cycles), "packet {i}: flow {flow}, {t:?}");
        }
    }

    /// Streams that exercise every memo path: a Zipf population's
    /// repeated flows (hits), one flow number carrying several tuples
    /// (tuple mismatches), and flow numbers 1,024 apart (slot
    /// collisions, all at or above 1,024).
    fn memo_streams(rng: &mut Rng) -> Vec<Vec<(u32, FiveTuple)>> {
        let pop = apples_workload::FlowPopulation::zipf(256, 1.0, rng);
        let zipf = (0..5_000)
            .map(|_| {
                let i = pop.sample_index(rng);
                (i as u32, pop.tuple(i))
            })
            .collect();
        let tuples: Vec<FiveTuple> = (0..8).map(|_| pop.tuple(rng.range_usize(0, 256))).collect();
        let shared =
            (0..2_000).map(|_| (rng.range_u32(0, 4), tuples[rng.range_usize(0, 8)])).collect();
        let colliding = (0..2_000)
            .map(|_| {
                let k = rng.range_u32(1, 5);
                (7 + k * 1024, tuples[k as usize])
            })
            .collect();
        vec![zipf, shared, colliding]
    }

    #[test]
    fn memo_matches_decide_on_every_packet() {
        let mut rng = Rng::seed_from_u64(0xACE);
        // The bench crate's reference ACL: the synthesized body, a deny
        // of TCP port 80, then the terminal allow.
        let mut reference = synth_rules(99, 0.9, 7);
        let terminal = reference.pop().unwrap();
        reference.push(Rule { dst_ports: (80, 80), proto: Some(6), ..Rule::any(Action::Deny) });
        reference.push(terminal);
        let mut rule_sets = vec![(reference, Action::Deny)];
        for _ in 0..20 {
            let rules = (0..rng.range_usize(0, 40)).map(|_| random_rule(&mut rng)).collect();
            rule_sets.push((rules, if rng.gen_bool(0.5) { Action::Deny } else { Action::Allow }));
        }
        for (rules, default) in rule_sets {
            let mut fw = Firewall::new(rules, default);
            for stream in memo_streams(&mut rng) {
                assert_memo_matches_decide(&mut fw, &stream);
            }
            let random: Vec<_> =
                (0..500).map(|_| (rng.range_u32(0, 2048), random_tuple(&mut rng))).collect();
            assert_memo_matches_decide(&mut fw, &random);
        }
    }

    #[test]
    fn synth_rules_deterministic_and_terminated() {
        let a = synth_rules(50, 0.2, 1);
        let b = synth_rules(50, 0.2, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert_eq!(a.last().unwrap(), &Rule::any(Action::Allow));
    }
}
