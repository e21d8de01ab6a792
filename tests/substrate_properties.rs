//! Property-style tests of the simulation substrate: matcher
//! equivalence, search-engine correctness, and packet conservation over
//! randomly explored pipeline configurations (seeded loops, so every
//! run explores the identical sequence).

#![expect(
    clippy::float_cmp,
    reason = "the attack probability is a literal from the loop's own array, compared verbatim"
)]

use apples::simnet::engine::{Engine, StageConfig};
use apples::simnet::nf::dpi::{AhoCorasick, Dpi};
use apples::simnet::nf::firewall::{Action, BucketedFirewall, Firewall, Rule};
use apples::simnet::nf::{NetworkFunction, NfChain};
use apples::simnet::packet::Packet;
use apples::simnet::service::{LineRate, NfService};
use apples::workload::{FiveTuple, WorkloadSpec};
use apples_rng::Rng;

fn random_rule(rng: &mut Rng) -> Rule {
    let plo = rng.range_u16_inclusive(0, u16::MAX);
    Rule {
        src: (rng.next_u32(), rng.range_u8_inclusive(0, 32)),
        dst: (rng.next_u32(), rng.range_u8_inclusive(0, 32)),
        dst_ports: (plo, plo.saturating_add(rng.range_u16(0, 16))),
        proto: match rng.range_u32(0, 3) {
            0 => None,
            1 => Some(6),
            _ => Some(17),
        },
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

fn packet(t: FiveTuple) -> Packet {
    Packet::new(1, 0, t, 64, 0)
}

/// The bucketed matcher is an optimization, not a semantic change: it
/// must agree with the linear first-match scan on every rule set and
/// every packet.
#[test]
fn bucketed_firewall_matches_linear_semantics() {
    let mut rng = Rng::seed_from_u64(0x50B1);
    for _ in 0..300 {
        let rules: Vec<Rule> = (0..rng.range_usize(0, 40)).map(|_| random_rule(&mut rng)).collect();
        let default = if rng.gen_bool(0.5) { Action::Deny } else { Action::Allow };
        let mut linear = Firewall::new(rules.clone(), default);
        let mut bucketed = BucketedFirewall::new(rules, default);
        for _ in 0..rng.range_usize(1, 40) {
            let t = random_tuple(&mut rng);
            let p = packet(t);
            let (lv, _) = linear.process(&p);
            let (bv, _) = bucketed.process(&p);
            assert_eq!(lv, bv, "matchers disagree on {t:?}");
        }
    }
}

/// Counts every (possibly overlapping) occurrence of every pattern.
fn naive_matches(patterns: &[Vec<u8>], haystack: &[u8]) -> u64 {
    patterns
        .iter()
        .map(|p| {
            if p.len() > haystack.len() {
                0
            } else {
                haystack.windows(p.len()).filter(|w| *w == p.as_slice()).count() as u64
            }
        })
        .sum()
}

/// Aho–Corasick counts exactly what a naive scan counts: on a small
/// alphabet (dense overlaps, deep failure chains), on one spanning the
/// whole byte range (so every column of the transition table is read),
/// and with the demo signatures on uniform random bytes, on runs of
/// signature fragments (so the scan leaves the root often), and on
/// DPI-shaped payloads with the signatures planted into a–z filler by
/// `Packet::with_payload` itself, at attack probability 0, 0.01 and 1.
#[test]
fn aho_corasick_matches_naive_search() {
    let check = |patterns: &[Vec<u8>], haystack: &[u8]| {
        let refs: Vec<&[u8]> = patterns.iter().map(|p| p.as_slice()).collect();
        let ac = AhoCorasick::build(&refs);
        assert_eq!(ac.count_matches(haystack), naive_matches(patterns, haystack), "{patterns:?}");
    };
    // 0x00 and 0xFF bound the table's columns; 0x90 is the NOP sled in
    // the demo signatures; the rest spread across the range.
    const SPANNING: [u8; 11] = [0x00, 0x01, 0x0A, 0x20, 0x61, 0x7F, 0x80, 0x90, 0xC3, 0xFE, 0xFF];
    let small: fn(&mut Rng) -> u8 = |rng| rng.range_u8_inclusive(97, 100);
    let spanning: fn(&mut Rng) -> u8 = |rng| SPANNING[rng.range_usize(0, SPANNING.len())];
    let mut rng = Rng::seed_from_u64(0x50B2);
    for draw in [small, spanning] {
        for _ in 0..300 {
            let patterns: Vec<Vec<u8>> = (0..rng.range_usize(1, 6))
                .map(|_| (0..rng.range_usize(1, 5)).map(|_| draw(&mut rng)).collect())
                .collect();
            let haystack: Vec<u8> = (0..rng.range_usize(0, 200)).map(|_| draw(&mut rng)).collect();
            check(&patterns, &haystack);
        }
    }

    let signatures: Vec<Vec<u8>> = Dpi::demo_signatures().iter().map(|s| s.to_vec()).collect();
    let automaton = AhoCorasick::build(&Dpi::demo_signatures());
    let check_signatures = |haystack: &[u8]| {
        let want = naive_matches(&signatures, haystack);
        assert_eq!(automaton.count_matches(haystack), want, "{haystack:?}");
        want
    };
    for _ in 0..300 {
        let haystack: Vec<u8> =
            (0..rng.range_usize(0, 300)).map(|_| rng.range_u8_inclusive(0, 255)).collect();
        check_signatures(&haystack);
    }
    let mut found = 0;
    for _ in 0..2000 {
        let len = rng.range_usize(0, 64);
        let mut haystack = Vec::with_capacity(len + 11);
        while haystack.len() < len {
            let sig = &signatures[rng.range_usize(0, signatures.len())];
            let lo = rng.range_usize(0, sig.len());
            haystack.extend_from_slice(&sig[lo..rng.range_usize(lo + 1, sig.len() + 1)]);
        }
        haystack.truncate(len);
        found += check_signatures(&haystack);
    }
    assert!(found > 100, "only {found} matches in signature-fragment haystacks");
    for attack_prob in [0.0, 0.01, 1.0] {
        let mut planted = 0;
        for id in 0..200u64 {
            let len = rng.range_usize(0, 1500);
            let pkt = Packet::new(id, 0, random_tuple(&mut rng), 1500, 0).with_payload(
                len,
                0x50B2,
                attack_prob,
                &Dpi::demo_signatures(),
            );
            planted += u64::from(check_signatures(&pkt.payload) > 0);
        }
        assert_eq!(
            planted > 150,
            attack_prob == 1.0,
            "{planted} payloads planted at p = {attack_prob}"
        );
    }
}

/// No pipeline configuration loses or invents packets. This is the
/// suite-wide conservation sweep: every random two-stage pipeline must
/// satisfy `StageReport::conserves_packets` at every stage, and the
/// global delivered + dropped + in-flight accounting must equal the
/// injected count.
#[test]
fn pipelines_conserve_packets() {
    let mut rng = Rng::seed_from_u64(0x50B3);
    for _ in 0..60 {
        let servers1 = rng.range_u32(1, 4);
        let servers2 = rng.range_u32(1, 4);
        let cap1 = rng.range_usize(1, 64);
        let cap2 = rng.range_usize(1, 64);
        let rate_mpps = rng.range_u64(1, 20);
        let size = rng.range_u32(64, 1500);
        let seed = rng.range_u64(0, 1000);
        let engine = Engine::new(vec![
            StageConfig::new(
                "front",
                servers1,
                cap1,
                Box::new(NfService::host_core(NfChain::empty())),
            ),
            StageConfig::new("back", servers2, cap2, Box::new(LineRate::new("10G", 10e9))),
        ]);
        let wl = WorkloadSpec::cbr(rate_mpps as f64 * 1e6, size, 4, seed);
        let r = engine.run(&wl, 1_000_000, 0);
        for s in &r.stages {
            assert!(s.conserves_packets(), "stage {} leaks: {s:?}", s.name);
        }
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
    }
}

/// Batch stages conserve packets for any policy parameters, and
/// batching never delivers more than was offered.
#[test]
fn batch_stages_conserve_packets() {
    use apples::simnet::engine::BatchPolicy;
    use apples::simnet::service::FixedTime;
    let mut rng = Rng::seed_from_u64(0x50B4);
    for _ in 0..60 {
        let max_batch = rng.range_usize(1, 128);
        let timeout_us = rng.range_u64(1, 200);
        let kernel_us = rng.range_u64(0, 50);
        let rate_mpps = rng.range_u64(1, 8);
        let seed = rng.range_u64(0, 200);
        let engine = Engine::new(vec![StageConfig::new(
            "gpu",
            2,
            2048,
            Box::new(FixedTime::new("kernel", NfChain::empty(), 30)),
        )
        .with_batching(BatchPolicy::new(max_batch, timeout_us * 1000, kernel_us * 1000))]);
        let wl = WorkloadSpec::cbr(rate_mpps as f64 * 1e6, 300, 4, seed);
        let r = engine.run(&wl, 2_000_000, 0);
        assert!(r.stages[0].conserves_packets(), "{:?}", r.stages[0]);
        let accounted = r.sink.delivered_packets()
            + r.stages.iter().map(|s| s.queue_drops + s.policy_drops + s.in_flight).sum::<u64>();
        assert_eq!(accounted, r.injected);
        assert!(r.sink.delivered_packets() <= r.injected);
    }
}

/// Adding servers never reduces delivered throughput (work conservation
/// of the queueing model).
#[test]
fn more_servers_never_hurt() {
    for seed in 0..50u64 {
        let deliver = |servers: u32| {
            let engine = Engine::new(vec![StageConfig::new(
                "core",
                servers,
                128,
                Box::new(NfService::host_core(NfChain::empty())),
            )]);
            let wl = WorkloadSpec::cbr(12e6, 64, 4, seed);
            engine.run(&wl, 1_000_000, 0).sink.delivered_packets()
        };
        let one = deliver(1);
        let two = deliver(2);
        assert!(two + 8 >= one, "2 servers delivered {two} < 1 server {one}");
    }
}
