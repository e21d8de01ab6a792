//! Source NAT with a bounded flow table.
//!
//! Models the canonical stateful NF: per-flow state created on first
//! sight, hit on every subsequent packet. The cycle cost separates the
//! cheap hit path from the expensive miss path (allocation + insertion),
//! so workloads with more flows or more churn cost more — exactly the
//! behaviour that motivates state-offload systems.

use super::{FailMode, NetworkFunction, NfVerdict};
use crate::packet::Packet;
use apples_workload::FiveTuple;
use std::collections::{BTreeMap, VecDeque};

/// Cycles for a flow-table hit (hash + compare).
pub const HIT_CYCLES: u64 = 120;
/// Additional cycles for a miss (port allocation + insertion).
pub const MISS_CYCLES: u64 = 800;

/// A translated address/port binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// Public source address.
    pub ip: u32,
    /// Public source port.
    pub port: u16,
}

/// Source NAT: rewrites (conceptually) the source address/port of every
/// flow to a public binding, evicting the oldest flow when the table is
/// full.
pub struct Nat {
    public_ip: u32,
    table: BTreeMap<FiveTuple, Binding>,
    order: VecDeque<FiveTuple>,
    capacity: usize,
    next_port: u16,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Nat {
    /// Creates a NAT with a flow-table capacity.
    pub fn new(public_ip: u32, capacity: usize) -> Self {
        assert!(capacity > 0, "NAT table capacity must be positive");
        Nat {
            public_ip,
            table: BTreeMap::new(),
            order: VecDeque::with_capacity(capacity),
            capacity,
            next_port: 1024,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Current number of tracked flows.
    pub fn flows(&self) -> usize {
        self.table.len()
    }

    /// Flow-table hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Flow-table misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions forced by capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The binding for a tuple, if present.
    pub fn binding(&self, t: &FiveTuple) -> Option<Binding> {
        self.table.get(t).copied()
    }

    fn allocate(&mut self, t: FiveTuple) -> Binding {
        if self.table.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.table.remove(&oldest);
                self.evictions += 1;
            }
        }
        let b = Binding { ip: self.public_ip, port: self.next_port };
        self.next_port = if self.next_port == u16::MAX { 1024 } else { self.next_port + 1 };
        self.table.insert(t, b);
        self.order.push_back(t);
        b
    }
}

impl NetworkFunction for Nat {
    fn name(&self) -> &'static str {
        "source-nat"
    }

    fn process(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        if self.table.contains_key(&pkt.tuple) {
            self.hits += 1;
            (NfVerdict::Forward, HIT_CYCLES)
        } else {
            self.misses += 1;
            self.allocate(pkt.tuple);
            (NfVerdict::Forward, HIT_CYCLES + MISS_CYCLES)
        }
    }

    /// Connectivity function: an untranslatable packet passes through
    /// untranslated rather than blackholing the flow.
    fn fail_mode(&self) -> FailMode {
        FailMode::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(n: u32) -> FiveTuple {
        FiveTuple { src_ip: n, dst_ip: 0xC0A80001, src_port: 1000, dst_port: 80, proto: 6 }
    }

    fn pkt(t: FiveTuple) -> Packet {
        Packet::new(1, 0, t, 64, 0)
    }

    #[test]
    fn first_packet_misses_then_hits() {
        let mut nat = Nat::new(0xC0A80101, 16);
        let (v, c) = nat.process(&pkt(tuple(1)));
        assert_eq!(v, NfVerdict::Forward);
        assert_eq!(c, HIT_CYCLES + MISS_CYCLES);
        let (_, c) = nat.process(&pkt(tuple(1)));
        assert_eq!(c, HIT_CYCLES);
        assert_eq!(nat.hits(), 1);
        assert_eq!(nat.misses(), 1);
        assert_eq!(nat.flows(), 1);
    }

    #[test]
    fn bindings_are_distinct_per_flow() {
        let mut nat = Nat::new(0xC0A80101, 16);
        nat.process(&pkt(tuple(1)));
        nat.process(&pkt(tuple(2)));
        let b1 = nat.binding(&tuple(1)).unwrap();
        let b2 = nat.binding(&tuple(2)).unwrap();
        assert_ne!(b1.port, b2.port);
        assert_eq!(b1.ip, 0xC0A80101);
    }

    #[test]
    fn capacity_forces_fifo_eviction() {
        let mut nat = Nat::new(1, 2);
        nat.process(&pkt(tuple(1)));
        nat.process(&pkt(tuple(2)));
        nat.process(&pkt(tuple(3))); // evicts flow 1
        assert_eq!(nat.flows(), 2);
        assert_eq!(nat.evictions(), 1);
        assert!(nat.binding(&tuple(1)).is_none());
        assert!(nat.binding(&tuple(3)).is_some());
        // Re-seeing flow 1 is a miss again.
        let (_, c) = nat.process(&pkt(tuple(1)));
        assert_eq!(c, HIT_CYCLES + MISS_CYCLES);
    }

    #[test]
    fn port_allocation_wraps() {
        let mut nat = Nat::new(1, 4);
        nat.next_port = u16::MAX;
        nat.process(&pkt(tuple(1)));
        assert_eq!(nat.binding(&tuple(1)).unwrap().port, u16::MAX);
        nat.process(&pkt(tuple(2)));
        assert_eq!(nat.binding(&tuple(2)).unwrap().port, 1024);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Nat::new(1, 0);
    }
}
