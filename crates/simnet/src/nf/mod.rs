//! Network functions and their cycle-cost models.
//!
//! Each NF decides a packet's fate *and* reports how many CPU cycles the
//! decision cost; the service models in [`crate::service`] turn cycles
//! into simulated service time on whichever device executes the NF
//! (host core, SmartNIC core). This is the standard way software
//! packet-processing performance is modelled: cycles/packet dominates,
//! and accelerators change the cycle budget or the clock.

pub mod dpi;
pub mod firewall;
pub mod monitor;
pub mod nat;

use crate::packet::Packet;

/// What an NF decided about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfVerdict {
    /// Pass to the next function / stage.
    Forward,
    /// Drop by policy (firewall deny, IPS block).
    Drop,
}

/// What an NF does with a packet it cannot validate (fault-injected
/// corruption): security functions fail *closed* (drop what you cannot
/// inspect), connectivity functions fail *open* (pass what you cannot
/// transform).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Pass unverifiable packets through (availability over safety).
    Open,
    /// Drop unverifiable packets (safety over availability).
    Closed,
}

/// A network function: a packet transform with an explicit cycle cost.
pub trait NetworkFunction: Send {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Processes one packet, returning the verdict and the cycles spent.
    fn process(&mut self, pkt: &Packet) -> (NfVerdict, u64);

    /// Degradation policy for corrupted packets: fail closed unless
    /// overridden. Each NF type's mode is a constant.
    fn fail_mode(&self) -> FailMode {
        FailMode::Closed
    }

    /// Cycles spent recognizing a corrupted packet (checksum/parse
    /// failure detection) before the fail-mode policy applies.
    fn corrupt_handling_cycles(&self) -> u64 {
        40
    }
}

/// A chain of NFs executed in order; the first `Drop` short-circuits.
pub struct NfChain {
    functions: Vec<Box<dyn NetworkFunction>>,
}

impl NfChain {
    /// Builds a chain from boxed functions.
    pub fn new(functions: Vec<Box<dyn NetworkFunction>>) -> Self {
        NfChain { functions }
    }

    /// An empty (pure-forwarding) chain.
    pub fn empty() -> Self {
        NfChain { functions: Vec::new() }
    }

    /// Number of functions in the chain.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when the chain has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Runs the chain on a packet: total cycles of the functions that
    /// executed, and the final verdict.
    ///
    /// Corrupted packets (fault injection) never execute NF logic —
    /// each function charges its detection cost, and the first
    /// fail-closed function drops the packet; a chain of fail-open
    /// functions passes it through degraded.
    ///
    /// `#[inline]`: called once per packet per stage from the engine's
    /// run loop; inlining lets the empty-chain case (pure
    /// forwarding) collapse to a constant.
    #[inline]
    pub fn run(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let mut total = 0;
        if pkt.corrupted {
            for f in &mut self.functions {
                total += f.corrupt_handling_cycles();
                if f.fail_mode() == FailMode::Closed {
                    return (NfVerdict::Drop, total);
                }
            }
            return (NfVerdict::Forward, total);
        }
        for f in &mut self.functions {
            let (verdict, cycles) = f.process(pkt);
            total += cycles;
            if verdict == NfVerdict::Drop {
                return (NfVerdict::Drop, total);
            }
        }
        (NfVerdict::Forward, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_workload::FiveTuple;

    struct FixedNf {
        verdict: NfVerdict,
        cycles: u64,
        calls: u64,
    }

    impl NetworkFunction for FixedNf {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn process(&mut self, _pkt: &Packet) -> (NfVerdict, u64) {
            self.calls += 1;
            (self.verdict, self.cycles)
        }
    }

    fn pkt() -> Packet {
        Packet::new(
            1,
            0,
            FiveTuple { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, proto: 6 },
            64,
            0,
        )
    }

    #[test]
    fn chain_sums_cycles_on_forward() {
        let mut chain = NfChain::new(vec![
            Box::new(FixedNf { verdict: NfVerdict::Forward, cycles: 100, calls: 0 }),
            Box::new(FixedNf { verdict: NfVerdict::Forward, cycles: 50, calls: 0 }),
        ]);
        let (v, c) = chain.run(&pkt());
        assert_eq!(v, NfVerdict::Forward);
        assert_eq!(c, 150);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn chain_short_circuits_on_drop() {
        let mut chain = NfChain::new(vec![
            Box::new(FixedNf { verdict: NfVerdict::Drop, cycles: 100, calls: 0 }),
            Box::new(FixedNf { verdict: NfVerdict::Forward, cycles: 50, calls: 0 }),
        ]);
        let (v, c) = chain.run(&pkt());
        assert_eq!(v, NfVerdict::Drop);
        assert_eq!(c, 100, "the dropping NF's work is counted; later NFs never run");
    }

    #[test]
    fn empty_chain_forwards_for_free() {
        let mut chain = NfChain::empty();
        assert!(chain.is_empty());
        let (v, c) = chain.run(&pkt());
        assert_eq!(v, NfVerdict::Forward);
        assert_eq!(c, 0);
    }

    struct OpenNf;
    impl NetworkFunction for OpenNf {
        fn name(&self) -> &'static str {
            "open"
        }
        fn process(&mut self, _pkt: &Packet) -> (NfVerdict, u64) {
            (NfVerdict::Forward, 10)
        }
        fn fail_mode(&self) -> FailMode {
            FailMode::Open
        }
    }

    #[test]
    fn corrupted_packet_drops_at_first_fail_closed_nf() {
        // Open NF passes the corrupted packet (charging detection
        // cycles); the fail-closed FixedNf drops it without running.
        let mut chain = NfChain::new(vec![
            Box::new(OpenNf),
            Box::new(FixedNf { verdict: NfVerdict::Forward, cycles: 100, calls: 0 }),
        ]);
        let mut p = pkt();
        p.corrupted = true;
        let (v, c) = chain.run(&p);
        assert_eq!(v, NfVerdict::Drop);
        assert_eq!(c, 80, "two detection charges (40 each), no NF logic cycles");
    }

    #[test]
    fn corrupted_packet_survives_an_all_open_chain() {
        let mut chain = NfChain::new(vec![Box::new(OpenNf), Box::new(OpenNf)]);
        let mut p = pkt();
        p.corrupted = true;
        let (v, c) = chain.run(&p);
        assert_eq!(v, NfVerdict::Forward);
        assert_eq!(c, 80);
    }

    #[test]
    fn corrupted_packet_never_executes_nf_logic() {
        let mut chain = NfChain::new(vec![Box::new(FixedNf {
            verdict: NfVerdict::Forward,
            cycles: 9,
            calls: 0,
        })]);
        let mut p = pkt();
        p.corrupted = true;
        let (_, c) = chain.run(&p);
        assert_eq!(c, 40, "detection cost only — process() must not run");
    }

    /// Each real NF's fixed fail mode, one NF at a time. Every
    /// deployment puts a fail-closed firewall ahead of NAT, so NAT never
    /// sees a corrupted packet there and no golden pins its mode.
    #[test]
    fn nat_forwards_a_corrupted_packet_and_every_other_nf_drops_it() {
        use super::dpi::Dpi;
        use super::firewall::{Action, BucketedFirewall, Firewall};
        use super::monitor::FlowMonitor;
        use super::nat::Nat;
        let mut p = pkt();
        p.corrupted = true;
        let verdict = |nf: Box<dyn NetworkFunction>| NfChain::new(vec![nf]).run(&p).0;
        assert_eq!(verdict(Box::new(Nat::new(1, 16))), NfVerdict::Forward);
        let closed: [Box<dyn NetworkFunction>; 4] = [
            Box::new(Firewall::new(Vec::new(), Action::Allow)),
            Box::new(BucketedFirewall::new(Vec::new(), Action::Allow)),
            Box::new(Dpi::new(&Dpi::demo_signatures())),
            Box::new(FlowMonitor::new(4, 64, 1_000)),
        ];
        for nf in closed {
            let name = nf.name();
            assert_eq!(verdict(nf), NfVerdict::Drop, "{name}");
        }
    }
}
