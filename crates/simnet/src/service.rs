//! Stage service models: how long a device takes to process a packet.
//!
//! The same NF chain costs different time on different hardware; these
//! models encode the difference:
//!
//! - [`NfService`]: a programmable core (host x86 or SmartNIC SoC core)
//!   pays the chain's cycle count at the core's clock, plus a fixed
//!   per-packet I/O overhead;
//! - [`FixedTime`]: a hardware match-action pipeline (programmable
//!   switch) executes the chain's *semantics* at a constant few-ns per
//!   packet — cycle counts do not apply to a pipelined ASIC;
//! - [`LineRate`]: a link or serializer whose service time is purely the
//!   packet's wire size over the rate.

use crate::nf::{NfChain, NfVerdict};
use crate::packet::Packet;

/// How a stage spends time on (and decides the fate of) a packet.
pub trait ServiceModel: Send {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Processes a packet: the verdict and the service time in ns.
    fn serve(&mut self, pkt: &Packet) -> (NfVerdict, u64);
}

/// Software packet processing on a programmable core.
pub struct NfService {
    chain: NfChain,
    clock_ghz: f64,
    overhead_cycles: u64,
    service_multiplier: f64,
    label: &'static str,
}

impl NfService {
    /// Creates a software service: `chain` executed at `clock_ghz` with
    /// `overhead_cycles` of per-packet I/O work (descriptor rings, cache
    /// misses) on top of the chain's own cycles.
    pub fn new(label: &'static str, chain: NfChain, clock_ghz: f64, overhead_cycles: u64) -> Self {
        assert!(clock_ghz > 0.0, "clock must be positive");
        NfService { chain, clock_ghz, overhead_cycles, service_multiplier: 1.0, label }
    }

    /// A host x86 core at 3 GHz with typical kernel-bypass I/O overhead.
    pub fn host_core(chain: NfChain) -> Self {
        NfService::new("x86-core", chain, 3.0, 300)
    }

    /// A host core in an `n`-core pool with memory/uncore contention:
    /// per-packet service inflates by `alpha` per additional active core
    /// — the standard first-order reason multi-core packet processing
    /// scales sub-linearly (the paper's 2-core baseline reaches 1.8x,
    /// not 2x).
    pub fn host_core_contended(chain: NfChain, cores: u32, alpha: f64) -> Self {
        assert!(alpha >= 0.0, "contention factor must be non-negative");
        NfService::host_core(chain)
            .with_service_multiplier(1.0 + alpha * f64::from(cores.saturating_sub(1)))
    }

    /// A SmartNIC SoC core: lower clock, but cheaper I/O (no PCIe
    /// round-trip to reach the packet).
    pub fn smartnic_core(chain: NfChain) -> Self {
        NfService::new("smartnic-core", chain, 1.5, 100)
    }

    /// Scales every service time by `m` (contention, frequency throttling).
    pub fn with_service_multiplier(mut self, m: f64) -> Self {
        assert!(m > 0.0, "multiplier must be positive");
        self.service_multiplier = m;
        self
    }
}

impl ServiceModel for NfService {
    fn name(&self) -> &'static str {
        self.label
    }

    fn serve(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let (verdict, cycles) = self.chain.run(pkt);
        let ns = (self.overhead_cycles + cycles) as f64 / self.clock_ghz * self.service_multiplier;
        (verdict, ns.ceil() as u64)
    }
}

/// Hardware match-action processing at a fixed per-packet latency.
pub struct FixedTime {
    chain: NfChain,
    per_packet_ns: u64,
    label: &'static str,
}

impl FixedTime {
    /// Creates a fixed-latency service executing `chain` semantics.
    pub fn new(label: &'static str, chain: NfChain, per_packet_ns: u64) -> Self {
        FixedTime { chain, per_packet_ns, label }
    }

    /// A programmable-switch pipeline: ~400 ns port-to-port.
    pub fn switch_pipeline(chain: NfChain) -> Self {
        FixedTime::new("switch-pipeline", chain, 400)
    }
}

impl ServiceModel for FixedTime {
    fn name(&self) -> &'static str {
        self.label
    }

    fn serve(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let (verdict, _cycles) = self.chain.run(pkt);
        (verdict, self.per_packet_ns)
    }
}

/// A serializing link: service time = wire bits / rate.
pub struct LineRate {
    rate_bps: f64,
    label: &'static str,
}

impl LineRate {
    /// Creates a link of the given rate in bits/second.
    pub fn new(label: &'static str, rate_bps: f64) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        LineRate { rate_bps, label }
    }
}

impl ServiceModel for LineRate {
    fn name(&self) -> &'static str {
        self.label
    }

    fn serve(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let ns = pkt.wire_bits() as f64 / self.rate_bps * 1e9;
        (NfVerdict::Forward, ns.ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::firewall::{synth_rules, Action, Firewall};
    use apples_workload::FiveTuple;

    fn pkt(size: u32) -> Packet {
        Packet::new(
            1,
            0,
            FiveTuple {
                src_ip: 0x0A000001,
                dst_ip: 0xC0A80001,
                src_port: 9999,
                dst_port: 80,
                proto: 6,
            },
            size,
            0,
        )
    }

    #[test]
    fn host_core_charges_cycles_at_clock() {
        let fw = Firewall::new(synth_rules(100, 0.0, 1), Action::Allow);
        let mut svc = NfService::host_core(NfChain::new(vec![Box::new(fw)]));
        let (v, ns) = svc.serve(&pkt(1500));
        assert_eq!(v, NfVerdict::Forward);
        // ~(300 + 500 + scan) cycles at 3 GHz: high hundreds of ns.
        assert!(ns > 200 && ns < 2000, "service {ns} ns");
    }

    #[test]
    fn smartnic_core_is_slower_per_cycle_but_cheaper_io() {
        let mk = || {
            let fw = Firewall::new(synth_rules(100, 0.0, 1), Action::Allow);
            NfChain::new(vec![Box::new(fw) as Box<dyn crate::nf::NetworkFunction>])
        };
        let mut host = NfService::host_core(mk());
        let mut nic = NfService::smartnic_core(mk());
        let (_, h) = host.serve(&pkt(64));
        let (_, n) = nic.serve(&pkt(64));
        // Same cycle count, half the clock, lower overhead: NIC core is
        // slower per packet but not 2x slower.
        assert!(n > h, "nic {n} vs host {h}");
        assert!((n as f64) < 2.0 * h as f64);
    }

    #[test]
    fn switch_pipeline_is_size_independent() {
        let mut svc = FixedTime::switch_pipeline(NfChain::empty());
        let (_, small) = svc.serve(&pkt(64));
        let (_, large) = svc.serve(&pkt(1518));
        assert_eq!(small, 400);
        assert_eq!(large, 400);
        assert_eq!(svc.name(), "switch-pipeline");
    }

    #[test]
    fn line_rate_serialization_delay() {
        let mut link = LineRate::new("100G", 100e9);
        let (_, ns) = link.serve(&pkt(1500));
        // (1500+20)*8 bits / 100 Gbps = 121.6 ns.
        assert_eq!(ns, 122);
        let (_, ns64) = link.serve(&pkt(64));
        assert_eq!(ns64, 7); // 672 bits / 100G = 6.72 ns
    }

    #[test]
    fn verdicts_propagate_from_chain() {
        let fw = Firewall::new(vec![], Action::Deny);
        let mut svc = NfService::host_core(NfChain::new(vec![Box::new(fw)]));
        let (v, _) = svc.serve(&pkt(64));
        assert_eq!(v, NfVerdict::Drop);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clock_rejected() {
        let _ = NfService::new("bad", NfChain::empty(), 0.0, 0);
    }
}
