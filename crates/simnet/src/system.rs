//! Deployments: named hardware configurations that can be measured.
//!
//! A [`Deployment`] couples a simulation pipeline (what processes
//! packets, in what order, with how many servers) with a power inventory
//! (which devices draw watts, keyed to stage utilizations). Running one
//! against a workload yields a [`Measurement`], which converts directly
//! into the `(performance, cost)` [`OperatingPoint`]s and [`System`]s
//! the methodology engine consumes.
//!
//! Three presets cover the paper's §4 cast:
//!
//! - [`Deployment::cpu_host`]: the software baseline — an NF chain on
//!   `n` host cores;
//! - [`Deployment::smartnic_offload`]: part of the chain runs on
//!   SmartNIC cores, the rest on host cores (§4.2's proposed system);
//! - [`Deployment::switch_frontend`]: a programmable switch executes a
//!   preprocessing chain at line rate in front of the host (§4.2.1).

use crate::engine::{Engine, NextHop, PayloadConfig, RunResult, StageConfig, StageReport};
use crate::fault::{FaultPlan, FaultSpec};
use crate::nf::NfChain;
use crate::service::{FixedTime, NfService};
use apples_core::{OperatingPoint, System};
use apples_metrics::cost::{CostMetric, DeviceClass};
use apples_metrics::perf::PerfMetric;
use apples_metrics::quantity::{bps, micros, pps as pps_q, ratio, watts};
use apples_obs::{ObsConfig, Provenance, RunObserver};
use apples_power::devices::DeviceSpec;
use apples_workload::WorkloadSpec;

/// Decouples the fault-plan seed stream from the workload's own RNG
/// stream: the same workload seed drives both, but through different
/// hash paths.
const FAULT_SEED_SALT: u64 = 0xfa17_ab1e_5eed_0001;

/// Where a power line's utilization comes from after a run.
#[derive(Debug, Clone, Copy)]
pub enum UtilSource {
    /// A fixed utilization (always-on components).
    Fixed(f64),
    /// The utilization of pipeline stage `i`.
    Stage(usize),
}

struct PowerLine {
    device: DeviceSpec,
    count: u32,
    source: UtilSource,
}

/// Builds [`Deployment`]s: arbitrary stage topologies paired with an
/// explicit power inventory. Every preset is built with it, and it
/// serves everything the presets do not cover (and sensitivity studies
/// that perturb the device constants).
pub struct DeploymentBuilder {
    name: String,
    stage_factories: Vec<StageFactory>,
    power_lines: Vec<PowerLine>,
}

impl DeploymentBuilder {
    /// Starts a builder for a named deployment.
    pub fn new(name: impl Into<String>) -> Self {
        DeploymentBuilder {
            name: name.into(),
            stage_factories: Vec::new(),
            power_lines: Vec::new(),
        }
    }

    /// Appends a pipeline stage (constructed fresh for every run, since
    /// stages hold mutable NF state).
    pub fn stage(mut self, factory: impl Fn() -> StageConfig + 'static) -> Self {
        self.stage_factories.push(Box::new(factory));
        self
    }

    /// Adds `count` instances of `device` whose utilization comes from
    /// `source` (Principle 3: list *everything* the datapath needs).
    pub fn power(mut self, device: DeviceSpec, count: u32, source: UtilSource) -> Self {
        self.power_lines.push(PowerLine { device, count, source });
        self
    }

    /// Finishes the deployment.
    ///
    /// # Panics
    /// If no stages were added, or a power line references a
    /// nonexistent stage.
    pub fn build(self) -> Deployment {
        assert!(!self.stage_factories.is_empty(), "a deployment needs at least one stage");
        for l in &self.power_lines {
            if let UtilSource::Stage(i) = l.source {
                assert!(
                    i < self.stage_factories.len(),
                    "power line '{}' references nonexistent stage {i}",
                    l.device.name
                );
            }
        }
        Deployment {
            name: self.name,
            stage_factories: self.stage_factories,
            power_lines: self.power_lines,
            payload: None,
            faults: None,
            fused: true,
        }
    }
}

type StageFactory = Box<dyn Fn() -> StageConfig>;

/// A named, runnable hardware configuration.
///
/// # Examples
///
/// Measure a one-core host and read off its (throughput, power) point:
///
/// ```
/// use apples_simnet::nf::NfChain;
/// use apples_simnet::system::Deployment;
/// use apples_workload::WorkloadSpec;
///
/// let d = Deployment::cpu_host("fwd", 1, NfChain::empty);
/// let m = d.run(&WorkloadSpec::cbr(100_000.0, 64, 4, 1), 2_000_000, 200_000);
/// assert!(m.throughput_bps > 0.0);
/// assert!(m.watts > 20.0); // at least the chassis floor
/// let point = m.throughput_power_point();
/// assert_eq!(point.cost().metric().name(), "power draw");
/// ```
pub struct Deployment {
    name: String,
    stage_factories: Vec<StageFactory>,
    power_lines: Vec<PowerLine>,
    payload: Option<PayloadConfig>,
    faults: Option<FaultSpec>,
    fused: bool,
}

impl Deployment {
    /// A CPU-only host: `cores` cores running `chain` (built fresh per
    /// run), behind a conventional NIC. The same host as
    /// [`Deployment::cpu_host_contended`] without contention.
    pub fn cpu_host(
        name: impl Into<String>,
        cores: u32,
        chain: impl Fn() -> NfChain + 'static,
    ) -> Self {
        Deployment::cpu_host_contended(name, cores, 0.0, chain)
    }

    /// A CPU-only host whose cores contend for memory bandwidth: service
    /// inflates by `alpha` per extra active core, so throughput scales
    /// sub-linearly in `cores` — the realistic baseline the paper's
    /// measured 2-core point (1.8x, not 2x) reflects.
    pub fn cpu_host_contended(
        name: impl Into<String>,
        cores: u32,
        alpha: f64,
        chain: impl Fn() -> NfChain + 'static,
    ) -> Self {
        DeploymentBuilder::new(name)
            .stage(move || {
                StageConfig::new(
                    "host-cores",
                    cores,
                    1024,
                    Box::new(NfService::host_core_contended(chain(), cores, alpha)),
                )
            })
            .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
            .power(DeviceSpec::xeon_core(), cores, UtilSource::Stage(0))
            .power(DeviceSpec::dumb_nic_100g(), 1, UtilSource::Stage(0))
            .build()
    }

    /// A SmartNIC-accelerated host: `nic_chain` runs on `nic_cores`
    /// SmartNIC cores first; survivors continue to `host_chain` on
    /// `host_cores` host cores.
    pub fn smartnic_offload(
        name: impl Into<String>,
        nic_cores: u32,
        nic_chain: impl Fn() -> NfChain + 'static,
        host_cores: u32,
        host_chain: impl Fn() -> NfChain + 'static,
    ) -> Self {
        DeploymentBuilder::new(name)
            .stage(move || {
                StageConfig::new(
                    "smartnic-cores",
                    nic_cores,
                    2048,
                    Box::new(NfService::smartnic_core(nic_chain())),
                )
            })
            .stage(move || {
                StageConfig::new(
                    "host-cores",
                    host_cores,
                    1024,
                    Box::new(NfService::host_core(host_chain())),
                )
            })
            .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
            .power(DeviceSpec::xeon_core(), host_cores, UtilSource::Stage(1))
            .power(DeviceSpec::smartnic_100g(), 1, UtilSource::Stage(0))
            .build()
    }

    /// A host behind a programmable switch: the switch executes
    /// `switch_chain` semantics at line rate (fixed 400 ns pipeline
    /// latency); survivors hit `host_chain` on the host cores.
    pub fn switch_frontend(
        name: impl Into<String>,
        switch_chain: impl Fn() -> NfChain + 'static,
        host_cores: u32,
        host_chain: impl Fn() -> NfChain + 'static,
    ) -> Self {
        DeploymentBuilder::new(name)
            .stage(move || {
                StageConfig::new(
                    "switch-pipeline",
                    1024,
                    4096,
                    Box::new(FixedTime::switch_pipeline(switch_chain())),
                )
            })
            .stage(move || {
                StageConfig::new(
                    "host-cores",
                    host_cores,
                    1024,
                    Box::new(NfService::host_core(host_chain())),
                )
            })
            .power(DeviceSpec::programmable_switch_32x100g(), 1, UtilSource::Stage(0))
            .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
            .power(DeviceSpec::xeon_core(), host_cores, UtilSource::Stage(1))
            .power(DeviceSpec::dumb_nic_100g(), 1, UtilSource::Stage(1))
            .build()
    }

    /// A GPU-offloaded host: a host RX core batches packets to a GPU
    /// that executes `gpu_chain` semantics with a per-kernel launch cost
    /// amortized over the batch. The defining trade: enormous throughput
    /// at a latency floor set by batch formation (§4.3's non-scalable
    /// latency, in accelerator form).
    pub fn gpu_offload(
        name: impl Into<String>,
        batch: crate::engine::BatchPolicy,
        gpu_chain: impl Fn() -> NfChain + 'static,
    ) -> Self {
        DeploymentBuilder::new(name)
            // RX core: cheap per-packet handoff into the batcher.
            .stage(|| {
                StageConfig::new(
                    "rx-core",
                    1,
                    4096,
                    Box::new(NfService::new("rx-core", NfChain::empty(), 3.0, 150)),
                )
            })
            // The GPU: 2 concurrent kernel streams, 30 ns marginal per
            // packet inside a kernel.
            .stage(move || {
                StageConfig::new(
                    "gpu",
                    2,
                    8192,
                    Box::new(FixedTime::new("gpu-kernel", gpu_chain(), 30)),
                )
                .with_batching(batch)
            })
            .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
            .power(DeviceSpec::xeon_core(), 1, UtilSource::Stage(0))
            .power(DeviceSpec::gpu_accelerator(), 1, UtilSource::Stage(1))
            .power(DeviceSpec::dumb_nic_100g(), 1, UtilSource::Stage(0))
            .build()
    }

    /// A horizontally scaled cluster: `replicas` identical CPU hosts
    /// behind a line-rate flow splitter (a plain L2 switch doing ECMP by
    /// flow hash — *not* a programmable offload; it costs its own watts
    /// but does no NF work).
    ///
    /// This is Principle 5 made literal: instead of *assuming* how the
    /// baseline scales, provision it at `replicas` hosts and measure.
    /// The cluster's cost includes every chassis, every core, every NIC,
    /// and the splitter — the end-to-end coverage Principle 3 demands
    /// when scaling (§4.2.1's second pitfall is charging less).
    pub fn replicated_cluster(
        name: impl Into<String>,
        replicas: u32,
        cores_per_host: u32,
        alpha: f64,
        chain: impl Fn() -> NfChain + 'static,
    ) -> Self {
        assert!(replicas > 0, "need at least one replica");
        let chain = std::rc::Rc::new(chain);
        // Stage 0: the ECMP splitter — line-rate, no NF semantics. It is
        // a (non-programmable) switch; its envelope is modelled with the
        // same class of box.
        let mut builder = DeploymentBuilder::new(name)
            .stage(move || {
                StageConfig::new(
                    "ecmp-splitter",
                    1024,
                    8192,
                    Box::new(FixedTime::new("ecmp-splitter", NfChain::empty(), 400)),
                )
                .with_next(NextHop::FlowHash { first: 1, count: replicas })
            })
            .power(DeviceSpec::programmable_switch_32x100g(), 1, UtilSource::Stage(0));
        for i in 0..replicas {
            let chain = chain.clone();
            let host_stage = 1 + i as usize;
            builder = builder
                .stage(move || {
                    StageConfig::new(
                        "host",
                        cores_per_host,
                        1024,
                        Box::new(NfService::host_core_contended(chain(), cores_per_host, alpha)),
                    )
                    .with_next(NextHop::Sink)
                })
                .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
                .power(DeviceSpec::xeon_core(), cores_per_host, UtilSource::Stage(host_stage))
                .power(DeviceSpec::dumb_nic_100g(), 1, UtilSource::Stage(host_stage));
        }
        builder.build()
    }

    /// A CPU host with RSS (receive-side scaling): the NIC hashes each
    /// flow to one of `cores` single-core queues, instead of all cores
    /// sharing one queue.
    ///
    /// This is how real multi-core packet processing is actually wired
    /// (per-core queues, flow affinity, no cross-core locking). The
    /// trade-off against the shared-queue model used by
    /// [`Deployment::cpu_host`] is classical queueing theory: a shared
    /// queue (M/M/c-like) pools capacity and wins on tail latency, while
    /// RSS suffers head-of-line blocking on whichever core the popular
    /// flows hash to — measurable with skewed (Zipf) flow populations.
    pub fn cpu_host_rss(
        name: impl Into<String>,
        cores: u32,
        chain: impl Fn() -> NfChain + 'static,
    ) -> Self {
        assert!(cores > 0, "need at least one core");
        let chain = std::rc::Rc::new(chain);
        // Stage 0: the NIC's RSS demux — line-rate hashing, steers by
        // flow hash to core stage 1..=cores.
        let mut builder = DeploymentBuilder::new(name)
            .stage(move || {
                StageConfig::new(
                    "nic-rss-demux",
                    256,
                    4096,
                    Box::new(FixedTime::new("nic-rss-demux", NfChain::empty(), 50)),
                )
                .with_next(NextHop::FlowHash { first: 1, count: cores })
            })
            .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
            .power(DeviceSpec::dumb_nic_100g(), 1, UtilSource::Stage(0));
        for i in 0..cores {
            let chain = chain.clone();
            builder = builder
                .stage(move || {
                    StageConfig::new("rss-core", 1, 1024, Box::new(NfService::host_core(chain())))
                        .with_next(NextHop::Sink)
                })
                .power(DeviceSpec::xeon_core(), 1, UtilSource::Stage(1 + i as usize));
        }
        builder.build()
    }

    /// An FPGA-NIC-accelerated host (a Pigasus-style IPS shape, cf. the
    /// paper's reference 42): the FPGA pipeline executes `fpga_chain` (typically
    /// DPI) at a fixed per-packet latency regardless of payload length;
    /// survivors continue to `host_chain` on the host cores.
    pub fn fpga_offload(
        name: impl Into<String>,
        fpga_chain: impl Fn() -> NfChain + 'static,
        host_cores: u32,
        host_chain: impl Fn() -> NfChain + 'static,
    ) -> Self {
        DeploymentBuilder::new(name)
            .stage(move || {
                StageConfig::new(
                    "fpga-pipeline",
                    512,
                    4096,
                    Box::new(FixedTime::new("fpga-pipeline", fpga_chain(), 1_000)),
                )
            })
            .stage(move || {
                StageConfig::new(
                    "host-cores",
                    host_cores,
                    1024,
                    Box::new(NfService::host_core(host_chain())),
                )
            })
            .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
            .power(DeviceSpec::xeon_core(), host_cores, UtilSource::Stage(1))
            .power(DeviceSpec::fpga_nic_100g(), 1, UtilSource::Stage(0))
            .build()
    }

    /// Enables payload synthesis (for DPI pipelines).
    pub fn with_payloads(mut self, attack_prob: f64, needles: Vec<Vec<u8>>) -> Self {
        self.payload = Some(PayloadConfig { attack_prob, needles });
        self
    }

    /// Selects whether zero-latency stage hops are fused (processed in
    /// the same timestamp walk, the default) or re-enqueued through the
    /// event queue one hop at a time. The unfused path is the
    /// reference oracle for the fusion optimization — results are
    /// byte-identical either way.
    pub fn with_fusion(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Attaches a fault spec: every run derives a [`FaultPlan`] from
    /// `(workload seed, spec)` and injects it. A [`FaultSpec::none`]
    /// spec leaves runs bit-for-bit unchanged.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// The concrete fault plan a run against `workload_seed` over
    /// `duration_ns` would inject — the replay token for
    /// determinism-under-faults tests. `None` when the deployment has
    /// no fault spec.
    pub fn fault_plan(&self, workload_seed: u64, duration_ns: u64) -> Option<FaultPlan> {
        self.faults.as_ref().map(|spec| {
            FaultPlan::derive(
                apples_rng::mix64(workload_seed ^ FAULT_SEED_SALT),
                spec,
                self.stage_factories.len(),
                duration_ns,
            )
        })
    }

    /// The deployment's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device classes in the power inventory (for Principle 3).
    pub fn device_classes(&self) -> Vec<DeviceClass> {
        let mut v: Vec<DeviceClass> = self.power_lines.iter().map(|l| l.device.class).collect();
        v.sort();
        v.dedup();
        v
    }

    /// The rack space the power inventory occupies: count × rack units,
    /// summed over every power line.
    pub fn rack_units(&self) -> f64 {
        self.power_lines.iter().map(|l| f64::from(l.count) * l.device.rack_units).sum()
    }

    /// Runs the deployment against a workload and measures it.
    pub fn run(&self, workload: &WorkloadSpec, duration_ns: u64, warmup_ns: u64) -> Measurement {
        let result = self.engine(workload, duration_ns).run(workload, duration_ns, warmup_ns);
        self.measurement(result)
    }

    /// Runs the deployment with observability attached: same simulated
    /// numbers as [`Deployment::run`] (the observer never feeds back
    /// into the simulation), plus the trace/telemetry/span state the
    /// run accumulated.
    pub fn run_observed(
        &self,
        workload: &WorkloadSpec,
        duration_ns: u64,
        warmup_ns: u64,
        cfg: &ObsConfig,
    ) -> (Measurement, RunObserver) {
        let (result, observer) = self.engine(workload, duration_ns).run_observed(
            workload,
            duration_ns,
            warmup_ns,
            RunObserver::new(cfg),
        );
        (self.measurement(result), observer)
    }

    /// A fresh engine for one run: new stages (so no NF state survives
    /// from an earlier run), the payload synthesis and the fault plan.
    fn engine(&self, workload: &WorkloadSpec, duration_ns: u64) -> Engine {
        let stages: Vec<StageConfig> = self.stage_factories.iter().map(|f| f()).collect();
        let mut engine = Engine::new(stages).with_fusion(self.fused);
        if let Some(cfg) = &self.payload {
            engine = engine.with_payloads(cfg.clone());
        }
        if let Some(plan) = self.fault_plan(workload.seed, duration_ns) {
            engine = engine.with_fault_plan(plan);
        }
        engine
    }

    /// Prices a run's stage utilizations through the power lines and
    /// reads the sink's figures off its result.
    fn measurement(&self, result: RunResult) -> Measurement {
        let total_watts: f64 = self
            .power_lines
            .iter()
            .map(|l| {
                let u = match l.source {
                    UtilSource::Fixed(u) => u,
                    UtilSource::Stage(i) => result.stages.get(i).map_or(0.0, |s| s.utilization),
                };
                f64::from(l.count) * l.device.watts_at(u)
            })
            .sum();

        Measurement {
            name: self.name.clone(),
            device_classes: self.device_classes(),
            throughput_bps: result.sink.throughput_bps(result.window_ns),
            throughput_pps: result.sink.throughput_pps(result.window_ns),
            mean_latency_ns: result.sink.latency().mean(),
            p99_latency_ns: result.sink.latency().quantile(0.99) as f64,
            loss_rate: result.sink.loss_rate(),
            jain_index: result.sink.jain_index(),
            policy_drops: result.sink.policy_drops(),
            fault_drops: result.sink.fault_drops(),
            injected_drops: result.injected_drops,
            corrupted: result.corrupted,
            watts: total_watts,
            stages: result.stages,
        }
    }

    /// Canonical digest of everything that determines a run's simulated
    /// outputs: the deployment shape, fault spec, payload
    /// synthesis (attack probability and needle bytes), workload spec,
    /// and measurement window.
    pub fn config_digest(
        &self,
        workload: &WorkloadSpec,
        duration_ns: u64,
        warmup_ns: u64,
    ) -> String {
        // Payloads off keeps the original `payload=false` field, so every
        // stamp of a header-only deployment is unchanged.
        let payload = match &self.payload {
            None => "false".to_owned(),
            Some(p) => format!("true:{:016x}:{:?}", p.attack_prob.to_bits(), p.needles),
        };
        let s = format!(
            "name={};stages={};faults={:?};payload={};wl={:?};dur={};warm={}",
            self.name,
            self.stage_factories.len(),
            self.faults,
            payload,
            workload,
            duration_ns,
            warmup_ns
        );
        apples_obs::fnv1a_hex(s.as_bytes())
    }

    /// The provenance stamp a run of this deployment against `workload`
    /// over the given window carries.
    pub fn provenance(
        &self,
        workload: &WorkloadSpec,
        duration_ns: u64,
        warmup_ns: u64,
    ) -> Provenance {
        let fault_digest = match &self.faults {
            Some(spec) => spec.digest(),
            None => "none".to_owned(),
        };
        Provenance::new(
            workload.seed,
            fault_digest,
            self.config_digest(workload, duration_ns, warmup_ns),
        )
    }
}

/// Everything a run measured, plus conversions to methodology inputs.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Deployment name.
    pub name: String,
    /// Device classes used (Principle 3 input).
    pub device_classes: Vec<DeviceClass>,
    /// Delivered throughput, bits/second.
    pub throughput_bps: f64,
    /// Delivered throughput, packets/second.
    pub throughput_pps: f64,
    /// Mean end-to-end latency, ns.
    pub mean_latency_ns: f64,
    /// 99th-percentile latency, ns.
    pub p99_latency_ns: f64,
    /// Overload loss fraction.
    pub loss_rate: f64,
    /// Jain's fairness index over per-flow bytes (None if nothing ran).
    pub jain_index: Option<f64>,
    /// Packets dropped by NF policy (work done, not loss).
    pub policy_drops: u64,
    /// Packets lost to injected faults in the measurement window.
    pub fault_drops: u64,
    /// Packets the fault plan dropped at the injection point (whole run).
    pub injected_drops: u64,
    /// Packets the fault plan marked corrupted (whole run).
    pub corrupted: u64,
    /// End-to-end power at measured utilizations, watts.
    pub watts: f64,
    /// Per-stage reports.
    pub stages: Vec<StageReport>,
}

impl Measurement {
    /// Every field of the measurement, per-stage reports included, in its
    /// derived `Debug` form. That form lists every field, new ones too,
    /// and prints each float as the shortest decimal that round-trips, so
    /// two runs produced the same numbers exactly when their fingerprints
    /// are equal: one ULP of drift anywhere shows.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }

    /// Energy per delivered bit, in joules/bit — the JouleSort-style
    /// (the paper's reference 28) energy-efficiency figure: average power over
    /// delivered throughput. `None` when nothing was delivered.
    ///
    /// Note this is the reciprocal of
    /// [`apples_core::efficiency::perf_per_cost`] on the
    /// (throughput, power) axes, so rankings by either agree.
    pub fn joules_per_bit(&self) -> Option<f64> {
        if self.throughput_bps <= 0.0 {
            None
        } else {
            Some(self.watts / self.throughput_bps)
        }
    }

    /// (throughput, power) operating point — the paper's default axes.
    pub fn throughput_power_point(&self) -> OperatingPoint {
        OperatingPoint::new(
            PerfMetric::throughput_bps().value(bps(self.throughput_bps)),
            CostMetric::power_draw().value(watts(self.watts)),
        )
    }

    /// (packet rate, power) operating point.
    pub fn pps_power_point(&self) -> OperatingPoint {
        OperatingPoint::new(
            PerfMetric::throughput_pps().value(pps_q(self.throughput_pps)),
            CostMetric::power_draw().value(watts(self.watts)),
        )
    }

    /// (mean latency, power) operating point — §4.3's non-scalable axes.
    pub fn latency_power_point(&self) -> OperatingPoint {
        OperatingPoint::new(
            PerfMetric::latency().value(micros(self.mean_latency_ns / 1000.0)),
            CostMetric::power_draw().value(watts(self.watts)),
        )
    }

    /// (p99 latency, power) operating point.
    pub fn p99_power_point(&self) -> OperatingPoint {
        OperatingPoint::new(
            PerfMetric::p99_latency().value(micros(self.p99_latency_ns / 1000.0)),
            CostMetric::power_draw().value(watts(self.watts)),
        )
    }

    /// (Jain's index, power) operating point — the other §4.3 metric.
    pub fn jain_power_point(&self) -> Option<OperatingPoint> {
        self.jain_index.map(|j| {
            OperatingPoint::new(
                PerfMetric::jains_fairness_index().value(ratio(j)),
                CostMetric::power_draw().value(watts(self.watts)),
            )
        })
    }

    /// A methodology [`System`] on the (throughput, power) axes.
    pub fn as_system(&self) -> System {
        System::new(self.name.clone(), self.device_classes.clone(), self.throughput_power_point())
    }

    /// A methodology [`System`] on the (latency, power) axes.
    pub fn as_latency_system(&self) -> System {
        System::new(self.name.clone(), self.device_classes.clone(), self.latency_power_point())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::firewall::{synth_rules, Action, Firewall};

    fn firewall_chain(rules: usize) -> impl Fn() -> NfChain {
        move || {
            NfChain::new(vec![Box::new(Firewall::new(synth_rules(rules, 0.05, 7), Action::Deny))])
        }
    }

    fn light_workload() -> WorkloadSpec {
        WorkloadSpec::cbr(200_000.0, 1500, 16, 5)
    }

    #[test]
    fn cpu_host_measures_throughput_and_power() {
        let d = Deployment::cpu_host("baseline-fw", 1, firewall_chain(100));
        let m = d.run(&light_workload(), 20_000_000, 2_000_000);
        assert!(m.throughput_bps > 0.0);
        // Light load: power near idle floor (20 + ~1 + ~4 = ~25 W).
        assert!(m.watts > 24.0 && m.watts < 40.0, "watts {}", m.watts);
        assert_eq!(m.device_classes, vec![DeviceClass::Cpu, DeviceClass::Nic]);
    }

    #[test]
    fn saturated_cpu_host_draws_full_core_power() {
        let d = Deployment::cpu_host("baseline-fw", 1, firewall_chain(100));
        // Offered load far above one core's capacity.
        let wl = WorkloadSpec::cbr(5e6, 1500, 16, 5);
        let m = d.run(&wl, 20_000_000, 2_000_000);
        // chassis 20 + core ~30 + NIC ~6 = ~56 W at saturation.
        assert!(m.watts > 50.0, "watts {}", m.watts);
        assert!(m.loss_rate > 0.1, "loss {}", m.loss_rate);
    }

    #[test]
    fn smartnic_offload_outperforms_host_at_same_workload() {
        // Full firewall offloaded to 8 NIC cores vs 1 host core.
        let host = Deployment::cpu_host("host-fw", 1, firewall_chain(100));
        let nic = Deployment::smartnic_offload("nic-fw", 8, firewall_chain(100), 1, NfChain::empty);
        let wl = WorkloadSpec::cbr(3e6, 1500, 16, 5);
        let mh = host.run(&wl, 20_000_000, 2_000_000);
        let mn = nic.run(&wl, 20_000_000, 2_000_000);
        assert!(
            mn.throughput_bps > 1.5 * mh.throughput_bps,
            "nic {} vs host {}",
            mn.throughput_bps,
            mh.throughput_bps
        );
        // Note: whether the offload also costs more watts depends on the
        // saturation point — that question is exactly what the fair-
        // comparison engine decides; here we only check the substrate's
        // shape (more throughput, SmartNIC inventory present).
        assert!(mn.device_classes.contains(&DeviceClass::SmartNic));
    }

    #[test]
    fn switch_frontend_sheds_host_load() {
        // Switch denies ~half the flows at line rate; host sees less work.
        let deny_rules = || {
            // Deny all TCP to port 80 (a large share of synth flows).
            let rules = vec![
                crate::nf::firewall::Rule {
                    src: (0, 0),
                    dst: (0, 0),
                    dst_ports: (80, 80),
                    proto: Some(6),
                    action: Action::Deny,
                },
                crate::nf::firewall::Rule::any(Action::Allow),
            ];
            NfChain::new(vec![Box::new(Firewall::new(rules, Action::Allow))
                as Box<dyn crate::nf::NetworkFunction>])
        };
        let plain = Deployment::cpu_host("host-only", 1, firewall_chain(100));
        let fronted =
            Deployment::switch_frontend("switch+host", deny_rules, 1, firewall_chain(100));
        let wl = WorkloadSpec::cbr(2e6, 1500, 64, 5);
        let mp = plain.run(&wl, 20_000_000, 2_000_000);
        let mf = fronted.run(&wl, 20_000_000, 2_000_000);
        assert!(mf.policy_drops > 0, "switch should drop some flows");
        // The fronted host is less utilized for the surviving traffic.
        let host_util =
            |m: &Measurement| m.stages.iter().find(|s| s.name == "host-cores").unwrap().utilization;
        assert!(host_util(&mf) < host_util(&mp), "switch should shed host load");
        // And it costs far more watts (the switch's idle floor) and a
        // second rack unit (the switch's own chassis).
        assert!(mf.watts > mp.watts + 90.0);
        assert_eq!((plain.rack_units(), fronted.rack_units()), (1.0, 2.0));
    }

    #[test]
    fn operating_points_use_the_right_axes() {
        let d = Deployment::cpu_host("x", 1, NfChain::empty);
        let m = d.run(&light_workload(), 10_000_000, 1_000_000);
        let tp = m.throughput_power_point();
        assert_eq!(tp.perf().metric().name(), "throughput");
        assert_eq!(tp.cost().metric().name(), "power draw");
        let lp = m.latency_power_point();
        assert_eq!(lp.perf().metric().name(), "latency");
        let s = m.as_system();
        assert_eq!(s.name(), "x");
        assert!(m.pps_power_point().perf().quantity().value() > 0.0);
        assert!(m.p99_power_point().perf().quantity().value() > 0.0);
        assert!(m.jain_power_point().is_some());
        assert_eq!(m.as_latency_system().devices(), s.devices());
    }

    #[test]
    fn builder_composes_custom_deployments() {
        use crate::service::LineRate;
        let d = DeploymentBuilder::new("custom-wan-fw")
            .stage(|| StageConfig::new("wan-link", 1, 2048, Box::new(LineRate::new("10G", 10e9))))
            .stage(move || {
                StageConfig::new(
                    "fw-core",
                    2,
                    1024,
                    Box::new(NfService::host_core(firewall_chain(100)())),
                )
            })
            .power(DeviceSpec::host_chassis(), 1, UtilSource::Fixed(1.0))
            .power(DeviceSpec::xeon_core(), 2, UtilSource::Stage(1))
            .build();
        let m = d.run(&WorkloadSpec::cbr(200_000.0, 1500, 8, 5), 10_000_000, 1_000_000);
        assert_eq!(m.name, "custom-wan-fw");
        assert_eq!(m.stages.len(), 2);
        assert!(m.throughput_bps > 0.0);
        assert!(m.watts > 20.0);
    }

    #[test]
    #[should_panic(expected = "nonexistent stage")]
    fn builder_rejects_dangling_power_lines() {
        let _ = DeploymentBuilder::new("bad")
            .stage(|| {
                StageConfig::new("only", 1, 8, Box::new(NfService::host_core(NfChain::empty())))
            })
            .power(DeviceSpec::xeon_core(), 1, UtilSource::Stage(5))
            .build();
    }

    #[test]
    fn power_scaling_lever_for_sensitivity_studies() {
        let base = DeviceSpec::smartnic_100g();
        let hot = DeviceSpec::smartnic_100g().with_power_scaled(2.0);
        assert!((hot.watts_at(1.0) - 2.0 * base.watts_at(1.0)).abs() < 1e-9);
        assert!((hot.watts_at(0.0) - 2.0 * base.watts_at(0.0)).abs() < 1e-9);
    }

    #[test]
    fn gpu_offload_trades_latency_for_throughput() {
        use crate::engine::BatchPolicy;
        let policy = BatchPolicy::new(256, 100_000, 15_000);
        // Heavy load: the GPU's amortized kernels crush the host core.
        let heavy = WorkloadSpec::cbr(4e6, 1500, 64, 5);
        let host_heavy = Deployment::cpu_host("host-fw", 1, firewall_chain(100))
            .run(&heavy, 20_000_000, 2_000_000);
        let gpu_heavy = Deployment::gpu_offload("gpu-fw", policy, firewall_chain(100))
            .run(&heavy, 20_000_000, 2_000_000);
        assert!(
            gpu_heavy.throughput_bps > 3.0 * host_heavy.throughput_bps,
            "gpu {} vs host {}",
            gpu_heavy.throughput_bps,
            host_heavy.throughput_bps
        );
        assert!(gpu_heavy.device_classes.contains(&DeviceClass::Gpu));
        // Light load: both keep up, but the GPU pays the batch-formation
        // floor (timeout + kernel) the host never has.
        let light = WorkloadSpec::cbr(100_000.0, 1500, 64, 5);
        let host_light = Deployment::cpu_host("host-fw", 1, firewall_chain(100))
            .run(&light, 20_000_000, 2_000_000);
        let gpu_light = Deployment::gpu_offload("gpu-fw", policy, firewall_chain(100))
            .run(&light, 20_000_000, 2_000_000);
        assert!(
            gpu_light.mean_latency_ns > 10.0 * host_light.mean_latency_ns,
            "gpu {} ns vs host {} ns",
            gpu_light.mean_latency_ns,
            host_light.mean_latency_ns
        );
    }

    #[test]
    fn replicated_cluster_scales_throughput_and_charges_every_host() {
        let wl = WorkloadSpec::cbr(8e6, 1500, 256, 5);
        let cluster =
            |hosts| Deployment::replicated_cluster("cluster", hosts, 2, 0.1, firewall_chain(100));
        let one = cluster(1).run(&wl, 20_000_000, 2_000_000);
        let three = cluster(3).run(&wl, 20_000_000, 2_000_000);
        let gain = three.throughput_bps / one.throughput_bps;
        // Sub-ideal: flow-hash imbalance keeps it below 3x.
        assert!(gain > 2.0 && gain < 3.0, "3-replica gain {gain}");
        // Cost covers every chassis: at least 2 extra idle chassis
        // (+40 W) over the 1-replica cluster.
        assert!(three.watts > one.watts + 40.0, "{} vs {}", three.watts, one.watts);
        // Rack space too: the splitter switch plus one chassis per host.
        assert_eq!(cluster(3).rack_units(), 4.0);
        // Splitter + 3 hosts = 4 stages.
        assert_eq!(three.stages.len(), 4);
    }

    #[test]
    fn rss_host_spreads_flows_across_core_stages() {
        let d = Deployment::cpu_host_rss("rss-4c", 4, firewall_chain(100));
        let wl = WorkloadSpec::cbr(2e6, 1500, 128, 5);
        let m = d.run(&wl, 20_000_000, 2_000_000);
        // 5 stages: demux + 4 cores.
        assert_eq!(m.stages.len(), 5);
        let core_served: Vec<u64> = m.stages[1..].iter().map(|s| s.served).collect();
        assert!(core_served.iter().all(|&s| s > 0), "every core got flows: {core_served:?}");
        // Everything the demux forwarded arrived at some core queue.
        let core_arrivals: u64 = m.stages[1..].iter().map(|s| s.arrivals).sum();
        assert_eq!(core_arrivals, m.stages[0].served - m.stages[0].policy_drops);
        assert!(m.throughput_bps > 0.0);
    }

    #[test]
    fn shared_queue_beats_rss_on_tail_latency_under_skew() {
        // Same 4 cores, same Zipf-skewed workload near saturation: the
        // pooled queue keeps p99 lower than per-core RSS queues, where
        // popular flows pile onto one core.
        let wl = WorkloadSpec {
            sizes: apples_workload::PacketSizeDist::Fixed(1500),
            arrivals: apples_workload::ArrivalProcess::Poisson { rate_pps: 2.2e6 },
            flows: 64,
            zipf_s: 1.2,
            seed: 5,
        };
        let shared = Deployment::cpu_host("shared-4c", 4, firewall_chain(100))
            .run(&wl, 20_000_000, 2_000_000);
        let rss = Deployment::cpu_host_rss("rss-4c", 4, firewall_chain(100))
            .run(&wl, 20_000_000, 2_000_000);
        assert!(
            rss.p99_latency_ns > 2.0 * shared.p99_latency_ns,
            "rss p99 {} ns vs shared p99 {} ns",
            rss.p99_latency_ns,
            shared.p99_latency_ns
        );
    }

    #[test]
    fn fpga_ips_outpaces_host_ips_on_payload_heavy_traffic() {
        use crate::nf::dpi::Dpi;
        let ips_chain = || {
            NfChain::new(vec![
                Box::new(Dpi::new(&Dpi::demo_signatures())) as Box<dyn crate::nf::NetworkFunction>
            ])
        };
        let needles: Vec<Vec<u8>> = Dpi::demo_signatures().iter().map(|s| s.to_vec()).collect();
        let wl = WorkloadSpec::cbr(2.5e6, 1500, 32, 5);
        let host = Deployment::cpu_host("host-ips", 1, ips_chain)
            .with_payloads(0.01, needles.clone())
            .run(&wl, 4_000_000, 500_000);
        let fpga = Deployment::fpga_offload("fpga-ips", ips_chain, 1, NfChain::empty)
            .with_payloads(0.01, needles)
            .run(&wl, 4_000_000, 500_000);
        // Per-byte DPI swamps a single core; the FPGA pipeline is
        // payload-size independent.
        assert!(
            fpga.throughput_bps > 3.0 * host.throughput_bps,
            "fpga {} vs host {}",
            fpga.throughput_bps,
            host.throughput_bps
        );
        assert!(fpga.device_classes.contains(&DeviceClass::Fpga));
        // Both block some attack traffic.
        assert!(fpga.policy_drops > 0);
        assert!(host.policy_drops > 0);
    }

    #[test]
    fn contended_cores_scale_sublinearly() {
        // Saturating load; 2 contended cores should deliver < 2x of 1.
        let wl = WorkloadSpec::cbr(5e6, 1500, 16, 5);
        let one = Deployment::cpu_host_contended("c1", 1, 0.1, firewall_chain(100))
            .run(&wl, 20_000_000, 2_000_000);
        let two = Deployment::cpu_host_contended("c2", 2, 0.1, firewall_chain(100))
            .run(&wl, 20_000_000, 2_000_000);
        let gain = two.throughput_bps / one.throughput_bps;
        assert!(gain > 1.5 && gain < 1.95, "2-core gain {gain}");
    }

    #[test]
    fn joules_per_bit_is_inverse_efficiency() {
        let d = Deployment::cpu_host("jpb", 1, firewall_chain(100));
        let m = d.run(&WorkloadSpec::cbr(2e6, 1500, 16, 5), 10_000_000, 1_000_000);
        let jpb = m.joules_per_bit().expect("traffic flowed");
        assert!((jpb - m.watts / m.throughput_bps).abs() < 1e-18);
        let eff = apples_core::perf_per_cost(&m.throughput_power_point()).expect("throughput axes");
        assert!((jpb * eff - 1.0).abs() < 1e-9, "jpb and perf-per-watt are reciprocals");
        // An idle-ish run delivers nothing -> undefined.
        let idle = Deployment::cpu_host("idle", 1, firewall_chain(100));
        let mi = idle.run(&WorkloadSpec::cbr(1.0, 1500, 1, 5), 2_000_000, 1_000_000);
        // Exact-zero sentinel: a run that delivered no packets stores
        // exactly 0.0, not a computed value (test code, so N1 does not
        // apply).
        if mi.throughput_bps == 0.0 {
            assert_eq!(mi.joules_per_bit(), None);
        }
    }

    #[test]
    fn fingerprint_sees_stage_counters_and_low_float_bits() {
        let m = Deployment::cpu_host("fp", 2, firewall_chain(50)).run(
            &light_workload(),
            10_000_000,
            1_000_000,
        );
        let base = m.fingerprint();
        assert_eq!(base, m.clone().fingerprint());
        let mut drops = m.clone();
        drops.stages[0].queue_drops += 1;
        assert_ne!(drops.fingerprint(), base, "a stage's queue_drops must show");
        let mut watts = m.clone();
        watts.watts = f64::from_bits(watts.watts.to_bits() ^ 1);
        assert_ne!(watts.fingerprint(), base, "the low bit of a float must show");
        let mut util = m.clone();
        util.stages[0].utilization = f64::from_bits(util.stages[0].utilization.to_bits() ^ 1);
        assert_ne!(util.fingerprint(), base, "the low bit of a stage float must show");
    }

    #[test]
    fn measurements_are_deterministic() {
        let d = Deployment::cpu_host("det", 2, firewall_chain(50));
        let wl = light_workload();
        let a = d.run(&wl, 10_000_000, 1_000_000);
        let b = d.run(&wl, 10_000_000, 1_000_000);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn faulted_deployments_are_deterministic_and_degraded() {
        use crate::fault::FaultSpec;
        let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
        let mk = || {
            Deployment::cpu_host("faulted", 2, firewall_chain(50))
                .with_faults(FaultSpec::at_severity(0.8))
        };
        let a = mk().run(&wl, 10_000_000, 1_000_000);
        let b = mk().run(&wl, 10_000_000, 1_000_000);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.injected_drops > 0, "severity 0.8 must drop packets at the injection point");
        let clean =
            Deployment::cpu_host("clean", 2, firewall_chain(50)).run(&wl, 10_000_000, 1_000_000);
        assert!(a.throughput_bps < clean.throughput_bps, "faults must cost throughput");
        assert_eq!(clean.injected_drops, 0);
        assert_eq!(clean.fault_drops, 0);
        assert_eq!(clean.corrupted, 0);
    }

    #[test]
    fn none_fault_spec_is_bit_identical_to_no_spec() {
        use crate::fault::FaultSpec;
        let wl = light_workload();
        let clean =
            Deployment::cpu_host("a", 2, firewall_chain(50)).run(&wl, 10_000_000, 1_000_000);
        let nulled = Deployment::cpu_host("a", 2, firewall_chain(50))
            .with_faults(FaultSpec::none())
            .run(&wl, 10_000_000, 1_000_000);
        assert_eq!(clean.fingerprint(), nulled.fingerprint());
    }

    #[test]
    fn observed_runs_match_unobserved_numbers_exactly() {
        let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
        let mk = || {
            Deployment::cpu_host("obs", 2, firewall_chain(50))
                .with_faults(FaultSpec::at_severity(0.5))
        };
        let plain = mk().run(&wl, 10_000_000, 1_000_000);
        let (observed, obs) = mk().run_observed(&wl, 10_000_000, 1_000_000, &ObsConfig::full());
        assert_eq!(plain.fingerprint(), observed.fingerprint());
        let tracer = obs.tracer.as_ref().unwrap();
        assert!(tracer.emitted() > 0, "a loaded run must emit trace events");
        let tel = obs.telemetry.as_ref().unwrap();
        assert!(tel.stages[0].service_ns.count() > 0);
        assert_eq!(tel.stages[0].service_ns.count(), plain.stages[0].served);
        assert!(obs.sched.pushes > 0, "an observed run must record the scheduler counters");
        assert!(obs.spans.as_ref().unwrap().total_spans() > 0);
    }

    #[test]
    fn provenance_and_config_digest_are_reproducible() {
        let wl = light_workload();
        let d = Deployment::cpu_host("prov", 1, firewall_chain(10))
            .with_faults(FaultSpec::at_severity(0.3));
        let a = d.provenance(&wl, 10_000_000, 1_000_000);
        let b = d.provenance(&wl, 10_000_000, 1_000_000);
        assert_eq!(a, b);
        assert_ne!(a.fault_digest, "none");
        // The digest must react to any replay-determining change.
        let longer = d.config_digest(&wl, 20_000_000, 1_000_000);
        assert_ne!(a.config_digest, longer);
        let clean = Deployment::cpu_host("prov", 1, firewall_chain(10));
        assert_eq!(clean.provenance(&wl, 10_000_000, 1_000_000).fault_digest, "none");
        // Payload synthesis determines DPI verdicts: deployments that
        // differ only in attack probability, or only in needles, must
        // not share a digest.
        let digest = |prob: f64, needles: &[&[u8]]| {
            Deployment::cpu_host("prov", 1, firewall_chain(10))
                .with_payloads(prob, needles.iter().map(|n| n.to_vec()).collect())
                .config_digest(&wl, 10_000_000, 1_000_000)
        };
        let base = digest(0.01, &[b"EVIL", b"cmd.exe"]);
        assert_eq!(base, digest(0.01, &[b"EVIL", b"cmd.exe"]));
        assert_ne!(base, clean.config_digest(&wl, 10_000_000, 1_000_000));
        assert_ne!(base, digest(0.02, &[b"EVIL", b"cmd.exe"]), "attack probability ignored");
        assert_ne!(base, digest(0.01, &[b"EVIL", b"cmd.exf"]), "needle bytes ignored");
        assert_ne!(base, digest(0.01, &[b"EVILcmd.exe"]), "needle boundaries ignored");
    }

    #[test]
    fn fault_plan_accessor_matches_the_injected_plan() {
        use crate::fault::FaultSpec;
        let d = Deployment::cpu_host("p", 1, firewall_chain(10))
            .with_faults(FaultSpec::at_severity(1.0));
        let p1 = d.fault_plan(5, 10_000_000).expect("spec attached");
        let p2 = d.fault_plan(5, 10_000_000).expect("spec attached");
        assert_eq!(p1, p2, "the replay token must be reproducible");
        assert!(d.fault_plan(6, 10_000_000).expect("spec attached") != p1, "seed must matter");
        let clean = Deployment::cpu_host("c", 1, firewall_chain(10));
        assert!(clean.fault_plan(5, 10_000_000).is_none());
    }
}
