//! The sharded engine's identity gate: a run at any shard count must
//! produce **byte-identical** measurements to the serial engine —
//! across fusion modes, fault severities, and deployment shapes. This is the contract DESIGN.md §12 commits to;
//! the sanitizer-identity suite proved the seq-keyed merge discipline
//! canonicalizes any same-timestamp interleaving, and these tests hold
//! the epoch-barrier merge to exactly that oracle.

use apples_simnet::engine::{BatchPolicy, StageConfig};
use apples_simnet::fault::FaultSpec;
use apples_simnet::nf::dpi::{Dpi, MatchPolicy};
use apples_simnet::nf::firewall::{synth_rules, Action, Firewall};
use apples_simnet::nf::NfChain;
use apples_simnet::service::{FixedTime, NfService};
use apples_simnet::system::{Deployment, DeploymentBuilder, Measurement, RunOpts};
use apples_simnet::OrderSanitizer;
use apples_workload::WorkloadSpec;

const RUN_NS: u64 = 10_000_000;
const WARMUP_NS: u64 = 1_000_000;

fn firewall_chain(rules: usize) -> impl Fn() -> NfChain {
    move || NfChain::new(vec![Box::new(Firewall::new(synth_rules(rules, 0.05, 7), Action::Deny))])
}

/// A block-mode IPS over the demo signatures.
fn dpi_chain() -> NfChain {
    NfChain::new(vec![Box::new(Dpi::new(&Dpi::demo_signatures(), MatchPolicy::Block))])
}

/// Attack payload share for the DPI shapes.
const ATTACK_PROB: f64 = 0.05;

fn dpi_needles() -> Vec<Vec<u8>> {
    Dpi::demo_signatures().iter().map(|s| s.to_vec()).collect()
}

/// The payload-synthesizing contender: its only policy drops are DPI
/// verdicts on synthesized payloads.
const DPI_CONTENDER: &str = "smartnic-dpi";

/// A run that skipped payload synthesis would scan empty payloads and
/// drop nothing — and agree with itself. The DPI shapes must block.
fn assert_dpi_blocked(name: &str, m: &Measurement) {
    assert!(m.policy_drops > 0, "{name}: DPI blocked nothing; payloads were not synthesized");
}

/// Bitwise equality over every field a run produces — floats compared
/// by to_bits so a single ULP of drift fails loudly.
fn assert_identical(name: &str, serial: &Measurement, sharded: &Measurement, mode: &str) {
    assert_eq!(
        serial.throughput_bps.to_bits(),
        sharded.throughput_bps.to_bits(),
        "{name}/{mode}: throughput_bps diverged"
    );
    assert_eq!(
        serial.throughput_pps.to_bits(),
        sharded.throughput_pps.to_bits(),
        "{name}/{mode}: throughput_pps diverged"
    );
    assert_eq!(
        serial.mean_latency_ns.to_bits(),
        sharded.mean_latency_ns.to_bits(),
        "{name}/{mode}: mean latency diverged"
    );
    assert_eq!(
        serial.p99_latency_ns.to_bits(),
        sharded.p99_latency_ns.to_bits(),
        "{name}/{mode}: p99 diverged"
    );
    assert_eq!(
        serial.loss_rate.to_bits(),
        sharded.loss_rate.to_bits(),
        "{name}/{mode}: loss rate diverged"
    );
    assert_eq!(
        serial.jain_index.map(f64::to_bits),
        sharded.jain_index.map(f64::to_bits),
        "{name}/{mode}: Jain index diverged"
    );
    assert_eq!(
        serial.watts.to_bits(),
        sharded.watts.to_bits(),
        "{name}/{mode}: power diverged (stage utilizations differ)"
    );
    assert_eq!(serial.policy_drops, sharded.policy_drops, "{name}/{mode}: policy drops diverged");
    assert_eq!(serial.fault_drops, sharded.fault_drops, "{name}/{mode}: fault drops diverged");
    assert_eq!(
        serial.injected_drops, sharded.injected_drops,
        "{name}/{mode}: injected drops diverged"
    );
    assert_eq!(serial.corrupted, sharded.corrupted, "{name}/{mode}: corruption count diverged");
    assert_eq!(serial.stages, sharded.stages, "{name}/{mode}: stage reports diverged");
}

type Contender = (&'static str, Box<dyn Fn() -> Deployment>);

/// Deployment shapes with genuinely shardable topology: declared-steer
/// fan-outs (cluster, RSS) and linear offload pipelines.
fn shardable_deployments() -> Vec<Contender> {
    vec![
        (
            "cluster-8x2",
            Box::new(|| {
                Deployment::replicated_cluster("cluster-8x2", 8, 2, 0.1, firewall_chain(100))
            }),
        ),
        ("rss-8c", Box::new(|| Deployment::cpu_host_rss("rss-8c", 8, firewall_chain(100)))),
        (
            "smartnic",
            Box::new(|| {
                Deployment::smartnic_offload("smartnic", 4, firewall_chain(100), 1, NfChain::empty)
            }),
        ),
        (
            "switch-2c",
            Box::new(|| {
                Deployment::switch_frontend("switch-2c", firewall_chain(100), 2, NfChain::empty)
            }),
        ),
        (
            DPI_CONTENDER,
            Box::new(|| {
                Deployment::smartnic_offload(DPI_CONTENDER, 4, dpi_chain, 1, NfChain::empty)
                    .with_payloads(ATTACK_PROB, dpi_needles())
            }),
        ),
    ]
}

#[test]
fn sharded_runs_are_byte_identical_across_shapes_and_shard_counts() {
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    for (name, mk) in shardable_deployments() {
        let serial = mk().run(&wl, RUN_NS, WARMUP_NS);
        if name == DPI_CONTENDER {
            assert_dpi_blocked(name, &serial);
        }
        for shards in [1, 2, 4] {
            let sharded = mk().with_shards(shards).run(&wl, RUN_NS, WARMUP_NS);
            assert_identical(name, &serial, &sharded, &format!("x{shards}"));
        }
    }
}

#[test]
fn sharded_runs_are_byte_identical_under_fault_plans_at_every_severity() {
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    for severity in [0.2, 0.5, 0.8, 1.0] {
        let mk = move || {
            Deployment::replicated_cluster("faulted-cluster", 4, 2, 0.1, firewall_chain(50))
                .with_faults(FaultSpec::at_severity(severity))
        };
        let serial = mk().run(&wl, RUN_NS, WARMUP_NS);
        for shards in [2, 4] {
            let sharded = mk().with_shards(shards).run(&wl, RUN_NS, WARMUP_NS);
            assert_identical(
                "faulted-cluster",
                &serial,
                &sharded,
                &format!("sev{severity}x{shards}"),
            );
        }
    }
}

#[test]
fn sharded_runs_are_byte_identical_with_fusion_off() {
    // Unfused hops re-enqueue through the event queue, so cross-shard
    // merges interleave with a different local event population — the
    // bytes must not care.
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    for (name, mk) in shardable_deployments() {
        let serial = mk().with_fusion(false).run(&wl, RUN_NS, WARMUP_NS);
        if name == DPI_CONTENDER {
            assert_dpi_blocked(name, &serial);
        }
        let sharded = mk().with_fusion(false).with_shards(4).run(&wl, RUN_NS, WARMUP_NS);
        assert_identical(name, &serial, &sharded, "unfused-x4");
    }
}

#[test]
fn sharded_batched_pipeline_keeps_batch_timers_local_and_identical() {
    // The GPU batcher's kernel completions re-enqueue whole batches at
    // one timestamp; with the batch stage on its own shard, the timeout
    // and completion timers run on that shard's event queue alone.
    let wl = WorkloadSpec::cbr(8e6, 1500, 16, 5);
    for fused in [true, false] {
        let mk = move || {
            Deployment::gpu_offload(
                "gpu-batch",
                BatchPolicy::new(32, 100_000, 15_000),
                firewall_chain(50),
            )
            .with_fusion(fused)
        };
        let serial = mk().run(&wl, RUN_NS, WARMUP_NS);
        for shards in [2, 4] {
            let sharded = mk().with_shards(shards).run(&wl, RUN_NS, WARMUP_NS);
            assert_identical("gpu-batch", &serial, &sharded, &format!("fused={fused}x{shards}"));
        }
    }
}

#[test]
fn sharded_batched_dpi_pipeline_synthesizes_payloads_identically() {
    // The batch stage leads, so packets meet their first service model
    // in a batch flush and get their payloads there (behind a per-packet
    // stage they would arrive already carrying one).
    let wl = WorkloadSpec::cbr(2e6, 512, 16, 5);
    for fused in [true, false] {
        let mk = move || {
            DeploymentBuilder::new("gpu-dpi")
                .stage(|| {
                    StageConfig::new(
                        "gpu",
                        2,
                        8192,
                        Box::new(FixedTime::new("gpu-kernel", dpi_chain(), 30)),
                    )
                    .with_batching(BatchPolicy::new(32, 100_000, 15_000))
                })
                .stage(|| {
                    StageConfig::new(
                        "host-cores",
                        1,
                        1024,
                        Box::new(NfService::host_core(NfChain::empty())),
                    )
                })
                .payloads(ATTACK_PROB, dpi_needles())
                .build()
                .with_fusion(fused)
        };
        let serial = mk().run(&wl, RUN_NS, WARMUP_NS);
        assert_dpi_blocked("gpu-dpi", &serial);
        for shards in [2, 4] {
            let sharded = mk().with_shards(shards).run(&wl, RUN_NS, WARMUP_NS);
            assert_identical("gpu-dpi", &serial, &sharded, &format!("fused={fused}x{shards}"));
        }
    }
}

#[test]
fn sanitizer_perturbation_on_a_sharded_run_keeps_the_bytes() {
    // Each shard forks the perturber with a distinct lane seed; the
    // per-shard Fisher–Yates shuffles must still canonicalize to the
    // serial bytes, and the merged report must have seen real work.
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    let mk = || Deployment::replicated_cluster("cluster-san", 8, 2, 0.1, firewall_chain(100));
    let perturbed = |seed| RunOpts {
        sanitizer: Some(OrderSanitizer::with_perturbation(seed)),
        ..RunOpts::default()
    };
    let serial = mk().run(&wl, RUN_NS, WARMUP_NS);
    for shards in [2, 4] {
        let out = mk().with_shards(shards).run_with(&wl, RUN_NS, WARMUP_NS, perturbed(0xD15F));
        let rep = out.sanitizer.expect("an attached sanitizer hands back its report");
        assert_identical("cluster-san", &serial, &out.measurement, &format!("perturbed-x{shards}"));
        assert!(rep.events > 0, "sanitizer saw no events on the sharded run");
    }

    // An unfused batch pipeline gives the perturber genuinely
    // multi-event same-timestamp classes on the batch shard.
    let batched = WorkloadSpec::cbr(8e6, 1500, 16, 5);
    let mk2 = || {
        Deployment::gpu_offload(
            "gpu-san",
            BatchPolicy::new(32, 100_000, 15_000),
            firewall_chain(50),
        )
        .with_fusion(false)
    };
    let serial2 = mk2().run(&batched, RUN_NS, WARMUP_NS);
    let out2 = mk2().with_shards(2).run_with(&batched, RUN_NS, WARMUP_NS, perturbed(0xBEEF));
    let rep2 = out2.sanitizer.expect("an attached sanitizer hands back its report");
    assert_identical("gpu-san", &serial2, &out2.measurement, "perturbed-x2");
    assert!(rep2.max_bucket > 1, "batch completions must collide timestamps");
    assert!(rep2.perturbed > 0, "perturber never fired on the sharded batch run");
}

#[test]
fn randomized_scenario_severity_fusion_shard_matrix_is_identical() {
    // Property-style sweep: a seeded xorshift walks a randomized slice
    // of the full scenario × severity × fusion × shard-count
    // space each run of the suite (deterministically — the seed is
    // fixed), asserting serial/sharded identity at every point.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..6 {
        let r = next();
        let scenario = r % 3;
        let severity = [0.0, 0.3, 0.7, 1.0][(r >> 2) as usize % 4];
        let fused = (r >> 5) % 2 == 0;
        let shards = [2, 3, 4][(r >> 6) as usize % 3];
        let rate = [1e6, 2e6, 4e6][(r >> 8) as usize % 3];
        let mk = move || {
            let d = match scenario {
                0 => Deployment::replicated_cluster("rnd-cluster", 6, 2, 0.1, firewall_chain(60)),
                1 => Deployment::cpu_host_rss("rnd-rss", 6, firewall_chain(60)),
                _ => Deployment::smartnic_offload(
                    "rnd-nic",
                    4,
                    firewall_chain(60),
                    1,
                    NfChain::empty,
                ),
            };
            let d = d.with_fusion(fused);
            if severity > 0.0 {
                d.with_faults(FaultSpec::at_severity(severity))
            } else {
                d
            }
        };
        let wl = WorkloadSpec::cbr(rate, 1500, 16, 5);
        let serial = mk().run(&wl, RUN_NS, WARMUP_NS);
        let sharded = mk().with_shards(shards).run(&wl, RUN_NS, WARMUP_NS);
        assert_identical(
            "randomized",
            &serial,
            &sharded,
            &format!("scn{scenario}-sev{severity}-fused{fused}-x{shards}"),
        );
    }
}

#[test]
fn serial_fallback_is_silent_for_unshardable_topologies() {
    // A single-stage host cannot shard; with_shards must not change a
    // single byte (it falls back to the serial path).
    let wl = WorkloadSpec::cbr(2e6, 1500, 16, 5);
    let mk = || Deployment::cpu_host("solo", 2, firewall_chain(100));
    let serial = mk().run(&wl, RUN_NS, WARMUP_NS);
    let sharded = mk().with_shards(4).run(&wl, RUN_NS, WARMUP_NS);
    assert_identical("solo", &serial, &sharded, "fallback");
}
