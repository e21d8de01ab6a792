//! Packet arrival processes.
//!
//! All processes are expressed as inter-arrival-time generators in
//! nanoseconds, at a configured average packet rate, so workloads at the
//! same offered load are directly interchangeable across experiments.

use apples_rng::Rng;

/// A packet arrival process at a mean rate of `rate_pps` packets/second.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Constant (deterministic) spacing — classic RFC 2544 generators.
    Cbr {
        /// Mean packet rate, packets per second.
        rate_pps: f64,
    },
    /// Poisson arrivals (exponential inter-arrival times).
    Poisson {
        /// Mean packet rate, packets per second.
        rate_pps: f64,
    },
    /// A fault-injection perturbation of any base process: periodic
    /// overload windows during which the instantaneous rate multiplies
    /// by `surge`. The windows are deterministic in simulated time
    /// (`on_ns` out of every `period_ns`), so perturbed runs replay
    /// exactly — this is the arrival-side half of the robustness suite,
    /// modelling flash crowds and failover traffic shifts.
    OverloadBursts {
        /// The unperturbed arrival process.
        base: Box<ArrivalProcess>,
        /// Rate multiplier inside an overload window (≥ 1).
        surge: f64,
        /// Window length, nanoseconds.
        on_ns: u64,
        /// Window period, nanoseconds (`on_ns` ≤ `period_ns`).
        period_ns: u64,
    },
}

impl ArrivalProcess {
    /// The process's long-run mean rate in packets per second.
    pub fn mean_rate_pps(&self) -> f64 {
        match self {
            ArrivalProcess::Cbr { rate_pps } | ArrivalProcess::Poisson { rate_pps } => *rate_pps,
            ArrivalProcess::OverloadBursts { base, surge, on_ns, period_ns } => {
                let duty = *on_ns as f64 / (*period_ns).max(1) as f64;
                base.mean_rate_pps() * (1.0 + (surge - 1.0) * duty)
            }
        }
    }

    /// Creates a stateful generator of inter-arrival gaps.
    pub fn generator(&self) -> ArrivalGen {
        match self {
            ArrivalProcess::Cbr { rate_pps } => {
                assert!(*rate_pps > 0.0, "rate must be positive");
                ArrivalGen::Cbr { gap_ns: 1e9 / rate_pps, error_ns: 0.0 }
            }
            ArrivalProcess::Poisson { rate_pps } => {
                assert!(*rate_pps > 0.0, "rate must be positive");
                ArrivalGen::Poisson { mean_gap_ns: 1e9 / rate_pps }
            }
            ArrivalProcess::OverloadBursts { base, surge, on_ns, period_ns } => {
                assert!(*surge >= 1.0, "surge multiplier must be >= 1");
                assert!(*period_ns > 0, "window period must be positive");
                assert!(on_ns <= period_ns, "window ({on_ns}) must fit its period ({period_ns})");
                ArrivalGen::OverloadBursts {
                    inner: Box::new(base.generator()),
                    surge: *surge,
                    on_ns: *on_ns,
                    period_ns: *period_ns,
                    t_ns: 0,
                }
            }
        }
    }
}

/// Stateful inter-arrival generator; see [`ArrivalProcess::generator`].
#[derive(Debug, Clone)]
pub enum ArrivalGen {
    /// Deterministic spacing with fractional-nanosecond error carrying.
    Cbr {
        /// Exact gap, nanoseconds (possibly fractional).
        gap_ns: f64,
        /// Accumulated sub-nanosecond error.
        error_ns: f64,
    },
    /// Exponential gaps.
    Poisson {
        /// Mean gap, nanoseconds.
        mean_gap_ns: f64,
    },
    /// A base generator whose gaps compress inside periodic windows.
    OverloadBursts {
        /// The unperturbed generator.
        inner: Box<ArrivalGen>,
        /// Gap divisor inside a window.
        surge: f64,
        /// Window length, nanoseconds.
        on_ns: u64,
        /// Window period, nanoseconds.
        period_ns: u64,
        /// Absolute time of the last generated arrival.
        t_ns: u64,
    },
}

impl ArrivalGen {
    /// Returns the gap in nanoseconds before the next packet.
    pub fn next_gap_ns(&mut self, rng: &mut Rng) -> u64 {
        match self {
            ArrivalGen::Cbr { gap_ns, error_ns } => {
                let exact = *gap_ns + *error_ns;
                let gap = exact.floor();
                *error_ns = exact - gap;
                gap as u64
            }
            ArrivalGen::Poisson { mean_gap_ns } => sample_exp(*mean_gap_ns, rng),
            ArrivalGen::OverloadBursts { inner, surge, on_ns, period_ns, t_ns } => {
                let gap = inner.next_gap_ns(rng);
                // The window the *previous* packet landed in decides the
                // compression — a pure function of simulated time, so
                // the sequence replays exactly from the seed.
                #[expect(
                    clippy::float_cmp,
                    reason = "exact sentinel: 1.0 is assigned verbatim, never computed"
                )]
                let unit_surge = *surge == 1.0;
                let in_window = !unit_surge && *t_ns % *period_ns < *on_ns;
                let gap = if in_window { ((gap as f64 / *surge) as u64).max(1) } else { gap };
                *t_ns = t_ns.saturating_add(gap);
                gap
            }
        }
    }
}

fn sample_exp(mean_ns: f64, rng: &mut Rng) -> u64 {
    if mean_ns <= 0.0 {
        return 0;
    }
    let u: f64 = rng.range_f64(f64::EPSILON, 1.0);
    (-u.ln() * mean_ns) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_rate(proc_: &ArrivalProcess, n: usize) -> f64 {
        let mut rng = Rng::seed_from_u64(1);
        let mut g = proc_.generator();
        let total: u64 = (0..n).map(|_| g.next_gap_ns(&mut rng)).sum();
        n as f64 / (total as f64 * 1e-9)
    }

    #[test]
    fn cbr_hits_the_rate_exactly() {
        // 14.88 Mpps (100 GbE line rate at 64 B) has a fractional gap of
        // 67.2 ns; the error accumulator must not drift.
        let r = mean_rate(&ArrivalProcess::Cbr { rate_pps: 14.88e6 }, 100_000);
        assert!((r - 14.88e6).abs() / 14.88e6 < 1e-4, "rate {r}");
    }

    #[test]
    fn poisson_converges_to_the_rate() {
        let r = mean_rate(&ArrivalProcess::Poisson { rate_pps: 1e6 }, 200_000);
        assert!((r - 1e6).abs() / 1e6 < 0.02, "rate {r}");
    }

    #[test]
    fn mean_rate_accessor() {
        assert_eq!(ArrivalProcess::Cbr { rate_pps: 5.0 }.mean_rate_pps(), 5.0);
        assert_eq!(ArrivalProcess::Poisson { rate_pps: 7.0 }.mean_rate_pps(), 7.0);
    }

    #[test]
    fn determinism_per_seed() {
        let p = ArrivalProcess::Poisson { rate_pps: 1e6 };
        let run = || {
            let mut rng = Rng::seed_from_u64(9);
            let mut g = p.generator();
            (0..100).map(|_| g.next_gap_ns(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overload_bursts_raise_the_mean_rate_by_the_duty_cycle() {
        // 4x surge, 25% duty: mean = base * (1 + 3 * 0.25) = 1.75x.
        let p = ArrivalProcess::OverloadBursts {
            base: Box::new(ArrivalProcess::Cbr { rate_pps: 1e6 }),
            surge: 4.0,
            on_ns: 250_000,
            period_ns: 1_000_000,
        };
        assert!((p.mean_rate_pps() - 1.75e6).abs() < 1.0);
        let r = mean_rate(&p, 400_000);
        assert!((r - 1.75e6).abs() / 1.75e6 < 0.05, "rate {r}");
    }

    #[test]
    fn overload_bursts_are_burstier_than_their_base() {
        let cv2 = |proc_: &ArrivalProcess| {
            let mut rng = Rng::seed_from_u64(5);
            let mut g = proc_.generator();
            let gaps: Vec<f64> = (0..100_000).map(|_| g.next_gap_ns(&mut rng) as f64).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let base = ArrivalProcess::Cbr { rate_pps: 1e6 };
        let perturbed = ArrivalProcess::OverloadBursts {
            base: Box::new(base.clone()),
            surge: 8.0,
            on_ns: 100_000,
            period_ns: 1_000_000,
        };
        assert!(cv2(&base) < 0.01);
        assert!(cv2(&perturbed) > 0.1, "surge windows must add gap variance");
    }

    #[test]
    fn overload_bursts_with_unit_surge_match_the_base() {
        // surge = 1 is the identity perturbation: same gaps, same RNG use.
        let base = ArrivalProcess::Poisson { rate_pps: 2e6 };
        let wrapped = ArrivalProcess::OverloadBursts {
            base: Box::new(base.clone()),
            surge: 1.0,
            on_ns: 500_000,
            period_ns: 1_000_000,
        };
        let gaps = |p: &ArrivalProcess| {
            let mut rng = Rng::seed_from_u64(11);
            let mut g = p.generator();
            (0..1_000).map(|_| g.next_gap_ns(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(gaps(&base), gaps(&wrapped));
        assert_eq!(wrapped.mean_rate_pps(), base.mean_rate_pps());
    }

    #[test]
    fn overload_bursts_replay_per_seed() {
        let p = ArrivalProcess::OverloadBursts {
            base: Box::new(ArrivalProcess::Poisson { rate_pps: 1e6 }),
            surge: 3.0,
            on_ns: 200_000,
            period_ns: 700_000,
        };
        let run = || {
            let mut rng = Rng::seed_from_u64(21);
            let mut g = p.generator();
            (0..10_000).map(|_| g.next_gap_ns(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "must fit its period")]
    fn overload_bursts_window_must_fit_the_period() {
        let _ = ArrivalProcess::OverloadBursts {
            base: Box::new(ArrivalProcess::Cbr { rate_pps: 1e6 }),
            surge: 2.0,
            on_ns: 2_000_000,
            period_ns: 1_000_000,
        }
        .generator();
    }
}
