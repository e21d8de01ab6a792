//! First-order device power models.
//!
//! Network hardware draws an idle floor plus a roughly linear dynamic
//! component with utilization — the standard first-order model used in
//! datacenter power studies. It is deliberately simple: the methodology
//! only needs watts that respond to load the way real watts do
//! (accelerators shift the idle/dynamic split, CPUs pay per active core).

/// `power(u) = idle + u * (peak - idle)` for utilization `u` in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearPower {
    /// Power draw at zero load, in watts.
    pub idle_watts: f64,
    /// Power draw at full load, in watts.
    pub peak_watts: f64,
}

impl LinearPower {
    /// Creates a model; panics unless `0 <= idle <= peak` and both finite.
    pub fn new(idle_watts: f64, peak_watts: f64) -> Self {
        assert!(idle_watts.is_finite() && peak_watts.is_finite(), "power bounds must be finite");
        assert!(
            0.0 <= idle_watts && idle_watts <= peak_watts,
            "need 0 <= idle ({idle_watts}) <= peak ({peak_watts})"
        );
        LinearPower { idle_watts, peak_watts }
    }

    /// A load-independent draw (fixed-function devices at line rate).
    pub fn constant(watts: f64) -> Self {
        LinearPower::new(watts, watts)
    }

    /// Instantaneous power at `utilization` (clamped to `[0, 1]`).
    pub fn watts_at(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_watts + u * (self.peak_watts - self.idle_watts)
    }

    /// The dynamic range (`peak - idle`) in watts.
    pub fn dynamic_watts(&self) -> f64 {
        self.peak_watts - self.idle_watts
    }

    /// Energy proportionality index: dynamic / peak. 1.0 means perfectly
    /// proportional (no idle draw), 0.0 means load-independent.
    pub fn proportionality(&self) -> f64 {
        if self.peak_watts == 0.0 {
            0.0
        } else {
            self.dynamic_watts() / self.peak_watts
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_rng::Rng;

    #[test]
    fn endpoints() {
        let m = LinearPower::new(20.0, 100.0);
        assert_eq!(m.watts_at(0.0), 20.0);
        assert_eq!(m.watts_at(1.0), 100.0);
        assert_eq!(m.watts_at(0.5), 60.0);
    }

    #[test]
    fn utilization_is_clamped() {
        let m = LinearPower::new(20.0, 100.0);
        assert_eq!(m.watts_at(-0.5), 20.0);
        assert_eq!(m.watts_at(2.0), 100.0);
    }

    #[test]
    fn constant_model_is_flat() {
        let m = LinearPower::constant(150.0);
        assert_eq!(m.watts_at(0.0), 150.0);
        assert_eq!(m.watts_at(1.0), 150.0);
        assert_eq!(m.proportionality(), 0.0);
    }

    #[test]
    fn proportionality_bounds() {
        assert_eq!(LinearPower::new(0.0, 100.0).proportionality(), 1.0);
        assert_eq!(LinearPower::new(50.0, 100.0).proportionality(), 0.5);
        assert_eq!(LinearPower::new(0.0, 0.0).proportionality(), 0.0);
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn idle_above_peak_rejected() {
        let _ = LinearPower::new(100.0, 50.0);
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        let mut rng = Rng::seed_from_u64(0xB00);
        for _ in 0..1000 {
            let idle = rng.range_f64(0.0, 200.0);
            let extra = rng.range_f64(0.0, 300.0);
            let u1 = rng.next_f64();
            let u2 = rng.next_f64();
            let m = LinearPower::new(idle, idle + extra);
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            assert!(m.watts_at(lo) <= m.watts_at(hi) + 1e-12);
            assert!(m.watts_at(lo) >= idle - 1e-12);
            assert!(m.watts_at(hi) <= idle + extra + 1e-12);
        }
    }
}
