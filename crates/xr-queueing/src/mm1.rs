//! Closed-form steady-state results for the M/M/1 queue.

use serde::{Deserialize, Serialize};
use xr_types::{Error, Result, Seconds};

/// A stable M/M/1 queue with Poisson arrivals at rate `λ` and exponential
/// service at rate `µ` (both in events per second).
///
/// The paper uses the mean time in system `T̄ = 1/(µ − λ)` as the buffering
/// delay of the XR input buffer (Eq. 7 via Eq. 22).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MM1Queue {
    arrival_rate: f64,
    service_rate: f64,
}

impl MM1Queue {
    /// Creates a queue from an arrival rate `λ` and a service rate `µ`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if either rate is non-positive or
    /// non-finite, and [`Error::UnstableQueue`] if `λ ≥ µ` (the steady state
    /// would not exist).
    pub fn new(arrival_rate: f64, service_rate: f64) -> Result<Self> {
        if !(arrival_rate.is_finite() && arrival_rate > 0.0) {
            return Err(Error::invalid_parameter(
                "arrival_rate",
                "must be positive and finite",
            ));
        }
        if !(service_rate.is_finite() && service_rate > 0.0) {
            return Err(Error::invalid_parameter(
                "service_rate",
                "must be positive and finite",
            ));
        }
        if arrival_rate >= service_rate {
            return Err(Error::UnstableQueue {
                arrival_rate,
                service_rate,
            });
        }
        Ok(Self {
            arrival_rate,
            service_rate,
        })
    }

    /// Arrival rate `λ` in events per second.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// Service rate `µ` in events per second.
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Server utilisation `ρ = λ/µ`, strictly below one for a stable queue.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Mean time spent in the system (waiting + service), `T̄ = 1/(µ − λ)` —
    /// Eq. 22 of the paper.
    #[must_use]
    pub fn mean_time_in_system(&self) -> Seconds {
        Seconds::new(1.0 / (self.service_rate - self.arrival_rate))
    }

    /// Mean waiting time in the queue (excluding service),
    /// `W_q = ρ / (µ − λ)`.
    #[must_use]
    pub fn mean_waiting_time(&self) -> Seconds {
        Seconds::new(self.utilization() / (self.service_rate - self.arrival_rate))
    }

    /// Mean number of customers in the system, `L = ρ / (1 − ρ)`.
    #[must_use]
    pub fn mean_number_in_system(&self) -> f64 {
        let rho = self.utilization();
        rho / (1.0 - rho)
    }

    /// Mean number waiting in the queue, `L_q = ρ² / (1 − ρ)`.
    #[must_use]
    pub fn mean_queue_length(&self) -> f64 {
        let rho = self.utilization();
        rho * rho / (1.0 - rho)
    }

    /// Probability that an arriving customer finds exactly `n` customers in
    /// the system, `P(N = n) = (1 − ρ)·ρⁿ`.
    #[must_use]
    pub fn probability_of_n(&self, n: u32) -> f64 {
        let rho = self.utilization();
        (1.0 - rho) * rho.powi(n as i32)
    }

    /// Probability that the time in system exceeds `t`:
    /// `P(T > t) = exp(−(µ − λ)·t)` for `t > 0`, and exactly 1 for `t ≤ 0`
    /// (the sojourn is almost surely positive; without the clamp a negative
    /// `t` would produce an "exceedance probability" above one).
    #[must_use]
    pub fn probability_sojourn_exceeds(&self, t: Seconds) -> f64 {
        if t.as_f64() <= 0.0 {
            return 1.0;
        }
        (-(self.service_rate - self.arrival_rate) * t.as_f64()).exp()
    }

    /// Verifies Little's law `L = λ·T̄` to within floating-point error; used
    /// by tests and by the simulator's self-check.
    #[must_use]
    pub fn littles_law_residual(&self) -> f64 {
        self.mean_number_in_system() - self.arrival_rate * self.mean_time_in_system().as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        // λ = 2/s, µ = 5/s → ρ = 0.4, T = 1/3 s, W = 0.4/3, L = 2/3, Lq = 4/15.
        let q = MM1Queue::new(2.0, 5.0).unwrap();
        assert!((q.utilization() - 0.4).abs() < 1e-12);
        assert!((q.mean_time_in_system().as_f64() - 1.0 / 3.0).abs() < 1e-12);
        assert!((q.mean_waiting_time().as_f64() - 0.4 / 3.0).abs() < 1e-12);
        assert!((q.mean_number_in_system() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.mean_queue_length() - 4.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn littles_law_holds() {
        for (lambda, mu) in [(1.0, 2.0), (10.0, 11.0), (100.0, 400.0), (0.5, 3.0)] {
            let q = MM1Queue::new(lambda, mu).unwrap();
            assert!(q.littles_law_residual().abs() < 1e-9, "λ={lambda} µ={mu}");
        }
    }

    #[test]
    fn waiting_plus_service_equals_sojourn() {
        let q = MM1Queue::new(3.0, 7.0).unwrap();
        let total = q.mean_waiting_time().as_f64() + 1.0 / q.service_rate();
        assert!((total - q.mean_time_in_system().as_f64()) < 1e-12);
    }

    #[test]
    fn state_probabilities_sum_to_one() {
        let q = MM1Queue::new(4.0, 9.0).unwrap();
        let total: f64 = (0..1000).map(|n| q.probability_of_n(n)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Geometric decay.
        assert!(q.probability_of_n(0) > q.probability_of_n(1));
    }

    #[test]
    fn sojourn_tail_is_exponential() {
        let q = MM1Queue::new(1.0, 3.0).unwrap();
        assert!((q.probability_sojourn_exceeds(Seconds::ZERO) - 1.0).abs() < 1e-12);
        let half_life = (2.0_f64).ln() / 2.0;
        assert!((q.probability_sojourn_exceeds(Seconds::new(half_life)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unstable_and_invalid_queues_rejected() {
        assert!(matches!(
            MM1Queue::new(5.0, 5.0),
            Err(Error::UnstableQueue { .. })
        ));
        assert!(matches!(
            MM1Queue::new(6.0, 5.0),
            Err(Error::UnstableQueue { .. })
        ));
        assert!(MM1Queue::new(0.0, 5.0).is_err());
        assert!(MM1Queue::new(1.0, 0.0).is_err());
        assert!(MM1Queue::new(f64::NAN, 5.0).is_err());
        assert!(MM1Queue::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn sojourn_tail_clamps_at_and_below_zero() {
        // P(T > 0) = 1 exactly, and negative horizons must not report an
        // exceedance "probability" above one (exp of a positive number).
        let q = MM1Queue::new(2.0, 5.0).unwrap();
        assert_eq!(q.probability_sojourn_exceeds(Seconds::ZERO), 1.0);
        assert_eq!(q.probability_sojourn_exceeds(Seconds::new(-1.0)), 1.0);
        assert_eq!(
            q.probability_sojourn_exceeds(Seconds::from_millis(-0.1)),
            1.0
        );
        // Positive horizons stay a proper tail: decreasing towards zero.
        let near = q.probability_sojourn_exceeds(Seconds::new(1e-9));
        assert!(near < 1.0 && near > 0.999_999);
        assert!(q.probability_sojourn_exceeds(Seconds::new(1e6)) < 1e-300);
    }

    #[test]
    fn near_saturation_stays_finite_and_ordered() {
        // ρ → 1: the closed forms blow up but must remain finite for every
        // representable stable queue.
        let mu = 10.0;
        let q = MM1Queue::new(mu * (1.0 - 1e-12), mu).unwrap();
        let sojourn = q.mean_time_in_system().as_f64();
        assert!(sojourn.is_finite() && sojourn > 1e10);
        // The sojourn tail barely decays over any practical horizon.
        assert!(q.probability_sojourn_exceeds(Seconds::new(1.0)) > 0.999);
    }

    #[test]
    fn high_utilisation_blows_up_delay() {
        let light = MM1Queue::new(1.0, 10.0).unwrap();
        let heavy = MM1Queue::new(9.9, 10.0).unwrap();
        assert!(heavy.mean_time_in_system() > light.mean_time_in_system() * 50.0);
    }
}
