//! Event-driven ground truth for the Age-of-Information experiments
//! (Figs. 4(e)/(f)).
//!
//! Sensors generate information packets at their own cadence (with a small
//! clock jitter); packets cross the wireless medium and wait in the input
//! buffer (exponential sojourn of the stable M/M/1 flow); the XR application
//! issues update requests at a fixed period. The measured AoI of the `n`-th
//! update is the age of the `n`-th information packet at the moment the
//! request is served.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};
use xr_core::SensorConfig;
use xr_types::{Error, Result, Seconds, SPEED_OF_LIGHT};

/// Ground-truth AoI series for one sensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AoiGroundTruth {
    /// Sensor label.
    pub name: String,
    /// Request timestamps (one per update cycle).
    pub request_times: Vec<Seconds>,
    /// Measured AoI at each update cycle.
    pub aoi: Vec<Seconds>,
}

impl AoiGroundTruth {
    /// Mean AoI over the observed updates.
    #[must_use]
    pub fn mean(&self) -> Seconds {
        if self.aoi.is_empty() {
            return Seconds::ZERO;
        }
        Seconds::new(self.aoi.iter().map(|a| a.as_f64()).sum::<f64>() / self.aoi.len() as f64)
    }

    /// Simulates the AoI ground truth for one sensor.
    ///
    /// * `service_rate` — input-buffer service rate `µ` (items/s),
    /// * `request_period` — the application's update request period,
    /// * `updates` — how many update cycles to observe,
    /// * `jitter` — relative clock jitter of the sensor (e.g. 0.02),
    /// * `seed` — RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnstableQueue`] when the sensor saturates the buffer
    /// and [`Error::InvalidParameter`] for a non-positive request period or
    /// zero updates.
    pub fn simulate(
        sensor: &SensorConfig,
        service_rate: f64,
        request_period: Seconds,
        updates: u32,
        jitter: f64,
        seed: u64,
    ) -> Result<Self> {
        if updates == 0 {
            return Err(Error::invalid_parameter("updates", "must be at least 1"));
        }
        if !request_period.is_positive() {
            return Err(Error::invalid_parameter(
                "request_period",
                "must be positive",
            ));
        }
        if sensor.arrival_rate >= service_rate {
            return Err(Error::UnstableQueue {
                arrival_rate: sensor.arrival_rate,
                service_rate,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let sojourn = Exp::new(service_rate - sensor.arrival_rate)
            .map_err(|_| Error::invalid_parameter("service_rate", "rejected by Exp"))?;
        let period = sensor.generation_frequency.period();
        let propagation = sensor.distance / SPEED_OF_LIGHT;

        let mut request_times = Vec::with_capacity(updates as usize);
        let mut aoi = Vec::with_capacity(updates as usize);
        let mut generation_clock = Seconds::ZERO;

        for n in 1..=updates {
            // The n-th information packet finishes generation one (jittered)
            // period after the previous one.
            let jitter_factor = 1.0 + rng.gen_range(-jitter..=jitter.max(f64::MIN_POSITIVE));
            generation_clock += period * jitter_factor;
            let buffer_wait = Seconds::new(sojourn.sample(&mut rng));
            let arrival = generation_clock + propagation + buffer_wait;

            let request_time = request_period * f64::from(n);
            request_times.push(request_time);

            // Measured AoI (Eq. 23's empirical counterpart): how late the
            // n-th packet is relative to the n-th request, floored at the
            // freshest achievable age (propagation + buffer wait) when the
            // sensor outpaces the request cadence.
            let lateness = arrival - request_time;
            let floor = propagation + buffer_wait;
            aoi.push(lateness.max(floor));
        }

        Ok(Self {
            name: sensor.name.clone(),
            request_times,
            aoi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_core::AoiModel;
    use xr_types::{Hertz, Meters};

    fn sensor(freq: f64) -> SensorConfig {
        SensorConfig::new(format!("{freq}hz"), Hertz::new(freq), Meters::new(30.0))
    }

    #[test]
    fn slower_sensors_age_faster() {
        let fast = AoiGroundTruth::simulate(
            &sensor(200.0),
            2_000.0,
            Seconds::from_millis(5.0),
            12,
            0.01,
            1,
        )
        .unwrap();
        let slow = AoiGroundTruth::simulate(
            &sensor(66.67),
            2_000.0,
            Seconds::from_millis(5.0),
            12,
            0.01,
            1,
        )
        .unwrap();
        assert!(slow.mean() > fast.mean());
        assert!(slow.aoi.last().unwrap() > slow.aoi.first().unwrap());
        assert_eq!(fast.aoi.len(), 12);
        assert_eq!(fast.request_times.len(), 12);
    }

    #[test]
    fn ground_truth_tracks_analytic_model() {
        let model = AoiModel::published();
        // 100 updates keeps the sample mean of the exponential sojourns well
        // inside the tolerance band regardless of the RNG stream backing
        // StdRng (10 updates was flaky across generator implementations).
        for freq in [200.0, 100.0, 66.67] {
            let s = sensor(freq);
            let analytic = model
                .sensor_series(&s, 2_000.0, Seconds::from_millis(5.0), 100)
                .unwrap();
            let measured =
                AoiGroundTruth::simulate(&s, 2_000.0, Seconds::from_millis(5.0), 100, 0.01, 7)
                    .unwrap();
            let analytic_mean: f64 =
                analytic.iter().map(|a| a.as_f64()).sum::<f64>() / analytic.len() as f64;
            let measured_mean = measured.mean().as_f64();
            let denom = analytic_mean.max(1e-4);
            let rel = (analytic_mean - measured_mean).abs() / denom;
            assert!(
                rel < 0.35,
                "freq {freq}: analytic {analytic_mean} vs measured {measured_mean}"
            );
        }
    }

    #[test]
    fn roi_decreases_with_generation_period() {
        let period = Seconds::from_millis(5.0);
        let fast = AoiGroundTruth::simulate(&sensor(200.0), 2_000.0, period, 10, 0.01, 3).unwrap();
        let slow = AoiGroundTruth::simulate(&sensor(50.0), 2_000.0, period, 10, 0.01, 3).unwrap();
        // Measured RoI: the processed frequency `1/mean` over the required
        // frequency `1/period`.
        let roi = |truth: &AoiGroundTruth| period.as_f64() / truth.mean().as_f64();
        assert!(roi(&fast) > roi(&slow));
        assert!(roi(&slow) < 1.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let s = sensor(100.0);
        assert!(AoiGroundTruth::simulate(&s, 50.0, Seconds::from_millis(5.0), 5, 0.0, 1).is_err());
        assert!(AoiGroundTruth::simulate(&s, 2_000.0, Seconds::ZERO, 5, 0.0, 1).is_err());
        assert!(
            AoiGroundTruth::simulate(&s, 2_000.0, Seconds::from_millis(5.0), 0, 0.0, 1).is_err()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let s = sensor(100.0);
        let a =
            AoiGroundTruth::simulate(&s, 2_000.0, Seconds::from_millis(5.0), 8, 0.02, 5).unwrap();
        let b =
            AoiGroundTruth::simulate(&s, 2_000.0, Seconds::from_millis(5.0), 8, 0.02, 5).unwrap();
        assert_eq!(a, b);
    }
}
