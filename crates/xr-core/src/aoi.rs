//! The Age-of-Information (AoI) and Relevance-of-Information (RoI) analysis
//! model of Section VI (Eqs. 22–26).
//!
//! External sensors generate information at their own frequencies `f_t^m`;
//! packets traverse the wireless medium (propagation delay `d_m/c`) and wait
//! in the XR input buffer (M/M/1 mean time in system `T̄ = 1/(µ − λ)`,
//! Eq. 22). The XR application requests one update every `T_Req` seconds. The
//! AoI of sensor `m` at the `n`-th update of frame `q` is (Eq. 23)
//!
//! ```text
//! t_mnq = T_mn + (d_m/c + T̄) − T_Req^n
//! ```
//!
//! where `T_mn` is the time at which the sensor finished generating the
//! `n`-th piece of information. Averaging over the `N` updates of a frame
//! gives `A_mq` (Eq. 24); the *processed* information frequency is
//! `f̄ = 1/A_mq` (Eq. 25) and the RoI is the ratio of that frequency to the
//! frequency the application requires, `f_req = N / L_tot` (Eq. 26).
//! Information with `RoI ≥ 1` is fresh.

use crate::scenario::{Scenario, SensorConfig};
use serde::{Deserialize, Serialize};
use xr_queueing::MM1Queue;
use xr_types::{Hertz, Result, Seconds, SPEED_OF_LIGHT};

/// AoI/RoI analysis results for one sensor over one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorAoi {
    /// Sensor label.
    pub name: String,
    /// Information-generation frequency `f_t^m`.
    pub generation_frequency: Hertz,
    /// AoI at each of the `N` update cycles (Eq. 23).
    pub per_update: Vec<Seconds>,
    /// Average AoI over the frame `A_mq` (Eq. 24).
    pub average: Seconds,
    /// Processed information frequency `f̄ = 1/A_mq` (Eq. 25).
    pub processed_frequency: Hertz,
    /// Relevance of Information (Eq. 26).
    pub roi: f64,
}

impl SensorAoi {
    /// Returns `true` when the sensor keeps up with the application's
    /// requirement (`RoI ≥ 1`).
    #[must_use]
    pub fn is_fresh(&self) -> bool {
        self.roi >= 1.0
    }
}

/// AoI/RoI analysis results for all sensors of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AoiReport {
    /// Per-sensor results, in scenario order.
    pub sensors: Vec<SensorAoi>,
    /// The update period requested by the application (`L_tot / N`).
    pub request_period: Seconds,
    /// The required information frequency `f_req = N / L_tot`.
    pub required_frequency: Hertz,
}

/// The proposed AoI/RoI analysis model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AoiModel;

impl AoiModel {
    /// The paper's model: queueing contribution approximated by
    /// `T̄ = 1/(µ − λ)` (Eq. 22).
    #[must_use]
    pub fn published() -> Self {
        Self
    }

    /// The AoI of one sensor at update `n` (1-based), for a given request
    /// period (Eq. 23). The generation time of the `n`-th information is
    /// `n/f_t`; when the sensor is faster than the request cadence the
    /// freshest-possible age — propagation plus buffering — applies instead
    /// of a negative age.
    #[must_use]
    pub fn update_aoi(
        sensor: &SensorConfig,
        queueing_delay: Seconds,
        request_period: Seconds,
        update_index: u32,
    ) -> Seconds {
        let n = f64::from(update_index.max(1));
        let generation_time = sensor.generation_frequency.period() * n;
        let request_time = request_period * n;
        let lag = (generation_time - request_time).max(Seconds::ZERO);
        let floor = sensor.distance / SPEED_OF_LIGHT + queueing_delay;
        lag + floor
    }

    /// Generates the per-update AoI series of one sensor over `updates`
    /// cycles with an explicit request period — the raw series plotted in
    /// Figs. 4(e)/(f).
    ///
    /// # Errors
    ///
    /// Returns queueing errors when the sensor saturates the buffer.
    pub fn sensor_series(
        &self,
        sensor: &SensorConfig,
        service_rate: f64,
        request_period: Seconds,
        updates: u32,
    ) -> Result<Vec<Seconds>> {
        // The queueing term `T̄` of Eq. 22: the M/M/1 mean time in system.
        let queueing = MM1Queue::new(sensor.arrival_rate, service_rate)?.mean_time_in_system();
        Ok((1..=updates.max(1))
            .map(|n| Self::update_aoi(sensor, queueing, request_period, n))
            .collect())
    }

    /// Analyses one sensor over one frame: per-update AoI, average AoI
    /// (Eq. 24), processed frequency (Eq. 25) and RoI (Eq. 26).
    ///
    /// # Errors
    ///
    /// Returns queueing errors when the sensor saturates the buffer.
    pub fn analyze_sensor(
        &self,
        sensor: &SensorConfig,
        service_rate: f64,
        total_latency: Seconds,
        updates_per_frame: u32,
    ) -> Result<SensorAoi> {
        let n = updates_per_frame.max(1);
        let request_period = total_latency / f64::from(n);
        let per_update = self.sensor_series(sensor, service_rate, request_period, n)?;
        let average = per_update.iter().copied().sum::<Seconds>() / f64::from(n);
        let processed_frequency = if average.is_positive() {
            Hertz::new(1.0 / average.as_f64())
        } else {
            Hertz::new(f64::INFINITY)
        };
        let required_frequency = f64::from(n) / total_latency.as_f64().max(f64::MIN_POSITIVE);
        let roi = processed_frequency.as_f64() / required_frequency;
        Ok(SensorAoi {
            name: sensor.name.clone(),
            generation_frequency: sensor.generation_frequency,
            per_update,
            average,
            processed_frequency,
            roi,
        })
    }

    /// Analyses every sensor of a scenario, given the end-to-end latency
    /// `L_tot` produced by the latency model (the RoI definition needs it).
    ///
    /// # Errors
    ///
    /// Returns queueing errors when any sensor saturates the buffer.
    pub fn analyze(&self, scenario: &Scenario, total_latency: Seconds) -> Result<AoiReport> {
        let n = scenario.updates_per_frame.max(1);
        let request_period = total_latency / f64::from(n);
        let sensors = scenario
            .sensors
            .iter()
            .map(|s| {
                self.analyze_sensor(
                    s,
                    scenario.buffer.service_rate,
                    total_latency,
                    scenario.updates_per_frame,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(AoiReport {
            sensors,
            request_period,
            required_frequency: Hertz::new(
                f64::from(n) / total_latency.as_f64().max(f64::MIN_POSITIVE),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_types::Meters;

    fn sensor(freq: f64) -> SensorConfig {
        SensorConfig::new(format!("{freq}hz"), Hertz::new(freq), Meters::new(30.0))
    }

    #[test]
    fn fast_sensor_has_flat_aoi() {
        let model = AoiModel::published();
        // 200 Hz sensor, 5 ms request period: generation never lags.
        let series = model
            .sensor_series(&sensor(200.0), 2_000.0, Seconds::from_millis(5.0), 6)
            .unwrap();
        let first = series[0];
        for aoi in &series {
            assert!((aoi.as_f64() - first.as_f64()).abs() < 1e-12);
        }
        // Floor = propagation + queueing, both sub-millisecond here.
        assert!(first.as_f64() < 0.002);
    }

    #[test]
    fn slow_sensor_aoi_grows_linearly() {
        let model = AoiModel::published();
        // 100 Hz sensor (10 ms period) against a 5 ms request period: the lag
        // grows by 5 ms per update, matching the staircase of Fig. 4(f).
        let series = model
            .sensor_series(&sensor(100.0), 2_000.0, Seconds::from_millis(5.0), 5)
            .unwrap();
        for window in series.windows(2) {
            let step = (window[1] - window[0]).as_f64();
            assert!((step - 0.005).abs() < 1e-9, "step {step}");
        }
        // 66.67 Hz grows faster (10 ms per update).
        let slower = model
            .sensor_series(&sensor(66.67), 2_000.0, Seconds::from_millis(5.0), 5)
            .unwrap();
        assert!(slower[4] > series[4]);
    }

    #[test]
    fn average_aoi_and_roi_follow_eqs_24_to_26() {
        let model = AoiModel::published();
        let s = sensor(100.0);
        let total_latency = Seconds::from_millis(30.0);
        let report = model.analyze_sensor(&s, 2_000.0, total_latency, 6).unwrap();
        assert_eq!(report.per_update.len(), 6);
        let manual_avg: f64 = report.per_update.iter().map(|s| s.as_f64()).sum::<f64>() / 6.0;
        assert!((report.average.as_f64() - manual_avg).abs() < 1e-12);
        assert!((report.processed_frequency.as_f64() - 1.0 / manual_avg).abs() < 1e-6);
        let f_req = 6.0 / 0.030;
        assert!((report.roi - report.processed_frequency.as_f64() / f_req).abs() < 1e-9);
    }

    #[test]
    fn roi_flags_stale_sensors() {
        let model = AoiModel::published();
        let scenario = Scenario::builder()
            .sensors(vec![sensor(500.0), sensor(20.0)])
            .updates_per_frame(6)
            .build()
            .unwrap();
        let report = model
            .analyze(&scenario, Seconds::from_millis(100.0))
            .unwrap();
        assert_eq!(report.sensors.len(), 2);
        let fast = &report.sensors[0];
        let slow = &report.sensors[1];
        assert!(fast.roi > slow.roi);
        assert!(slow.roi < 1.0);
        assert!(!slow.is_fresh());
        assert!((report.request_period.as_f64() - 0.1 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_sensor_is_an_error() {
        let model = AoiModel::published();
        let s = sensor(100.0);
        assert!(model
            .analyze_sensor(&s, 50.0, Seconds::from_millis(30.0), 6)
            .is_err());
    }

    #[test]
    fn update_aoi_never_negative() {
        let s = sensor(1_000.0);
        for n in 1..=20 {
            let aoi =
                AoiModel::update_aoi(&s, Seconds::from_millis(0.5), Seconds::from_millis(5.0), n);
            assert!(aoi.as_f64() >= 0.0);
        }
    }

    #[test]
    fn scenario_analysis_matches_per_sensor_analysis() {
        let model = AoiModel::published();
        let scenario = Scenario::builder().build().unwrap();
        let total = Seconds::from_millis(200.0);
        let report = model.analyze(&scenario, total).unwrap();
        for (cfg, result) in scenario.sensors.iter().zip(&report.sensors) {
            let standalone = model
                .analyze_sensor(
                    cfg,
                    scenario.buffer.service_rate,
                    total,
                    scenario.updates_per_frame,
                )
                .unwrap();
            assert_eq!(&standalone, result);
        }
    }
}
