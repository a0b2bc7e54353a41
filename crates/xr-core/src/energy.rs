//! The energy-consumption analysis model of Section V (Eqs. 19–21).
//!
//! Per-segment energy is the per-segment latency multiplied by the power the
//! XR device draws while that segment runs: the compute segments use the
//! mean-power regression of Eq. 21, the radio-bound segments (external
//! information, transmission, handoff, cooperation, waiting for remote
//! inference) use a radio power model, and the whole frame additionally pays
//! base power `E_base` and a thermal-conversion share `E_θ`.

use crate::latency::{LatencyBreakdown, LatencyModel};
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use xr_devices::{BasePower, MeanPowerModel, ThermalModel};
use xr_types::{Joules, Result, Seconds, Segment, Watts};

/// Power drawn by the device's radio chains in each activity state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioPowerModel {
    /// Power while actively transmitting (uplink frames, cooperation).
    pub transmit: Watts,
    /// Power while actively receiving (external sensor information,
    /// downlink results).
    pub receive: Watts,
    /// Power while idling/waiting for a remote response (the XR device's
    /// draw during the edge server's inference time).
    pub idle_wait: Watts,
}

impl RadioPowerModel {
    /// Wi-Fi figures representative of the 802.11ac phones in Table I.
    #[must_use]
    pub fn wifi_defaults() -> Self {
        Self {
            transmit: Watts::new(1.25),
            receive: Watts::new(0.9),
            idle_wait: Watts::new(0.35),
        }
    }
}

impl Default for RadioPowerModel {
    fn default() -> Self {
        Self::wifi_defaults()
    }
}

/// Per-frame energy breakdown: one entry per pipeline segment plus base and
/// thermal energy and the total of Eq. 19.
///
/// The segments sit in fixed slots, indexed by [`Segment::slot`], like
/// [`LatencyBreakdown`]'s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    segments: [Joules; Segment::ALL.len()],
    base: Joules,
    thermal: Joules,
    total: Joules,
}

impl EnergyBreakdown {
    /// Energy attributed to one segment.
    #[must_use]
    pub fn segment(&self, segment: Segment) -> Joules {
        self.segments[segment.slot()]
    }

    /// Base energy `E_base` over the frame.
    #[must_use]
    pub fn base(&self) -> Joules {
        self.base
    }

    /// Thermal energy `E_θ` over the frame.
    #[must_use]
    pub fn thermal(&self) -> Joules {
        self.thermal
    }

    /// Total energy `E_tot` of Eq. 19.
    #[must_use]
    pub fn total(&self) -> Joules {
        self.total
    }

    /// Iterates over `(segment, energy)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Segment, Joules)> + '_ {
        Segment::ALL.into_iter().zip(self.segments)
    }
}

/// The proposed energy analysis model.
///
/// The mean-power sub-model is replaceable; the radio
/// ([`RadioPowerModel::wifi_defaults`]), base
/// ([`BasePower::typical_smartphone`]) and thermal
/// ([`ThermalModel::typical`]) parameters are fixed.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    power: MeanPowerModel,
}

impl EnergyModel {
    /// Builds the model with the published Eq.-21 coefficients.
    #[must_use]
    pub fn published() -> Self {
        Self {
            power: MeanPowerModel::published(),
        }
    }

    /// Replaces the mean-power sub-model (e.g. one refit on simulated data).
    #[must_use]
    pub fn with_power_model(mut self, power: MeanPowerModel) -> Self {
        self.power = power;
        self
    }

    /// The compute power the client draws for this scenario (Eq. 21).
    #[must_use]
    pub fn compute_power(&self, scenario: &Scenario) -> Watts {
        self.power.mean_power(
            scenario.client.cpu_clock,
            scenario.client.gpu_clock,
            scenario.client.cpu_share,
        )
    }

    /// The power the XR device draws while a given segment runs.
    #[must_use]
    pub fn segment_power(&self, scenario: &Scenario, segment: Segment) -> Watts {
        Self::segment_power_for(segment, self.compute_power(scenario))
    }

    /// [`EnergyModel::segment_power`] given the Eq. 21 compute power.
    fn segment_power_for(segment: Segment, compute_power: Watts) -> Watts {
        let radio = RadioPowerModel::wifi_defaults();
        match segment {
            // Client-side computation segments follow Eq. 21.
            Segment::FrameGeneration
            | Segment::VolumetricDataGeneration
            | Segment::FrameConversion
            | Segment::FrameEncoding
            | Segment::LocalInference
            | Segment::FrameRendering => compute_power,
            // Radio-bound segments.
            Segment::ExternalSensorInformation => radio.receive,
            Segment::Transmission | Segment::XrCooperation => radio.transmit,
            Segment::Handoff => radio.transmit,
            // While the edge server computes, the XR device only waits.
            Segment::RemoteInference => radio.idle_wait,
        }
    }

    /// Computes the per-segment energy breakdown of Eq. 19/20 for a frame,
    /// given the latency breakdown produced by [`LatencyModel::analyze`].
    /// The Eq. 21 compute power is evaluated once per call.
    #[must_use]
    pub fn analyze_with_latency(
        &self,
        scenario: &Scenario,
        latency: &LatencyBreakdown,
    ) -> EnergyBreakdown {
        let uses_local = scenario.execution.uses_client();
        let uses_edge = scenario.execution.uses_edge();

        let compute_power = self.compute_power(scenario);
        let mut segments = [Joules::ZERO; Segment::ALL.len()];
        let mut active_compute_energy = Joules::ZERO;
        let mut total = Joules::ZERO;

        for (segment, segment_latency) in latency.iter() {
            let power = Self::segment_power_for(segment, compute_power);
            let energy = power * segment_latency.max(Seconds::ZERO);
            segments[segment.slot()] = energy;

            let included_in_total = scenario.segments.contains(segment)
                && match segment {
                    Segment::FrameConversion | Segment::LocalInference => uses_local,
                    Segment::FrameEncoding
                    | Segment::RemoteInference
                    | Segment::Transmission
                    | Segment::Handoff => uses_edge,
                    Segment::XrCooperation => scenario.cooperation.include_in_totals,
                    _ => true,
                };
            if included_in_total {
                total += energy;
                if matches!(
                    segment,
                    Segment::FrameGeneration
                        | Segment::VolumetricDataGeneration
                        | Segment::FrameConversion
                        | Segment::FrameEncoding
                        | Segment::LocalInference
                        | Segment::FrameRendering
                ) {
                    active_compute_energy += energy;
                }
            }
        }

        let base = BasePower::typical_smartphone().energy_over(latency.total());
        let thermal = ThermalModel::typical().thermal_energy(active_compute_energy);
        total += base + thermal;

        EnergyBreakdown {
            segments,
            base,
            thermal,
            total,
        }
    }

    /// Convenience wrapper: run the latency model and then the energy model.
    ///
    /// # Errors
    ///
    /// Propagates latency-model errors.
    pub fn analyze(
        &self,
        latency_model: &LatencyModel,
        scenario: &Scenario,
    ) -> Result<EnergyBreakdown> {
        let latency = latency_model.analyze(scenario)?;
        Ok(self.analyze_with_latency(scenario, &latency))
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::published()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_types::{ExecutionTarget, GigaHertz, Ratio};

    fn scenario(execution: ExecutionTarget, clock: f64) -> Scenario {
        Scenario::builder()
            .cpu_clock(GigaHertz::new(clock))
            .execution(execution)
            .build()
            .unwrap()
    }

    #[test]
    fn energy_total_exceeds_sum_of_compute_segments() {
        let lm = LatencyModel::published();
        let em = EnergyModel::published();
        let s = scenario(ExecutionTarget::Local, 2.5);
        let e = em.analyze(&lm, &s).unwrap();
        assert!(e.total().as_f64() > 0.0);
        assert!(e.base().as_f64() > 0.0);
        assert!(e.thermal().as_f64() > 0.0);
        assert!(e.total() > e.base() + e.thermal());
    }

    #[test]
    fn energy_grows_with_frame_size() {
        let lm = LatencyModel::published();
        let em = EnergyModel::published();
        for target in [ExecutionTarget::Local, ExecutionTarget::Remote] {
            let small = Scenario::builder()
                .frame_side(300.0)
                .execution(target)
                .build()
                .unwrap();
            let large = Scenario::builder()
                .frame_side(700.0)
                .execution(target)
                .build()
                .unwrap();
            let e_small = em.analyze(&lm, &small).unwrap().total();
            let e_large = em.analyze(&lm, &large).unwrap().total();
            assert!(e_large > e_small);
        }
    }

    #[test]
    fn remote_execution_draws_radio_power_not_compute_power() {
        let lm = LatencyModel::published();
        let em = EnergyModel::published();
        let s = scenario(ExecutionTarget::Remote, 2.5);
        let latency = lm.analyze(&s).unwrap();
        let e = em.analyze_with_latency(&s, &latency);
        let radio = RadioPowerModel::wifi_defaults();
        // Remote inference energy = idle-wait power × remote latency.
        let expected = radio.idle_wait * latency.segment(Segment::RemoteInference);
        assert!((e.segment(Segment::RemoteInference).as_f64() - expected.as_f64()).abs() < 1e-12);
        // Transmission uses transmit power.
        let expected_tx = radio.transmit * latency.segment(Segment::Transmission);
        assert!((e.segment(Segment::Transmission).as_f64() - expected_tx.as_f64()).abs() < 1e-12);
        // Local segments carry zero energy under remote execution.
        assert_eq!(e.segment(Segment::LocalInference), Joules::ZERO);
    }

    #[test]
    fn segment_power_mapping() {
        let em = EnergyModel::published();
        let s = scenario(ExecutionTarget::Local, 2.8);
        let radio = RadioPowerModel::wifi_defaults();
        assert_eq!(em.segment_power(&s, Segment::Transmission), radio.transmit);
        assert_eq!(
            em.segment_power(&s, Segment::ExternalSensorInformation),
            radio.receive
        );
        assert_eq!(
            em.segment_power(&s, Segment::RemoteInference),
            radio.idle_wait
        );
        assert_eq!(
            em.segment_power(&s, Segment::FrameGeneration),
            em.compute_power(&s)
        );
    }

    #[test]
    fn base_energy_scales_with_total_latency() {
        let lm = LatencyModel::published();
        let em = EnergyModel::published();
        let small = Scenario::builder().frame_side(300.0).build().unwrap();
        let large = Scenario::builder().frame_side(700.0).build().unwrap();
        let e_small = em.analyze(&lm, &small).unwrap();
        let e_large = em.analyze(&lm, &large).unwrap();
        assert!(e_large.base() > e_small.base());
    }

    #[test]
    fn customised_models_change_the_answer() {
        let lm = LatencyModel::published();
        let s = scenario(ExecutionTarget::Local, 2.5);
        let default_total = EnergyModel::published().analyze(&lm, &s).unwrap().total();
        // A refit power law drawing at least 10 W at every clock setting.
        let mut observations = Vec::new();
        let mut power_w = Vec::new();
        for fc10 in 18..=32 {
            for fg10 in 4..=14 {
                for wc10 in 0..=10 {
                    let (fc, fg, wc) = (fc10 as f64 / 10.0, fg10 as f64 / 10.0, wc10 as f64 / 10.0);
                    observations.push((GigaHertz::new(fc), GigaHertz::new(fg), Ratio::new(wc)));
                    power_w.push(wc * (10.0 + fc) + (1.0 - wc) * (10.0 + fg));
                }
            }
        }
        let hot = EnergyModel::published()
            .with_power_model(MeanPowerModel::fit(&observations, &power_w).unwrap())
            .analyze(&lm, &s)
            .unwrap()
            .total();
        assert!(hot > default_total);
    }

    #[test]
    fn energy_iteration_covers_all_segments() {
        let lm = LatencyModel::published();
        let em = EnergyModel::published();
        let s = scenario(ExecutionTarget::Remote, 2.5);
        let e = em.analyze(&lm, &s).unwrap();
        assert_eq!(e.iter().count(), Segment::ALL.len());
    }
}
