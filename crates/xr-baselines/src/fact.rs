//! The FACT baseline (Liu et al., "An edge network orchestrator for mobile
//! augmented reality", INFOCOM 2018), as characterised in Section VIII-D of
//! the paper.
//!
//! FACT models the service latency of an edge-assisted AR request as
//!
//! ```text
//! L_FACT = L_comp(client prep) + L_wireless + L_core + L_comp(server)
//! ```
//!
//! with each computation term expressed as task cycles divided by the
//! processing speed (CPU clock only). Crucially — and this is the gap the
//! paper exploits — FACT does **not** model the GPU share, memory bandwidth,
//! codec parameters, frame-rate capture delay, input-buffer queueing, or the
//! CNN's structure; its energy model is a single active-power constant times
//! the latency.

use crate::BaselineModel;
use serde::{Deserialize, Serialize};
use xr_core::CheckedScenario;
use xr_types::{Joules, Seconds, Watts};

/// The FACT analytical model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactModel {
    /// Cycles of work per pixel of the captured frame (client-side
    /// preparation: capture, pre-processing, tracking).
    pub client_cycles_per_pixel: f64,
    /// Cycles of work per pixel of the inference task.
    pub inference_cycles_per_pixel: f64,
    /// Ratio of server processing speed to the client CPU clock.
    pub server_speedup: f64,
    /// Fixed core-network latency between the AP and the edge server.
    pub core_network_delay: Seconds,
    /// The single active-power constant of FACT's energy model.
    pub active_power: Watts,
    /// Multiplicative latency calibration factor (set by
    /// [`BaselineModel::calibrate`]).
    latency_scale: f64,
    /// Multiplicative energy calibration factor.
    energy_scale: f64,
}

impl FactModel {
    /// Literature-style default constants before calibration.
    ///
    /// "Pixel" here is the paper's frame-size parameter (the 300–700 pixel²
    /// sweep value), so the per-pixel cycle counts are large: they fold in a
    /// whole tensor row's worth of work.
    #[must_use]
    pub fn new() -> Self {
        Self {
            client_cycles_per_pixel: 4.0e5,
            inference_cycles_per_pixel: 2.4e6,
            server_speedup: 10.0,
            core_network_delay: Seconds::from_millis(5.0),
            active_power: Watts::new(2.2),
            latency_scale: 1.0,
            energy_scale: 1.0,
        }
    }

    fn raw_latency(&self, scenario: &CheckedScenario) -> Seconds {
        let pixels = scenario.frame.raw_size.as_f64();
        let client_hz = scenario.client.cpu_clock.as_f64() * 1e9;
        let client_prep = Seconds::new(pixels * self.client_cycles_per_pixel / client_hz);

        let inference_cycles = pixels * self.inference_cycles_per_pixel;
        if scenario.execution.uses_edge() {
            let server = &scenario.edge_servers[0];
            let link = server.link();
            // FACT sends the (encoded) frame up and ignores propagation
            // delay; the serialisation term is kept.
            let wireless = Seconds::new(
                scenario.frame.encoded_data.to_megabits() / link.throughput().as_f64(),
            );
            let server_compute =
                Seconds::new(inference_cycles / (client_hz * self.server_speedup.max(1e-9)));
            client_prep + wireless + self.core_network_delay + server_compute
        } else {
            client_prep + Seconds::new(inference_cycles / client_hz)
        }
    }
}

impl Default for FactModel {
    fn default() -> Self {
        Self::new()
    }
}

impl BaselineModel for FactModel {
    fn name(&self) -> &'static str {
        "FACT"
    }

    fn predict_latency(&self, scenario: &CheckedScenario) -> Seconds {
        self.raw_latency(scenario) * self.latency_scale
    }

    fn predict_energy(&self, scenario: &CheckedScenario) -> Joules {
        // FACT's energy model: a single active power over the whole service
        // latency, regardless of which stage is running.
        self.active_power * self.predict_latency(scenario) * self.energy_scale
    }

    fn calibrate(
        &mut self,
        scenario: &CheckedScenario,
        observed_latency: Seconds,
        observed_energy: Joules,
    ) {
        let raw_latency = self.raw_latency(scenario);
        if raw_latency.is_positive() && observed_latency.is_positive() {
            self.latency_scale = observed_latency / raw_latency;
        }
        let raw_energy = self.active_power.as_f64() * raw_latency.as_f64() * self.latency_scale;
        if raw_energy > 0.0 && observed_energy.is_positive() {
            self.energy_scale = observed_energy.as_f64() / raw_energy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_core::Scenario;
    use xr_types::{ExecutionTarget, GigaHertz};

    fn scenario(side: f64, clock: f64, target: ExecutionTarget) -> CheckedScenario {
        Scenario::builder()
            .frame_side(side)
            .cpu_clock(GigaHertz::new(clock))
            .execution(target)
            .build()
            .unwrap()
    }

    #[test]
    fn latency_grows_with_frame_size_and_falls_with_clock() {
        let fact = FactModel::new();
        let small = fact.predict_latency(&scenario(300.0, 2.0, ExecutionTarget::Remote));
        let large = fact.predict_latency(&scenario(700.0, 2.0, ExecutionTarget::Remote));
        assert!(large > small);
        let fast = fact.predict_latency(&scenario(500.0, 3.0, ExecutionTarget::Remote));
        let slow = fact.predict_latency(&scenario(500.0, 1.0, ExecutionTarget::Remote));
        assert!(fast < slow);
    }

    #[test]
    fn remote_offload_beats_local_inference_for_fact() {
        let fact = FactModel::new();
        let local = fact.predict_latency(&scenario(500.0, 2.0, ExecutionTarget::Local));
        let remote = fact.predict_latency(&scenario(500.0, 2.0, ExecutionTarget::Remote));
        // With a 10× server and moderate transmission cost the offload wins.
        assert!(remote < local);
    }

    #[test]
    fn energy_is_power_times_latency() {
        let fact = FactModel::new();
        let s = scenario(500.0, 2.5, ExecutionTarget::Remote);
        let latency = fact.predict_latency(&s);
        let energy = fact.predict_energy(&s);
        assert!((energy.as_f64() - 2.2 * latency.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn calibration_matches_the_reference_point_exactly() {
        let mut fact = FactModel::new();
        let reference = scenario(500.0, 2.0, ExecutionTarget::Remote);
        fact.calibrate(&reference, Seconds::new(0.8), Joules::new(1.4));
        let latency = fact.predict_latency(&reference);
        let energy = fact.predict_energy(&reference);
        assert!((latency.as_f64() - 0.8).abs() < 1e-9);
        assert!((energy.as_f64() - 1.4).abs() < 1e-9);
    }

    #[test]
    fn calibration_does_not_fix_other_operating_points() {
        // FACT misses the constant capture/buffering terms, so calibrating at
        // 500 px² leaves residual error at 300 px².
        let mut fact = FactModel::new();
        let reference = scenario(500.0, 2.0, ExecutionTarget::Remote);
        fact.calibrate(&reference, Seconds::new(0.8), Joules::new(1.4));
        let other = fact.predict_latency(&scenario(300.0, 2.0, ExecutionTarget::Remote));
        assert!(other < Seconds::new(0.8));
        assert!(other.as_f64() > 0.0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(FactModel::new().name(), "FACT");
        assert_eq!(FactModel::default(), FactModel::new());
    }
}
