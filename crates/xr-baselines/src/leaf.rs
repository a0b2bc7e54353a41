//! The LEAF baseline (Wang et al., "LEAF + AIO: Edge-assisted energy-aware
//! object detection for mobile augmented reality", IEEE TMC 2023), as
//! characterised in Section VIII-D of the paper.
//!
//! LEAF improves on FACT by breaking the AR pipeline into segments (capture,
//! conversion, encoding, inference, rendering, transmission) and modelling
//! each one separately — the same philosophy as the proposed framework — but
//! it keeps the simplified cycles-per-pixel computation model: no
//! memory-bandwidth terms, no CPU/GPU utilisation split, no codec-parameter
//! regression, no input-buffer queueing, and a per-state constant-power
//! energy model.

use crate::BaselineModel;
use serde::{Deserialize, Serialize};
use xr_core::{CheckedScenario, Scenario};
use xr_types::{Joules, Seconds, Watts};

/// The LEAF analytical model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafModel {
    /// Cycles per pixel for frame capture / preview processing.
    pub capture_cycles_per_pixel: f64,
    /// Cycles per pixel for YUV→RGB conversion and scaling.
    pub conversion_cycles_per_pixel: f64,
    /// Cycles per pixel for H.264 encoding (constant — LEAF does not model
    /// codec parameters).
    pub encoding_cycles_per_pixel: f64,
    /// Cycles per pixel for CNN inference on the client.
    pub inference_cycles_per_pixel: f64,
    /// Cycles per pixel for rendering/composition.
    pub rendering_cycles_per_pixel: f64,
    /// Ratio of edge-server processing speed to the client CPU clock.
    pub server_speedup: f64,
    /// Power while computing on-device.
    pub compute_power: Watts,
    /// Power while transmitting.
    pub transmit_power: Watts,
    /// Power while waiting for the edge server.
    pub idle_power: Watts,
    latency_scale: f64,
    energy_scale: f64,
}

impl LeafModel {
    /// Literature-style default constants before calibration.
    ///
    /// "Pixel" here is the paper's frame-size parameter (the 300–700 pixel²
    /// sweep value), so the per-pixel cycle counts are large: they fold in a
    /// whole tensor row's worth of work.
    #[must_use]
    pub fn new() -> Self {
        Self {
            capture_cycles_per_pixel: 1.6e5,
            conversion_cycles_per_pixel: 1.2e5,
            encoding_cycles_per_pixel: 9.0e5,
            inference_cycles_per_pixel: 1.1e6,
            rendering_cycles_per_pixel: 2.0e5,
            server_speedup: 10.0,
            compute_power: Watts::new(2.6),
            transmit_power: Watts::new(1.3),
            idle_power: Watts::new(0.4),
            latency_scale: 1.0,
            energy_scale: 1.0,
        }
    }

    fn client_hz(scenario: &Scenario) -> f64 {
        scenario.client.cpu_clock.as_f64() * 1e9
    }

    fn cycles_latency(cycles_per_pixel: f64, pixels: f64, hz: f64) -> Seconds {
        Seconds::new(pixels * cycles_per_pixel / hz)
    }

    /// LEAF's per-segment latency breakdown: (compute segments on the client,
    /// transmission, edge compute + wait).
    fn raw_components(&self, scenario: &CheckedScenario) -> (Seconds, Seconds, Seconds) {
        let pixels = scenario.frame.raw_size.as_f64();
        let hz = Self::client_hz(scenario);

        // Client-side compute: capture (plus the frame interval), rendering,
        // and either conversion+inference (local) or encoding (remote).
        let mut client = scenario.frame.frame_rate.period()
            + Self::cycles_latency(self.capture_cycles_per_pixel, pixels, hz)
            + Self::cycles_latency(self.rendering_cycles_per_pixel, pixels, hz);

        let mut transmission = Seconds::ZERO;
        let mut edge = Seconds::ZERO;

        if scenario.execution.uses_edge() {
            client += Self::cycles_latency(self.encoding_cycles_per_pixel, pixels, hz);
            let server = &scenario.edge_servers[0];
            let link = server.link();
            transmission = link.transmission_latency(scenario.frame.encoded_data);
            edge = Self::cycles_latency(
                self.inference_cycles_per_pixel,
                pixels,
                hz * self.server_speedup.max(1e-9),
            );
        } else {
            client += Self::cycles_latency(self.conversion_cycles_per_pixel, pixels, hz)
                + Self::cycles_latency(self.inference_cycles_per_pixel, pixels, hz);
        }

        (client, transmission, edge)
    }
}

impl Default for LeafModel {
    fn default() -> Self {
        Self::new()
    }
}

impl BaselineModel for LeafModel {
    fn name(&self) -> &'static str {
        "LEAF"
    }

    fn predict_latency(&self, scenario: &CheckedScenario) -> Seconds {
        let (client, transmission, edge) = self.raw_components(scenario);
        (client + transmission + edge) * self.latency_scale
    }

    fn predict_energy(&self, scenario: &CheckedScenario) -> Joules {
        let (client, transmission, edge) = self.raw_components(scenario);
        let energy = self.compute_power * client
            + self.transmit_power * transmission
            + self.idle_power * edge;
        energy * (self.latency_scale * self.energy_scale)
    }

    fn calibrate(
        &mut self,
        scenario: &CheckedScenario,
        observed_latency: Seconds,
        observed_energy: Joules,
    ) {
        let raw_latency = {
            let (c, t, e) = self.raw_components(scenario);
            c + t + e
        };
        if raw_latency.is_positive() && observed_latency.is_positive() {
            self.latency_scale = observed_latency / raw_latency;
        }
        let scaled_energy = {
            let (c, t, e) = self.raw_components(scenario);
            (self.compute_power * c + self.transmit_power * t + self.idle_power * e).as_f64()
                * self.latency_scale
        };
        if scaled_energy > 0.0 && observed_energy.is_positive() {
            self.energy_scale = observed_energy.as_f64() / scaled_energy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::FactModel;
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
    fn latency_is_monotone_in_frame_size_and_clock() {
        let leaf = LeafModel::new();
        let small = leaf.predict_latency(&scenario(300.0, 2.0, ExecutionTarget::Remote));
        let large = leaf.predict_latency(&scenario(700.0, 2.0, ExecutionTarget::Remote));
        assert!(large > small);
        let fast = leaf.predict_latency(&scenario(500.0, 3.0, ExecutionTarget::Local));
        let slow = leaf.predict_latency(&scenario(500.0, 1.0, ExecutionTarget::Local));
        assert!(fast < slow);
    }

    #[test]
    fn energy_splits_by_activity_state() {
        let leaf = LeafModel::new();
        let local = scenario(500.0, 2.0, ExecutionTarget::Local);
        let remote = scenario(500.0, 2.0, ExecutionTarget::Remote);
        let e_local = leaf.predict_energy(&local);
        let e_remote = leaf.predict_energy(&remote);
        assert!(e_local.as_f64() > 0.0 && e_remote.as_f64() > 0.0);
        // Remote shifts inference cycles to the cheap idle-power state, so
        // per LEAF the remote energy is lower for equal frame sizes.
        assert!(e_remote < e_local);
    }

    #[test]
    fn calibration_pins_the_reference_point() {
        let mut leaf = LeafModel::new();
        let reference = scenario(500.0, 2.0, ExecutionTarget::Remote);
        leaf.calibrate(&reference, Seconds::new(0.75), Joules::new(1.2));
        let latency = leaf.predict_latency(&reference);
        let energy = leaf.predict_energy(&reference);
        assert!((latency.as_f64() - 0.75).abs() < 1e-9);
        assert!((energy.as_f64() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn leaf_includes_the_frame_interval_fact_does_not() {
        // LEAF's per-segment structure captures the 1/fps capture delay;
        // FACT's lumped model does not, so at a tiny frame size LEAF predicts
        // a larger floor latency.
        let leaf = LeafModel::new();
        let fact = FactModel::new();
        let tiny = scenario(100.0, 3.0, ExecutionTarget::Remote);
        let l_leaf = leaf.predict_latency(&tiny);
        let l_fact = fact.predict_latency(&tiny);
        assert!(l_leaf.as_f64() > 1.0 / 30.0);
        assert!(l_leaf > l_fact);
    }

    #[test]
    fn name_and_default() {
        assert_eq!(LeafModel::new().name(), "LEAF");
        assert_eq!(LeafModel::default(), LeafModel::new());
    }
}
