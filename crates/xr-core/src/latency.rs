//! The end-to-end latency analysis model of Section IV (Eqs. 1–18).

use crate::encoding::EncodingLatencyModel;
use crate::scenario::{CheckedScenario, Scenario};
use serde::{Deserialize, Serialize};
use xr_devices::{CnnComplexityModel, ComputeResourceModel};
use xr_queueing::MM1Queue;
use xr_types::{MegaBytes, Result, Seconds, Segment, SPEED_OF_LIGHT};
use xr_wireless::{CoverageZone, HandoffModel, RandomWalkMobility};

/// Size in MB of the inference-result payload handed back to the renderer
/// (bounding boxes + labels). Small compared to the frame itself; the paper's
/// rendering model (Eq. 8) only needs it to cost the result-transfer terms
/// `L_tr(loc)` / `L_tr(rem)`.
const RESULT_PAYLOAD_MB: f64 = 0.01;

/// Per-frame latency breakdown: one entry per pipeline segment plus the
/// end-to-end total of Eq. 1.
///
/// The segments sit in fixed slots, indexed by [`Segment::slot`] (the
/// `Segment::ALL` order, as in the testbed's ground-truth frames).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    segments: [Seconds; Segment::ALL.len()],
    total: Seconds,
}

impl LatencyBreakdown {
    /// Latency attributed to one segment (zero when the segment does not
    /// participate in the scenario).
    #[must_use]
    pub fn segment(&self, segment: Segment) -> Seconds {
        self.segments[segment.slot()]
    }

    /// The end-to-end latency `L_tot` of Eq. 1.
    #[must_use]
    pub fn total(&self) -> Seconds {
        self.total
    }

    /// Iterates over `(segment, latency)` pairs in segment order.
    pub fn iter(&self) -> impl Iterator<Item = (Segment, Seconds)> + '_ {
        Segment::ALL.into_iter().zip(self.segments)
    }

    /// The sum of every segment (ignoring the execution-target gating);
    /// useful for sanity checks.
    #[must_use]
    pub fn sum_of_segments(&self) -> Seconds {
        self.segments.into_iter().sum()
    }
}

/// The proposed latency analysis model.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    compute: ComputeResourceModel,
    cnn_complexity: CnnComplexityModel,
    encoding: EncodingLatencyModel,
    handoff: HandoffModel,
    include_memory_terms: bool,
    include_buffering: bool,
    result_payload: MegaBytes,
}

impl LatencyModel {
    /// Builds the model with the paper's published regression coefficients
    /// (Eqs. 3, 10, 12) and literature handoff latencies.
    #[must_use]
    pub fn published() -> Self {
        Self {
            compute: ComputeResourceModel::published(),
            cnn_complexity: CnnComplexityModel::published(),
            encoding: EncodingLatencyModel::published(),
            handoff: HandoffModel::literature_defaults(),
            include_memory_terms: true,
            include_buffering: true,
            result_payload: MegaBytes::new(RESULT_PAYLOAD_MB),
        }
    }

    /// Replaces the compute-resource sub-model (e.g. with one refit on
    /// simulated training data).
    #[must_use]
    pub fn with_compute_model(mut self, compute: ComputeResourceModel) -> Self {
        self.compute = compute;
        self
    }

    /// Replaces the CNN-complexity sub-model.
    #[must_use]
    pub fn with_cnn_complexity(mut self, model: CnnComplexityModel) -> Self {
        self.cnn_complexity = model;
        self
    }

    /// Replaces the encoding-latency sub-model.
    #[must_use]
    pub fn with_encoding_model(mut self, model: EncodingLatencyModel) -> Self {
        self.encoding = model;
        self
    }

    /// Disables the memory-bandwidth (`δ/m`) terms — the FACT-style
    /// ablation exercised by the `ablation_table` paper artifact.
    #[must_use]
    pub fn without_memory_terms(mut self) -> Self {
        self.include_memory_terms = false;
        self
    }

    /// Disables the M/M/1 buffering term in rendering — another ablation.
    #[must_use]
    pub fn without_buffering(mut self) -> Self {
        self.include_buffering = false;
        self
    }

    /// The client compute resource `c_client` for a scenario.
    #[must_use]
    pub fn client_resource(&self, scenario: &Scenario) -> f64 {
        self.compute.client_resource(
            scenario.client.cpu_clock,
            scenario.client.gpu_clock,
            scenario.client.cpu_share,
        )
    }

    /// The edge compute resource `c_ε` for one edge server of a scenario:
    /// either the server's explicit resource or the coupled
    /// `11.76 · c_client`.
    #[must_use]
    pub fn edge_resource(&self, scenario: &Scenario, server_index: usize) -> f64 {
        self.edge_resource_for(scenario, server_index, self.client_resource(scenario))
    }

    /// [`LatencyModel::edge_resource`] given `c_client`.
    fn edge_resource_for(&self, scenario: &Scenario, server_index: usize, c_client: f64) -> f64 {
        scenario
            .edge_servers
            .get(server_index)
            .and_then(|s| s.compute_resource)
            .unwrap_or_else(|| self.compute.edge_resource_from_client(c_client))
    }

    fn memory_term(&self, data: MegaBytes, bandwidth: xr_types::GigaBytesPerSecond) -> Seconds {
        if self.include_memory_terms {
            data / bandwidth
        } else {
            Seconds::ZERO
        }
    }

    fn compute_term(&self, pixels: f64, resource: f64) -> Seconds {
        Seconds::from_millis(pixels / resource.max(f64::MIN_POSITIVE))
    }

    /// Frame-generation latency (Eq. 2).
    #[must_use]
    pub fn frame_generation(&self, scenario: &Scenario) -> Seconds {
        self.frame_generation_for(scenario, self.client_resource(scenario))
    }

    fn frame_generation_for(&self, scenario: &Scenario, c: f64) -> Seconds {
        scenario.frame.frame_rate.period()
            + self.compute_term(scenario.frame.raw_size.as_f64(), c)
            + self.memory_term(scenario.frame.raw_data, scenario.client.memory_bandwidth)
    }

    /// Volumetric-data-generation latency (Eq. 4).
    #[must_use]
    pub fn volumetric(&self, scenario: &Scenario) -> Seconds {
        self.volumetric_for(scenario, self.client_resource(scenario))
    }

    fn volumetric_for(&self, scenario: &Scenario, c: f64) -> Seconds {
        self.compute_term(scenario.frame.scene_size.as_f64(), c)
            + self.memory_term(
                scenario.frame.volumetric_data,
                scenario.client.memory_bandwidth,
            )
    }

    /// External-sensor-information latency (Eqs. 5–6): the slowest sensor's
    /// cumulative generation + propagation time over the `N` required updates.
    #[must_use]
    pub fn external_information(&self, scenario: &Scenario) -> Seconds {
        let n = f64::from(scenario.updates_per_frame);
        scenario
            .sensors
            .iter()
            .map(|s| {
                let per_update = s.generation_frequency.period() + (s.distance / SPEED_OF_LIGHT);
                per_update * n
            })
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Input-buffer waiting time (Eq. 7 with each flow modelled as a stable
    /// M/M/1 queue, Eq. 22).
    ///
    /// # Errors
    ///
    /// Returns [`xr_types::Error::UnstableQueue`] if any flow saturates the
    /// buffer (a checked scenario rules this out).
    pub fn buffering(&self, scenario: &Scenario) -> Result<Seconds> {
        if !self.include_buffering {
            return Ok(Seconds::ZERO);
        }
        let mu = scenario.buffer.service_rate;
        let frame_rate = scenario.frame.frame_rate.as_f64();
        let mut total = Seconds::ZERO;
        let flows = [
            scenario.buffer.frame_arrival_rate.unwrap_or(frame_rate),
            scenario
                .buffer
                .volumetric_arrival_rate
                .unwrap_or(frame_rate),
            scenario.external_arrival_rate(),
        ];
        for lambda in flows {
            if lambda <= 0.0 {
                continue;
            }
            total += MM1Queue::new(lambda, mu)?.mean_time_in_system();
        }
        Ok(total)
    }

    /// Frame-conversion latency (Eq. 9).
    #[must_use]
    pub fn frame_conversion(&self, scenario: &Scenario) -> Seconds {
        self.frame_conversion_for(scenario, self.client_resource(scenario))
    }

    fn frame_conversion_for(&self, scenario: &Scenario, c: f64) -> Seconds {
        self.compute_term(scenario.frame.raw_size.as_f64(), c)
            + self.memory_term(scenario.frame.raw_data, scenario.client.memory_bandwidth)
    }

    /// Frame-encoding latency (Eq. 10).
    #[must_use]
    pub fn frame_encoding(&self, scenario: &Scenario) -> Seconds {
        self.frame_encoding_for(scenario, self.client_resource(scenario))
    }

    fn frame_encoding_for(&self, scenario: &Scenario, c: f64) -> Seconds {
        let full = self.encoding.encoding_latency(
            &scenario.encoding,
            &scenario.frame,
            c,
            scenario.client.memory_bandwidth,
        );
        if self.include_memory_terms {
            full
        } else {
            full - (scenario.frame.raw_data / scenario.client.memory_bandwidth)
        }
    }

    /// Local-inference latency (Eq. 11).
    ///
    /// Note on `C_CNN`: Eq. 11 as typeset divides the frame size by
    /// `c_client · C_CNN`, which would make deeper/larger CNNs *faster*. The
    /// paper's own motivation (§IV-A: "the depth and size of neural networks
    /// have impacts on the latency") and the EPAM measurement study it builds
    /// on show the opposite, so this implementation treats `C_CNN` as a
    /// workload multiplier: `L_loc = ω_client·[s_f2·C_CNN/c_client + δ_f2/m]`.
    #[must_use]
    pub fn local_inference(&self, scenario: &Scenario) -> Seconds {
        self.local_inference_for(scenario, self.client_resource(scenario))
    }

    fn local_inference_for(&self, scenario: &Scenario, c: f64) -> Seconds {
        let client_share = scenario.execution.client_share();
        if client_share <= 0.0 {
            return Seconds::ZERO;
        }
        let complexity = self.cnn_complexity.complexity(scenario.local_cnn);
        let inner = self.compute_term(scenario.frame.converted_size.as_f64() * complexity, c)
            + self.memory_term(
                scenario.frame.converted_data,
                scenario.client.memory_bandwidth,
            );
        inner * client_share
    }

    /// Remote-inference latency on one edge server (Eq. 13): decode + infer +
    /// memory traffic.
    #[must_use]
    pub fn remote_inference_on(&self, scenario: &Scenario, server_index: usize) -> Seconds {
        let c_client = self.client_resource(scenario);
        let complexity = self.cnn_complexity.complexity(scenario.remote_cnn);
        self.remote_inference_on_for(scenario, server_index, c_client, complexity)
    }

    /// [`LatencyModel::remote_inference_on`] given `c_client` and the remote
    /// CNN's complexity `C_CNN`.
    fn remote_inference_on_for(
        &self,
        scenario: &Scenario,
        server_index: usize,
        c_client: f64,
        complexity: f64,
    ) -> Seconds {
        let Some(server) = scenario.edge_servers.get(server_index) else {
            return Seconds::ZERO;
        };
        let c_edge = self.edge_resource_for(scenario, server_index, c_client);
        let decode =
            self.encoding
                .decoding_latency(&scenario.encoding, &scenario.frame, c_client, c_edge);
        // `C_CNN` multiplies the workload; see the note on `local_inference`.
        self.compute_term(scenario.frame.encoded_size.as_f64() * complexity, c_edge)
            + self.memory_term(scenario.frame.encoded_data, server.memory_bandwidth)
            + decode
    }

    /// Remote-inference latency across all edge servers (Eq. 15): the slowest
    /// weighted share dominates because the servers work in parallel.
    #[must_use]
    pub fn remote_inference(&self, scenario: &Scenario) -> Seconds {
        self.remote_inference_for(scenario, self.client_resource(scenario))
    }

    fn remote_inference_for(&self, scenario: &Scenario, c_client: f64) -> Seconds {
        let edge_share = scenario.execution.edge_share();
        if edge_share <= 0.0 || scenario.edge_servers.is_empty() {
            return Seconds::ZERO;
        }
        let complexity = self.cnn_complexity.complexity(scenario.remote_cnn);
        let total_share: f64 = scenario.edge_servers.iter().map(|s| s.task_share).sum();
        scenario
            .edge_servers
            .iter()
            .enumerate()
            .map(|(i, server)| {
                let weight = if total_share > 0.0 {
                    server.task_share / total_share * edge_share
                } else {
                    0.0
                };
                self.remote_inference_on_for(scenario, i, c_client, complexity) * weight
            })
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Uplink transmission latency (Eq. 16): encoded frame (plus volumetric
    /// data and control info riding along) over the wireless link to the
    /// slowest edge server used.
    #[must_use]
    pub fn transmission(&self, scenario: &Scenario) -> Seconds {
        if !scenario.execution.uses_edge() || scenario.edge_servers.is_empty() {
            return Seconds::ZERO;
        }
        scenario
            .edge_servers
            .iter()
            .map(|server| {
                server
                    .link()
                    .transmission_latency(scenario.frame.encoded_data)
            })
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Latency of delivering the inference result to the renderer:
    /// `L_tr(loc)` reads the result out of device memory, `L_tr(rem)` carries
    /// it back over the wireless downlink (Eq. 8's last two terms).
    #[must_use]
    pub fn result_delivery(&self, scenario: &Scenario) -> Seconds {
        if scenario.execution.uses_edge() && !scenario.edge_servers.is_empty() {
            scenario.edge_servers[0]
                .link()
                .transmission_latency(self.result_payload)
        } else {
            self.memory_term(self.result_payload, scenario.client.memory_bandwidth)
        }
    }

    /// Handoff latency (Eq. 17).
    #[must_use]
    pub fn handoff(&self, scenario: &Scenario) -> Seconds {
        if !scenario.execution.uses_edge() {
            return Seconds::ZERO;
        }
        if scenario.mobility.speed.as_f64() <= 0.0 {
            return Seconds::ZERO;
        }
        let mobility = RandomWalkMobility::new(
            scenario.mobility.speed,
            Seconds::new(0.1),
            CoverageZone::new(scenario.mobility.coverage_radius),
        );
        self.handoff.expected_latency(
            scenario.mobility.handoff_kind,
            &mobility,
            scenario.frame_window(),
        )
    }

    /// XR-cooperation latency (Eq. 18).
    #[must_use]
    pub fn cooperation(&self, scenario: &Scenario) -> Seconds {
        scenario.cooperation.payload / scenario.cooperation.throughput
            + scenario.cooperation.distance / SPEED_OF_LIGHT
    }

    /// Frame-rendering latency (Eq. 8): compute + memory + buffering +
    /// result delivery.
    ///
    /// # Errors
    ///
    /// Propagates buffering errors for unstable buffer configurations.
    pub fn rendering(&self, scenario: &Scenario) -> Result<Seconds> {
        Ok(self.rendering_for(
            scenario,
            self.client_resource(scenario),
            self.buffering(scenario)?,
        ))
    }

    /// [`LatencyModel::rendering`] given `c_client` and the buffering term.
    fn rendering_for(&self, scenario: &Scenario, c: f64, buffering: Seconds) -> Seconds {
        self.compute_term(scenario.frame.raw_size.as_f64(), c)
            + self.memory_term(scenario.frame.raw_data, scenario.client.memory_bandwidth)
            + buffering
            + self.result_delivery(scenario)
    }

    /// Computes the full per-segment breakdown and the end-to-end total of
    /// Eq. 1 for one frame of the scenario.
    ///
    /// `c_client`, each server's `c_ε` and the buffering sum are each
    /// evaluated once; every segment equals its public per-segment method
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns queueing errors.
    pub fn analyze(&self, scenario: &CheckedScenario) -> Result<LatencyBreakdown> {
        let omega_loc = scenario.execution.client_share();
        let omega_rem = scenario.execution.edge_share();
        let uses_local = scenario.execution.uses_client();
        let uses_edge = scenario.execution.uses_edge();

        let buffering = self.buffering(scenario)?;
        let c = self.client_resource(scenario);
        let mut segments = [Seconds::ZERO; Segment::ALL.len()];
        segments[Segment::FrameGeneration.slot()] = self.frame_generation_for(scenario, c);
        segments[Segment::VolumetricDataGeneration.slot()] = self.volumetric_for(scenario, c);
        segments[Segment::ExternalSensorInformation.slot()] = self.external_information(scenario);
        segments[Segment::FrameRendering.slot()] = self.rendering_for(scenario, c, buffering);
        if uses_local {
            segments[Segment::FrameConversion.slot()] = self.frame_conversion_for(scenario, c);
        }
        if uses_edge {
            segments[Segment::FrameEncoding.slot()] = self.frame_encoding_for(scenario, c);
        }
        segments[Segment::LocalInference.slot()] = self.local_inference_for(scenario, c);
        segments[Segment::RemoteInference.slot()] = self.remote_inference_for(scenario, c);
        segments[Segment::Transmission.slot()] = self.transmission(scenario);
        segments[Segment::Handoff.slot()] = self.handoff(scenario);
        segments[Segment::XrCooperation.slot()] = self.cooperation(scenario);

        // Eq. 1, gated by the execution decision and the scenario's segment
        // set. The conversion/encoding and inference terms are already scaled
        // by their shares inside the per-segment functions where the paper
        // scales them (Eqs. 11, 13); the binary ω gating happens here.
        let mut total = Seconds::ZERO;
        for (segment, latency) in Segment::ALL.into_iter().zip(segments) {
            if !scenario.segments.contains(segment) {
                continue;
            }
            let included = match segment {
                Segment::FrameConversion => uses_local,
                Segment::LocalInference => uses_local,
                Segment::FrameEncoding | Segment::RemoteInference => uses_edge,
                Segment::Transmission | Segment::Handoff => uses_edge,
                Segment::XrCooperation => scenario.cooperation.include_in_totals,
                _ => true,
            };
            if !included {
                continue;
            }
            // Eq. 1 weights frame conversion by ω_loc and encoding by ω̄_loc.
            let weight = match segment {
                Segment::FrameConversion => omega_loc.max(f64::from(u8::from(uses_local))).min(1.0),
                Segment::FrameEncoding => omega_rem.max(f64::from(u8::from(uses_edge))).min(1.0),
                _ => 1.0,
            };
            total += latency * weight;
        }

        Ok(LatencyBreakdown { segments, total })
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::published()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{BufferConfig, MobilityConfig, SensorConfig};
    use xr_types::{ExecutionTarget, GigaHertz, Hertz, Meters, MetersPerSecond};
    use xr_wireless::HandoffKind;

    fn local_scenario(side: f64, clock: f64) -> CheckedScenario {
        Scenario::builder()
            .frame_side(side)
            .cpu_clock(GigaHertz::new(clock))
            .execution(ExecutionTarget::Local)
            .build()
            .unwrap()
    }

    fn remote_scenario(side: f64, clock: f64) -> CheckedScenario {
        Scenario::builder()
            .frame_side(side)
            .cpu_clock(GigaHertz::new(clock))
            .execution(ExecutionTarget::Remote)
            .build()
            .unwrap()
    }

    #[test]
    fn breakdown_total_is_positive_and_consistent() {
        let model = LatencyModel::published();
        let breakdown = model.analyze(&local_scenario(500.0, 2.5)).unwrap();
        assert!(breakdown.total().as_f64() > 0.0);
        assert!(breakdown.total() <= breakdown.sum_of_segments());
        assert!(breakdown.segment(Segment::FrameGeneration).as_f64() > 0.0);
    }

    #[test]
    fn local_scenario_excludes_remote_segments() {
        let model = LatencyModel::published();
        let breakdown = model.analyze(&local_scenario(500.0, 2.5)).unwrap();
        assert_eq!(breakdown.segment(Segment::RemoteInference), Seconds::ZERO);
        assert_eq!(breakdown.segment(Segment::Transmission), Seconds::ZERO);
        assert_eq!(breakdown.segment(Segment::FrameEncoding), Seconds::ZERO);
        assert!(breakdown.segment(Segment::LocalInference).as_f64() > 0.0);
        assert!(breakdown.segment(Segment::FrameConversion).as_f64() > 0.0);
    }

    #[test]
    fn remote_scenario_excludes_local_segments() {
        let model = LatencyModel::published();
        let breakdown = model.analyze(&remote_scenario(500.0, 2.5)).unwrap();
        assert_eq!(breakdown.segment(Segment::LocalInference), Seconds::ZERO);
        assert_eq!(breakdown.segment(Segment::FrameConversion), Seconds::ZERO);
        assert!(breakdown.segment(Segment::RemoteInference).as_f64() > 0.0);
        assert!(breakdown.segment(Segment::Transmission).as_f64() > 0.0);
        assert!(breakdown.segment(Segment::FrameEncoding).as_f64() > 0.0);
    }

    #[test]
    fn latency_grows_with_frame_size() {
        let model = LatencyModel::published();
        for make in [
            local_scenario as fn(f64, f64) -> CheckedScenario,
            remote_scenario,
        ] {
            let small = model.analyze(&make(300.0, 2.5)).unwrap().total();
            let large = model.analyze(&make(700.0, 2.5)).unwrap().total();
            assert!(large > small, "large {large} should exceed small {small}");
        }
    }

    #[test]
    fn latency_falls_with_clock_in_fitted_range() {
        let model = LatencyModel::published();
        // The published Eq.-3 quadratic is increasing above ~1.6 GHz, so more
        // clock means more resource and less latency in that band.
        let slow = model.analyze(&local_scenario(500.0, 2.0)).unwrap().total();
        let fast = model.analyze(&local_scenario(500.0, 3.0)).unwrap().total();
        assert!(fast < slow);
    }

    #[test]
    fn split_execution_includes_both_paths() {
        let model = LatencyModel::published();
        let scenario = Scenario::builder()
            .execution(ExecutionTarget::Split { client_share: 0.5 })
            .build()
            .unwrap();
        let b = model.analyze(&scenario).unwrap();
        assert!(b.segment(Segment::LocalInference).as_f64() > 0.0);
        assert!(b.segment(Segment::RemoteInference).as_f64() > 0.0);
        assert!(b.segment(Segment::Transmission).as_f64() > 0.0);
        // Local inference is scaled by the 0.5 client share.
        let full_local = model
            .analyze(
                &Scenario::builder()
                    .execution(ExecutionTarget::Local)
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .segment(Segment::LocalInference);
        assert!(b.segment(Segment::LocalInference) < full_local);
    }

    #[test]
    fn heavier_cnn_slows_local_inference() {
        let model = LatencyModel::published();
        let light = Scenario::builder()
            .local_cnn("MobileNetV1_240_Quant")
            .unwrap()
            .build()
            .unwrap();
        let heavy = Scenario::builder()
            .local_cnn("NasNet_Float")
            .unwrap()
            .build()
            .unwrap();
        assert!(model.local_inference(&heavy) > model.local_inference(&light));
    }

    #[test]
    fn handoff_only_contributes_for_mobile_remote_scenarios() {
        let model = LatencyModel::published();
        let static_remote = remote_scenario(500.0, 2.5);
        assert_eq!(model.handoff(&static_remote), Seconds::ZERO);

        let mobile = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .mobility(MobilityConfig {
                speed: MetersPerSecond::new(10.0),
                coverage_radius: Meters::new(30.0),
                handoff_kind: HandoffKind::Vertical,
            })
            .build()
            .unwrap();
        assert!(model.handoff(&mobile).as_f64() > 0.0);
        let local_mobile = Scenario::builder()
            .execution(ExecutionTarget::Local)
            .mobility(MobilityConfig {
                speed: MetersPerSecond::new(10.0),
                coverage_radius: Meters::new(30.0),
                handoff_kind: HandoffKind::Vertical,
            })
            .build()
            .unwrap();
        assert_eq!(model.handoff(&local_mobile), Seconds::ZERO);
    }

    #[test]
    fn slowest_sensor_dominates_external_information() {
        let model = LatencyModel::published();
        let scenario = Scenario::builder()
            .sensors(vec![
                SensorConfig::new("fast", Hertz::new(1000.0), Meters::new(10.0)),
                SensorConfig::new("slow", Hertz::new(20.0), Meters::new(10.0)),
            ])
            .updates_per_frame(3)
            .build()
            .unwrap();
        let ext = model.external_information(&scenario);
        // Slow sensor: 3 × (50 ms + propagation) ≈ 150 ms.
        assert!((ext.as_f64() - 0.15).abs() < 1e-3);
    }

    #[test]
    fn no_sensors_means_no_external_latency() {
        let model = LatencyModel::published();
        let scenario = Scenario::builder().sensors(Vec::new()).build().unwrap();
        assert_eq!(model.external_information(&scenario), Seconds::ZERO);
    }

    #[test]
    fn ablations_reduce_latency() {
        let scenario = remote_scenario(500.0, 2.5);
        let full = LatencyModel::published()
            .analyze(&scenario)
            .unwrap()
            .total();
        let no_memory = LatencyModel::published()
            .without_memory_terms()
            .analyze(&scenario)
            .unwrap()
            .total();
        let no_buffer = LatencyModel::published()
            .without_buffering()
            .analyze(&scenario)
            .unwrap()
            .total();
        assert!(no_memory < full);
        assert!(no_buffer < full);
    }

    #[test]
    fn buffering_matches_mm1_sum() {
        let model = LatencyModel::published();
        let scenario = Scenario::builder()
            .buffer(BufferConfig {
                service_rate: 1_000.0,
                frame_arrival_rate: Some(30.0),
                volumetric_arrival_rate: Some(30.0),
            })
            .sensors(vec![SensorConfig::new(
                "s",
                Hertz::new(100.0),
                Meters::new(10.0),
            )])
            .build()
            .unwrap();
        let expected = 1.0 / (1000.0 - 30.0) + 1.0 / (1000.0 - 30.0) + 1.0 / (1000.0 - 100.0);
        assert!((model.buffering(&scenario).unwrap().as_f64() - expected).abs() < 1e-12);
    }

    #[test]
    fn multiple_edge_servers_take_the_slowest_share() {
        let model = LatencyModel::published();
        let mut fast = crate::scenario::EdgeServerConfig::jetson_xavier();
        fast.name = "fast-edge";
        fast.compute_resource = Some(500.0);
        fast.task_share = 0.5;
        let mut slow = crate::scenario::EdgeServerConfig::jetson_xavier();
        slow.name = "slow-edge";
        slow.compute_resource = Some(50.0);
        slow.task_share = 0.5;
        let scenario = Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .edge_servers(vec![fast, slow])
            .build()
            .unwrap();
        let combined = model.remote_inference(&scenario);
        let slow_alone = model.remote_inference_on(&scenario, 1) * 0.5;
        assert!((combined.as_f64() - slow_alone.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn edge_resource_uses_coupling_by_default() {
        let model = LatencyModel::published();
        let scenario = remote_scenario(500.0, 2.84);
        let c_client = model.client_resource(&scenario);
        let c_edge = model.edge_resource(&scenario, 0);
        assert!((c_edge - 11.76 * c_client).abs() < 1e-9);
    }

    #[test]
    fn analyze_slots_equal_the_per_segment_methods_bit_for_bit() {
        let mut slow = crate::scenario::EdgeServerConfig::jetson_xavier();
        slow.compute_resource = Some(50.0);
        let mobile = MobilityConfig {
            speed: MetersPerSecond::new(10.0),
            coverage_radius: Meters::new(30.0),
            handoff_kind: HandoffKind::Vertical,
        };
        let mut scenarios = Vec::new();
        for execution in [
            ExecutionTarget::Local,
            ExecutionTarget::Remote,
            ExecutionTarget::Split { client_share: 0.3 },
        ] {
            scenarios.push(Scenario::builder().execution(execution).build().unwrap());
            scenarios.push(
                Scenario::builder()
                    .execution(execution)
                    .mobility(mobile)
                    .edge_servers(vec![
                        crate::scenario::EdgeServerConfig::jetson_xavier(),
                        slow.clone(),
                    ])
                    .build()
                    .unwrap(),
            );
        }
        for model in [
            LatencyModel::published(),
            LatencyModel::published().without_memory_terms(),
            LatencyModel::published().without_buffering(),
        ] {
            for s in &scenarios {
                let b = model.analyze(s).unwrap();
                let uses_local = s.execution.uses_client();
                let uses_edge = s.execution.uses_edge();
                let gated = |on: bool, latency: Seconds| if on { latency } else { Seconds::ZERO };
                let expected = [
                    (Segment::FrameGeneration, model.frame_generation(s)),
                    (Segment::VolumetricDataGeneration, model.volumetric(s)),
                    (
                        Segment::ExternalSensorInformation,
                        model.external_information(s),
                    ),
                    (
                        Segment::FrameConversion,
                        gated(uses_local, model.frame_conversion(s)),
                    ),
                    (
                        Segment::FrameEncoding,
                        gated(uses_edge, model.frame_encoding(s)),
                    ),
                    (Segment::LocalInference, model.local_inference(s)),
                    (Segment::RemoteInference, model.remote_inference(s)),
                    (Segment::FrameRendering, model.rendering(s).unwrap()),
                    (Segment::Transmission, model.transmission(s)),
                    (Segment::Handoff, model.handoff(s)),
                    (Segment::XrCooperation, model.cooperation(s)),
                ];
                for (segment, latency) in expected {
                    assert_eq!(
                        b.segment(segment).as_f64().to_bits(),
                        latency.as_f64().to_bits(),
                        "{segment}"
                    );
                }
                let slots: Vec<Segment> = b.iter().map(|(segment, _)| segment).collect();
                assert_eq!(slots, Segment::ALL);
            }
        }
    }

    #[test]
    fn cooperation_excluded_from_total_by_default() {
        let model = LatencyModel::published();
        let scenario = local_scenario(500.0, 2.5);
        let b = model.analyze(&scenario).unwrap();
        assert!(b.segment(Segment::XrCooperation).as_f64() > 0.0);
        // The standard segment set excludes cooperation, so the total must be
        // smaller than the sum of all segments.
        assert!(b.total() < b.sum_of_segments());
    }
}
