//! H.264 encoder configuration and the encoding-latency regression (Eq. 10),
//! plus the decode-discount relation (Eq. 14).
//!
//! The encoding latency depends on too many codec parameters for a
//! first-principles model, so the paper regresses it on the I-frame interval,
//! B-frame interval, bitrate, frame size, frame rate and quantisation value:
//!
//! ```text
//! L_en = (−574.36 − 7.71·n_i + 142.61·n_b + 53.38·n_bitrate + 1.43·s_f1
//!         + 163.65·n_fps + 3.62·n_quant) / c_client + δ_f1 / m_client   (R² = 0.79)
//! ```
//!
//! Decoding the same frame on the edge server is cheaper; the paper measures
//! the decode cost at roughly one third of the encode cost on the same device
//! and calls that fraction the *discount rate* `γ`, giving
//! `L_dec = L_en · c_client · γ / c_ε` (Eq. 14).

use serde::{Deserialize, Serialize};
use xr_stats::{FittedLinearModel, LinearRegression, NormalEquations};
use xr_types::{Frame, GigaBytesPerSecond, Result, Seconds};

/// The decode/encode discount rate `γ` measured in the paper (≈ 1/3).
pub const DECODE_DISCOUNT: f64 = 1.0 / 3.0;

/// H.264 encoder settings (the covariates of Eq. 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncodingConfig {
    /// I-frame interval `n_i` in frames.
    pub i_frame_interval: f64,
    /// B-frame interval `n_b` in frames.
    pub b_frame_interval: f64,
    /// Target bitrate `n_bitrate` in Mbps.
    pub bitrate_mbps: f64,
    /// Quantisation parameter `n_quant`.
    pub quantization: f64,
    /// Decode/encode discount rate `γ`.
    pub decode_discount: f64,
}

impl Default for EncodingConfig {
    /// Defaults matching the testbed's encoder profile: an I-frame every
    /// 30 frames, no B-frames, 5 Mbps, QP 28, and the measured `γ = 1/3`.
    fn default() -> Self {
        Self {
            i_frame_interval: 30.0,
            b_frame_interval: 1.0,
            bitrate_mbps: 5.0,
            quantization: 28.0,
            decode_discount: DECODE_DISCOUNT,
        }
    }
}

/// The Eq.-10 regression: linear in [`EncodingLatencyModel::features`], with
/// an intercept.
const REGRESSION: LinearRegression = LinearRegression::new();

/// The encoding-latency regression of Eq. 10.
///
/// The regression predicts the *numerator* of Eq. 10 (a compute-work figure
/// in pixel²-equivalents); dividing by `c_client` and adding the buffer-read
/// term `δ_f1/m_client` yields the latency in milliseconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncodingLatencyModel {
    model: FittedLinearModel,
}

impl EncodingLatencyModel {
    /// The published coefficients of Eq. 10 (R² = 0.79).
    #[must_use]
    pub fn published() -> Self {
        Self {
            model: FittedLinearModel::from_coefficients(
                -574.36,
                vec![-7.71, 142.61, 53.38, 1.43, 163.65, 3.62],
                0.79,
            ),
        }
    }

    /// Refits the Eq.-10 functional form on observations
    /// `(n_i, n_b, n_bitrate, s_f1, n_fps, n_quant) → work (pixel²-equivalents)`.
    ///
    /// # Errors
    ///
    /// Propagates regression errors.
    pub fn fit(covariates: &[[f64; 6]], work: &[f64]) -> Result<Self> {
        let model = REGRESSION.fit(covariates.len(), |i| covariates[i], work)?;
        Ok(Self { model })
    }

    /// Empty normal equations of the Eq.-10 form, to push
    /// [`Self::features`] rows into.
    #[must_use]
    pub fn equations() -> NormalEquations<6> {
        REGRESSION.equations()
    }

    /// The Eq.-10 model solved from accumulated normal equations: the
    /// coefficients [`Self::fit`] gives on the same rows, without in-sample
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// Propagates regression errors (no rows, or a singular design).
    pub fn solve(equations: &NormalEquations<6>) -> Result<Self> {
        Ok(Self {
            model: equations.solve()?,
        })
    }

    /// The regression's feature vector for a frame under an encoder config.
    #[must_use]
    pub fn features(config: &EncodingConfig, frame: &Frame) -> [f64; 6] {
        [
            config.i_frame_interval,
            config.b_frame_interval,
            config.bitrate_mbps,
            frame.raw_size.as_f64(),
            frame.frame_rate.as_f64(),
            config.quantization,
        ]
    }

    /// The encoding *work* (numerator of Eq. 10) for a frame, clamped below
    /// at zero.
    #[must_use]
    pub fn encoding_work(&self, config: &EncodingConfig, frame: &Frame) -> f64 {
        self.model.predict(&Self::features(config, frame)).max(0.0)
    }

    /// The encoding latency of Eq. 10.
    ///
    /// `client_resource` is `c_client` in pixel²/ms, so the work/resource
    /// quotient is in milliseconds and is converted to seconds here;
    /// `memory_bandwidth` contributes the buffer-read term `δ_f1/m_client`.
    #[must_use]
    pub fn encoding_latency(
        &self,
        config: &EncodingConfig,
        frame: &Frame,
        client_resource: f64,
        memory_bandwidth: GigaBytesPerSecond,
    ) -> Seconds {
        let work = self.encoding_work(config, frame);
        let compute_ms = work / client_resource.max(f64::MIN_POSITIVE);
        Seconds::from_millis(compute_ms) + (frame.raw_data / memory_bandwidth)
    }

    /// The decoding latency of Eq. 14: `L_dec = L_en · c_client · γ / c_ε`.
    ///
    /// The memory-read term is excluded from the scaling (it is a property of
    /// the encoder device), matching the paper's derivation which relates the
    /// *compute* portions of encode and decode.
    #[must_use]
    pub fn decoding_latency(
        &self,
        config: &EncodingConfig,
        frame: &Frame,
        client_resource: f64,
        edge_resource: f64,
    ) -> Seconds {
        let work = self.encoding_work(config, frame);
        let encode_compute_ms = work / client_resource.max(f64::MIN_POSITIVE);
        let decode_ms = encode_compute_ms * client_resource * config.decode_discount
            / edge_resource.max(f64::MIN_POSITIVE);
        Seconds::from_millis(decode_ms)
    }

    /// R² of the underlying regression; `None` for a model from
    /// [`Self::solve`].
    #[must_use]
    pub fn r_squared(&self) -> Option<f64> {
        self.model.r_squared()
    }

    /// Access to the fitted regression.
    #[must_use]
    pub fn regression(&self) -> &FittedLinearModel {
        &self.model
    }
}

impl Default for EncodingLatencyModel {
    fn default() -> Self {
        Self::published()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_types::{FrameId, Hertz};

    fn frame(side: f64) -> Frame {
        Frame::from_resolution(FrameId::new(1), side, Hertz::new(30.0))
    }

    #[test]
    fn published_work_matches_eq10_numerator() {
        let model = EncodingLatencyModel::published();
        let config = EncodingConfig::default();
        let f = frame(500.0);
        let expected = -574.36 - 7.71 * 30.0
            + 142.61 * 1.0
            + 53.38 * 5.0
            + 1.43 * 500.0
            + 163.65 * 30.0
            + 3.62 * 28.0;
        assert!((model.encoding_work(&config, &f) - expected).abs() < 1e-6);
        assert!((model.r_squared().unwrap() - 0.79).abs() < 1e-12);
    }

    #[test]
    fn encoding_latency_includes_memory_term() {
        let model = EncodingLatencyModel::published();
        let config = EncodingConfig::default();
        let f = frame(500.0);
        let c = 15.0;
        let bw = GigaBytesPerSecond::new(44.0);
        let latency = model.encoding_latency(&config, &f, c, bw);
        let compute_only = Seconds::from_millis(model.encoding_work(&config, &f) / c);
        assert!(latency > compute_only);
        let memory = f.raw_data / bw;
        assert!((latency.as_f64() - compute_only.as_f64() - memory.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn larger_frames_cost_more_to_encode() {
        let model = EncodingLatencyModel::published();
        let config = EncodingConfig::default();
        let bw = GigaBytesPerSecond::new(44.0);
        let small = model.encoding_latency(&config, &frame(300.0), 15.0, bw);
        let large = model.encoding_latency(&config, &frame(700.0), 15.0, bw);
        assert!(large > small);
    }

    #[test]
    fn faster_clients_encode_faster() {
        let model = EncodingLatencyModel::published();
        let config = EncodingConfig::default();
        let bw = GigaBytesPerSecond::new(44.0);
        let slow = model.encoding_latency(&config, &frame(500.0), 10.0, bw);
        let fast = model.encoding_latency(&config, &frame(500.0), 20.0, bw);
        assert!(fast < slow);
    }

    #[test]
    fn decode_is_cheaper_than_encode_on_a_stronger_server() {
        let model = EncodingLatencyModel::published();
        let config = EncodingConfig::default();
        let f = frame(500.0);
        let c_client = 15.0;
        let c_edge = 11.76 * c_client;
        let bw = GigaBytesPerSecond::new(44.0);
        let encode = model.encoding_latency(&config, &f, c_client, bw);
        let decode = model.decoding_latency(&config, &f, c_client, c_edge);
        assert!(decode < encode);
        // With γ = 1/3 and c_ε = 11.76·c_client, decode compute should be
        // encode compute divided by ~35.3.
        let encode_compute = encode.as_f64() - (f.raw_data / bw).as_f64();
        assert!((decode.as_f64() - encode_compute / (3.0 * 11.76)).abs() < 1e-9);
    }

    #[test]
    fn same_device_decode_is_one_third_of_encode_compute() {
        // γ is defined as the decode/encode ratio on the same device.
        let model = EncodingLatencyModel::published();
        let config = EncodingConfig::default();
        let f = frame(400.0);
        let c = 12.0;
        let decode = model.decoding_latency(&config, &f, c, c);
        let encode_compute = Seconds::from_millis(model.encoding_work(&config, &f) / c);
        assert!((decode.as_f64() - encode_compute.as_f64() / 3.0).abs() < 1e-12);
    }

    #[test]
    fn refit_recovers_published_coefficients() {
        let published = EncodingLatencyModel::published();
        // Sample a grid of covariates, compute the published work, refit.
        let mut covariates = Vec::new();
        let mut work = Vec::new();
        for i in [10.0, 30.0, 60.0] {
            for b in [0.0, 1.0, 2.0] {
                for r in [2.0, 5.0, 10.0] {
                    for s in [300.0, 500.0, 700.0] {
                        for fps in [15.0, 30.0] {
                            for q in [23.0, 28.0] {
                                let c = [i, b, r, s, fps, q];
                                covariates.push(c);
                                work.push(published.model.predict(&c));
                            }
                        }
                    }
                }
            }
        }
        let refit = EncodingLatencyModel::fit(&covariates, &work).unwrap();
        let config = EncodingConfig::default();
        let f = frame(600.0);
        assert!(
            (refit.encoding_work(&config, &f) - published.encoding_work(&config, &f)).abs() < 1e-3
        );
        assert!(refit.regression().r_squared().unwrap() > 0.999);
    }

    #[test]
    fn work_clamped_at_zero_for_degenerate_settings() {
        let model = EncodingLatencyModel::published();
        let config = EncodingConfig {
            i_frame_interval: 1_000.0,
            b_frame_interval: 0.0,
            bitrate_mbps: 0.1,
            quantization: 0.0,
            decode_discount: DECODE_DISCOUNT,
        };
        // A tiny frame with extreme settings drives the raw regression
        // negative; the clamp keeps latency non-negative.
        let f = Frame::from_resolution(FrameId::new(1), 40.0, Hertz::new(1.0));
        assert!(model.encoding_work(&config, &f) >= 0.0);
        let l = model.encoding_latency(&config, &f, 15.0, GigaBytesPerSecond::new(44.0));
        assert!(l.as_f64() >= 0.0);
    }
}
