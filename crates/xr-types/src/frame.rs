//! Frame descriptors and frame streams.
//!
//! The paper models every performance metric *per generated frame* `q`. A
//! [`Frame`] carries the per-frame workload parameters the analytical model
//! consumes: raw frame size `s_f1` (pixel²), converted size `s_f2`, encoded
//! size `s_f3`, the corresponding data sizes `δ_f1..δ_f4`, the virtual scene
//! size `s_vol`, and the frame rate `n_fps`.

use crate::ids::FrameId;
use crate::units::{Hertz, MegaBytes, PixelsSquared};
use serde::{Deserialize, Serialize};

/// Workload description of a single generated frame `q`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Frame index `q ∈ {1, …, Q_n}`.
    pub id: FrameId,
    /// Capture frame rate `n_fps` (frames per second).
    pub frame_rate: Hertz,
    /// Raw captured frame size `s_f1` in pixel².
    pub raw_size: PixelsSquared,
    /// Converted (RGB, scaled/cropped) frame size `s_f2` in pixel².
    pub converted_size: PixelsSquared,
    /// Encoded frame size `s_f3` in pixel² (resolution fed to the encoder).
    pub encoded_size: PixelsSquared,
    /// Virtual scene size `s_vol` in pixel² used for volumetric data.
    pub scene_size: PixelsSquared,
    /// Raw frame data size `δ_f1` in MB.
    pub raw_data: MegaBytes,
    /// Converted frame data size `δ_f2` in MB.
    pub converted_data: MegaBytes,
    /// Encoded frame data size `δ_f3` in MB (what crosses the wireless link).
    pub encoded_data: MegaBytes,
    /// Cooperation payload size `δ_f4` in MB (scene fragments shared with
    /// cooperative XR devices).
    pub cooperation_data: MegaBytes,
    /// Volumetric data size `δ_vol` in MB.
    pub volumetric_data: MegaBytes,
}

impl Frame {
    /// Bytes per pixel of an uncompressed RGBA frame, used by
    /// [`Frame::from_resolution`] to derive `δ_f1` from `s_f1`.
    pub const BYTES_PER_PIXEL: f64 = 4.0;
    /// Default H.264 compression factor used to derive `δ_f3` from `δ_f1`.
    pub const DEFAULT_COMPRESSION: f64 = 18.0;

    /// Builds a frame from the paper's frame-size parameter and a frame rate.
    ///
    /// The paper's evaluation sweeps the "frame size (pixel²)" `s_f1` over
    /// 300–700 — the side of the square input tensor, reported in the
    /// figures' pixel² unit. The workload sizes (`s_f1`, `s_f2`, `s_f3`,
    /// `s_vol`) use that parameter directly, matching the magnitudes of
    /// Eqs. 2–13 (e.g. the `1.43·s_f1` term of Eq. 10). The *data* sizes
    /// (`δ_f1` …) are derived from the true pixel count (`side²`) at four
    /// RGBA bytes per pixel, with H.264 compression for `δ_f3`.
    #[must_use]
    pub fn from_resolution(id: FrameId, side: f64, frame_rate: Hertz) -> Self {
        assert!(side > 0.0, "frame side must be positive");
        let pixels = side * side;
        let raw_mb = pixels * Self::BYTES_PER_PIXEL / 1e6;
        let converted_side = side.min(640.0);
        let converted_pixels = converted_side * converted_side;
        Self {
            id,
            frame_rate,
            raw_size: PixelsSquared::new(side),
            converted_size: PixelsSquared::new(converted_side),
            encoded_size: PixelsSquared::new(side),
            scene_size: PixelsSquared::new(side * 1.5),
            raw_data: MegaBytes::new(raw_mb),
            converted_data: MegaBytes::new(converted_pixels * Self::BYTES_PER_PIXEL / 1e6),
            encoded_data: MegaBytes::new(raw_mb / Self::DEFAULT_COMPRESSION),
            cooperation_data: MegaBytes::new(raw_mb / (Self::DEFAULT_COMPRESSION * 2.0)),
            volumetric_data: MegaBytes::new(raw_mb * 0.25),
        }
    }
}

/// An iterator over the frames of an XR session.
///
/// `FrameStream` produces `Q_n` frames with identical workload parameters —
/// matching the paper's per-frame formulation where the sweep variable (frame
/// size, clock frequency) is constant within one experiment run.
#[derive(Debug, Clone)]
pub struct FrameStream {
    template: Frame,
    next_index: u64,
    total: u64,
}

impl FrameStream {
    /// Creates a stream of `total` frames cloned from `template` with
    /// consecutive [`FrameId`]s starting at 1.
    #[must_use]
    pub fn new(template: Frame, total: u64) -> Self {
        Self {
            template,
            next_index: 1,
            total,
        }
    }

    /// Number of frames remaining.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.total.saturating_sub(self.next_index - 1)
    }

    /// Total number of frames `Q_n` in the session.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl Iterator for FrameStream {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.next_index > self.total {
            return None;
        }
        let mut frame = self.template;
        frame.id = FrameId::new(self.next_index);
        self.next_index += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining() as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for FrameStream {}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> Frame {
        Frame::from_resolution(FrameId::new(0), 500.0, Hertz::new(30.0))
    }

    #[test]
    fn from_resolution_derives_consistent_sizes() {
        let f = template();
        assert!((f.raw_size.as_f64() - 500.0).abs() < 1e-9);
        // 500² pixels × 4 B = 1 MB raw data.
        assert!((f.raw_data.as_f64() - 1.0).abs() < 1e-9);
        // Encoded data is compressed.
        assert!(f.encoded_data < f.raw_data);
        // Converted frame never exceeds the raw frame.
        assert!(f.converted_size <= f.raw_size);
        assert!(f.volumetric_data < f.raw_data);
        assert!((f.scene_size.as_f64() - 750.0).abs() < 1e-9);
    }

    #[test]
    fn converted_size_caps_at_cnn_input() {
        let f = Frame::from_resolution(FrameId::new(0), 700.0, Hertz::new(30.0));
        assert!((f.converted_size.as_f64() - 640.0).abs() < 1e-9);
        assert!((f.encoded_size.as_f64() - 700.0).abs() < 1e-9);
    }

    #[test]
    fn stream_yields_sequential_ids() {
        let stream = FrameStream::new(template(), 5);
        assert_eq!(stream.len(), 5);
        let ids: Vec<u64> = stream.map(|f| f.id.index()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stream_remaining_counts_down() {
        let mut stream = FrameStream::new(template(), 3);
        assert_eq!(stream.remaining(), 3);
        assert_eq!(stream.total(), 3);
        stream.next();
        assert_eq!(stream.remaining(), 2);
        stream.next();
        stream.next();
        assert_eq!(stream.remaining(), 0);
        assert!(stream.next().is_none());
    }

    #[test]
    #[should_panic(expected = "frame side must be positive")]
    fn zero_side_rejected() {
        let _ = Frame::from_resolution(FrameId::new(0), 0.0, Hertz::new(30.0));
    }
}
